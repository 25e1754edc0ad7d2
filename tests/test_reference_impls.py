"""The array and integer implementations against the straightforward loop
and exact-rational versions they replaced, kept here as references.

Where the arithmetic is unchanged the results must be bitwise equal (files
byte-equal); only general ``Poly2`` products, whose summation order differs,
are held to a rounding-error bound instead.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import spun4d
from spun4d import catalog
from spun4d.approx import (
    _bernstein_to_monomial, _shift_half, bernstein_fit2, bernstein_lattice, chebyshev_fit,
)
from spun4d.catalog import (
    DIAG_SEP, GRID_N, MERGE_TOL, RESIDUAL_TOL, get_knot, knot_names, lift_height,
)
from spun4d.errors import NonGeneric
from spun4d.export import (
    AXIS_NAMES, FLOAT_FMT, Grid3, SurfaceMesh, export_grid_csv, export_mesh,
    export_slices, project, sample_surface, slice_surface, to_mesh,
)
from spun4d.poly import Interval, Poly1, Poly2, poly_scale
from spun4d.spin import polynomial_spin, spin
from spun4d.surface import TWO_PI, PolyMap4


def _bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + str(a.shape).encode() + a.tobytes()


# -- import cost --------------------------------------------------------------

def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(spun4d.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, spun4d; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# -- Bernstein fit ------------------------------------------------------------

def bernstein_fit2_fraction(samples, degree):
    """Reference: the exact path in Fraction arithmetic."""
    samples = np.asarray(samples, float)
    T = _bernstein_to_monomial(degree)
    S = _shift_half(degree)
    conv = S.T @ T.T
    scale = Fraction(4 ** degree)
    out = []
    for c in range(4):
        V = np.empty((degree + 1, degree + 1), dtype=object)
        for i in range(degree + 1):
            for j in range(degree + 1):
                V[i, j] = Fraction(float(samples[i, j, c]))
        W = conv @ V @ conv.T
        out.append(Poly2(np.array([[float(w / scale) for w in row] for row in W])))
    return tuple(out)


def _spun_trefoil_samples(degree):
    surface = spin(get_knot("trefoil_spun"))
    u = bernstein_lattice(degree)
    tv = surface.t_dom.mid + 0.5 * surface.t_dom.length * u
    sv = surface.s_dom.mid + 0.5 * surface.s_dom.length * u
    return surface.eval_grid(tv, sv)


def _awkward_samples(degree, rng):
    """Random samples with exact zeros, -0.0 and magnitudes near 1e-300 and
    1e+300."""
    n = degree + 1
    x = rng.normal(size=(n, n, 4))
    x[rng.random((n, n, 4)) < 0.15] = 0.0
    x[rng.random((n, n, 4)) < 0.15] = -0.0
    x[..., 1] *= 1e-300
    x[..., 2] *= 1e300
    x[::3, ::2, 3] *= 1e-300
    return x


@pytest.mark.parametrize("degree", range(1, 31))
def test_bernstein_fit_matches_fraction_reference(degree):
    rng = np.random.default_rng(degree)
    for samples in (_spun_trefoil_samples(degree), _awkward_samples(degree, rng)):
        got = bernstein_fit2(samples, degree)
        ref = bernstein_fit2_fraction(samples, degree)
        for p, q in zip(got, ref):
            assert _bits(p.coeffs) == _bits(q.coeffs)


# -- meshes and writers ---------------------------------------------------------

def to_mesh_loop(grid, weld_seam=None, collapse_poles=None):
    """Reference: the per-vertex and per-cell loop triangulation."""
    nt, ns, _ = grid.points.shape
    weld = grid.seam_duplicated if weld_seam is None else weld_seam
    poles = (grid.pole_low or grid.pole_high) if collapse_poles is None else collapse_poles
    index = -np.ones((nt, ns), dtype=int)
    verts = []

    def add_vertex(p):
        verts.append(np.asarray(p, float))
        return len(verts) - 1

    ns_eff = ns - 1 if weld else ns
    for i in range(nt):
        if poles and grid.pole_low and i == 0:
            index[0, :] = add_vertex(grid.points[0].mean(axis=0))
            continue
        if poles and grid.pole_high and i == nt - 1:
            index[-1, :] = add_vertex(grid.points[-1].mean(axis=0))
            continue
        for j in range(ns_eff):
            index[i, j] = add_vertex(grid.points[i, j])
        if weld:
            index[i, ns - 1] = index[i, 0]
    faces = []
    for i in range(nt - 1):
        for j in range(ns - 1):
            a, b = index[i, j], index[i + 1, j]
            c, d = index[i + 1, j + 1], index[i, j + 1]
            for tri in ((a, b, c), (a, c, d)):
                if len(set(tri)) == 3:
                    faces.append(tri)
    return SurfaceMesh(np.array(verts), np.array(faces, dtype=int))


def edge_multiplicity_loop(mesh):
    mult = {}
    for a, b, c in mesh.faces:
        for e in ((a, b), (b, c), (c, a)):
            key = (min(e), max(e))
            mult[key] = mult.get(key, 0) + 1
    return mult


def export_mesh_loop(mesh, fmt, path):
    """Reference: OBJ / PLY / JSON written line by line."""
    with open(path, "w") as fh:
        if fmt == "obj":
            for v in mesh.vertices:
                fh.write("v " + " ".join(FLOAT_FMT % x for x in v) + "\n")
            for f in mesh.faces:
                fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")
        elif fmt == "ply":
            fh.write("ply\nformat ascii 1.0\n")
            fh.write(f"element vertex {len(mesh.vertices)}\n")
            fh.write("property float x\nproperty float y\nproperty float z\n")
            fh.write(f"element face {len(mesh.faces)}\n")
            fh.write("property list uchar int vertex_indices\nend_header\n")
            for v in mesh.vertices:
                fh.write(" ".join(FLOAT_FMT % x for x in v) + "\n")
            for f in mesh.faces:
                fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")
        else:
            json.dump({
                "type": "surface_mesh",
                "vertices": [[float(x) for x in v] for v in mesh.vertices],
                "faces": [[int(i) for i in f] for f in mesh.faces],
            }, fh)


def export_grid_csv_loop(grid, path):
    nt, ns, dim = grid.points.shape
    with open(path, "w") as fh:
        fh.write("t,theta," + ",".join(AXIS_NAMES[:dim]) + "\n")
        for i in range(nt):
            for j in range(ns):
                row = [grid.tvals[i], grid.svals[j], *grid.points[i, j]]
                fh.write(",".join(FLOAT_FMT % x for x in row) + "\n")


def _open_disk():
    return PolyMap4(
        (Poly2.from_t(Poly1((0.0, 1.0))), Poly2.from_s(Poly1((0.0, 1.0))), Poly2(), Poly2()),
        Interval(-1, 1), Interval(-1, 1),
    )


def _mesh_grids():
    """Projected grids covering every weld / pole combination."""
    tref = project(sample_surface(spin(get_knot("trefoil_spun")), 60, 45), "xzw")
    disk = project(sample_surface(_open_disk(), 10, 10), "xyz")
    one_pole = Grid3(tref.tvals, tref.svals, tref.points, True, False, True)
    return [
        (tref, {}),
        (tref, {"weld_seam": False}),
        (tref, {"collapse_poles": False}),
        (tref, {"weld_seam": False, "collapse_poles": False}),
        (one_pole, {}),
        (disk, {}),
        (disk, {"weld_seam": True, "collapse_poles": True}),
    ]


@pytest.mark.parametrize("case", range(7))
def test_to_mesh_matches_loop_reference(case):
    grid, kw = _mesh_grids()[case]
    got, ref = to_mesh(grid, **kw), to_mesh_loop(grid, **kw)
    assert _bits(got.vertices) == _bits(ref.vertices)
    assert _bits(got.faces) == _bits(ref.faces)
    mult = edge_multiplicity_loop(ref)
    assert got.edge_count == len(mult)
    assert got.is_watertight() == all(m == 2 for m in mult.values())


@pytest.mark.parametrize("fmt", ["obj", "ply", "json"])
def test_mesh_writers_match_loop_reference(tmp_path, fmt):
    for case, (grid, kw) in enumerate(_mesh_grids()):
        mesh = to_mesh(grid, **kw)
        export_mesh(mesh, fmt, tmp_path / f"got{case}.{fmt}")
        export_mesh_loop(mesh, fmt, tmp_path / f"ref{case}.{fmt}")
        assert (tmp_path / f"got{case}.{fmt}").read_bytes() == (tmp_path / f"ref{case}.{fmt}").read_bytes()


def test_grid_csv_matches_loop_reference(tmp_path):
    g4 = sample_surface(spin(get_knot("trefoil_spun")), 31, 17)
    for i, grid in enumerate((g4, project(g4, "xzw"))):
        export_grid_csv(grid, tmp_path / f"got{i}.csv")
        export_grid_csv_loop(grid, tmp_path / f"ref{i}.csv")
        assert (tmp_path / f"got{i}.csv").read_bytes() == (tmp_path / f"ref{i}.csv").read_bytes()


def export_slices_loop(slices, fmt, path_pattern):
    for i, sl in enumerate(slices):
        with open(path_pattern.format(i), "w") as fh:
            if fmt == "json":
                doc = sl.to_json()
                for curve, pts in zip(doc["curves"], sl.curves):
                    curve["points"] = [[float(x) for x in p] for p in pts]
                json.dump(doc, fh)
            else:
                fh.write("curve,closed,c0,c1,c2\n")
                for ci, (pts, closed) in enumerate(zip(sl.curves, sl.closed)):
                    for p in pts:
                        fh.write(f"{ci},{int(closed)}," + ",".join(FLOAT_FMT % x for x in p) + "\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_slice_writers_match_loop_reference(tmp_path, fmt):
    surface = spin(get_knot("trefoil_spun"))
    slices = [slice_surface(surface, "w", v, 64, 64) for v in (0.0, 1.0, -2.5, 100.0)]
    got = export_slices(slices, fmt, str(tmp_path / ("got_{}." + fmt)))
    export_slices_loop(slices, fmt, str(tmp_path / ("ref_{}." + fmt)))
    for i, path in enumerate(got):
        assert open(path, "rb").read() == (tmp_path / f"ref_{i}.{fmt}").read_bytes()


# -- catalog double points ---------------------------------------------------

def _newton_refine_scalar(f, g, df, dg, s0, t0, bound, iters=60):
    x = np.array([s0, t0], float)
    bad = np.array([np.nan, np.nan]), np.array([np.inf, np.inf]), 0.0
    for _ in range(iters):
        F = np.array([f(x[0]) - f(x[1]), g(x[0]) - g(x[1])])
        J = np.array([[df(x[0]), -df(x[1])], [dg(x[0]), -dg(x[1])]])
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        if det == 0.0 or not np.isfinite(det):
            return x, F, 0.0
        x = x - np.linalg.solve(J, F)
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > bound:
            return bad
        if np.max(np.abs(F)) < 1e-14:
            break
    F = np.array([f(x[0]) - f(x[1]), g(x[0]) - g(x[1])])
    J = np.array([[df(x[0]), -df(x[1])], [dg(x[0]), -dg(x[1])]])
    det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    return x, F, det


def plane_double_points_scalar(f, g, iv):
    """Reference: one scalar Newton run per candidate, in candidate order."""
    ts = iv.sample(GRID_N)
    fv, gv = f(ts), g(ts)
    D = (fv[:, None] - fv[None, :]) ** 2 + (gv[:, None] - gv[None, :]) ** 2
    step = iv.length / (GRID_N - 1)
    df, dg = f.derivative(), g.derivative()
    speed = float(np.max(np.hypot(df(ts), dg(ts))))
    thresh = (6.0 * step * max(speed, 1e-12)) ** 2
    off = max(1, int(np.ceil(DIAG_SEP / step)))
    Dm = np.where(np.triu(np.ones_like(D, bool), k=off), D, np.inf)
    P = np.pad(Dm, 1, constant_values=np.inf)
    is_min = np.ones_like(Dm, bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                is_min &= Dm <= P[1 + di : 1 + di + GRID_N, 1 + dj : 1 + dj + GRID_N]
    cand = np.argwhere(is_min & (Dm < thresh))
    scale = max(poly_scale(f, iv), poly_scale(g, iv))
    bound = 2.0 * max(abs(iv.lo), abs(iv.hi)) + 1.0
    found = []
    for i, j in cand:
        (s, t), F, det = _newton_refine_scalar(f, g, df, dg, ts[i], ts[j], bound)
        if not (np.isfinite(s) and np.isfinite(t)):
            continue
        if s > t:
            s, t = t, s
        if not (iv.contains(s, 1e-9) and iv.contains(t, 1e-9)):
            continue
        if t - s <= DIAG_SEP:
            continue
        if np.max(np.abs(F)) > RESIDUAL_TOL * max(scale, 1.0):
            continue
        if abs(det) < 1e-9 * max(speed, 1.0) ** 2:
            raise NonGeneric(f"tangential self-intersection near ({s:.6g}, {t:.6g})")
        if not any(abs(s - a) < MERGE_TOL and abs(t - b) < MERGE_TOL for a, b in found):
            found.append((float(s), float(t)))
    found.sort()
    return found


def _arc_bits(arc):
    iv = arc.crossing_iv
    return (repr((arc.ab.lo, arc.ab.hi)), repr(arc.crossings),
            repr(None if iv is None else (iv.lo, iv.hi)))


@pytest.mark.parametrize("name", knot_names())
def test_get_knot_matches_scalar_newton(name, monkeypatch):
    got = get_knot(name)
    fx = catalog._FIXTURES[name]
    monkeypatch.setattr(catalog, "plane_double_points", plane_double_points_scalar)
    ref = catalog._build_arc(name, Poly1(fx["f"]), Poly1(fx["g"]), Poly1(fx["h"]))
    assert _arc_bits(got) == _arc_bits(ref)


def test_double_points_match_scalar_newton_on_wide_intervals():
    for name in knot_names():
        arc = get_knot(name)
        for iv in (Interval(-5.0, 5.0), Interval(-1.3, 2.1)):
            assert repr(catalog.plane_double_points(arc.f, arc.g, iv)) == \
                repr(plane_double_points_scalar(arc.f, arc.g, iv))


def test_lift_height_matches_scalar_newton(monkeypatch):
    arc = get_knot("trefoil_spun")
    h0 = Poly1((-1.0, 0.0, 4.0, 0.0, -1.0))
    h, ab = lift_height(h0, arc.f, arc.g)
    monkeypatch.setattr(catalog, "plane_double_points", plane_double_points_scalar)
    h_ref, ab_ref = lift_height(h0, arc.f, arc.g)
    assert repr(h.coeffs) == repr(h_ref.coeffs)
    assert repr((ab.lo, ab.hi)) == repr((ab_ref.lo, ab_ref.hi))


# -- Poly2 products --------------------------------------------------------------

@pytest.mark.parametrize("name", knot_names())
def test_poly2_product_bitwise_on_polynomial_spin(name):
    """polynomial_spin multiplies h(t) by the Chebyshev fits of cos and sin in
    theta: one term per coefficient, so no summation order is involved."""
    from scipy.signal import convolve2d

    arc = get_knot(name)
    h2 = Poly2.from_t(arc.h)
    dom = Interval(0.0, TWO_PI)
    for degree in (6, 8, 12, 16):
        pm = polynomial_spin(arc, degree)
        for fn, got in ((np.cos, pm.polys[2]), (np.sin, pm.polys[3])):
            trig = Poly2.from_s(chebyshev_fit(fn, dom, degree).poly)
            assert _bits(got.coeffs) == _bits(Poly2(convolve2d(h2.coeffs, trig.coeffs)).coeffs)


def test_poly2_product_within_rounding_of_exact_convolution():
    """General products sum in another order than a direct convolution, so
    they are held to 4 n eps sum|a_i b_j| of the exact result, with n the
    number of terms in each coefficient."""
    rng = np.random.default_rng(7)
    eps = np.finfo(float).eps
    for _ in range(300):
        a = rng.normal(size=tuple(rng.integers(1, 7, 2))) * 10.0 ** rng.integers(-3, 4)
        b = rng.normal(size=tuple(rng.integers(1, 7, 2))) * 10.0 ** rng.integers(-3, 4)
        shape = (a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1)
        exact = [[Fraction(0)] * shape[1] for _ in range(shape[0])]
        abs_sum, terms = np.zeros(shape), np.zeros(shape)
        for (i, j), bij in np.ndenumerate(b):
            for (p, q), apq in np.ndenumerate(a):
                exact[i + p][j + q] += Fraction(apq) * Fraction(bij)
                abs_sum[i + p, j + q] += abs(apq * bij)
                terms[i + p, j + q] += 1
        got = np.zeros(shape)
        c = (Poly2(a) * Poly2(b)).coeffs
        got[: c.shape[0], : c.shape[1]] = c
        err = np.array([[float(abs(Fraction(got[i, j]) - exact[i][j])) for j in range(shape[1])]
                        for i in range(shape[0])])
        assert np.all(err <= 4 * terms * eps * abs_sum)
