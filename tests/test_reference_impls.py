"""The array and integer implementations against the straightforward loop
and exact-rational versions they replaced, kept here as references.

Where the arithmetic is unchanged the results must be bitwise equal (files
byte-equal); only general ``Poly2`` products, whose summation order differs,
are held to a rounding-error bound instead.
"""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from functools import partial

import numpy as np
from numpy.polynomial import chebyshev as ncheb
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spun4d
from spun4d import catalog
from spun4d import surface as surface_module
from spun4d import verify as verify_module
from spun4d.approx import (
    _cheb_to_power, _chebyshev_interpolant, _limb_width, _perturb, bernstein_fit2, bernstein_lattice,
    chebyshev_fit, odd_perturbation,
)
from spun4d.catalog import (
    DIAG_SEP, GRID_N, MERGE_TOL, RESIDUAL_TOL, get_knot, knot_names, lift_height,
)
from spun4d.errors import NonGeneric, PlaneCrossing, Spun4dError
from spun4d.export import (
    AXIS_NAMES, FLOAT_FMT, SurfaceMesh, _cell_segments, _chain_segments,
    export_grid_csv, export_mesh, export_slices, project, sample_surface, slice_surface, to_mesh,
)
from spun4d.poly import Interval, Poly1, Poly2, poly_scale
from spun4d.spin import polynomial_spin, spin
from spun4d.surface import (
    TWO_PI, PolyMap4, Surface4, Term, Trig, _eval_points, _max_distance, max_grid_deviation,
)
from spun4d.twist import (
    PRECHECK_NT, Bump, choose_bump, make_axis, polynomialize_twist, twist_spin,
)
from spun4d.verify import (
    _PLANE, MAX_COLLISIONS, Collision, _factor_plane, _gram_grid, _image_plane, _inset_samples,
    _rounded, _rounding_bound, _sort_keys, _space_pairs, _suspects, injectivity_scan,
    jacobian_rank_scan, verify_surface,
)


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


def _bernstein_to_power(c):
    """Along axis 0 of an object array of integers, in place: Bernstein
    coefficients of degree n on [-1, 1] become 2^n times the power
    coefficients in t.  With u = (t + 1) / 2, the power coefficients in u are
    comb(n, k) * (k-th forward difference at 0); weights 2^(n - k) express
    them in x = 2u, and repeated suffix sums are the Taylor shift x -> t + 1."""
    n = len(c) - 1
    for k in range(1, n + 1):
        c[k:] = c[k:] - c[k - 1:-1]
    c *= np.array([math.comb(n, k) << (n - k) for k in range(n + 1)],
                  dtype=object).reshape((-1,) + (1,) * (c.ndim - 1))
    for i in range(n):
        c[i:] = np.add.accumulate(c[i:][::-1])[::-1]


def bernstein_fit2_integer(samples, degree):
    """Reference: the coefficient arrays of ``bernstein_fit2`` in Python
    integers, entry by entry.  The samples of a coordinate become integers over
    their largest denominator, ``_bernstein_to_power`` runs along t and then
    along s, and Python's int / int division rounds once; a coefficient beyond
    double range raises the same Spun4dError."""
    out = []
    for c in range(4):
        ratios = [x.as_integer_ratio() for x in samples[:, :, c].ravel().tolist()]
        denom = max(d for _, d in ratios)
        W = np.array([n * (denom // d) for n, d in ratios], dtype=object).reshape(degree + 1, -1)
        _bernstein_to_power(W)
        _bernstein_to_power(W.T)
        scale = denom * 4 ** degree
        try:
            out.append(np.array([[w / scale for w in row] for row in W.tolist()]))
        except OverflowError:
            raise Spun4dError(f"coordinate {'xyzw'[c]} of the degree-{degree} Bernstein fit "
                              "has a coefficient beyond double range") from None
    return out


@pytest.mark.parametrize("degree", range(1, 31))
def test_bernstein_fit_matches_the_integer_oracle_at_every_degree_to_30(degree):
    # the spun trefoil's lattice samples and the seeded awkward ones: no
    # coefficient of either leaves double range
    rng = np.random.default_rng(degree)
    for samples in (_spun_trefoil_samples(degree), _awkward_samples(degree, rng)):
        got = bernstein_fit2(samples, degree)
        for p, q in zip(got, bernstein_fit2_integer(samples, degree)):
            assert _bits(p.coeffs) == _bits(Poly2(q).coeffs)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 80).flatmap(
           lambda n: st.lists(st.integers(-2 ** 300, 2 ** 300), min_size=n + 1, max_size=n + 1)),
       st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=3, max_size=3))
def test_bernstein_to_power_matches_the_definition(b, ts):
    # 2^n sum_i b_i comb(n, i) ((1 + t) / 2)^i ((1 - t) / 2)^(n - i), in exact integers
    n = len(b) - 1
    c = np.array(b, dtype=object)
    _bernstein_to_power(c)
    for t in ts:
        expected = sum(bi * math.comb(n, i) * (1 + t) ** i * (1 - t) ** (n - i)
                       for i, bi in enumerate(b))
        assert sum(ck * t ** k for k, ck in enumerate(c.tolist())) == expected


# samples that stress the exact path: signed zeros, the least subnormal, the
# ends of the normal range and values whose coefficients leave double range
_AWKWARD = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
            1.7e308, -1.7e308, 1.0, -1.5, 0.1]


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(1, 48), seed=st.integers(0, 2 ** 32 - 1),
       scales=st.lists(st.sampled_from([1.0, 1e-300, 1e300, 1e-320, 1e307]), min_size=4, max_size=4),
       planted=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                  st.sampled_from(_AWKWARD) | st.floats(allow_nan=False,
                                                                         allow_infinity=False)),
                        max_size=12))
def test_bernstein_fit_matches_the_integer_oracle(degree, seed, scales, planted):
    rng = np.random.default_rng(seed)
    samples = rng.normal(size=(degree + 1, degree + 1, 4)) * scales
    flat = samples.reshape(-1)
    for at, x in planted:
        flat[at % flat.size] = x
    try:
        want = bernstein_fit2_integer(samples, degree)
    except Spun4dError as exc:
        with pytest.raises(Spun4dError, match=f"^{re.escape(str(exc))}$"):
            bernstein_fit2(samples, degree)
        return
    got = bernstein_fit2(samples, degree)
    for p, q in zip(got, want):
        assert _bits(p.coeffs) == _bits(q)


# the degrees on both sides of each change of the limb width up to 100, and 100
_WIDTH_CHANGES = sorted({m for n in range(2, 101) if _limb_width(n) != _limb_width(n - 1) for m in (n - 1, n)}
                        | {100})


@pytest.mark.parametrize("degree", _WIDTH_CHANGES)
def test_bernstein_fit_matches_the_integer_oracle_where_the_limb_width_changes(degree):
    awkward = _awkward_samples(degree, np.random.default_rng(degree))
    # the same, with the coordinate near 1e300 brought near 1, so that no
    # coefficient leaves double range
    tame = awkward * [1.0, 1.0, 1e-300, 1.0]
    for samples in (_spun_trefoil_samples(degree), awkward, tame):
        try:
            want = bernstein_fit2_integer(samples, degree)
        except Spun4dError as exc:
            with pytest.raises(Spun4dError, match=f"^{re.escape(str(exc))}$"):
                bernstein_fit2(samples, degree)
            continue
        got = bernstein_fit2(samples, degree)
        for p, q in zip(got, want):
            assert _bits(p.coeffs) == _bits(Poly2(q).coeffs)


# -- Chebyshev conversion -------------------------------------------------------

def cheb_to_power_numpy(cheb, mid, half):
    """Reference: numpy.polynomial's cheb2poly, then the power series
    composed with the Polynomial x = (t - mid) / half."""
    mono = ncheb.cheb2poly(cheb)
    q = np.polynomial.Polynomial(mono)(np.polynomial.Polynomial([-mid / half, 1.0 / half]))
    return np.atleast_1d(q.coef)


def chebyshev_fit_numpy(f, iv, degree):
    mid, half = iv.mid, 0.5 * iv.length
    values = np.asarray(f(mid + half * ncheb.chebpts1(degree + 1)), float)
    cheb = ncheb.chebinterpolate(lambda x: values, degree)
    return Poly1(tuple(cheb_to_power_numpy(cheb, mid, half)))


_SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@settings(max_examples=300, deadline=None)
@given(cheb=st.integers(1, 60).flatmap(lambda d: st.lists(
           st.one_of(_SIGNED_ZEROS, st.floats(-1e3, 1e3), st.floats(-1e-3, 1e-3)),
           min_size=d + 1, max_size=d + 1)),
       tail=st.lists(_SIGNED_ZEROS, max_size=4),
       mid=st.one_of(_SIGNED_ZEROS, st.floats(-10.0, 10.0)),
       half=st.floats(1e-2, 1e4))
def test_cheb_to_power_matches_numpy_polynomial_bitwise(cheb, tail, mid, half):
    """Degrees 1-60 with planted zeros of both signs, trailing ones too, under
    random affine maps: the same coefficients, lengths and signed zeros."""
    cheb = np.array(cheb)
    cheb[len(cheb) - min(len(tail), len(cheb)):] = tail[:len(cheb)]
    assert _bits(_cheb_to_power(cheb, mid, half)) == _bits(cheb_to_power_numpy(cheb, mid, half))


_FIT_FUNCTIONS = ([Trig(k, sine) for k in range(15) for sine in (False, True)]
                  + [Bump(1.0, 2.0), np.cos, np.exp, lambda x: x ** 3 - 2.0 * x + 1.0,
                     np.ones_like, np.zeros_like])


@pytest.mark.parametrize("iv", [Interval(0.0, TWO_PI), Interval(-2.5, 2.5), Interval(-1.3, 4.1)],
                         ids=["theta", "symmetric", "shifted"])
def test_chebyshev_fit_matches_numpy_polynomial_bitwise(iv):
    for f in _FIT_FUNCTIONS:
        for degree in (1, 2, 3, 4, 5, 8, 12, 16, 24, 40, 50, 60):
            got, ref = chebyshev_fit(f, iv, degree).poly, chebyshev_fit_numpy(f, iv, degree)
            assert _bits(np.array(got.coeffs)) == _bits(np.array(ref.coeffs))


@pytest.mark.parametrize("degree", [8, 24])
def test_chebyshev_interpolant_is_the_fit_polynomial(degree):
    """The polynomialization's interpolant, without the 1000-sample error
    check, is ``chebyshev_fit``'s polynomial bit for bit."""
    fits = [(Trig(k), Interval(0.0, TWO_PI)) for k in (1, 3, 10)] + [(Bump(1.0, 2.0), Interval(-2.5, 2.5))]
    for f, iv in fits:
        got, ref = _chebyshev_interpolant(f, iv, degree), chebyshev_fit(f, iv, degree).poly
        assert _bits(np.array(got.coeffs)) == _bits(np.array(ref.coeffs))


# -- meshes and writers ---------------------------------------------------------

def to_mesh_loop(grid):
    """Reference: the per-vertex and per-cell loop triangulation."""
    nt, ns, _ = grid.points.shape
    weld = grid.seam_duplicated
    index = -np.ones((nt, ns), dtype=int)
    verts = []

    def add_vertex(p):
        verts.append(np.asarray(p, float))
        return len(verts) - 1

    ns_eff = ns - 1 if weld else ns
    for i in range(nt):
        if grid.pole_low and i == 0:
            index[0, :] = add_vertex(grid.points[0].mean(axis=0))
            continue
        if grid.pole_high and i == nt - 1:
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


def export_grid_csv_loop(grid, columns, path):
    """Reference: the header names t, theta and ``columns``, the grid's
    coordinates as the test made them."""
    nt, ns, dim = grid.points.shape
    assert len(columns) == dim
    with open(path, "w") as fh:
        fh.write("t,theta," + ",".join(columns) + "\n")
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
    return [
        tref,
        replace(tref, seam_duplicated=False),
        replace(tref, pole_low=False, pole_high=False),
        replace(tref, seam_duplicated=False, pole_low=False, pole_high=False),
        replace(tref, pole_low=False),
        disk,
        replace(disk, seam_duplicated=True),
    ]


@pytest.mark.parametrize("case", range(7))
def test_to_mesh_matches_loop_reference(case):
    grid = _mesh_grids()[case]
    got, ref = to_mesh(grid), to_mesh_loop(grid)
    assert _bits(got.vertices) == _bits(ref.vertices)
    assert _bits(got.faces) == _bits(ref.faces)
    mult = edge_multiplicity_loop(ref)
    assert got.edge_count == len(mult)
    assert got.is_watertight() == all(m == 2 for m in mult.values())


@pytest.mark.parametrize("fmt", ["obj", "ply", "json"])
def test_mesh_writers_match_loop_reference(tmp_path, fmt):
    for case, grid in enumerate(_mesh_grids()):
        mesh = to_mesh(grid)
        export_mesh(mesh, fmt, tmp_path / f"got{case}.{fmt}")
        export_mesh_loop(mesh, fmt, tmp_path / f"ref{case}.{fmt}")
        assert (tmp_path / f"got{case}.{fmt}").read_bytes() == (tmp_path / f"ref{case}.{fmt}").read_bytes()


def test_grid_csv_matches_loop_reference(tmp_path):
    """The header names the columns a grid holds: the axes of R^4 it keeps,
    and no axis letters for the rows of a projection matrix."""
    g4 = sample_surface(spin(get_knot("trefoil_spun")), 31, 17)
    matrix = [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
    cases = ((g4, "xyzw"), (project(g4, "xzw"), "xzw"), (project(g4, matrix), ("p0", "p1", "p2")))
    for i, (grid, columns) in enumerate(cases):
        export_grid_csv(grid, tmp_path / f"got{i}.csv")
        export_grid_csv_loop(grid, columns, tmp_path / f"ref{i}.csv")
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


# -- marching squares ---------------------------------------------------------

def cell_segments_loop(field, tvals, svals, value, center_field):
    """Reference: the per-cell loop, with ('h', i, j) for the edge from node
    (i, j) to (i+1, j) and ('v', i, j) for the edge from (i, j) to (i, j+1)."""
    v = field - value
    tiny = np.finfo(float).tiny
    v = np.where(v == 0.0, tiny, v)
    pos = v > 0.0
    nt, ns = v.shape
    crossings = {}

    def edge_point(kind, i, j):
        key = (kind, i, j)
        if key not in crossings:
            if kind == "h":
                a, b = v[i, j], v[i + 1, j]
                frac = a / (a - b)
                crossings[key] = (tvals[i] + frac * (tvals[i + 1] - tvals[i]), svals[j])
            else:
                a, b = v[i, j], v[i, j + 1]
                frac = a / (a - b)
                crossings[key] = (tvals[i], svals[j] + frac * (svals[j + 1] - svals[j]))
        return key

    segments = []
    for i in range(nt - 1):
        for j in range(ns - 1):
            code = (pos[i, j] << 0) | (pos[i + 1, j] << 1) | (pos[i + 1, j + 1] << 2) | (pos[i, j + 1] << 3)
            if code in (0, 15):
                continue
            bottom, right = ("h", i, j), ("v", i + 1, j)
            top, left = ("h", i, j + 1), ("v", i, j)
            table = {
                1: [(bottom, left)], 2: [(bottom, right)], 3: [(right, left)],
                4: [(right, top)], 6: [(bottom, top)], 7: [(top, left)],
                8: [(top, left)], 9: [(bottom, top)], 11: [(right, top)],
                12: [(right, left)], 13: [(bottom, right)], 14: [(bottom, left)],
            }
            if code in (5, 10):
                center_pos = center_field[i, j] > value
                if (code == 5) == center_pos:
                    pairs = [(bottom, right), (top, left)]
                else:
                    pairs = [(bottom, left), (right, top)]
            else:
                pairs = table[code]
            for ka, kb in pairs:
                segments.append((edge_point(*ka), edge_point(*kb)))
    return segments, crossings


def chain_segments_loop(segments):
    """Reference: join segments that share an edge key into polylines, as
    (key list, closed flag) pairs.  Each chain starts at the first unused
    segment (a, b) and walks on from b, each step over the first unused
    segment listed at its key.  Back at a, the chain is closed (a is not
    repeated); else a second walk goes on from a, and the chain is that walk
    reversed, then a, b and the first walk."""
    at = {}
    for idx, seg in enumerate(segments):
        for key in seg:
            at.setdefault(key, []).append(idx)
    used = set()

    def walk(key):
        keys = []
        while True:
            free = [idx for idx in at[key] if idx not in used]
            if not free:
                return keys
            used.add(free[0])
            a, b = segments[free[0]]
            key = b if key == a else a
            keys.append(key)

    chains = []
    for idx, (a, b) in enumerate(segments):
        if idx in used:
            continue
        used.add(idx)
        ahead = walk(b)
        if ahead and ahead[-1] == a:
            chains.append(([a, b] + ahead[:-1], True))
        else:
            chains.append((walk(a)[::-1] + [a, b] + ahead, False))
    return chains


def slice_surface_loop(s, axis, value, n_t, n_s):
    """Reference: the slice traced by the loop, one evaluation per chain;
    returns (curves, closed flags).  When theta is periodic the seam column
    takes column 0's values and a t-edge on it is the t-edge on column 0; a
    pole row takes the value of its first sample."""
    ci = AXIS_NAMES.index(axis)
    keep = [i for i in range(4) if i != ci]
    tvals, svals = s.t_dom.sample(n_t), s.s_dom.sample(n_s)
    field = s.eval_grid(tvals, svals)[..., ci]
    for i in range(n_t):
        for j in range(n_s):
            if s.periodic_s and j == n_s - 1:
                field[i, j] = field[i, 0]
            if (s.pole_low and i == 0) or (s.pole_high and i == n_t - 1):
                field[i, j] = field[i, 0]
    Tc, Sc = np.meshgrid(0.5 * (tvals[:-1] + tvals[1:]), 0.5 * (svals[:-1] + svals[1:]),
                         indexing="ij")
    center = s.evaluate(Tc, Sc)[..., ci]
    segments, crossings = cell_segments_loop(field, tvals, svals, value, center)
    if s.periodic_s:
        seam = {("h", i, n_s - 1): ("h", i, 0) for i in range(n_t - 1)}
        segments = [(seam.get(a, a), seam.get(b, b)) for a, b in segments]
    curves, closed = [], []
    for chain, is_closed in chain_segments_loop(segments):
        params = np.array([crossings[k] for k in chain])
        curves.append(s.evaluate(params[:, 0], params[:, 1])[..., keep])
        closed.append(is_closed)
    return curves, closed


def _loop_key(key, nt, ns):
    kind, i, j = key
    return i * ns + j if kind == "h" else (nt - 1) * ns + i * (ns - 1) + j


def test_cell_segments_match_loop_on_saddles_and_level_nodes():
    rng = np.random.default_rng(3)
    nt, ns = 24, 31
    tvals = np.cumsum(rng.uniform(0.1, 1.0, nt))
    svals = np.cumsum(rng.uniform(0.1, 1.0, ns))
    # few distinct node values, so that nodes lie exactly on either level and
    # saddles are common
    field = rng.choice([-1.0, 0.0, 0.5, 1.0], size=(nt, ns))
    for value in (0.0, 0.5):
        center = value + rng.choice([-1.0, 0.0, 1.0], size=(nt - 1, ns - 1))
        pos = np.where(field == value, True, field > value)
        code = pos[:-1, :-1] | pos[1:, :-1] << 1 | pos[1:, 1:] << 2 | pos[:-1, 1:] << 3
        saddles = {(int(c), bool(up)) for c, up in zip(code.ravel(), (center > value).ravel())
                   if c in (5, 10)}
        assert saddles == {(5, False), (5, True), (10, False), (10, True)}
        assert (field == value).any()

        got, params = _cell_segments(field, tvals, svals, value, lambda i, j: center[i, j])
        ref, ref_params = cell_segments_loop(field, tvals, svals, value, center)
        assert got.tolist() == [[_loop_key(a, nt, ns), _loop_key(b, nt, ns)] for a, b in ref]
        for key, p in ref_params.items():
            assert _bits(params[_loop_key(key, nt, ns)]) == _bits(np.array(p))
        chains = _chain_segments(got.tolist())
        ref_chains = chain_segments_loop(ref)
        assert [c for _, c in chains] == [c for _, c in ref_chains]
        assert [k for k, _ in chains] == [[_loop_key(x, nt, ns) for x in k] for k, _ in ref_chains]


@pytest.fixture(scope="module")
def slice_surfaces():
    arc, tarc = get_knot("trefoil_spun"), get_knot("trefoil_twist")
    axis = make_axis(tarc, -2.19, 2.19)
    # a disk whose x-slices t = x + s^2 are open curves that the row-major
    # cell order meets first in their middle
    disk = PolyMap4(tuple(Poly2(np.array(c, float)) for c in (
        [[0.0, 0.0, -1.0], [1.0, 0.0, 0.0]], [[0.0, 0.5], [1.0, 0.0]], [[0.0, 1.0]],
        [[0.0, 0.0], [0.0, 1.0], [0.3, 0.0]])), Interval(-1.0, 2.0), Interval(-1.2, 1.2))
    return {"spin": spin(arc), "twist_k10": twist_spin(tarc, axis, choose_bump(tarc, axis), 10),
            "polynomial_spin_8": polynomial_spin(arc, 8), "open_disk": disk}


@pytest.mark.parametrize("name", ["spin", "twist_k10", "polynomial_spin_8", "open_disk"])
@pytest.mark.parametrize("axis", list(AXIS_NAMES))
def test_slice_surface_matches_loop_reference(slice_surfaces, name, axis):
    s = slice_surfaces[name]
    f = sample_surface(s, 64, 64).points[..., AXIS_NAMES.index(axis)]
    # interior sweep values, a level through grid nodes, an empty slice
    values = [*np.linspace(f.min(), f.max(), 5)[1:-1], 0.0, 100.0]
    for n_t, n_s in ((64, 64), (64, 97)):
        for value in values:
            got = slice_surface(s, axis, float(value), n_t, n_s)
            curves, closed = slice_surface_loop(s, axis, float(value), n_t, n_s)
            assert got.closed == tuple(closed)
            assert [_bits(c) for c in got.curves] == [_bits(c) for c in curves]


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
        try:
            x = x - np.linalg.solve(J, F)
        except np.linalg.LinAlgError:  # an exact zero LU pivot although det != 0
            return x, F, 0.0
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


def test_double_points_match_scalar_newton_on_wide_intervals(monkeypatch):
    from test_catalog import _seeded_curve

    curves = {name: (get_knot(name).f, get_knot(name).g) for name in knot_names()}
    curves.update({k: _seeded_curve(k) for k in range(16)})
    # seeded curve 5 on [-2, 2] and curve 7 on [-5, 5] each have a start
    # whose Newton step meets an exact zero LU pivot: both searches stop it
    for key, (f, g) in curves.items():
        for iv in (Interval(-5.0, 5.0), Interval(-1.3, 2.1), Interval(-2.0, 2.0)):
            assert repr(catalog.plane_double_points(f, g, iv)) == \
                repr(plane_double_points_scalar(f, g, iv))
    # the trefoil's grid on [-1.96, 1.34] has candidates in row 0 and in
    # column 599, which the neighbour test sees without a padded border
    starts, newton = [], catalog._newton_refine

    def recorded(f, g, df, dg, s0, t0, bound):
        starts.append((s0, t0))
        return newton(f, g, df, dg, s0, t0, bound)

    monkeypatch.setattr(catalog, "_newton_refine", recorded)
    arc, iv = get_knot("trefoil_spun"), Interval(-1.96, 1.34)
    assert repr(catalog.plane_double_points(arc.f, arc.g, iv)) == \
        repr(plane_double_points_scalar(arc.f, arc.g, iv))
    (s0, t0), = starts
    assert iv.lo in s0 and iv.hi in t0


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
    convolve2d = pytest.importorskip("scipy.signal").convolve2d

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


# -- surface model --------------------------------------------------------------
#
# Surfaces used to be trees of tagged nodes evaluated node by node.  The
# references below rebuild those trees as JSON documents, with the same
# construction as before, and evaluate them by the same node semantics.

def tree_eval(node, t, th):
    """Value, d/dt and d/dtheta of a tagged surface-tree node, broadcast over (t, th)."""
    shape = np.broadcast(t, th).shape
    zero = np.zeros(shape)

    def full(a):
        return np.broadcast_to(a, shape).astype(float)

    tag = node["tag"]
    if tag == "const":
        return full(node["value"]), zero, zero
    if tag in ("poly_t", "poly_theta"):
        p = Poly1(tuple(node["coeffs"]))
        x = t if tag == "poly_t" else th
        d = full(p.derivative()(x))
        return (full(p(x)), d, zero) if tag == "poly_t" else (full(p(x)), zero, d)
    if tag == "cos_k":
        k = node["k"]
        return full(np.cos(k * th)), zero, full(-k * np.sin(k * th))
    if tag == "sin_k":
        k = node["k"]
        return full(np.sin(k * th)), zero, full(k * np.cos(k * th))
    if tag == "bump":
        b = Bump(node["d1"], node["d2"])
        return full(b(t)), full(b.derivative(t)), zero
    if tag == "sum":
        parts = [tree_eval(n, t, th) for n in node["terms"]]
        return tuple(sum(p[i] for p in parts) for i in range(3))
    if tag == "product":
        parts = [tree_eval(n, t, th) for n in node["factors"]]
        value = np.prod([p[0] for p in parts], axis=0)
        ders = []
        for which in (1, 2):
            total = zero
            for i, p in enumerate(parts):
                term = p[which]
                for j, q in enumerate(parts):
                    if j != i:
                        term = term * q[0]
                total = total + term
            ders.append(total)
        return value, ders[0], ders[1]
    raise ValueError(tag)


def _const(v):
    return {"tag": "const", "value": float(v)}


def _sum(*terms):
    return {"tag": "sum", "terms": list(terms)}


def _prod(*factors):
    return {"tag": "product", "factors": list(factors)}


def _poly_t(p):
    return {"tag": "poly_t", "coeffs": list(p.coeffs)}


def _trig(kind, k):
    return {"tag": f"{kind}_k", "k": k}


def spin_tree(arc):
    h = _poly_t(arc.h)
    return [_poly_t(arc.f), _poly_t(arc.g), _prod(h, _trig("cos", 1)), _prod(h, _trig("sin", 1))]


def twist_tree(arc, axis, bump, k):
    """The k-twist coordinates as the tree the node classes built: the
    rotation matrix expanded entry by entry, blended as orig + B (rot - orig)."""
    f, g, h = _poly_t(arc.f), _poly_t(arc.g), _poly_t(arc.h)
    n = np.sqrt(axis.f21 ** 2 + axis.g21 ** 2)
    kx, ky = axis.f21 / n, axis.g21 / n
    ax_x, ax_y = axis.p1
    cos_n, sin_n = _trig("cos", k), _trig("sin", k)
    v = (_sum(f, _const(-ax_x)), _sum(g, _const(-ax_y)), _sum(h, _const(-axis.c)))

    def row(*entries):  # entries are (constant, cos, sin) coefficients
        terms = []
        for (c0, cc, cs), vi in zip(entries, v):
            if c0:
                terms.append(_prod(_const(c0), vi))
            if cc:
                terms.append(_prod(_const(cc), cos_n, vi))
            if cs:
                terms.append(_prod(_const(cs), sin_n, vi))
        return _sum(*terms)

    rot = (
        _sum(row((kx * kx, ky * ky, 0.0), (kx * ky, -kx * ky, 0.0), (0.0, 0.0, ky)), _const(ax_x)),
        _sum(row((kx * ky, -kx * ky, 0.0), (ky * ky, kx * kx, 0.0), (0.0, 0.0, -kx)), _const(ax_y)),
        _sum(row((0.0, 0.0, -ky), (0.0, 0.0, kx), (0.0, 1.0, 0.0)), _const(axis.c)),
    )
    b = {"tag": "bump", "d1": bump.d1, "d2": bump.d2}
    ft, gt, ht = (_sum(o, _prod(b, _sum(r, _prod(_const(-1.0), o)))) for r, o in zip(rot, (f, g, h)))
    return [ft, gt, _prod(ht, _trig("cos", 1)), _prod(ht, _trig("sin", 1))]


def polynomialize_tree(node, s_dom, t_dom, cheb_degree, bump_degree=None):
    """Every cos_k / sin_k leaf swapped for its Chebyshev fit, and the bump
    too when ``bump_degree`` is given."""
    if node["tag"] in ("sum", "product"):
        key = "terms" if node["tag"] == "sum" else "factors"
        return {"tag": node["tag"],
                key: [polynomialize_tree(n, s_dom, t_dom, cheb_degree, bump_degree) for n in node[key]]}
    if node["tag"] in ("cos_k", "sin_k"):
        fn, k = (np.cos if node["tag"] == "cos_k" else np.sin), node["k"]
        p = chebyshev_fit(lambda x: fn(k * x), s_dom, cheb_degree).poly
        return {"tag": "poly_theta", "coeffs": list(p.coeffs)}
    if node["tag"] == "bump" and bump_degree is not None:
        return _poly_t(chebyshev_fit(Bump(node["d1"], node["d2"]), t_dom, bump_degree).poly)
    return node


def _tree_grid(coords, tv, sv):
    T, S = np.meshgrid(tv, sv, indexing="ij")
    parts = [tree_eval(c, T, S) for c in coords]
    return tuple(np.stack([p[i] for p in parts], axis=-1) for i in range(3))


def assert_matches_tree(surface, coords):
    """Values within 1e-12; partials within 1e-12 max(1, max|partial|); on a
    200x200 grid, at scattered points of broadcast shapes and at many points
    at once, and in the Jacobian."""
    tv, sv = surface.t_dom.sample(200), surface.s_dom.sample(200)
    v, dt, ds = _tree_grid(coords, tv, sv)
    assert np.max(np.abs(surface.eval_grid(tv, sv) - v)) <= 1e-12
    got_dt, got_ds = surface.partials_grid(tv, sv)
    assert np.max(np.abs(got_dt - dt)) <= 1e-12 * max(1.0, np.max(np.abs(dt)))
    assert np.max(np.abs(got_ds - ds)) <= 1e-12 * max(1.0, np.max(np.abs(ds)))

    rng = np.random.default_rng(11)
    t = rng.uniform(surface.t_dom.lo, surface.t_dom.hi, (30, 1))
    th = rng.uniform(surface.s_dom.lo, surface.s_dom.hi, (1, 20))
    n = 2 * 2 ** 14 + 17
    many = (rng.uniform(surface.t_dom.lo, surface.t_dom.hi, n),
            rng.uniform(surface.s_dom.lo, surface.s_dom.hi, n))
    for a, b in ((t, th), (t.ravel(), th.ravel()[:1]), (float(t[0, 0]), th), many):
        want = np.stack([tree_eval(c, a, b)[0] for c in coords], axis=-1)
        got = surface.evaluate(a, b)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12
    dt, ds = surface.partials_grid([t[3, 0]], [th[0, 5]])
    J = np.column_stack([dt[0, 0], ds[0, 0]])
    ref = [tree_eval(c, t[3, 0], th[0, 5]) for c in coords]
    assert np.max(np.abs(J - [[r[1], r[2]] for r in ref])) <= 1e-12 * max(1.0, np.max(np.abs(J)))


def _twist_setup(name):
    arc = get_knot(name)
    if name == "trefoil_twist":
        return arc, make_axis(arc, -2.19, 2.19)
    return arc, make_axis(arc, -1.0, 1.0)  # the acceptance test's axis for figure8_spun


@pytest.mark.parametrize("name", knot_names())
def test_spin_matches_tree(name):
    arc = get_knot(name)
    surface = spin(arc)
    assert [len(c) for c in surface.coords] == [1, 1, 1, 1]
    assert_matches_tree(surface, spin_tree(arc))


def assert_exact_plane_crossing(arc, axis, bump, k, exc):
    """A PlaneCrossing from the twist height pre-check, against the tree's
    height of the 1-twist over (t, phi), which a k-twist takes at the
    rotation angle phi = k theta (the fixed arc's at phi = 0 for k = 0).

    The reported t is a pre-check sample; the tree's height at the reported
    (t, phi) is the reported value; that value is no more than the tree's
    least height on the 2000 x 360 grid of t and phi; and the reported phi
    is where a dense scan of phi at that t finds the least height."""
    height = twist_tree(arc, axis, bump, min(k, 1))[2]["factors"][0]
    ts = arc.ab.sample(PRECHECK_NT + 2)[1:-1]
    assert exc.t in ts
    assert abs(tree_eval(height, exc.t, exc.phi)[0] - exc.value) <= 1e-12
    grid = tree_eval(height, ts[:, None], np.linspace(0.0, TWO_PI, 360, endpoint=False))[0]
    assert exc.value <= grid.min() + 1e-12
    if k == 0:
        assert exc.phi == 0.0
        return
    step = TWO_PI / 2 ** 16
    dense = step * np.arange(2 ** 16)
    gap = abs(exc.phi - dense[np.argmin(tree_eval(height, exc.t, dense)[0])])
    assert min(gap, TWO_PI - gap) <= step


@pytest.mark.parametrize("name", ["trefoil_twist", "figure8_spun"])
@pytest.mark.parametrize("k", [0, 1, 10])
def test_twist_spin_matches_tree(name, k):
    arc, axis = _twist_setup(name)
    bump = choose_bump(arc, axis)
    coords = twist_tree(arc, axis, bump, k)
    # a height <= 0 anywhere on the grid of pre-check t samples and 360
    # rotation angles phi = k theta must be refused
    height = twist_tree(arc, axis, bump, min(k, 1))[2]["factors"][0]
    ts = arc.ab.sample(PRECHECK_NT + 2)[1:-1]
    phis = np.linspace(0.0, TWO_PI, 360, endpoint=False)
    if tree_eval(height, ts[:, None], phis)[0].min() <= 0.0:
        with pytest.raises(PlaneCrossing) as exc:
            twist_spin(arc, axis, bump, k)
        assert_exact_plane_crossing(arc, axis, bump, k, exc.value)
        return
    surface = twist_spin(arc, axis, bump, k)
    assert max(len(c) for c in surface.coords) <= 4
    assert_matches_tree(surface, coords)


@pytest.mark.parametrize("k", [0, 1, 10])
@pytest.mark.parametrize("bump_degree", [None, 40])
def test_polynomialize_twist_matches_tree(k, bump_degree):
    arc, axis = _twist_setup("trefoil_twist")
    bump = choose_bump(arc, axis)
    poly, dev = polynomialize_twist(twist_spin(arc, axis, bump, k), 24, bump_degree)
    coords = [polynomialize_tree(c, poly.s_dom, poly.t_dom, 24, bump_degree)
              for c in twist_tree(arc, axis, bump, k)]
    assert_matches_tree(poly, coords)


def test_tree_file_written_by_node_classes_loads():
    """``spun4d twistspin trefoil_twist --k 3`` as written when surfaces were
    node trees: it loads, matches the tree, and round-trips exactly."""
    path = os.path.join(os.path.dirname(__file__), "data", "trefoil_twist_k3_tree.json")
    with open(path) as fh:
        doc = json.load(fh)
    surface = Surface4.from_json(doc)
    assert max(len(c) for c in surface.coords) <= 9
    assert_matches_tree(surface, doc["coords"])
    again = Surface4.from_json(surface.to_json())
    assert again == surface
    assert max_grid_deviation(surface, again) == 0.0


# -- deviation distance ----------------------------------------------------------

def max_distance_norm(pa, pb):
    """Reference: the largest ``np.linalg.norm`` of the differences, over
    the arrays scaled by a power of two when that overflows."""
    with np.errstate(over="ignore"):
        dist = np.max(np.linalg.norm(pa - pb, axis=-1))
        if not np.isfinite(dist):
            scale = np.ldexp(1.0, -np.frexp(max(np.abs(pa).max(), np.abs(pb).max()))[1])
            dist = np.max(np.linalg.norm(pa * scale - pb * scale, axis=-1)) / scale
    return float(dist)


@pytest.mark.parametrize("scale", [1.0, 1e-160, 2.0 ** 520], ids=["plain", "underflow", "rescaled"])
def test_max_distance_is_the_largest_norm_bit_for_bit(scale):
    """The root of the largest squared distance, summed coordinate by
    coordinate, is the largest norm: on random arrays of spread magnitudes,
    on arrays whose squares underflow, and on arrays whose squares overflow
    and take the rescaled path."""
    rng = np.random.default_rng(5)
    for shape in ((60, 50, 4), (7, 4), (1, 4)):
        pa, pb = rng.normal(size=(2,) + shape) * scale * 2.0 ** rng.integers(-20, 21, (2,) + shape)
        with np.errstate(over="ignore"):
            overflows = not np.isfinite(np.max(np.linalg.norm(pa - pb, axis=-1)))
        assert overflows == (scale > 1.0)
        assert _max_distance(pa, pb, "p") == max_distance_norm(pa, pb)


# -- one sampling contract -------------------------------------------------------

def _bernstein_20():
    """The degree-20 Bernstein fit of the spin of trefoil_spun."""
    exact = spin(get_knot("trefoil_spun"))
    u = bernstein_lattice(20)
    samples = exact.eval_grid(exact.t_dom.mid + 0.5 * exact.t_dom.length * u,
                              exact.s_dom.mid + 0.5 * exact.s_dom.length * u)
    return PolyMap4(bernstein_fit2(samples, 20), Interval(-1.0, 1.0), Interval(-1.0, 1.0))


def _samplers():
    """Each model the library builds: the spin, the k = 10 twist, a
    polynomial spin, a Bernstein fit and a perturbed family map."""
    arc = get_knot("trefoil_spun")
    twist_arc, axis = _twist_setup("trefoil_twist")
    poly = polynomial_spin(arc, 8)
    _, perturbed = odd_perturbation(poly.polys, 2, [])
    return {
        "spin": spin(arc),
        "twist_k10": twist_spin(twist_arc, axis, choose_bump(twist_arc, axis), 10),
        "polynomial_spin_8": poly,
        "bernstein_20": _bernstein_20(),
        "family": replace(poly, polys=perturbed),
    }


def _no_terms():
    """A Surface4 whose four coordinates are the constant 0: it has no terms."""
    return Surface4(((),) * 4, Interval(0.0, 1.0), Interval(0.0, 1.0))


def row_pairs(s, tvals, svals, deriv: bool = False) -> list:
    """Each coordinate's t-rows and theta-rows, ``s._rows`` on tvals and on
    svals zipped, as the scans take them: the tensor grid as a rank-K
    product."""
    return list(zip(s._rows("t", tvals, deriv), s._rows("s", svals, deriv)))


def _horner_tolerance(s) -> float:
    """2 (K_t + K_s) eps for a PolyMap4 of K_t powers of t and K_s of s.
    Horner's steps and the rank-K rows' powers, products and sums each
    round every term c_ij t^i s^j by at most (K_t + K_s) eps relative, so
    the two differ by at most this times the sum of |c_ij| |t|^i |s|^j."""
    k_t, k_s = (max(p.coeffs.shape[axis] for p in s.polys) for axis in (0, 1))
    return 2.0 * (k_t + k_s) * np.finfo(float).eps


@pytest.mark.parametrize("name", ["spin", "twist_k10", "polynomial_spin_8", "bernstein_20", "family",
                                  "no_terms"])
def test_sampler_contract(name):
    """Every model evaluates at broadcast arguments, and its grids are its
    points: eval_grid is evaluate on the meshgrid, bit for bit.

    Its rank-K rows (``_rows``), one pair of rows per coordinate: the value
    rows summed in row order are that coordinate of eval_grid bit for bit;
    with ``deriv`` the value rows are unchanged and the derivative products
    are partials_grid bit for bit; the scans' m (``_rounding_bound``)
    bounds the sum of |a| |b| over every column of every coordinate at
    every node, and a PolyMap4 coordinate has one column per power of t up
    to its degree.  A PolyMap4's values and partials are its polynomials by
    Horner (``Poly2.__call__``) within ``_horner_tolerance`` times the
    rounding scale: the products' sum of absolute values, with |c_ij|
    |t|^i |s|^j in place of a PolyMap4's rows, since a power basis cancels
    inside b (the polynomial spin's theta fits, at theta = pi)."""
    s = _no_terms() if name == "no_terms" else _samplers()[name]
    tv, sv = s.t_dom.sample(37), s.s_dom.sample(29)
    assert s.evaluate(tv, sv[3]).shape == (37, 4)
    assert s.evaluate(tv[5], sv).shape == (29, 4)
    assert s.evaluate(tv[:, None], sv[None, :]).shape == (37, 29, 4)
    T, S = np.meshgrid(tv, sv, indexing="ij")
    grid = s.eval_grid(tv, sv)
    assert _bits(grid) == _bits(s.evaluate(T, S))
    assert _bits(s.evaluate(tv[:, None], sv[None, :])) == _bits(grid)
    assert _bits(s.evaluate(tv, sv[3])) == _bits(grid[:, 3])
    assert _bits(s.evaluate(tv[5], sv)) == _bits(grid[5])
    assert _bits(s.evaluate(tv[5], sv[3])) == _bits(grid[5, 3])

    rows = row_pairs(s, tv, sv)
    m = _rounding_bound(rows)
    assert len(rows) == 4
    if isinstance(s, PolyMap4):
        assert [a.shape[1] for a, _ in rows] == [p.deg_t + 1 for p in s.polys]
    for i, (a, b) in enumerate(rows):
        k = a.shape[1]
        assert a.shape == (1, k, 37) and b.shape == (1, k, 29)
        summed = np.zeros((37, 29))
        for j in range(k):
            summed += a[0, j, :, None] * b[0, j]
        assert _bits(summed) == _bits(grid[..., i])
    assert (sum(np.einsum("kt,ks->ts", np.abs(a[0]), np.abs(b[0])) for a, b in rows) <= m).all()
    deriv_rows = row_pairs(s, tv, sv, True)
    for (a, b), (ad, bd) in zip(rows, deriv_rows):
        assert _bits(ad[:1]) == _bits(a) and _bits(bd[:1]) == _bits(b)
    # values, d/dt (a[1] times b[0]) and d/dtheta (a[0] times b[1])
    products = [lambda r, da=da, db=db: np.stack([np.einsum("kt,ks->ts", a[da], b[db]) for a, b in r], axis=-1)
                for da, db in ((0, 0), (1, 0), (0, 1))]
    partials = s.partials_grid(tv, sv)
    for product, want in zip(products[1:], partials):
        assert _bits(product(deriv_rows)) == _bits(want)
    if isinstance(s, PolyMap4):
        bound = replace(s, polys=tuple(Poly2(np.abs(p.coeffs)) for p in s.polys))
        abs_rows = row_pairs(bound, np.abs(tv), np.abs(sv), True)
        horner = [np.stack([p(T, S) for p in s.polys], axis=-1)]
        horner += [np.stack([p.partial(w)(T, S) for p in s.polys], axis=-1) for w in "ts"]
        for got, want, product in zip((grid, *partials), horner, products):
            assert (np.abs(got - want) <= _horner_tolerance(s) * product(abs_rows)).all()


def test_polymap4_samples_without_its_polynomials(monkeypatch):
    """A PolyMap4 is sampled through its rank-K rows alone: with
    ``Poly2.__call__`` and ``Poly2.partial`` refused, its points, grids,
    partials, rows and a whole verification still run."""
    s = polynomial_spin(get_knot("trefoil_spun"), 8)
    want = verify_surface(s, None, n_rank=32, n_inject=48).to_json()

    def refuse(*args, **kwargs):
        raise AssertionError("a PolyMap4 was sampled through Poly2")

    monkeypatch.setattr(Poly2, "__call__", refuse)
    monkeypatch.setattr(Poly2, "partial", refuse)
    tv, sv = s.t_dom.sample(20), s.s_dom.sample(30)
    assert s.evaluate(tv[:, None], sv[None, :]).shape == (20, 30, 4)
    assert s.eval_grid(tv, sv).shape == (20, 30, 4)
    assert [p.shape for p in s.partials_grid(tv, sv)] == [(20, 30, 4)] * 2
    assert len(row_pairs(s, tv, sv, True)) == 4
    assert verify_surface(s, None, n_rank=32, n_inject=48).to_json() == want


def _refuse_broadcast_sums(monkeypatch):
    def refuse(rows, shape):
        raise AssertionError("a tensor grid was summed term by term")

    monkeypatch.setattr(surface_module, "_broadcast_sums", refuse)


def _grid_shapes():
    """Surface4s of every shape of term rows: a polynomialized twist spin
    (Poly1 theta-factors), the k = 3 tree file, terms with no t-factor and
    with no theta-factor (constant rows), a coordinate of no terms, and a
    coordinate of 64 terms; and PolyMap4s, whose four coordinates share
    their t-rows: a polynomial spin and a Bernstein fit."""
    arc, axis = _twist_setup("trefoil_twist")
    poly, _ = polynomialize_twist(twist_spin(arc, axis, choose_bump(arc, axis), 3), 24)
    with open(os.path.join(os.path.dirname(__file__), "data", "trefoil_twist_k3_tree.json")) as fh:
        tree = Surface4.from_json(json.load(fh))
    quad = Poly1((0.5, -1.0, 2.0))
    scalar = Surface4(((Term(2.0), Term(-1.5, (quad,)), Term(0.25, (), (Trig(3),))),
                       (Term(1.0, (), (Trig(2, True), Poly1((1.0, 0.5)))),),
                       (),
                       (Term(3.0, (Bump(0.1, 0.5), quad)), Term(-1.0))), Interval(-1.0, 1.0))
    many = tuple(Term(1.0 / (j + 1), (Poly1((0.0,) * (j % 8) + (1.0,)),), (Trig(j // 8 + 1, bool(j % 2)),))
                 for j in range(64))
    wide = Surface4((many, (), (Term(1.0, (quad,)),), many[:5]), Interval(-1.0, 1.0))
    assert [len(c) for c in wide.coords] == [64, 0, 1, 5]
    return {"polynomialized": poly, "tree_k3": tree, "scalar_rows": scalar, "64_terms": wide,
            "polynomial_spin_8": polynomial_spin(get_knot("trefoil_spun"), 8), "bernstein_20": _bernstein_20()}


@pytest.mark.parametrize("name", ["polynomialized", "tree_k3", "scalar_rows", "64_terms",
                                  "polynomial_spin_8", "bernstein_20"])
def test_grid_path_is_the_point_path_bit_for_bit(name, monkeypatch):
    """A tensor grid sums each coordinate's stacked rows in one einsum; on
    the full meshgrid the point path sums the broadcast products row by
    row.  Values and both partials agree bit for bit, and the grid never
    reaches the row-by-row loop."""
    s = _grid_shapes()[name]
    tv, sv = s.t_dom.sample(41), s.s_dom.sample(33)
    T, S = np.meshgrid(tv, sv, indexing="ij")
    want = [_eval_points(s._rows, T, S, deriv) for deriv in ("", "t", "s")]
    _refuse_broadcast_sums(monkeypatch)
    assert _bits(s.eval_grid(tv, sv)) == _bits(want[0])
    assert _bits(s.evaluate(tv[:, None], sv[None, :])) == _bits(want[0])
    for got, ref in zip(s.partials_grid(tv, sv), want[1:]):
        assert _bits(got) == _bits(ref)


def test_grid_path_makes_nan_where_the_point_path_does(monkeypatch):
    """A t-row that overflows to inf times a theta-row that is 0 (sin at
    theta = 0), and an inf less an inf, give NaN at the same nodes on
    either path; every other node agrees bit for bit."""
    huge = Poly1((0.0, 0.0, 1e308))  # inf for |t| > 1
    s = Surface4(((Term(1.0, (huge,), (Trig(1, True),)),),
                  (Term(1.0, (huge,)), Term(-1.0, (huge,), (Trig(2),))),
                  (Term(1.0, (huge,), (Trig(1),)),),
                  ()), Interval(-2.0, 2.0))
    tv, sv = s.t_dom.sample(21), s.s_dom.sample(17)
    T, S = np.meshgrid(tv, sv, indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):
        want = _eval_points(s._rows, T, S)
        _refuse_broadcast_sums(monkeypatch)
        got = s.eval_grid(tv, sv)
    nan = np.isnan(want)
    assert nan[..., 0].any() and nan[..., 1].any() and not nan.all()
    assert (np.isnan(got) == nan).all()
    assert _bits(np.where(nan, 0.0, got)) == _bits(np.where(nan, 0.0, want))


def test_polymap4_coordinate_takes_no_power_of_t_above_its_degree():
    """Where t^2 overflows, the coordinates of degree 0 in t keep their
    values on both paths, not the NaN of inf times their zero rows; the
    overflow of c t^2 itself stays."""
    s = PolyMap4((Poly2.from_t(Poly1((0.0, 0.0, 1e-300))), Poly2.from_s(Poly1((0.0, 1.0))), Poly2(), Poly2()),
                 Interval(-1e200, 1e200), Interval(0.0, 1.0))
    with np.errstate(over="ignore"):
        point = s.evaluate(1e200, 0.5)
        grid = s.eval_grid([1e200, 2.0], [0.5, 0.25])
    assert point.tolist() == [np.inf, 0.5, 0.0, 0.0]
    assert _bits(grid[0, 0]) == _bits(point)
    assert grid[1].tolist() == [[4e-300, 0.5, 0.0, 0.0], [4e-300, 0.25, 0.0, 0.0]]


def test_polymap4_coordinate_takes_no_power_of_theta_above_its_degree():
    """Where theta^2 overflows, the coordinates of degree 0 in theta keep
    their values on both paths, not the NaN of inf times a zero
    coefficient; the overflow of c theta^2 itself stays."""
    s = PolyMap4((Poly2.from_s(Poly1((0.0, 0.0, 1e-300))), Poly2.from_t(Poly1((0.0, 1.0))), Poly2(), Poly2()),
                 Interval(0.0, 1.0), Interval(-1e200, 1e200))
    with np.errstate(over="ignore"):
        point = s.evaluate(0.5, 1e200)
        grid = s.eval_grid([0.5, 0.25], [1e200, 2.0])
    with np.errstate(over="ignore", invalid="ignore"):  # d/dt is 0 times the inf of c theta^2
        d_theta = s.partials_grid([0.5], [1e200])[1]
    assert point.tolist() == [np.inf, 0.5, 0.0, 0.0]
    assert _bits(grid[0, 0]) == _bits(point)
    assert grid[:, 1].tolist() == [[4e-300, 0.5, 0.0, 0.0], [4e-300, 0.25, 0.0, 0.0]]
    assert d_theta.tolist() == [[[2e-100, 0.0, 0.0, 0.0]]]


def _padded_rows(s, side: str, x, deriv: bool) -> list:
    """``PolyMap4._rows`` as it was built from one zero-padded block of all
    four coordinates' coefficients, (max deg_s + 1) x 4 x (max deg_t + 1),
    in one einsum: the reference on finite samples (where a power above a
    coordinate's degree overflows, its zero coefficient gives NaN)."""
    c = np.zeros((max(p.deg_s for p in s.polys) + 1, 4, max(p.deg_t for p in s.polys) + 1))
    if side == "t":
        rows = surface_module._powers(x, c.shape[2], deriv)
        return [rows[:, :p.deg_t + 1] for p in s.polys]
    for q, p in enumerate(s.polys):
        c[:p.deg_s + 1, q, :p.deg_t + 1] = p.coeffs.T
    v = surface_module._powers(x, len(c), deriv).swapaxes(0, 1)
    rows = np.einsum("jk,jm->km", c.reshape(len(c), -1), v.reshape(len(c), -1))
    rows = np.moveaxis(rows.reshape((4, -1) + v.shape[1:]), 2, 1)
    return [r[:, :p.deg_t + 1] for r, p in zip(rows, s.polys)]


def _mixed_poly2(degrees, rng) -> Poly2:
    """A Poly2 of the degrees (deg_t, deg_s): normal coefficients, some of
    them 0.0 and -0.0, the leading one nonzero."""
    c = rng.normal(size=(degrees[0] + 1, degrees[1] + 1))
    c[rng.random(c.shape) < 0.15] = 0.0
    c[rng.random(c.shape) < 0.15] = -0.0
    c[-1, -1] = 1.0 + rng.random()
    return Poly2(c)


_DEGREES = st.tuples(st.integers(0, 12), st.integers(0, 12))


@settings(max_examples=60, deadline=None)
@given(degrees=st.tuples(*[_DEGREES] * 4), seed=st.integers(0, 2 ** 32 - 1), q=st.integers(0, 3),
       other=_DEGREES)
def test_polymap4_rows_are_the_padded_blocks_bit_for_bit(degrees, seed, q, other):
    """On finite samples, each coordinate's rows from its own coefficients
    are bitwise those of the one zero-padded block (``_padded_rows``), at a
    scalar, a 1-D, a broadcast and a grid x, with and without derivatives,
    and so are the values and partials summed from them at points, on
    broadcast arguments and on grids.  Giving one coordinate other degrees
    leaves the other coordinates' rows bit-identical."""
    rng = np.random.default_rng(seed)
    s = PolyMap4(tuple(_mixed_poly2(d, rng) for d in degrees), Interval(-1.5, 1.5), Interval(-2.0, 2.0))
    changed = replace(s, polys=s.polys[:q] + (_mixed_poly2(other, rng),) + s.polys[q + 1:])
    xs = [np.asarray(rng.uniform(-2.0, 2.0)), np.asarray(-0.0), np.array([0.75]), rng.uniform(-2.0, 2.0, 7),
          rng.uniform(-2.0, 2.0, (5, 1)), rng.uniform(-2.0, 2.0, (1, 4)), rng.uniform(-2.0, 2.0, (3, 4))]
    for x in xs:
        for side in "ts":
            for deriv in (False, True):
                got = [_bits(r) for r in s._rows(side, x, deriv)]
                assert got == [_bits(r) for r in _padded_rows(s, side, x, deriv)]
                moved = [_bits(r) for r in changed._rows(side, x, deriv)]
                assert moved[:q] + moved[q + 1:] == got[:q] + got[q + 1:]
    tv, sv = rng.uniform(-1.5, 1.5, 6), rng.uniform(-2.0, 2.0, 5)
    padded = partial(_padded_rows, s)
    for t, th in ((tv[2], sv[1]), (tv, sv[3]), (tv[4], sv), (tv, sv[:1]), (tv[:, None], sv[None, :]),
                  (tv[:1, None], sv[None, :]), (tv[:, None], sv[None, :1])):
        for deriv in ("", "t", "s"):
            assert _bits(_eval_points(s._rows, t, th, deriv)) == _bits(_eval_points(padded, t, th, deriv))


def test_deviation_grid_and_sample_grid_take_the_grid_path(monkeypatch):
    """max_grid_deviation and export.sample_surface sample a Surface4 on a
    tensor grid: with the term-by-term loop refused they still give the
    point path's results."""
    s = _samplers()["twist_k10"]
    poly, dev = polynomialize_twist(s, 24)
    tv, sv = s.t_dom.sample(60), s.s_dom.sample(50)
    T, S = np.meshgrid(tv, sv, indexing="ij")
    want = s.evaluate(T, S)
    _refuse_broadcast_sums(monkeypatch)
    assert max_grid_deviation(s, poly) == dev
    assert _bits(sample_surface(s, 60, 50).points) == _bits(want)


# -- rank scan ----------------------------------------------------------------------

def gram_reference(dt, ds):
    """Reference: g11, g22, g12 of the Gram matrix J^T J from the partials,
    arrays of shape (..., 4), each summed over the coordinates as
    ((p0 + p1) + p2) + p3 from whole (..., 4) products."""
    def dot(x, y):
        p = x * y
        return p[..., 0] + p[..., 1] + p[..., 2] + p[..., 3]

    return dot(dt, dt), dot(ds, ds), dot(dt, ds)


def factor_partials_reference(s, tvals, svals):
    """Reference: the partials (d/dt, d/dtheta) over the tensor grid from
    the sampler's rank-K derivative rows, coordinate by coordinate, each
    column's product added in order into a zeroed (n_t, n_s, 4) array."""
    rows = row_pairs(s, tvals, svals, True)
    out = []
    for da, db in ((1, 0), (0, 1)):
        want = np.zeros((len(tvals), len(svals), 4))
        for i, (a, b) in enumerate(rows):
            for k in range(a.shape[1]):
                want[..., i] += a[da, k, :, None] * b[db, k]
        out.append(want)
    return out


def rank_ratio_reference(g11, g22, g12):
    """Reference: the least sigma_2 / sigma_1 from the Gram entries, by the
    eigenvalues of the 2x2 Gram matrix, each step a new array."""
    tr = g11 + g22
    disc = np.sqrt(np.maximum((g11 - g22) ** 2 + 4.0 * g12 ** 2, 0.0))
    lam_hi = 0.5 * (tr + disc)
    lam_lo = np.maximum(0.5 * (tr - disc), 0.0)
    return float(np.min(np.sqrt(np.where(lam_hi > 0.0, lam_lo / lam_hi, 0.0))))


def jacobian_rank_ratio_reference(s, n_t, n_s):
    """Reference: the least sigma_2 / sigma_1 over the inset grid, from
    ``partials_grid`` through the same Gram sums and eigenvalues."""
    tvals, svals = _inset_samples(s.t_dom, n_t), _inset_samples(s.s_dom, n_s)
    return rank_ratio_reference(*gram_reference(*s.partials_grid(tvals, svals)))


def _refuse_partials_grid(monkeypatch):
    def refuse(self, tvals, svals):
        raise AssertionError("the rank scan called partials_grid")

    for cls in (Surface4, PolyMap4):
        monkeypatch.setattr(cls, "partials_grid", refuse)


@pytest.mark.parametrize("name", ["spin", "twist_k10", "polynomial_spin_8", "bernstein_20",
                                  "family", "twist_k0", "twist_k3"])
def test_rank_scan_matches_partials_grid_reference(name, monkeypatch):
    """The ratio from the rank-K derivative factors is the reference's
    without ``partials_grid``: within 1e-13 relative on the square grids the
    checks use, and within 1e-12 on oblong grids, which catch a transposed
    layout.  The power basis and Horner round differently, and the Gram
    matrix squares the condition of the ratio: on bernstein_20 at 37 x 150
    the two differ by 1.5e-13 relative at the least ratio, 0.0158, where
    Horner is 4e-15 from the exact value."""
    if name.startswith("twist_k") and name != "twist_k10":
        arc, axis = _twist_setup("trefoil_twist")
        s = twist_spin(arc, axis, choose_bump(arc, axis), int(name.removeprefix("twist_k")))
    else:
        s = _samplers()[name]
    grids = {(96, 96): 1e-13, (200, 200): 1e-13, (200, 61): 1e-12, (37, 150): 1e-12}
    want = {grid: jacobian_rank_ratio_reference(s, *grid) for grid in grids}
    _refuse_partials_grid(monkeypatch)
    for grid, rel in grids.items():
        ok, got = jacobian_rank_scan(s, *grid)
        assert ok and want[grid] > 0.0
        assert abs(got - want[grid]) <= rel * want[grid]


@pytest.mark.parametrize("name", ["spin", "twist_k10", "polynomial_spin_8", "bernstein_20", "no_terms"])
def test_rank_scan_partials_are_the_factor_products_in_column_order(name):
    """The scan's Gram entries are those of its partials that are,
    coordinate by coordinate, the rank-K derivative products of that
    coordinate's own rows, summed over its columns in order from 0.0, bit
    for bit; and its in-place eigenvalue steps give the reference's ratio
    from them, bit for bit."""
    s = _no_terms() if name == "no_terms" else _samplers()[name]
    tv, sv = _inset_samples(s.t_dom, 37), _inset_samples(s.s_dom, 29)
    want = gram_reference(*factor_partials_reference(s, tv, sv))
    for got, ref in zip(_gram_grid(s, tv, sv), want):
        assert _bits(got) == _bits(ref)
    # with no terms the reference's eigenvalues are 0, and its ratio 0 / 0 is dropped
    with np.errstate(invalid="ignore"):
        ratio = rank_ratio_reference(*want)
    assert _bits(jacobian_rank_scan(s, 37, 29)[1]) == _bits(ratio)


def _rank_scan_case(name):
    """(sampler, grid) of a rank scan the package runs: a catalog spin at
    verify_surface's default grid, a twist spin at a twist op's grid, or a
    polynomial spin at the isotopy family check's."""
    kind, arg, n = name.split(":")
    if kind == "spin":
        return spin(get_knot(arg)), int(n)
    if kind == "twist":
        arc, axis = _twist_setup("trefoil_twist")
        return twist_spin(arc, axis, choose_bump(arc, axis), int(arg)), int(n)
    return polynomial_spin(get_knot("trefoil_spun"), int(arg)), int(n)


@pytest.mark.parametrize("name", [f"spin:{knot}:200" for knot in knot_names()]
                         + [f"twist:{k}:200" for k in (0, 1, 3, 10)] + ["twist:1:300", "twist:10:300"]
                         + [f"polynomial_spin:{d}:96" for d in (8, 12, 16)])
def test_rank_scan_ratio_is_the_halved_eigenvalues_ratio_bit_for_bit(name):
    """The scan's quotient of the Gram matrix's doubled eigenvalues,
    max(tr - disc, 0) / (tr + disc), is the reference's quotient of the
    halved ones, bit for bit, on the models and grids the package scans."""
    s, n = _rank_scan_case(name)
    g = _gram_grid(s, _inset_samples(s.t_dom, n), _inset_samples(s.s_dom, n))
    assert _bits(jacobian_rank_scan(s, n, n)[1]) == _bits(rank_ratio_reference(*g))


def test_rank_scan_of_a_degenerate_map_is_zero_without_partials_grid(monkeypatch):
    # the second coordinate is twice the first: rank 1 everywhere; and a
    # Surface4 of no terms, whose partials are all 0
    flat = PolyMap4((Poly2.from_t(Poly1((0.0, 1.0))), Poly2.from_t(Poly1((0.0, 2.0))), Poly2(), Poly2()),
                    Interval(-1.0, 1.0), Interval(-1.0, 1.0))
    maps = (flat, _no_terms())
    # with no terms the reference's eigenvalues are 0, and its ratio 0 / 0 is dropped
    with np.errstate(invalid="ignore"):
        assert [jacobian_rank_ratio_reference(s, 32, 32) for s in maps] == [0.0, 0.0]
    _refuse_partials_grid(monkeypatch)
    assert [jacobian_rank_scan(s, 32, 32) for s in maps] == [(False, 0.0), (False, 0.0)]


# -- injectivity scan --------------------------------------------------------------

def injectivity_scan_meshgrid(s, n_t, n_s, param_sep, image_tol):
    """Reference: parameter meshgrids masked to the kept samples (seam column
    dropped when periodic, one sample per pole row), evaluated as scattered
    points."""
    cKDTree = pytest.importorskip("scipy.spatial").cKDTree

    tvals = s.t_dom.sample(n_t)
    if s.periodic_s:
        svals = s.s_dom.lo + s.s_dom.length * np.arange(n_s) / n_s
    else:
        svals = s.s_dom.sample(n_s)
    T, S = np.meshgrid(tvals, svals, indexing="ij")
    pole = np.zeros(T.shape, bool)
    keep = np.ones(T.shape, bool)
    if s.pole_low:
        pole[0, :] = True
        keep[0, 1:] = False
    if s.pole_high:
        pole[-1, :] = True
        keep[-1, 1:] = False
    tp, sp, pole = T[keep], S[keep], pole[keep]
    pts = s.evaluate(tp, sp)
    pairs = cKDTree(pts).query_pairs(image_tol, output_type="ndarray")
    if len(pairs) == 0:
        return []
    du = np.abs(tp[pairs[:, 0]] - tp[pairs[:, 1]]) / s.t_dom.length
    dv = np.abs(sp[pairs[:, 0]] - sp[pairs[:, 1]]) / s.s_dom.length
    if s.periodic_s:
        dv = np.minimum(dv, 1.0 - dv)
    dv = np.where(pole[pairs[:, 0]] | pole[pairs[:, 1]], 0.0, dv)
    hits = pairs[np.hypot(du, dv) > param_sep]
    dist = np.linalg.norm(pts[hits[:, 0]] - pts[hits[:, 1]], axis=-1)
    out = []
    for (i, j), d in zip(hits, dist):
        a, b = (float(tp[i]), float(sp[i])), (float(tp[j]), float(sp[j]))
        out.append(Collision(*sorted([a, b]), float(d)))
    return sorted(out, key=lambda c: (c.param_a, c.param_b))


class _DropCoordinate:
    """A surface's image with one coordinate set to 0; implements only the
    sampling contract's ``evaluate``."""

    def __init__(self, s, drop):
        self._s, self._drop = s, drop
        self.t_dom, self.s_dom = s.t_dom, s.s_dom
        self.periodic_s, self.pole_low, self.pole_high = s.periodic_s, s.pole_low, s.pole_high

    def evaluate(self, t, th):
        p = self._s.evaluate(t, th)
        p[..., self._drop] = 0.0
        return p


def _cancelling_terms():
    """A fold whose images carry rounding noise of about 2**-7: the terms
    +-2**45 (1 + t) cos(theta) and sin(theta) cancel up to 2**-15, so the
    factor bound m exceeds the images, of size 10, by 10**14.  Each
    coordinate adds (t**2 + t / 20) / 2, so the pairs (t, -t - 1/20) meet,
    and pairs on either side of them lie at every distance, a few just
    inside image_tol and a few just outside, along the first axis of the
    prefilter's plane, where the rounding room matters most."""
    cos, sin = (Trig(1),), (Trig(1, sine=True),)
    p, q = (Poly1((1.0, 1.0)),), (Poly1((1.0, 1.0, 2.0 ** -60)),)
    fold = Term(0.5, (Poly1((0.0, 0.05, 1.0)),))
    c = 2.0 ** 45
    return Surface4(((fold, Term(10.0, (), cos), Term(c, p, cos), Term(-c, q, cos)),
                     (fold, Term(10.0, (), sin)),
                     (fold, Term(c, p, sin), Term(-c, q, sin)),
                     (fold,)),
                    Interval(-1.0, 1.0), pole_low=False, pole_high=False)


def _scan_cases():
    arc = get_knot("trefoil_spun")
    twist_arc, axis = _twist_setup("trefoil_twist")
    fold = PolyMap4((Poly2.from_t(Poly1((0.0, 0.0, 1.0))), Poly2.from_s(Poly1((0.0, 1.0))),
                     Poly2(), Poly2()), Interval(-1.0, 1.0), Interval(-1.0, 1.0))
    sphere_h = Poly1((1.0 + 1e-12, 0.0, -1.0))
    poly = polynomial_spin(arc, 8)
    spec, _ = odd_perturbation(poly.polys, 2, [])
    return {
        # the isotopy family F_u of criterion 8 is not embedded at u = 0.005
        "family_u0.005": (replace(poly, polys=_perturb(poly.polys, spec.N, 0.005 * spec.epsilon)),
                          200, 0.05, 1e-3),
        "cancelling_terms": (_cancelling_terms(), 100, 0.05, 0.002),
        # the xzw projection of the spun trefoil crosses itself (criterion 6)
        "xzw_projection": (_DropCoordinate(spin(arc), 1), 400, 0.05, 0.05),
        # t -> t^2 folds the square onto itself
        "planted_fold": (fold, 101, 0.05, 1e-6),
        "twist_k10": (twist_spin(twist_arc, axis, choose_bump(twist_arc, axis), 10), 200, 0.05, 1e-3),
        # with no poles and no seam declared, the pole rows and the seam column collide
        "spin_without_poles": (replace(spin(arc), periodic_s=False, pole_low=False, pole_high=False),
                               120, 0.05, 1e-3),
        # a round sphere whose pole rows are circles of radius 1e-12, as float
        # roots of a height leave them; at this radius each pole meets the
        # rows next to it, across all theta
        "sphere_poles": (Surface4(((Term(1.0, (Poly1((0.0, 1.0)),)),), (),
                                   (Term(1.0, (sphere_h,), (Trig(1),)),),
                                   (Term(1.0, (sphere_h,), (Trig(1, sine=True),)),)),
                                  Interval(-1.0, 1.0)), 64, 0.02, 0.15),
    }


@pytest.mark.parametrize("name", ["xzw_projection", "planted_fold", "twist_k10",
                                  "spin_without_poles", "sphere_poles", "family_u0.005",
                                  "cancelling_terms"])
def test_injectivity_scan_matches_meshgrid_reference(name):
    s, n, param_sep, image_tol = _scan_cases()[name]
    got = injectivity_scan(s, n, n, param_sep, image_tol)
    assert got == injectivity_scan_meshgrid(s, n, n, param_sep, image_tol)
    if name != "twist_k10":
        assert len(got) >= 1
    if name == "sphere_poles":
        assert any(c.param_a == (-1.0, 0.0) for c in got)
    if name == "cancelling_terms":
        m = _rounding_bound(row_pairs(s, s.t_dom.sample(n), s.s_dom.sample(n)))
        assert m > 1e14 * np.abs(s.eval_grid(s.t_dom.sample(n), s.s_dom.sample(n))).max()
        assert max(c.distance for c in got) > 0.9 * image_tol
        assert len(injectivity_scan_meshgrid(s, n, n, param_sep, 1.05 * image_tol)) > len(got)


_COEF = st.floats(-3.0, 3.0)
_POLY1 = st.lists(_COEF, min_size=1, max_size=4).map(lambda c: Poly1(tuple(c)))
_BUMP = st.tuples(st.floats(0.05, 0.5), st.floats(0.55, 1.0)).map(lambda d: Bump(*d))
_TERM = st.builds(Term, _COEF,
                  st.lists(st.one_of(_POLY1, _BUMP), max_size=2).map(tuple),
                  st.lists(st.one_of(_POLY1, st.builds(Trig, st.integers(0, 4), st.booleans())),
                           max_size=2).map(tuple))
_SURFACE = st.builds(lambda coords, flags: Surface4(coords, Interval(-1.0, 1.0), Interval(0.0, TWO_PI), *flags),
                     st.tuples(*[st.lists(_TERM, min_size=1, max_size=4).map(tuple)] * 4),
                     st.tuples(st.booleans(), st.booleans(), st.booleans()))
_POLY2 = st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2 ** 32 - 1)).map(
    lambda a: Poly2(np.random.default_rng(a[2]).uniform(-3.0, 3.0, a[:2])))
_POLYMAP = st.builds(lambda polys, flags: PolyMap4(polys, Interval(-1.0, 1.0), Interval(-1.0, 1.0), *flags),
                     st.tuples(*[_POLY2] * 4), st.tuples(st.booleans(), st.booleans(), st.booleans()))


def _scan_mismatch(got, want):
    """None when the scan ``got`` is the reference scan ``want``, or, when
    the reference reaches the cap, MAX_COLLISIONS of its collisions; else a
    message of a few lines.  Comparing the lists in the assertion itself
    would have pytest diff up to 65,536 collisions a side."""
    if len(want) < MAX_COLLISIONS:
        if got == want:
            return None
        k = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        return (f"{len(got)} collisions, the reference {len(want)}; the first difference, "
                f"at {k}: {got[k:k + 1]} against {want[k:k + 1]}")
    extra = set(got) - set(want)
    if len(got) == MAX_COLLISIONS and not extra:
        return None
    return (f"{len(got)} collisions against the cap of {MAX_COLLISIONS}; {len(extra)} not in "
            f"the reference, such as {next(iter(extra), None)}")


@settings(max_examples=30, deadline=None)
@given(s=st.one_of(_SURFACE, _POLYMAP), n_t=st.integers(16, 32), n_s=st.integers(16, 32),
       log_tol=st.floats(-4.0, 0.0))
def test_injectivity_scan_matches_meshgrid_on_random_samplers(s, n_t, n_s, log_tol):
    # random Surface4s of 1-4 terms per coordinate and PolyMap4s of degree
    # <= 6, with random seam and pole flags.  The cost is the collisions, up
    # to all pairs of nodes at image_tol near 1: grids of at most 32 x 32
    # keep it steady and still reach MAX_COLLISIONS
    image_tol = 10.0 ** log_tol
    mismatch = _scan_mismatch(injectivity_scan(s, n_t, n_s, 0.05, image_tol),
                              injectivity_scan_meshgrid(s, n_t, n_s, 0.05, image_tol))
    assert mismatch is None, mismatch


@pytest.mark.parametrize("pole", ["pole_low", "pole_high"])
def test_injectivity_scan_matches_meshgrid_reference_with_one_pole(pole):
    # the other pole row is 64 samples with one image: they collide
    s = replace(spin(get_knot("trefoil_spun")), **{pole: False})
    got = injectivity_scan(s, 64, 64, 0.05, 1e-3)
    assert len(got) >= 1
    assert got == injectivity_scan_meshgrid(s, 64, 64, 0.05, 1e-3)


def test_injectivity_scan_pins_a_flagged_pole_row_on_both_plane_axes():
    # (t**2, s, 0, 0) with its t = -1 row flagged as a pole: that row is not
    # one point, so the node standing for it must take the plane indices of
    # its first sample (-1, -1) on both axes, whose image (1, -1) is that
    # of (1, -1); the row's last sample lies 2 away on the second axis
    s = PolyMap4((Poly2.from_t(Poly1((0.0, 0.0, 1.0))), Poly2.from_s(Poly1((0.0, 1.0))), Poly2(), Poly2()),
                 Interval(-1.0, 1.0), Interval(-1.0, 1.0), False, True, False)
    got = injectivity_scan(s, 32, 32, 0.05, 1e-3)
    assert Collision((-1.0, -1.0), (1.0, -1.0), 0.0) in got
    assert got == injectivity_scan_meshgrid(s, 32, 32, 0.05, 1e-3)


def test_injectivity_scan_with_an_overflowing_factor_bound_matches_meshgrid_reference():
    # x is +-2**1022 (1 + t) on two t factors that differ only in a 2**-60 t**2
    # term, below the rounding of 1 + t on [-1, 1]: the terms cancel exactly in
    # every image, but the grid factors' bound m overflows, so the plane
    # coordinates come from the evaluated image grid.  The fold (t**2, s) in y
    # and z makes the pairs (t, s), (-t, s) collide
    c, p, q = 2.0 ** 1022, (Poly1((1.0, 1.0)),), (Poly1((1.0, 1.0, 2.0 ** -60)),)
    s = Surface4(((Term(c, p), Term(-c, q)), (Term(1.0, (Poly1((0.0, 0.0, 1.0)),)),),
                  (Term(1.0, (), (Poly1((0.0, 1.0)),)),), ()),
                 Interval(-1.0, 1.0), Interval(-1.0, 1.0), False, False, False)
    tvals, svals = s.t_dom.sample(48), s.s_dom.sample(48)
    assert _factor_plane(s, tvals, svals, 1e-3) is None
    assert not s.eval_grid(tvals, svals)[..., 0].any()
    got = injectivity_scan(s, 48, 48, 0.05, 1e-3)
    assert len(got) >= 1
    assert got == injectivity_scan_meshgrid(s, 48, 48, 0.05, 1e-3)


# -- close-pair search ---------------------------------------------------------------


def _scan_pairs(pts, r):
    """Yield batches ``(i, j)`` of the index pairs of the rows of the (m, 4)
    array ``pts`` at most ``r`` apart, as ``injectivity_scan`` composes its
    two stages for a sampler without ``_rows``: the plane stage on the
    rows, the R^4 stage on the suspects' rows alone, and its indices mapped
    back to the rows."""
    sus = _suspects(*_image_plane(pts, r))
    for i, j in _space_pairs(pts[sus], r):
        yield sus[i], sus[j]


def _assert_close_pairs_match_kdtree(pts, r):
    """The hashed search finds each pair once, and exactly the pairs
    ``cKDTree.query_pairs`` finds."""
    cKDTree = pytest.importorskip("scipy.spatial").cKDTree
    got = [(int(a), int(b)) for i, j in _scan_pairs(pts, r) for a, b in zip(i, j)]
    assert all(i < j for i, j in got)
    assert len(set(got)) == len(got)
    assert sorted(got) == sorted(cKDTree(pts).query_pairs(r))
    return set(got)


_SEED = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=60, deadline=None)
@given(seed=_SEED, n=st.integers(2, 400), r=st.floats(1e-3, 0.3))
def test_close_pairs_uniform_cloud(seed, n, r):
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 4))
    _assert_close_pairs_match_kdtree(pts, r)


@settings(max_examples=60, deadline=None)
@given(seed=_SEED, clusters=st.integers(1, 8), n=st.integers(2, 300), r=st.floats(1e-4, 0.1))
def test_close_pairs_clustered_cloud_with_duplicates(seed, clusters, n, r):
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-3.0, 3.0, (clusters, 4))
    pts = centres[rng.integers(0, clusters, n)] + rng.normal(0.0, r, (n, 4))
    # repeat some points exactly
    pts = np.concatenate([pts, pts[rng.integers(0, n, n // 3)]])
    _assert_close_pairs_match_kdtree(pts, r)


@settings(max_examples=60, deadline=None)
@given(seed=_SEED, n=st.integers(2, 300), exp=st.integers(-12, 2), steps=st.integers(1, 3))
def test_close_pairs_lattice_ties_the_radius(seed, n, exp, steps):
    # lattice coordinates and the radius are dyadic, so squared distances are
    # exact and many equal r * r: such pairs count as close
    step = 2.0 ** exp
    pts = np.random.default_rng(seed).integers(-4, 5, (n, 4)) * step
    r = steps * step
    # one pair at exactly r along an axis, one at exactly r along a diagonal
    pts = np.concatenate([pts, pts[:1] + [r, 0.0, 0.0, 0.0], pts[:1] + 0.5 * r])
    found = _assert_close_pairs_match_kdtree(pts, r)
    assert {(0, n), (0, n + 1)} <= found


@settings(max_examples=30, deadline=None)
@given(seed=_SEED, n=st.integers(2, 200), r=st.floats(1e-6, 1.0))
def test_close_pairs_cloud_denser_than_a_cell(seed, n, r):
    # the whole cloud fits in a box of side r / 4: every pair is close
    pts = 5.0 + np.random.default_rng(seed).uniform(0.0, 0.25 * r, (n, 4))
    assert len(_assert_close_pairs_match_kdtree(pts, r)) == n * (n - 1) // 2


@settings(max_examples=60, deadline=None)
@given(seed=_SEED, n=st.integers(2, 300), a=st.integers(0, 299), frac=st.floats(0.0, 0.99))
def test_close_pairs_finds_a_planted_collision(seed, n, a, frac):
    # a lattice of spacing 1 with one point moved to within r of another
    rng = np.random.default_rng(seed)
    pts = rng.permutation(np.stack(np.unravel_index(np.arange(n), (7, 7, 7, 7)), axis=1)).astype(float)
    r = 1e-3
    a %= n
    b = (a + 1 + int(rng.integers(0, n - 1))) % n
    offset = rng.normal(size=4)
    pts[b] = pts[a] + frac * r * offset / np.linalg.norm(offset)
    assert _assert_close_pairs_match_kdtree(pts, r) == {(min(a, b), max(a, b))}


@settings(max_examples=40, deadline=None)
@given(seed=_SEED, n=st.integers(2, 300), r=st.floats(1e-3, 0.3), offset=st.floats(-10.0, 10.0))
def test_close_pairs_cloud_in_the_kernel_of_the_prefilter_plane(seed, n, r, offset):
    # every point projects to one point of the prefilter's plane, so the
    # prefilter keeps them all
    kernel = np.linalg.svd(_PLANE.T)[2][2:]
    rng = np.random.default_rng(seed)
    pts = offset * _PLANE[:, 0] + rng.uniform(-1.0, 1.0, (n, 2)) @ kernel
    _assert_close_pairs_match_kdtree(pts, r)


@settings(max_examples=40, deadline=None)
@given(seed=_SEED, n=st.integers(2, 200), exp=st.integers(-12, 2), steps=st.integers(1, 3))
def test_close_pairs_finds_pairs_r_apart_along_the_prefilter_plane(seed, n, exp, steps):
    # pairs exactly r apart along the plane's own directions are r apart in
    # the plane too, the most a close pair can be; the lattice, the
    # directions and r are dyadic, so the distances are exact
    step = 2.0 ** exp
    pts = np.random.default_rng(seed).integers(-4, 5, (n, 4)) * step
    r = 2 * steps * step
    planted = [pts[k % n] + sign * r * _PLANE[:, axis]
               for k, (axis, sign) in enumerate([(0, 1), (1, 1), (0, -1), (1, -1)])]
    pts = np.concatenate([pts, planted])
    found = _assert_close_pairs_match_kdtree(pts, r)
    assert {(k % n, n + k) for k in range(4)} <= found


@settings(max_examples=30, deadline=None)
@given(seed=_SEED, n=st.integers(3, 300), a=st.integers(0, 299), frac=st.floats(0.0, 0.99))
def test_close_pairs_finds_planted_collisions_near_overflow(seed, n, a, frac):
    # coordinates up to 1.7e308, whose plain sums overflow (the suite turns
    # the overflow warning into an error), with one point copied and two
    # moved to within r of each other near the origin
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (n, 4)) * 1.7e308
    r = 1e-3
    a %= n
    b = (a + 1 + int(rng.integers(0, n - 1))) % n
    c = next(k for k in range(n) if k not in (a, b))
    offset = rng.normal(size=4)
    pts[a] = rng.uniform(-1.0, 1.0, 4)
    pts[b] = pts[a] + frac * r * offset / np.linalg.norm(offset)
    pts = np.concatenate([pts, pts[c:c + 1]])
    got = {(int(i), int(j)) for bi, bj in _scan_pairs(pts, r) for i, j in zip(bi, bj)}
    assert got == {(min(a, b), max(a, b)), (c, n)}


# -- plane stage -----------------------------------------------------------------------


def suspects_brute_force(u):
    """Reference: the rows of the (m, 2) array ``u`` with another row whose
    floors differ from theirs by at most 1 on both axes, from a count of the
    rows in each half cell and a look at its 8 neighbours."""
    cells = [tuple(c) for c in np.floor(u).astype(np.int64).tolist()]
    count = {}
    for c in cells:
        count[c] = count.get(c, 0) + 1
    return {i for i, (x, y) in enumerate(cells)
            if count[x, y] > 1 or any((x + dx, y + dy) in count
                                      for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy)}


@pytest.mark.parametrize("shape", [(0, 2), (1, 2), (7, 2), (2, 200, 200)])
def test_rounded_is_rint_as_int64_in_place(shape):
    # spread values, exact ties k + 0.5 of both parities, +-0.0, and values
    # near +-2**50 half cells, the most a scan's scaled coordinate reaches;
    # the largest array has the shape of a 200 x 200 scan's plane buffer
    rng = np.random.default_rng(7)
    n = math.prod(shape)
    pick = rng.integers(0, 4, n)
    ints = rng.integers(-50, 51, n).astype(float)
    u = np.select([pick == 0, pick == 1, pick == 2],
                  [rng.uniform(-1e3, 1e3, n), ints + 0.5, rng.choice([-0.0, 0.0], n)],
                  rng.choice([-1.0, 1.0], n) * 2.0 ** 50 + rng.uniform(-3.0, 3.0, n)).reshape(shape)
    if n >= 7:
        u.flat[:7] = [0.5, 1.5, -0.5, -1.5, -0.0, 2.0 ** 50 - 0.5, -2.0 ** 50 + 0.5]
    want = np.rint(u).astype(np.int64)
    got = _rounded(u)
    assert got.dtype == np.int64 and got.shape == shape and (n == 0 or np.shares_memory(got, u))
    assert _bits(got) == _bits(want)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-2.0 ** 50, 2.0 ** 50), gap=st.floats(0.0, 1.0, exclude_max=True),
       sign=st.sampled_from([-1.0, 1.0]))
def test_rounded_values_less_than_1_apart_are_at_most_1_apart(x, gap, sign):
    # each index is within 1/2 of its value; ties round to even
    u = np.array([x, x + sign * gap])
    assume(abs(u[1] - u[0]) < 1.0)
    hx, hy = _rounded(u.copy())
    assert abs(int(hx) - int(hy)) <= 1


def _floored_axes(u):
    """The floors of the (m, 2) array ``u``, as ``_suspects`` takes them: one
    C-contiguous int64 array per axis."""
    hx, hy = np.floor(u).astype(np.int64).T.copy()
    return hx, hy


def _assert_suspects_cover_brute_force(u):
    got = _suspects(*_floored_axes(u))
    assert np.issubdtype(got.dtype, np.integer)
    assert np.all(np.diff(got) > 0) and (len(got) == 0 or 0 <= got[0] <= got[-1] < len(u))
    want = suspects_brute_force(u)
    assert want <= set(got.tolist())
    return got, want


@settings(max_examples=60, deadline=None)
@given(seed=_SEED, n=st.integers(2, 400), size=st.floats(1.0, 1e4))
def test_suspects_cover_brute_force_uniform_cloud(seed, n, size):
    _assert_suspects_cover_brute_force(np.random.default_rng(seed).uniform(-size, size, (n, 2)))


@settings(max_examples=60, deadline=None)
@given(seed=_SEED, clusters=st.integers(1, 8), n=st.integers(2, 300), spread=st.floats(0.1, 3.0))
def test_suspects_cover_brute_force_clustered_cloud_with_duplicates(seed, clusters, n, spread):
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-1e3, 1e3, (clusters, 2))
    u = centres[rng.integers(0, clusters, n)] + rng.normal(0.0, spread, (n, 2))
    # repeat some rows exactly
    _assert_suspects_cover_brute_force(np.concatenate([u, u[rng.integers(0, n, n // 3)]]))


@settings(max_examples=60, deadline=None)
@given(seed=_SEED, n=st.integers(2, 300), width=st.integers(2, 40))
def test_suspects_cover_brute_force_on_cell_boundaries(seed, n, width):
    # integer rows lie on the boundaries of the half cells, and their floors
    # differ by exactly 0, 1 or 2: the pairs one apart are suspects and the
    # pairs two apart are not; rows just below an integer floor one lower
    rng = np.random.default_rng(seed)
    u = rng.integers(-width, width + 1, (n, 2)).astype(float)
    u[rng.random((n, 2)) < 0.25] -= 2.0 ** -40
    _assert_suspects_cover_brute_force(u)


@settings(max_examples=60, deadline=None)
@given(seed=_SEED, n=st.integers(2, 300), spread=st.integers(0, 4))
def test_suspects_cover_brute_force_near_2_49_half_cells(seed, n, spread):
    # rows near both -2**49 and 2**49 half cells: hy spans 2**50, so its
    # field is shifted right in the keys; rows within 1 + spread of the
    # corners make pairs at |dhy| <= 1 across the shift's boundaries
    rng = np.random.default_rng(seed)
    corner = rng.choice([-1.0, 1.0], (n, 2)) * 2.0 ** 49
    u = corner + rng.integers(-1 - spread, 2 + spread, (n, 2)) + rng.choice([0.0, 0.5], (n, 2))
    _, want = _assert_suspects_cover_brute_force(u)
    if n > 100:
        assert want


@pytest.mark.parametrize("u, want", [
    (np.zeros((0, 2)), []),
    (np.array([[3.5, -7.25]]), []),
    (np.array([[0.0, 0.0], [0.0, 0.0]]), [0, 1]),
    (np.array([[0.5, 0.5], [1.5, -0.5]]), [0, 1]),
    (np.array([[1.0, 0.0], [2.0, 0.0]]), [0, 1]),
    (np.array([[-1.0, 5.0], [0.999, 6.999]]), [0, 1]),
    (np.array([[0.0, 0.0], [2.0, 0.5]]), []),
    (np.array([[0.0, 0.0], [0.5, 2.0]]), []),
    (np.array([[0.0, 0.0], [1e6, -1e6]]), []),
], ids=["m0", "m1", "m2_equal", "m2_diagonal", "m2_odd_column", "m2_corner", "m2_x_apart",
        "m2_y_apart", "m2_far"])
def test_suspects_of_at_most_two_rows(u, want):
    got = _suspects(*_floored_axes(u))
    assert got.tolist() == want == sorted(suspects_brute_force(u))


def test_suspects_of_twist_k10_at_400_are_few():
    # the plane stage of the k = 10 twist spin's scan, every node of its grid
    arc, axis = _twist_setup("trefoil_twist")
    s = twist_spin(arc, axis, choose_bump(arc, axis), 10)
    svals = s.s_dom.lo + s.s_dom.length * np.arange(400) / 400
    hx, hy = _factor_plane(s, s.t_dom.sample(400), svals, 1e-3)
    got, want = _assert_suspects_cover_brute_force(np.stack([hx, hy], axis=1))
    assert len(got) > 0 and set(got.tolist()) == want


@settings(max_examples=60, deadline=None)
@given(seed=_SEED, n=st.integers(1, 60), spread=st.integers(0, 2))
def test_suspects_across_the_plane_stage_column_edges(seed, n, spread):
    # clusters of rows about a row on the last half cell of a column of the
    # plane stage's width, hx = -1 mod 2**w: rows on the next column's first
    # half cell, 1 apart on hx, and rows 2 apart on hx, within and across the
    # edge, each up to 1 + spread apart on hy.  The clusters are far apart,
    # so the suspects are exactly the rows of the brute-force pairs
    width = 1 << verify_module._COLUMN_BITS
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        hx, hy = int(rng.integers(-10 ** 6, 10 ** 6)) * width - 1, int(rng.integers(-10 ** 6, 10 ** 6))
        rows.append((hx, hy))
        for dx in rng.choice([-2, -1, 0, 1, 2, 3], int(rng.integers(1, 4)), replace=False):
            rows.append((hx + int(dx), hy + int(rng.integers(-1 - spread, 2 + spread))))
    u = rng.permutation(np.array(rows, float)) + rng.uniform(0.0, 1.0, (len(rows), 2))
    got, want = _assert_suspects_cover_brute_force(u)
    assert set(got.tolist()) == want


@settings(max_examples=100, deadline=None)
@given(keys=st.lists(st.integers(2 ** 61, 2 ** 62 - 1), max_size=60), seed=_SEED,
       n=st.integers(0, 3000), repeats=st.integers(0, 60))
def test_sort_keys_is_the_unsigned_sort_on_2_61_to_2_62(keys, seed, n, repeats):
    # drawn keys, seeded ones, both ends of the range, and repeats of them all
    rng = np.random.default_rng(seed)
    key = np.concatenate([np.array(keys + [2 ** 61, 2 ** 61 + 1, 2 ** 62 - 2, 2 ** 62 - 1], np.uint64),
                          rng.integers(2 ** 61, 2 ** 62, n, dtype=np.uint64)])
    key = rng.permutation(np.concatenate([key, rng.choice(key, repeats)]))
    want = np.sort(key, kind="stable")
    for dtype in (np.uint64, np.int64):
        got = key.astype(dtype)
        _sort_keys(got)
        assert got.dtype == dtype and got.tobytes() == want.astype(dtype).tobytes()


@pytest.mark.parametrize("hx", [0, -1], ids=["first_half_cell", "last_half_cell"])
def test_suspects_of_identical_rows_walk_a_bounded_number_of_offsets(hx):
    # 10**5 rows in one half cell, the first or the last of its column: every
    # row is a suspect, and the walk ends at its bound, so the plane stage
    # runs a bounded number of lines, not one walk step per row
    m, lines = 10 ** 5, 0

    def trace(frame, event, arg):
        if frame.f_code is not _suspects.__code__:
            return None

        def count(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            if lines > 1000:
                raise RuntimeError("the plane stage's walk runs on")
            return count
        return count

    sys.settrace(trace)
    try:
        got = _suspects(np.full(m, hx, np.int64), np.full(m, 3, np.int64))
    finally:
        sys.settrace(None)
    assert got.tolist() == list(range(m))


@pytest.mark.parametrize("model", ["twist_k10", "polynomial_spin_8"])
def test_plane_indices_are_two_contiguous_int64_arrays(model):
    # both producers of the plane stage's input, from the factors and from
    # the image grid, on a grid that is not square
    if model == "twist_k10":
        arc, axis = _twist_setup("trefoil_twist")
        s = twist_spin(arc, axis, choose_bump(arc, axis), 10)
    else:
        s = polynomial_spin(get_knot("trefoil_spun"), 8)
    tvals, svals = s.t_dom.sample(37), s.s_dom.sample(50)
    for plane in (_factor_plane(s, tvals, svals, 1e-3),
                  _image_plane(s.eval_grid(tvals, svals).reshape(-1, 4), 1e-3)):
        assert isinstance(plane, tuple) and len(plane) == 2
        hx, hy = plane
        for h in plane:
            assert h.dtype == np.int64 and h.shape == (37 * 50,) and h.flags.c_contiguous
        assert not np.shares_memory(hx, hy)


# -- column-hash collisions ------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=_SEED, n=st.integers(2, 300))
def test_close_pairs_match_kdtree_when_every_column_hash_agrees(seed, n):
    # the close-pair tests' clouds: uniform, clustered with exact repeats, a
    # dyadic lattice whose pairs tie the radius, and a cloud in the kernel of
    # the prefilter plane
    rng = np.random.default_rng(seed)
    r = float(rng.uniform(1e-3, 0.3))
    centres = rng.uniform(-3.0, 3.0, (8, 4))
    clustered = centres[rng.integers(0, 8, n)] + rng.normal(0.0, r, (n, 4))
    step = 2.0 ** int(rng.integers(-12, 3))
    kernel = np.linalg.svd(_PLANE.T)[2][2:]
    clouds = [(rng.uniform(-1.0, 1.0, (n, 4)), r),
              (np.concatenate([clustered, clustered[rng.integers(0, n, n // 3)]]), r),
              (rng.integers(-4, 5, (n, 4)) * step, int(rng.integers(1, 4)) * step),
              (rng.uniform(-1.0, 1.0, (n, 2)) @ kernel, r)]
    # every column hashes to 0: all rows fall in one column group, and only
    # the exact tests tell the columns apart
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify_module, "_CELL_HASH", np.zeros_like(verify_module._CELL_HASH))
        for pts, radius in clouds:
            _assert_close_pairs_match_kdtree(pts, radius)


@settings(max_examples=40, deadline=None)
@given(seed=_SEED, n=st.integers(2, 300))
def test_suspects_cover_brute_force_when_every_column_hash_agrees(seed, n):
    # the plane-stage tests' clouds: uniform, clustered with exact repeats,
    # rows on cell boundaries, and rows near +-2**49 half cells
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-1e3, 1e3, (8, 2))
    clustered = centres[rng.integers(0, 8, n)] + rng.normal(0.0, 1.0, (n, 2))
    boundaries = rng.integers(-20, 21, (n, 2)).astype(float)
    boundaries[rng.random((n, 2)) < 0.25] -= 2.0 ** -40
    corners = (rng.choice([-1.0, 1.0], (n, 2)) * 2.0 ** 49 + rng.integers(-3, 4, (n, 2))
               + rng.choice([0.0, 0.5], (n, 2)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify_module, "_CELL_HASH", np.zeros_like(verify_module._CELL_HASH))
        for u in (rng.uniform(-100.0, 100.0, (n, 2)),
                  np.concatenate([clustered, clustered[rng.integers(0, n, n // 3)]]),
                  boundaries, corners):
            _assert_suspects_cover_brute_force(u)
