import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import spun4d
from spun4d import export
from spun4d.catalog import KnotArc, get_knot
from spun4d.cli import _default_axis
from spun4d.errors import BadAxes
from spun4d.export import (
    FLOAT_FMT, WRITE_ROWS, _chain_segments as chain_segments, _write_rows, export_grid_csv,
    export_mesh, export_slices, project, sample_surface, slice_surface, sweep_surface, to_mesh,
)
from spun4d.poly import Interval, Poly1, Poly2
from spun4d.spin import spin
from spun4d.surface import PolyMap4, surface_from_json
from spun4d.twist import choose_bump, polynomialize_twist, twist_spin

TWO_PI = 2.0 * math.pi


def _unknot_spin():
    arc = KnotArc("unknot", Poly1((0.0, 1.0)), Poly1(()), Poly1((1.0, 0.0, -1.0)),
                  Interval(-1.0, 1.0), None, ())
    return spin(arc)


@pytest.fixture(scope="module")
def trefoil_surface():
    return spin(get_knot("trefoil_spun"))


def test_sample_surface_shape_and_seam(trefoil_surface):
    g = sample_surface(trefoil_surface, 20, 30)
    assert g.points.shape == (20, 30, 4)
    assert g.seam_duplicated and g.pole_low and g.pole_high
    # the duplicated seam rows carry identical images
    assert np.allclose(g.points[:, 0], g.points[:, -1], atol=1e-12)


def test_project_by_axis_triple(trefoil_surface):
    g = sample_surface(trefoil_surface, 16, 16)
    g3 = project(g, "xzw")
    assert g3.points.shape == (16, 16, 3)
    assert np.allclose(g3.points, g.points[..., [0, 2, 3]])


def test_project_by_matrix(trefoil_surface):
    g = sample_surface(trefoil_surface, 16, 16)
    M = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    assert np.allclose(project(g, M).points, project(g, "xzw").points)


def test_project_rejects_bad_spec(trefoil_surface):
    g = sample_surface(trefoil_surface, 16, 16)
    with pytest.raises(BadAxes):
        project(g, "xxz")
    with pytest.raises(BadAxes):
        project(g, "abc")
    with pytest.raises(BadAxes):
        project(g, np.zeros((3, 4)))  # rank deficient
    with pytest.raises(BadAxes):
        project(g, np.zeros((2, 4)))


def test_project_of_a_projected_grid_reads_its_own_columns(trefoil_surface):
    g = sample_surface(trefoil_surface, 8, 8)
    p = project(g, "xzw")
    q = project(p, "wxz")
    assert q.columns == ("w", "x", "z")
    assert q.points.tobytes() == g.points[..., [3, 0, 2]].tobytes()


@pytest.mark.parametrize("spec", ["xyz", "xyw"])
def test_project_refuses_a_letter_the_grid_lacks(trefoil_surface, spec):
    p = project(sample_surface(trefoil_surface, 8, 8), "xzw")
    with pytest.raises(BadAxes, match=f"the grid has no axis of '{spec}'; its columns are x, z, w"):
        project(p, spec)


def test_project_refuses_a_matrix_of_other_than_the_grid_s_columns(trefoil_surface):
    p = project(sample_surface(trefoil_surface, 8, 8), "xzw")
    with pytest.raises(BadAxes, match=r"projection matrix must be 3x3, got \(3, 4\)"):
        project(p, np.eye(3, 4))
    assert np.array_equal(project(p, np.eye(3)).points, p.points)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_project_refuses_a_matrix_that_is_not_finite(trefoil_surface, bad):
    g = sample_surface(trefoil_surface, 8, 8)
    with pytest.raises(BadAxes, match="projection matrix entries must be finite"):
        project(g, np.full((3, 4), bad))


def test_slice_unknot_z0_is_two_circles_worth():
    # the unknot sphere {x^2 + (z,w)-radius structure}: z = 0 cuts the spun
    # sphere where cos(theta) = 0, giving closed curves
    s = _unknot_spin()
    cs = slice_surface(s, "z", 0.0)
    assert len(cs.curves) >= 1
    assert all(cs.closed)
    # every curve point satisfies x^2 + w^2 = ... lies on the expected set:
    # x = t, w = +-(1 - t^2); check w^2 = (1 - x^2)^2
    for c in cs.curves:
        x, y, w = c[:, 0], c[:, 1], c[:, 2]
        assert np.allclose(y, 0.0, atol=1e-9)
        assert np.max(np.abs(np.abs(w) - (1.0 - x ** 2))) < 0.01


def test_slice_w0_supported_on_theta_0_pi(trefoil_surface):
    arc = get_knot("trefoil_spun")
    cs = slice_surface(trefoil_surface, "w", 0.0)
    assert len(cs.curves) >= 1
    # w = h(t) sin(theta) = 0 away from the poles means theta in {0, pi}; the
    # image points must be (f, g, +-h)
    for c in cs.curves:
        x, y, z = c[:, 0], c[:, 1], c[:, 2]
        # invert the first coordinate is hard; instead verify each point lies
        # on the union of the two sections by residual against h(t) via t from
        # a dense arc sampling
        t = np.linspace(arc.ab.lo, arc.ab.hi, 4000)
        ref = np.stack([arc.f(t), arc.g(t), arc.h(t)], axis=-1)
        for p in c[:: max(1, len(c) // 40)]:
            d_plus = np.min(np.linalg.norm(ref - [p[0], p[1], p[2]], axis=1))
            d_minus = np.min(np.linalg.norm(ref - [p[0], p[1], -p[2]], axis=1))
            assert min(d_plus, d_minus) < 0.05


def test_slice_outside_range_is_empty(trefoil_surface):
    cs = slice_surface(trefoil_surface, "w", 100.0)
    assert cs.curves == ()


def test_slice_validates_input(trefoil_surface):
    with pytest.raises(ValueError):
        slice_surface(trefoil_surface, "w", 0.0, 32, 128)
    with pytest.raises(BadAxes):
        slice_surface(trefoil_surface, "q", 0.0)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            slice_surface(trefoil_surface, "w", value)
    with pytest.raises(ValueError, match="n_s must be at least 64, got 32"):
        sweep_surface(trefoil_surface, "w", 3, 128, 32)
    with pytest.raises(BadAxes):
        sweep_surface(trefoil_surface, "q", 3)
    with pytest.raises(ValueError, match="count must be at least 1, got 0"):
        sweep_surface(trefoil_surface, "w", 0)


@pytest.mark.parametrize("axis,value", [("w", 0.0), ("z", 1.5)])
def test_no_edge_key_ends_two_open_chains(trefoil_surface, monkeypatch, axis, value):
    # a chain stops only where no segment continues it, so an open line is
    # never cut into pieces that meet at a shared edge key; with no seam and
    # no poles declared, the curves through them stay open at the grid's edges
    open_surface = replace(trefoil_surface, periodic_s=False, pole_low=False, pole_high=False)
    chains = []

    def record(segments):
        out = chain_segments(segments)
        chains.extend(out)
        return out

    monkeypatch.setattr(export, "_chain_segments", record)
    slice_surface(open_surface, axis, value, 128, 128)
    ends = [key for keys, closed in chains if not closed for key in (keys[0], keys[-1])]
    assert ends and len(set(ends)) == len(ends)


@pytest.mark.parametrize("axis,value", [("w", 0.0), ("z", 0.0), ("z", 1.5), ("x", 0.5)])
def test_slice_curves_close_across_the_seam_and_the_poles(trefoil_surface, axis, value):
    # w = 0 is the arc at theta = 0 and its mirror image at theta = pi, joined
    # at the poles; z = 0 and z = 1.5 cross the seam; x = 0.5 cuts three circles
    cs = slice_surface(trefoil_surface, axis, value, 128, 128)
    assert cs.curves and all(cs.closed)
    if axis != "x":
        assert len(cs.curves) == 1


class _CountingSurface:
    """Proxy that counts the surface evaluations made through it."""

    def __init__(self, s):
        self._s, self.calls, self.shapes = s, 0, []

    def __getattr__(self, name):
        return getattr(self._s, name)

    def evaluate(self, t, s):
        self.calls += 1
        self.shapes.append(np.broadcast(t, s).shape)
        return self._s.evaluate(t, s)

    def eval_grid(self, tvals, svals):
        self.calls += 1
        return self._s.eval_grid(tvals, svals)


def test_slice_without_saddle_cells_evaluates_surface_twice(trefoil_surface):
    field = sample_surface(trefoil_surface, 128, 128).points[..., 3] - 1.5
    pos = field >= 0.0
    code = pos[:-1, :-1] | pos[1:, :-1] << 1 | pos[1:, 1:] << 2 | pos[:-1, 1:] << 3
    assert not np.isin(code, (5, 10)).any()
    proxy = _CountingSurface(trefoil_surface)
    cs = slice_surface(proxy, "w", 1.5, 128, 128)
    assert cs.curves and proxy.calls == 2  # field grid, then crossing points
    ref = slice_surface(trefoil_surface, "w", 1.5, 128, 128)
    assert all(np.array_equal(a, b) for a, b in zip(cs.curves, ref.curves))


def _one_slice_per_level(s, axis, count, n=128):
    """A sweep made of slice_surface calls: the range from a sampling of
    its own, then one call, and one sampling, per level."""
    w = sample_surface(s, n, n).points[..., "xyzw".index(axis)]
    return [slice_surface(s, axis, float(v), n, n)
            for v in np.linspace(float(w.min()), float(w.max()), count + 2)[1:-1]]


def _saddle_map():
    """(t, theta, t * theta, 0) on [-1, 1]^2: the level z = 0 has a saddle cell."""
    t, th = Poly2.from_t(Poly1((0.0, 1.0))), Poly2.from_s(Poly1((0.0, 1.0)))
    return PolyMap4((t, th, t * th, Poly2()), Interval(-1, 1), Interval(-1, 1))


@pytest.mark.parametrize("name,axis,count", [("trefoil", "w", 1), ("trefoil", "w", 24),
                                             ("saddle", "z", 3)])
def test_sweep_samples_its_grid_once(trefoil_surface, name, axis, count):
    # beyond one tensor grid, each level evaluates what slice_surface
    # evaluates beyond its own grid: its saddle centres and its crossings
    s = trefoil_surface if name == "trefoil" else _saddle_map()
    proxy = _CountingSurface(s)
    sweep = sweep_surface(proxy, axis, count, 128, 96)
    assert len(sweep) == count and proxy.shapes[0] == (128, 96)
    beyond = []
    for sl in sweep:
        ref = _CountingSurface(s)
        slice_surface(ref, axis, sl.slice_value, 128, 96)
        assert ref.shapes[0] == (128, 96)
        beyond += ref.shapes[1:]
    assert proxy.shapes[1:] == beyond and all(len(shape) == 1 for shape in beyond)
    if name == "saddle":  # the crossings of each level, and the centre of z = 0's saddle cell
        assert sweep[1].slice_value == 0.0 and len(beyond) == 4 and beyond[1] == (1,)


def _swept(name):
    """The surfaces of the README's sweeps, and a map whose seam column is
    not its column 0 (its y-range on the raw grid is not the nodes')."""
    if name == "seam":
        return replace(_saddle_map(), periodic_s=True)
    if name == "twist_k10":  # spun4d twistspin trefoil_twist --k 10 --sweep w
        arc = get_knot("trefoil_twist")
        axis = _default_axis(arc)
        return twist_spin(arc, axis, choose_bump(arc, axis), 10)
    spun = spin(get_knot("trefoil_spun"))
    if name == "p_json":  # spun4d polynomialize trefoil_spun --cheb-degree 8 --out p.json
        return surface_from_json(json.loads(json.dumps(polynomialize_twist(spun, 8)[0].to_json())))
    return spun


@pytest.mark.parametrize("name,axis", [("twist_k10", "w"), ("p_json", "w"), ("spin", "x"), ("seam", "y")])
def test_sweep_equals_one_slice_per_level(name, axis):
    s = _swept(name)
    got, want = sweep_surface(s, axis, 24), _one_slice_per_level(s, axis, 24)
    assert len(got) == len(want) == 24
    for a, b in zip(got, want):
        assert (a.axis, a.slice_value, a.closed) == (b.axis, b.slice_value, b.closed)
        assert len(a.curves) == len(b.curves) and all(
            x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a.curves, b.curves))


def test_marching_squares_circle_level_set():
    # analytic check on a plain polynomial surface: x^2 + y^2 slice of a
    # paraboloid-like map; slice z = r^2 of (t, s, t^2 + s^2, 0)
    m = PolyMap4(
        (Poly2.from_t(Poly1((0.0, 1.0))), Poly2.from_s(Poly1((0.0, 1.0))),
         Poly2.from_t(Poly1((0.0, 0.0, 1.0))) + Poly2.from_s(Poly1((0.0, 0.0, 1.0))),
         Poly2()),
        Interval(-1, 1), Interval(-1, 1),
    )
    cs = slice_surface(m, "z", 0.25)
    assert len(cs.curves) == 1 and cs.closed[0]
    x, y = cs.curves[0][:, 0], cs.curves[0][:, 1]
    assert np.max(np.abs(np.hypot(x, y) - 0.5)) < 1e-3


def test_mesh_closed_sphere_topology(trefoil_surface):
    g3 = project(sample_surface(trefoil_surface, 40, 40), "xyz")
    mesh = to_mesh(g3)
    assert mesh.euler_characteristic() == 2
    assert mesh.is_watertight()


def test_mesh_open_grid_is_disk():
    m = PolyMap4(
        (Poly2.from_t(Poly1((0.0, 1.0))), Poly2.from_s(Poly1((0.0, 1.0))),
         Poly2(), Poly2()),
        Interval(-1, 1), Interval(-1, 1),
    )
    g3 = project(sample_surface(m, 10, 10), "xyz")
    mesh = to_mesh(g3)
    assert mesh.euler_characteristic() == 1  # disk: V - E + F = 1
    assert not mesh.is_watertight()


def test_mesh_refuses_a_pole_row_whose_mean_overflows():
    # every sample is finite, but the pole rows' sums overflow
    g3 = project(sample_surface(_unknot_spin(), 16, 16), "xyz")
    g3 = replace(g3, points=np.full_like(g3.points, 1.5e308))
    with pytest.raises(ValueError, match="not finite"):
        to_mesh(g3)


def test_mesh_export_formats(tmp_path, trefoil_surface):
    g3 = project(sample_surface(trefoil_surface, 24, 24), "xyz")
    mesh = to_mesh(g3)
    obj = tmp_path / "m.obj"
    ply = tmp_path / "m.ply"
    js = tmp_path / "m.json"
    export_mesh(mesh, "obj", obj)
    export_mesh(mesh, "ply", ply)
    export_mesh(mesh, "json", js)
    lines = obj.read_text().splitlines()
    nv = sum(1 for ln in lines if ln.startswith("v "))
    nf = sum(1 for ln in lines if ln.startswith("f "))
    assert nv == len(mesh.vertices) and nf == len(mesh.faces)
    header = ply.read_text().splitlines()
    assert f"element vertex {len(mesh.vertices)}" in header
    doc = json.loads(js.read_text())
    assert len(doc["vertices"]) == len(mesh.vertices)
    with pytest.raises(ValueError):
        export_mesh(mesh, "stl", tmp_path / "m.stl")


@pytest.mark.parametrize("fmt", ["obj", "ply"])
def test_mesh_export_refuses_vertices_that_are_not_3d(tmp_path, fmt):
    # without project the mesh keeps all four coordinates of each vertex
    mesh = to_mesh(sample_surface(_unknot_spin(), 16, 16))
    assert mesh.vertices.shape[1] == 4
    with pytest.raises(ValueError, match=r"takes 3-D vertices, got 4-D ones; .*spun4d\.project"):
        export_mesh(mesh, fmt, tmp_path / f"m.{fmt}")
    assert not os.listdir(tmp_path)
    export_mesh(mesh, "json", tmp_path / "m.json")
    assert np.array(json.loads((tmp_path / "m.json").read_text())["vertices"]).shape == mesh.vertices.shape


def test_grid_csv_roundtrip(tmp_path, trefoil_surface):
    g = sample_surface(trefoil_surface, 12, 12)
    path = tmp_path / "grid.csv"
    export_grid_csv(g, path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (144, 6)
    k = 7 * 12 + 3
    assert np.allclose(rows[k, 2:], g.points[7, 3], rtol=1e-6)


def test_export_slices_json_and_csv(tmp_path, trefoil_surface):
    slices = [slice_surface(trefoil_surface, "w", v, 64, 64) for v in (0.0, 1.0)]
    out_json = export_slices(slices, "json", str(tmp_path / "s_{}.json"))
    out_csv = export_slices(slices, "csv", str(tmp_path / "s_{}.csv"))
    assert len(out_json) == 2 and len(out_csv) == 2
    doc = json.loads((tmp_path / "s_0.json").read_text())
    assert doc["axis"] == "w" and doc["slice_value"] == 0.0
    assert all(len(c["points"][0]) == 3 for c in doc["curves"])
    first = (tmp_path / "s_0.csv").read_text().splitlines()
    assert first[0] == "curve,closed,c0,c1,c2"
    with pytest.raises(ValueError):
        export_slices(slices, "tsv", str(tmp_path / "s_{}.tsv"))


@pytest.mark.parametrize("pattern", ["x.json", "a{1}.json", "a{x}.json", "a{.x}", "a{"])
def test_export_slices_rejects_bad_pattern_before_writing(tmp_path, trefoil_surface, pattern):
    slices = [slice_surface(trefoil_surface, "w", v, 64, 64) for v in (0.0, 1.0)]
    with pytest.raises(ValueError) as exc:
        export_slices(slices, "json", str(tmp_path / pattern))
    assert repr(str(tmp_path / pattern)) in str(exc.value)
    assert list(tmp_path.iterdir()) == []
    # one slice needs no index
    assert export_slices(slices[:1], "json", str(tmp_path / "x.json")) == [str(tmp_path / "x.json")]


def test_slicing_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on first use, 12-14 ms of a process that
    # slices; the slicer keeps every edge it uses, duplicates included
    code = """
import sys
from spun4d import get_knot, spin
from spun4d.export import slice_surface, sweep_surface
s = spin(get_knot("trefoil_spun"))
assert slice_surface(s, "w", 0.5).curves and len(sweep_surface(s, "z", 4)) == 4
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spun4d.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def format_rows_reference(prefix, fmt, rows, sep=" "):
    """Reference: every row of a 2D array as text in one formatting pass."""
    line = prefix + sep.join([fmt] * rows.shape[1]) + "\n"
    return (line * rows.shape[0]) % tuple(rows.ravel().tolist())


@pytest.mark.parametrize("n", [0, 1, WRITE_ROWS, 2 * WRITE_ROWS + WRITE_ROWS // 2])
def test_write_rows_in_chunks_matches_one_pass_formatting(n):
    rng = np.random.default_rng(n)
    floats = rng.normal(0.0, 10.0, (n, 3)) * 10.0 ** rng.integers(-12, 12, (n, 1))
    ints = rng.integers(0, 1 << 20, (n, 3))
    for prefix, fmt, rows, sep in (("v ", FLOAT_FMT, floats, " "), ("3 ", "%d", ints, " "),
                                   ("2,1,", FLOAT_FMT, floats, ",")):
        fh = io.StringIO()
        _write_rows(fh, prefix, fmt, rows, sep)
        assert fh.getvalue() == format_rows_reference(prefix, fmt, rows, sep)
