import json
import math
from dataclasses import replace

import numpy as np
import pytest

from spun4d import export
from spun4d.catalog import KnotArc, get_knot
from spun4d.errors import BadAxes
from spun4d.export import (
    _chain_segments as chain_segments, export_grid_csv, export_mesh, export_slices, project,
    sample_surface, slice_surface, to_mesh,
)
from spun4d.poly import Interval, Poly1
from spun4d.spin import spin

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
        self._s, self.calls = s, 0

    def __getattr__(self, name):
        return getattr(self._s, name)

    def evaluate(self, t, s):
        self.calls += 1
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


def test_marching_squares_circle_level_set():
    # analytic check on a plain polynomial surface: x^2 + y^2 slice of a
    # paraboloid-like map; slice z = r^2 of (t, s, t^2 + s^2, 0)
    from spun4d.poly import Poly2
    from spun4d.surface import PolyMap4

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
    from spun4d.poly import Poly2
    from spun4d.surface import PolyMap4

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
