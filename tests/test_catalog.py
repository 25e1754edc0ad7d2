import json
import math

import numpy as np
import pytest

from spun4d import catalog
from spun4d.catalog import (
    KnotArc, get_knot, knot_names, lift_height, plane_double_points,
)
from spun4d.errors import DegenerateInput, NonGeneric, UnknownKnot, UnliftableHeight
from spun4d.poly import Interval, Poly1
from test_verify import _traced_peak


def brute_double_points(f, g, iv, n=2000, diag_sep=1e-3):
    """Independent grid oracle: clustered near-coincidences of (f, g) refined
    by bisection-free local search over shrinking boxes."""
    ts = np.linspace(iv.lo, iv.hi, n)
    fv, gv = f(ts), g(ts)
    d2 = (fv[:, None] - fv[None, :]) ** 2 + (gv[:, None] - gv[None, :]) ** 2
    step = (iv.hi - iv.lo) / (n - 1)
    off = max(1, int(np.ceil(diag_sep / step)) + 1)
    mask = np.triu(np.ones_like(d2, bool), k=off)
    d2 = np.where(mask, d2, np.inf)
    # every 8-neighborhood local minimum of the masked distance field is a
    # candidate; the true double points are the ones whose residual collapses
    # under grid-shrink descent, near misses stall at a positive floor
    pad = np.pad(d2, 1, constant_values=np.inf)
    local = np.ones_like(d2, bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                local &= d2 <= pad[1 + di : 1 + di + n, 1 + dj : 1 + dj + n]
    cand = np.argwhere(local & np.isfinite(d2))
    scale = max(1.0, float(np.max(np.abs(fv))), float(np.max(np.abs(gv))))
    # pattern search on the squared image distance, all candidates in
    # lockstep, each with its own s, t and w: a step only shrinks once the
    # center beats its 5x5 neighborhood, so the search can track the full
    # length of a curved valley before zooming in
    S, T = ts[cand[:, 0]], ts[cand[:, 1]]
    W = np.full(len(cand), 2 * step)
    live = np.arange(len(cand))
    for _ in range(2000):
        if not live.size:
            break
        s, t, w = S[live], T[live], W[live]
        ss = np.linspace(s - w, s + w, 5, axis=-1)
        tt = np.linspace(t - w, t + w, 5, axis=-1)
        q = ((f(ss)[:, :, None] - f(tt)[:, None, :]) ** 2
             + (g(ss)[:, :, None] - g(tt)[:, None, :]) ** 2)
        # the first minimum of each flattened 5x5, as np.argmin picks it
        k = q.reshape(len(live), 25).argmin(axis=1)
        center = k == 12
        W[live[center]] = w[center] * 0.5
        move = ~center
        S[live[move]] = ss[move, k[move] // 5]
        T[live[move]] = tt[move, k[move] % 5]
        live = live[move | (W[live] >= 1e-13)]
    hits = []
    for s, t in zip(S, T):
        if s > t:
            s, t = t, s
        if t - s <= diag_sep or not (iv.contains(s, 1e-6) and iv.contains(t, 1e-6)):
            continue
        if math.hypot(float(f(s) - f(t)), float(g(s) - g(t))) > 1e-6 * scale:
            continue
        if not any(abs(s - a) < 1e-3 and abs(t - b) < 1e-3 for a, b in hits):
            hits.append((float(s), float(t)))
    hits.sort()
    return hits


TREFOIL_F = Poly1((0.0, -3.0, 0.0, 1.0))
TREFOIL_G = Poly1((0.0, -10.0, 0.0, 0.0, 0.0, 1.0))


def trefoil_double_points_analytic():
    """Closed-form double points of (t^3 - 3t, t^5 - 10t).

    Writing e1 = s + t, e2 = st, equal images force e2 = e1^2 - 3 and
    e1^4 - 3 e1^2 + 1 = 0, so e1^2 = (3 +- sqrt(5)) / 2; each of the four real
    e1 gives one pair {s, t} with s != t (discriminant 12 - 3 e1^2 > 0)."""
    pairs = []
    for sign_out in (1.0, -1.0):
        for sign_in in (1.0, -1.0):
            e1 = sign_out * math.sqrt((3.0 + sign_in * math.sqrt(5.0)) / 2.0)
            e2 = e1 * e1 - 3.0
            disc = math.sqrt(e1 * e1 - 4.0 * e2)
            s, t = 0.5 * (e1 - disc), 0.5 * (e1 + disc)
            pairs.append((s, t))
    pairs.sort()
    return pairs


def test_trefoil_double_points_match_analytic():
    found = plane_double_points(TREFOIL_F, TREFOIL_G, Interval(-3, 3))
    expect = trefoil_double_points_analytic()
    assert len(found) == len(expect) == 4
    assert np.allclose(found, expect, atol=1e-7)


def test_trefoil_double_points_match_brute_force():
    found = plane_double_points(TREFOIL_F, TREFOIL_G, Interval(-3, 3))
    brute = brute_double_points(TREFOIL_F, TREFOIL_G, Interval(-3, 3))
    assert len(found) == len(brute)
    assert np.allclose(found, brute, atol=1e-4)


def test_figure8_double_points_match_brute_force():
    arc = get_knot("figure8_spun")
    wide = Interval(-4, 4)
    found = plane_double_points(arc.f, arc.g, wide)
    brute = brute_double_points(arc.f, arc.g, wide, n=4000)
    assert len(found) == len(brute) == 8
    assert np.allclose(found, brute, atol=1e-4)
    # no pair lies entirely on the lifted arc's parameter interval, so the
    # restricted arc carries no crossings
    assert all(not (arc.ab.contains(s) and arc.ab.contains(t)) for s, t in found)
    assert arc.crossings == ()
    assert arc.crossing_iv is None


def test_double_points_empty_for_injective_curve():
    assert plane_double_points(Poly1((0.0, 1.0)), Poly1((0.0, 0.0, 1.0)), Interval(-2, 2)) == []


def _seeded_curve(index):
    """Curve ``index`` of a seeded family: f and g each with 3 to 7 normal
    coefficients."""
    rng = np.random.default_rng(0)
    for _ in range(index + 1):
        f, g = (Poly1(tuple(rng.normal(size=rng.integers(3, 8)))) for _ in "fg")
    return f, g


def test_double_points_survive_a_zero_lu_pivot():
    # a Newton step of this curve meets a Jacobian whose determinant is not 0
    # but whose LU factorization has an exact zero pivot: that start stops as
    # singular, and the batch it was solved in goes on
    found = plane_double_points(*_seeded_curve(5), Interval(-2, 2))
    assert len(found) == 1
    assert found[0] == pytest.approx((-1.81856, 1.77704), abs=1e-5)


@pytest.mark.parametrize("name", knot_names())
def test_double_point_search_holds_one_grid_array(name):
    # the 600 x 600 float64 distances are 2.9 MB, and beside them the search
    # may hold bool masks of the grid, 0.36 MB each, but no other float copy
    arc = get_knot(name)
    for iv in (arc.ab, Interval(-5.0, 5.0)):
        _, peak = _traced_peak(lambda: plane_double_points(arc.f, arc.g, iv))
        assert peak <= 4e6, (iv, peak)


def test_double_point_search_refuses_overflow_before_newton(monkeypatch):
    def newton(*args, **kwargs):
        raise AssertionError("Newton started on an overflowing curve")

    monkeypatch.setattr(catalog, "_newton_refine", newton)
    # (1e161)^2 is beyond double range
    with pytest.raises(DegenerateInput, match="too large for double precision"):
        plane_double_points(Poly1((0.0, 1e160)), Poly1((0.0, 0.0, 1.0)), Interval(-5.0, 5.0))


def test_catalog_names_and_arcs():
    names = knot_names()
    assert {"trefoil_spun", "trefoil_twist", "figure8_spun"} <= set(names)
    for name in names:
        arc = get_knot(name)
        assert isinstance(arc, KnotArc)
        # endpoints are height roots (to root-refinement accuracy), interior positive
        assert abs(float(arc.h(arc.ab.lo))) < 1e-6
        assert abs(float(arc.h(arc.ab.hi))) < 1e-6
        interior = np.linspace(arc.ab.lo, arc.ab.hi, 500)[1:-1]
        assert np.min(arc.h(interior)) > 0
    assert get_knot("trefoil_spun") is get_knot("trefoil_spun")  # cached


def test_figure8_fixture_is_the_product_of_its_factors_bit_for_bit():
    # numpy's nested products, the fixture's first form
    mul = np.polynomial.polynomial.polymul
    f = mul(mul([-7.0, 0.0, 1.0], [-10.0, 0.0, 1.0]), [0.0, 0.4])
    g = mul(mul(mul([-4.0, 0.0, 1.0], [-9.0, 0.0, 1.0]), [-12.0, 0.0, 1.0]), [0.0, 0.1])
    fx = catalog._FIXTURES["figure8_spun"]
    for got, want in ((fx["f"], f), (fx["g"], g)):
        assert np.asarray(got, float).tobytes() == np.asarray(want, float).tobytes()


def test_trefoil_interval_analytic():
    arc = get_knot("trefoil_spun")
    r = math.sqrt(2.0 + math.sqrt(7.0))
    assert arc.ab.lo == pytest.approx(-r, abs=1e-9)
    assert arc.ab.hi == pytest.approx(r, abs=1e-9)
    tw = get_knot("trefoil_twist")
    r2 = math.sqrt(2.0 + math.sqrt(20.0))
    assert tw.ab.hi == pytest.approx(r2, abs=1e-9)


def test_trefoil_crossings_inside_interval():
    arc = get_knot("trefoil_spun")
    assert len(arc.crossings) == 4
    assert arc.crossing_iv is not None
    for s, t in arc.crossings:
        assert arc.crossing_iv.contains(s) and arc.crossing_iv.contains(t)
        assert arc.ab.contains(s) and arc.ab.contains(t)


def test_point_evaluation():
    arc = get_knot("trefoil_spun")
    p = arc.point(0.0)
    assert np.allclose(p, [0.0, 0.0, 3.0])
    pts = arc.point(np.array([0.0, 1.0]))
    assert pts.shape == (2, 3)


def test_lift_height_minimal_shift():
    # seed -t^4 + 4 t^2 - 1 is negative at 0; lifting must cover the crossings
    h0 = Poly1((-1.0, 0.0, 4.0, 0.0, -1.0))
    h, ab = lift_height(h0, TREFOIL_F, TREFOIL_G)
    interior = np.linspace(ab.lo, ab.hi, 800)[1:-1]
    assert np.min(h(interior)) > 0
    for s, t in trefoil_double_points_analytic():
        assert ab.contains(s) and ab.contains(t)
    # minimality: backing off by 2x the granularity loses admissibility
    shift = h.coeffs[0] - h0.coeffs[0]
    assert shift > 0


def test_lift_height_rejects_bad_seed():
    with pytest.raises(UnliftableHeight):
        lift_height(Poly1((1.0, 2.0)), TREFOIL_F, TREFOIL_G)  # odd degree
    with pytest.raises(UnliftableHeight):
        lift_height(Poly1((0.0, 0.0, 1.0)), TREFOIL_F, TREFOIL_G)  # opens upward


def test_unknown_knot():
    with pytest.raises(UnknownKnot):
        get_knot("granny")


def test_user_knot_json(tmp_path):
    path = tmp_path / "unknot.json"
    path.write_text(json.dumps({
        "name": "unknot",
        "f": {"coeffs": [0.0, 1.0]},
        "g": {"coeffs": [0.0, 0.0, 1.0]},
        "h": {"coeffs": [1.0, 0.0, -1.0]},
    }))
    arc = get_knot(str(path))
    assert arc.name == "unknot"
    assert arc.ab.lo == pytest.approx(-1.0, abs=1e-9)
    assert arc.ab.hi == pytest.approx(1.0, abs=1e-9)
    assert arc.crossings == ()


def test_user_knot_json_is_reread_after_edit(tmp_path):
    path = tmp_path / "knot.json"

    def write(height_coeffs):
        path.write_text(json.dumps({
            "f": {"coeffs": [0.0, 1.0]},
            "g": {"coeffs": [0.0, 0.0, 1.0]},
            "h": {"coeffs": height_coeffs},
        }))

    write([1.0, 0.0, -1.0])  # roots at -1, 1
    assert get_knot(str(path)).ab.hi == pytest.approx(1.0, abs=1e-9)
    write([4.0, 0.0, -1.0])  # roots at -2, 2
    assert get_knot(str(path)).ab.hi == pytest.approx(2.0, abs=1e-9)


def test_a_projection_that_folds_onto_itself_is_not_generic():
    # (t^2, t^4 - t^2) meets itself at every pair (t, -t): no crossing is transverse
    with pytest.raises(NonGeneric, match="tangential self-intersection"):
        plane_double_points(Poly1((0.0, 0.0, 1.0)), Poly1((0.0, 0.0, -1.0, 0.0, 1.0)), Interval(-2.0, 2.0))


def test_a_knot_path_that_is_a_directory_is_an_unknown_knot(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.json").mkdir()
    with pytest.raises(UnknownKnot, match="^cannot read knot definition 'd.json'"):
        get_knot("d.json")
