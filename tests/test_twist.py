import math

import numpy as np
import pytest

from spun4d import twist as twist_module
from spun4d.catalog import get_knot
from spun4d.errors import NonUnitAxis, NoRoom, PlaneCrossing
from spun4d.poly import Interval
from spun4d.spin import spin
from spun4d.surface import Surface4, _eval_points, max_grid_deviation
from spun4d.twist import (
    PRECHECK_NT, Bump, axis_rotation, choose_bump, make_axis, polynomialize_twist,
    rodrigues, twist_spin, twisted_arc,
)
from test_reference_impls import assert_exact_plane_crossing

TWO_PI = 2.0 * math.pi


# -- bump -------------------------------------------------------------------

def test_bump_plateaus_and_range():
    b = Bump(3.8, 4.8)
    t = np.linspace(-3, 3, 100001)
    v = b(t)
    assert np.all((0.0 <= v) & (v <= 1.0))
    assert np.all(v[np.abs(t) <= math.sqrt(3.8) - 1e-9] == 1.0)
    assert np.all(v[np.abs(t) >= math.sqrt(4.8) + 1e-9] == 0.0)


def test_bump_midpoint_value():
    b = Bump(3.8, 4.8)
    # at t^2 = (d1 + d2) / 2 the two exponential weights agree, so B = 1/2;
    # squaring sqrt(4.3) costs a couple of ulps in float
    assert abs(float(b(math.sqrt(4.3))) - 0.5) < 1e-13


def test_bump_is_even_and_smooth_at_joins():
    b = Bump(1.0, 2.0)
    t = np.linspace(0.1, 1.6, 500)
    assert np.allclose(b(t), b(-t))
    # derivative matches finite differences, including across the plateau joins
    eps = 1e-7
    fd = (b(t + eps) - b(t - eps)) / (2 * eps)
    assert np.max(np.abs(b.derivative(t) - fd)) < 1e-5
    # derivative vanishes identically on the plateaus
    assert float(b.derivative(0.5)) == 0.0
    assert float(b.derivative(1.5)) == 0.0


def test_bump_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Bump(2.0, 1.0)
    with pytest.raises(ValueError):
        Bump(0.0, 1.0)


# -- rotation algebra -------------------------------------------------------

def test_rodrigues_properties_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        phi = rng.uniform(-2 * TWO_PI, 2 * TWO_PI)
        R = rodrigues(k, phi)
        assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-10
        assert abs(np.linalg.det(R) - 1.0) < 1e-10
        assert np.max(np.abs(R @ k - k)) < 1e-10


def test_rodrigues_group_law():
    rng = np.random.default_rng(8)
    k = rng.normal(size=3)
    k /= np.linalg.norm(k)
    a, b = 0.8, -1.7
    assert np.max(np.abs(rodrigues(k, a) @ rodrigues(k, b) - rodrigues(k, a + b))) < 1e-12


def test_rodrigues_rejects_non_unit_axis():
    with pytest.raises(NonUnitAxis):
        rodrigues([1.0, 1.0, 0.0], 0.5)


def test_make_axis_trefoil_height():
    arc = get_knot("trefoil_twist")
    axis = make_axis(arc, -2.19, 2.19)
    # c = h(2.19) = -2.19^4 + 4 * 2.19^2 + 16
    assert axis.c == pytest.approx(-2.19 ** 4 + 4 * 2.19 ** 2 + 16.0, abs=1e-12)
    assert axis.c == pytest.approx(12.18182479, abs=1e-6)
    assert np.allclose(axis.P[2], axis.Q[2])


def test_make_axis_rejections():
    arc = get_knot("trefoil_twist")
    with pytest.raises(ValueError):
        make_axis(arc, -2.19, 2.0)  # unequal heights
    with pytest.raises(ValueError):
        make_axis(arc, -1.0, 1.0)  # crossings not inside


@pytest.mark.parametrize("t1, t2", [(math.inf, 2.19), (math.nan, 2.19), (-2.19, -math.inf),
                                    (-2.19, 2.6)])
def test_make_axis_refuses_endpoints_off_the_arc(t1, t2):
    # the trefoil_twist arc is [-2.54404, 2.54404]
    with pytest.raises(ValueError, match="arc points"):
        make_axis(get_knot("trefoil_twist"), t1, t2)


def test_axis_rotation_fixes_axis_points():
    arc = get_knot("trefoil_twist")
    axis = make_axis(arc, -2.19, 2.19)
    for phi in (0.4, math.pi, 5.0):
        rot = axis_rotation(axis, phi)
        assert np.max(np.abs(rot(axis.P) - axis.P)) < 1e-9
        assert np.max(np.abs(rot(axis.Q) - axis.Q)) < 1e-9
        # isometry
        v = np.array([1.0, 2.0, 3.0])
        w = np.array([-0.3, 0.9, 4.0])
        assert np.linalg.norm(rot(v) - rot(w)) == pytest.approx(np.linalg.norm(v - w))


def test_axis_rotation_half_turn_height():
    # a point at height z maps to height 2c - z under a half turn about the axis
    arc = get_knot("trefoil_twist")
    axis = make_axis(arc, -2.19, 2.19)
    rot = axis_rotation(axis, math.pi)
    image = rot(np.array([0.0, 0.0, 16.0]))
    assert image[2] == pytest.approx(2.0 * axis.c - 16.0, abs=1e-9)


def test_axis_rotation_is_the_affine_map_bit_for_bit():
    # the map x -> x R^T + (P - R P), as the rotation's matrix and offset
    # gave it, at random points and angles and at demo 02's point
    arc = get_knot("trefoil_twist")
    axis = make_axis(arc, -2.19, 2.19)
    rng = np.random.default_rng(7)
    cases = [(math.pi, [0.0, 0.0, 16.0])] + [(rng.uniform(-10, 10), rng.normal(0, 5, (17, 3)))
                                              for _ in range(20)]
    for phi, x in cases:
        R = rodrigues(axis.direction, phi)
        want = np.asarray(x, float) @ R.T + (axis.P - R @ axis.P)
        got = axis_rotation(axis, phi)(x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# -- twisted arc and bump choice -------------------------------------------

def test_choose_bump_brackets_crossings():
    arc = get_knot("trefoil_twist")
    axis = make_axis(arc, -2.19, 2.19)
    bump = choose_bump(arc, axis)
    inner = max(arc.crossing_iv.lo ** 2, arc.crossing_iv.hi ** 2)
    assert inner < bump.d1 < bump.d2 < 2.19 ** 2
    # identically 1 across every crossing parameter
    for s, t in arc.crossings:
        assert float(bump(s)) == 1.0 and float(bump(t)) == 1.0
    # identically 0 at and beyond the axis endpoints
    assert float(bump(axis.t1)) == 0.0 and float(bump(axis.t2)) == 0.0


def test_choose_bump_no_room():
    arc = get_knot("trefoil_twist")
    axis = make_axis(arc, -2.19, 2.19)
    cramped = type(arc)(arc.name, arc.f, arc.g, arc.h, arc.ab,
                        Interval(-2.3, 2.3), arc.crossings)
    with pytest.raises(NoRoom):
        choose_bump(cramped, axis)


def test_twisted_arc_interpolates_between_maps():
    arc = get_knot("trefoil_twist")
    axis = make_axis(arc, -2.19, 2.19)
    bump = choose_bump(arc, axis)
    phi = 1.3
    tw = twisted_arc(arc, axis, bump, phi)
    rot = axis_rotation(axis, phi)
    t = np.linspace(arc.ab.lo, arc.ab.hi, 400)
    pts = tw(t)
    orig = arc.point(t)
    rotated = rot(orig)
    b = bump(t)[:, None]
    assert np.allclose(pts, b * rotated + (1 - b) * orig, atol=1e-9)
    # plateau regions agree exactly with the pure maps
    core = np.abs(t) <= math.sqrt(bump.d1)
    outside = np.abs(t) >= math.sqrt(bump.d2)
    assert np.allclose(pts[core], rotated[core], atol=1e-12)
    assert np.allclose(pts[outside], orig[outside], atol=1e-12)


def test_twisted_arc_phi_zero_is_identity():
    arc = get_knot("trefoil_twist")
    axis = make_axis(arc, -2.19, 2.19)
    bump = choose_bump(arc, axis)
    t = np.linspace(arc.ab.lo, arc.ab.hi, 200)
    assert np.allclose(twisted_arc(arc, axis, bump, 0.0)(t), arc.point(t), atol=1e-12)


# -- twist spin -------------------------------------------------------------

@pytest.fixture(scope="module")
def twist_setup():
    arc = get_knot("trefoil_twist")
    axis = make_axis(arc, -2.19, 2.19)
    bump = choose_bump(arc, axis)
    return arc, axis, bump


def test_twist_spin_zero_twists_matches_spin(twist_setup):
    arc, axis, bump = twist_setup
    assert max_grid_deviation(twist_spin(arc, axis, bump, 0), spin(arc)) < 1e-10
    # B cos 0 cancels A's -B u and C sin 0 drops out as the terms are collected
    assert twist_spin(arc, axis, bump, 0) == spin(arc)


def test_twist_spin_zero_twists_is_the_spin_of_the_short_trefoil():
    # the axis of acceptance criterion 5, halfway from the crossings to the ends
    arc = get_knot("trefoil_spun")
    hi = 0.5 * (arc.crossing_iv.hi + arc.ab.hi)
    axis = make_axis(arc, -hi, hi)
    assert twist_spin(arc, axis, choose_bump(arc, axis), 0) == spin(arc)


def test_twist_spin_theta_zero_section(twist_setup):
    arc, axis, bump = twist_setup
    s = twist_spin(arc, axis, bump, 3)
    t = np.linspace(arc.ab.lo, arc.ab.hi, 300)
    pts = s.evaluate(t, np.zeros_like(t))
    expect = arc.point(t)
    assert np.allclose(pts[:, 0], expect[:, 0], atol=1e-10)
    assert np.allclose(pts[:, 1], expect[:, 1], atol=1e-10)
    assert np.allclose(pts[:, 2], expect[:, 2], atol=1e-10)
    assert np.allclose(pts[:, 3], 0.0, atol=1e-12)


def test_twist_spin_poles_theta_independent(twist_setup):
    arc, axis, bump = twist_setup
    s = twist_spin(arc, axis, bump, 5)
    th = np.linspace(0, TWO_PI, 73)
    for end in (arc.ab.lo, arc.ab.hi):
        pts = s.evaluate(np.full_like(th, end), th)
        assert np.max(np.ptp(pts, axis=0)) < 1e-9


def test_twist_spin_differs_from_spin(twist_setup):
    arc, axis, bump = twist_setup
    assert max_grid_deviation(twist_spin(arc, axis, bump, 1), spin(arc), 80, 80) > 1.0


def test_twist_spin_partials_match_finite_differences(twist_setup):
    arc, axis, bump = twist_setup
    s = twist_spin(arc, axis, bump, 2)
    tv = np.linspace(arc.ab.lo + 0.1, arc.ab.hi - 0.1, 9)
    sv = np.linspace(0.3, TWO_PI - 0.3, 9)
    dt, ds = s.partials_grid(tv, sv)
    eps = 1e-6
    T, S = np.meshgrid(tv, sv, indexing="ij")
    fd_t = (s.evaluate(T + eps, S) - s.evaluate(T - eps, S)) / (2 * eps)
    fd_s = (s.evaluate(T, S + eps) - s.evaluate(T, S - eps)) / (2 * eps)
    assert np.max(np.abs(dt - fd_t)) < 1e-5
    assert np.max(np.abs(ds - fd_s)) < 1e-5


def test_twist_spin_rejects_negative_k(twist_setup, monkeypatch):
    # a twist count that is not a nonnegative integer is refused before the
    # height pre-check evaluates a point
    arc, axis, bump = twist_setup
    points = []

    def counting(coords, t, th, deriv=""):
        points.append(np.broadcast(t, th).size)
        return _eval_points(coords, t, th, deriv)

    monkeypatch.setattr(twist_module, "_eval_points", counting)
    for k in (-1, 2.0, 2.5, True):
        with pytest.raises(ValueError, match=f"twist count k .*got {k!r}"):
            twist_spin(arc, axis, bump, k)
    assert points == []


def test_twist_spin_accepts_a_numpy_integer_k(twist_setup):
    arc, axis, bump = twist_setup
    assert twist_spin(arc, axis, bump, np.int64(3)) == twist_spin(arc, axis, bump, 3)


def test_twist_spin_rejects_k_beyond_float_precision(twist_setup):
    arc, axis, bump = twist_setup
    with pytest.raises(ValueError, match=r"2\*\*53"):
        twist_spin(arc, axis, bump, 2 ** 53 + 1)


@pytest.mark.parametrize("d2", [10.0, math.inf])
def test_twist_spin_refuses_bump_reaching_the_arc_ends(twist_setup, d2):
    # the bump would not vanish at t = a, b (a^2 = b^2 = 6.47214), so the end
    # rows would spread instead of staying one pole point each
    arc, axis, _ = twist_setup
    with pytest.raises(NoRoom, match=f"d2={d2!r}.*6.47214"):
        twist_spin(arc, axis, Bump(1.0, d2), 2)


def test_twist_spin_plane_crossing_detected():
    # the short trefoil's height (max 7) is lower than the chord height needed,
    # so rotating the knotted part dips below the boundary plane
    arc = get_knot("trefoil_spun")
    axis = make_axis(arc, -2.1, 2.1)
    bump = choose_bump(arc, axis)
    with pytest.raises(PlaneCrossing) as exc:
        twist_spin(arc, axis, bump, 1)
    assert exc.value.value <= 0.0


def test_twist_spin_refuses_a_dip_between_sampled_angles():
    # with the axis at +-1.9674196 the short trefoil's rotated knotted part
    # just reaches below the boundary plane: by 2.5e-6 at the least, while its
    # least height on a grid of 2000 t samples and 360 angles is +9.9e-6
    arc = get_knot("trefoil_spun")
    axis = make_axis(arc, -1.9674196, 1.9674196)
    bump = choose_bump(arc, axis)
    ts = arc.ab.sample(PRECHECK_NT + 2)[1:-1]
    phis = np.linspace(0.0, TWO_PI, 360, endpoint=False)
    assert twisted_arc(arc, axis, bump, phis)(ts[:, None])[..., 2].min() > 0.0
    with pytest.raises(PlaneCrossing) as exc:
        twist_spin(arc, axis, bump, 1)
    assert -1e-5 < exc.value.value <= 0.0
    assert_exact_plane_crossing(arc, axis, bump, 1, exc.value)


def test_twist_spin_zero_twists_checks_the_fixed_arc_only():
    # figure8_spun's knotted part dips below the boundary plane when rotated
    # about the chord at t = +-1, but with k = 0 it is not rotated at all
    arc = get_knot("figure8_spun")
    axis = make_axis(arc, -1.0, 1.0)
    bump = choose_bump(arc, axis)
    assert max_grid_deviation(twist_spin(arc, axis, bump, 0), spin(arc)) < 1e-10
    assert twist_spin(arc, axis, bump, 0) == spin(arc)
    with pytest.raises(PlaneCrossing):
        twist_spin(arc, axis, bump, 1)


def test_twist_height_precheck_evaluates_one_point_per_t_sample(twist_setup, monkeypatch):
    # the least height over the rotation angle is in closed form, so the
    # check evaluates the height's parts once per t sample, not on a grid
    arc, axis, bump = twist_setup
    points = []

    def counting(coords, t, th, deriv=""):
        points.append(np.broadcast(t, th).size)
        return _eval_points(coords, t, th, deriv)

    monkeypatch.setattr(twist_module, "_eval_points", counting)
    for k in (0, 1, 10):
        points.clear()
        twist_spin(arc, axis, bump, k)
        assert 0 < sum(points) <= 4 * PRECHECK_NT


def test_twist_spin_json_roundtrip(twist_setup):
    arc, axis, bump = twist_setup
    s = twist_spin(arc, axis, bump, 2)
    s2 = Surface4.from_json(s.to_json())
    assert max_grid_deviation(s, s2, 60, 60) == 0.0


def test_polynomialize_twist_trig_only(twist_setup):
    arc, axis, bump = twist_setup
    s = twist_spin(arc, axis, bump, 1)
    poly, dev = polynomialize_twist(s, 16)
    assert dev < 0.5
    assert dev == pytest.approx(max_grid_deviation(s, poly), rel=1e-9)
    better, dev2 = polynomialize_twist(s, 24)
    assert dev2 < dev


def test_polynomialize_spin_surface_matches_reference():
    # on a plain spun surface the swap reproduces polynomial_spin exactly
    from spun4d.spin import polynomial_spin

    arc = get_knot("trefoil_spun")
    s = spin(arc)
    poly, dev = polynomialize_twist(s, 8)
    ref = polynomial_spin(arc, 8)
    assert max_grid_deviation(poly, ref, 60, 60) < 1e-9
    assert dev <= 7.0 * 0.02  # max|h| = 7 on the trefoil arc
