import json
import math

import numpy as np
import pytest

from spun4d.catalog import get_knot
from spun4d.poly import Poly1
from spun4d.spin import polynomial_spin, spin
from spun4d.surface import PolyMap4, Surface4, max_grid_deviation, surface_from_json
from spun4d.verify import verify_surface
from test_reference_impls import _bernstein_20

TWO_PI = 2.0 * math.pi


def test_spin_formula_pointwise():
    arc = get_knot("trefoil_spun")
    s = spin(arc)
    t, th = 0.7, 1.1
    x, y, z, w = s.evaluate(t, th)
    assert x == pytest.approx(float(arc.f(t)))
    assert y == pytest.approx(float(arc.g(t)))
    assert z == pytest.approx(float(arc.h(t)) * math.cos(th))
    assert w == pytest.approx(float(arc.h(t)) * math.sin(th))


def test_spin_theta_zero_section_is_the_arc():
    arc = get_knot("trefoil_spun")
    s = spin(arc)
    t = np.linspace(arc.ab.lo, arc.ab.hi, 100)
    pts = s.evaluate(t, np.zeros_like(t))
    assert np.allclose(pts[:, 0], arc.f(t))
    assert np.allclose(pts[:, 1], arc.g(t))
    assert np.allclose(pts[:, 2], arc.h(t))
    assert np.allclose(pts[:, 3], 0.0, atol=1e-14)


def test_spin_poles_theta_independent():
    arc = get_knot("trefoil_spun")
    s = spin(arc)
    th = np.linspace(0, TWO_PI, 50)
    for end in (arc.ab.lo, arc.ab.hi):
        pts = s.evaluate(np.full_like(th, end), th)
        assert np.max(np.ptp(pts, axis=0)) < 1e-6


def test_spin_domain_flags():
    s = spin(get_knot("trefoil_spun"))
    assert isinstance(s, Surface4)
    assert s.periodic_s and s.pole_low and s.pole_high
    assert s.s_dom.lo == 0.0 and s.s_dom.hi == pytest.approx(TWO_PI)


def test_spin_jacobian_matches_finite_differences():
    arc = get_knot("trefoil_spun")
    s = spin(arc)
    t, th = 0.9, 2.3
    dt, ds = s.partials_grid([t], [th])
    eps = 1e-6
    fd_t = (s.evaluate(t + eps, th) - s.evaluate(t - eps, th)) / (2 * eps)
    fd_th = (s.evaluate(t, th + eps) - s.evaluate(t, th - eps)) / (2 * eps)
    assert np.allclose(dt[0, 0], fd_t, atol=1e-6)
    assert np.allclose(ds[0, 0], fd_th, atol=1e-6)


def test_polynomial_spin_deviation_bound():
    arc = get_knot("trefoil_spun")
    exact = spin(arc)
    poly = polynomial_spin(arc, 8)
    t = np.linspace(arc.ab.lo, arc.ab.hi, 400)
    hmax = float(np.max(np.abs(arc.h(t))))
    dev = max_grid_deviation(exact, poly)
    assert dev <= hmax * 0.02
    # first two coordinates are reproduced exactly
    tv = exact.t_dom.sample(50)
    sv = exact.s_dom.sample(50)
    pe = exact.eval_grid(tv, sv)
    pp = poly.eval_grid(tv, sv)
    assert np.max(np.abs(pe[..., :2] - pp[..., :2])) < 1e-10


def test_polynomial_spin_improves_with_degree():
    arc = get_knot("trefoil_spun")
    exact = spin(arc)
    d8 = max_grid_deviation(exact, polynomial_spin(arc, 8))
    d12 = max_grid_deviation(exact, polynomial_spin(arc, 12))
    assert d12 < d8


def test_polynomial_spin_rejects_low_degree():
    with pytest.raises(ValueError):
        polynomial_spin(get_knot("trefoil_spun"), 4)


def test_spin_surface_json_roundtrip():
    s = spin(get_knot("trefoil_spun"))
    s2 = Surface4.from_json(s.to_json())
    assert max_grid_deviation(s, s2, 40, 40) == 0.0


@pytest.mark.parametrize("name", ["polynomial_spin_8", "bernstein_20"])
def test_polymap4_json_roundtrip(name):
    # through the text of a file: the loaded map samples bit for bit as the
    # one written, and verifies the same
    p = polynomial_spin(get_knot("trefoil_spun"), 8) if name == "polynomial_spin_8" else _bernstein_20()
    q = surface_from_json(json.loads(json.dumps(p.to_json())))
    assert type(q) is PolyMap4 and q.to_json() == p.to_json()
    tv, sv = p.t_dom.sample(37), p.s_dom.sample(29)
    assert q.eval_grid(tv, sv).tobytes() == p.eval_grid(tv, sv).tobytes()
    for got, want in zip(q.partials_grid(tv, sv), p.partials_grid(tv, sv)):
        assert got.tobytes() == want.tobytes()
    assert verify_surface(q, None, 32, 48).to_json() == verify_surface(p, None, 32, 48).to_json()


def test_polynomial_spins_of_one_arc_and_degree_are_equal():
    arc = get_knot("trefoil_spun")
    p, q = polynomial_spin(arc, 8), polynomial_spin(arc, 8)
    assert p == q and hash(p) == hash(q)
    assert p != polynomial_spin(arc, 10)


def test_surface_file_power_of_a_sum_loads_collected():
    # (1 + t)^25 multiplied out in full would be 2^25 terms; collected after
    # each factor it is the 26 powers of t
    one_plus_t = {"tag": "sum", "terms": [{"tag": "const", "value": 1.0},
                                          {"tag": "poly_t", "coeffs": [0.0, 1.0]}]}
    zero = {"tag": "const", "value": 0.0}
    s = Surface4.from_json({"type": "surface4", "t_dom": [-1.0, 1.0], "s_dom": [0.0, 1.0],
                            "coords": [{"tag": "product", "factors": [one_plus_t] * 25}] + [zero] * 3})
    terms = s.coords[0]
    assert len(terms) == 26
    assert sorted(len(tf) for _, tf, _ in terms) == list(range(26))
    assert all(sf == () and set(tf) <= {Poly1((0.0, 1.0))} for _, tf, sf in terms)
    assert sorted(c for c, _, _ in terms) == sorted(float(math.comb(25, i)) for i in range(26))
