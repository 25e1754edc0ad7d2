import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spun4d.approx import (
    ChebFit, PerturbationSpec, _bernstein_to_power, bernstein_fit2, bernstein_lattice,
    chebyshev_fit, odd_perturbation,
)
from spun4d.errors import GridMismatch, NonFiniteSample, Spun4dError, ZeroGap
from spun4d.poly import Interval, Poly1, Poly2

TWO_PI = 2.0 * math.pi

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "spun4d", "data")


def test_chebyshev_recovers_polynomials_exactly():
    p = Poly1((1.0, -2.0, 0.0, 3.0))
    fit = chebyshev_fit(lambda t: p(t), Interval(-2, 2), 5)
    assert fit.max_error < 1e-12
    c = np.zeros(6)
    c[: len(fit.poly.coeffs)] = fit.poly.coeffs
    assert np.allclose(c[:4], (1.0, -2.0, 0.0, 3.0), atol=1e-12)
    assert np.all(np.abs(c[4:]) < 1e-12)


def test_chebyshev_cos_sin_degree8():
    dom = Interval(0.0, TWO_PI)
    c = chebyshev_fit(np.cos, dom, 8)
    s = chebyshev_fit(np.sin, dom, 8)
    assert c.max_error <= 0.01
    assert s.max_error <= 0.01
    # reported error agrees with an independent dense scan
    t = np.linspace(0, TWO_PI, 20011)
    assert np.max(np.abs(c.poly(t) - np.cos(t))) <= c.max_error + 1e-6


def test_chebyshev_error_decreases_with_degree():
    dom = Interval(0.0, TWO_PI)
    errs = [chebyshev_fit(np.sin, dom, d).max_error for d in (6, 8, 10, 12)]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_chebyshev_reference_coefficients():
    """Frozen degree-8 coefficient fixture for the cos/sin interpolants on
    [0, 2*pi]; guards the node placement and basis conversion."""
    with open(os.path.join(DATA, "cheb_paper.json")) as fh:
        doc = json.load(fh)
    dom = Interval(*doc["interval"])
    t = np.linspace(dom.lo, dom.hi, 4001)
    for name, fn in (("cos", np.cos), ("sin", np.sin)):
        coeffs = doc[name]["coeffs"]
        ref = Poly1(tuple(coeffs))
        fit = chebyshev_fit(fn, dom, len(coeffs) - 1)
        assert np.max(np.abs(fit.poly(t) - ref(t))) <= 0.05


def test_chebyshev_rejects_bad_input():
    with pytest.raises(ValueError):
        chebyshev_fit(np.cos, Interval(0, 1), 0)
    # the middle node is t = 0.5, where the function divides by zero
    with pytest.raises(NonFiniteSample), np.errstate(divide="ignore"):
        chebyshev_fit(lambda t: 1.0 / (np.asarray(t) - 0.5), Interval(0, 1), 8)


def test_chebyshev_fit_builds_no_numpy_polynomial_objects(monkeypatch):
    # the change to powers of t runs on plain arrays, not numpy.polynomial's
    # object arithmetic, which cost most of a fit's time
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.polynomial object arithmetic in chebyshev_fit")

    monkeypatch.setattr(np.polynomial, "Polynomial", refuse)
    monkeypatch.setattr(np.polynomial.polynomial, "Polynomial", refuse)
    monkeypatch.setattr(np.polynomial.chebyshev, "cheb2poly", refuse)
    for degree in (1, 2, 8, 60):
        assert chebyshev_fit(np.cos, Interval(0.0, 2.0 * np.pi), degree).poly.degree <= degree
    assert chebyshev_fit(np.cos, Interval(0.0, 2.0 * np.pi), 24).max_error < 1e-12


def _lattice_samples(fns, degree):
    u = bernstein_lattice(degree)
    U, V = np.meshgrid(u, u, indexing="ij")
    return np.stack([fn(U, V) for fn in fns], axis=-1)


def test_bernstein_exact_on_affine():
    fns = [
        lambda u, v: np.full_like(u, 3.5),
        lambda u, v: u,
        lambda u, v: v,
        lambda u, v: 1.0 - 2.0 * u + 0.5 * v,
    ]
    polys = bernstein_fit2(_lattice_samples(fns, 6), 6)
    t = np.linspace(-1, 1, 40)
    T, S = np.meshgrid(t, t, indexing="ij")
    for p, fn in zip(polys, fns):
        assert np.max(np.abs(p(T, S) - fn(T, S))) < 1e-10


def test_bernstein_converges_on_smooth_map():
    fns = [
        lambda u, v: np.cos(2 * u),
        lambda u, v: np.sin(2 * v),
        lambda u, v: u * v,
        lambda u, v: u ** 3,
    ]
    t = np.linspace(-1, 1, 60)
    T, S = np.meshgrid(t, t, indexing="ij")
    errs = []
    for d in (10, 20, 40):
        polys = bernstein_fit2(_lattice_samples(fns, d), d)
        errs.append(max(np.max(np.abs(p(T, S) - fn(T, S))) for p, fn in zip(polys, fns)))
    assert errs[0] > errs[1] > errs[2]


def test_bernstein_shape_check():
    with pytest.raises(GridMismatch):
        bernstein_fit2(np.zeros((4, 5, 4)), 4)


@pytest.mark.parametrize("degree", [0, -1])
def test_bernstein_rejects_degree_below_one(degree):
    with pytest.raises(ValueError, match=f"degree must be at least 1, got {degree}"):
        bernstein_lattice(degree)
    with pytest.raises(ValueError, match=f"degree must be at least 1, got {degree}"):
        bernstein_fit2(np.zeros((1, 1, 4)), degree)


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


def test_bernstein_refuses_non_finite_samples():
    samples = np.zeros((5, 5, 4))
    samples[2, 3, 1] = np.inf
    with pytest.raises(NonFiniteSample):
        bernstein_fit2(samples, 4)


def test_bernstein_refuses_a_coefficient_beyond_double_range():
    # 1.7e308 on the middle t-row: the t^4 coefficient is 70 * 6 / 256 times that
    samples = np.zeros((9, 9, 4))
    samples[4, :, 2] = 1.7e308
    with pytest.raises(Spun4dError, match="coordinate z of the degree-8 Bernstein fit"):
        bernstein_fit2(samples, 8)


def test_bernstein_lattice_endpoints():
    u = bernstein_lattice(8)
    assert u[0] == -1.0 and u[-1] == 1.0 and len(u) == 9
    assert np.allclose(np.diff(u), 0.25)


def _diag_map():
    # (t, s, t, s): z-gap tracks t, w-gap tracks s
    return (
        Poly2.from_t(Poly1((0.0, 1.0))),
        Poly2.from_s(Poly1((0.0, 1.0))),
        Poly2.from_t(Poly1((0.0, 1.0))),
        Poly2.from_s(Poly1((0.0, 1.0))),
    )


def test_odd_perturbation_bound_and_application():
    m = _diag_map()
    pairs = [((0.5, 0.0), (-0.5, 0.0))]  # z-gap 1, t-denominator 2*(0.5)^5
    spec, pert = odd_perturbation(m, 2, pairs)
    assert spec.N == 2 and spec.epsilon > 0
    # bound = gap / |t1^5 - t2^5| = 1 / 0.0625 = 16, eps = half of that
    assert math.isclose(spec.epsilon, 8.0, rel_tol=1e-12)
    t, s = 0.3, -0.7
    z = pert[2](t, s)
    assert math.isclose(z, t + spec.epsilon * t ** 5, rel_tol=1e-12)
    w = pert[3](t, s)
    assert math.isclose(w, s + spec.epsilon * s ** 5, rel_tol=1e-12)


def test_odd_perturbation_defaults_to_one_without_constraints():
    m = _diag_map()
    # both coordinates separate with zero denominator: allowance infinite
    spec, _ = odd_perturbation(m, 1, [((0.5, 0.5), (0.6, 0.5))])
    # t-route: gap 0.1, denom |0.5^3 - 0.6^3| finite -> finite bound
    assert spec.epsilon == pytest.approx(0.5 * 0.1 / abs(0.5 ** 3 - 0.6 ** 3))
    spec2, _ = odd_perturbation(m, 1, [])
    assert spec2.epsilon == 1.0


def test_odd_perturbation_zero_gap():
    m = _diag_map()
    with pytest.raises(ZeroGap):
        odd_perturbation(m, 2, [((0.5, 0.5), (0.5, 0.5))])
    with pytest.raises(ValueError):
        odd_perturbation(m, 0, [])


def test_perturbation_is_odd_symmetric():
    m = _diag_map()
    spec, pert = odd_perturbation(m, 3, [])
    t = np.linspace(-1, 1, 11)
    zero = np.zeros_like(t)
    assert np.allclose(pert[2](t, zero), -pert[2](-t, zero))
    assert np.allclose(pert[3](zero, t), -pert[3](zero, -t))
