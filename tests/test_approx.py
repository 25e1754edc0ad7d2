import json
import math
import os
import re
import struct
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spun4d.approx import (
    ChebFit, PerturbationSpec, _carry, _limb_matmul, _limb_width, _power_bits, _power_limbs, _round_limbs,
    _sample_limbs, bernstein_fit2, bernstein_lattice, chebyshev_fit, odd_perturbation,
)
from spun4d.catalog import get_knot
from spun4d.errors import GridMismatch, NonFiniteSample, Spun4dError, ZeroGap
from spun4d.poly import Interval, Poly1, Poly2
from spun4d.spin import polynomial_spin, spin

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


def _spun_trefoil_samples(degree):
    """The spun trefoil's samples on the degree-``degree`` Bernstein lattice."""
    s = spin(get_knot("trefoil_spun"))
    u = bernstein_lattice(degree)
    return s.eval_grid(s.t_dom.mid + 0.5 * s.t_dom.length * u, s.s_dom.mid + 0.5 * s.s_dom.length * u)


def test_bernstein_fit_spends_only_its_own_buffers():
    samples = _spun_trefoil_samples(24)
    before = samples.copy()
    first, second = bernstein_fit2(samples, 24), bernstein_fit2(samples, 24)
    assert samples.tobytes() == before.tobytes()
    assert first == second  # Poly2 equality compares the coefficients' bits
    assert not any(np.shares_memory(p.coeffs, q.coeffs) for p, q in zip(first, second))
    # the basis change's limbs are kept for the next fit at that degree, read-only
    t = _power_limbs(24, _limb_width(24))
    assert t is _power_limbs(24, _limb_width(24)) and not t.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        t[0, 0, 0] = 1.0


def test_bernstein_fit_peak_memory_at_100():
    # with T built inside the call: the rounding works in the product's own
    # buffer and the first product's int64 buffer is freed before the second
    # product's is taken.  The peak is 15.1 MB; it was 27.9 MB
    samples = _spun_trefoil_samples(100)
    _power_limbs.cache_clear()
    tracemalloc.start()
    try:
        bernstein_fit2(samples, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18e6


@pytest.mark.parametrize("n", [1, 2, 5, 16, 30, 31, 32, 48, 65])
def test_power_limbs_match_the_definition(n):
    limbs = _power_limbs(n, 16)
    assert np.all((limbs[:-1] >= 0) & (limbs[:-1] < 2 ** 16))
    assert np.all((limbs[-1] >= -2 ** 15) & (limbs[-1] < 2 ** 15))
    got = sum(limbs[a].astype(np.int64).astype(object) * 2 ** (16 * a) for a in range(len(limbs)))
    for k in range(n + 1):
        # the coefficient of t^m in comb(n, k) (1 + t)^k (1 - t)^(n - k)
        want = [math.comb(n, k) * sum(math.comb(k, j) * math.comb(n - k, m - j) * (-1) ** (m - j)
                                      for j in range(max(0, m - n + k), min(k, m) + 1))
                for m in range(n + 1)]
        assert got[:, k].tolist() == want


def _limbs_of(values, width=16):
    """Python ints in two's complement limbs of ``width`` bits, least
    significant first on axis 0: every limb but the top one in
    [0, 2^width), the top one signed."""
    n_limbs = max(v.bit_length() for v in values) // width + 1
    mask = (1 << width) - 1
    return np.array([[v >> (width * i) if i == n_limbs - 1 else (v >> (width * i)) & mask for v in values]
                     for i in range(n_limbs)], dtype=np.int64)


def _value_of(limbs, width):
    """The Python ints that limbs of ``width`` bits give along axis 0."""
    return sum(np.asarray(limbs[a]).astype(np.int64).astype(object) << (width * a) for a in range(len(limbs)))


def _python_float(n, e):
    """n 2^e as Python rounds it: correctly, ties to even; inf beyond range."""
    try:
        return n / 2 ** -e if e < 0 else float(n << e)
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def _ties(m, j, e, sign):
    """(2m + 1) 2^e, halfway between two doubles when 2m + 1 has 54 bits and
    the result is normal, written as an integer with j more trailing zeros."""
    return sign * ((2 * m + 1) << j), e - j


_ROUNDING_CASES = st.one_of(
    st.tuples(st.integers(-2 ** 1200, 2 ** 1200), st.integers(-2400, 1100)),
    st.builds(_ties, st.integers(2 ** 52, 2 ** 53 - 1), st.integers(0, 300), st.integers(-1080, 975),
              st.sampled_from([1, -1])),
    # halfway between two subnormals, and 2m + 1 of any size at the subnormal end
    st.builds(_ties, st.integers(0, 2 ** 60), st.integers(0, 300), st.just(-1075), st.sampled_from([1, -1])),
    # one unit off a tie, normal or subnormal: the sticky bit decides
    st.builds(lambda t, d: (t[0] + d, t[1]),
              st.builds(_ties, st.integers(2 ** 52, 2 ** 53 - 1), st.integers(1, 300),
                        st.integers(-1140, 975), st.sampled_from([1, -1])) |
              st.builds(_ties, st.integers(0, 2 ** 52), st.integers(1, 300), st.just(-1075),
                        st.sampled_from([1, -1])),
              st.sampled_from([1, -1])),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_ROUNDING_CASES, min_size=1, max_size=30))
def test_round_limbs_rounds_as_python_does(cases):
    got = _round_limbs(_limbs_of([n for n, _ in cases]), np.array([e for _, e in cases]), 16)
    for (n, e), x in zip(cases, got.tolist()):
        assert struct.pack("<d", x) == struct.pack("<d", _python_float(n, e)), (n, e)


@pytest.mark.parametrize("n, e, want", [
    ((1 << 53) | 1, 0, 2.0 ** 53),  # a tie rounds to the even neighbour, down
    ((1 << 53) | 3, 0, 2.0 ** 53 + 4),  # and up
    (((1 << 53) | 1) << 80 | 1, -80, 2.0 ** 53 + 2),  # a bit below the window breaks the tie
    (-1, -1075, -0.0),  # half the least subnormal, to even: zero, with its sign
    (3, -1075, 1e-323),  # 1.5 least subnormals, to even: 2
    (1, -1076, 0.0),
    ((1 << 52) - 1, -1074, 2.225073858507201e-308),  # the greatest subnormal
    (((1 << 53) - 1) << 971, 0, 1.7976931348623157e308),  # the greatest double
    (((1 << 54) - 1) << 970, 0, math.inf),  # a tie that rounds to 2^1024
    ((((1 << 54) - 1) << 970) - 1, 0, 1.7976931348623157e308),
    (0, -5000, 0.0),
], ids=["tie_down", "tie_up", "sticky", "negative_zero", "subnormal_tie", "below_half", "subnormal",
        "greatest", "overflowing_tie", "below_overflowing_tie", "zero"])
def test_round_limbs_ties_subnormals_and_overflow(n, e, want):
    assert _python_float(n, e) == want
    got = _round_limbs(_limbs_of([n]), np.array([e]), 16)[0]
    assert struct.pack("<d", got) == struct.pack("<d", want)


def test_limb_products_refuse_sums_beyond_exact_float64():
    # 2^20 terms for each of 2 limb pairs: a partial sum could reach 2^53
    t = np.zeros((2, 1, 1 << 20))
    with pytest.raises(Spun4dError, match="beyond float64's exact sums"):
        _limb_matmul(t, t, 16)


def _bound_holds(n, bits, b):
    """(n + 1) L_T 2^(2b) < 2^53, L_T = ceil(bits / b) being T's limb count
    at width b."""
    return (n + 1) * -(-bits // b) * 4 ** b < 2 ** 53


def test_limb_width_is_the_widest_that_keeps_sums_exact():
    for n in range(1, 4101):
        b, bits = _limb_width(n), _power_bits(n)
        assert 16 <= b <= 25
        assert _bound_holds(n, bits, b) and not _bound_holds(n, bits, b + 1), n
    assert [_limb_width(n) for n in (6, 7, 16, 18, 19, 20, 41, 42, 84, 85, 100, 200, 2437, 2438, 4100)] == [
        25, 24, 24, 24, 23, 23, 23, 22, 22, 21, 21, 20, 17, 16, 16]
    # from degree 4733 no width keeps the bound: the width stays at 16
    assert not _bound_holds(4733, _power_bits(4733), 16) and _limb_width(4733) == 16


def _largest_power_entry(n):
    """max |T[m, k]| over the degree-n T, in Python integers: each column
    (1 + t)^k (1 - t)^(n - k) is the last one times (1 + t) / (1 - t)."""
    col, best = [math.comb(n, j) * (-1) ** j for j in range(n + 1)], 0
    for k in range(n + 1):
        best = max(best, math.comb(n, k) * max(map(abs, col)))
        col = list(accumulate(a + b for a, b in zip(col, [0] + col)))
    return best


def test_power_bits_hold_the_largest_entry_of_t():
    for n in range(1, 121):
        assert _power_bits(n) == _largest_power_entry(n).bit_length() + 1, n


@pytest.mark.parametrize("n", [1, 2, 7, 16, 19, 30, 41, 42, 65])
@pytest.mark.parametrize("b", range(16, 26))
def test_power_limbs_at_every_width(n, b):
    limbs = _power_limbs(n, b)
    assert len(limbs) == -(-_power_bits(n) // b)
    assert np.all((limbs[:-1] >= 0) & (limbs[:-1] < 2 ** b))
    assert np.all((limbs[-1] >= -2 ** (b - 1)) & (limbs[-1] < 2 ** (b - 1)))
    assert (_value_of(limbs, b) == _value_of(_power_limbs(n, 16), 16)).all()


@pytest.mark.parametrize("b", range(16, 26))
def test_sample_limbs_and_products_are_exact_at_every_width(b):
    rng = np.random.default_rng(b)
    x = rng.normal(size=(7, 7, 4)) * [1.0, 1e-300, 1e300, 1.0]
    x[rng.random(x.shape) < 0.2] = 0.0
    x[0, 0, 3], x[1, 0, 3] = -5e-324, 1.7e308
    w, e = _sample_limbs(x, b)
    assert np.all(np.abs(w) < 2 ** b)
    got = _value_of(w, b)  # W[c, j, i]
    for (i, j, c), v in np.ndenumerate(x):
        assert Fraction(float(v)) == Fraction(got[c, j, i]) * Fraction(2) ** int(e[c])
    t = _power_limbs(6, b)
    y = _limb_matmul(t, w, b)
    assert np.all((y[:-1] >= 0) & (y[:-1] < 2 ** b))
    assert np.all((y[-1] >= -2 ** (b - 1)) & (y[-1] < 2 ** (b - 1)))
    assert (_value_of(y, b) == got @ _value_of(t, b).T).all()


@pytest.mark.parametrize("b", range(17, 26))
def test_limb_products_refuse_sums_beyond_exact_float64_at_every_width(b):
    # 2 limb pairs of 2^(52 - 2b) terms: a partial sum could reach 2^53
    t = np.zeros((2, 1, 1 << (52 - 2 * b)))
    with pytest.raises(Spun4dError, match="beyond float64's exact sums"):
        _limb_matmul(t, t, b)


def _signed_limb_count(values, width):
    """The fewest limbs of ``width`` bits whose top one, signed, holds each value."""
    n_limbs = 1
    while not all(-(1 << (width * n_limbs - 1)) <= v < 1 << (width * n_limbs - 1) for v in values):
        n_limbs += 1
    return n_limbs


@settings(max_examples=150, deadline=None)
@given(st.integers(17, 25), st.lists(_ROUNDING_CASES, min_size=1, max_size=30), st.integers(0, 2 ** 32 - 1))
def test_carry_and_round_limbs_at_other_widths(b, cases, seed):
    values = [n for n, _ in cases]
    # limb sums that need carrying: each pair of neighbours trades c 2^b, and
    # two limbs of zeros go on top
    z = np.concatenate((_limbs_of(values, b), np.zeros((2, len(values)), np.int64)))
    rng = np.random.default_rng(seed)
    for i in range(len(z) - 1):
        c = rng.integers(-2 ** 20, 2 ** 20, len(values))
        z[i] += c << b
        z[i + 1] -= c
    z = _carry(z, b)
    assert np.all((z[:-1] >= 0) & (z[:-1] < 2 ** b))
    assert len(z) == _signed_limb_count(values, b)
    assert _value_of(z, b).tolist() == values
    got = _round_limbs(z, np.array([e for _, e in cases]), b)
    for (n, e), x in zip(cases, got.tolist()):
        assert struct.pack("<d", x) == struct.pack("<d", _python_float(n, e)), (b, n, e)


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


@pytest.mark.parametrize("N, epsilon, words", [
    (2.5, 1.0, "N must be an integer, got 2.5"),
    (0, 1.0, "N must be at least 1, got 0"),
    (True, 1.0, "N must be an integer, got True"),
    (2, math.nan, "epsilon: expected a finite number, got nan"),
])
def test_perturbation_spec_refuses_a_bad_N_or_epsilon(N, epsilon, words):
    with pytest.raises(ValueError, match=re.escape(words)):
        PerturbationSpec(N, epsilon)


def test_perturbation_spec_takes_a_zero_or_integer_epsilon():
    assert PerturbationSpec(np.int64(2), 0) == PerturbationSpec(2, 0.0)
    assert type(PerturbationSpec(2, 1).epsilon) is float


@pytest.mark.parametrize("N, pair", [
    (1000, ((2.0, 1.0), (0.5, 2.0))),  # 2^2001
    (2, ((1e200, 0.0), (0.5, 0.5))),  # (1e200)^5, where z and w would overflow first
])
def test_odd_perturbation_refuses_a_pair_whose_power_overflows(N, pair):
    (t1, s1), (t2, s2) = pair
    words = f"pair ({t1}, {s1}) / ({t2}, {s2}): with N = {N}, a parameter to the power 2N + 1 = {2 * N + 1}"
    with pytest.raises(ValueError, match=re.escape(words)):
        odd_perturbation(polynomial_spin(get_knot("trefoil_spun"), 8).polys, N, [pair])


def test_perturbation_is_odd_symmetric():
    m = _diag_map()
    spec, pert = odd_perturbation(m, 3, [])
    t = np.linspace(-1, 1, 11)
    zero = np.zeros_like(t)
    assert np.allclose(pert[2](t, zero), -pert[2](-t, zero))
    assert np.allclose(pert[3](zero, t), -pert[3](zero, -t))


def test_chebyshev_fit_refuses_a_function_not_finite_at_its_error_samples():
    # finite at every Chebyshev node, NaN only near the right end, where the
    # error samples reach
    with pytest.raises(NonFiniteSample, match="non-finite values on the interval$"):
        chebyshev_fit(lambda t: np.where(t > 0.999, np.nan, 1.0), Interval(-1.0, 1.0), 4)
