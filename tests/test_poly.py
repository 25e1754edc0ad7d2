import math
import warnings

import numpy as np
import pytest

from spun4d.errors import DegenerateInput
from spun4d.poly import Interval, Poly1, Poly2, poly_scale, roots_in_interval


def test_interval_basics():
    iv = Interval(-2.0, 3.0)
    assert iv.length == 5.0
    assert iv.mid == 0.5
    assert iv.contains(3.0) and iv.contains(-2.0)
    assert not iv.contains(3.0001)
    assert iv.contains(3.0001, slack=1e-3)
    s = iv.sample(11)
    assert s[0] == -2.0 and s[-1] == 3.0 and len(s) == 11


def test_interval_mid_of_ends_whose_sum_overflows():
    # lo + hi overflows, but the length and the midpoint are finite
    iv = Interval(8e307, 1.7e308)
    assert math.isfinite(iv.length)
    assert iv.mid == 1.25e308
    assert Interval(-1.7e308, 1.7e308).mid == 0.0


def test_interval_reversed_raises():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_poly1_eval_horner_matches_numpy():
    rng = np.random.default_rng(0)
    c = rng.normal(size=7)
    p = Poly1(tuple(c))
    t = rng.normal(size=50) * 3
    assert np.allclose(p(t), np.polynomial.polynomial.polyval(t, c))


def test_poly1_trim_and_degree():
    p = Poly1((1.0, 2.0, 0.0, 0.0))
    assert p.degree == 1
    assert Poly1(()).is_zero
    assert Poly1((0.0, 0.0)).is_zero


def test_poly1_arithmetic():
    p = Poly1((1.0, 0.0, 1.0))     # 1 + t^2
    q = Poly1((0.0, 2.0))          # 2t
    assert (p + q).coeffs == (1.0, 2.0, 1.0)
    assert (p - q).coeffs == (1.0, -2.0, 1.0)
    assert (p * q).coeffs == (0.0, 2.0, 0.0, 2.0)
    assert (-q).coeffs == (0.0, -2.0)
    assert (p * 3.0).coeffs == (3.0, 0.0, 3.0)


def test_poly1_derivative():
    p = Poly1((2.0, -1.0, 0.5, 4.0))
    assert p.derivative().coeffs == (-1.0, 1.0, 12.0)
    assert p.derivative(2).coeffs == (1.0, 24.0)
    assert Poly1((5.0,)).derivative().is_zero


def test_poly1_json_roundtrip():
    p = Poly1((1.5, 0.0, -2.0))
    assert Poly1.from_json(p.to_json()) == p


def test_poly2_eval_and_partials():
    # q(t, s) = 1 + 2 t + 3 s + 4 t s + 5 t^2 s
    C = np.array([[1.0, 3.0], [2.0, 4.0], [0.0, 5.0]])
    q = Poly2(C)
    t, s = 0.7, -1.3
    expect = 1 + 2 * t + 3 * s + 4 * t * s + 5 * t * t * s
    assert math.isclose(q(t, s), expect, rel_tol=1e-14)
    dt = q.partial("t")
    ds = q.partial("s")
    assert math.isclose(dt(t, s), 2 + 4 * s + 10 * t * s, rel_tol=1e-13)
    assert math.isclose(ds(t, s), 3 + 4 * t + 5 * t * t, rel_tol=1e-13)


def test_poly2_product_matches_pointwise():
    rng = np.random.default_rng(1)
    a = Poly2(rng.normal(size=(3, 2)))
    b = Poly2(rng.normal(size=(2, 4)))
    t = rng.normal(size=20)
    s = rng.normal(size=20)
    assert np.allclose((a * b)(t, s), a(t, s) * b(t, s))


def test_poly2_equality_and_hash_are_on_shape_and_coefficient_bits():
    a, b = Poly2(np.ones((2, 2))), Poly2(np.ones((2, 2)))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    # trailing zero rows and columns are trimmed before the comparison
    assert Poly2(np.ones((2, 2))) == Poly2(np.pad(np.ones((2, 2)), ((0, 1), (0, 2))))
    assert Poly2(np.ones((2, 2))) != Poly2(np.ones((2, 1)))
    assert Poly2(np.ones((1, 2))) != Poly2(np.ones((2, 1)))
    assert Poly2(np.array([[1.0, 2.0]])) != Poly2(np.array([[1.0, np.nextafter(2.0, 3.0)]]))
    assert Poly2(np.array([[-0.0, 1.0]])) != Poly2(np.array([[0.0, 1.0]]))
    nan = Poly2(np.array([[np.nan, 1.0]]))
    assert nan == Poly2(np.array([[np.nan, 1.0]])) and hash(nan) == hash(Poly2(np.array([[np.nan, 1.0]])))
    assert Poly2() != Poly1((0.0,)) and Poly2() != 0.0


def _trimmed_row_by_row(grid):
    """The trim of a coefficient grid, one trailing zero row or column at a time."""
    a = np.atleast_2d(np.array(grid, dtype=float))
    while a.shape[0] > 1 and not a[-1].any():
        a = a[:-1]
    while a.shape[1] > 1 and not a[:, -1].any():
        a = a[:, :-1]
    return a


def test_poly2_trims_as_row_by_row_trimming_does():
    rng = np.random.default_rng(7)
    grids = [np.zeros((31, 31)), np.zeros((1, 1)), np.zeros(5), np.array(3.0), [[1.0, 0.0], [0.0, 0.0]],
             np.array([[0.0, -0.0], [np.nan, 0.0]]), rng.normal(size=(31, 31)).T,
             rng.normal(size=(31, 31))[::2, ::3]]
    for shape in [(31, 31), (6, 1), (1, 6), (4, 9)] * 4:
        g = rng.normal(size=shape)
        g[rng.integers(1, shape[0] + 1):] = 0.0
        g[:, rng.integers(1, shape[1] + 1):] = -0.0
        grids.append(g)
    grids += [rng.normal(size=(n, m)) * (rng.random((n, m)) < 0.3) for n, m in rng.integers(1, 8, (100, 2))]
    for g in grids:
        got, want = Poly2(g).coeffs, _trimmed_row_by_row(g)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), g
        assert got.flags.c_contiguous and not got.flags.writeable


def test_poly2_from_t_from_s():
    p = Poly1((1.0, 2.0, 3.0))
    t = np.linspace(-2, 2, 9)
    s = np.linspace(0, 5, 9)
    assert np.allclose(Poly2.from_t(p)(t, s), p(t))
    assert np.allclose(Poly2.from_s(p)(t, s), p(s))


def test_poly_scale_bounds_values():
    p = Poly1((3.0, 0.0, -1.0, 0.0, 2.0))
    iv = Interval(-2.5, 2.5)
    bound = poly_scale(p, iv)
    t = iv.sample(500)
    assert np.max(np.abs(p(t))) <= bound + 1e-12


def test_roots_in_interval_with_a_tiny_high_degree_term():
    # |p| <= 5 + 5e-90 on [-2, 2], so no sample of 1 - t^2 passes as an exact root
    p = Poly1((1.0, 0.0, -1.0) + (0.0,) * 697 + (-1e-300,))
    assert poly_scale(p, Interval(-2.0, 2.0)) == 5.0
    assert roots_in_interval(p, Interval(-2.0, 2.0)) == [-1.0, 1.0]


def test_roots_in_interval_against_numpy():
    # (t - 0.3)(t + 1.2)(t - 2.0) expanded, roots well separated
    r = np.array([0.3, -1.2, 2.0])
    c = np.polynomial.polynomial.polyfromroots(r)
    got = roots_in_interval(Poly1(tuple(c)), Interval(-3, 3))
    assert np.allclose(sorted(got), sorted(r), atol=1e-9)


def test_roots_in_interval_subset():
    r = np.array([-2.0, -0.5, 0.5, 2.0])
    c = np.polynomial.polynomial.polyfromroots(r)
    got = roots_in_interval(Poly1(tuple(c)), Interval(-1, 1))
    assert np.allclose(got, [-0.5, 0.5], atol=1e-9)


def test_roots_in_interval_even_touch():
    # (t - 1)^2 touches zero without sign change
    p = Poly1((1.0, -2.0, 1.0))
    got = roots_in_interval(p, Interval(0, 2))
    assert np.allclose(got, [1.0], atol=1e-6)


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan])
def test_roots_in_interval_refuses_a_tol_that_is_not_positive(tol):
    # with tol = nan no touch point passes |p| <= tol * scale, so the double
    # root of (t - 0.1234)^2 would be lost
    p = Poly1((0.1234 ** 2, -2 * 0.1234, 1.0))
    assert np.allclose(roots_in_interval(p, Interval(-1.0, 1.0)), [0.1234], atol=1e-6)
    with pytest.raises(ValueError, match="tol must be positive"):
        roots_in_interval(p, Interval(-1.0, 1.0), tol)


@pytest.mark.parametrize("roots, want", [
    ((1.0, 1.0), [1.0]),
    ((-1.0, -1.0, 1.0, 1.0), [-1.0, 1.0]),
    ((0.3, 0.3, -1.2), [-1.2, 0.3]),
], ids=["t_minus_1_squared", "t2_minus_1_squared", "double_0.3_simple_-1.2"])
def test_roots_in_interval_finds_touch_points_between_samples(roots, want):
    # no sample of the 256-cell grid on [-2, 2.1] lands on a double root, and
    # |p| at the nearest samples is far above the tolerance: the touch point is refined as a
    # root of p' bracketed where the slope of |p| turns
    p = Poly1(tuple(np.polynomial.polynomial.polyfromroots(roots)))
    got = roots_in_interval(p, Interval(-2.0, 2.1))
    assert len(got) == len(want)
    assert np.allclose(got, want, atol=1e-9)


@pytest.mark.parametrize("degree", [3, 4])
def test_roots_in_interval_at_a_triple_or_quadruple_root(degree):
    # Newton on t^3 (or on the derivative of t^4) converges linearly from one
    # side, so the bracket's other end stays a grid cell away from the root
    got = roots_in_interval(Poly1((0.0,) * degree + (1.0,)), Interval(-1.0, 1.01))
    assert len(got) == 1 and abs(got[0]) <= 1e-9


def test_roots_trefoil_heights_analytic():
    # -t^4 + 4 t^2 + 3 vanishes at t^2 = 2 + sqrt(7)
    h = Poly1((3.0, 0.0, 4.0, 0.0, -1.0))
    expect = math.sqrt(2.0 + math.sqrt(7.0))
    got = roots_in_interval(h, Interval(-5, 5))
    assert np.allclose(got, [-expect, expect], atol=1e-9)
    # -t^4 + 4 t^2 + 16 vanishes at t^2 = 2 + sqrt(20)
    h2 = Poly1((16.0, 0.0, 4.0, 0.0, -1.0))
    expect2 = math.sqrt(2.0 + math.sqrt(20.0))
    got2 = roots_in_interval(h2, Interval(-5, 5))
    assert np.allclose(got2, [-expect2, expect2], atol=1e-9)


def test_poly2_json_roundtrip():
    q = Poly2(np.array([[1.0, 3.0], [2.0, 4.0], [0.0, 5.0]]))
    again = Poly2.from_json(q.to_json())
    assert np.array_equal(again.coeffs, q.coeffs)
    assert Interval.from_json([-1, 2.5]) == Interval(-1.0, 2.5)


_NOT_FINITE = [math.nan, math.inf, -math.inf, True, "0", None]


@pytest.mark.parametrize("bad", _NOT_FINITE)
def test_json_readers_refuse_non_finite_numbers(bad):
    with pytest.raises(ValueError, match=r"key 'coeffs'\[1\]: expected a finite number"):
        Poly1.from_json({"coeffs": [1.0, bad]})
    with pytest.raises(ValueError, match=r"key 'coeffs'\[1\]\[0\]: expected a finite number"):
        Poly2.from_json({"coeffs": [[1.0], [bad]]})
    with pytest.raises(ValueError, match="expected a finite number"):
        Interval.from_json([bad, 1.0])


@pytest.mark.parametrize("doc", [None, [1.0], {}, {"coeffs": 1.0}, {"coeffs": "12"}, {"coeffs": None}])
def test_json_readers_refuse_a_malformed_polynomial(doc):
    for cls in (Poly1, Poly2):
        with pytest.raises(ValueError, match="'coeffs'"):
            cls.from_json(doc)


@pytest.mark.parametrize("rows", [[], [[]], [[1.0, 2.0], [3.0]], [[1.0], 2.0]])
def test_poly2_from_json_refuses_ragged_rows(rows):
    with pytest.raises(ValueError, match="key 'coeffs' must be a non-empty rectangular"):
        Poly2.from_json({"coeffs": rows})


@pytest.mark.parametrize("doc", [[2.0, 1.0], [1.0], [0.0, 1.0, 2.0], (0.0, 1.0), {"lo": 0.0}])
def test_interval_from_json_refuses_a_bad_pair(doc):
    with pytest.raises(ValueError, match=r"\[lo, hi\]|lo <= hi"):
        Interval.from_json(doc)


@pytest.mark.parametrize("coeffs", [
    (1e308, 0.0, -1e308),  # its derivative and its samples overflow
    (1.0, 0.0, -1.0) + (0.0,) * 697 + (-1e-300,),  # 3^700, its scale, overflows
])
def test_roots_in_interval_refuses_overflowing_values(coeffs):
    with warnings.catch_warnings(), pytest.raises(DegenerateInput, match="overflow double precision"):
        warnings.simplefilter("error")
        roots_in_interval(Poly1(coeffs), Interval(-3.0, 3.0))


def test_roots_of_the_zero_polynomial_are_refused():
    with pytest.raises(DegenerateInput, match="zero polynomial"):
        roots_in_interval(Poly1(()), Interval(-1.0, 1.0))
