"""Function approximation: Chebyshev interpolants on an interval, bivariate
Bernstein fits of sampled maps, and the odd-degree injectivity perturbation.

A Bernstein fit changes basis exactly.  The samples and the integer
basis-change matrix are split into limbs of b bits, and their products run as
float64 matrix products in which every partial sum is an integer below 2^53,
so BLAS computes them exactly in any order.  A degree-n fit takes the widest
b up to 25 with (n + 1) L_T 2^(2b) < 2^53, L_T being the matrix's limb count
at that width: 23 bits at degrees 19-41, 21 at 100, 16 from 2438.  Carries
are propagated in int64, and each coefficient is rounded once, to the nearest
double, ties to even.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial import chebyshev as ncheb

from .errors import GridMismatch, NonFiniteSample, Spun4dError, ZeroGap
from .poly import Interval, Poly1, Poly2, _count, _finite

__all__ = ["ChebFit", "chebyshev_fit", "bernstein_fit2", "PerturbationSpec", "odd_perturbation"]

_ERROR_SAMPLES = 1000


class ChebFit(NamedTuple):
    poly: Poly1
    max_error: float


def _trim(c: np.ndarray) -> np.ndarray:
    """Drop trailing zeros but keep one entry, as numpy.polynomial trims."""
    if c[-1] != 0:
        return c
    nonzero = np.flatnonzero(c)
    return c[:nonzero[-1] + 1] if len(nonzero) else c[:1]


def _cheb_to_power(cheb: np.ndarray, mid: float, half: float) -> np.ndarray:
    """Power coefficients in t of the Chebyshev series ``cheb`` in
    x = (t - mid) / half.

    The arithmetic is numpy's, operation for operation, on plain arrays:
    ``cheb2poly``'s recurrence and then ``Polynomial(mono)(Polynomial([-mid /
    half, 1 / half]))``, a Horner loop of ``np.convolve`` products.  So the
    coefficients are bitwise those of that numpy.polynomial code, lengths and
    signed zeros included, without its object overhead.
    """
    # cheb2poly: of its trims only the input's can act, since each later
    # leading coefficient is 2^j times the input's nonzero one
    c = _trim(np.array(cheb, float))
    if len(c) >= 3:
        c0, c1 = c[-2:-1], c[-1:]
        for i in range(len(c) - 1, 1, -1):
            x1 = _mulx(c1) * 2
            x1[:len(c0)] += c0
            c0 = -c1
            c0[0] += c[i - 2]
            c1 = x1
        c = _mulx(c1)
        c[:len(c0)] += c0
    x = _trim(np.array([-mid / half, 1.0 / half]))  # x = (t - mid) / half
    # polyval: start from c[-1] + x * 0, then multiply by x and add
    p = _trim(np.convolve(x, [0.0]))
    p[0] += c[-1]
    for a in c[-2::-1]:
        p = _trim(np.convolve(p, x))
        p[0] += a
    return p


def _mulx(c: np.ndarray) -> np.ndarray:
    """x * c(x) as numpy's polymulx forms it: the new constant is c[0] * 0."""
    return np.concatenate(([c[0] * 0], c))


def chebyshev_fit(f: Callable[[np.ndarray], np.ndarray], iv: Interval, degree: int) -> ChebFit:
    """Degree-``degree`` interpolant of ``f`` at Chebyshev nodes mapped to ``iv``,
    converted to the monomial basis in t (``_chebyshev_interpolant``), with
    its max error over 1000 uniform samples."""
    poly = _chebyshev_interpolant(f, iv, degree)
    ts = iv.sample(_ERROR_SAMPLES)
    ref = np.asarray(f(ts), float)
    if not np.all(np.isfinite(ref)):
        raise NonFiniteSample("function returned non-finite values on the interval")
    err = float(np.max(np.abs(poly(ts) - ref)))
    return ChebFit(poly, err)


def _chebyshev_interpolant(f: Callable[[np.ndarray], np.ndarray], iv: Interval, degree: int) -> Poly1:
    """``chebyshev_fit``'s polynomial, without its error check.

    numpy's ``chebinterpolate`` gives the Chebyshev coefficients; the change
    to powers of t repeats numpy.polynomial's arithmetic on plain arrays
    (``_cheb_to_power``), so the coefficients are those of ``cheb2poly`` and
    ``Polynomial`` composition bit for bit.
    """
    degree = _count(degree, "degree", 1)
    mid, half = iv.mid, 0.5 * iv.length
    # the nodes chebinterpolate samples at, checked before it interpolates
    nodes = ncheb.chebpts1(degree + 1)
    values = np.asarray(f(mid + half * nodes), float)
    if not np.all(np.isfinite(values)):
        raise NonFiniteSample("function returned non-finite values at Chebyshev nodes")
    cheb_coeffs = ncheb.chebinterpolate(lambda x: values, degree)
    return Poly1(tuple(_cheb_to_power(cheb_coeffs, mid, half)))


# The exact basis change works on integers split into signed limbs of b bits
# and multiplies them as float64 matrices.  A product of two limbs is below
# 2^(2b) in magnitude, and an entry of a limb product sums n + 1 of them for
# each of at most min(L_T, L_X) limb pairs, where L_T and L_X are the two
# operands' limb counts.  So while (n + 1) min(L_T, L_X) < 2^(53 - 2b)
# (``_max_limb_terms``) every partial sum is an integer below 2^53, exact
# whatever order or thread count BLAS sums in.  A fit's b is ``_limb_width``.


def _power_bits(n: int) -> int:
    """The bits that hold every entry of the degree-n T (``_power_limbs``)
    with its sign.  Its largest entry in magnitude is comb(n, h) comb(h, h // 2),
    h = n // 2, in the column (1 - t^2)^h (1 - t)^(n - 2h), as checked against T
    up to degree 260.  The count only chooses the width: were it short at some
    degree, T would take more limbs, and ``_limb_matmul`` checks those."""
    h = n // 2
    return (math.comb(n, h) * math.comb(h, h // 2)).bit_length() + 1


def _max_limb_terms(b: int) -> int:
    """2^(53 - 2b): the count of b-bit limb products that a float64 sum must
    stay below for every partial sum to be an integer below 2^53."""
    return 1 << (53 - 2 * b)


def _limb_width(n: int) -> int:
    """The limb width b of a degree-n fit: the widest b up to 25 at which
    (n + 1) L_T(b) 2^(2b) < 2^53, L_T(b) = ceil(bits / b) being T's limb
    count (``_power_bits``).  It is 24 at degree 16, 23 at degrees 19-41, 21
    at 100 and 20 at 200, and falls to 16 at degree 2438.  From degree 4733
    no width meets the bound; b stays 16 there, and ``_limb_matmul`` refuses
    any product whose own limb counts break it."""
    bits = _power_bits(n)
    return next((b for b in range(25, 16, -1) if (n + 1) * -(-bits // b) < _max_limb_terms(b)), 16)


@functools.lru_cache(maxsize=8)
def _power_limbs(n: int, b: int) -> np.ndarray:
    """T in b-bit limbs, least significant first on axis 0, as ``_carry``
    leaves them: T[m, k] is the coefficient of t^m in
    comb(n, k) (1 + t)^k (1 - t)^(n - k), so ``T @ c`` is 2^n times the power
    coefficients in t of the degree-n Bernstein coefficients ``c`` on [-1, 1].
    Read-only, since the last 8 (n, b) asked for are kept for reuse: T takes
    15 KiB at degree 30, 558 KiB at 100 and 4.6 MiB at 200.

    Column k is that polynomial's value at t = 2^S, each coefficient raised by
    2^(S - 1) so that the base-2^S digits are the coefficients: S bits, a
    multiple of b, hold |T| <= 4^n and a sign."""
    n_limbs = 2 * n // b + 1
    base = 1 << (b * n_limbs)
    bias = (base >> 1) * ((base ** (n + 1) - 1) // (base - 1))
    size = -(-n_limbs * (n + 1) * b // 8) + 3  # three spare bytes: see words
    col, raw = (1 - base) ** n, []
    for k in range(n + 1):
        raw.append((math.comb(n, k) * col + bias).to_bytes(size, "little"))
        col = col // (1 - base) * (1 + base)  # the next (1 + t)^k (1 - t)^(n - k)
    # each b-bit digit, b <= 25, lies in the four bytes from the one holding
    # its first bit: words[k, j] reads bytes j to j + 3 of column k, unaligned
    words = np.ndarray((n + 1, size - 3), "<u4", b"".join(raw), strides=(size, 1))
    at = np.arange((n + 1) * n_limbs) * b
    digits = (words[:, at >> 3] >> (at & 7).astype(np.uint32)).astype(np.int64) & ((1 << b) - 1)
    limbs = digits.reshape(n + 1, n + 1, n_limbs).T
    limbs[-1] -= 1 << (b - 1)
    t = _carry(limbs, b).astype(float)
    t.flags.writeable = False
    return t


def _sample_limbs(samples: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """The samples x[i, j, c] as W[c, j, i] 2^e[c] exactly, W integers and e[c]
    the least exponent of coordinate c: W in signed b-bit limbs, least
    significant first on axis 0, and e."""
    mant, exp = np.frexp(samples.transpose(2, 1, 0))
    m = (mant * 2.0 ** 53).astype(np.int64)  # x = m 2^(exp - 53), |m| < 2^53
    exp = exp.astype(np.int64) - 53
    e = np.where(m != 0, exp, np.iinfo(exp.dtype).max).min(axis=(1, 2))
    e[~m.any(axis=(1, 2))] = 0
    shift = np.where(m != 0, exp - e[:, None, None], 0).ravel()
    n_limbs = -(-(int(shift.max()) + 53) // b)
    # |m| 2^(shift % b), below 2^(52 + b), has 1 + ceil(52 / b) limbs, placed
    # from limb shift // b up
    parts = 1 - (-52 // b)
    low, r = np.divmod(shift, b)
    mag, r = np.abs(m.ravel()).astype(np.uint64), r.astype(np.uint64)
    at = low * m.size + np.arange(m.size)
    w = np.zeros((n_limbs + parts - 1,) + m.shape)
    mask = np.uint64((1 << b) - 1)
    for i in range(parts):
        limb = (mag << r if i == 0 else mag >> (np.uint64(b * i) - r)) & mask
        w.ravel()[at + i * m.size] = np.copysign(limb, mant.ravel())
    return w[:n_limbs], e


def _carry(z: np.ndarray, b: int) -> np.ndarray:
    """Carries int64 limb sums along axis 0, in place: every limb but the top
    one into [0, 2^b), the top one keeping the rest, signed.  Returns them
    without the top limbs that only extend the sign of the limb below."""
    carry = np.empty_like(z[0])
    for k in range(len(z) - 1):
        z[k + 1] += np.right_shift(z[k], b, out=carry)
    z[:-1] &= (1 << b) - 1
    # the top limb folds into the one below only where it is 0 or -1, so a
    # top limb outside [-1, 0] ends the folding without a folded copy
    half, n_limbs = 1 << (b - 1), len(z)
    while n_limbs > 1 and z[n_limbs - 1].min() >= -1 and z[n_limbs - 1].max() <= 0:
        folded = z[n_limbs - 2] + (z[n_limbs - 1] << b)
        if folded.min() < -half or folded.max() >= half:
            break
        n_limbs -= 1
        z[n_limbs - 1] = folded
    return z[:n_limbs]


def _limb_matmul(t: np.ndarray, x: np.ndarray, b: int) -> np.ndarray:
    """X @ T.T exactly, over the last axis of X: T and X are integers in b-bit
    limbs, least significant first on axis 0.  Refuses operands whose
    n + 1 = t.shape[-1] terms for each of min(L_T, L_X) limb pairs reach
    2^(53 - 2b) (``_max_limb_terms``).  Returns the product's limbs as
    ``_carry`` leaves them, the top one within [-2^(b - 1), 2^(b - 1))."""
    n_terms = t.shape[-1] * min(len(t), len(x))
    if n_terms >= _max_limb_terms(b):
        raise Spun4dError(f"an exact product of {n_terms} limb terms is beyond float64's exact sums")
    # a sum below 2^53 at the top position, carried with its sign, needs
    # ceil(55 / b) limbs from there
    out = np.empty((len(t) + len(x) - 2 - (-55 // b),) + x.shape[1:])
    flat = np.ascontiguousarray(x, dtype=float).reshape(-1, x.shape[-1])
    np.matmul(flat, t[0].T, out=out[:len(x)].reshape(flat.shape))
    out[len(x):] = 0
    for a in range(1, len(t)):
        out[a:a + len(x)] += (flat @ t[a].T).reshape(x.shape)
    # the sums become int64 in their own buffer: a flat copy between two
    # views of one buffer converts element by element, with no temporary
    sums = out.view(np.int64)
    np.copyto(sums.reshape(-1), out.reshape(-1), casting="unsafe")
    return _carry(sums, b)


def _round_limbs(z: np.ndarray, e: np.ndarray, b: int) -> np.ndarray:
    """The floats nearest, ties to even, to Z 2^e, Z the integers that the
    b-bit limbs ``z`` (as ``_carry`` leaves them) give along axis 0; inf
    where the rounded value is beyond double range.  Spends ``z``: its limbs
    become those of |Z|.

    A 64-bit window starting at the leading bit of |Z|, with a sticky bit for
    the bits below it, is rounded once: at bit 11 of the window for a normal
    result, higher up for a subnormal one."""
    sign = z[-1] >> 63  # -1 where Z < 0, else 0
    # |Z| = ~Z + 1 where Z < 0: ~Z's limbs are carried already, and the 1
    # carries only through limbs of 2^b
    z ^= sign
    z[:-1] &= (1 << b) - 1
    z[0] -= sign
    for k in range(len(z) - 1):
        carry = z[k] >> b
        if not carry.any():
            break
        z[k] &= (1 << b) - 1
        z[k + 1] += carry
    # the top limb d[0] and the k below it hold the window: k b >= 64 bits
    k = -(-64 // b)
    if len(z) <= k:
        z = np.concatenate((z, np.zeros((k + 1 - len(z), z.shape[1]), np.int64)))
    n_limbs, size = z.shape
    # the rows of the top and lowest nonzero limbs (0 where Z = 0), from
    # maxima over narrow integers
    nonzero = z != 0
    rows = np.arange(n_limbs, dtype=np.min_scalar_type(n_limbs))[:, None]
    top = (nonzero * rows).max(axis=0).astype(np.int64)
    low = n_limbs - 1 - (nonzero * rows[::-1]).max(axis=0).astype(np.int64)
    sticky = low < top - k
    # a limb below limb 0 reads as a limb above the top one, which is 0 as
    # n_limbs > k: flat index (top - i) size + j wraps to row n_limbs + top - i
    at = top * size + np.arange(size)
    flat = z.reshape(-1).view(np.uint64)
    d = [flat[at - i * size] for i in range(k + 1)]
    # the 64 bits below the top limb, and whether any bit below them is set
    below = np.zeros(size, np.uint64)
    for i in range(1, k + 1):
        if 64 >= i * b:
            below |= d[i] << np.uint64(64 - i * b)
        else:
            below |= d[i] >> np.uint64(i * b - 64)
            sticky |= (d[i] & np.uint64((1 << (i * b - 64)) - 1)) != 0
    bl = np.frexp(d[0])[1].astype(np.uint64)  # the top limb's bit length (0 where Z = 0)
    w = (d[0] << (64 - bl)) | (below >> bl)
    sticky |= (below & ((np.uint64(1) << bl) - np.uint64(1))) != 0
    exp = b * top + bl.astype(np.int64) - 64 + e  # |Z| 2^e = (w + sticky part) 2^exp
    drop = np.clip(-1074 - exp, 11, 64)  # bits of w below the result's last bit
    half = np.uint64(1) << (drop - 1).astype(np.uint64)
    q = (w >> (drop - 1).astype(np.uint64)) >> np.uint64(1)
    rem = w & (half | (half - np.uint64(1)))
    q += (rem > half) | ((rem == half) & (sticky | (q & np.uint64(1) != 0)))
    with np.errstate(over="ignore"):  # where exp + drop < -1074, q <= 1 goes to 0
        out = np.ldexp(q.astype(float), exp + drop)
    return np.copysign(out, sign, out=out)


def bernstein_fit2(samples: np.ndarray, degree: int) -> tuple[Poly2, Poly2, Poly2, Poly2]:
    """Tensor Bernstein approximation of a sampled map on [-1, 1]^2.

    ``samples[i, j]`` must be the R^4 value at ``t = -1 + 2 i / degree``,
    ``s = -1 + 2 j / degree``.  Returns the four coordinate polynomials in the
    monomial basis.  Bernstein approximation converges but does not
    interpolate; only constants and degree-1 coordinates come back exactly.

    The basis change is exact (Farouki and Rajan, CAGD 1988).  Each
    coordinate's samples are integers W over one power of two, through
    ``np.frexp``.  The integer matrix T (``_power_limbs``) takes Bernstein
    coefficients to 2^n times power coefficients, so the coefficients are
    T W T^T over 4^n times that power of two.  Both products run as float64
    matrix products of b-bit limbs, for all four coordinates at once, b the
    widest width up to 25 at which (n + 1) L_T 2^(2b) < 2^53, L_T being T's
    limb count (``_limb_width``).  A limb product sums n + 1 products below
    2^(2b) for each of at most min(L_T, L_W) limb pairs, so every partial
    sum is an integer below 2^53 and exact in any summation order.  The
    samples are cut, the carries propagated in int64 and each coefficient
    rounded at that width: once, to nearest even, from a 64-bit window at its
    leading bit and a sticky bit (``_round_limbs``).  In float64 the
    alternating sums of T would cancel catastrophically beyond degree ~25.  Samples that are not finite raise NonFiniteSample, and a
    coefficient beyond double range raises Spun4dError.
    """
    degree = _count(degree, "degree", 1)
    samples = np.asarray(samples, float)
    if samples.shape != (degree + 1, degree + 1, 4):
        raise GridMismatch(
            f"expected sample lattice of shape {(degree + 1, degree + 1, 4)}, got {samples.shape}"
        )
    if not np.isfinite(samples).all():
        raise NonFiniteSample("Bernstein samples are not finite")
    b = _limb_width(degree)
    t = _power_limbs(degree, b)
    w, e = _sample_limbs(samples, b)  # W_c^T, as w[:, c]
    y = _limb_matmul(t, w, b)  # (T W_c)^T
    del w
    # T W_c as the float operand of the second product, in place of y's
    # int64 buffer, which is freed before that product's buffer is taken
    y = np.ascontiguousarray(y.swapaxes(2, 3), dtype=float)
    c = _limb_matmul(t, y, b)  # T W_c T^T
    del y
    coeffs = _round_limbs(c.reshape(len(c), -1), np.repeat(e - 2 * degree, (degree + 1) ** 2), b)
    coeffs = coeffs.reshape(4, degree + 1, degree + 1)
    for k in range(4):
        if np.isinf(coeffs[k]).any():
            raise Spun4dError(f"coordinate {'xyzw'[k]} of the degree-{degree} Bernstein fit "
                              "has a coefficient beyond double range")
    return tuple(Poly2(coeffs[k]) for k in range(4))


def bernstein_lattice(degree: int) -> np.ndarray:
    """The (degree+1) uniform control abscissae on [-1, 1]."""
    degree = _count(degree, "degree", 1)
    return -1.0 + 2.0 * np.arange(degree + 1) / degree


@dataclass(frozen=True)
class PerturbationSpec:
    """Odd-degree perturbation (z, w) -> (z + eps t^(2N+1), w + eps s^(2N+1)).
    N must be an integer of at least 1 and epsilon a finite number."""

    N: int
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "N", _count(self.N, "N", 1))
        object.__setattr__(self, "epsilon", _finite(self.epsilon, "epsilon: "))


_GAP_TOL = 1e-12


def _route_allowance(gap: float, denom: float) -> float | None:
    """Largest eps for which this coordinate keeps the pair separated for all
    u in [0, 1]; None when the coordinate cannot separate the pair at all."""
    if gap <= _GAP_TOL:
        return None
    if denom <= _GAP_TOL:
        return math.inf
    return gap / denom


def odd_perturbation(
    map4: Sequence[Poly2],
    N: int,
    S: Sequence[tuple[tuple[float, float], tuple[float, float]]],
) -> tuple[PerturbationSpec, tuple[Poly2, Poly2, Poly2, Poly2]]:
    """Choose eps below the injectivity-preserving bound computed from the
    detected first-two-coordinate collision pairs ``S`` and apply the odd
    perturbation to coordinates 3 and 4.

    Each pair constrains eps through the coordinate whose images differ; the
    overall eps is half the minimum over all pairs (safety margin for the
    numerical detection of ``S``).  With no finite constraint eps defaults to 1.
    A pair with a t or s whose power 2N + 1 is beyond double range is refused
    with a ValueError.
    """
    N = _count(N, "N", 1)
    _, _, z, w = map4
    power = 2 * N + 1
    bound = math.inf
    for (t1, s1), (t2, s2) in S:
        try:
            t_den = abs(float(t1) ** power - float(t2) ** power)
            s_den = abs(float(s1) ** power - float(s2) ** power)
        except OverflowError:
            raise ValueError(f"pair ({t1}, {s1}) / ({t2}, {s2}): with N = {N}, a parameter to the power "
                             f"2N + 1 = {power} is beyond double range") from None
        z_gap = abs(float(z(t1, s1)) - float(z(t2, s2)))
        w_gap = abs(float(w(t1, s1)) - float(w(t2, s2)))
        allowances = [a for a in (_route_allowance(z_gap, t_den), _route_allowance(w_gap, s_den)) if a is not None]
        if not allowances:
            raise ZeroGap(
                f"pair ({t1}, {s1}) / ({t2}, {s2}) has equal z and w images; map is not injective"
            )
        bound = min(bound, max(allowances))
    eps = 1.0 if math.isinf(bound) else 0.5 * bound
    return PerturbationSpec(N=N, epsilon=eps), _perturb(map4, N, eps)


def _perturb(map4: Sequence[Poly2], N: int, eps: float) -> tuple[Poly2, Poly2, Poly2, Poly2]:
    """(x, y, z + eps t^(2N+1), w + eps s^(2N+1))."""
    x, y, z, w = map4
    power = 2 * N + 1
    bump = np.zeros((power + 1, 1))
    bump[power, 0] = eps
    return x, y, z + Poly2(bump), w + Poly2(bump.T)
