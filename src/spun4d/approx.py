"""Function approximation: Chebyshev interpolants on an interval, bivariate
Bernstein fits of sampled maps, and the odd-degree injectivity perturbation.

A Bernstein fit changes basis exactly.  The samples and the integer
basis-change matrix are split into 16-bit limbs, and their products run as
float64 matrix products in which every partial sum is an integer below 2^53,
so BLAS computes them exactly in any order.  Carries are propagated in int64,
and each coefficient is rounded once, to the nearest double, ties to even.
"""

from __future__ import annotations

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


# The exact basis change works on integers split into signed limbs of _B bits
# and multiplies them as float64 matrices.  A product of two limbs is below
# 2^(2 _B) in magnitude, and an entry of a limb product sums n + 1 of them for
# each of at most min(L_T, L_X) limb pairs, where L_T and L_X are the two
# operands' limb counts.  With _B = 16 every partial sum is therefore an integer
# below (n + 1) min(L_T, L_X) 2^32 < 2^53, so each is exact whatever order or
# thread count BLAS sums in.  T's entries have at most 2n bits, so L_T <= n/8 + 1
# and the bound holds up to degree 4000 (_MAX_LIMB_TERMS).
_B = 16
_LIMB = (1 << _B) - 1
_MAX_LIMB_TERMS = 1 << (53 - 2 * _B)


def _power_limbs(n: int) -> np.ndarray:
    """T in _B-bit limbs, least significant first on axis 0, as ``_carry``
    leaves them: T[m, k] is the coefficient of t^m in
    comb(n, k) (1 + t)^k (1 - t)^(n - k), so ``T @ b`` is 2^n times the power
    coefficients in t of the degree-n Bernstein coefficients ``b`` on [-1, 1].

    Column k is that polynomial's value at t = 2^S, each coefficient raised by
    2^(S - 1) so that the base-2^S digits are the coefficients: S bits hold
    |T| <= 4^n and a sign."""
    n_limbs = 2 * n // _B + 1
    base = 1 << (_B * n_limbs)
    bias = (base >> 1) * ((base ** (n + 1) - 1) // (base - 1))
    size = n_limbs * (n + 1) * _B // 8
    col, raw = (1 - base) ** n, []
    for k in range(n + 1):
        raw.append((math.comb(n, k) * col + bias).to_bytes(size, "little"))
        col = col // (1 - base) * (1 + base)  # the next (1 + t)^k (1 - t)^(n - k)
    limbs = np.frombuffer(b"".join(raw), f"<u{_B // 8}").reshape(n + 1, n + 1, n_limbs)
    limbs = limbs.T.astype(np.int64)
    limbs[-1] -= 1 << (_B - 1)
    return _carry(limbs).astype(float)


def _sample_limbs(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The samples x[i, j, c] as W[c, j, i] 2^e[c] exactly, W integers and e[c]
    the least exponent of coordinate c: W in signed _B-bit limbs, least
    significant first on axis 0, and e."""
    mant, exp = np.frexp(samples.transpose(2, 1, 0))
    m = (mant * 2.0 ** 53).astype(np.int64)  # x = m 2^(exp - 53), |m| < 2^53
    exp = exp.astype(np.int64) - 53
    e = np.where(m != 0, exp, np.iinfo(exp.dtype).max).min(axis=(1, 2))
    e[~m.any(axis=(1, 2))] = 0
    shift = np.where(m != 0, exp - e[:, None, None], 0).ravel()
    n_limbs = -(-(int(shift.max()) + 53) // _B)
    # |m| 2^(shift % _B) has five limbs, placed from limb shift // _B up
    low, r = np.divmod(shift, _B)
    mag, r = np.abs(m.ravel()).astype(np.uint64), r.astype(np.uint64)
    at = low * m.size + np.arange(m.size)
    w = np.zeros((n_limbs + 4,) + m.shape)
    for i in range(5):
        limb = (mag << r if i == 0 else mag >> (np.uint64(_B * i) - r)) & np.uint64(_LIMB)
        w.ravel()[at + i * m.size] = np.copysign(limb, mant.ravel())
    return w[:n_limbs], e


def _carry(z: np.ndarray) -> np.ndarray:
    """Carries int64 limb sums along axis 0, in place: every limb but the top
    one into [0, 2^_B), the top one keeping the rest, signed.  Returns them
    without the top limbs that only extend the sign of the limb below."""
    carry = np.empty_like(z[0])
    for k in range(len(z) - 1):
        np.right_shift(z[k], _B, out=carry)
        z[k] &= _LIMB
        z[k + 1] += carry
    n_limbs = len(z)
    while n_limbs > 1:
        folded = z[n_limbs - 2] + (z[n_limbs - 1] << _B)
        if np.any((folded < -(1 << (_B - 1))) | (folded >= 1 << (_B - 1))):
            break
        n_limbs -= 1
        z[n_limbs - 1] = folded
    return z[:n_limbs]


def _limb_matmul(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """X @ T.T exactly, over the last axis of X: T and X are integers in limbs,
    least significant first on axis 0.  Returns the product's limbs as
    ``_carry`` leaves them, the top one within [-2^(_B - 1), 2^(_B - 1))."""
    n_terms = t.shape[-1] * min(len(t), len(x))
    if n_terms >= _MAX_LIMB_TERMS:
        raise Spun4dError(f"an exact product of {n_terms} limb terms is beyond float64's exact sums")
    # three more limbs take the carries out of sums below 2^53
    out = np.zeros((len(t) + len(x) + 2,) + x.shape[1:])
    flat = np.ascontiguousarray(x, dtype=float).reshape(-1, x.shape[-1])
    for a, limb in enumerate(t):
        out[a:a + len(x)] += (flat @ limb.T).reshape(x.shape)
    # the sums become int64 in their own buffer: a flat copy between two
    # views of one buffer converts element by element, with no temporary
    sums = out.view(np.int64)
    np.copyto(sums.reshape(-1), out.reshape(-1), casting="unsafe")
    return _carry(sums)


def _round_limbs(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The floats nearest, ties to even, to Z 2^e, Z the integers that the
    limbs ``z`` (as ``_carry`` leaves them) give along axis 0; inf where the
    rounded value is beyond double range.

    A 64-bit window starting at the leading bit of |Z|, with a sticky bit for
    the bits below it, is rounded once: at bit 11 of the window for a normal
    result, higher up for a subnormal one."""
    neg = z[-1] < 0
    mag = _carry(np.where(neg, -z, z))
    n_limbs, size = mag.shape
    nonzero = mag != 0
    top = (nonzero * np.arange(n_limbs)[:, None]).max(axis=0)
    # the top limb and the four below it, of |Z| over four zero limbs
    flat = np.concatenate((np.zeros(4 * size, np.int64), mag.ravel()))
    at = (top + 4) * size + np.arange(size)
    d = [flat[at - i * size].astype(np.uint64) for i in range(5)]
    below = nonzero.sum(axis=0) > sum(x != 0 for x in d)
    bl = np.frexp(d[0])[1].astype(np.uint64)  # the top limb's bit length (0 where Z = 0)
    w = ((d[0] << (64 - bl)) | (d[1] << (48 - bl)) | (d[2] << (32 - bl)) | (d[3] << (16 - bl))
         | (d[4] >> bl))
    sticky = below | ((d[4] & ((np.uint64(1) << bl) - np.uint64(1))) != 0)
    exp = _B * (top - 4) + bl.astype(np.int64) + e  # |Z| 2^e = (w + sticky part) 2^exp
    drop = np.clip(-1074 - exp, 11, 64)  # bits of w below the result's last bit
    half = np.uint64(1) << (drop - 1).astype(np.uint64)
    q = (w >> (drop - 1).astype(np.uint64)) >> np.uint64(1)
    rem = w & (half | (half - np.uint64(1)))
    q += (rem > half) | ((rem == half) & (sticky | (q & np.uint64(1) != 0)))
    with np.errstate(over="ignore"):  # where exp + drop < -1074, q <= 1 goes to 0
        out = np.ldexp(q.astype(float), exp + drop)
    return np.where(neg, -out, out)


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
    matrix products of 16-bit limbs, for all four coordinates at once.  A
    limb product sums n + 1 products below 2^32 for each of at most
    min(L_T, L_W) limb pairs, so every partial sum is an integer below 2^53
    and exact in any summation order (see _B).  Carries are propagated in
    int64.  Each coefficient is then rounded once, to nearest even, from a
    64-bit window at its leading bit and a sticky bit (``_round_limbs``).  In
    float64 the alternating sums of T would cancel catastrophically beyond
    degree ~25.  Samples that are not finite raise NonFiniteSample, and a
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
    t = _power_limbs(degree)
    w, e = _sample_limbs(samples)  # W_c^T, as w[:, c]
    y = _limb_matmul(t, w)  # (T W_c)^T
    del w
    c = _limb_matmul(t, y.swapaxes(2, 3))  # T W_c T^T
    del y
    coeffs = _round_limbs(c.reshape(len(c), -1), np.repeat(e - 2 * degree, (degree + 1) ** 2))
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
    """
    N = _count(N, "N", 1)
    _, _, z, w = map4
    power = 2 * N + 1
    bound = math.inf
    for (t1, s1), (t2, s2) in S:
        z_gap = abs(float(z(t1, s1)) - float(z(t2, s2)))
        w_gap = abs(float(w(t1, s1)) - float(w(t2, s2)))
        t_den = abs(t1 ** power - t2 ** power)
        s_den = abs(s1 ** power - s2 ** power)
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
