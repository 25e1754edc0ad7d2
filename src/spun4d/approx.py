"""Function approximation: Chebyshev interpolants on an interval, bivariate
Bernstein fits of sampled maps, and the odd-degree injectivity perturbation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial import chebyshev as ncheb

from .errors import GridMismatch, NonFiniteSample, Spun4dError, ZeroGap
from .poly import Interval, Poly1, Poly2, _count

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


def _bernstein_to_power(c: np.ndarray) -> None:
    """Along axis 0 of an object array of integers, in place: Bernstein
    coefficients of degree n on [-1, 1] become 2^n times the power
    coefficients in t.  With u = (t + 1) / 2, the power coefficients in u are
    comb(n, k) * (k-th forward difference at 0); weights 2^(n - k) express
    them in x = 2u, and repeated suffix sums are the Taylor shift x -> t + 1."""
    n = len(c) - 1
    for k in range(1, n + 1):
        c[k:] = c[k:] - c[k - 1:-1]
    c *= np.array([math.comb(n, k) << (n - k) for k in range(n + 1)],
                  dtype=object).reshape((-1,) + (1,) * (c.ndim - 1))
    for i in range(n):
        c[i:] = np.add.accumulate(c[i:][::-1])[::-1]


def bernstein_fit2(samples: np.ndarray, degree: int) -> tuple[Poly2, Poly2, Poly2, Poly2]:
    """Tensor Bernstein approximation of a sampled map on [-1, 1]^2.

    ``samples[i, j]`` must be the R^4 value at ``t = -1 + 2 i / degree``,
    ``s = -1 + 2 j / degree``.  Returns the four coordinate polynomials in the
    monomial basis.  Bernstein approximation converges but does not
    interpolate; only constants and degree-1 coordinates come back exactly.

    The basis change is exact, in Python integers: forward differences and a
    Taylor shift (Farouki and Rajan, CAGD 1988), along t and then along s.  In
    float64 its alternating sums cancel catastrophically beyond degree ~25.
    Samples that are not finite raise NonFiniteSample, and a coefficient
    beyond double range raises Spun4dError.
    """
    degree = _count(degree, "degree", 1)
    samples = np.asarray(samples, float)
    if samples.shape != (degree + 1, degree + 1, 4):
        raise GridMismatch(
            f"expected sample lattice of shape {(degree + 1, degree + 1, 4)}, got {samples.shape}"
        )
    if not np.isfinite(samples).all():
        raise NonFiniteSample("Bernstein samples are not finite")
    # Every float sample is an integer over a power of two, so all samples of a
    # coordinate become integers over one common power of two; floats only
    # appear in the final int / int division, which Python rounds correctly.
    out = []
    for c in range(4):
        ratios = [x.as_integer_ratio() for x in samples[:, :, c].ravel().tolist()]
        denom = max(d for _, d in ratios)
        W = np.array([n * (denom // d) for n, d in ratios], dtype=object).reshape(degree + 1, -1)
        _bernstein_to_power(W)
        _bernstein_to_power(W.T)
        scale = denom * 4 ** degree
        try:
            coeffs = [[w / scale for w in row] for row in W.tolist()]
        except OverflowError:
            raise Spun4dError(f"coordinate {'xyzw'[c]} of the degree-{degree} Bernstein fit "
                              "has a coefficient beyond double range") from None
        out.append(Poly2(np.array(coeffs)))
    return tuple(out)


def bernstein_lattice(degree: int) -> np.ndarray:
    """The (degree+1) uniform control abscissae on [-1, 1]."""
    degree = _count(degree, "degree", 1)
    return -1.0 + 2.0 * np.arange(degree + 1) / degree


@dataclass(frozen=True)
class PerturbationSpec:
    """Odd-degree perturbation (z, w) -> (z + eps t^(2N+1), w + eps s^(2N+1))."""

    N: int
    epsilon: float


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
