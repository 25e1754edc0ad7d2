"""Function approximation: Chebyshev interpolants on an interval, bivariate
Bernstein fits of sampled maps, and the odd-degree injectivity perturbation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial import chebyshev as ncheb

from .errors import GridMismatch, NonFiniteSample, ZeroGap
from .poly import Interval, Poly1, Poly2

__all__ = ["ChebFit", "chebyshev_fit", "bernstein_fit2", "PerturbationSpec", "odd_perturbation"]

_ERROR_SAMPLES = 1000


class ChebFit(NamedTuple):
    poly: Poly1
    max_error: float


def chebyshev_fit(f: Callable[[np.ndarray], np.ndarray], iv: Interval, degree: int) -> ChebFit:
    """Degree-``degree`` interpolant of ``f`` at Chebyshev nodes mapped to ``iv``,
    converted to the monomial basis, with its max error over 1000 uniform samples.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    mid, half = iv.mid, 0.5 * iv.length
    # the nodes chebinterpolate samples at, checked before it interpolates
    nodes = ncheb.chebpts1(degree + 1)
    values = np.asarray(f(mid + half * nodes), float)
    if not np.all(np.isfinite(values)):
        raise NonFiniteSample("function returned non-finite values at Chebyshev nodes")
    cheb_coeffs = ncheb.chebinterpolate(lambda x: values, degree)
    mono_x = ncheb.cheb2poly(cheb_coeffs)
    # compose with x = (t - mid) / half to express in t directly
    p = np.polynomial.Polynomial(mono_x)
    q = p(np.polynomial.Polynomial([-mid / half, 1.0 / half]))
    poly = Poly1(tuple(np.atleast_1d(q.coef)))

    ts = iv.sample(_ERROR_SAMPLES)
    ref = np.asarray(f(ts), float)
    if not np.all(np.isfinite(ref)):
        raise NonFiniteSample("function returned non-finite values on the interval")
    err = float(np.max(np.abs(poly(ts) - ref)))
    return ChebFit(poly, err)


def _bernstein_to_monomial(n: int) -> np.ndarray:
    """T[i, k]: coefficient of u^k in the Bernstein basis polynomial b_{i,n}(u).
    Exact integers (object dtype): entries reach comb(n, n//2) and the basis
    change cancels catastrophically in float64 beyond degree ~25."""
    T = np.zeros((n + 1, n + 1), dtype=object)
    for i in range(n + 1):
        base = math.comb(n, i)
        for k in range(i, n + 1):
            T[i, k] = base * math.comb(n - i, k - i) * (-1) ** (k - i)
    return T


def _shift_half(n: int) -> np.ndarray:
    """S[k, m]: 2^n times the coefficient of t^m in ((t + 1) / 2)^k, exact."""
    S = np.zeros((n + 1, n + 1), dtype=object)
    for k in range(n + 1):
        for m in range(k + 1):
            S[k, m] = math.comb(k, m) * 2 ** (n - k)
    return S


def bernstein_fit2(samples: np.ndarray, degree: int) -> tuple[Poly2, Poly2, Poly2, Poly2]:
    """Tensor Bernstein approximation of a sampled map on [-1, 1]^2.

    ``samples[i, j]`` must be the R^4 value at ``t = -1 + 2 i / degree``,
    ``s = -1 + 2 j / degree``.  Returns the four coordinate polynomials in the
    monomial basis.  Bernstein approximation converges but does not
    interpolate; only constants and degree-1 coordinates come back exactly.
    """
    _check_degree(degree)
    samples = np.asarray(samples, float)
    if samples.shape != (degree + 1, degree + 1, 4):
        raise GridMismatch(
            f"expected sample lattice of shape {(degree + 1, degree + 1, 4)}, got {samples.shape}"
        )
    T = _bernstein_to_monomial(degree)
    S = _shift_half(degree)
    # monomial in u = (t+1)/2, v = (s+1)/2, then substituted back to (t, s);
    # conv is 2^degree times the true conversion matrix, kept in exact integer
    # arithmetic so the giant alternating sums cancel exactly.  Every float
    # sample is an integer over a power of two, so all samples of a coordinate
    # become integers over one common power of two; floats only appear in the
    # final int / int division, which Python rounds correctly.
    conv = S.T @ T.T
    out = []
    for c in range(4):
        ratios = [x.as_integer_ratio() for x in samples[:, :, c].ravel().tolist()]
        denom = max(d for _, d in ratios)
        V = np.array([n * (denom // d) for n, d in ratios], dtype=object)
        W = conv @ V.reshape(degree + 1, degree + 1) @ conv.T
        scale = denom * 4 ** degree
        out.append(Poly2(np.array([[w / scale for w in row] for row in W.tolist()])))
    return tuple(out)


def _check_degree(degree: int) -> None:
    if degree < 1:
        raise ValueError(f"Bernstein degree must be at least 1, got {degree}")


def bernstein_lattice(degree: int) -> np.ndarray:
    """The (degree+1) uniform control abscissae on [-1, 1]."""
    _check_degree(degree)
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
    if N < 1:
        raise ValueError("N must be a positive integer")
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
