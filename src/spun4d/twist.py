"""k-twist spin construction: rotate the knotted part of the arc about the
chord PQ while spinning about the xy-plane.

The rotation about PQ is Rodrigues' rotation about the horizontal axis
direction, conjugated by the translation taking an axis point to the origin.
A smooth bump in t confines the rotation to the knotted part so the arc ends
stay put on the boundary plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .approx import chebyshev_fit
from .catalog import KnotArc
from .errors import NonUnitAxis, NoRoom, PlaneCrossing
from .poly import Interval, Poly1
from .surface import (
    TRIG_MAX_K, TWO_PI, Bump, Surface4, Term, Trig, _eval_points, max_grid_deviation,
)

__all__ = [
    "Bump", "TwistAxis", "rodrigues", "axis_rotation", "make_axis",
    "choose_bump", "twisted_arc", "twist_spin", "polynomialize_twist",
]


# -- rotation algebra -------------------------------------------------------

def rodrigues(k, phi: float) -> np.ndarray:
    """Rotation matrix R = I + sin(phi) K + (1 - cos(phi)) K^2 about unit axis k."""
    k = np.asarray(k, float)
    if abs(np.linalg.norm(k) - 1.0) > 1e-9:
        raise NonUnitAxis(f"axis norm {np.linalg.norm(k):.12g} != 1")
    K = np.array([
        [0.0, -k[2], k[1]],
        [k[2], 0.0, -k[0]],
        [-k[1], k[0], 0.0],
    ])
    return np.eye(3) + math.sin(phi) * K + (1.0 - math.cos(phi)) * (K @ K)


@dataclass(frozen=True)
class TwistAxis:
    """Chord PQ between two equal-height arc points, the axis of the twist."""

    t1: float
    t2: float
    c: float
    f21: float
    g21: float
    p1: tuple[float, float]  # (f(t1), g(t1))

    @property
    def n_len(self) -> float:
        return math.hypot(self.f21, self.g21)

    @property
    def direction(self) -> np.ndarray:
        return np.array([self.f21 / self.n_len, self.g21 / self.n_len, 0.0])

    @property
    def P(self) -> np.ndarray:
        return np.array([self.p1[0], self.p1[1], self.c])

    @property
    def Q(self) -> np.ndarray:
        return np.array([self.p1[0] + self.f21, self.p1[1] + self.g21, self.c])


HEIGHT_MATCH_TOL = 1e-6


def make_axis(arc: KnotArc, t1: float, t2: float) -> TwistAxis:
    """Axis through (f, g, h)(t1) and (f, g, h)(t2); heights must agree and the
    crossing interval must sit strictly between t1 and t2."""
    a, b = arc.ab.lo, arc.ab.hi
    if not (a <= t1 <= b and a <= t2 <= b):
        raise ValueError(f"axis endpoints must be arc points, finite numbers in "
                         f"[{a:.6g}, {b:.6g}], got t1={t1!r}, t2={t2!r}")
    h1, h2 = float(arc.h(t1)), float(arc.h(t2))
    scale = max(abs(h1), abs(h2), 1.0)
    if abs(h1 - h2) > HEIGHT_MATCH_TOL * scale:
        raise ValueError(f"axis heights differ: h({t1})={h1:.9g}, h({t2})={h2:.9g}")
    if arc.crossing_iv is not None and not (t1 < arc.crossing_iv.lo and arc.crossing_iv.hi < t2):
        raise ValueError("crossing interval must lie strictly inside (t1, t2)")
    f21 = float(arc.f(t2)) - float(arc.f(t1))
    g21 = float(arc.g(t2)) - float(arc.g(t1))
    if math.hypot(f21, g21) == 0.0:
        raise ValueError("axis endpoints project to the same plane point")
    return TwistAxis(t1, t2, 0.5 * (h1 + h2), f21, g21,
                     (float(arc.f(t1)), float(arc.g(t1))))


@dataclass(frozen=True)
class AffineMap:
    """x -> A x + b on R^3."""

    A: np.ndarray
    b: np.ndarray

    def __call__(self, x):
        return np.asarray(x, float) @ self.A.T + self.b


def axis_rotation(axis: TwistAxis, phi: float) -> AffineMap:
    """Rotation by phi about the line PQ: Rodrigues about the horizontal axis
    direction conjugated by translation onto the line (which lifts the axis to
    height c); fixes both P and Q."""
    R = rodrigues(axis.direction, phi)
    p0 = axis.P
    return AffineMap(R, p0 - R @ p0)


# -- twisted arc ------------------------------------------------------------

def _twisted_coords(arc: KnotArc, axis: TwistAxis, bump: Bump, k: int):
    """Terms of (f~, g~, h~)(t, theta): the arc rotated by k*theta about PQ,
    blended into the fixed arc by the bump.

    With v(t) = (f, g, h)(t) - P and Rodrigues' R = kk^T + (I - kk^T) cos +
    K sin about the unit axis direction k, the blend
    (f, g, h) + B (P + R v - (f, g, h)) is
    (f, g, h) - B u + B u cos(k theta) + B w sin(k theta) with
    u = (I - kk^T) v and w = K v, all polynomials of the arc's degree.
    """
    kx, ky = axis.f21 / axis.n_len, axis.g21 / axis.n_len
    vx = arc.f - Poly1((axis.p1[0],))
    vy = arc.g - Poly1((axis.p1[1],))
    vz = arc.h - Poly1((axis.c,))
    # u = (I - kk^T) v and w = k x v with k = (kx, ky, 0), per coordinate as
    # (coefficient, polynomial) pairs so that multiples of vz share a factor
    uw = (
        ((1.0, ky * ky * vx - kx * ky * vy), (ky, vz)),
        ((1.0, kx * kx * vy - kx * ky * vx), (-kx, vz)),
        ((1.0, vz), (1.0, kx * vy - ky * vx)),
    )
    cos_k, sin_k = Trig(k), Trig(k, sine=True)
    return tuple(
        (Term(1.0, (p,)), Term(-a, (bump, u)),
         Term(a, (bump, u), (cos_k,)), Term(b, (bump, w), (sin_k,)))
        for p, ((a, u), (b, w)) in zip((arc.f, arc.g, arc.h), uw)
    )


def twisted_arc(arc: KnotArc, axis: TwistAxis, bump: Bump, phi: float):
    """The blended rotated arc at a fixed rotation angle phi, as a function
    t -> (f~, g~, h~)(t) with result shape t.shape + (3,)."""
    coords = _twisted_coords(arc, axis, bump, 1)
    return lambda t: _eval_points(coords, t, phi)


BUMP_MARGIN_FRAC = 0.05


def choose_bump(arc: KnotArc, axis: TwistAxis) -> Bump:
    """Bump parameters that are 1 over the crossing interval and 0 beyond the
    axis endpoints, with a 5% margin of the available squared-parameter gap."""
    if arc.crossing_iv is None:
        inner = 0.0
    else:
        inner = max(arc.crossing_iv.lo ** 2, arc.crossing_iv.hi ** 2)
    outer = min(axis.t1 ** 2, axis.t2 ** 2)
    gap = outer - inner
    if gap <= 0:
        raise NoRoom("crossing interval touches the twist axis endpoints")
    margin = BUMP_MARGIN_FRAC * gap
    return Bump(inner + margin, outer - margin)


# -- twist spin -------------------------------------------------------------

PRECHECK_NT = 2000
# height evaluations per t sample: the minimum over the angle has a closed
# form.  Kept because perfbench/tracing.py reports PRECHECK_NT * PRECHECK_NPHI
# as the pre-check's point count.
PRECHECK_NPHI = 1


def _check_height_positive(arc: KnotArc, axis: TwistAxis, bump: Bump, k: int):
    """Refuse a twist whose height h~ is <= 0 inside the arc, at any angle.

    h~ depends on k and theta only through the rotation angle phi = k theta,
    and the 1-twist's height is alpha(t) + beta(t) cos phi + gamma(t) sin phi.
    So at each of PRECHECK_NT interior t samples its least value over every
    phi is alpha - hypot(beta, gamma), taken at phi = atan2(-gamma, -beta):
    exact in phi, sampled in t.  For k = 0 the angle stays 0 and the fixed
    arc's alpha + beta is checked instead."""
    ts = arc.ab.sample(PRECHECK_NT + 2)[1:-1]  # open interior
    fixed, drop, cos_term, sin_term = _twisted_coords(arc, axis, bump, 1)[2]
    alpha, beta, gamma = _eval_points(
        ([fixed, drop], [cos_term._replace(s=())], [sin_term._replace(s=())]), ts, 0.0).T
    low = alpha + beta if k == 0 else alpha - np.hypot(beta, gamma)
    i = np.argmin(low)
    if low[i] <= 0.0:
        phi = 0.0 if k == 0 else math.atan2(-gamma[i], -beta[i]) % TWO_PI
        raise PlaneCrossing(float(ts[i]), phi, float(low[i]))


def twist_spin(arc: KnotArc, axis: TwistAxis, bump: Bump, k: int) -> Surface4:
    """k-twist spun surface (f~(t,k th), g~(t,k th), h~(t,k th) cos th, h~(t,k th) sin th).

    Rejects the construction with NoRoom if the bump does not vanish at both
    arc ends (d2 > min(a^2, b^2)), and with PlaneCrossing if the rotating
    knotted part would dip below the xy-plane at any rotation angle (exact
    in the angle, at 2000 samples of t).
    """
    if not 0 <= k <= TRIG_MAX_K:
        raise ValueError(f"twist count k must be in [0, 2**53], got {k}")
    bound = min(arc.ab.lo ** 2, arc.ab.hi ** 2)
    if bump.d2 > bound:
        raise NoRoom(f"bump support d2={bump.d2!r} reaches past the arc ends: "
                     f"need d2 <= min(a^2, b^2) = {bound:.6g}")
    _check_height_positive(arc, axis, bump, k)
    ft, gt, ht = _twisted_coords(arc, axis, bump, k)
    spun = [[Term(c, tf, sf + (trig,)) for c, tf, sf in ht]
            for trig in (Trig(1), Trig(1, sine=True))]
    return Surface4(
        coords=(ft, gt, *spun),
        t_dom=arc.ab,
        s_dom=Interval(0.0, TWO_PI),
        periodic_s=True,
        pole_low=True,
        pole_high=True,
    )


def polynomialize_twist(s: Surface4, cheb_degree: int, bump_degree: int | None = None):
    """Replace every cos(k th) / sin(k th) factor by its Chebyshev interpolant
    on [0, 2*pi], and (optionally) the bump by a Chebyshev fit on the t-domain.

    A fit stays a factor of its own: multiplying it into another polynomial
    would cost accuracy (a degree-40 bump fit times an arc polynomial differs
    from the product of their values by about 4e-2).

    Returns the new surface and its max deviation from ``s`` on a 200x200 grid.
    """
    if cheb_degree < 1:
        raise ValueError(f"cheb_degree must be >= 1, got {cheb_degree}")
    fits: dict = {}

    def fit(f):
        if f not in fits:
            if isinstance(f, Trig):
                fits[f] = chebyshev_fit(f, s.s_dom, cheb_degree).poly
            elif isinstance(f, Bump) and bump_degree is not None:
                fits[f] = chebyshev_fit(f, s.t_dom, bump_degree).poly
            else:
                fits[f] = f
        return fits[f]

    out = Surface4(
        tuple([Term(c, tuple(map(fit, tf)), tuple(map(fit, sf))) for c, tf, sf in coord]
              for coord in s.coords),
        s.t_dom, s.s_dom, s.periodic_s, s.pole_low, s.pole_high,
    )
    return out, max_grid_deviation(s, out)
