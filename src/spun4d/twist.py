"""k-twist spin construction: rotate the knotted part of the arc about the
chord PQ while spinning about the xy-plane.

The rotation about PQ is Rodrigues' rotation about the horizontal axis
direction, conjugated by the translation taking an axis point to the origin.
A smooth bump in t confines the rotation to the knotted part so the arc ends
stay put on the boundary plane.  The rotated arc is one family
A + B cos(phi) + C sin(phi) in t (``_arc_family``), turned by phi = k theta
and spun (``_spun``) as ``spin.spin`` spins the fixed arc, where B = C = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .approx import _chebyshev_interpolant
from .catalog import KnotArc
from .errors import NonUnitAxis, NoRoom, PlaneCrossing
from .poly import Interval, Poly1, _count, _real
from .surface import (
    TWO_PI, Bump, Surface4, Term, Trig, _eval_points, _term_rows, max_grid_deviation,
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
    if not (a <= _real(t1) <= b and a <= _real(t2) <= b):
        raise ValueError(f"axis endpoints must be arc points, finite numbers in "
                         f"[{a:.6g}, {b:.6g}], got t1={t1!r}, t2={t2!r}")
    t1, t2 = float(t1), float(t2)
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


def axis_rotation(axis: TwistAxis, phi: float):
    """Rotation by phi about the line PQ, x -> x R^T + (P - R P) on R^3:
    Rodrigues about the horizontal axis direction conjugated by translation
    onto the line (which lifts the axis to height c); fixes both P and Q."""
    R = rodrigues(axis.direction, phi)
    b = axis.P - R @ axis.P
    return lambda x: np.asarray(x, float) @ R.T + b


# -- twisted arc ------------------------------------------------------------

def _arc_family(arc: KnotArc, axis: TwistAxis, bump: Bump):
    """Per coordinate of the arc rotated by phi about PQ and blended into the
    fixed arc by the bump, its term lists (A, B, C) in t alone, so that the
    rotated arc is A + B cos(phi) + C sin(phi).

    With v(t) = (f, g, h)(t) - P and Rodrigues' R = kk^T + (I - kk^T) cos +
    K sin about the unit axis direction k, the blend
    (f, g, h) + bump (P + R v - (f, g, h)) has A = (f, g, h) - bump u,
    B = bump u and C = bump w with u = (I - kk^T) v and w = K v, all
    polynomials of the arc's degree.
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
    return tuple(
        ([Term(1.0, (p,)), Term(-a, (bump, u))], [Term(a, (bump, u))], [Term(b, (bump, w))])
        for p, ((a, u), (b, w)) in zip((arc.f, arc.g, arc.h), uw)
    )


def _turned(family, k: int):
    """Per coordinate, the terms of A + B cos(k theta) + C sin(k theta)."""
    trigs = (Trig(k), Trig(k, sine=True))
    return tuple(a + [Term(c, tf, sf + (trig,)) for trig, bc in zip(trigs, bcs) for c, tf, sf in bc]
                 for a, *bcs in family)


def _spun(x, y, h, ab) -> Surface4:
    """The spin (x, y, h cos(theta), h sin(theta)) of an arc's terms over ab,
    its last two coordinates the families (0, h, 0) and (0, 0, h) turned once."""
    # Surface4's defaults: theta in [0, 2 pi] with its seam, a pole at each arc end
    return Surface4((x, y, *_turned((([], h, []), ([], [], h)), 1)), ab)


def twisted_arc(arc: KnotArc, axis: TwistAxis, bump: Bump, phi: float):
    """The blended rotated arc at a fixed rotation angle phi, as a function
    t -> (f~, g~, h~)(t) with result shape t.shape + (3,)."""
    coords = _turned(_arc_family(arc, axis, bump), 1)
    return lambda t: _eval_points(partial(_term_rows, coords), t, phi)


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


def _check_height_positive(ab: Interval, height, k: int):
    """Refuse a twist whose height h~ is <= 0 inside ``ab``, at any angle.

    h~ is alpha(t) + beta(t) cos phi + gamma(t) sin phi at phi = k theta, the
    arc family's ``height`` row (alpha, beta, gamma).  So at each of
    PRECHECK_NT interior t samples its least value over every phi is
    alpha - hypot(beta, gamma), taken at phi = atan2(-gamma, -beta): exact
    in phi, sampled in t.  For k = 0 the angle stays 0 and the fixed arc's
    alpha + beta is checked instead."""
    ts = ab.sample(PRECHECK_NT + 2)[1:-1]  # open interior
    alpha, beta, gamma = _eval_points(partial(_term_rows, height), ts, 0.0).T
    low = alpha + beta if k == 0 else alpha - np.hypot(beta, gamma)
    i = np.argmin(low)
    if low[i] <= 0.0:
        phi = 0.0 if k == 0 else math.atan2(-gamma[i], -beta[i]) % TWO_PI
        raise PlaneCrossing(float(ts[i]), phi, float(low[i]))


def twist_spin(arc: KnotArc, axis: TwistAxis, bump: Bump, k: int) -> Surface4:
    """k-twist spun surface (f~(t,k th), g~(t,k th), h~(t,k th) cos th, h~(t,k th) sin th):
    the arc family turned by k theta and spun; k = 0 gives ``spin(arc)`` exactly.

    Rejects k with a ValueError, before any work, unless it is an integer
    in [0, 2**53]; the construction with NoRoom if the bump does not vanish
    at both arc ends (d2 > min(a^2, b^2)), and with PlaneCrossing if the
    rotating knotted part would dip below the xy-plane at any rotation angle
    (exact in the angle, at 2000 samples of t).
    """
    k = _count(k, "twist count k", 0)
    family = _arc_family(arc, axis, bump)
    coords = _turned(family, k)  # Trig refuses k above 2**53
    bound = min(arc.ab.lo ** 2, arc.ab.hi ** 2)
    if bump.d2 > bound:
        raise NoRoom(f"bump support d2={bump.d2!r} reaches past the arc ends: "
                     f"need d2 <= min(a^2, b^2) = {bound:.6g}")
    _check_height_positive(arc.ab, family[2], k)
    return _spun(*coords, arc.ab)


def _polynomialized(s: Surface4, cheb_degree: int, bump_degree: int | None) -> Surface4:
    """``s`` with each distinct cos/sin(k th) factor replaced, once, by its
    Chebyshev interpolant on the theta-domain, and each bump by its fit on
    the t-domain when ``bump_degree`` is given."""
    factors = dict.fromkeys(f for coord in s.coords for term in coord for f in term.t + term.s)
    fits = {f: _chebyshev_interpolant(f, s.s_dom, cheb_degree) for f in factors if isinstance(f, Trig)}
    if bump_degree is not None:
        fits.update((f, _chebyshev_interpolant(f, s.t_dom, bump_degree))
                    for f in factors if isinstance(f, Bump))
    return replace(s, coords=tuple(
        [Term(c, *(tuple(fits.get(f, f) for f in fs) for fs in (tf, sf))) for c, tf, sf in terms]
        for terms in s.coords))


def polynomialize_twist(s: Surface4, cheb_degree: int, bump_degree: int | None = None):
    """Replace every cos(k th) / sin(k th) factor of a surface by its
    Chebyshev interpolant on [0, 2*pi], and (optionally) the bump by a
    Chebyshev fit on the t-domain.  This is the package's one
    polynomialization: the CLI's ``polynomialize`` runs it on the spin of a
    catalog arc and on a surface file alike, and ``spin.polynomial_spin``
    multiplies its result out.

    A fit stays a factor of its own: multiplying it into another polynomial
    would cost accuracy (a degree-40 bump fit times an arc polynomial differs
    from the product of their values by about 4e-2).

    Returns the new surface and its max deviation from ``s`` on a 200x200 grid.
    """
    cheb_degree = _count(cheb_degree, "cheb_degree", 1)
    bump_degree = None if bump_degree is None else _count(bump_degree, "bump_degree", 1)
    out = _polynomialized(s, cheb_degree, bump_degree)
    return out, max_grid_deviation(s, out)
