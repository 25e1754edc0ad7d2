"""Artin spin construction: rotate a knotted arc in the upper half 3-space
about its boundary plane, sweeping out a topological 2-sphere in R^4.

The sphere is smooth at a pole only if the arc meets the plane h = 0 at a
right angle there (f' = g' = 0).  Otherwise the pole is a cone point: the
arc's end tangent makes a cone of half-angle atan(|h'| / |(f', g')|) with
the plane, 13.0 degrees for ``trefoil_spun``, 12.8 for ``trefoil_twist`` and
68.0 for ``figure8_spun``, where a smooth pole gives 90."""

from __future__ import annotations

from functools import reduce

import numpy as np

from .catalog import KnotArc
from .poly import Poly2
from .surface import PolyMap4, Surface4, Term, Trig
from .twist import _polynomialized

__all__ = ["spin", "polynomial_spin"]


def spin(arc: KnotArc) -> Surface4:
    """Exact spun surface (f(t), g(t), h(t) cos(theta), h(t) sin(theta)): a
    topological 2-sphere, with a cone point at each pole unless the arc
    meets the plane h = 0 at a right angle there."""
    # Surface4's defaults: theta in [0, 2 pi] with its seam, a pole at each arc end
    return Surface4((
        (Term(1.0, (arc.f,)),),
        (Term(1.0, (arc.g,)),),
        (Term(1.0, (arc.h,), (Trig(1),)),),
        (Term(1.0, (arc.h,), (Trig(1, sine=True),)),),
    ), arc.ab)


def polynomial_spin(arc: KnotArc, cheb_degree: int) -> PolyMap4:
    """The spin of ``arc`` polynomialized as ``twist.polynomialize_twist``
    does it, with cos and sin replaced by their Chebyshev interpolants on
    [0, 2*pi], and multiplied out into a ``PolyMap4``:
    (f(t), g(t), h(t) C(theta), h(t) S(theta)).

    The deviation from the exact spin is bounded by max|h| times the fit
    errors; compare with ``surface.max_grid_deviation``.
    """
    if cheb_degree < 6:
        raise ValueError(f"cheb_degree must be >= 6, got {cheb_degree}")
    s = _polynomialized(spin(arc), cheb_degree, None)
    return PolyMap4(tuple(map(_multiplied_out, s.coords)), s.t_dom, s.s_dom,
                    s.periodic_s, s.pole_low, s.pole_high)


def _multiplied_out(terms) -> Poly2:
    """A sum of terms c a(t) b(theta) whose factors are all ``Poly1``s,
    multiplied out into one ``Poly2``."""
    return sum((Poly2(np.outer(reduce(np.convolve, [f.coeffs for f in tf], np.array([c])),
                               reduce(np.convolve, [f.coeffs for f in sf], np.ones(1))))
                for c, tf, sf in terms), Poly2())
