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
from .poly import Poly2, _count
from .surface import PolyMap4, Surface4, Term
from .twist import _polynomialized, _spun

__all__ = ["spin", "polynomial_spin"]


def spin(arc: KnotArc) -> Surface4:
    """Exact spun surface (f(t), g(t), h(t) cos(theta), h(t) sin(theta)): a
    topological 2-sphere, with a cone point at each pole unless the arc
    meets the plane h = 0 at a right angle there."""
    return _spun(*([Term(1.0, (p,))] for p in (arc.f, arc.g, arc.h)), arc.ab)


def polynomial_spin(arc: KnotArc, cheb_degree: int) -> PolyMap4:
    """The spin of ``arc`` polynomialized as ``twist.polynomialize_twist``
    does it, cos and sin replaced by their Chebyshev interpolants on [0, 2*pi],
    multiplied out into a ``PolyMap4`` (f(t), g(t), h(t) C(theta), h(t) S(theta))
    that the spin's own evaluator samples, by rows in the powers of t.

    The deviation from the exact spin is bounded by max|h| times the fit
    errors; compare with ``surface.max_grid_deviation``.
    """
    cheb_degree = _count(cheb_degree, "cheb_degree", 6)
    s = _polynomialized(spin(arc), cheb_degree, None)
    return PolyMap4(tuple(map(_multiplied_out, s.coords)), s.t_dom, s.s_dom,
                    s.periodic_s, s.pole_low, s.pole_high)


def _multiplied_out(terms) -> Poly2:
    """A sum of terms c a(t) b(theta) whose factors are all ``Poly1``s,
    multiplied out into one ``Poly2``."""
    return sum((Poly2(np.outer(reduce(np.convolve, [f.coeffs for f in tf], np.array([c])),
                               reduce(np.convolve, [f.coeffs for f in sf], np.ones(1))))
                for c, tf, sf in terms), Poly2())
