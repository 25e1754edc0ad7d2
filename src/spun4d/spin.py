"""Artin spin construction: rotate a knotted arc in the upper half 3-space
about its boundary plane, sweeping out a 2-sphere in R^4."""

from __future__ import annotations

import numpy as np

from .approx import chebyshev_fit
from .catalog import KnotArc
from .poly import Interval, Poly2
from .surface import TWO_PI, PolyMap4, Surface4, Term, Trig

__all__ = ["spin", "polynomial_spin"]


def spin(arc: KnotArc) -> Surface4:
    """Exact spun surface (f(t), g(t), h(t) cos(theta), h(t) sin(theta))."""
    return Surface4(
        coords=(
            (Term(1.0, (arc.f,)),),
            (Term(1.0, (arc.g,)),),
            (Term(1.0, (arc.h,), (Trig(1),)),),
            (Term(1.0, (arc.h,), (Trig(1, sine=True),)),),
        ),
        t_dom=arc.ab,
        s_dom=Interval(0.0, TWO_PI),
        periodic_s=True,
        pole_low=True,
        pole_high=True,
    )


def polynomial_spin(arc: KnotArc, cheb_degree: int) -> PolyMap4:
    """Fully polynomial spun surface with the reference cosine/sine replaced by
    their Chebyshev interpolants on [0, 2*pi].

    The deviation from the exact spin is bounded by max|h| times the fit
    errors; compare with ``surface.max_grid_deviation``.
    """
    if cheb_degree < 6:
        raise ValueError(f"cheb_degree must be >= 6, got {cheb_degree}")
    dom = Interval(0.0, TWO_PI)
    C = chebyshev_fit(np.cos, dom, cheb_degree).poly
    S = chebyshev_fit(np.sin, dom, cheb_degree).poly
    h2 = Poly2.from_t(arc.h)
    return PolyMap4(
        polys=(
            Poly2.from_t(arc.f),
            Poly2.from_t(arc.g),
            h2 * Poly2.from_s(C),
            h2 * Poly2.from_s(S),
        ),
        t_dom=arc.ab,
        s_dom=dom,
        periodic_s=True,
        pole_low=True,
        pole_high=True,
    )
