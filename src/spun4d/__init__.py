"""Spun and twist-spun 2-knots in R^4 from classical polynomial long knots:
construction, polynomialization, numerical embedding checks, and geometry
export."""

from .poly import Interval, Poly1, Poly2, roots_in_interval
from .approx import ChebFit, PerturbationSpec, bernstein_fit2, chebyshev_fit, odd_perturbation
from .catalog import KnotArc, get_knot, knot_names, lift_height, plane_double_points
from .spin import polynomial_spin, spin
from .surface import PolyMap4, Surface4, max_grid_deviation
from .twist import (
    Bump, TwistAxis, axis_rotation, choose_bump, make_axis, polynomialize_twist,
    rodrigues, twist_spin, twisted_arc,
)
from .verify import (
    VerifyReport, boundary_check, injectivity_scan, isotopy_family_check,
    jacobian_rank_scan, verify_surface,
)
from .export import (
    SliceCurveSet, SurfaceMesh, export_grid_csv, export_mesh, export_slices,
    project, sample_surface, slice_surface, sweep_surface, to_mesh,
)

__version__ = "0.1.0"

__all__ = [
    "Interval", "Poly1", "Poly2", "roots_in_interval",
    "ChebFit", "PerturbationSpec", "bernstein_fit2", "chebyshev_fit", "odd_perturbation",
    "KnotArc", "get_knot", "knot_names", "lift_height", "plane_double_points",
    "polynomial_spin", "spin",
    "PolyMap4", "Surface4", "max_grid_deviation",
    "Bump", "TwistAxis", "axis_rotation", "choose_bump", "make_axis",
    "polynomialize_twist", "rodrigues", "twist_spin", "twisted_arc",
    "VerifyReport", "boundary_check", "injectivity_scan", "isotopy_family_check",
    "jacobian_rank_scan", "verify_surface",
    "SliceCurveSet", "SurfaceMesh", "export_grid_csv", "export_mesh", "export_slices",
    "project", "sample_surface", "slice_surface", "sweep_surface", "to_mesh",
    "__version__",
]
