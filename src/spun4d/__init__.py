"""Spun and twist-spun 2-knots in R^4 from classical polynomial long knots:
construction, polynomialization, numerical embedding checks, and geometry
export.

``import spun4d`` loads no layer and no numpy.  Each public name, and each
submodule, is imported on first use (PEP 562) and read from its home module
at every access, so the package holds no copy of a layer's objects.
``spun4d.spin`` is the function ``spin.spin``, whatever was imported first.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# every submodule, with the public names it defines, in the order of __all__
_LAYERS = {
    "poly": ("Interval", "Poly1", "Poly2", "roots_in_interval"),
    "approx": ("ChebFit", "PerturbationSpec", "bernstein_fit2", "chebyshev_fit", "odd_perturbation"),
    "catalog": ("KnotArc", "get_knot", "knot_names", "lift_height", "plane_double_points"),
    "spin": ("polynomial_spin", "spin"),
    "surface": ("PolyMap4", "Surface4", "max_grid_deviation"),
    "twist": ("Bump", "TwistAxis", "axis_rotation", "choose_bump", "make_axis",
              "polynomialize_twist", "rodrigues", "twist_spin", "twisted_arc"),
    "verify": ("VerifyReport", "boundary_check", "injectivity_scan", "isotopy_family_check",
               "jacobian_rank_scan", "verify_surface"),
    "export": ("SliceCurveSet", "SurfaceMesh", "export_grid_csv", "export_mesh", "export_slices",
               "project", "sample_surface", "slice_surface", "sweep_surface", "to_mesh"),
    "errors": (),
    "cli": (),
}
_HOMES = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    if name in _HOMES:
        return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    if name in _LAYERS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAYERS, *__all__})


class _Package(ModuleType):
    """The package's module type.  Importing a submodule binds it to the
    package under its own name; for a public name that is also a submodule's
    (``spin``) that binding is dropped, so the name keeps resolving to the
    public object."""

    def __setattr__(self, name, value):
        if name in _HOMES and isinstance(value, ModuleType) and value.__name__ == f"{self.__name__}.{name}":
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
