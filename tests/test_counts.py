"""Every count the package takes (a grid size, a degree, N or k) is checked
by one rule, ``poly._count``, before any work: an integer, not a bool, at
least its least value, refused otherwise with a ValueError naming it.  So is
every real-valued setting of the scans, a slice and root isolation, by
``poly._real``: a real number, not a bool nor a string, in its range.  The
real numbers the package keeps are the Python floats that rule returns
(``KEPT``), and the models' flags are bools.  A model has four coordinates
and domains of positive finite length, checked where it is built."""

import json
import math
import pickle
import re
import sys
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

import spun4d.surface as surface_module
import spun4d.twist as twist_module
import spun4d.verify as verify_module
from spun4d.approx import (
    PerturbationSpec, bernstein_fit2, bernstein_lattice, chebyshev_fit, odd_perturbation,
)
from spun4d.catalog import get_knot
from spun4d.export import sample_surface, slice_surface, sweep_surface
from spun4d.poly import Interval, Poly1, Poly2, roots_in_interval
from spun4d.spin import polynomial_spin, spin
from spun4d.surface import Bump, PolyMap4, Surface4, Trig, max_grid_deviation, surface_from_json
from spun4d.twist import choose_bump, make_axis, polynomialize_twist, twist_spin
from spun4d.verify import injectivity_scan, isotopy_family_check, jacobian_rank_scan, verify_surface


@pytest.fixture(scope="module")
def ctx():
    arc = get_knot("trefoil_spun")
    twist_arc = get_knot("trefoil_twist")
    axis = make_axis(twist_arc, -2.19, 2.19)
    return SimpleNamespace(arc=arc, s=spin(arc), polys=polynomial_spin(arc, 8).polys,
                           twist=(twist_arc, axis, choose_bump(twist_arc, axis)))


# the entry point, the count's name, its least value, and a call with the count n
COUNTS = [
    ("jacobian_rank_scan", "n_t", 16, lambda c, n: jacobian_rank_scan(c.s, n, 16)),
    ("jacobian_rank_scan", "n_s", 16, lambda c, n: jacobian_rank_scan(c.s, 16, n)),
    ("injectivity_scan", "n_t", 16, lambda c, n: injectivity_scan(c.s, n, 16, 0.05)),
    ("injectivity_scan", "n_s", 16, lambda c, n: injectivity_scan(c.s, 16, n, 0.05)),
    ("verify_surface", "n_rank", 16, lambda c, n: verify_surface(c.s, c.arc, n, 16)),
    ("verify_surface", "n_inject", 16, lambda c, n: verify_surface(c.s, c.arc, 16, n)),
    ("sample_surface", "n_t", 2, lambda c, n: sample_surface(c.s, n, 2)),
    ("sample_surface", "n_s", 2, lambda c, n: sample_surface(c.s, 2, n)),
    ("slice_surface", "n_t", 64, lambda c, n: slice_surface(c.s, "w", 0.5, n, 64)),
    ("slice_surface", "n_s", 64, lambda c, n: slice_surface(c.s, "w", 0.5, 64, n)),
    ("sweep_surface", "n_t", 64, lambda c, n: sweep_surface(c.s, "w", 1, n, 64)),
    ("sweep_surface", "n_s", 64, lambda c, n: sweep_surface(c.s, "w", 1, 64, n)),
    ("sweep_surface", "count", 1, lambda c, n: sweep_surface(c.s, "w", n, 64, 64)),
    ("max_grid_deviation", "n_t", 1, lambda c, n: max_grid_deviation(c.s, c.s, n, 1)),
    ("max_grid_deviation", "n_s", 1, lambda c, n: max_grid_deviation(c.s, c.s, 1, n)),
    ("chebyshev_fit", "degree", 1, lambda c, n: chebyshev_fit(np.cos, Interval(0.0, 1.0), n)),
    ("polynomialize_twist", "cheb_degree", 1, lambda c, n: polynomialize_twist(c.s, n)),
    ("polynomialize_twist", "bump_degree", 1, lambda c, n: polynomialize_twist(c.s, 1, n)),
    ("polynomial_spin", "cheb_degree", 6, lambda c, n: polynomial_spin(c.arc, n)),
    ("bernstein_fit2", "degree", 1, lambda c, n: bernstein_fit2(np.ones((2, 2, 4)), n)),
    ("bernstein_lattice", "degree", 1, lambda c, n: bernstein_lattice(n)),
    ("odd_perturbation", "N", 1, lambda c, n: odd_perturbation(c.polys, n, [])),
    ("Poly1.derivative", "order", 1, lambda c, n: Poly1((1.0, 2.0, 3.0)).derivative(n)),
    ("Trig", "trig multiple k", 0, lambda c, n: Trig(n)),
    ("twist_spin", "twist count k", 0, lambda c, n: twist_spin(*c.twist, n)),
]
IDS = [f"{entry}-{name}" for entry, name, _, _ in COUNTS]


@pytest.fixture
def evaluated(monkeypatch):
    """The number of calls of the samplers' evaluator and term rows."""
    calls = []

    def counting(real):
        return lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs)

    for module in (surface_module, twist_module):
        for fn in ("_eval_points", "_term_rows"):
            monkeypatch.setattr(module, fn, counting(getattr(module, fn)))
    return calls


@pytest.mark.parametrize("entry, name, least, call", COUNTS, ids=IDS)
@pytest.mark.parametrize("bad", [16.5, 2.5, 2.0, True, np.True_, "16"])
def test_a_count_that_is_not_an_integer_is_refused_before_any_work(ctx, evaluated, entry, name,
                                                                   least, call, bad):
    words = f"^{re.escape(name)} must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=words):
        call(ctx, bad)
    assert evaluated == []


@pytest.mark.parametrize("entry, name, least, call", COUNTS, ids=IDS)
def test_a_count_below_its_least_value_is_refused_before_any_work(ctx, evaluated, entry, name,
                                                                  least, call):
    words = f"^{re.escape(name)} must be at least {least}, got {least - 1}$"
    for n in (least - 1, np.int64(least - 1)):
        with pytest.raises(ValueError, match=words):
            call(ctx, n)
    assert evaluated == []


@pytest.mark.parametrize("entry, name, least, call", COUNTS, ids=IDS)
def test_a_numpy_integer_count_gives_the_result_of_an_int(ctx, entry, name, least, call):
    # pickled, the results agree in every value and type, a Python int for the count included
    assert pickle.dumps(call(ctx, np.int64(least))) == pickle.dumps(call(ctx, least))


def test_a_report_of_numpy_grid_sizes_is_json(ctx):
    report = verify_surface(ctx.s, ctx.arc, np.int64(32), np.int64(48))
    assert report.grid == (32, 48) and all(type(n) is int for n in report.grid)
    assert json.loads(json.dumps(report.to_json()))["grid"] == [32, 48]


# the entry point, the setting's name, a value it takes, the values out of its
# range, and a call with the setting x
_FAMILY = (PerturbationSpec(1, 1e-3), [0.0])
SETTINGS = [
    ("jacobian_rank_scan", "tol", 1e-6, [0.0, 1.0, -0.5, 2.0, math.inf],
     lambda c, x: jacobian_rank_scan(c.s, 16, 16, x)),
    ("injectivity_scan", "param_sep", 0.05, [0.0, 1.0, -0.1, 5, math.inf],
     lambda c, x: injectivity_scan(c.s, 16, 16, x)),
    ("injectivity_scan", "image_tol", 1e-3, [0.0, -1e-3, 1e-200, -math.inf],
     lambda c, x: injectivity_scan(c.s, 16, 16, 0.05, x)),
    ("verify_surface", "rank_tol", 1e-6, [0.0, 1.0, 2.0],
     lambda c, x: verify_surface(c.s, c.arc, 16, 16, rank_tol=x)),
    ("verify_surface", "param_sep", 0.05, [0.0, 1.0, 5],
     lambda c, x: verify_surface(c.s, c.arc, 16, 16, param_sep=x)),
    ("verify_surface", "image_tol", 1e-3, [0.0, -1e-3, 1e-200],
     lambda c, x: verify_surface(c.s, c.arc, 16, 16, image_tol=x)),
    ("isotopy_family_check", "rank_tol", 1e-6, [0.0, 1.0],
     lambda c, x: isotopy_family_check(c.poly, *_FAMILY, 16, 16, rank_tol=x)),
    ("isotopy_family_check", "param_sep", 0.05, [0.0, 1.0, 5],
     lambda c, x: isotopy_family_check(c.poly, *_FAMILY, 16, 16, param_sep=x)),
    ("isotopy_family_check", "image_tol", 1e-3, [0.0, 1e-200],
     lambda c, x: isotopy_family_check(c.poly, *_FAMILY, 16, 16, image_tol=x)),
    ("slice_surface", "slice value", 0.5, [math.inf, -math.inf],
     lambda c, x: slice_surface(c.s, "w", x, 64, 64)),
    ("roots_in_interval", "tol", 1e-9, [0.0, -1e-9, -math.inf],
     lambda c, x: roots_in_interval(Poly1((0.25, -1.0, 1.0)), Interval(-1.0, 1.0), x)),
]
SETTING_IDS = [f"{entry}-{name}" for entry, name, _, _, _ in SETTINGS]


@pytest.fixture(scope="module")
def poly_ctx(ctx):
    return SimpleNamespace(**vars(ctx), poly=polynomial_spin(ctx.arc, 8))


@pytest.fixture
def scanned(monkeypatch):
    """The calls of the samplers' rows, the Gram grid and the point evaluator."""
    calls = []

    def counting(real):
        return lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs)

    for owner, fn in ((Surface4, "_rows"), (PolyMap4, "_rows"), (verify_module, "_gram_grid"),
                      (surface_module, "_eval_points")):
        monkeypatch.setattr(owner, fn, counting(getattr(owner, fn)))
    return calls


@pytest.mark.parametrize("entry, name, good, out_of_range, call", SETTINGS, ids=SETTING_IDS)
@pytest.mark.parametrize("bad", [True, np.True_, False, "0.1", None, math.nan, [0.1]])
def test_a_real_setting_that_is_not_a_real_number_is_refused_before_any_work(
        poly_ctx, scanned, entry, name, good, out_of_range, call, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(poly_ctx, bad)
    assert scanned == []


@pytest.mark.parametrize("entry, name, good, out_of_range, call", SETTINGS, ids=SETTING_IDS)
def test_a_real_setting_out_of_its_range_is_refused_before_any_work(poly_ctx, scanned, entry, name,
                                                                    good, out_of_range, call):
    for x in out_of_range:
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
            call(poly_ctx, x)
    assert scanned == []


@pytest.mark.parametrize("entry, name, good, out_of_range, call", SETTINGS, ids=SETTING_IDS)
def test_a_numpy_real_setting_gives_the_result_of_a_float(poly_ctx, entry, name, good,
                                                          out_of_range, call):
    def plain(result):
        doc = result.to_json() if hasattr(result, "to_json") else result
        return json.dumps(doc, default=repr)

    assert plain(call(poly_ctx, np.float64(good))) == plain(call(poly_ctx, good))
    call(poly_ctx, np.float32(good))


def test_the_settings_of_verify_surface_are_checked_before_its_rank_scan(ctx, scanned):
    # each bad setting is refused before the first scan, whichever scan reads it
    for bad in ({"param_sep": 2.0}, {"image_tol": 1e-200}, {"rank_tol": "0.5"}, {"n_inject": 8}):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be "):
            verify_surface(ctx.s, None, **{"n_rank": 200, "n_inject": 400, **bad})
    assert scanned == []


@pytest.mark.parametrize("bad", [True, np.True_, "0.5", None, math.nan])
def test_a_bool_or_a_string_is_refused_where_a_real_number_is_taken(poly_ctx, bad):
    from spun4d.surface import Bump

    twist_arc = poly_ctx.twist[0]
    with pytest.raises(ValueError, match="^need 0 < d1 < d2"):
        Bump(bad, 2.0)
    with pytest.raises(ValueError, match="^axis endpoints must be arc points"):
        make_axis(twist_arc, bad, 2.19)
    with pytest.raises(ValueError, match="^u_samples must be one or more finite u"):
        isotopy_family_check(poly_ctx.poly, _FAMILY[0], [0.0, bad], 16, 16)


def _kept_locals(fn_name, names, call):
    """The locals ``names`` of the function ``fn_name`` as it first returns,
    the values it computed with, and the result of ``call()``."""
    seen = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code.co_name == fn_name and not seen:
            seen.append([frame.f_locals[n] for n in names])

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return seen[0], result


def _family_kept(call):
    """verify_surface's kept settings, and the result of ``call()``."""
    return _kept_locals("verify_surface", ["rank_tol", "param_sep", "image_tol"], call)


def _report_kept(call):
    """verify_surface's kept settings and its report's tolerances, and the report."""
    kept, report = _family_kept(call)
    return kept + list(report.tolerances.values()), report


def _u_kept(c, x):
    """The u that isotopy_family_check keeps for ``[x]``, and its verdict."""
    (us,), ok = _kept_locals("isotopy_family_check", ["us"],
                             lambda: isotopy_family_check(c.poly, _FAMILY[0], [x], 16, 16))
    return us, ok


def _fields(obj, *names):
    """The values of ``obj``'s fields ``names``, and ``obj``."""
    return [getattr(obj, n) for n in names], obj


# Every real the package keeps is a Python float.  Per site: a float it
# takes, an int it takes (None where its range, (0, 1), holds no int), and a
# call with x that returns the values the site kept and its result
KEPT = [
    ("jacobian_rank_scan tol", 1e-6, None, lambda c, x: _kept_locals(
        "jacobian_rank_scan", ["tol"], lambda: jacobian_rank_scan(c.s, 16, 16, x))),
    ("injectivity_scan param_sep", 0.05, None, lambda c, x: _kept_locals(
        "injectivity_scan", ["param_sep", "image_tol"], lambda: injectivity_scan(c.s, 16, 16, x))),
    ("injectivity_scan image_tol", 0.5, 1, lambda c, x: _kept_locals(
        "injectivity_scan", ["param_sep", "image_tol"], lambda: injectivity_scan(c.s, 16, 16, 0.05, x))),
    ("verify_surface rank_tol", 1e-6, None,
     lambda c, x: _report_kept(lambda: verify_surface(c.s, c.arc, 16, 16, rank_tol=x))),
    ("verify_surface param_sep", 0.05, None,
     lambda c, x: _report_kept(lambda: verify_surface(c.s, c.arc, 16, 16, param_sep=x))),
    ("verify_surface image_tol", 0.5, 1,
     lambda c, x: _report_kept(lambda: verify_surface(c.s, c.arc, 16, 16, image_tol=x))),
    ("isotopy_family_check rank_tol", 1e-6, None,
     lambda c, x: _family_kept(lambda: isotopy_family_check(c.poly, *_FAMILY, 16, 16, rank_tol=x))),
    ("isotopy_family_check param_sep", 0.05, None,
     lambda c, x: _family_kept(lambda: isotopy_family_check(c.poly, *_FAMILY, 16, 16, param_sep=x))),
    ("isotopy_family_check image_tol", 0.5, 1,
     lambda c, x: _family_kept(lambda: isotopy_family_check(c.poly, *_FAMILY, 16, 16, image_tol=x))),
    ("isotopy_family_check u", 0.5, 1, _u_kept),
    ("Interval", 2.5, 2, lambda c, x: _fields(Interval(-x, x), "lo", "hi")),
    ("Bump", 1.5, 1, lambda c, x: _fields(Bump(x, 2 * x), "d1", "d2")),
    ("make_axis", 2.19, 2, lambda c, x: _fields(make_axis(c.twist[0], -x, x), "t1", "t2")),
    ("roots_in_interval tol", 1e-9, 1, lambda c, x: _kept_locals(
        "roots_in_interval", ["tol"],
        lambda: roots_in_interval(Poly1((0.25, -1.0, 1.0)), Interval(-1.0, 1.0), x))),
]
_NUMBER_TYPES = {"np.float32": np.float32, "np.float64": np.float64, "np.int64": np.int64, "int": int}
KEPT_CASES = [pytest.param(call, kind(whole if kind in (np.int64, int) else real), id=f"{site}-{name}")
              for site, real, whole, call in KEPT for name, kind in _NUMBER_TYPES.items()
              if whole is not None or kind not in (np.int64, int)]


@pytest.mark.parametrize("call, x", KEPT_CASES)
def test_a_real_is_kept_as_a_float_and_gives_the_result_of_that_float(poly_ctx, call, x):
    kept, result = call(poly_ctx, x)
    assert kept and all(type(v) is float for v in kept), kept
    # pickled, the results agree in every value and type
    assert pickle.dumps(result) == pickle.dumps(call(poly_ctx, float(x))[1])


@pytest.mark.parametrize("image_tol", [np.float32(0.5), np.float64(0.5), np.int64(1)],
                         ids=["np.float32", "np.float64", "np.int64"])
def test_no_scan_computes_its_cells_from_a_numpy_scalar(poly_ctx, monkeypatch, image_tol):
    # _half_width sizes the cells of both stages, on the factor route and on
    # the image route of an evaluate-only sampler
    seen, real = [], verify_module._half_width
    monkeypatch.setattr(verify_module, "_half_width",
                        lambda r, room: seen.append((type(r), type(room))) or real(r, room))
    s = poly_ctx.s
    evaluate_only = SimpleNamespace(evaluate=s.evaluate, t_dom=s.t_dom, s_dom=s.s_dom,
                                    periodic_s=s.periodic_s, pole_low=s.pole_low, pole_high=s.pole_high)
    verify_surface(s, None, 16, 16, image_tol=image_tol)
    injectivity_scan(evaluate_only, 16, 16, 0.05, image_tol)
    assert len(seen) == 4 and set(seen) == {(float, float)}


def test_reports_and_surfaces_built_from_float32_values_are_json(ctx):
    arc, twist_arc = ctx.arc, ctx.twist[0]
    report = verify_surface(spin(arc), arc, 16, 16, image_tol=np.float32(1e-3))
    assert json.loads(json.dumps(report.to_json()))["tolerances"]["image_tol"] == float(np.float32(1e-3))
    lo, hi = np.float32(-2.19), np.float32(2.19)
    docs = [json.dumps(twist_spin(twist_arc, a, choose_bump(twist_arc, a), 1).to_json())
            for a in (make_axis(twist_arc, lo, hi), make_axis(twist_arc, float(lo), float(hi)))]
    assert docs[0] == docs[1]
    ends = (np.float32(arc.ab.lo), np.float32(arc.ab.hi))
    docs = [json.dumps(replace(spin(arc), t_dom=Interval(*map(kind, ends))).to_json())
            for kind in (lambda x: x, float)]
    assert docs[0] == docs[1]


def test_roots_with_a_float32_tol_are_those_of_its_float():
    # a float32 tol times the scale 2e45 would overflow to inf and keep the
    # minimum of a polynomial with no real root
    p, iv = Poly1((1e45, 0.0, 1e45)), Interval(-1.0, 1.0)
    assert roots_in_interval(p, iv, np.float32(1e-9)) == [] == roots_in_interval(p, iv, 1e-9)


def _models(flag, real):
    """A spin and a fold PolyMap4 with the flags ``flag(True)`` and
    ``flag(False)`` and domains of the numbers ``real(x)``."""
    arc = get_knot("trefoil_spun")
    t_dom = Interval(real(arc.ab.lo), real(arc.ab.hi))
    s_dom = Interval(real(0.0), real(6.25))
    fold = (Poly2.from_t(Poly1((0.0, 0.0, 1.0))), Poly2.from_s(Poly1((0.0, 1.0))), Poly2(), Poly2())
    return (replace(spin(arc), t_dom=t_dom, s_dom=s_dom, periodic_s=flag(False), pole_low=flag(True)),
            PolyMap4(fold, t_dom, s_dom, flag(True), flag(False), flag(True)))


def test_models_of_numpy_flags_and_float32_domains_write_json_that_reads_back():
    plain = _models(bool, lambda x: float(np.float32(x)))
    for model, want in zip(_models(np.bool_, np.float32), plain):
        assert all(type(getattr(model, key)) is bool for key in ("periodic_s", "pole_low", "pole_high"))
        read = surface_from_json(json.loads(json.dumps(model.to_json())))
        assert type(read) is type(want) and read.to_json() == want.to_json()
        keys = ("t_dom", "s_dom", "periodic_s", "pole_low", "pole_high")
        assert [getattr(read, k) for k in keys] == [getattr(want, k) for k in keys]
        assert isinstance(want, PolyMap4) or read == want


def _rebuilt(model, **changes):
    """``model`` built again by its constructor, with ``changes``."""
    return type(model)(**{**{f.name: getattr(model, f.name) for f in fields(model)}, **changes})


@pytest.mark.parametrize("key", ["t_dom", "s_dom"])
def test_a_domain_whose_length_overflows_is_refused_in_the_file_readers_words(key):
    wide = Interval(-1e308, 1e308)
    want = "^" + re.escape(f"key '{key}': the domain's length overflows, got [-1e+308, 1e+308]") + "$"
    for model in _models(bool, float):
        for build in (replace, _rebuilt):
            with pytest.raises(ValueError, match=want):
                build(model, **{key: wide})
        doc = {**model.to_json(), key: [-1e308, 1e308]}
        with pytest.raises(ValueError, match=want):
            surface_from_json(json.loads(json.dumps(doc)))
        # finite ends, finite length: the widest domain that is kept
        assert getattr(replace(model, **{key: Interval(-8e307, 8e307)}), key).length == 1.6e308


@pytest.mark.parametrize("key", ["t_dom", "s_dom"])
def test_a_domain_of_length_0_is_refused_in_the_file_readers_words(key):
    # over it every parameter separation of the injectivity scan is 0 / 0, and
    # the rank scan and a mesh sample one curve as if it were a surface
    want = "^" + re.escape(f"key '{key}': the domain has length 0, got [0.5, 0.5]") + "$"
    for model in _models(bool, float):
        for build in (replace, _rebuilt):
            with pytest.raises(ValueError, match=want):
                build(model, **{key: Interval(0.5, 0.5)})
        doc = {**model.to_json(), key: [0.5, 0.5]}
        with pytest.raises(ValueError, match=want):
            surface_from_json(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("n", [3, 5])
def test_a_model_of_other_than_four_coordinates_is_refused_in_the_file_readers_words(n):
    want = f"^key 'coords' must be a list of 4 coordinates, got {n}$"
    for model in _models(bool, float):
        key = "coords" if isinstance(model, Surface4) else "polys"
        coords = (getattr(model, key) * 2)[:n]
        for build in (replace, _rebuilt):
            with pytest.raises(ValueError, match=want):
                build(model, **{key: coords})


@pytest.mark.parametrize("bad", [1, 0, None, "true", np.int64(1), 1.0],
                         ids=["1", "0", "None", "'true'", "np.int64(1)", "1.0"])
def test_a_flag_that_is_not_a_bool_is_refused_in_the_file_readers_words(bad):
    for model in _models(bool, float):
        with pytest.raises(ValueError, match=f"^key 'pole_low' must be true or false, got {re.escape(repr(bad))}$"):
            replace(model, pole_low=bad)
