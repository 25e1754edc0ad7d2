import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import spun4d

import spun4d.surface as surface_module
import spun4d.verify as verify_module
from spun4d.approx import PerturbationSpec, odd_perturbation
from spun4d.catalog import KnotArc, get_knot
from spun4d.poly import Interval, Poly1, Poly2
from spun4d.spin import polynomial_spin, spin
from spun4d.surface import PolyMap4, Surface4, Term
from spun4d.twist import choose_bump, make_axis, twist_spin
from spun4d.verify import (
    _PLANE, MAX_COLLISIONS, VerifyReport, _factor_plane, _gram_grid, _inset_samples, _space_pairs,
    boundary_check, injectivity_scan, isotopy_family_check, jacobian_rank_scan, verify_surface,
)
from test_reference_impls import factor_partials_reference, row_pairs

TWO_PI = 2.0 * math.pi


def _unknot():
    return KnotArc("unknot", Poly1((0.0, 1.0)), Poly1(()), Poly1((1.0, 0.0, -1.0)),
                   Interval(-1.0, 1.0), None, ())


def test_rank_scan_passes_on_embedded_sphere():
    ok, ratio = jacobian_rank_scan(spin(_unknot()), 64, 64)
    assert ok and ratio > 1e-3


def test_rank_scan_fails_on_degenerate_map():
    # second coordinate function is constant in s: rank 1 everywhere
    flat = PolyMap4(
        (Poly2.from_t(Poly1((0.0, 1.0))), Poly2.from_t(Poly1((0.0, 2.0))),
         Poly2(), Poly2()),
        Interval(-1, 1), Interval(-1, 1),
    )
    ok, ratio = jacobian_rank_scan(flat, 32, 32)
    assert not ok and ratio == 0.0


def test_rank_scan_input_validation():
    s = spin(_unknot())
    with pytest.raises(ValueError):
        jacobian_rank_scan(s, 8, 64)
    with pytest.raises(ValueError):
        jacobian_rank_scan(s, 64, 64, tol=1.5)


def test_injectivity_scan_input_validation():
    s = spin(_unknot())
    for image_tol in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError, match="image_tol must be > 0"):
            injectivity_scan(s, 64, 64, 0.05, image_tol)
    # below 2**-511 the squared tolerance of the distance test is subnormal
    assert injectivity_scan(s, 64, 64, 0.05, 2.0 ** -511) == []
    with pytest.raises(ValueError, match=r"image_tol must be at least 2\*\*-511"):
        injectivity_scan(s, 64, 64, 0.05, np.nextafter(2.0 ** -511, 0.0))
    # 1e300 t^2 overflows to inf at t = +-1e5
    huge = PolyMap4((Poly2.from_t(Poly1((0.0, 0.0, 1e300))), Poly2.from_s(Poly1((0.0, 1.0))),
                     Poly2(), Poly2()), Interval(-1e5, 1e5), Interval(-1, 1))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        injectivity_scan(huge, 64, 64, 0.05)
    # over a zero-length domain every parameter separation is 0 / 0, which no
    # pair exceeds; a model refuses such a domain when it is built, so the
    # scan's own check is for evaluate-only samplers
    for key in ("t_dom", "s_dom"):
        flat = _EvaluateOnly(s)
        setattr(flat, key, Interval(0.5, 0.5))
        with pytest.raises(ValueError, match=f"{key} must have positive length"):
            injectivity_scan(flat, 64, 64, 0.05)


def _twist_k10():
    arc = get_knot("trefoil_twist")
    axis = make_axis(arc, -2.19, 2.19)
    return twist_spin(arc, axis, choose_bump(arc, axis), 10)


def _scaled(s, k):
    return Surface4(tuple(tuple(Term(c * k, tf, sf) for c, tf, sf in terms) for terms in s.coords),
                    s.t_dom, s.s_dom, s.periodic_s, s.pole_low, s.pole_high)


def test_injectivity_scan_refuses_an_overflowing_t_factor():
    # 1e300 t^2 overflows to inf at t = +-1e5, so the grid factors' bound is
    # not finite and the refusal comes from the evaluated images
    huge = Surface4(((Term(1e300, (Poly1((0.0, 0.0, 1.0)),)),), (Term(1.0, (), (Poly1((0.0, 1.0)),)),),
                     (), ()), Interval(-1e5, 1e5), Interval(-1.0, 1.0), False, False, False)
    with pytest.raises(ValueError, match="not finite"):
        injectivity_scan(huge, 64, 64, 0.05)


def _huge_surfaces():
    """The spin and the degree-8 polynomial spin of the unknot, scaled by 1e200."""
    poly = polynomial_spin(_unknot(), 8)
    return (_scaled(spin(_unknot()), 1e200),
            PolyMap4(tuple(Poly2(p.coeffs * 1e200) for p in poly.polys), poly.t_dom, poly.s_dom,
                     poly.periodic_s, poly.pole_low, poly.pole_high))


def test_injectivity_scan_of_a_huge_finite_surface():
    # scaled by 1e200, the factors' products stay finite, and the hashed
    # coordinates stay in int64 range: the suite turns any RuntimeWarning
    # into an error
    for s in _huge_surfaces():
        assert injectivity_scan(s, 128, 128, 0.05) == []


def test_rank_scan_of_a_huge_finite_surface_is_refused():
    # the partials are finite, but their squares in the Gram matrix overflow
    for s in _huge_surfaces():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite on the rank grid, or its Gram matrix overflows"):
                jacobian_rank_scan(s, 64, 64)


def test_injectivity_scan_evaluates_images_at_suspects_only(monkeypatch):
    # the plane coordinates come from the grid factors, so only the nodes
    # that share a plane cell with another node have their images evaluated
    s = _twist_k10()
    tvals, svals = s.t_dom.sample(400), 2.0 * np.pi * np.arange(400) / 400
    rows = row_pairs(s, tvals, svals)
    summed = np.zeros((400, 400, 4))
    for i, (a, b) in enumerate(rows):
        for k in range(a.shape[1]):
            summed[..., i] += a[0, k, :, None] * b[0, k]
    assert summed.tobytes() == s.eval_grid(tvals, svals).tobytes()
    points = []
    evaluate = surface_module._eval_points

    def counting(coords, t, th, deriv=""):
        points.append(np.broadcast(t, th).size)
        return evaluate(coords, t, th, deriv)

    monkeypatch.setattr(surface_module, "_eval_points", counting)
    assert injectivity_scan(s, 400, 400, 0.05, 1e-3) == []
    assert 0 < sum(points) < 0.02 * 400 * 400


def test_injectivity_clean_on_sphere():
    assert injectivity_scan(spin(_unknot()), 128, 128, 0.05, 1e-3) == []


def test_injectivity_no_false_positives_at_seam_and_poles():
    # seam (theta = 0 vs 2*pi) and pole rows are identified parameters and
    # must not be reported even at a huge image tolerance
    s = spin(_unknot())
    cols = injectivity_scan(s, 64, 64, param_sep=0.45, image_tol=0.05)
    assert cols == []


def test_injectivity_detects_planted_collision():
    # (t^2, s, 0, 0): t and -t have identical images
    folded = PolyMap4(
        (Poly2.from_t(Poly1((0.0, 0.0, 1.0))), Poly2.from_s(Poly1((0.0, 1.0))),
         Poly2(), Poly2()),
        Interval(-1, 1), Interval(-1, 1),
    )
    cols = injectivity_scan(folded, 101, 101, param_sep=0.05, image_tol=1e-6)
    assert len(cols) > 0
    a, b = cols[0].param_a, cols[0].param_b
    assert a[0] == pytest.approx(-b[0], abs=1e-12)
    assert a[1] == pytest.approx(b[1], abs=1e-12)


def test_collision_ordering_and_distance():
    folded = PolyMap4(
        (Poly2.from_t(Poly1((0.0, 0.0, 1.0))), Poly2.from_s(Poly1((0.0, 1.0))),
         Poly2(), Poly2()),
        Interval(-1, 1), Interval(-1, 1),
    )
    cols = injectivity_scan(folded, 64, 64, 0.05, 1e-6)
    for c in cols:
        assert c.param_a <= c.param_b
        assert c.distance >= 0.0
    assert cols == sorted(cols, key=lambda c: (c.param_a, c.param_b))


def test_boundary_check_catalog_arcs():
    for name in ("trefoil_spun", "trefoil_twist", "figure8_spun"):
        assert boundary_check(get_knot(name))


def test_boundary_check_rejects_nonvanishing_height():
    bad = KnotArc("bad", Poly1((0.0, 1.0)), Poly1(()), Poly1((1.0,)),
                  Interval(-1, 1), None, ())
    assert not boundary_check(bad)


def test_boundary_check_rejects_interior_dip():
    # h = (t^2 - 1/4)(1 - t^2) is negative on |t| < 1/2
    h = Poly1((-0.25, 0.0, 1.25, 0.0, -1.0))
    bad = KnotArc("dip", Poly1((0.0, 1.0)), Poly1(()), h, Interval(-1, 1), None, ())
    assert not boundary_check(bad)


def test_verify_surface_report_shape():
    arc = _unknot()
    report = verify_surface(spin(arc), arc, n_rank=64, n_inject=64)
    assert isinstance(report, VerifyReport)
    assert report.ok and report.rank_ok and report.boundary_ok
    assert report.collisions == ()
    doc = report.to_json()
    assert doc["ok"] is True
    assert doc["grid"] == [64, 64]
    assert set(doc["tolerances"]) == {"rank_tol", "image_tol", "param_sep"}


def test_verify_surface_failure_reported():
    folded = PolyMap4(
        (Poly2.from_t(Poly1((0.0, 0.0, 1.0))), Poly2.from_s(Poly1((0.0, 1.0))),
         Poly2(), Poly2()),
        Interval(-1, 1), Interval(-1, 1),
    )
    report = verify_surface(folded, None, n_rank=32, n_inject=64)
    assert not report.ok and len(report.collisions) > 0
    assert report.boundary_ok is None
    assert not report.collisions_capped and "collisions_capped" not in report.to_json()


def _traced_peak(call):
    """The result of ``call()`` and the peak of the memory traced during it."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_constant_map_scan_stops_at_the_cap():
    # every pair of the 160,000 samples is a collision: about 1.3e10 of them
    const = PolyMap4(tuple(Poly2(np.array([[c]])) for c in (1.0, 2.0, 3.0, 4.0)),
                     Interval(-1, 1), Interval(-1, 1))
    report, peak = _traced_peak(lambda: verify_surface(const, None, n_rank=16, n_inject=400))
    assert len(report.collisions) == MAX_COLLISIONS and report.collisions_capped
    assert report.to_json()["collisions_capped"] is True
    assert peak < 200e6
    # each reported collision is a real one, and is reported once
    assert len(set(report.collisions)) == MAX_COLLISIONS
    a = np.array([c.param_a for c in report.collisions])
    b = np.array([c.param_b for c in report.collisions])
    assert max(c.distance for c in report.collisions) <= 1e-3
    assert np.linalg.norm(const.evaluate(a[:, 0], a[:, 1]) - const.evaluate(b[:, 0], b[:, 1]),
                          axis=-1).max() <= 1e-3
    # both parameter intervals have length 2
    assert np.hypot(*(np.abs(a - b) / 2.0).T).min() > 0.05


def test_injectivity_scan_peak_memory_at_600():
    # no (600 * 600, 4) image grid, and no float plane next to the keys: the
    # half-cell indices of the grid, rounded in place in the buffer of the
    # plane product, take 5.8 MB, and hy's row then holds the steps between
    # sorted keys and the flags; the one sort's keys, about 1 + 2**-4 per
    # node, take 3.1 MB.  The peak is 9.3 MB; it was 9.4 MB with two sorts,
    # and 15.1 MB with the float plane alive
    s = _twist_k10()
    found, peak = _traced_peak(lambda: injectivity_scan(s, 600, 600, 0.05, 1e-3))
    assert found == [] and peak < 10e6


def test_rank_scan_peak_memory_at_300():
    # no (300 * 300, 4) partials: three Gram entries and three buffers for
    # a coordinate's partials and their products, 0.72 MB each.  The peak is
    # 4.5 MB; it was 10.8 MB with both partials and a product built whole
    s = _twist_k10()
    (ok, _), peak = _traced_peak(lambda: jacobian_rank_scan(s, 300, 300))
    assert ok and peak < 5.5e6


def test_verify_surface_peak_memory_at_300_600():
    # the grids of twist_certify's fine checks: the plane stage at 600 sets
    # the peak, 9.3 MB; it was 15.1 MB
    s = _twist_k10()
    report, peak = _traced_peak(lambda: verify_surface(s, None, 300, 600))
    assert report.ok and peak < 10e6


class _EvaluateOnly:
    """A surface that implements only the sampling contract's ``evaluate``,
    with its domains and flags; it records the points of each call."""

    def __init__(self, s):
        self._s, self.points = s, []
        self.t_dom, self.s_dom = s.t_dom, s.s_dom
        self.periodic_s, self.pole_low, self.pole_high = s.periodic_s, s.pole_low, s.pole_high

    def evaluate(self, t, th):
        self.points.append(np.broadcast(t, th).size)
        return self._s.evaluate(t, th)


def test_injectivity_scan_of_an_evaluate_only_sampler_at_600():
    # the image grid is projected and dropped before the plane stage, so the
    # scan peaks no higher than the factor route; only the suspects' images
    # are evaluated again
    s = _EvaluateOnly(_twist_k10())
    found, peak = _traced_peak(lambda: injectivity_scan(s, 600, 600, 0.05, 1e-3))
    assert found == [] and peak < 23.8e6
    assert len(s.points) == 2 and s.points[0] == 600 * 600
    assert 0 < s.points[1] < 0.02 * 600 * 600


def test_space_pairs_peak_memory_on_a_cloud_owning_every_shift():
    # 2**17 points spread over 80 half cells on every axis, so that every
    # column shift owns pairs; each shift's 2**17 keys take a sort of their
    # own.  The peak is 11.9 MB; with a sort and a walk per shift, and the
    # rounded coordinates kept whole, it was 15.71 MB
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (1 << 17, 4))
    count, peak = _traced_peak(lambda: sum(len(i) for i, _ in _space_pairs(pts, 0.05)))
    assert count == 16088 and peak < 15.71e6


def _tied_fold(direction, r):
    """(t**2 + r, s, 0, r) + t r direction / 2 on [-1, 1]**2: the images of
    (-t, s) and (t, s) are |t| r apart along the unit vector ``direction``,
    exactly r at t = +-1.  Its entries, r and a 17 x 17 grid are dyadic, so
    every image is exact; at half cells of exactly r, the midpoints of those
    pairs would lie on odd indices, on both axes of the plane and on axis 0,
    and their ends on ties that round two indices apart."""
    c = 0.5 * r * np.asarray(direction)
    coeffs = [np.array([[r], [c[0]], [1.0]]), np.array([[0.0, 1.0], [c[1], 0.0]]),
              np.array([[0.0], [c[2]]]), np.array([[r], [c[3]]])]
    return PolyMap4(tuple(map(Poly2, coeffs)), Interval(-1.0, 1.0), Interval(-1.0, 1.0))


@pytest.mark.parametrize("direction", ["plane_x", "plane_y", "kernel", "axis_0"])
def test_injectivity_scan_reports_a_pair_exactly_image_tol_apart_on_both_routes(direction):
    # the pairs at t = +-1 tie the radius: along an axis of the plane they
    # are exactly one radius apart there too, along the plane's kernel they
    # project to one point, and along axis 0 they tie it on one coordinate.
    # At param_sep 0.9 they are the only collisions, and both the factor
    # route and the image route must report all 17
    r = 2.0 ** -10
    v = {"plane_x": _PLANE[:, 0], "plane_y": _PLANE[:, 1], "kernel": [0.5, -0.5, 0.5, -0.5],
         "axis_0": [1.0, 0.0, 0.0, 0.0]}[direction]
    s = _tied_fold(v, r)
    svals = np.linspace(-1.0, 1.0, 17)
    assert _factor_plane(s, svals, svals, r) is not None
    want = [verify_module.Collision((-1.0, x), (1.0, x), r) for x in svals.tolist()]
    assert injectivity_scan(s, 17, 17, 0.9, r) == want
    assert injectivity_scan(_EvaluateOnly(s), 17, 17, 0.9, r) == want


def test_rank_scan_and_verify_refuse_an_evaluate_only_sampler():
    # the rank scan needs rank-K rows; it refuses before sampling anything
    s = _EvaluateOnly(_twist_k10())
    for scan in (lambda: jacobian_rank_scan(s, 32, 32), lambda: verify_surface(s)):
        with pytest.raises(TypeError, match=r"rank-K rows \(_rows\).*_EvaluateOnly has none"):
            scan()
    assert s.points == []


class _Permuted:
    """A sampler of no model class: only ``evaluate``, the domains and
    flags, and ``_rows`` in the one layout, those of a Surface4 with its
    coordinates taken in the order ``perm``."""

    def __init__(self, s, perm):
        self._s, self._perm = s, list(perm)
        self.t_dom, self.s_dom = s.t_dom, s.s_dom
        self.periodic_s, self.pole_low, self.pole_high = s.periodic_s, s.pole_low, s.pole_high

    def evaluate(self, t, th):
        return self._s.evaluate(t, th)[..., self._perm]

    def _rows(self, side, x, deriv):
        rows = self._s._rows(side, x, deriv)
        return [rows[i] for i in self._perm]


@pytest.mark.parametrize("name", ["twist_k3", "spin_without_poles"])
def test_scans_hold_no_per_model_code(name):
    # a sampler with the row layout alone gets the rank ratio and the
    # collisions of the Surface4 whose coordinates are permuted the same way
    arc = get_knot("trefoil_twist")
    axis = make_axis(arc, -2.19, 2.19)
    s = {"twist_k3": twist_spin(arc, axis, choose_bump(arc, axis), 3),
         "spin_without_poles": replace(spin(get_knot("trefoil_spun")), periodic_s=False,
                                       pole_low=False, pole_high=False)}[name]
    perm = (2, 0, 3, 1)
    wrapped = _Permuted(s, perm)
    same = replace(s, coords=tuple(s.coords[i] for i in perm))
    assert jacobian_rank_scan(wrapped, 96, 80) == jacobian_rank_scan(same, 96, 80)
    got = injectivity_scan(wrapped, 120, 120, 0.05)
    assert got == injectivity_scan(same, 120, 120, 0.05)
    assert (len(got) > 0) == (name == "spin_without_poles")


@pytest.mark.parametrize("name", ["twist_k10", "polynomial_spin_8"])
def test_gram_sums_match_np_sum_bitwise(name):
    # the scan sums each Gram entry coordinate by coordinate, into buffers
    # of one coordinate's shape, as np.sum does over the (..., 4) products
    # of the partials from the same factors
    s = _twist_k10() if name == "twist_k10" else polynomial_spin(get_knot("trefoil_spun"), 8)
    tv, sv = _inset_samples(s.t_dom, 200), _inset_samples(s.s_dom, 200)
    dt, ds = factor_partials_reference(s, tv, sv)
    want = (np.sum(dt * dt, axis=-1), np.sum(ds * ds, axis=-1), np.sum(dt * ds, axis=-1))
    for got, ref in zip(_gram_grid(s, tv, sv), want):
        assert got.tobytes() == ref.tobytes()


def test_verify_runs_without_scipy():
    # a meta-path finder refuses every scipy module
    code = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"blocked: {name}")

sys.meta_path.insert(0, NoScipy())
from spun4d import get_knot, spin, verify_surface
print(verify_surface(spin(get_knot("trefoil_spun")), n_inject=64).ok)
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spun4d.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


def test_isotopy_family_check_passes_for_embedded_map():
    arc = get_knot("trefoil_spun")
    poly = polynomial_spin(arc, 8)
    spec, _ = odd_perturbation(poly.polys, 2, [])
    assert spec.epsilon > 0
    assert isotopy_family_check(poly, spec, [0.0, 0.5, 1.0], n_rank=48, n_inject=96)


@pytest.mark.parametrize("u_samples", [[], [math.nan], [0.0, math.inf]])
def test_isotopy_family_check_refuses_no_u_or_a_u_that_is_not_finite(monkeypatch, u_samples):
    # an empty family checks nothing; both are refused before any family map is built
    poly = polynomial_spin(get_knot("trefoil_spun"), 8)
    spec, _ = odd_perturbation(poly.polys, 2, [])
    built = []
    monkeypatch.setattr(verify_module, "_perturb", lambda *args: built.append(args))
    with pytest.raises(ValueError, match=r"u_samples must be one or more finite u, got \["):
        isotopy_family_check(poly, spec, u_samples, n_rank=32, n_inject=64)
    assert built == []
    monkeypatch.undo()
    assert isotopy_family_check(poly, spec, [0.0], n_rank=32, n_inject=64)


def test_isotopy_family_check_fails_for_folded_map():
    folded = PolyMap4(
        (Poly2.from_t(Poly1((0.0, 0.0, 1.0))), Poly2.from_s(Poly1((0.0, 1.0))),
         Poly2(), Poly2()),
        Interval(-1, 1), Interval(-1, 1),
    )
    spec = PerturbationSpec(N=2, epsilon=0.0)
    # with eps = 0 the fold is never repaired
    assert not isotopy_family_check(folded, spec, [0.0], n_rank=32, n_inject=64)
