"""Numerical certification that a surface behaves as an embedding: rank-2
Jacobian on a grid, image-space collision detection, boundary transversality,
and the one-parameter perturbation family check.

All checks are sampling based: a pass means "no failure detected at this
resolution", never a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .approx import PerturbationSpec, _perturb
from .catalog import KnotArc
from .poly import Interval, poly_scale

__all__ = [
    "VerifyReport", "Collision", "jacobian_rank_scan", "injectivity_scan",
    "boundary_check", "isotopy_family_check", "verify_surface",
]

RANK_TOL = 1e-6
IMAGE_TOL = 1e-3


@dataclass(frozen=True)
class Collision:
    """Two well-separated parameter points whose images nearly coincide."""

    param_a: tuple[float, float]
    param_b: tuple[float, float]
    distance: float


@dataclass(frozen=True)
class VerifyReport:
    rank_ok: bool
    min_singular_ratio: float
    collisions: tuple[Collision, ...]
    boundary_ok: bool | None
    grid: tuple[int, int]
    tolerances: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.rank_ok and not self.collisions and self.boundary_ok is not False

    def to_json(self) -> dict:
        return {
            "rank_ok": self.rank_ok,
            "min_singular_ratio": self.min_singular_ratio,
            "collisions": [
                {"a": list(c.param_a), "b": list(c.param_b), "distance": c.distance}
                for c in self.collisions
            ],
            "boundary_ok": self.boundary_ok,
            "grid": list(self.grid),
            "tolerances": self.tolerances,
            "ok": self.ok,
        }


def _inset_samples(iv: Interval, n: int) -> np.ndarray:
    """Cell centers: excludes both endpoints by half a cell (pole inset)."""
    step = iv.length / n
    return iv.lo + step * (np.arange(n) + 0.5)


def jacobian_rank_scan(s, n_t: int, n_s: int, tol: float = RANK_TOL) -> tuple[bool, float]:
    """Smallest ratio sigma_2 / sigma_1 of the 4x2 Jacobian over an inset grid.

    The ratio comes from the eigenvalues of the 2x2 Gram matrix J^T J; the
    scan passes when the minimum exceeds ``tol``.  Pole rows are excluded by
    the half-cell inset (the parametrization is intentionally degenerate
    there).
    """
    if n_t < 16 or n_s < 16:
        raise ValueError("grid sizes must be >= 16")
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    tvals = _inset_samples(s.t_dom, n_t)
    svals = _inset_samples(s.s_dom, n_s)
    dt, ds = s.partials_grid(tvals, svals)
    g11 = np.sum(dt * dt, axis=-1)
    g22 = np.sum(ds * ds, axis=-1)
    g12 = np.sum(dt * ds, axis=-1)
    tr = g11 + g22
    disc = np.sqrt(np.maximum((g11 - g22) ** 2 + 4.0 * g12 ** 2, 0.0))
    lam_hi = 0.5 * (tr + disc)
    lam_lo = np.maximum(0.5 * (tr - disc), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt(np.where(lam_hi > 0.0, lam_lo / lam_hi, 0.0))
    min_ratio = float(np.min(ratio))
    return min_ratio > tol, min_ratio


def _scan_params(s, n_t: int, n_s: int):
    """Sample parameters for collision scanning.

    Seam duplicates are dropped when theta is periodic and pole rows collapse
    to a single representative so identified parameters are never reported
    against themselves.
    """
    tvals = s.t_dom.sample(n_t)
    if s.periodic_s:
        svals = s.s_dom.lo + s.s_dom.length * np.arange(n_s) / n_s
    else:
        svals = s.s_dom.sample(n_s)
    T, S = np.meshgrid(tvals, svals, indexing="ij")
    pole = np.zeros(T.shape, bool)
    keep = np.ones(T.shape, bool)
    if s.pole_low:
        pole[0, :] = True
        keep[0, 1:] = False
    if s.pole_high:
        pole[-1, :] = True
        keep[-1, 1:] = False
    return T[keep], S[keep], pole[keep]


def injectivity_scan(s, n_t: int, n_s: int, param_sep: float, image_tol: float = IMAGE_TOL) -> list[Collision]:
    """Sampled self-intersection detection.

    Images of the parameter grid are searched for pairs closer than
    ``image_tol`` whose normalized parameter separation (torus metric in theta
    when periodic, zero between identified pole parameters) exceeds
    ``param_sep``.  An empty result means no self-intersection detected at
    this resolution.
    """
    # scipy.spatial takes longer to import than most commands take to run;
    # only this scan needs it
    from scipy.spatial import cKDTree

    tp, sp, pole = _scan_params(s, n_t, n_s)
    pts = s.evaluate(tp, sp)
    tree = cKDTree(pts)
    pairs = tree.query_pairs(image_tol, output_type="ndarray")
    out: list[Collision] = []
    if len(pairs) == 0:
        return out
    tl, sl = s.t_dom.length, s.s_dom.length
    du = np.abs(tp[pairs[:, 0]] - tp[pairs[:, 1]]) / tl
    dv = np.abs(sp[pairs[:, 0]] - sp[pairs[:, 1]]) / sl
    if s.periodic_s:
        dv = np.minimum(dv, 1.0 - dv)
    # a pole parameter is a single point: its theta coordinate is immaterial
    either_pole = pole[pairs[:, 0]] | pole[pairs[:, 1]]
    dv = np.where(either_pole, 0.0, dv)
    sep = np.hypot(du, dv)
    hits = pairs[sep > param_sep]
    dist = np.linalg.norm(pts[hits[:, 0]] - pts[hits[:, 1]], axis=-1)
    for (i, j), d in zip(hits, dist):
        a = (float(tp[i]), float(sp[i]))
        b = (float(tp[j]), float(sp[j]))
        if b < a:
            a, b = b, a
        out.append(Collision(a, b, float(d)))
    out.sort(key=lambda c: (c.param_a, c.param_b))
    return out


def boundary_check(arc: KnotArc, n_interior: int = 1000) -> bool:
    """True iff the arc meets the boundary plane transversely exactly at its
    ends: h vanishes at both endpoints, is positive strictly inside, and has
    nonzero slope of the correct sign at each end."""
    scale = poly_scale(arc.h, arc.ab)
    a, b = arc.ab.lo, arc.ab.hi
    if abs(float(arc.h(a))) > 1e-6 * scale or abs(float(arc.h(b))) > 1e-6 * scale:
        return False
    interior = np.linspace(a, b, n_interior + 2)[1:-1]
    if np.min(arc.h(interior)) <= 0.0:
        return False
    dh = arc.h.derivative()
    return float(dh(a)) > 0.0 and float(dh(b)) < 0.0


def isotopy_family_check(
    map4,
    spec: PerturbationSpec,
    u_samples,
    n_rank: int = 96,
    n_inject: int = 200,
    param_sep: float = 0.05,
    rank_tol: float = RANK_TOL,
    image_tol: float = IMAGE_TOL,
) -> bool:
    """Run both scans on the perturbation family F_u for every u.

    ``map4`` is the *unperturbed* PolyMap4; F_u adds u * eps * t^(2N+1) and
    u * eps * s^(2N+1) to the third and fourth coordinates.
    """
    for u in u_samples:
        fu = replace(map4, polys=_perturb(map4.polys, spec.N, u * spec.epsilon))
        ok, _ = jacobian_rank_scan(fu, n_rank, n_rank, rank_tol)
        if not ok:
            return False
        if injectivity_scan(fu, n_inject, n_inject, param_sep, image_tol):
            return False
    return True


def verify_surface(
    s,
    arc: KnotArc | None = None,
    n_rank: int = 200,
    n_inject: int = 400,
    param_sep: float = 0.05,
    rank_tol: float = RANK_TOL,
    image_tol: float = IMAGE_TOL,
) -> VerifyReport:
    """Bundle of all applicable checks for one surface, as a report."""
    rank_ok, min_ratio = jacobian_rank_scan(s, n_rank, n_rank, rank_tol)
    collisions = injectivity_scan(s, n_inject, n_inject, param_sep, image_tol)
    boundary_ok = boundary_check(arc) if arc is not None else None
    return VerifyReport(
        rank_ok=rank_ok,
        min_singular_ratio=min_ratio,
        collisions=tuple(collisions),
        boundary_ok=boundary_ok,
        grid=(n_rank, n_inject),
        tolerances={
            "rank_tol": rank_tol,
            "image_tol": image_tol,
            "param_sep": param_sep,
        },
    )
