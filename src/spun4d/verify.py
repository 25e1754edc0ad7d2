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


def _scan_points(s, n_t: int, n_s: int):
    """Sample parameters and their images for collision scanning.

    Seam duplicates are dropped when theta is periodic, and a pole row keeps
    only its first sample, so identified parameters are never reported
    against themselves.  Returns (tvals, svals, pts, first): the kept samples
    are the run pts of the row-major (n_t, n_s) image grid that starts at
    flat index ``first``.
    """
    tvals = s.t_dom.sample(n_t)
    if s.periodic_s:
        svals = s.s_dom.lo + s.s_dom.length * np.arange(n_s) / n_s
    else:
        svals = s.s_dom.sample(n_s)
    grid = s.evaluate(tvals[:, None], svals[None, :]).reshape(n_t * n_s, -1)
    first = n_s - 1 if s.pole_low else 0
    # a low pole's kept sample moves to the end of its row, where the run starts
    grid[first] = grid[0]
    stop = (n_t - 1) * n_s + 1 if s.pole_high else n_t * n_s
    return tvals, svals, grid[first:stop], first


def injectivity_scan(s, n_t: int, n_s: int, param_sep: float, image_tol: float = IMAGE_TOL) -> list[Collision]:
    """Sampled self-intersection detection.

    Images of the parameter grid are searched for pairs closer than
    ``image_tol`` whose normalized parameter separation (torus metric in theta
    when periodic, zero between identified pole parameters) exceeds
    ``param_sep``.  An empty result means no self-intersection detected at
    this resolution.
    """
    if n_t < 16 or n_s < 16:
        raise ValueError(f"injectivity grid sizes must be >= 16, got {n_t}x{n_s}")
    if not 0.0 < param_sep < 1.0:
        raise ValueError(f"param_sep must be in (0, 1), got {param_sep!r}")
    # scipy.spatial takes longer to import than most commands take to run;
    # only this scan needs it
    from scipy.spatial import cKDTree

    tvals, svals, pts, first = _scan_points(s, n_t, n_s)
    pairs = cKDTree(pts).query_pairs(image_tol, output_type="ndarray")
    out: list[Collision] = []
    if len(pairs) == 0:
        return out
    # grid row and column of both points of every pair; a pole stands at its first sample
    row, col = np.divmod(pairs + first, n_s)
    pole = (row == 0) & s.pole_low | (row == n_t - 1) & s.pole_high
    col[pole] = 0
    tp, sp = tvals[row], svals[col]
    du = np.abs(tp[:, 0] - tp[:, 1]) / s.t_dom.length
    dv = np.abs(sp[:, 0] - sp[:, 1]) / s.s_dom.length
    if s.periodic_s:
        dv = np.minimum(dv, 1.0 - dv)
    # a pole parameter is a single point: its theta coordinate is immaterial
    dv = np.where(pole.any(axis=1), 0.0, dv)
    hits = np.flatnonzero(np.hypot(du, dv) > param_sep)
    i, j = pairs[hits].T
    dist = np.linalg.norm(pts[i] - pts[j], axis=-1)
    for h, d in zip(hits, dist):
        a = (float(tp[h, 0]), float(sp[h, 0]))
        b = (float(tp[h, 1]), float(sp[h, 1]))
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
