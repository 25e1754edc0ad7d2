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
from .catalog import KnotArc, height_admissible
from .poly import Interval, poly_scale
from .surface import _grid_nodes

__all__ = [
    "VerifyReport", "Collision", "jacobian_rank_scan", "injectivity_scan",
    "boundary_check", "isotopy_family_check", "verify_surface",
]

RANK_TOL = 1e-6
IMAGE_TOL = 1e-3
# the injectivity scan stops once it holds this many collisions
MAX_COLLISIONS = 1 << 16

# odd multipliers that hash a cell's integer coordinates into one key
_CELL_HASH = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
                       0x27D4EB2F165667C5], np.uint64).view(np.int64)
_AXIS_BITS = 1 << np.arange(len(_CELL_HASH))
# an odd multiplier that re-hashes keys: equal keys stay equal, and the top
# bits of the products are fresh
_REHASH = np.uint64(0xFF51AFD7ED558CCD).view(np.int64)
# the columns are an orthonormal basis of the 2-plane of the close-pair
# prefilter; the entries are exact, so the projection is 1-Lipschitz.  It
# maps both the xy and the zw plane onto it one to one (a spun surface's
# theta circles stay circles)
_PLANE = np.array([[0.5, 0.5], [0.5, -0.5], [0.5, -0.5], [0.5, 0.5]])


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

    @property
    def collisions_capped(self) -> bool:
        """True when the scan stopped at ``MAX_COLLISIONS``: there may be more."""
        return len(self.collisions) >= MAX_COLLISIONS

    def to_json(self) -> dict:
        doc = {
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
        if self.collisions_capped:
            doc["collisions_capped"] = True
        return doc


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
    with np.errstate(all="ignore"):
        dt, ds = s.partials_grid(tvals, svals)
        g11 = np.sum(dt * dt, axis=-1)
        g22 = np.sum(ds * ds, axis=-1)
        g12 = np.sum(dt * ds, axis=-1)
        tr = g11 + g22
        disc = np.sqrt(np.maximum((g11 - g22) ** 2 + 4.0 * g12 ** 2, 0.0))
        lam_hi = 0.5 * (tr + disc)
        lam_lo = np.maximum(0.5 * (tr - disc), 0.0)
        ratio = np.sqrt(np.where(lam_hi > 0.0, lam_lo / lam_hi, 0.0))
    # tr and disc are >= 0 or NaN, so lam_hi is finite iff both are
    if not np.isfinite(lam_hi).all():
        raise ValueError("the surface's Jacobian is not finite on the rank grid, "
                         "or its Gram matrix overflows")
    min_ratio = float(np.min(ratio))
    return min_ratio > tol, min_ratio


def _scan_points(s, n_t: int, n_s: int):
    """Sample parameters and their images for collision scanning.

    Theta is sampled without its end when periodic, so the grid has no seam
    column, and the samples of each pole row are one node of ``_grid_nodes``.
    Returns (tvals, svals, pts): pts holds one image per node, the image of
    the node's first sample in the row-major (n_t, n_s) grid, in the order of
    the nodes.  pts is the front of the image grid, so identified parameters
    are never reported against themselves.
    """
    tvals = s.t_dom.sample(n_t)
    if s.periodic_s:
        svals = s.s_dom.lo + s.s_dom.length * np.arange(n_s) / n_s
    else:
        svals = s.s_dom.sample(n_s)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.ascontiguousarray(s.evaluate(tvals[:, None], svals[None, :]))
    d = grid.shape[-1]
    grid = grid.reshape(n_t * n_s, d)
    _, firsts = _grid_nodes(n_t, n_s, False, s.pole_low, s.pole_high)
    # move the images of the nodes to the front, one run of consecutive first
    # samples at a time: numpy copies an overlapping 1-D slice of the flat
    # (viewed) grid without a buffer
    flat = grid.reshape(-1)
    starts = np.flatnonzero(np.diff(firsts, prepend=-2) != 1)
    for a, b in zip(starts.tolist(), np.append(starts[1:], len(firsts)).tolist()):
        f = int(firsts[a])
        flat[d * a:d * b] = flat[d * f:d * (f + b - a)]
    return tvals, svals, grid[:len(firsts)]


def _shared(key: np.ndarray) -> np.ndarray:
    """Ascending indices of the entries of the int64 array ``key`` that
    another entry may share: all of those that do, and few that do not.

    A bincount over a table of at least twice as many buckets as keys keeps
    the keys whose bucket holds another key.  Equal keys always share a
    bucket; to drop keys that share one only by chance, the survivors are
    re-hashed with fresh bits of the key until a round drops less than a
    quarter of them.
    """
    idx = None
    while True:
        bits = max(10, (2 * len(key)).bit_length())
        bucket = key >> (64 - bits)
        bucket &= (1 << bits) - 1
        sel = np.flatnonzero((np.bincount(bucket, minlength=1 << bits) > 1)[bucket])
        idx = sel if idx is None else idx[sel]
        if 4 * len(sel) >= 3 * len(key):
            return idx
        key = key[sel] * _REHASH  # wraps


def _half_cells(pts: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """floor(pts @ basis) as int64: the half-cell indices of the rows of
    ``pts`` along the scaled axes that are the columns of ``basis``."""
    # einsum, not matmul: a threaded BLAS matrix-vector product of this shape
    # can take ten times as long as one thread
    u = np.einsum("ij,j...->i...", pts, basis)
    return np.floor(u, out=u).astype(np.int64)


def _grids(pts: np.ndarray, basis: np.ndarray):
    """Hash the rows of ``pts`` into the 2**d grids of cells two half cells
    wide along the d columns of ``basis``, each grid shifted by half a cell
    along a subset of the axes.

    Yields ``(grid, key, odd)`` for each grid, in Gray-code order: each grid
    shifts one axis more or less than the one before.  ``grid`` has one bit
    per shifted axis; ``key`` (updated in place) is each point's cell key in
    the grid; ``odd`` has one bit per axis, set when the point's half-cell
    index is odd, so that the grid shifted along that axis puts it in the
    next cell.
    """
    key = np.zeros(len(pts), np.int64)
    odd = np.zeros(len(pts), np.uint8)
    for axis in range(basis.shape[1]):
        h = _half_cells(pts, basis[:, axis])
        odd |= (h & 1).astype(np.uint8) << axis
        h >>= 1
        h *= _CELL_HASH[axis]
        key += h  # wraps: two cells sharing a key only add candidates
    del h
    grid = 0
    yield grid, key, odd
    for n in range(1, 1 << basis.shape[1]):
        axis = (n & -n).bit_length() - 1
        grid ^= 1 << axis
        step = np.add if grid >> axis & 1 else np.subtract
        # the parity as int64: numpy 1.x promotes a uint8 array times this
        # multiplier to uint64, which cannot be added into the int64 key
        step(key, (odd >> axis & 1).astype(np.int64) * _CELL_HASH[axis], out=key)
        yield grid, key, odd


def _close_pairs(pts: np.ndarray, r: float):
    """Yield batches ``(i, j)``, i < j, of the index pairs of the rows of the
    (m, 4) array ``pts`` at most ``r`` apart, each pair once: exactly the
    pairs ``cKDTree.query_pairs`` finds.

    Spatial hashing (Teschner et al., "Optimized spatial hashing for collision
    detection of deformable objects", VMV 2003), in two stages, on grids of
    cells of side just over 2 r, each shifted by half a cell along a subset
    of the axes.  Two coordinates at most r apart lie in one cell of the
    plain or of the shifted grid of their axis, so two points whose
    coordinates are all at most r apart share a cell in at least one grid.

    The first stage is an exact prefilter.  It projects the points onto a
    fixed 2-plane, which moves no pair further apart, and hashes the
    projections on the 4 grids of the plane.  A point that shares no cell
    with another point in any of them is in no close pair; the rest are the
    suspects, a small share of the points of a surface's scan.

    The second stage searches the suspects on the 16 grids of R^4, with the
    cell size of the whole point set.  A close pair shares a cell in the grid
    that shifts just the axes where its cells in the plain grid differ, and
    is kept only there.  Per grid, points whose key no other point shares
    are dropped, the rest are sorted by key, and points are compared only
    within runs of equal keys, at offset d = 1, 2, ... along the run, and
    only when the parities of their half-cell indices allow the pair to be
    kept in this grid.  The test is the squared distance summed coordinate
    by coordinate, at most r * r, as ``cKDTree.query_pairs`` makes it.
    """
    size = max(float(pts.max(initial=0.0)), -float(pts.min(initial=0.0)))
    eps = np.finfo(float).eps
    # A half cell is r plus room for rounding.  A pair that passes the test
    # is at most r (1 + 4 eps) apart.  Measured in the original units, a
    # scaled coordinate is within eps * size / 2 of its exact value, and a
    # projection onto the plane (four products summed) within 5 eps * size:
    # the room, 4 or 16 eps * size, is more than two points' errors take.
    # Scaled coordinates stay below 2 ** 50 in size, so they floor exactly.
    r_up = r * (1.0 + 2.0 ** -20)
    suspect = np.zeros(len(pts), bool)
    for _, key, _ in _grids(pts, _PLANE / (r_up + 16.0 * eps * size)):
        suspect[_shared(key)] = True
    del key, _
    sus = np.flatnonzero(suspect)
    del suspect
    if len(sus) < len(pts):
        pts = pts[sus]
    # the scaled identity: pts @ basis rounds each coordinate once, the same
    # way for any subset of the points
    basis = np.eye(4) / (r_up + 4.0 * eps * size)
    for grid, key, odd in _grids(pts, basis):
        cand = _shared(key)
        if len(cand) == 0:
            continue
        # sort the keys with each candidate's rank in their low bits: a run of
        # equal keys then lists its points in index order
        rank_bits = len(cand).bit_length()
        packed = np.sort(key[cand] << rank_bits | np.arange(len(cand)))
        order = cand[packed & ((1 << rank_bits) - 1)]
        run_key = packed >> rank_bits
        same = np.append(run_key[1:] == run_key[:-1], False)
        pos = np.flatnonzero(same)
        d = 1
        while len(pos):
            i, j = order[pos], order[pos + d]
            # a pair kept in this grid shares a cell here but not in the plain
            # grid along each shifted axis: its half-cell indices differ in parity
            mine = (odd[i] ^ odd[j]) & grid == grid
            i, j = i[mine], j[mine]
            sq = np.square(pts[i] - pts[j])
            close = sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3] <= r * r
            i, j = i[close], j[close]
            own = (_half_cells(pts[i], basis) >> 1 != _half_cells(pts[j], basis) >> 1) @ _AXIS_BITS == grid
            if own.any():
                yield sus[i[own]], sus[j[own]]
            # positions whose run reaches offset d + 1
            pos = pos[same[pos + d]]
            d += 1


def injectivity_scan(s, n_t: int, n_s: int, param_sep: float, image_tol: float = IMAGE_TOL) -> list[Collision]:
    """Sampled self-intersection detection.

    Images of the parameter grid are searched for pairs at most ``image_tol``
    apart whose normalized parameter separation (torus metric in theta when
    periodic, zero between identified pole parameters) exceeds
    ``param_sep``.  An empty result means no self-intersection detected at
    this resolution.  The scan stops once it holds ``MAX_COLLISIONS``
    collisions, so a result of that length is a lower bound.
    """
    if n_t < 16 or n_s < 16:
        raise ValueError(f"injectivity grid sizes must be >= 16, got {n_t}x{n_s}")
    if not 0.0 < param_sep < 1.0:
        raise ValueError(f"param_sep must be in (0, 1), got {param_sep!r}")
    if not image_tol > 0.0:
        raise ValueError(f"image_tol must be > 0, got {image_tol!r}")
    tvals, svals, pts = _scan_points(s, n_t, n_s)
    if not np.isfinite(pts).all():
        raise ValueError("the surface's image is not finite on the injectivity grid")
    out: list[Collision] = []
    firsts = None
    for pairs in _close_pairs(pts, image_tol):
        if firsts is None:
            # the flat grid index of each node's first sample, built only once
            # there is a pair to place
            _, firsts = _grid_nodes(n_t, n_s, False, s.pole_low, s.pole_high)
        pairs = np.stack(pairs, axis=1)
        # grid row and column of the first sample of both nodes of every pair
        row, col = np.divmod(firsts[pairs], n_s)
        pole = (row == 0) & s.pole_low | (row == n_t - 1) & s.pole_high
        tp, sp = tvals[row], svals[col]
        du = np.abs(tp[:, 0] - tp[:, 1]) / s.t_dom.length
        dv = np.abs(sp[:, 0] - sp[:, 1]) / s.s_dom.length
        if s.periodic_s:
            dv = np.minimum(dv, 1.0 - dv)
        # a pole parameter is a single point: its theta coordinate is immaterial
        dv = np.where(pole.any(axis=1), 0.0, dv)
        hits = np.flatnonzero(np.hypot(du, dv) > param_sep)[:MAX_COLLISIONS - len(out)]
        i, j = pairs[hits].T
        dist = np.linalg.norm(pts[i] - pts[j], axis=-1)
        a = zip(tp[hits, 0].tolist(), sp[hits, 0].tolist())
        b = zip(tp[hits, 1].tolist(), sp[hits, 1].tolist())
        out.extend(Collision(min(pa, pb), max(pa, pb), d) for pa, pb, d in zip(a, b, dist.tolist()))
        if len(out) >= MAX_COLLISIONS:
            break
    out.sort(key=lambda c: (c.param_a, c.param_b))
    return out


def boundary_check(arc: KnotArc) -> bool:
    """True iff the arc meets the boundary plane transversely exactly at its
    ends: h vanishes at both endpoints, is positive strictly inside, and has
    nonzero slope of the correct sign at each end."""
    scale = poly_scale(arc.h, arc.ab)
    a, b = arc.ab.lo, arc.ab.hi
    if abs(float(arc.h(a))) > 1e-6 * scale or abs(float(arc.h(b))) > 1e-6 * scale:
        return False
    return height_admissible(arc.h, arc.ab)


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
