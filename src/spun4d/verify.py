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

__all__ = [
    "VerifyReport", "Collision", "jacobian_rank_scan", "injectivity_scan",
    "boundary_check", "isotopy_family_check", "verify_surface",
]

RANK_TOL = 1e-6
IMAGE_TOL = 1e-3
# verify_surface's least parameter separation of a collision, and its grids
PARAM_SEP = 0.05
N_RANK = 200
N_INJECT = 400
# the injectivity scan stops once it holds this many collisions
MAX_COLLISIONS = 1 << 16

# odd multipliers that hash a column's integer coordinates into one key
_CELL_HASH = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9],
                      np.uint64).view(np.int64)
# the columns are an orthonormal basis of the 2-plane of the close-pair
# prefilter; the entries are exact, so the projection is 1-Lipschitz.  It
# maps both the xy and the zw plane onto it one to one (a spun surface's
# theta circles stay circles)
_PLANE = np.array([[0.5, 0.5], [0.5, -0.5], [0.5, -0.5], [0.5, 0.5]])
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


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


def _gram(dt: np.ndarray, ds: np.ndarray):
    """g11, g22, g12 of the Gram matrix J^T J from the partials, arrays of
    shape (..., 4): each is summed over the coordinates as
    ((p0 + p1) + p2) + p3, the order of ``np.sum`` over a length-4 axis,
    without its reduction loop."""
    def dot(x, y):
        p = x * y
        return p[..., 0] + p[..., 1] + p[..., 2] + p[..., 3]

    return dot(dt, dt), dot(ds, ds), dot(dt, ds)


def _partials(s, tvals, svals):
    """The partials (d/dt, d/dtheta) over the tensor grid, from the
    sampler's rank-K factors and their derivatives (``_factors`` with
    ``deriv``) in two products (n_t, K) @ (K, 4 n_s).  Each is an
    (n_t, n_s, 4) view of a coordinate-major array, so a coordinate's slice
    of it is contiguous."""
    (a, a_t), (b, b_s), _ = s._factors(tvals, svals, True)
    n_t, n_s, k = len(tvals), len(svals), a.shape[1]
    # einsum, not matmul: on 2 cores a threaded BLAS product of this shape
    # can take a hundred times as long as one thread
    return tuple(np.einsum("ij,jk->ik", x, np.swapaxes(y, 1, 2).reshape(k, 4 * n_s))
                 .reshape(n_t, 4, n_s).swapaxes(1, 2) for x, y in ((a_t, b), (a, b_s)))


def jacobian_rank_scan(s, n_t: int, n_s: int, tol: float = RANK_TOL) -> tuple[bool, float]:
    """Smallest ratio sigma_2 / sigma_1 of the 4x2 Jacobian over an inset grid.

    The partials come from the sampler's rank-K factors and their
    derivatives (``_factors`` with ``deriv``) in two matrix products, not
    from ``partials_grid``; they agree with it to rounding.  A sampler of no
    terms has zero partials, and a ratio of 0.  The ratio comes from
    the eigenvalues of the 2x2 Gram matrix J^T J; the scan passes when the
    minimum exceeds ``tol``.  Pole rows are excluded by the half-cell inset
    (the parametrization is intentionally degenerate there).
    """
    if n_t < 16 or n_s < 16:
        raise ValueError("grid sizes must be >= 16")
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be in (0, 1)")
    tvals = _inset_samples(s.t_dom, n_t)
    svals = _inset_samples(s.s_dom, n_s)
    with np.errstate(all="ignore"):
        g11, g22, g12 = _gram(*_partials(s, tvals, svals))
        tr = g11 + g22
        disc = np.sqrt(np.maximum((g11 - g22) ** 2 + 4.0 * g12 ** 2, 0.0))
        lam_hi = 0.5 * (tr + disc)
        lam_lo = np.maximum(0.5 * (tr - disc), 0.0)
        ratio_sq = np.where(lam_hi > 0.0, lam_lo / lam_hi, 0.0)
    # tr and disc are >= 0 or NaN, so lam_hi is finite iff both are
    if not np.isfinite(lam_hi).all():
        raise ValueError("the surface's Jacobian is not finite on the rank grid, "
                         "or its Gram matrix overflows")
    # sqrt is monotone and correctly rounded: the root of the least square is
    # the least root
    min_ratio = float(np.sqrt(np.min(ratio_sq)))
    return min_ratio > tol, min_ratio


def _half_width(r: float, room: float) -> float:
    """Half the cell side of the close-pair search for radius ``r``.  A
    pair that passes the distance test is at most r (1 + 4 eps) apart,
    which the factor 1 + 2**-20 covers; ``room`` covers the rounding of the
    scaled coordinates."""
    return r * (1.0 + 2.0 ** -20) + room


def _half_cells(u: np.ndarray) -> np.ndarray:
    """floor(u) as int64."""
    return np.floor(u).astype(np.int64)


def _size(pts: np.ndarray) -> float:
    return max(float(pts.max(initial=0.0)), -float(pts.min(initial=0.0)))


def _image_plane(pts: np.ndarray, r: float) -> np.ndarray:
    """The plane coordinates, in half cells of the plane stage for radius
    ``r``, of the rows of the (m, 4) array ``pts``.

    With size the largest |coordinate|, each is within 5 eps * size of the
    exact projection of its row (four products summed, and the scale
    rounded), so a room of 16 eps * size covers two rows; scaled
    coordinates stay below 2**50 in size, so they floor exactly.
    """
    # einsum, not matmul: a threaded BLAS product of this shape can take ten
    # times as long as one thread
    return np.einsum("ij,jk->ik", pts, _PLANE / _half_width(r, 16.0 * _EPS * _size(pts)))


def _low_fields(y: np.ndarray) -> tuple[int, int]:
    """Make the int64 array ``y`` of half-cell indices, in place, the low
    fields of the rows' sort keys: y - min(y) above the row's index.  When
    the two take more than 40 bits, y - min(y) is shifted right: pairs at
    |dy| <= 1 stay within 1, and a hash above keeps 24 bits.  Returns the
    number of bits of both fields and of the index alone."""
    ib = (len(y) - 1).bit_length()
    y -= y.min()
    yb = int(y.max()).bit_length()
    bits = min(ib + yb, 40)
    y >>= ib + yb - bits
    y <<= ib
    y |= np.arange(len(y))
    return bits, ib


def _suspects(u: np.ndarray) -> np.ndarray:
    """The plane stage: ascending indices of the rows of the (m, 2) array
    ``u`` of plane coordinates, in half cells, that have another row whose
    half-cell indices (hx, hy) differ from theirs by at most 1 on both axes
    (that is, share a cell in one of the 4 grids of the plane), and a few
    more.

    Two sorts find them.  For off = 0 and 1, the rows fall in columns
    (hx + off) >> 1, two half cells wide, and a pair with |dhx| <= 1 shares
    a column for one of the two.  A row's key packs, from the high bits to
    the low, the top bits of a multiplicative hash of its column and the
    low fields of ``_low_fields``: hy - min(hy) and the row's index.
    Sorted, a column lists its rows by hy, so a row with another at
    |dhy| <= 1 in its column has one as a sorted neighbour; two neighbours
    whose keys, less the index bits, differ by at most 1 are both suspects.
    Columns whose hashes agree, and the step from one column to the next,
    only add suspects.  The keys sort as unsigned, so the steps between
    neighbours are exact, and only a step under two index fields gets the
    exact test.
    """
    m = len(u)
    if m < 2:
        return np.zeros(0, np.intp)
    low = _half_cells(u[:, 1])
    bits, ib = _low_fields(low)
    x = _half_cells(u[:, 0])
    keys = (x >> 1, x)
    x += 1
    x >>= 1
    for key in keys:
        key *= _CELL_HASH[0]  # wraps
        key &= -1 << bits
        key |= low
    # low is spent: its buffer takes the steps between sorted keys
    step = low.view(np.uint64)[1:]
    index = (1 << ib) - 1
    suspect = np.zeros(m, bool)
    for key in keys:
        key = key.view(np.uint64)
        key.sort()
        np.subtract(key[1:], key[:-1], out=step)
        # neighbours less than two index fields apart, then the exact test
        pos = np.flatnonzero(step < 2 << ib)
        pos = pos[(key[pos + 1] >> ib) - (key[pos] >> ib) <= 1]
        suspect[key[pos] & index] = True
        suspect[key[pos + 1] & index] = True
    return np.flatnonzero(suspect)


def _space_pairs(pts: np.ndarray, r: float):
    """The R^4 stage: yield batches ``(i, j)``, i < j, of the index pairs of
    the rows of the (m, 4) array ``pts`` at most ``r`` apart, each pair once.

    The half cells have side r plus 4 eps * size: a scaled coordinate is
    within eps * size / 2 of its exact value, which the room covers for two
    rows.  Eight sorts find the pairs, as two find the plane stage's
    suspects.  For each off in {0, 1}**3, the rows fall in columns
    (h + off) >> 1 on axes 0-2, and a row's key packs the top bits of a
    multiplicative hash of its column above the low fields of
    ``_low_fields`` on axis 3.  A close pair shares a column for the off
    that is 1 just on the axes where its indices h >> 1 differ, and is kept
    only there.  Sorted, the rows between the two have keys, less the index
    bits, between theirs, so the walk over offsets d = 1, 2, ... along the
    sorted keys, at the positions whose key at d is at most 1 above their
    own, meets the pair.  Columns whose hashes agree, and the step from one
    column to the next, only add candidates.  The test is the squared
    distance summed coordinate by coordinate, at most r * r, as
    ``cKDTree.query_pairs`` makes it.
    """
    m = len(pts)
    if m < 2:
        return
    h = _half_cells(pts / _half_width(r, 4.0 * _EPS * _size(pts)))
    low = h[:, 3].copy()
    bits, ib = _low_fields(low)
    index = (1 << ib) - 1
    cell = h[:, :3] >> 1
    for off in np.ndindex(2, 2, 2):
        key = ((h[:, :3] + off) >> 1) @ _CELL_HASH  # wraps
        key &= -1 << bits
        key |= low
        key = key.view(np.uint64)
        key.sort()
        top = key >> ib
        pos = np.arange(m - 1)
        d = 1
        while len(pos):
            pos = pos[top[pos + d] - top[pos] <= 1]
            i = (key[pos] & index).astype(np.intp)
            j = (key[pos + d] & index).astype(np.intp)
            mine = ((cell[i] != cell[j]) == off).all(axis=1)
            i, j = i[mine], j[mine]
            # rows whose keys agree by chance may be far apart: a square
            # beyond double range is inf, which fails the test
            with np.errstate(over="ignore"):
                sq = np.square(pts[i] - pts[j])
                close = sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3] <= r * r
            if close.any():
                i, j = i[close], j[close]
                yield np.minimum(i, j), np.maximum(i, j)
            d += 1
            pos = pos[pos + d < m]


def _close_pairs(pts: np.ndarray, r: float):
    """Yield batches ``(i, j)``, i < j, of the index pairs of the rows of the
    (m, 4) array ``pts`` at most ``r`` apart, each pair once: exactly the
    pairs ``cKDTree.query_pairs`` finds.

    Two stages, on half cells of side just over r.  Two coordinates at most
    r apart have floors, in half cells, at most 1 apart.

    The plane stage (``_suspects``) is an exact prefilter.  It projects the
    points onto a fixed 2-plane, which moves no pair further apart, and
    finds, with two sorts, the points that have another within one half
    cell on both axes of the plane.  A point that has none is in no close
    pair; the rest are the suspects, a small share of the points of a
    surface's scan.  The R^4 stage (``_space_pairs``) searches the suspects
    alone, in the same way with eight sorts: columns of R^4 on three axes,
    sorted along the fourth.
    """
    sus = _suspects(_image_plane(pts, r))
    for i, j in _space_pairs(pts[sus] if len(sus) < len(pts) else pts, r):
        yield sus[i], sus[j]


def _factor_plane(s, tvals, svals, r: float):
    """The plane coordinates, in half cells of the plane stage for radius
    ``r``, of every sample of the scan grid, as an (n_t * n_s, 2) array in
    row-major order, from the sampler's rank-K factors of its values,
    ``(a,), (b,), m = s._factors(tvals, svals)``, in one product
    a @ (b @ _PLANE); or None when m or b @ _PLANE is not finite.

    The room is (K + 8) eps (m + 2**-1022).  At a node, the image that
    ``evaluate`` returns is within eps * m of the exact sum of a b, summed
    over the coordinates (the factors' contract), so its exact projection
    is within eps * m / 2 of that sum's; the products and sums that make
    the hashed coordinate, and its scaling, round by at most
    (K + 5) eps * m / 4.  Two nodes take less than (K + 7) eps * m / 2;
    2**-1022, the least normal double, covers underflow.  |a b| summed is
    at most m, so scaled coordinates stay below 2**50 in size and floor
    exactly.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        (a,), (b,), m = s._factors(tvals, svals)
        bp = b @ _PLANE
    if not (np.isfinite(m) and np.isfinite(bp).all()):
        return None
    k = a.shape[1]
    u = np.matmul(a, bp.reshape(k, 2 * len(svals))).reshape(-1, 2)
    u /= _half_width(r, (k + 8) * _EPS * (m + _TINY))
    return u


def _images(s, t, th) -> np.ndarray:
    """``s.evaluate(t, th)``, refused unless every coordinate is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        pts = s.evaluate(t, th)
    if not np.isfinite(pts).all():
        raise ValueError("the surface's image is not finite on the injectivity grid")
    return pts


def injectivity_scan(s, n_t: int, n_s: int, param_sep: float, image_tol: float = IMAGE_TOL) -> list[Collision]:
    """Sampled self-intersection detection.

    Images of the parameter grid are searched for pairs at most ``image_tol``
    apart whose normalized parameter separation (torus metric in theta when
    periodic, zero between identified pole parameters) exceeds
    ``param_sep``.  An empty result means no self-intersection detected at
    this resolution.  The scan stops once it holds ``MAX_COLLISIONS``
    collisions, so a result of that length is a lower bound.

    Theta is sampled without its end when periodic, so the grid has no seam
    column, and each flagged pole row is one node, its first sample.  The
    nodes are then the samples start:stop of the row-major grid, once sample
    start stands for the low pole.  The plane coordinates of every sample
    come from the sampler's rank-K ``_factors`` when it has them with a
    finite bound (``_factor_plane``, whose rounding room covers the gap to
    the projections of the images that ``evaluate`` returns), and else from
    the image grid (``_image_plane``), which is dropped once projected.  One
    path follows: the plane stage (``_suspects``, two sorts of packed keys)
    on the nodes, the images of the suspects alone, and the R^4 stage
    (``_space_pairs``, eight sorts) on them.  The first ``MAX_COLLISIONS``
    collisions it yields are kept as arrays, each pair with its lesser
    (t, theta) first, sorted by a stable ``np.lexsort`` on
    (param_a, param_b), and only then made ``Collision`` objects.
    """
    if n_t < 16 or n_s < 16:
        raise ValueError(f"injectivity grid sizes must be >= 16, got {n_t}x{n_s}")
    if not 0.0 < param_sep < 1.0:
        raise ValueError(f"param_sep must be in (0, 1), got {param_sep!r}")
    if not image_tol > 0.0:
        raise ValueError(f"image_tol must be > 0, got {image_tol!r}")
    for name, dom in (("t_dom", s.t_dom), ("s_dom", s.s_dom)):
        if not dom.length > 0.0:
            raise ValueError(f"{name} must have positive length, got [{dom.lo!r}, {dom.hi!r}]")
    tvals = s.t_dom.sample(n_t)
    if s.periodic_s:
        svals = s.s_dom.lo + s.s_dom.length * np.arange(n_s) / n_s
    else:
        svals = s.s_dom.sample(n_s)
    start = n_s - 1 if s.pole_low else 0
    stop = (n_t - 1) * n_s + 1 if s.pole_high else n_t * n_s
    plane = _factor_plane(s, tvals, svals, image_tol) if hasattr(s, "_factors") else None
    if plane is None:
        plane = _image_plane(_images(s, tvals[:, None], svals[None, :]).reshape(-1, 4), image_tol)
    plane[start] = plane[0]
    sus = _suspects(plane[start:stop])
    del plane
    if len(sus) == 0:
        return []
    # grid row and column of each suspect's first sample
    row, col = np.divmod(sus + start, n_s)
    if start:
        row[sus == 0] = col[sus == 0] = 0
    pts = _images(s, tvals[row], svals[col])
    found, count = [], 0
    for pairs in _space_pairs(pts, image_tol):
        pairs = np.stack(pairs, axis=1)
        prow = row[pairs]
        pole = (prow == 0) & s.pole_low | (prow == n_t - 1) & s.pole_high
        tp, sp = tvals[prow], svals[col[pairs]]
        du = np.abs(tp[:, 0] - tp[:, 1]) / s.t_dom.length
        dv = np.abs(sp[:, 0] - sp[:, 1]) / s.s_dom.length
        if s.periodic_s:
            dv = np.minimum(dv, 1.0 - dv)
        # a pole parameter is a single point: its theta coordinate is immaterial
        dv = np.where(pole.any(axis=1), 0.0, dv)
        hits = np.flatnonzero(np.hypot(du, dv) > param_sep)[:MAX_COLLISIONS - count]
        i, j = pairs[hits].T
        found.append((tp[hits], sp[hits], np.linalg.norm(pts[i] - pts[j], axis=-1)))
        count += len(hits)
        if count >= MAX_COLLISIONS:
            break
    if not count:
        return []
    tp, sp, dist = (np.concatenate(c) for c in zip(*found))
    # each pair's lesser (t, theta) first, then the pairs in ascending order
    swap = (tp[:, 1] < tp[:, 0]) | (tp[:, 1] == tp[:, 0]) & (sp[:, 1] < sp[:, 0])
    tp[swap], sp[swap] = tp[swap][:, ::-1], sp[swap][:, ::-1]
    order = np.lexsort((sp[:, 1], tp[:, 1], sp[:, 0], tp[:, 0]))
    ta, tb = tp[order].T.tolist()
    sa, sb = sp[order].T.tolist()
    return list(map(Collision, zip(ta, sa), zip(tb, sb), dist[order].tolist()))


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
    param_sep: float = PARAM_SEP,
    rank_tol: float = RANK_TOL,
    image_tol: float = IMAGE_TOL,
) -> bool:
    """True iff ``verify_surface`` passes (no boundary arc) on the
    perturbation family F_u for every u; stops at the first u that fails.

    ``map4`` is the *unperturbed* PolyMap4; F_u adds u * eps * t^(2N+1) and
    u * eps * s^(2N+1) to the third and fourth coordinates.
    """
    return all(
        verify_surface(replace(map4, polys=_perturb(map4.polys, spec.N, u * spec.epsilon)), None,
                       n_rank, n_inject, param_sep, rank_tol, image_tol).ok
        for u in u_samples
    )


def verify_surface(
    s,
    arc: KnotArc | None = None,
    n_rank: int = N_RANK,
    n_inject: int = N_INJECT,
    param_sep: float = PARAM_SEP,
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
