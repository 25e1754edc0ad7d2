"""Numerical certification that a surface behaves as an embedding: rank-2
Jacobian on a grid, image-space collision detection, boundary transversality,
and the one-parameter perturbation family check.

All checks are sampling based: a pass means "no failure detected at this
resolution", never a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .approx import PerturbationSpec, _perturb
from .catalog import KnotArc, height_admissible
from .poly import Interval, _count, _real, poly_scale
from .surface import _images, _squared_distances

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
_EPS = 2.0 ** -52
# elements per call of the blocked index step of ``_low_fields``: a block's
# temporary is all that it makes
_BLOCK = 1 << 14
# adding 1.5 * 2**52 rounds a double below 2**51 in size to an integer, which
# the sum's low bits then hold
_ROUNDER = 1.5 * 2.0 ** 52
_ROUNDER_BITS = np.float64(_ROUNDER).view(np.int64)
# the R^4 stage's column shifts on axes 0-2, each numbered by its bits, and
# how many keys it sorts at once: those of as many shifts as fit, at least one
_SHIFTS = np.array(list(np.ndindex(2, 2, 2)))
_SHIFT_BITS = np.array([4, 2, 1], np.uint8)
_SORT_KEYS = 1 << 17
# every sort key has bit 61 set and bits 62-63 clear (``_sort_keys``); the R^4
# stage's shift number sits below it
_KEY_MARK = 1 << 61
_SHIFT_AT = 58
# the plane stage's columns are 2**_COLUMN_BITS half cells wide on hx; _EDGE is
# the last half cell's hx mod 2**_COLUMN_BITS
_COLUMN_BITS = 4
_EDGE = (1 << _COLUMN_BITS) - 1
# the plane stage's walk tests sorted neighbours less than _WALK apart, and
# takes both rows of a run still open at _WALK untested
_WALK = 6


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


def _settings(n_t, n_s, tol, param_sep=PARAM_SEP, image_tol=IMAGE_TOL,
              names=("n_rank", "n_inject", "rank_tol")) -> tuple[int, int, float, float, float]:
    """The scans' settings, two ints and three floats, refused with a ValueError
    before any work: the grid sizes (``poly._count``, at least 16), then the
    real ones (``poly._real``) out of range.  ``names`` names sizes and ``tol``."""
    n_t, n_s = _count(n_t, names[0], 16), _count(n_s, names[1], 16)
    if not 0.0 < _real(tol) < 1.0:
        raise ValueError(f"{names[2]} must be in (0, 1), got {tol!r}")
    if not 0.0 < _real(param_sep) < 1.0:
        raise ValueError(f"param_sep must be in (0, 1), got {param_sep!r}")
    if not _real(image_tol) > 0.0:
        raise ValueError(f"image_tol must be > 0, got {image_tol!r}")
    if _real(image_tol) < 2.0 ** -511:  # below it, the distance test's image_tol**2 is not a normal double
        raise ValueError(f"image_tol must be at least 2**-511 (about 1.49e-154), got {image_tol!r}")
    return n_t, n_s, float(tol), float(param_sep), float(image_tol)


def _gram_grid(s, tvals, svals):
    """g11, g22, g12 of the Gram matrix J^T J over the tensor grid, from the
    sampler's ``_rows`` with their derivatives, a_i on t and b_i on theta
    for coordinate i.  Its partials are the products of its own rows,
    d/dt of a_i[1] and b_i[0] and d/dtheta of a_i[0] and b_i[1], each an
    einsum as ``surface._grid_sums`` makes it (its columns added in order
    from 0.0) into a reused buffer.  Each Gram entry sums their products,
    made in a third, over the coordinates as ((p0 + p1) + p2) + p3, the
    order of ``np.sum`` over a length-4 axis.  No (n_t, n_s, 4) array is
    built."""
    rows = zip(s._rows("t", tvals, True), s._rows("s", svals, True))
    shape = (len(tvals), len(svals))
    g11, g22, g12 = np.empty(shape), np.empty(shape), np.empty(shape)
    dt, ds, p = np.empty(shape), np.empty(shape), np.empty(shape)
    for i, (a, b) in enumerate(rows):
        np.einsum("kt,ks->ts", a[1], b[0], out=dt)
        np.einsum("kt,ks->ts", a[0], b[1], out=ds)
        for g, x, y in ((g11, dt, dt), (g22, ds, ds), (g12, dt, ds)):
            if i:
                np.multiply(x, y, out=p)
                g += p
            else:
                np.multiply(x, y, out=g)
    return g11, g22, g12


def jacobian_rank_scan(s, n_t: int, n_s: int, tol: float = RANK_TOL) -> tuple[bool, float]:
    """Smallest ratio sigma_2 / sigma_1 of the 4x2 Jacobian over an inset grid.

    The partials come from the sampler's rank-K rows and their derivatives
    (``_rows`` with ``deriv``), one product per coordinate of its own rows,
    the same for every sampler (``_gram_grid``), not from ``partials_grid``;
    they are its values bit for bit.  A sampler without ``_rows`` is
    refused with a TypeError.  A sampler of no terms has zero
    partials, and a ratio of 0.  The ratio comes from the eigenvalues of the
    2x2 Gram matrix J^T J, worked out in place in the Gram entries' buffers
    and one more; the scan passes when the minimum exceeds ``tol``.  Pole
    rows are excluded by the half-cell inset (the parametrization is
    intentionally degenerate there).
    """
    if not hasattr(s, "_rows"):
        raise TypeError(f"the rank scan needs rank-K rows (_rows); {type(s).__name__} has none")
    n_t, n_s, tol, _, _ = _settings(n_t, n_s, tol, names=("n_t", "n_s", "tol"))
    tvals = _inset_samples(s.t_dom, n_t)
    svals = _inset_samples(s.s_dom, n_s)
    with np.errstate(all="ignore"):
        g11, g22, g12 = _gram_grid(s, tvals, svals)
        tr = g11 + g22
        # disc = sqrt((g11 - g22)**2 + 4 g12**2), in g11: a sum of squares,
        # so >= 0 or NaN
        disc = g11
        disc -= g22
        disc *= disc
        g12 *= g12
        g12 *= 4.0
        disc += g12
        np.sqrt(disc, out=disc)
        # twice the eigenvalues: lam_hi = tr + disc in g22, lam_lo = max(tr - disc, 0) in tr
        lam_hi = np.add(tr, disc, out=g22)
        lam_lo = tr
        lam_lo -= disc
        np.maximum(lam_lo, 0.0, out=lam_lo)
        # tr and disc are >= 0 or NaN, so lam_hi is finite iff both are
        if not np.isfinite(lam_hi).all():
            raise ValueError("the surface's Jacobian is not finite on the rank grid, "
                             "or its Gram matrix overflows")
        # the squared ratio lam_lo / lam_hi, and 0 where lam_hi is 0
        positive = lam_hi > 0.0
        ratio_sq = np.divide(lam_lo, lam_hi, out=lam_lo, where=positive)
        ratio_sq[~positive] = 0.0
    # sqrt is monotone and correctly rounded: the root of the least square is
    # the least root
    min_ratio = float(np.sqrt(np.min(ratio_sq)))
    return bool(min_ratio > tol), min_ratio


def _half_width(r: float, room: float) -> float:
    """Half the cell side of the close-pair search for radius ``r``.  A
    pair that passes the distance test is at most r (1 + 4 eps) apart (r at
    least 2**-511, so that r * r is a normal double), which the factor
    1 + 2**-20 exceeds by a margin of more than 2**-21 of the half width;
    ``room`` covers the rounding of the scaled coordinates.  So such a pair
    is strictly less than one half cell apart on every axis once scaled,
    and its half-cell indices (``_rounded``) differ by at most 1."""
    return r * (1.0 + 2.0 ** -20) + room


def _rounded(u: np.ndarray) -> np.ndarray:
    """The integers nearest the values of ``u``, ties to even (``np.rint``),
    as int64, in place: the result is a view of the contiguous float array
    ``u``, which is spent.  Its values must be below 2**51 in size: then
    u + 1.5 * 2**52 lies in [2**52, 2**53], where the doubles are the
    integers, so the sum rounds u once, to nearest even (1.5 * 2**52 is
    even), and its bits less those of 1.5 * 2**52 are that integer.  Two
    values less than 1 apart get indices at most 1 apart: each index is
    within 1/2 of its value."""
    u += _ROUNDER
    h = u.view(np.int64)
    h -= _ROUNDER_BITS
    return h


def _size(pts: np.ndarray) -> float:
    return max(float(pts.max(initial=0.0)), -float(pts.min(initial=0.0)))


def _image_plane(pts: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The half-cell indices hx and hy of the plane stage for radius ``r``,
    two (m,) int64 arrays, the rows of one buffer, of the rows of the (m, 4)
    array ``pts``: their plane coordinates in half cells, rounded in place
    (``_rounded``).

    The plane's basis is divided by the half width h before the one
    product.  With size the largest |coordinate|, each scaled coordinate
    is within 5 eps * size / h of the exact projection of its row over h
    (the basis rounded, four products summed), so a room of 16 eps * size
    covers two rows; scaled coordinates stay below 2**48 in size, so they
    round exactly.
    """
    # einsum, not matmul: a threaded BLAS product of this shape can take ten
    # times as long as one thread
    u = np.einsum("ij,jk->ki", pts, _PLANE / _half_width(r, 16.0 * _EPS * _size(pts)), order="C")
    return tuple(_rounded(u))


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
    if ib + yb > bits:
        y >>= ib + yb - bits
    y <<= ib
    # the indices a block at a time, so that no array of them all is made
    for i in range(0, len(y), _BLOCK):
        y[i:i + _BLOCK] |= np.arange(i, min(i + _BLOCK, len(y)))
    return bits, ib


def _sort_keys(key: np.ndarray) -> None:
    """Sort the int64 or uint64 keys ``key``, all in [2**61, 2**62), in
    place through a float64 view.  Bit 62 is 0 and bit 61 is 1, so each
    key's bits are those of a positive double with an exponent field in
    [512, 1023], a normal number; positive doubles order as their bits read
    as unsigned integers, so the float sort is the unsigned one, and numpy's
    float64 sort is the faster of the two."""
    key.view(np.float64).sort()


def _suspects(hx: np.ndarray, hy: np.ndarray) -> np.ndarray:
    """The plane stage: ascending indices of the rows whose half-cell
    indices, in the contiguous (m,) int64 arrays ``hx`` and ``hy``, differ
    from another row's by at most 1 on both axes (that is, share a cell in
    one of the 4 grids of the plane), and a few more.  ``hy`` is spent: it
    holds the low fields, then the steps between sorted keys and the flags.

    One sort finds them.  The rows fall in columns hx >> w, 2**w half cells
    wide (w = ``_COLUMN_BITS``), and a row on the last half cell of its
    column (hx = -1 mod 2**w) is keyed into the next column too, so a pair
    with |dhx| <= 1 shares a column, and m rows make about m (1 + 2**-w)
    keys.  A key packs, from the high bits to the low, the bit 2**61
    (``_sort_keys``), the top bits of a multiplicative hash of its column,
    and the low fields of ``_low_fields``: hy - min(hy) and the row's index.
    Sorted, a column lists its rows by hy, so the rows between the two of a
    pair have keys, less the index bits, between theirs.  The walk over
    offsets d = 1, 2, ..., W (W = ``_WALK``) keeps the runs, the positions
    whose key at d is, less the index bits, at most 1 above their own.  At
    d < W the two rows of a run that pass the exact test |dhx| <= 1 are
    suspects; at d = W both rows are, untested.  A pair at d >= W is met
    there: its lower row's run is still open at W, and so is the run of the
    row W before its upper row.  So the walk ends at W however many rows
    share a cell (a cluster, a constant map).  Columns whose hashes agree,
    and the step from one column to the next, only add suspects; so do the
    runs open at W, which on the scans of the k = 0-10 twist spins of
    ``trefoil_twist`` at 400 (k = 1 and 10 at 600 too) and of
    ``polynomial_spin(..., 8-16)`` at 200 hold no row that is not in a pair.
    """
    m = len(hx)
    if m < 2:
        return np.zeros(0, np.intp)
    bits, ib = _low_fields(hy)
    # the rows on their column's last half cell, from hx mod 256
    edge = hx.astype(np.uint8)
    edge &= _EDGE
    edge = np.flatnonzero(edge == _EDGE)
    key = np.empty(m + len(edge), np.int64)
    np.right_shift(hx, _COLUMN_BITS, out=key[:m])
    np.take(hx, edge, out=key[m:])
    key[m:] >>= _COLUMN_BITS
    key[m:] += 1
    key *= _CELL_HASH[0]  # wraps
    # the mask clears the bits that the shift fills with the sign
    key >>= 3
    key &= (1 << 61) - (1 << bits)
    key |= _KEY_MARK
    key[:m] |= hy
    key[m:] |= hy[edge]
    del edge
    _sort_keys(key)
    # hy is spent: the first half of its buffer takes the steps, m // 2 at a
    # time, and the second flags the positions whose step is under two index
    # fields, the candidates of the walk
    n = len(key) - 1
    step, near = hy[:m // 2], hy.view(bool)[4 * m:4 * m + n]
    for i in range(0, n, len(step)):
        part = step[:n - i]
        np.subtract(key[i + 1:i + 1 + len(part)], key[i:i + len(part)], out=part)
        np.less(part, 2 << ib, out=near[i:i + len(part)])
    pos = np.flatnonzero(near)
    suspect = hy.view(bool)[:m]
    suspect[:] = False
    # each run's first key, less its index field, its row and the row's hx
    index = (1 << ib) - 1
    top = key[pos]
    row = top & index
    top >>= ib
    x = hx[row]
    for d in range(1, _WALK + 1):
        # the runs with a key at d, and those still open there
        k = np.searchsorted(pos, n + 1 - d)
        pos, top, row, x = pos[:k], top[:k], row[:k], x[:k]
        b = key[d:][pos]
        run = (b >> ib) - top <= 1
        # in a cluster every run stays open: no copies
        if not run.all():
            pos, top, row, x, b = pos[run], top[run], row[run], x[run], b[run]
        b &= index
        if d < _WALK:
            close = np.abs(hx[b] - x) <= 1
            suspect[row[close]] = True
            suspect[b[close]] = True
        else:
            suspect[row] = True
            suspect[b] = True
    return np.flatnonzero(suspect)


def _space_pairs(pts: np.ndarray, r: float):
    """The R^4 stage: yield batches ``(i, j)``, i < j, of the index pairs of
    the rows of the (m, 4) array ``pts`` at most ``r`` apart, each pair once.

    The half cells have side r (1 + 2**-20) plus 4 eps * size: a scaled
    coordinate is within eps * size / 2 of its exact value in half cells,
    which the room covers for two rows, so a close pair's indices h
    (``_rounded``) differ by at most 1 on every axis.  For each shift off
    in {0, 1}**3, numbered by its bits, the rows fall in columns
    (h + off) >> 1 on axes 0-2, and a row's key packs, from the high bits
    to the low, the bit 2**61 (``_sort_keys``), the shift's number in 3
    bits, the top bits (18 or more) of a multiplicative hash of its column,
    and the low fields of ``_low_fields`` on axis 3.  A close pair shares a
    column for the off that is 1 just on the axes where its indices h >> 1
    differ, and is kept only there; an off that is 1 on an axis where every
    row has the same h >> 1 owns no pair and is skipped.  The keys of the owned shifts are
    sorted together, as many shifts at once as fit in ``_SORT_KEYS`` keys
    (at least one), and walked once.  Sorted, the rows between the two of a
    pair have keys, less the index bits, between theirs, so the walk over
    offsets d = 1, 2, ... along the sorted keys, at the positions whose key
    at d is at most 1 above their own, meets the pair.  Columns whose
    hashes agree, and the step from one column or shift to the next, only
    add candidates; a candidate is kept when both its keys carry its own
    shift.  The test is the squared distance of
    ``surface._squared_distances``, summed coordinate by coordinate, at
    most r * r, as ``cKDTree.query_pairs`` makes it.
    """
    m = len(pts)
    if m < 2:
        return
    h = _rounded(pts / _half_width(r, 4.0 * _EPS * _size(pts)))
    low = h[:, 3].copy()
    bits, ib = _low_fields(low)
    low = low.view(np.uint64)
    index = (1 << ib) - 1
    # (h + 1) >> 1 is h >> 1, plus 1 where h is odd
    cell = h[:, :3] >> 1
    odd = (h[:, :3] & 1).astype(bool)
    del h
    varies = int((cell != cell[0]).any(axis=0).view(np.uint8) @ _SHIFT_BITS)
    owned = [n for n in range(8) if not n & ~varies]
    per = max(1, _SORT_KEYS // m)
    for first in range(0, len(owned), per):
        shifts = owned[first:first + per]
        col = _SHIFTS[shifts, None] & odd
        col += cell
        key = (col @ _CELL_HASH).view(np.uint64)  # wraps
        del col
        # from the high bits: the bit 2**61, the shift's number, the hash's
        # top bits, the low fields
        key >>= 64 - _SHIFT_AT
        key &= (1 << _SHIFT_AT) - (1 << bits)
        key |= np.array(shifts, np.uint64)[:, None] << _SHIFT_AT | _KEY_MARK
        key |= low
        key = key.reshape(-1)
        _sort_keys(key)
        top = key >> ib
        pos = np.flatnonzero(top[1:] - top[:-1] <= 1)
        d = 1
        while len(pos):
            i = (key[pos] & index).astype(np.intp)
            j = (key[pos + d] & index).astype(np.intp)
            own = (cell[i] != cell[j]).view(np.uint8) @ _SHIFT_BITS
            own |= _KEY_MARK >> _SHIFT_AT
            mine = (own == key[pos] >> _SHIFT_AT) & (own == key[pos + d] >> _SHIFT_AT)
            i, j = i[mine], j[mine]
            # rows whose keys agree by chance may be far apart: a square
            # beyond double range is inf, which fails the test
            with np.errstate(over="ignore"):
                close = _squared_distances(pts[i] - pts[j]) <= r * r
            if close.any():
                i, j = i[close], j[close]
                yield np.minimum(i, j), np.maximum(i, j)
            d += 1
            pos = pos[pos + d < len(key)]
            pos = pos[top[pos + d] - top[pos] <= 1]


def _rounding_bound(rows) -> float:
    """m of ``_factor_plane``: K, the number of columns of all coordinates'
    value rows ``(a, b)``, times a bound on their sum of |a| |b| at every
    node.  ``evaluate`` adds the products in column order from 0.0, so it
    rounds by at most eps * m, summed over the coordinates."""
    k = sum(a.shape[1] for a, _ in rows)
    return k * float(np.max(sum(np.abs(b[0]).max(axis=1) @ np.abs(a[0]) for a, b in rows), initial=0.0))


def _factor_plane(s, tvals, svals, r: float):
    """The half-cell indices hx and hy of the plane stage for radius ``r``
    of every sample of the scan grid, two (n_t * n_s,) int64 arrays in
    row-major order, the rows of one buffer: the plane coordinates in half
    cells, rounded in place (``_rounded``) where the product puts them.
    Those come from the sampler's value rows, a_i on t and b_i on theta
    for coordinate i (``_rows``), in one product per axis of the plane: the
    t-rows of all coordinates stacked, times their theta-rows each scaled
    by its coordinate's weight on that axis (0.5 or -0.5, from ``_PLANE``)
    over the half width h; or None when m or a scaled theta-row is not
    finite.

    The room is 4 eps m, m from ``_rounding_bound``, K the number of
    columns of all coordinates.  At a node, the image that ``evaluate``
    returns is within eps * m of the exact sum of a b, summed over the
    coordinates, so its exact projection is within eps * m / 2 of that
    sum's.  The scaled weight, each scaled theta-row entry, and the
    product's K products and sums round by a relative (K + 2) eps / 2 of
    the sum of |a b| / 2h, which is at most m / 2Kh: less than eps * m / h
    in all.  Two nodes take less than 3 eps m / h, and the room 4 eps m
    covers it.  An entry or product below 2**-1022 in size rounds by at
    most 2**-1075, that is 2**-1075 |a| < 2**-51 half cells; for K < 2**28
    the 4K of two nodes stay below 2**-21 half cells, less than the margin
    that ``_half_width`` and the room leave.  Scaled coordinates stay
    below 2**49 in size, so they round exactly.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rows = list(zip(s._rows("t", tvals, False), s._rows("s", svals, False)))
        m = _rounding_bound(rows)
        a = np.concatenate([a[0] for a, _ in rows])
        weights = _PLANE / _half_width(r, 4.0 * _EPS * m)
        bp = np.stack([np.concatenate([b[0] * w for (_, b), w in zip(rows, axis)]) for axis in weights.T])
    if not (np.isfinite(m) and np.isfinite(bp).all()):
        return None
    # both products in one (2, n_t, n_s) buffer: with two of half its size,
    # perfbench's twist_certify ran about 5% fewer ops per second
    return tuple(_rounded(np.matmul(a.T, bp)).reshape(2, -1))


def injectivity_scan(s, n_t: int, n_s: int, param_sep: float, image_tol: float = IMAGE_TOL) -> list[Collision]:
    """Sampled self-intersection detection.

    Images of the parameter grid are searched for pairs at most ``image_tol``
    apart whose normalized parameter separation (torus metric in theta when
    periodic, zero between identified pole parameters) exceeds
    ``param_sep``.  Before any work the grid sizes, then ``param_sep`` and
    ``image_tol`` (``_settings``, whose floats it scans with; at least
    2**-511, so that its square is a normal double), then the domains are
    checked.  An empty result means no self-intersection detected at this
    resolution.  The scan stops once it holds ``MAX_COLLISIONS``
    collisions, so a result of that length is a lower bound.

    Theta is sampled without its end when periodic, so the grid has no seam
    column, and each flagged pole row is one node, its first sample.  The
    nodes are then the samples start:stop of the row-major grid, once sample
    start stands for the low pole.  The plane coordinates of every sample come
    from the sampler's rank-K ``_rows`` when it has them with a finite bound
    (``_factor_plane``, whose rounding room covers the gap to the projections
    of the images that ``evaluate`` returns), and else from the image grid
    (``_image_plane``), which is dropped once projected: the route of
    evaluate-only samplers, such as acceptance criterion 6's ``_Projected``
    and demo 01's xzw projection.  Either scales them by the half cell as it
    projects, and rounds them in place (``_rounded``) to two contiguous arrays
    of half-cell indices, hx and hy, one per axis of the plane, and sample
    start takes sample 0's in both.  One path follows: the plane stage
    (``_suspects``: one sort of packed keys, each row in its column
    2**``_COLUMN_BITS`` half cells wide and the rows of a column's last half
    cell in the next one too, walked at most ``_WALK`` sorted keys on) on the
    nodes' slices of hx and hy, the images of the suspects alone, and the
    R^4 stage (``_space_pairs``, one sort of the keys of all its column
    shifts when they fit in ``_SORT_KEYS``) on them.  Both sort keys in
    [2**61, 2**62) as float64, whose order there is the keys' unsigned one
    (``_sort_keys``).  Both stages find a superset of the close pairs:
    two nodes whose images pass the distance test are strictly less than one
    half cell apart on every axis (``_half_width``), so their indices differ
    by at most 1.  The plane stage is an exact prefilter: the projection moves
    no pair further apart, so a node with no other within one half cell on
    both axes of the plane is in no close pair.  The first ``MAX_COLLISIONS``
    collisions it yields are kept as arrays, their distances the roots of
    ``surface._squared_distances`` (the bits of ``np.linalg.norm``'s), each
    pair with its lesser (t, theta) first, sorted by a stable ``np.lexsort``
    on (param_a, param_b), and only then made ``Collision`` objects.
    """
    n_t, n_s, _, param_sep, image_tol = _settings(n_t, n_s, RANK_TOL, param_sep, image_tol, ("n_t", "n_s", "tol"))
    for name, dom in (("t_dom", s.t_dom), ("s_dom", s.s_dom)):
        if not dom.length > 0.0:
            raise ValueError(f"{name} must have positive length, got [{dom.lo!r}, {dom.hi!r}]")
    tvals = s.t_dom.sample(n_t)
    if s.periodic_s:
        svals = s.s_dom.lo + s.s_dom.length * np.arange(n_s) / n_s
    else:
        svals = s.s_dom.sample(n_s)
    what = "the surface's image on the injectivity grid"
    start = n_s - 1 if s.pole_low else 0
    stop = (n_t - 1) * n_s + 1 if s.pole_high else n_t * n_s
    plane = _factor_plane(s, tvals, svals, image_tol) if hasattr(s, "_rows") else None
    if plane is None:
        plane = _image_plane(_images(s, tvals[:, None], svals[None, :], what).reshape(-1, 4), image_tol)
    hx, hy = plane
    hx[start], hy[start] = hx[0], hy[0]
    sus = _suspects(hx[start:stop], hy[start:stop])
    del plane, hx, hy
    if len(sus) == 0:
        return []
    # grid row and column of each suspect's first sample
    row, col = np.divmod(sus + start, n_s)
    if start:
        row[sus == 0] = col[sus == 0] = 0
    pts = _images(s, tvals[row], svals[col], what)
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
        found.append((tp[hits], sp[hits], np.sqrt(_squared_distances(pts[i] - pts[j]))))
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
    u * eps * s^(2N+1) to the third and fourth coordinates.  An empty
    ``u_samples``, which would check nothing, and a u that is not finite are
    refused with a ValueError before any family map is built.
    """
    u_samples = list(u_samples)
    us = [_real(u) for u in u_samples]
    if not us or not all(map(math.isfinite, us)):
        raise ValueError(f"u_samples must be one or more finite u, got {u_samples!r}")
    return all(
        verify_surface(replace(map4, polys=_perturb(map4.polys, spec.N, u * spec.epsilon)), None,
                       n_rank, n_inject, param_sep, rank_tol, image_tol).ok
        for u in us
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
    """Bundle of all applicable checks for one surface, as a report.  All five
    settings are checked (``_settings``) before the first scan; then a sampler
    without rank-K ``_rows`` (only ``evaluate``) is refused with a TypeError."""
    n_rank, n_inject, rank_tol, param_sep, image_tol = _settings(n_rank, n_inject, rank_tol, param_sep, image_tol)
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
