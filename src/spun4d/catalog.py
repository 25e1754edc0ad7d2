"""Built-in classical polynomial long knots, height lifting, and detection of
plane-projection double points.

Each catalog arc is a polynomial embedding t -> (f(t), g(t), h(t)) restricted
to the interval [a, b] where h vanishes at the ends and is positive inside, so
the arc lies in the upper half space with both endpoints on the xy-plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateInput, NonGeneric, UnknownKnot, UnliftableHeight
from .poly import Interval, Poly1, _keyed, _read_json, poly_scale, roots_in_interval

__all__ = ["KnotArc", "get_knot", "height_admissible", "knot_names", "lift_height",
           "plane_double_points"]

# parameter pairs closer than this to the diagonal are the curve meeting
# itself trivially, not double points
DIAG_SEP = 1e-3
MERGE_TOL = 1e-4
RESIDUAL_TOL = 1e-8
GRID_N = 600
# rows of the distance grid per block of its g part and of its band mask
_ROW_BLOCK = 64
# a height must be positive at this many evenly spaced interior points
HEIGHT_SAMPLES = 1000
# lift_height's binary search stops once its bracket on the shift is this narrow
LIFT_GRANULARITY = 1e-3
# a Newton start of plane_double_points takes at most this many steps
NEWTON_STEPS = 60


@dataclass(frozen=True)
class KnotArc:
    """A classical long knot restricted to [a, b] with lifted height."""

    name: str
    f: Poly1
    g: Poly1
    h: Poly1
    ab: Interval
    crossing_iv: Optional[Interval]
    crossings: tuple[tuple[float, float], ...]

    def point(self, t):
        return np.stack([self.f(t), self.g(t), self.h(t)], axis=-1)


def _root_bound(p: Poly1) -> float:
    """Cauchy bound on the magnitude of real roots."""
    c = p.coeffs
    return 1.0 + max(abs(x) for x in c[:-1]) / abs(c[-1]) if len(c) > 1 else 1.0


def height_admissible(h: Poly1, ab: Interval) -> bool:
    """True iff h is positive at ``HEIGHT_SAMPLES`` evenly spaced points
    strictly inside [a, b] and crosses zero transversely at both ends:
    h'(a) > 0 > h'(b)."""
    interior = ab.sample(HEIGHT_SAMPLES + 2)[1:-1]
    if not np.min(h(interior)) > 0.0:
        return False
    dh = h.derivative()
    return float(dh(ab.lo)) > 0.0 and float(dh(ab.hi)) < 0.0


def _admit(h: Poly1, search: Optional[Interval]) -> Interval | str:
    """The admission of an arc's height: [a, b] for its two roots a < b in
    ``search`` (by default within the Cauchy bound plus 1) when h is
    ``height_admissible`` on [a, b], else why not, in the words of a refusal
    after "height of <arc> "."""
    search = search or Interval(-(_root_bound(h) + 1.0), _root_bound(h) + 1.0)
    roots = roots_in_interval(h, search)
    if len(roots) != 2:
        return f"has {len(roots)} roots in {search}; expected exactly 2"
    ab = Interval(roots[0], roots[1])
    if not height_admissible(h, ab):
        return (f"is not positive between its roots {ab.lo:.6g} and {ab.hi:.6g}, "
                "or does not cross zero transversely at both")
    return ab


def _system(f, g, df, dg, x):
    """Residual (f(s) - f(t), g(s) - g(t)), its Jacobian and the Jacobian's
    determinant at every row (s, t) of ``x``."""
    s, t = x[:, 0], x[:, 1]
    F = np.stack([f(s) - f(t), g(s) - g(t)], axis=-1)
    J = np.stack([np.stack([df(s), -df(t)], -1), np.stack([dg(s), -dg(t)], -1)], axis=1)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    return F, J, det


def _newton_refine(f, g, df, dg, s0, t0, bound):
    """Newton iteration from every start (s0[k], t0[k]) at once; each start
    runs exactly the steps it would run alone.

    Returns x, F, det per start, F and det evaluated at the final x.  A start
    stops at a singular Jacobian (det reported as 0), also one whose LU
    factorization meets an exact zero pivot although det != 0, or diverges
    when a step leaves |x| <= bound (x = nan, F = inf, det = 0), or
    converges once its residual falls below 1e-14."""
    x = np.column_stack([s0, t0]).astype(float)
    running = np.ones(len(x), bool)
    singular = np.zeros(len(x), bool)
    for _ in range(NEWTON_STEPS):
        k = np.flatnonzero(running)
        if not k.size:
            break
        F, J, det = _system(f, g, df, dg, x[k])
        stop = (det == 0.0) | ~np.isfinite(det)
        step = np.zeros_like(F)
        try:
            step[~stop] = np.linalg.solve(J[~stop], F[~stop, :, None])[..., 0]
        except np.linalg.LinAlgError:
            # one start's zero pivot fails the whole batch: solve them one by one
            for i in np.flatnonzero(~stop):
                try:
                    step[i] = np.linalg.solve(J[i], F[i])
                except np.linalg.LinAlgError:
                    stop[i] = True
        singular[k[stop]] = True
        running[k[stop]] = False
        k, F = k[~stop], F[~stop]
        xn = x[k] - step[~stop]
        diverged = ~np.all(np.isfinite(xn), axis=1) | (np.max(np.abs(xn), axis=1) > bound)
        x[k[diverged]] = np.nan
        x[k[~diverged]] = xn[~diverged]
        running[k[diverged | (np.max(np.abs(F), axis=1) < 1e-14)]] = False
    F, _, det = _system(f, g, df, dg, x)
    diverged = np.isnan(x[:, 0])
    F[diverged] = np.inf
    det[singular | diverged] = 0.0
    return x, F, det


def _shifted(d: int) -> slice:
    """The indices i + d, for every grid index i whose i + d is on the grid."""
    return slice(max(d, 0), GRID_N + min(d, 0))


def plane_double_points(f: Poly1, g: Poly1, iv: Interval) -> list[tuple[float, float]]:
    """All parameter pairs s < t in ``iv`` with f(s)=f(t) and g(s)=g(t).

    Candidates come from local minima of the squared image distance on a
    600x600 grid and are polished by Newton iteration on the 2x2 system.
    Raises NonGeneric when a candidate converges onto a tangential
    (non-transverse) intersection.

    The search holds one full-size float array, the squared distances D
    (2.9 MB), built in place: the f part whole, the g part added in row
    blocks of ``_ROW_BLOCK``.  The cells below the band j - i >= off are set
    to +inf in D itself, in row blocks, and the 8-neighbour minima are slice
    comparisons on D into one bool mask that starts as D < thresh.  No padded
    copy, masked copy or triangular mask of the grid is made.
    """
    ts = iv.sample(GRID_N)
    step = iv.length / (GRID_N - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        df, dg = f.derivative(), g.derivative()
        fv, gv = f(ts), g(ts)
        D = np.subtract.outer(fv, fv)
        np.square(D, out=D)
        for r in range(0, GRID_N, _ROW_BLOCK):
            block = np.subtract.outer(gv[r:r + _ROW_BLOCK], gv)
            D[r:r + _ROW_BLOCK] += np.square(block, out=block)
        speed = float(np.max(np.hypot(df(ts), dg(ts))))
        thresh, speed_sq = np.square([6.0 * step * max(speed, 1e-12), max(speed, 1.0)])
        scale = max(poly_scale(f, iv), poly_scale(g, iv))
    if not (np.isfinite(D).all() and np.isfinite([thresh, speed_sq, scale]).all()):
        raise DegenerateInput(f"the plane curve (f, g) on [{iv.lo:.6g}, {iv.hi:.6g}] is too "
                              "large for double precision: its samples, speeds, scales or "
                              "squared distances overflow")

    off = max(1, int(np.ceil(DIAG_SEP / step)))
    cols = np.arange(GRID_N)
    for r in range(0, GRID_N, _ROW_BLOCK):
        rows = np.arange(r, min(r + _ROW_BLOCK, GRID_N))[:, None]
        D[r:r + _ROW_BLOCK][cols < rows + off] = np.inf
    # local minima over the 8-neighbourhood; a cell on the border has no
    # neighbour beyond it to lose to
    is_min = D < thresh
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                here = _shifted(-di), _shifted(-dj)
                is_min[here] &= D[here] <= D[_shifted(di), _shifted(dj)]
    cand = np.argwhere(is_min)
    del D, is_min

    bound = 2.0 * max(abs(iv.lo), abs(iv.hi)) + 1.0
    found: list[tuple[float, float]] = []
    refined = _newton_refine(f, g, df, dg, ts[cand[:, 0]], ts[cand[:, 1]], bound)
    for (s, t), F, det in zip(*refined):
        if not (np.isfinite(s) and np.isfinite(t)):
            continue
        if s > t:
            s, t = t, s
        if not (iv.contains(s, 1e-9) and iv.contains(t, 1e-9)):
            continue
        if t - s <= DIAG_SEP:
            continue
        if np.max(np.abs(F)) > RESIDUAL_TOL * max(scale, 1.0):
            continue
        if abs(det) < 1e-9 * max(speed, 1.0) ** 2:
            raise NonGeneric(
                f"tangential self-intersection of the plane projection near (s, t) = ({s:.6g}, {t:.6g})"
            )
        if not any(abs(s - a) < MERGE_TOL and abs(t - b) < MERGE_TOL for a, b in found):
            found.append((float(s), float(t)))
    found.sort()
    return found


def lift_height(h0: Poly1, f: Poly1, g: Poly1) -> tuple[Poly1, Interval]:
    """Shift ``h0`` by the minimal R (binary search to ``LIFT_GRANULARITY``) so that
    h = h0 + R has exactly two real roots a < b, is positive between them, and
    [a, b] contains every double point of the (f, g) projection."""
    if h0.is_zero or h0.degree < 2 or h0.degree % 2 != 0 or h0.coeffs[-1] >= 0:
        raise UnliftableHeight(
            "height seed must have even degree >= 2 and negative leading coefficient"
        )
    wide_bound = 1.0 + max(_root_bound(f), _root_bound(g), _root_bound(h0))
    crossings = plane_double_points(f, g, Interval(-wide_bound, wide_bound))
    params = [p for pair in crossings for p in pair]

    def ok(R: float) -> Optional[Interval]:
        ab = _admit(h0 + Poly1((R,)), None)
        if isinstance(ab, str) or any(not ab.contains(p) for p in params):
            return None
        return ab

    hi = max(LIFT_GRANULARITY, 1.0)
    while ok(hi) is None:
        hi *= 2.0
        if hi > 1e9:
            raise UnliftableHeight("no admissible shift found up to R = 1e9")
    lo = 0.0
    while hi - lo > LIFT_GRANULARITY:
        mid = 0.5 * (lo + hi)
        if ok(mid) is None:
            lo = mid
        else:
            hi = mid
    ab = ok(hi)
    return h0 + Poly1((hi,)), ab


# -- catalog fixtures -------------------------------------------------------

_FIXTURES = {
    # Shastri's trefoil with the quartic height shifted into the upper half space
    "trefoil_spun": {
        "f": (0.0, -3.0, 0.0, 1.0),          # t^3 - 3t
        "g": (0.0, -10.0, 0.0, 0.0, 0.0, 1.0),  # t^5 - 10t
        "h": (3.0, 0.0, 4.0, 0.0, -1.0),     # -t^4 + 4t^2 + 3
    },
    # same projection, taller height so a twist axis fits above the crossings
    "trefoil_twist": {
        "f": (0.0, -3.0, 0.0, 1.0),
        "g": (0.0, -10.0, 0.0, 0.0, 0.0, 1.0),
        "h": (16.0, 0.0, 4.0, 0.0, -1.0),    # -t^4 + 4t^2 + 16
    },
    # figure-eight plane curve (degree 5 / 7) with quartic height
    "figure8_spun": {
        "f": (Poly1((-7.0, 0.0, 1.0)) * Poly1((-10.0, 0.0, 1.0)) * Poly1((0.0, 0.4))).coeffs,
        "g": (Poly1((-4.0, 0.0, 1.0)) * Poly1((-9.0, 0.0, 1.0)) * Poly1((-12.0, 0.0, 1.0))
              * Poly1((0.0, 0.1))).coeffs,
        "h": (20.0, 0.0, -13.0, 0.0, -1.0),  # 20 - 13 t^2 - t^4
    },
}

_CACHE: dict[str, KnotArc] = {}
CROSSING_IV_PAD = 1e-3


def _build_arc(name: str, f: Poly1, g: Poly1, h: Poly1, hint: Optional[Interval] = None) -> KnotArc:
    ab = _admit(h, hint)
    if isinstance(ab, str):
        raise DegenerateInput(f"height of {name!r} {ab}")
    crossings = tuple(plane_double_points(f, g, ab))
    if crossings:
        params = [p for pair in crossings for p in pair]
        crossing_iv = Interval(min(params) - CROSSING_IV_PAD, max(params) + CROSSING_IV_PAD)
    else:
        crossing_iv = None
    return KnotArc(name, f, g, h, ab, crossing_iv, crossings)


def knot_names() -> list[str]:
    return sorted(_FIXTURES)


def get_knot(name: str) -> KnotArc:
    """Catalog arc by name, or a user definition loaded from a JSON file path.

    Catalog arcs are built once per process; a user file is read on every
    call, so edits to it are seen."""
    if name in _CACHE:
        return _CACHE[name]
    if name in _FIXTURES:
        fx = _FIXTURES[name]
        arc = _build_arc(name, Poly1(fx["f"]), Poly1(fx["g"]), Poly1(fx["h"]))
        _CACHE[name] = arc
        return arc
    if name.endswith(".json"):
        return _load_user_knot(name)
    raise UnknownKnot(f"unknown knot {name!r}; available: {', '.join(knot_names())}")


def _load_user_knot(path: str) -> KnotArc:
    try:
        doc = _read_json(path)
    except OSError as exc:
        raise UnknownKnot(f"cannot read knot definition {path!r}: {exc}") from exc
    except ValueError as exc:
        raise DegenerateInput(f"knot definition {exc}") from None
    if not isinstance(doc, dict):
        raise DegenerateInput(f"knot definition {path!r} must be a JSON object with keys "
                              f"'f', 'g' and 'h', got a JSON {type(doc).__name__}")
    try:
        f, g, h = (_keyed(f"key {key!r}", Poly1.from_json, doc[key]) for key in "fgh")
        hint = (_keyed("key 'interval_hint'", Interval.from_json, doc["interval_hint"])
                if "interval_hint" in doc else None)
        return _build_arc(doc.get("name", path), f, g, h, hint)
    except KeyError as exc:  # the keys of the arc's parts are _keyed's
        raise DegenerateInput(f"knot definition {path!r}: missing key {exc} "
                              "(expected {\"coeffs\": [...]})") from None
    except (ValueError, DegenerateInput) as exc:
        raise DegenerateInput(f"knot definition {path!r}: {exc}") from None
