"""Built-in classical polynomial long knots, height lifting, and detection of
plane-projection double points.

Each catalog arc is a polynomial embedding t -> (f(t), g(t), h(t)) restricted
to the interval [a, b] where h vanishes at the ends and is positive inside, so
the arc lies in the upper half space with both endpoints on the xy-plane.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateInput, NonGeneric, UnknownKnot, UnliftableHeight
from .poly import Interval, Poly1, poly_scale, roots_in_interval

__all__ = ["KnotArc", "get_knot", "height_admissible", "knot_names", "lift_height",
           "plane_double_points"]

# parameter pairs closer than this to the diagonal are the curve meeting
# itself trivially, not double points
DIAG_SEP = 1e-3
MERGE_TOL = 1e-4
RESIDUAL_TOL = 1e-8
GRID_N = 600
# a height must be positive at this many evenly spaced interior points
HEIGHT_SAMPLES = 1000
# lift_height's binary search stops once its bracket on the shift is this narrow
LIFT_GRANULARITY = 1e-3


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
    interior = np.linspace(ab.lo, ab.hi, HEIGHT_SAMPLES + 2)[1:-1]
    if not np.min(h(interior)) > 0.0:
        return False
    dh = h.derivative()
    return float(dh(ab.lo)) > 0.0 and float(dh(ab.hi)) < 0.0


def _system(f, g, df, dg, x):
    """Residual (f(s) - f(t), g(s) - g(t)), its Jacobian and the Jacobian's
    determinant at every row (s, t) of ``x``."""
    s, t = x[:, 0], x[:, 1]
    F = np.stack([f(s) - f(t), g(s) - g(t)], axis=-1)
    J = np.stack([np.stack([df(s), -df(t)], -1), np.stack([dg(s), -dg(t)], -1)], axis=1)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    return F, J, det


def _newton_refine(f, g, df, dg, s0, t0, bound, iters=60):
    """Newton iteration from every start (s0[k], t0[k]) at once; each start
    runs exactly the steps it would run alone.

    Returns x, F, det per start.  A start stops at a singular Jacobian (det
    reported as 0), or diverges when a step leaves |x| <= bound (x = nan,
    F = inf, det = 0), or converges once its residual falls below 1e-14 (F and
    det evaluated at the final x, as after the last iteration)."""
    x = np.column_stack([s0, t0]).astype(float)
    F_out = np.empty_like(x)
    det_out = np.zeros(len(x))
    running = np.ones(len(x), bool)
    stopped = np.zeros(len(x), bool)  # singular or diverged: outputs final
    for _ in range(iters):
        k = np.flatnonzero(running)
        if not k.size:
            break
        F, J, det = _system(f, g, df, dg, x[k])
        singular = (det == 0.0) | ~np.isfinite(det)
        F_out[k[singular]] = F[singular]
        stopped[k[singular]] = True
        running[k[singular]] = False
        k, F, J = k[~singular], F[~singular], J[~singular]
        xn = x[k] - np.linalg.solve(J, F[..., None])[..., 0]
        diverged = ~np.all(np.isfinite(xn), axis=1) | (np.max(np.abs(xn), axis=1) > bound)
        x[k[diverged]] = np.nan
        F_out[k[diverged]] = np.inf
        stopped[k[diverged]] = True
        x[k[~diverged]] = xn[~diverged]
        running[k[diverged | (np.max(np.abs(F), axis=1) < 1e-14)]] = False
    k = np.flatnonzero(~stopped)
    F_out[k], _, det_out[k] = _system(f, g, df, dg, x[k])
    return x, F_out, det_out


def plane_double_points(f: Poly1, g: Poly1, iv: Interval) -> list[tuple[float, float]]:
    """All parameter pairs s < t in ``iv`` with f(s)=f(t) and g(s)=g(t).

    Candidates come from local minima of the squared image distance on a
    600x600 grid and are polished by Newton iteration on the 2x2 system.
    Raises NonGeneric when a candidate converges onto a tangential
    (non-transverse) intersection.
    """
    ts = iv.sample(GRID_N)
    step = iv.length / (GRID_N - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        df, dg = f.derivative(), g.derivative()
        fv, gv = f(ts), g(ts)
        D = (fv[:, None] - fv[None, :]) ** 2 + (gv[:, None] - gv[None, :]) ** 2
        speed = float(np.max(np.hypot(df(ts), dg(ts))))
        thresh, speed_sq = np.square([6.0 * step * max(speed, 1e-12), max(speed, 1.0)])
        scale = max(poly_scale(f, iv), poly_scale(g, iv))
    if not (np.isfinite(D).all() and np.isfinite([thresh, speed_sq, scale]).all()):
        raise DegenerateInput(f"the plane curve (f, g) on [{iv.lo:.6g}, {iv.hi:.6g}] is too "
                              "large for double precision: its samples, speeds, scales or "
                              "squared distances overflow")

    off = max(1, int(np.ceil(DIAG_SEP / step)))
    mask = np.triu(np.ones_like(D, bool), k=off)
    Dm = np.where(mask, D, np.inf)
    # local minima over the 8-neighborhood
    P = np.pad(Dm, 1, constant_values=np.inf)
    is_min = np.ones_like(Dm, bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            is_min &= Dm <= P[1 + di : 1 + di + GRID_N, 1 + dj : 1 + dj + GRID_N]
    cand = np.argwhere(is_min & (Dm < thresh))

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
        h = h0 + Poly1((R,))
        b = _root_bound(h) + 1.0
        roots = roots_in_interval(h, Interval(-b, b))
        if len(roots) != 2:
            return None
        ab = Interval(roots[0], roots[1])
        if not height_admissible(h, ab) or any(not ab.contains(p) for p in params):
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
        "f": tuple(np.polynomial.polynomial.polymul(
            np.polynomial.polynomial.polymul([-7.0, 0.0, 1.0], [-10.0, 0.0, 1.0]),
            [0.0, 0.4])),
        "g": tuple(np.polynomial.polynomial.polymul(
            np.polynomial.polynomial.polymul(
                np.polynomial.polynomial.polymul([-4.0, 0.0, 1.0], [-9.0, 0.0, 1.0]),
                [-12.0, 0.0, 1.0]),
            [0.0, 0.1])),
        "h": (20.0, 0.0, -13.0, 0.0, -1.0),  # 20 - 13 t^2 - t^4
    },
}

_CACHE: dict[str, KnotArc] = {}
CROSSING_IV_PAD = 1e-3


def _build_arc(name: str, f: Poly1, g: Poly1, h: Poly1, hint: Optional[Interval] = None) -> KnotArc:
    search = hint or Interval(-(_root_bound(h) + 1.0), _root_bound(h) + 1.0)
    roots = roots_in_interval(h, search)
    if len(roots) != 2:
        raise DegenerateInput(
            f"height of {name!r} has {len(roots)} roots in {search}; expected exactly 2"
        )
    ab = Interval(roots[0], roots[1])
    if not height_admissible(h, ab):
        raise DegenerateInput(
            f"height of {name!r} is not positive between its roots {ab.lo:.6g} and "
            f"{ab.hi:.6g}, or does not cross zero transversely at both"
        )
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
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UnknownKnot(f"cannot read knot definition {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise DegenerateInput(f"knot definition {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DegenerateInput(f"knot definition {path!r} must be a JSON object with keys "
                              f"'f', 'g' and 'h', got a JSON {type(doc).__name__}")

    def read(key, cls):
        try:
            return cls.from_json(doc[key])
        except KeyError:
            raise DegenerateInput(f"knot definition {path!r}: missing key {key!r} "
                                  "(expected {\"coeffs\": [...]})") from None
        except ValueError as exc:
            raise DegenerateInput(f"knot definition {path!r}: key {key!r}: {exc}") from None

    f, g, h = (read(key, Poly1) for key in "fgh")
    hint = read("interval_hint", Interval) if "interval_hint" in doc else None
    try:
        return _build_arc(doc.get("name", path), f, g, h, hint)
    except DegenerateInput as exc:
        raise DegenerateInput(f"knot definition {path!r}: {exc}") from None
