"""Separable surfaces mapping a parameter rectangle (t, theta) into R^4.

Each coordinate of a ``Surface4`` is a flat sum of terms

    c * (product of t-factors)(t) * (product of theta-factors)(theta)

where a t-factor is a ``Poly1`` or a ``Bump`` and a theta-factor is a
``Poly1`` or a ``Trig`` (cos or sin of an integer multiple of theta).  Every
construction here has this form: the spin has one term per coordinate, the
k-twist spin at most four.  One evaluator serves points, grids and partials:
it samples each distinct factor once on t and once on theta and sums the
broadcast products term by term, so a grid given as a column of t and a row
of theta costs one factor sample per grid line.  First partials follow by the
product rule, never by finite differences.

Surface files keep the tagged tree format (``sum``, ``product``, ``const``,
``poly_t``, ``poly_theta``, ``cos_k``, ``sin_k``, ``bump``): the writer emits
each coordinate as a sum of products, the reader distributes any tree into
terms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .poly import Interval, Poly1, Poly2, _finite

__all__ = ["Bump", "Trig", "Term", "Surface4", "PolyMap4", "max_grid_deviation"]

TWO_PI = 2.0 * np.pi


# -- factors ----------------------------------------------------------------

def _soft_step(x):
    """exp(-1/x) for x > 0, identically 0 otherwise (C-infinity glue)."""
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def _soft_step_deriv(x):
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos]) / x[pos] ** 2
    return out


@dataclass(frozen=True)
class Bump:
    """Even C-infinity bump: 1 on |t| <= sqrt(d1), 0 on |t| >= sqrt(d2)."""

    d1: float
    d2: float

    def __post_init__(self):
        if not 0.0 < self.d1 < self.d2:
            raise ValueError(f"need 0 < d1 < d2, got d1={self.d1}, d2={self.d2}")

    def __call__(self, t):
        t2 = np.asarray(t, float) ** 2
        u = _soft_step(self.d2 - t2)
        v = _soft_step(t2 - self.d1)
        # closed-form branches keep the division away from 0/0 at the plateaus
        return np.where(t2 >= self.d2, 0.0, np.where(t2 <= self.d1, 1.0, u / (u + v)))

    def derivative(self, t):
        t = np.asarray(t, float)
        t2 = t ** 2
        u = _soft_step(self.d2 - t2)
        v = _soft_step(t2 - self.d1)
        du = -2.0 * t * _soft_step_deriv(self.d2 - t2)
        dv = 2.0 * t * _soft_step_deriv(t2 - self.d1)
        mid = (self.d1 < t2) & (t2 < self.d2)
        out = np.zeros_like(t)
        w = u + v
        out[mid] = (du[mid] * v[mid] - u[mid] * dv[mid]) / w[mid] ** 2
        return out


# every integer up to this one converts to a float exactly
TRIG_MAX_K = 2 ** 53


@dataclass(frozen=True)
class Trig:
    """cos(k * theta), or sin(k * theta) when ``sine``, for an integer
    0 <= k <= TRIG_MAX_K."""

    k: int
    sine: bool = False

    def __post_init__(self):
        object.__setattr__(self, "k", operator.index(self.k))
        if not 0 <= self.k <= TRIG_MAX_K:
            raise ValueError(f"trig multiple k must be in [0, 2**53], got {self.k}")

    def __call__(self, th):
        x = self.k * np.asarray(th, float)
        return np.sin(x) if self.sine else np.cos(x)

    def derivative(self, th):
        x = self.k * np.asarray(th, float)
        return self.k * np.cos(x) if self.sine else -self.k * np.sin(x)


def _slope(f, x):
    return f.derivative()(x) if isinstance(f, Poly1) else f.derivative(x)


def _order(f):
    """Sort key that puts equal factor lists in the same order."""
    if isinstance(f, Poly1):
        return 0, f.coeffs
    if isinstance(f, Bump):
        return 1, (f.d1, f.d2)
    return 2, (f.k, f.sine)


class Term(NamedTuple):
    """c * prod(t-factors)(t) * prod(theta-factors)(theta)."""

    c: float
    t: tuple = ()
    s: tuple = ()


def _collect(terms) -> tuple[Term, ...]:
    """Canonical form of a sum of terms: constant polynomials and cos(0),
    sin(0) folded into c, factors sorted, terms with the same factors merged,
    zero terms dropped.  Terms keep the order of their first appearance."""
    merged: dict[tuple, float] = {}
    for c, tf, sf in terms:
        c = float(c)
        keep = ([], [])
        for side, factors in zip(keep, (tf, sf)):
            for f in factors:
                if isinstance(f, Poly1) and f.degree <= 0:
                    c *= f.coeffs[0] if f.coeffs else 0.0
                elif isinstance(f, Trig) and f.k == 0:
                    c *= 0.0 if f.sine else 1.0
                else:
                    side.append(f)
        key = tuple(tuple(sorted(side, key=_order)) for side in keep)
        merged[key] = merged.get(key, 0.0) + c
    return tuple(Term(c, tf, sf) for (tf, sf), c in merged.items() if c != 0.0)


# -- evaluation -------------------------------------------------------------

def _rows(coords, side: str, x, deriv: bool = False):
    """Per coordinate, the list of its terms' products of ``side`` ("t" or
    "s") factors on the samples x, with c folded into the t side, or with
    ``deriv`` their x-derivatives by the product rule.  Every distinct factor
    is evaluated once for all coordinates, on x in its own shape."""
    distinct = {f for terms in coords for term in terms for f in getattr(term, side)}
    val = {f: f(x) for f in distinct}
    der = {f: _slope(f, x) for f in distinct} if deriv else {}
    out = []
    for terms in coords:
        rows = []
        for term in terms:
            p, d = (term.c if side == "t" else 1.0), 0.0
            for f in getattr(term, side):
                if deriv:
                    d = d * val[f] + p * der[f]
                p = p * val[f]
            rows.append(d if deriv else p)
        out.append(rows)
    return out


def _eval_points(coords, t, th, deriv: str = "") -> np.ndarray:
    """Coordinates at the points broadcast(t, th); shape that + (len(coords),).
    With ``deriv`` "t" or "s", their partial derivative in t or theta.

    Each factor is sampled on t and on th in their own shapes, so an outer
    product t[:, None], th[None, :] samples it once per grid line; the terms
    c a(t) b(th) are then summed, broadcast, in order of the terms."""
    t, th = np.asarray(t, float), np.asarray(th, float)
    a_rows = _rows(coords, "t", t, deriv == "t")
    s_rows = _rows(coords, "s", th, deriv == "s")
    out = np.zeros(np.broadcast_shapes(t.shape, th.shape) + (len(coords),))
    for i, (a, s) in enumerate(zip(a_rows, s_rows)):
        for ak, sk in zip(a, s):
            out[..., i] += ak * sk
    return out


# -- surface files ----------------------------------------------------------

def _leaf_json(f, side: str) -> dict:
    if isinstance(f, Poly1):
        return {"tag": "poly_t" if side == "t" else "poly_theta", "coeffs": list(f.coeffs)}
    if isinstance(f, Bump):
        return {"tag": "bump", "d1": f.d1, "d2": f.d2}
    return {"tag": "sin_k" if f.sine else "cos_k", "k": f.k}


def _coord_json(terms) -> dict:
    if not terms:
        return {"tag": "const", "value": 0.0}
    return {"tag": "sum", "terms": [
        {"tag": "product", "factors": [{"tag": "const", "value": c}]
         + [_leaf_json(f, "t") for f in tf] + [_leaf_json(f, "s") for f in sf]}
        for c, tf, sf in terms
    ]}


def _trig(node, sine: bool) -> Trig:
    k = node["k"]
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError(f"'k' must be an integer, got {k!r}")
    return Trig(k, sine)


_LEAVES = {
    "const": lambda d: Term(_finite(d["value"], "key 'value': ")),
    "poly_t": lambda d: Term(1.0, (Poly1.from_json(d),)),
    "poly_theta": lambda d: Term(1.0, (), (Poly1.from_json(d),)),
    "cos_k": lambda d: Term(1.0, (), (_trig(d, False),)),
    "sin_k": lambda d: Term(1.0, (), (_trig(d, True),)),
    "bump": lambda d: Term(1.0, (Bump(*(_finite(d[k], f"key {k!r}: ") for k in ("d1", "d2"))),)),
}


def _terms_from_json(node) -> list[Term]:
    """Distribute a tagged tree into a flat list of terms."""
    tag = node.get("tag") if isinstance(node, dict) else None
    if tag == "sum":
        return [term for child in node["terms"] for term in _terms_from_json(child)]
    if tag == "product":
        out = [Term(1.0)]
        for child in node["factors"]:
            sub = _terms_from_json(child)
            out = [Term(a.c * b.c, a.t + b.t, a.s + b.s) for a in out for b in sub]
        return out
    if tag in _LEAVES:
        return [_LEAVES[tag](node)]
    raise ValueError(f"unknown node tag {tag!r}")


def _keyed(key: str, parse, value):
    """``parse(value)``, with any defect reported under ``key``."""
    try:
        return parse(value)
    except KeyError as exc:
        raise ValueError(f"key {key}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"key {key}: {exc}") from None


def _read(doc: dict, parse, flag_default: bool):
    """The keys both surface file types share: four coordinates (each read
    by ``parse``), the two domains and the three flags."""
    coords = doc.get("coords")
    if not (isinstance(coords, list) and len(coords) == 4):
        raise ValueError(f"key 'coords' must be a list of 4 coordinates, got "
                         f"{len(coords) if isinstance(coords, list) else repr(coords)}")
    parsed = tuple(_keyed(f"'coords'[{i}]", parse, c) for i, c in enumerate(coords))
    domains = []
    for key in ("t_dom", "s_dom"):
        if key not in doc:
            raise ValueError(f"missing key {key!r}")
        domains.append(_keyed(repr(key), Interval.from_json, doc[key]))
    flags = []
    for key in ("periodic_s", "pole_low", "pole_high"):
        v = doc.get(key, flag_default)
        if not isinstance(v, bool):
            raise ValueError(f"key {key!r} must be true or false, got {v!r}")
        flags.append(v)
    return (parsed, *domains, *flags)


def _domain_json(s) -> dict:
    return {
        "t_dom": [s.t_dom.lo, s.t_dom.hi],
        "s_dom": [s.s_dom.lo, s.s_dom.hi],
        "periodic_s": s.periodic_s,
        "pole_low": s.pole_low,
        "pole_high": s.pole_high,
    }


# -- surfaces ---------------------------------------------------------------

@dataclass(frozen=True)
class Surface4:
    """Map from a rectangle in (t, theta) space to R^4; each coordinate is a
    sum of separable terms, brought to canonical form on construction.

    ``pole_low`` / ``pole_high`` flag t-endpoints whose whole theta-row maps to
    a single point (sphere poles); ``periodic_s`` flags theta = 0 == 2*pi.
    """

    coords: tuple[tuple[Term, ...], ...]
    t_dom: Interval
    s_dom: Interval = field(default_factory=lambda: Interval(0.0, TWO_PI))
    periodic_s: bool = True
    pole_low: bool = True
    pole_high: bool = True

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(_collect(c) for c in self.coords))

    def evaluate(self, t, th) -> np.ndarray:
        """Evaluate all four coordinates; result shape broadcast(t, th) + (4,)."""
        return _eval_points(self.coords, t, th)

    def eval_grid(self, tvals, svals) -> np.ndarray:
        return _eval_points(self.coords, np.reshape(tvals, (-1, 1)), np.reshape(svals, (1, -1)))

    def partials_grid(self, tvals, svals):
        """(d/dt, d/dtheta) of all coordinates over the tensor grid."""
        t, th = np.reshape(tvals, (-1, 1)), np.reshape(svals, (1, -1))
        return _eval_points(self.coords, t, th, "t"), _eval_points(self.coords, t, th, "s")

    def to_json(self) -> dict:
        return {"type": "surface4", "coords": [_coord_json(c) for c in self.coords],
                **_domain_json(self)}

    @classmethod
    def from_json(cls, doc: dict) -> "Surface4":
        return cls(*_read(doc, _terms_from_json, True))


@dataclass(frozen=True)
class PolyMap4:
    """Fully polynomial map (t, s) -> R^4; same sampling protocol as Surface4."""

    polys: tuple[Poly2, Poly2, Poly2, Poly2]
    t_dom: Interval
    s_dom: Interval
    periodic_s: bool = False
    pole_low: bool = False
    pole_high: bool = False

    def evaluate(self, t, s) -> np.ndarray:
        """All four coordinates; result shape broadcast(t, s) + (4,)."""
        return np.stack([p(t, s) for p in self.polys], axis=-1)

    def eval_grid(self, tvals, svals) -> np.ndarray:
        return self.evaluate(np.reshape(tvals, (-1, 1)), np.reshape(svals, (1, -1)))

    def partials_grid(self, tvals, svals):
        t, s = np.reshape(tvals, (-1, 1)), np.reshape(svals, (1, -1))
        return tuple(np.stack([p.partial(w)(t, s) for p in self.polys], axis=-1) for w in "ts")

    def to_json(self) -> dict:
        return {"type": "polymap4", "coords": [p.to_json() for p in self.polys],
                **_domain_json(self)}

    @classmethod
    def from_json(cls, doc: dict) -> "PolyMap4":
        return cls(*_read(doc, Poly2.from_json, False))


def _grid_nodes(n_t: int, n_s: int, periodic_s: bool, pole_low: bool, pole_high: bool):
    """Which samples of an (n_t, n_s) tensor grid are one point of the
    surface: with ``periodic_s`` the last column (theta at the end of its
    domain) is column 0, and each flagged pole row is a single node.

    Returns ``(ids, firsts)``: the node id of every sample, an (n_t, n_s)
    array numbering the nodes in row-major order of their first samples, and
    the flat (row-major) index of each node's first sample."""
    first = np.arange(n_t * n_s).reshape(n_t, n_s)
    if periodic_s:
        first[:, -1] = first[:, 0]
    if pole_low:
        first[0] = 0
    if pole_high:
        first[-1] = first[-1, 0]
    is_first = first.ravel() == np.arange(n_t * n_s)
    ids = (np.cumsum(is_first) - 1)[first]
    return ids, np.flatnonzero(is_first)


def max_grid_deviation(a, b, n_t: int = 200, n_s: int = 200) -> float:
    """Max Euclidean distance between two samplers over a shared tensor grid."""
    tvals = a.t_dom.sample(n_t)
    svals = a.s_dom.sample(n_s)
    pa = a.eval_grid(tvals, svals)
    pb = b.eval_grid(tvals, svals)
    return float(np.max(np.linalg.norm(pa - pb, axis=-1)))
