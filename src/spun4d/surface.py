"""Separable surfaces mapping a parameter rectangle (t, theta) into R^4.

Each coordinate of a ``Surface4`` is a flat sum of terms

    c * (product of t-factors)(t) * (product of theta-factors)(theta)

where a t-factor is a ``Poly1`` or a ``Bump`` and a theta-factor is a
``Poly1`` or a ``Trig`` (cos or sin of an integer multiple of theta).  Every
construction here has this form: the spin has one term per coordinate, the
k-twist spin at most four; a ``PolyMap4``, a polynomial in (t, s) per
coordinate, has one term per power of t.  One evaluator serves both models
at points, on tensor grids and for exact partials, from each coordinate's
rows on t and on theta: a ``Surface4``'s term rows (each distinct factor
sampled once, c folded into the t-rows), or a ``PolyMap4``'s powers of t
and its coefficients times the powers of theta, each coordinate's taken
from one table of powers up to its own degree, so that no coordinate
meets a power above its degree.  At points it sums the broadcast products
row by row; on a tensor grid it makes one product per coordinate of its
stacked rows, which adds the same products in the same order, so a grid
is its points bit for bit.  The scans in ``verify`` read a grid as the same rows.

Surface files keep the tagged tree format (``sum``, ``product``, ``const``,
``poly_t``, ``poly_theta``, ``cos_k``, ``sin_k``, ``bump``): the writer emits
each coordinate as a sum of products, the reader distributes any tree into
terms.  Both models check, when they are built, that they have four
coordinates and two domains of positive finite length, in the reader's words.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .poly import Interval, Poly1, Poly2, _count, _finite, _keyed, _real

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
        d1, d2 = _real(self.d1), _real(self.d2)
        if not 0.0 < d1 < d2:
            raise ValueError(f"need 0 < d1 < d2, got d1={self.d1}, d2={self.d2}")
        for key, x in (("d1", d1), ("d2", d2)):
            object.__setattr__(self, key, x)

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
        object.__setattr__(self, "k", _count(self.k, "trig multiple k", 0))
        if self.k > TRIG_MAX_K:
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

def _term_rows(coords, side: str, x, deriv: bool):
    """Per coordinate, its terms' rows stacked: an array of shape
    (1 + deriv, K_i) + x.shape whose row [0, k] is the product of term k's
    ``side`` ("t" or "s") factors on the samples x, with c folded into the
    t side, and with ``deriv`` row [1, k] its x-derivative by the product
    rule.  A term with no factors on that side has a constant row (c or 1,
    derivative 0).  Every distinct factor is evaluated once for all
    coordinates, on x in its own shape."""
    distinct = {f for terms in coords for term in terms for f in getattr(term, side)}
    val = {f: f(x) for f in distinct}
    der = {f: _slope(f, x) for f in distinct} if deriv else {}
    out = []
    for terms in coords:
        rows = np.empty((1 + deriv, len(terms)) + x.shape)
        for k, term in enumerate(terms):
            p, d = (term.c if side == "t" else 1.0), 0.0
            for f in getattr(term, side):
                if deriv:
                    d = d * val[f] + p * der[f]
                p = p * val[f]
            rows[0, k] = p
            if deriv:
                rows[1, k] = d
        out.append(rows)
    return out


def _powers(x, n: int, deriv: bool) -> np.ndarray:
    """x^0, ..., x^(n-1) on x, each the one before times x as in ``np.vander``,
    shape (1 + deriv, n) + x.shape; with ``deriv`` row [1, j] is j x^(j-1)."""
    out = np.ones((1 + deriv, n) + x.shape)
    np.multiply.accumulate(np.broadcast_to(x, (n - 1,) + x.shape), axis=0, out=out[0, 1:])
    if deriv:
        out[1, 0] = 0.0
        out[1, 1:] = out[0, :-1] * np.arange(1.0, n).reshape((-1,) + (1,) * x.ndim)
    return out


def _eval_points(rows, t, th, deriv: str = "") -> np.ndarray:
    """Coordinates at the points broadcast(t, th), shape that + (number of
    coordinates,), or with ``deriv`` "t" or "s" their partial in t or theta,
    from ``rows(side, x, deriv)``, a model's ``_rows`` on x in its own shape.
    A tensor grid ``tvals[:, None], svals[None, :]`` goes to ``_grid_sums``,
    other points to ``_broadcast_sums``; both sum the products a(t) b(th) in
    row order from 0.0, each rounded on its own: a grid is its points."""
    t, th = np.asarray(t, float), np.asarray(th, float)
    dt, ds = int(deriv == "t"), int(deriv == "s")
    # a grid of one node would make einsum's loop a dot product, which sums
    # in another order
    grid = t.ndim == th.ndim == 2 and t.shape[1] == th.shape[0] == 1 < t.size * th.size
    if grid:
        t, th = t[:, 0], th[0]
    pairs = [(a[dt], b[ds]) for a, b in zip(rows("t", t, dt), rows("s", th, ds))]
    if grid:
        return _grid_sums(pairs, len(t), len(th))
    return _broadcast_sums(pairs, np.broadcast_shapes(t.shape, th.shape))


def _eval_grid(rows, tvals, svals, deriv: str = "") -> np.ndarray:
    """``_eval_points`` on the tensor grid of tvals and svals."""
    return _eval_points(rows, np.reshape(tvals, (-1, 1)), np.reshape(svals, (1, -1)), deriv)


def _grid_sums(rows, n_t: int, n_s: int) -> np.ndarray:
    """The tensor grid of each coordinate's stacked rows ``(a, b)``, a of
    shape (K_i, n_t) and b (K_i, n_s): the sum over k of a[k, t] b[k, s],
    one einsum per coordinate.  Its loop runs k outside s, so each node
    adds its products in term order from 0.0, each rounded on its own, as
    ``_broadcast_sums`` does.  The result is an (n_t, n_s, len(rows)) view
    of a coordinate-major array, so a coordinate's slice is contiguous."""
    out = np.empty((len(rows), n_t, n_s))
    for o, (a, b) in zip(out, rows):
        np.einsum("kt,ks->ts", a, b, out=o)
    return np.moveaxis(out, 0, -1)


def _broadcast_sums(rows, shape) -> np.ndarray:
    """The sum over k of the broadcast products a[k] b[k] of each
    coordinate's stacked rows ``(a, b)``, added one by one in term order
    into a zeroed array of ``shape`` + (len(rows),)."""
    out = np.zeros(shape + (len(rows),))
    for i, (a, b) in enumerate(rows):
        for ak, bk in zip(a, b):
            out[..., i] += ak * bk
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


_LEAVES = {
    "const": lambda d: Term(_finite(d["value"], "key 'value': ")),
    "poly_t": lambda d: Term(1.0, (Poly1.from_json(d),)),
    "poly_theta": lambda d: Term(1.0, (), (Poly1.from_json(d),)),
    "cos_k": lambda d: Term(1.0, (), (Trig(d["k"]),)),
    "sin_k": lambda d: Term(1.0, (), (Trig(d["k"], True),)),
    "bump": lambda d: Term(1.0, (Bump(*(_finite(d[k], f"key {k!r}: ") for k in ("d1", "d2"))),)),
}


# a surface file's coordinate, and each product in it multiplied out before
# its terms are collected, may have at most this many terms.  The scans'
# factor arrays grow with the count; the constructions write at most 4
MAX_TERMS = 1 << 8
DEVIATION_GRID = 200  # samples per side of max_grid_deviation's default grid
_FLAGS = ("periodic_s", "pole_low", "pole_high")  # both models', checked by _check_model


def _bounded(n: int) -> None:
    if n > MAX_TERMS:
        raise ValueError(f"the coordinate multiplies out to more than {MAX_TERMS} terms")


def _terms_from_json(node) -> list[Term] | tuple[Term, ...]:
    """Distribute a tagged tree into a flat list of terms; a product is
    collected after each factor, so powers of a sum stay small."""
    tag = node.get("tag") if isinstance(node, dict) else None
    if tag == "sum":
        out = []
        for child in node["terms"]:
            out += _terms_from_json(child)
            _bounded(len(out))
        return out
    if tag == "product":
        out = [Term(1.0)]
        for child in node["factors"]:
            sub = _terms_from_json(child)
            _bounded(len(out) * len(sub))
            out = _collect(Term(a.c * b.c, a.t + b.t, a.s + b.s) for a in out for b in sub)
        return out
    if tag in _LEAVES:
        return [_LEAVES[tag](node)]
    raise ValueError(f"unknown node tag {tag!r}")


def _read(doc: dict, parse, flag_default: bool):
    """The keys both surface file types share: the coordinates (each read by
    ``parse``), the two domains and the three flags; their count and the
    domains' lengths are ``_check_model``'s."""
    coords = doc.get("coords")
    if not isinstance(coords, list):
        raise ValueError(f"key 'coords' must be a list of 4 coordinates, got {coords!r}")
    parsed = tuple(_keyed(f"key 'coords'[{i}]", parse, c) for i, c in enumerate(coords))
    domains = []
    for key in ("t_dom", "s_dom"):
        if key not in doc:
            raise ValueError(f"missing key {key!r}")
        domains.append(_keyed(f"key {key!r}", Interval.from_json, doc[key]))
    return (parsed, *domains, *(doc.get(key, flag_default) for key in _FLAGS))


def _check_model(s, coords) -> None:
    """The construction check of both models, in the words of the file
    reader: the model ``s`` has the four coordinates ``coords`` and two
    domains of positive finite length, and its three flags are kept as bools
    (a numpy bool too); anything else is refused."""
    if len(coords) != 4:
        raise ValueError(f"key 'coords' must be a list of 4 coordinates, got {len(coords)}")
    for key in ("t_dom", "s_dom"):
        dom = getattr(s, key)
        if dom.length == 0.0:
            raise ValueError(f"key {key!r}: the domain has length 0, got [{dom.lo!r}, {dom.hi!r}]")
        if not np.isfinite(dom.length):
            raise ValueError(f"key {key!r}: the domain's length overflows, got [{dom.lo!r}, {dom.hi!r}]")
    for key in _FLAGS:
        v = getattr(s, key)
        if not isinstance(v, (bool, np.bool_)):
            raise ValueError(f"key {key!r} must be true or false, got {v!r}")
        object.__setattr__(s, key, bool(v))


def _domain_json(s) -> dict:
    return {"t_dom": [s.t_dom.lo, s.t_dom.hi], "s_dom": [s.s_dom.lo, s.s_dom.hi],
            **{key: getattr(s, key) for key in _FLAGS}}


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
        _check_model(self, self.coords)

    def _rows(self, side: str, x, deriv: bool):
        return _term_rows(self.coords, side, x, deriv)

    def evaluate(self, t, th) -> np.ndarray:
        """Evaluate all four coordinates; result shape broadcast(t, th) + (4,)."""
        return _eval_points(self._rows, t, th)

    def eval_grid(self, tvals, svals) -> np.ndarray:
        return _eval_grid(self._rows, tvals, svals)

    def partials_grid(self, tvals, svals):
        """(d/dt, d/dtheta) of all coordinates over the tensor grid."""
        return _eval_grid(self._rows, tvals, svals, "t"), _eval_grid(self._rows, tvals, svals, "s")

    def to_json(self) -> dict:
        return {"type": "surface4", "coords": [_coord_json(c) for c in self.coords],
                **_domain_json(self)}

    @classmethod
    def from_json(cls, doc: dict) -> "Surface4":
        return cls(*_read(doc, _terms_from_json, True))


@dataclass(frozen=True)
class PolyMap4:
    """Fully polynomial map (t, s) -> R^4, coordinate i the sum of
    polys[i].coeffs[j, k] t^j s^k, sampled as a Surface4 is, by its ``_rows``."""

    polys: tuple[Poly2, Poly2, Poly2, Poly2]
    t_dom: Interval
    s_dom: Interval
    periodic_s: bool = False
    pole_low: bool = False
    pole_high: bool = False

    def __post_init__(self):
        _check_model(self, self.polys)

    def _rows(self, side: str, x, deriv: bool):
        """One row per power of t up to the coordinate's degree in t, in the
        layout of ``_term_rows`` (with ``deriv``, row [1] the derivative),
        each coordinate's from its own powers and coefficients, so no power
        above its degree meets a zero (0 * inf).  Side "t": its prefix of one
        table of powers.  Side "s": row i is the sum over j of c_ij x^j, from
        one einsum of its C-contiguous block c[j, i] and its prefix of the
        powers, j leading both.  With two outputs or more that loop adds in
        order of j from 0.0 for x of any shape; one output, a transposed view
        or BLAS ``@`` sums as a dot product, so a coordinate of degree 0 in t
        gets a zero column, whose row is dropped.  A grid's rows are its
        points'."""
        v = _powers(x, max(p.deg_s if side == "s" else p.deg_t for p in self.polys) + 1, deriv)
        if side == "t":
            return [v[:, :p.deg_t + 1] for p in self.polys]
        v = v.swapaxes(0, 1).reshape(len(v[0]), -1)
        blocks = [np.ascontiguousarray(p.coeffs.T) if p.deg_t
                  else np.hstack((p.coeffs.T, np.zeros_like(p.coeffs.T))) for p in self.polys]
        return [np.einsum("jk,jm->km", c, v[:len(c)])[:p.deg_t + 1].reshape((p.deg_t + 1, 1 + deriv) + x.shape)
                .swapaxes(0, 1) for c, p in zip(blocks, self.polys)]

    # Surface4's samplers under PolyMap4's own names: perfbench/tracing.py wraps cls.__dict__[meth]
    evaluate, eval_grid, partials_grid = Surface4.evaluate, Surface4.eval_grid, Surface4.partials_grid

    def to_json(self) -> dict:
        return {"type": "polymap4", "coords": [p.to_json() for p in self.polys],
                **_domain_json(self)}

    @classmethod
    def from_json(cls, doc: dict) -> "PolyMap4":
        return cls(*_read(doc, Poly2.from_json, False))


def surface_from_json(doc):
    """The ``Surface4`` or ``PolyMap4`` of a surface file, by its key 'type'."""
    if not isinstance(doc, dict):
        raise ValueError(f"a surface file must be a JSON object with key 'type', "
                         f"got a JSON {type(doc).__name__}")
    tag = doc.get("type")
    cls = {"surface4": Surface4, "polymap4": PolyMap4}.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ValueError(f"not a surface file (key 'type' is {tag!r}, "
                         "expected 'surface4' or 'polymap4')")
    return cls.from_json(doc)


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


def _squared_distances(d: np.ndarray) -> np.ndarray:
    """The squared norms of the rows of the (..., 4) array ``d``, squared in
    place, summed as ((d0^2 + d1^2) + d2^2) + d3^2: the order of
    ``np.linalg.norm``'s sum over a length-4 axis, without its reduction
    loop."""
    d *= d
    return d[..., 0] + d[..., 1] + d[..., 2] + d[..., 3]


def _max_distance(pa: np.ndarray, pb: np.ndarray, what: str) -> float:
    """Largest Euclidean distance between matching points of two arrays of
    shape (..., 4), both ``_images`` output: the root of the largest squared
    distance.  sqrt is monotone and correctly rounded, so that is the
    largest of ``np.linalg.norm``'s distances bit for bit.  A distance
    beyond double range raises a ValueError.  Only when a squared distance
    overflows are both arrays first scaled by a power of two, so other
    values are unchanged."""
    with np.errstate(over="ignore"):
        dist = np.sqrt(np.max(_squared_distances(pa - pb)))
        if not np.isfinite(dist):
            scale = np.ldexp(1.0, -np.frexp(max(np.abs(pa).max(), np.abs(pb).max()))[1])
            dist = np.sqrt(np.max(_squared_distances(pa * scale - pb * scale))) / scale
    if not np.isfinite(dist):
        raise ValueError(f"{what}: the largest distance is beyond double range")
    return float(dist)


def _images(s, t, th, what: str) -> np.ndarray:
    """``s.evaluate(t, th)``, refused with "``what`` is not finite" unless every
    coordinate is finite: the package's one sampler of images.  A tensor grid
    is ``tvals[:, None], svals[None, :]``, as both models' ``eval_grid`` has it."""
    with np.errstate(over="ignore", invalid="ignore"):
        pts = s.evaluate(t, th)
    if not np.isfinite(pts).all():
        raise ValueError(f"{what} is not finite")
    return pts


def max_grid_deviation(a, b, n_t: int = DEVIATION_GRID, n_s: int = DEVIATION_GRID) -> float:
    """Max Euclidean distance between two samplers over a shared tensor grid.
    An image that is not finite on the grid is refused with a ValueError."""
    n_t, n_s = _count(n_t, "n_t", 1), _count(n_s, "n_s", 1)
    t, th = a.t_dom.sample(n_t)[:, None], a.s_dom.sample(n_s)[None, :]
    what = f"the {n_t}x{n_s} deviation grid"
    pa, pb = (_images(x, t, th, f"{what}: an image") for x in (a, b))
    return _max_distance(pa, pb, what)
