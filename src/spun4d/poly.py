"""Univariate and bivariate polynomials with coefficient arithmetic and real
root isolation on intervals.

Coefficients are plain float64.  ``Poly1`` stores ``coeffs[i]`` as the
coefficient of ``t**i``; ``Poly2`` stores ``coeffs[i, j]`` as the coefficient
of ``t**i * s**j``.  Both are immutable and safe to share between threads.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput

__all__ = ["Interval", "Poly1", "Poly2", "roots_in_interval", "poly_scale"]


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = _real(self.lo), _real(self.hi)
        if not lo <= hi:
            raise ValueError(f"interval requires lo <= hi, got [{self.lo}, {self.hi}]")
        for key, x in (("lo", lo), ("hi", hi)):
            object.__setattr__(self, key, x)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        # halved first, so that lo + hi cannot overflow
        return 0.5 * self.lo + 0.5 * self.hi

    def contains(self, t, slack: float = 0.0) -> bool:
        return bool(np.all((np.asarray(t) >= self.lo - slack) & (np.asarray(t) <= self.hi + slack)))

    def sample(self, n: int) -> np.ndarray:
        return np.linspace(self.lo, self.hi, n)

    @classmethod
    def from_json(cls, doc) -> "Interval":
        """``[lo, hi]``: two finite numbers with lo <= hi."""
        if not (isinstance(doc, list) and len(doc) == 2):
            raise ValueError(f"expected [lo, hi], got {doc!r}")
        return cls(*(_finite(x) for x in doc))


def _real(x) -> float:
    """``x`` as a float if it is a real number (numpy's too) but not a bool, else
    nan, which fails every range test: the one test and conversion of a real."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return math.nan
    try:
        return float(x)
    except OverflowError:  # an int beyond double range
        return math.inf if x > 0 else -math.inf


def _finite(x, where: str = "") -> float:
    """A real number (``_real``) that is finite; booleans, strings and null are
    refused.  ``where`` prefixes the message (the key the number was read from)."""
    if not math.isfinite(_real(x)):
        raise ValueError(f"{where}expected a finite number, got {x!r}")
    return float(x)


def _count(n, name: str, least: int) -> int:
    """``n`` as a Python int, the package's one check of a count (a grid size,
    a degree, N or k): refused with a ValueError naming ``name`` unless it is
    an integer (not a bool, nor a whole float) and at least ``least``."""
    try:
        value = operator.index(n)
    except TypeError:
        value = None
    if value is None or isinstance(n, bool):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def _keyed(where: str, parse, value):
    """``parse(value)``, with any defect reported under ``where``."""
    try:
        return parse(value)
    except KeyError as exc:
        raise ValueError(f"{where}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _read_json(path: str, parse=lambda doc: doc):
    """``parse`` of the JSON document in the file ``path``, any defect reported
    under the file's name (``_keyed``), text that is not JSON (nor UTF-8, nor
    shallow enough to parse) too; an unreadable file raises ``open``'s OSError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # ValueError: also text that is not UTF-8
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    return _keyed(path, parse, doc)


def _coeffs_json(doc) -> list:
    """The list under key 'coeffs' of a polynomial's JSON form."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected an object with key 'coeffs', got {doc!r}")
    if "coeffs" not in doc:
        raise ValueError("missing key 'coeffs'")
    if not isinstance(doc["coeffs"], list):
        raise ValueError(f"key 'coeffs' must be a list, got {doc['coeffs']!r}")
    return doc["coeffs"]


# Evaluation, derivatives, sums and products take numpy.polynomial.polynomial's
# steps, on numpy core alone, so they give its bits without importing it

def _polyval(x, c):
    """``polyval(x, c, tensor=False)``: Horner along c's first axis, from
    ``c[-1] + x * 0``."""
    y = c[-1] + x * 0
    for i in range(2, len(c) + 1):
        y = c[-i] + y * x
    return y


def _polyder(c: np.ndarray) -> np.ndarray:
    """``polyder(c)`` along c's first axis: ``j * c[j]``, or ``c[:1] * 0`` for
    a constant."""
    if len(c) == 1:
        return c[:1] * 0
    return np.arange(1, len(c)).reshape((-1,) + (1,) * (c.ndim - 1)) * c[1:]


def _trim1(coeffs) -> tuple[float, ...]:
    c = [float(x) for x in coeffs]
    while c and c[-1] == 0.0:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class Poly1:
    """Real polynomial in one variable, evaluated by Horner's scheme."""

    coeffs: tuple[float, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim1(self.coeffs))

    # -- queries -----------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def __call__(self, t):
        if self.is_zero:
            return np.zeros_like(np.asarray(t, dtype=float)) + 0.0
        return _polyval(np.asarray(t, dtype=float), np.array(self.coeffs))

    # -- calculus ----------------------------------------------------------
    def derivative(self, order: int = 1) -> "Poly1":
        order = _count(order, "order", 1)
        if self.is_zero:
            return Poly1()
        c = np.array(self.coeffs)
        if order >= len(c):  # polyder(c, m=order) takes no step then
            return Poly1(c[:1] * 0)
        for _ in range(order):
            c = _polyder(c)
        return Poly1(c)

    # -- arithmetic --------------------------------------------------------
    # polyadd and polysub: the longer operand takes the shorter one in place
    def __add__(self, other: "Poly1") -> "Poly1":
        a, b = np.array(self.coeffs or (0.0,)), np.array(other.coeffs or (0.0,))
        if len(a) > len(b):
            a[:len(b)] += b
            return Poly1(a)
        b[:len(a)] += a
        return Poly1(b)

    def __sub__(self, other: "Poly1") -> "Poly1":
        a, b = np.array(self.coeffs or (0.0,)), np.array(other.coeffs or (0.0,))
        if len(a) > len(b):
            a[:len(b)] -= b
            return Poly1(a)
        b = -b
        b[:len(a)] += a
        return Poly1(b)

    def __mul__(self, other):
        if isinstance(other, Poly1):
            if self.is_zero or other.is_zero:
                return Poly1()
            return Poly1(np.convolve(self.coeffs, other.coeffs))
        return Poly1(tuple(float(other) * c for c in self.coeffs))

    __rmul__ = __mul__

    def __neg__(self) -> "Poly1":
        return self * -1.0

    # -- serialization -----------------------------------------------------
    def to_json(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, doc: dict) -> "Poly1":
        """``{"coeffs": [a0, a1, ...]}`` of finite numbers."""
        c = _coeffs_json(doc)
        return cls(tuple(_finite(x, f"key 'coeffs'[{i}]: ") for i, x in enumerate(c)))

    def __repr__(self):
        return f"Poly1({list(self.coeffs)})"


def _trim2(grid) -> np.ndarray:
    """A read-only copy of ``grid`` without its trailing all-zero rows and
    columns, keeping at least one of each."""
    a = np.asarray(grid, dtype=float)
    if a.ndim != 2:
        a = np.atleast_2d(a)
    # a grid whose last row and column hold a nonzero, as most do, is
    # tested on those two alone
    if a.shape[0] > 1 and not a[-1].any():
        a = a[:_kept(a.any(axis=1))]
    if a.shape[1] > 1 and not a[:, -1].any():
        a = a[:, :_kept(a.any(axis=0))]
    a = a.copy()
    a.flags.writeable = False
    return a


def _kept(nonzero: np.ndarray) -> int:
    """The length that keeps every True of ``nonzero``, at least 1."""
    at = np.flatnonzero(nonzero)
    return int(at[-1]) + 1 if len(at) else 1


def _convolve2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full 2D convolution of two coefficient grids: the shifted copies of
    ``a`` scaled by each entry of ``b`` are summed into a zero grid."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    na, ma = a.shape
    for (i, j), bij in np.ndenumerate(b):
        out[i : i + na, j : j + ma] += a * bij
    return out


@dataclass(frozen=True)
class Poly2:
    """Real polynomial in two variables; ``coeffs[i, j]`` multiplies t^i s^j."""

    coeffs: np.ndarray = field(default_factory=lambda: np.zeros((1, 1)))

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim2(self.coeffs))

    # equal when the trimmed coefficient grids have one shape and the same
    # bits, so -0.0 differs from 0.0 and a NaN equals its own bits
    def __eq__(self, other):
        if not isinstance(other, Poly2):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and self.coeffs.tobytes() == other.coeffs.tobytes()

    def __hash__(self):
        return hash((self.coeffs.shape, self.coeffs.tobytes()))

    @property
    def is_zero(self) -> bool:
        return self.coeffs.shape == (1, 1) and self.coeffs[0, 0] == 0.0

    @property
    def deg_t(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def deg_s(self) -> int:
        return self.coeffs.shape[1] - 1

    def __call__(self, t, s):
        """Values at the points broadcast(t, s): Horner in t on t's own shape,
        then in s, so a grid given as t[:, None], s[None, :] costs one t-pass
        per grid row.  Same steps as ``polyval2d``, without its shape check."""
        t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
        c = self.coeffs
        return _polyval(s, _polyval(t, c.reshape(c.shape + (1,) * t.ndim)))

    def partial(self, wrt: str) -> "Poly2":
        """Formal partial derivative with respect to 't' or 's'."""
        if wrt == "t":
            return Poly2(_polyder(self.coeffs))
        if wrt == "s":
            return Poly2(_polyder(self.coeffs.T).T)
        raise ValueError("wrt must be 't' or 's'")

    def __add__(self, other: "Poly2") -> "Poly2":
        nt = max(self.coeffs.shape[0], other.coeffs.shape[0])
        ns = max(self.coeffs.shape[1], other.coeffs.shape[1])
        a = np.zeros((nt, ns))
        a[: self.coeffs.shape[0], : self.coeffs.shape[1]] += self.coeffs
        a[: other.coeffs.shape[0], : other.coeffs.shape[1]] += other.coeffs
        return Poly2(a)

    def __mul__(self, other):
        if isinstance(other, Poly2):
            if self.is_zero or other.is_zero:
                return Poly2()
            return Poly2(_convolve2(self.coeffs, other.coeffs))
        return Poly2(self.coeffs * float(other))

    __rmul__ = __mul__

    @classmethod
    def from_t(cls, p: Poly1) -> "Poly2":
        """Embed a univariate polynomial in t as a bivariate one."""
        c = np.array(p.coeffs or (0.0,), dtype=float).reshape(-1, 1)
        return cls(c)

    @classmethod
    def from_s(cls, p: Poly1) -> "Poly2":
        c = np.array(p.coeffs or (0.0,), dtype=float).reshape(1, -1)
        return cls(c)

    def to_json(self) -> dict:
        return {"coeffs": [list(row) for row in self.coeffs]}

    @classmethod
    def from_json(cls, doc: dict) -> "Poly2":
        """``{"coeffs": [[c00, c01, ...], [c10, ...], ...]}``: a non-empty
        rectangular list of rows of finite numbers."""
        rows = _coeffs_json(doc)
        if not (rows and all(isinstance(r, list) and r for r in rows)
                and len({len(r) for r in rows}) == 1):
            raise ValueError("key 'coeffs' must be a non-empty rectangular list of lists")
        return cls(np.array([[_finite(x, f"key 'coeffs'[{i}][{j}]: ") for j, x in enumerate(r)]
                             for i, r in enumerate(rows)]))

    def __repr__(self):
        return f"Poly2(deg_t={self.deg_t}, deg_s={self.deg_s})"


def poly_scale(p: Poly1, iv: Interval) -> float:
    """Magnitude scale used to make root tolerances dimensionally sane: the
    sum of |c_i| m**i, with m the larger of 1 and the endpoint magnitudes,
    which bounds |p| on the interval."""
    if p.is_zero:
        return 1.0
    m = max(abs(iv.lo), abs(iv.hi), 1.0)
    c = np.abs(p.coeffs)
    i = np.flatnonzero(c)
    # float64 powers overflow to inf where Python float ones would raise
    return float(np.sum(c[i] * np.float64(m) ** i))


_REFINE_WIDTH = 1e-12


def _refine_bracket(p: Poly1, dp: Poly1, lo: float, hi: float) -> float:
    """The root of ``p`` in [lo, hi], where p changes sign: Newton steps with
    the derivative ``dp``, each kept only inside the shrinking bracket, else
    bisection.  ``roots_in_interval`` refines sign changes of p with (p, p')
    and touch points with (p', p'')."""
    flo = float(p(lo))
    x = 0.5 * (lo + hi)
    for _ in range(200):
        if hi - lo <= _REFINE_WIDTH:
            return 0.5 * (lo + hi)
        fx = float(p(x))
        if fx == 0.0:
            return x
        # shrink the bracket
        if (fx > 0) == (flo > 0):
            lo, flo = x, fx
        else:
            hi = x
        d = float(dp(x))
        if d != 0.0:
            xn = x - fx / d
            if lo < xn < hi:
                x = xn
                continue
        x = 0.5 * (lo + hi)
    # at a multiple root Newton converges linearly from one side, and the
    # other end of the bracket stays behind
    return x


def roots_in_interval(p: Poly1, iv: Interval, tol: float = 1e-9) -> list[float]:
    """All real roots of ``p`` inside ``iv`` located by sign-change bisection
    with Newton refinement.

    Simple roots bracketed by a sign change on the scan grid are always found.
    Even-multiplicity touch points are sought in the grid cells where p keeps
    its sign and the slope of |p| goes from negative to non-negative: the
    root of p' in such a cell is refined in the same way, and kept when |p|
    there is at most ``tol * poly_scale(p, iv)``.
    """
    tol = _real(tol)
    if not tol > 0:
        raise ValueError("tol must be positive")
    if p.is_zero:
        raise DegenerateInput("cannot isolate roots of the zero polynomial")
    n = max(256, 64 * max(p.degree, 1))
    ts = iv.sample(n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        scale, dp, vs = poly_scale(p, iv), p.derivative(), np.asarray(p(ts))
        # grid points that are exact (or numerically exact) roots
        exact = np.abs(vs) <= 1e-14 * scale
        sgn = np.where(exact, 0.0, np.sign(vs))
        slope = sgn * dp(ts)  # of |p|
    if not (math.isfinite(scale) and np.isfinite(dp.coeffs).all() and np.isfinite(vs).all()):
        raise DegenerateInput(f"cannot isolate roots in {iv}: values overflow double precision")

    roots = [float(t) for t in ts[exact]]
    for i in np.flatnonzero(sgn[:-1] * sgn[1:] < 0):
        roots.append(_refine_bracket(p, dp, float(ts[i]), float(ts[i + 1])))
    d2 = dp.derivative()
    for i in np.flatnonzero((sgn[:-1] == sgn[1:]) & (slope[:-1] < 0) & (slope[1:] >= 0)):
        # p' = 0 at the cell's end: that sample is the critical point
        x = float(ts[i + 1]) if slope[i + 1] == 0 else _refine_bracket(
            dp, d2, float(ts[i]), float(ts[i + 1]))
        if abs(float(p(x))) <= tol * scale:
            roots.append(x)

    roots.sort()
    merged: list[float] = []
    for r in roots:
        if merged and r - merged[-1] <= 2 * _REFINE_WIDTH:
            continue
        merged.append(r)
    return merged
