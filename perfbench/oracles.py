"""Independent correctness checks for benchmark outputs.

Nothing here imports spun4d: every expected value is computed from the
closed-form constructions (the arcs' polynomials, the spin formula, the
Rodrigues twist, the Bernstein basis), so a check never compares the package
against its own answer.  Each ``check_*`` returns None on success and a
one-line reason on failure.
"""

from __future__ import annotations

import json
import math

import numpy as np
from numpy.polynomial import polynomial as npoly

TWO_PI = 2.0 * math.pi


class Arc:
    """A catalog arc (f, g, h) from its coefficients (lowest degree first)."""

    def __init__(self, f, g, h):
        self.f, self.g, self.h = (np.asarray(c, float) for c in (f, g, h))
        # h = c0 + 4 t^2 - t^4 for both trefoils: roots at t^2 = 2 + sqrt(4 + c0)
        c0 = self.h[0]
        b = math.sqrt(2.0 + math.sqrt(4.0 + c0))
        self.a, self.b = -b, b

    def point(self, t):
        t = np.asarray(t, float)
        return npoly.polyval(t, self.f), npoly.polyval(t, self.g), npoly.polyval(t, self.h)


TREFOIL_SPUN = Arc((0, -3, 0, 1), (0, -10, 0, 0, 0, 1), (3, 0, 4, 0, -1))
TREFOIL_TWIST = Arc((0, -3, 0, 1), (0, -10, 0, 0, 0, 1), (16, 0, 4, 0, -1))


def spin_points(arc: Arc, t, th) -> np.ndarray:
    """(f, g, h cos th, h sin th), broadcast over t and th."""
    t, th = np.broadcast_arrays(np.asarray(t, float), np.asarray(th, float))
    x, y, z = arc.point(t)
    return np.stack([x, y, z * np.cos(th), z * np.sin(th)], axis=-1)


def bump_value(d1: float, d2: float, t) -> np.ndarray:
    """The C-infinity bump: 1 on t^2 <= d1, 0 on t^2 >= d2, exp(-1/x) glue between."""
    t2 = np.asarray(t, float) ** 2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = np.where(t2 < d2, np.exp(-1.0 / (d2 - t2)), 0.0)
        v = np.where(t2 > d1, np.exp(-1.0 / (t2 - d1)), 0.0)
        mid = u / (u + v)
    return np.where(t2 >= d2, 0.0, np.where(t2 <= d1, 1.0, mid))


def twist_points(arc: Arc, t1: float, t2: float, d1: float, d2: float, k: int, t, th) -> np.ndarray:
    """k-twist spin: rotate (f, g, h)(t) by k*th about the chord through the
    arc points at t1 and t2 (Rodrigues' formula), blend by the bump, then spin."""
    t, th = np.broadcast_arrays(np.asarray(t, float), np.asarray(th, float))
    p = np.stack(arc.point(t), axis=-1)
    p1 = np.array([c for c in arc.point(t1)])
    p2 = np.array([c for c in arc.point(t2)])
    c = 0.5 * (p1[2] + p2[2])
    P = np.array([p1[0], p1[1], c])
    axis = np.array([p2[0] - p1[0], p2[1] - p1[1], 0.0])
    axis /= np.linalg.norm(axis)
    v = p - P
    phi = (k * th)[..., None]
    cross = np.cross(np.broadcast_to(axis, v.shape), v)
    along = (v @ axis)[..., None] * axis
    rot = P + v * np.cos(phi) + cross * np.sin(phi) + along * (1.0 - np.cos(phi))
    B = bump_value(d1, d2, t)[..., None]
    q = p + B * (rot - p)
    return np.stack([q[..., 0], q[..., 1], q[..., 2] * np.cos(th), q[..., 2] * np.sin(th)], axis=-1)


def probe_grid(t_lo: float, t_hi: float, n: int = 41):
    """Tensor probe points over the parameter rectangle, both ends included."""
    return np.meshgrid(np.linspace(t_lo, t_hi, n), np.linspace(0.0, TWO_PI, n), indexing="ij")


def cheb_interp_bound(length: float, degree: int) -> float:
    """A-priori error bound of degree-n Chebyshev interpolation of cos or sin
    (all derivatives bounded by 1) on an interval of the given length."""
    return 2.0 * (length / 4.0) ** (degree + 1) / math.factorial(degree + 1)


# -- surface JSON -----------------------------------------------------------

def eval_tree(node: dict, t, th) -> np.ndarray:
    """Evaluate a surface-tree JSON node without the package's node classes."""
    tag = node["tag"]
    if tag == "const":
        return np.full(np.broadcast(t, th).shape, float(node["value"]))
    if tag == "poly_t":
        return np.broadcast_to(npoly.polyval(t, node["coeffs"]), np.broadcast(t, th).shape)
    if tag == "poly_theta":
        return np.broadcast_to(npoly.polyval(th, node["coeffs"]), np.broadcast(t, th).shape)
    if tag == "cos_k":
        return np.broadcast_to(np.cos(node["k"] * th), np.broadcast(t, th).shape)
    if tag == "sin_k":
        return np.broadcast_to(np.sin(node["k"] * th), np.broadcast(t, th).shape)
    if tag == "bump":
        return np.broadcast_to(bump_value(node["d1"], node["d2"], t), np.broadcast(t, th).shape)
    if tag == "sum":
        return sum(eval_tree(n, t, th) for n in node["terms"])
    if tag == "product":
        out = eval_tree(node["factors"][0], t, th)
        for n in node["factors"][1:]:
            out = out * eval_tree(n, t, th)
        return out
    raise ValueError(f"unknown node tag {tag!r}")


def eval_surface_doc(doc: dict, t, th) -> np.ndarray:
    """Evaluate a surface4 or polymap4 JSON document at parameter points."""
    if doc["type"] == "surface4":
        return np.stack([eval_tree(c, t, th) for c in doc["coords"]], axis=-1)
    if doc["type"] == "polymap4":
        return np.stack([npoly.polyval2d(t, th, np.array(c["coeffs"], float)) for c in doc["coords"]], axis=-1)
    raise ValueError(f"not a surface document: type={doc.get('type')!r}")


def check_close(got: np.ndarray, want: np.ndarray, tol: float, what: str):
    if got.shape != want.shape:
        return f"{what}: shape {got.shape} != {want.shape}"
    if not np.all(np.isfinite(got)):
        return f"{what}: non-finite values"
    err = float(np.max(np.linalg.norm(got - want, axis=-1)))
    if err > tol:
        return f"{what}: max deviation {err:.3e} > {tol:.1e}"
    return None


# -- Bernstein --------------------------------------------------------------

def bernstein_eval(samples: np.ndarray, u, v) -> np.ndarray:
    """sum_ij samples[i, j] b_i(u) b_j(v) on [-1, 1]^2, in float."""
    n = samples.shape[0] - 1
    i = np.arange(n + 1)
    binom = np.array([math.comb(n, k) for k in i], float)

    def basis(x):
        x = np.asarray(x, float)[..., None]
        a, b = (1.0 + x) / 2.0, (1.0 - x) / 2.0
        return binom * a ** i * b ** (n - i)

    bu, bv = basis(u), basis(v)
    return np.einsum("...i,...j,ijc->...c", bu, bv, samples)


BERNSTEIN_TOL = 1e-9  # coefficient sums stay below ~300 up to degree 30


def check_bernstein(coeffs, samples: np.ndarray, n_probe: int = 9):
    """Monomial coefficient matrices (one per coordinate) against the float
    Bernstein sum at a probe grid covering [-1, 1]^2, corners included."""
    g = np.linspace(-1.0, 1.0, n_probe)
    U, V = np.meshgrid(g, g, indexing="ij")
    want = bernstein_eval(samples, U, V)
    got = np.stack([npoly.polyval2d(U, V, np.asarray(c, float)) for c in coeffs], axis=-1)
    return check_close(got, want, BERNSTEIN_TOL, "bernstein fit")


# -- meshes -----------------------------------------------------------------

def read_obj(path):
    verts, faces = 0, []
    with open(path) as fh:
        for line in fh:
            if line.startswith("v "):
                verts += 1
            elif line.startswith("f "):
                faces.append([int(x) - 1 for x in line.split()[1:4]])
    return verts, np.array(faces, dtype=np.int64).reshape(-1, 3)


def read_ply(path):
    with open(path) as fh:
        header = {}
        for line in fh:
            parts = line.split()
            if parts[:1] == ["element"]:
                header[parts[1]] = int(parts[2])
            if line.strip() == "end_header":
                break
        for _ in range(header["vertex"]):
            next(fh)
        faces = [[int(x) for x in next(fh).split()[1:4]] for _ in range(header["face"])]
    return header["vertex"], np.array(faces, dtype=np.int64).reshape(-1, 3)


def check_closed_sphere(n_verts: int, faces: np.ndarray):
    """A closed genus-0 triangle mesh: every edge in exactly two faces and
    V - E + F = 2."""
    if len(faces) == 0:
        return "mesh has no faces"
    if faces.min() < 0 or faces.max() >= n_verts:
        return "mesh face index out of range"
    edges = np.sort(np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]), axis=1)
    uniq, counts = np.unique(edges[:, 0] * n_verts + edges[:, 1], return_counts=True)
    if not np.all(counts == 2):
        return f"{int(np.sum(counts != 2))} edge(s) not shared by exactly two faces"
    chi = n_verts - len(uniq) + len(faces)
    if chi != 2:
        return f"Euler characteristic {chi} != 2"
    return None


# -- slices -----------------------------------------------------------------

def arc_distance(arc: Arc, pts: np.ndarray, n_coarse: int = 4001, chunk: int = 256) -> np.ndarray:
    """Distance from each 3D point to the arc (f, g, h)(t), t in [a, b]: dense
    sampling, then two rounds of local resampling around the best sample."""
    ts = np.linspace(arc.a, arc.b, n_coarse)
    step = ts[1] - ts[0]

    def dist2(p, curve):
        return sum((p[:, i, None] - curve[i]) ** 2 for i in range(3))

    out = np.empty(len(pts))
    for lo in range(0, len(pts), chunk):
        p = pts[lo:lo + chunk]
        rows = np.arange(len(p))
        centre, half = ts[np.argmin(dist2(p, arc.point(ts)), axis=1)], step
        for _ in range(3):
            local = np.clip(centre[:, None] + np.linspace(-half, half, 65), arc.a, arc.b)
            d2 = dist2(p, arc.point(local))
            best = np.argmin(d2, axis=1)
            centre, half = local[rows, best], half / 16.0
        out[lo:lo + chunk] = np.sqrt(d2[rows, best])
    return out


def slice_tolerance(slice_n: int, cheb_degree: int | None = None) -> float:
    """Allowed distance of a w-slice point of the spun trefoil from the level set.

    Slice points are exact images of parameters found by linear interpolation
    of w on a slice_n^2 grid, so w misses the level by at most
    (1/8) (dt^2 max|w_tt| + dth^2 max|w_th th|); bounding |h''| by 60 and |h|
    by 7 on the trefoil arc gives 0.011 at slice_n = 128.  Twice that is
    allowed, plus the Chebyshev error of a polynomial model's cos/sin.
    """
    dt = (TREFOIL_SPUN.b - TREFOIL_SPUN.a) / (slice_n - 1)
    dth = TWO_PI / (slice_n - 1)
    tol = 2.0 * (dt * dt * 60.0 + dth * dth * 7.0) / 8.0
    if cheb_degree is not None:
        tol += 2.0 * 7.0 * cheb_interp_bound(TWO_PI, cheb_degree)
    return tol


def check_w_slice(doc: dict, arc: Arc, tol: float):
    """Every point (x, y, z) of the w = v slice has (x, y, sqrt(z^2 + v^2)) on
    the arc, i.e. f(t) = x, g(t) = y, h(t)^2 = z^2 + v^2 for some t."""
    if doc.get("type") != "slice_curve_set" or doc.get("axis") != "w":
        return "not a w slice document"
    v = float(doc["slice_value"])
    pts = [p for c in doc["curves"] for p in c["points"]]
    if not pts:
        return f"slice w={v:.4g} is empty"
    P = np.array(pts, float)
    if P.ndim != 2 or P.shape[1] != 3 or not np.all(np.isfinite(P)):
        return f"slice w={v:.4g} has malformed or non-finite points"
    lifted = np.stack([P[:, 0], P[:, 1], np.sqrt(P[:, 2] ** 2 + v * v)], axis=-1)
    dist = arc_distance(arc, lifted)
    worst = float(dist.max())
    if worst > tol:
        return f"slice w={v:.4g}: point {int(dist.argmax())} is {worst:.3e} off the level set (tol {tol:.1e})"
    return None


def check_slice_doc(doc: dict):
    """Shape checks for slices with no closed-form level set (twisted surfaces)."""
    if doc.get("type") != "slice_curve_set":
        return "not a slice document"
    for c in doc["curves"]:
        P = np.array(c["points"], float)
        if P.ndim != 2 or P.shape[1] != 3 or not np.all(np.isfinite(P)):
            return "slice curve has malformed or non-finite points"
    return None


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
