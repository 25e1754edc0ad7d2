"""Sampling, projection to R^3, hyperplane slicing (motion pictures), meshing,
and file export (OBJ / PLY / CSV / JSON)."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadAxes
from .poly import Interval, _count, _real
from .surface import _grid_nodes, _images

__all__ = [
    "Grid", "SliceCurveSet", "SurfaceMesh",
    "sample_surface", "project", "slice_surface", "sweep_surface", "to_mesh",
    "export_mesh", "export_grid_csv", "export_slices",
]

AXIS_NAMES = "xyzw"
FLOAT_FMT = "%.9g"
# rows per formatting pass of a text export
WRITE_ROWS = 1 << 12
# the least sides of a sample grid and of a slice grid, and a slice grid's default
GRID_LEAST, SLICE_LEAST, SLICE_N = 2, 64, 128


@dataclass(frozen=True)
class Grid:
    """Tensor sampling of a surface or of its projection to R^3;
    points[i, j] is the image of (tvals[i], svals[j]).

    ``seam_duplicated`` flags a last theta column that repeats the first,
    ``pole_low`` / ``pole_high`` a first / last row that is one point;
    ``columns`` names the d coordinates: axes of R^4, or p0-p2 for a matrix."""

    tvals: np.ndarray
    svals: np.ndarray
    points: np.ndarray  # (n_t, n_s, d), d = 4 sampled or 3 projected
    seam_duplicated: bool
    pole_low: bool
    pole_high: bool
    columns: tuple[str, ...] = tuple(AXIS_NAMES)


@dataclass(frozen=True)
class SliceCurveSet:
    """Cross-section of a surface by a coordinate hyperplane."""

    axis: str
    slice_value: float
    curves: tuple[np.ndarray, ...]  # each (m, 3), remaining coordinates
    closed: tuple[bool, ...]

    def to_json(self) -> dict:
        return {
            "type": "slice_curve_set",
            "axis": self.axis,
            "slice_value": self.slice_value,
            "curves": [
                {"closed": bool(c), "points": np.asarray(pts, float).tolist()}
                for pts, c in zip(self.curves, self.closed)
            ],
        }


@dataclass(frozen=True)
class SurfaceMesh:
    vertices: np.ndarray  # (V, 3)
    faces: np.ndarray     # (F, 3) int indices

    @property
    def edge_count(self) -> int:
        return len(self._edge_multiplicity())

    def _edge_multiplicity(self) -> np.ndarray:
        """Number of faces on each distinct undirected edge."""
        f = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        edges = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
        n = int(edges.max()) + 1 if edges.size else 0
        return np.unique(edges[:, 0] * n + edges[:, 1], return_counts=True)[1]

    def euler_characteristic(self) -> int:
        return len(self.vertices) - self.edge_count + len(self.faces)

    def is_watertight(self) -> bool:
        return bool(np.all(self._edge_multiplicity() == 2))


def sample_surface(s, n_t: int, n_s: int) -> Grid:
    """Uniform grid over the domain rectangle, including both theta endpoints
    (the seam row is duplicated and flagged).  A surface whose image is not
    finite on the grid is refused with a ValueError."""
    n_t, n_s = _count(n_t, "n_t", GRID_LEAST), _count(n_s, "n_s", GRID_LEAST)
    tvals, svals = s.t_dom.sample(n_t), s.s_dom.sample(n_s)
    pts = _images(s, tvals[:, None], svals[None, :], "the surface's image on the sample grid")
    return Grid(tvals, svals, pts, s.periodic_s, s.pole_low, s.pole_high)


def _axes_indices(spec: str, columns=AXIS_NAMES) -> list[int]:
    """The places in ``columns`` of the axes spec's three letters."""
    if len(spec) != 3 or len(set(spec)) != 3 or any(c not in AXIS_NAMES for c in spec):
        raise BadAxes(f"axes spec must be 3 distinct letters from 'xyzw', got {spec!r}")
    if any(c not in columns for c in spec):
        raise BadAxes(f"the grid has no axis of {spec!r}; its columns are {', '.join(columns)}")
    return [columns.index(c) for c in spec]


def project(grid: Grid, spec) -> Grid:
    """Coordinate-triple selection (e.g. "xzw") among the grid's ``columns``, or
    a general 3 x d linear projection, d its column count, applied pointwise."""
    if isinstance(spec, str):
        idx = _axes_indices(spec, grid.columns)
        pts, columns = grid.points[..., idx], tuple(spec)
    else:
        M = np.asarray(spec, float)
        d = grid.points.shape[-1]
        if M.shape != (3, d):
            raise BadAxes(f"projection matrix must be 3x{d}, got {M.shape}")
        if not np.isfinite(M).all():
            raise BadAxes("projection matrix entries must be finite")
        if np.linalg.matrix_rank(M) < 3:
            raise BadAxes("projection matrix rows must be independent")
        pts, columns = grid.points @ M.T, ("p0", "p1", "p2")
    return replace(grid, points=pts, columns=columns)


# -- marching squares -------------------------------------------------------

# A cell's corners 0-3 are the nodes (i, j), (i+1, j), (i+1, j+1) and (i, j+1);
# its case code has bit c set when corner c is above the level.  Edge e runs
# from corner e to corner e+1 (mod 4): bottom, right, top, left.


def _segment_table() -> np.ndarray:
    """table[code, center above the level]: a cell's segments as up to two
    (edge, edge) pairs, padded with -1.  A segment joins the two edges whose
    end corners differ in sign.  At the saddle codes 5 and 10 all four edges
    do, and the center's side of the level decides: the two diagonal corners
    on the other side are cut off, each by a segment across its own edges."""
    table = np.full((16, 2, 2, 2), -1, dtype=np.intp)
    for code in range(1, 15):
        bit = [code >> c & 1 for c in range(4)]
        crossed = [e for e in range(4) if bit[e] != bit[(e + 1) % 4]]
        if len(crossed) == 2:
            table[code, :, 0] = crossed
            continue
        for up in (0, 1):  # corner c lies between edges c - 1 and c
            table[code, up] = [sorted(((c - 1) % 4, c)) for c in range(4) if bit[c] != up]
    return table


_SEGMENT_TABLE = _segment_table()


def _cell_segments(field, tvals, svals, value, center):
    """Marching squares on the parameter grid, over all cells at once.

    Returns the segments as an (m, 2) array of edge keys, cells in row-major
    order, and an array whose row k is the interpolated parameter location
    (t, theta) of the crossing on edge k, filled for the edges the segments
    use.  Edge keys: i*ns + j is the edge from node (i, j) to (i+1, j), and
    (nt-1)*ns + i*(ns-1) + j the edge from (i, j) to (i, j+1).  Saddle cells
    are disambiguated by the sign of the true field at the cell center:
    ``center(i, j)`` gives it for arrays of cell indices, and is called only
    when there are saddle cells.
    """
    v = field - value
    tiny = np.finfo(float).tiny
    v = np.where(v == 0.0, tiny, v)  # nodes exactly on the level count as positive
    pos = v > 0.0
    nt, ns = v.shape
    code = pos[:-1, :-1] | pos[1:, :-1] << 1 | pos[1:, 1:] << 2 | pos[:-1, 1:] << 3
    i, j = np.nonzero((code != 0) & (code != 15))
    code = code[i, j]
    up = np.zeros(len(code), dtype=np.intp)
    saddle = np.flatnonzero((code == 5) | (code == 10))
    if len(saddle):
        up[saddle] = center(i[saddle], j[saddle]) > value
    pairs = _SEGMENT_TABLE[code, up].reshape(-1, 4)

    n_h = (nt - 1) * ns
    bottom, left = i * ns + j, n_h + i * (ns - 1) + j
    edges = np.stack([bottom, left + (ns - 1), bottom + 1, left], axis=1)
    segments = np.take_along_axis(edges, pairs, axis=1).reshape(-1, 2)
    segments = segments[pairs.reshape(-1, 2)[:, 0] >= 0]

    # each used edge runs from node (i, j) to node (i1, j1), one step in t or
    # in theta; an edge that two segments share is written twice, alike
    keys = segments.ravel()
    in_s = keys >= n_h
    i, j = np.where(in_s, np.divmod(keys - n_h, ns - 1), np.divmod(keys, ns))
    i1, j1 = i + ~in_s, j + in_s
    a, b = v[i, j], v[i1, j1]
    frac = a / (a - b)
    crossings = np.empty((n_h + nt * (ns - 1), 2))
    crossings[keys, 0] = tvals[i] + frac * (tvals[i1] - tvals[i])
    crossings[keys, 1] = svals[j] + frac * (svals[j1] - svals[j])
    return segments, crossings


def _chain_segments(segments):
    """Join segments sharing edge keys into polylines; returns (key lists,
    closed flags).  Each chain is walked from both ends of its first segment,
    so an open polyline comes out whole whatever order its segments come in."""
    adj: dict[int, list[int]] = {}
    for idx, (a, b) in enumerate(segments):
        adj.setdefault(a, []).append(idx)
        adj.setdefault(b, []).append(idx)
    used = [False] * len(segments)

    def walk(key):
        """The keys reached from ``key`` over unused segments, in order."""
        keys = []
        while nxt := [k for k in adj[key] if not used[k]]:
            used[nxt[0]] = True
            a, b = segments[nxt[0]]
            key = b if key == a else a
            keys.append(key)
        return keys

    chains = []
    for idx, (a, b) in enumerate(segments):
        if used[idx]:
            continue
        used[idx] = True
        ahead = walk(b)
        if ahead and ahead[-1] == a:
            chains.append(([a, b, *ahead[:-1]], True))  # start point not repeated
        else:
            chains.append(([*walk(a)[::-1], a, b, *ahead], False))
    return chains


def slice_surface(s, axis: str, value: float, n_t: int = SLICE_N, n_s: int = SLICE_N) -> SliceCurveSet:
    """Marching-squares cross-section of the surface by {coordinate == value}.

    The level set is traced on the parameter grid of the chosen coordinate,
    then mapped through the remaining three coordinates.  Samples that are
    one node of ``_grid_nodes`` (the seam column and column 0 when theta is
    periodic, the samples of a pole row) take that node's first value, and a
    t-edge on the seam column is the t-edge on column 0, so a curve through
    the seam or a pole goes on across it.  A surface whose image is not
    finite at a sample, a saddle centre or a crossing is refused with a ValueError.
    """
    n_t, n_s = _check_slice(axis, n_t, n_s)
    if not np.isfinite(_real(value)):
        raise ValueError(f"slice value must be finite, got {value!r}")
    return _slicer(s, axis, n_t, n_s)[1](value)


def sweep_surface(s, axis: str, count: int, n_t: int = SLICE_N, n_s: int = SLICE_N) -> list[SliceCurveSet]:
    """``count`` slices at levels evenly spaced strictly inside the range the axis
    takes on the sampled grid, seam column and pole rows included: one sampling for all."""
    n_t, n_s = _check_slice(axis, n_t, n_s)
    count = _count(count, "count", 1)
    w, level = _slicer(s, axis, n_t, n_s)
    return [level(v) for v in np.linspace(float(w.min()), float(w.max()), count + 2)[1:-1]]


def _check_slice(axis, n_t, n_s) -> tuple[int, int]:
    n_t, n_s = _count(n_t, "n_t", SLICE_LEAST), _count(n_s, "n_s", SLICE_LEAST)
    if axis not in AXIS_NAMES:
        raise BadAxes(f"axis must be one of 'xyzw', got {axis!r}")
    return n_t, n_s


def _slicer(s, axis, n_t, n_s):
    """The axis's coordinate on the sampled grid, and the slicer of one level."""
    ci = AXIS_NAMES.index(axis)
    keep = [i for i in range(4) if i != ci]
    grid = sample_surface(s, n_t, n_s)
    tvals, svals = grid.tvals, grid.svals
    nodes, firsts = _grid_nodes(n_t, n_s, s.periodic_s, s.pole_low, s.pole_high)
    field = grid.points[..., ci].ravel()[firsts][nodes]
    tc = 0.5 * (tvals[:-1] + tvals[1:])
    sc = 0.5 * (svals[:-1] + svals[1:])

    def center(i, j):
        return _images(s, tc[i], sc[j], "the surface's image at the slice's saddle centres")[..., ci]

    def level(value):
        with np.errstate(over="ignore", invalid="ignore"):
            segments, crossings = _cell_segments(field, tvals, svals, value, center)
        if s.periodic_s:  # t-edge keys are i * n_s + j, and j = n_s - 1 is the seam
            seam = (segments < (n_t - 1) * n_s) & (segments % n_s == n_s - 1)
            segments[seam] -= n_s - 1
        chains = _chain_segments(segments.tolist())
        if not chains:
            return SliceCurveSet(axis, float(value), (), ())
        # one evaluation for all chains; evaluate works point by point, so no
        # image depends on the other points in the call
        params = crossings[np.concatenate([chain for chain, _ in chains])]
        img = _images(s, params[:, 0], params[:, 1], "the surface's image at the slice's crossings")
        curves = np.split(img[:, keep], np.cumsum([len(chain) for chain, _ in chains])[:-1])
        return SliceCurveSet(axis, float(value), tuple(curves), tuple(c for _, c in chains))

    return grid.points[..., ci], level


# -- meshing ----------------------------------------------------------------

def to_mesh(grid: Grid) -> SurfaceMesh:
    """Triangulate a sampled grid with one vertex per node of
    ``_grid_nodes``: per the grid's own flags, the seam column is welded to
    the first and each pole row is one vertex, at the row's mean, which closes
    spun surfaces into genus-0 meshes.  A vertex that is not finite is
    refused with a ValueError."""
    nt, ns, dim = grid.points.shape
    index, firsts = _grid_nodes(nt, ns, grid.seam_duplicated, grid.pole_low, grid.pole_high)
    verts = np.take(grid.points.reshape(nt * ns, dim), firsts, axis=0).astype(float, copy=False)
    with np.errstate(over="ignore", invalid="ignore"):
        if grid.pole_low:
            verts[0] = grid.points[0].mean(axis=0)
        if grid.pole_high:
            verts[-1] = grid.points[-1].mean(axis=0)
    if not np.isfinite(verts).all():
        raise ValueError("a vertex of the mesh (a pole row's mean) is not finite")

    # per cell (a, b, c) then (a, c, d), cells row-major; triangles that
    # touch a collapsed pole twice are dropped
    a, b = index[:-1, :-1], index[1:, :-1]
    c, d = index[1:, 1:], index[:-1, 1:]
    tris = np.stack([np.stack([a, b, c], -1), np.stack([a, c, d], -1)], axis=2).reshape(-1, 3)
    keep = (tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2]) & (tris[:, 0] != tris[:, 2])
    return SurfaceMesh(verts, tris[keep])


# -- file export ------------------------------------------------------------

def _write_rows(fh, prefix: str, fmt: str, rows: np.ndarray, sep: str = " ") -> None:
    """Write the rows of a 2D array to ``fh`` as text, one line each:
    ``prefix`` then the row's values in ``fmt`` separated by ``sep``.  Each
    ``WRITE_ROWS`` rows are formatted in one pass, so a large export never
    holds all its text, or one tuple of all its values, at once."""
    line = prefix + sep.join([fmt] * rows.shape[1]) + "\n"
    for i in range(0, rows.shape[0], WRITE_ROWS):
        chunk = rows[i:i + WRITE_ROWS]
        fh.write((line * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def export_mesh(mesh: SurfaceMesh, fmt: str, path) -> None:
    """Write ``mesh`` as an OBJ, PLY or JSON file.  OBJ and PLY take 3-D
    vertices only, and refuse others with a ValueError; JSON keeps any
    dimension."""
    dim = np.shape(mesh.vertices)[-1]
    if fmt in ("obj", "ply") and dim != 3:
        raise ValueError(f"a {fmt} file takes 3-D vertices, got {dim}-D ones; project the grid "
                         "to three axes first, with spun4d.project")
    if fmt == "obj":
        with open(path, "w") as fh:
            _write_rows(fh, "v ", FLOAT_FMT, np.asarray(mesh.vertices))
            _write_rows(fh, "f ", "%d", np.asarray(mesh.faces).reshape(-1, 3) + 1)
    elif fmt == "ply":
        with open(path, "w") as fh:
            fh.write("ply\nformat ascii 1.0\n")
            fh.write(f"element vertex {len(mesh.vertices)}\n")
            fh.write("property float x\nproperty float y\nproperty float z\n")
            fh.write(f"element face {len(mesh.faces)}\n")
            fh.write("property list uchar int vertex_indices\nend_header\n")
            _write_rows(fh, "", FLOAT_FMT, np.asarray(mesh.vertices))
            _write_rows(fh, "3 ", "%d", np.asarray(mesh.faces).reshape(-1, 3))
    elif fmt == "json":
        with open(path, "w") as fh:
            # json.dumps encodes in C; json.dump streams through the Python encoder
            fh.write(json.dumps({
                "type": "surface_mesh",
                "vertices": np.asarray(mesh.vertices, float).tolist(),
                "faces": np.asarray(mesh.faces, int).tolist(),
            }))
    else:
        raise ValueError(f"unsupported mesh format {fmt!r}")


def export_grid_csv(grid, path) -> None:
    """One sample per row: t, theta, then the grid's ``columns``."""
    dim = grid.points.shape[-1]
    T, S = np.meshgrid(grid.tvals, grid.svals, indexing="ij")
    rows = np.column_stack([T.ravel(), S.ravel(), grid.points.reshape(-1, dim)])
    with open(path, "w") as fh:
        fh.write("t,theta," + ",".join(grid.columns) + "\n")
        _write_rows(fh, "", FLOAT_FMT, rows, ",")


def export_slices(slices, fmt: str, path_pattern: str) -> list[str]:
    """Write one file per SliceCurveSet; pattern must contain '{}' for the index.

    Every path is formatted, and checked distinct, before any file is written."""
    hint = "put '{}' where the slice index goes"
    try:
        paths = [path_pattern.format(i) for i in range(len(slices))]
    except (IndexError, KeyError, AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"output pattern {path_pattern!r} does not format with a slice index "
                         f"({type(exc).__name__}: {exc}); {hint}") from None
    if len(set(paths)) < len(paths):
        raise ValueError(f"output pattern {path_pattern!r} gives {len(paths)} slices only "
                         f"{len(set(paths))} distinct path(s); {hint}")
    for path, sl in zip(paths, slices):
        if fmt == "json":
            with open(path, "w") as fh:
                fh.write(json.dumps(sl.to_json()))
        elif fmt == "csv":
            with open(path, "w") as fh:
                fh.write("curve,closed,c0,c1,c2\n")
                for ci, (pts, closed) in enumerate(zip(sl.curves, sl.closed)):
                    _write_rows(fh, f"{ci},{int(closed)},", FLOAT_FMT, np.asarray(pts), ",")
        else:
            raise ValueError(f"unsupported slice format {fmt!r}")
    return paths
