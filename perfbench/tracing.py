"""Span tracing around the package's public entry points, from outside it.

``Tracer.install`` wraps every public function of each spun4d module at every
import site (``spun4d.spin.chebyshev_fit`` as well as
``spun4d.approx.chebyshev_fit``) plus the hot methods of ``Poly2``,
``Surface4`` and ``PolyMap4``.  Each call records a span
``[name, layer, start, end, parent, cycle, info]`` in memory; ``info`` holds
the counts measured at that boundary (points, cells, bytes, ...).  A span's
self time is its duration minus the time its child spans cover.
``layer_metrics`` folds the spans of each cycle into the per-layer metrics and
reports their median over cycles.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "catalog", "poly", "spin", "twist", "surface", "approx", "verify", "export")
METHODS = (
    ("poly", "Poly2", ("__call__", "__mul__", "__rmul__")),
    ("surface", "Surface4", ("evaluate", "eval_grid", "partials_grid", "to_json", "from_json")),
    ("surface", "PolyMap4", ("evaluate", "eval_grid", "partials_grid", "to_json", "from_json")),
)
HOOK_SPAN = "perfbench.count"


def _args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.cycle = 0
        self.paused = False  # set while the benchmark checks outputs
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._originals: dict[tuple, object] = {}

    # -- recording ----------------------------------------------------------

    def _open(self, name, layer) -> list:
        rec = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else None, self.cycle, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter()
        return rec

    def _close(self, rec):
        rec[3] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, label):
        """A root span (no layer) around one benchmark op."""
        rec = self._open("op:" + label, None)
        try:
            yield
        finally:
            self._close(rec)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def _wrap(self, name, layer, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            rec = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if hook is not None:
                # counting runs in its own layerless span so that it is not
                # charged to the caller's self time
                count = tracer._open(HOOK_SPAN, None)
                try:
                    rec[6] = hook(tracer, fn, args, kwargs, result)
                finally:
                    tracer._close(count)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        import spun4d
        import spun4d.cli  # noqa: F401  (not imported by the package itself)

        mods = {layer: sys.modules[f"spun4d.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, layer, obj, HOOKS.get(name)))
        for mod in (spun4d, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._restore.append((mod, attr, obj))
        for layer, cls_name, methods in METHODS:
            cls = getattr(mods[layer], cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                self._originals[(cls, meth)] = fn
                name = f"{layer}.{cls_name}.{meth}"
                traced = self._wrap(name, layer, fn, HOOKS.get(name))
                setattr(cls, meth, classmethod(traced) if isinstance(raw, classmethod) else traced)
                self._restore.append((cls, meth, raw))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def original(self, cls, meth):
        return self._originals[(cls, meth)]

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "cycle", "info"],
                       "spans": self.spans, **extra}, fh)


# -- counters at the wrapped boundaries ----------------------------------------

def _built(tracer, surface) -> dict:
    """Tree nodes and serialized size of a surface some call built."""
    doc = tracer.original(type(surface), "to_json")(surface)
    nodes = 0
    if doc["type"] == "surface4":
        stack = list(doc["coords"])
        while stack:
            node = stack.pop()
            nodes += 1
            stack.extend(node.get("terms", ()))
            stack.extend(node.get("factors", ()))
    text = json.dumps(doc, indent=1, sort_keys=True)
    return {"built": 1, "trees": int(doc["type"] == "surface4"), "tree_nodes": nodes, "json_bytes": len(text)}


def _points(result) -> dict:
    return {"points": int(result.size // 4)}


def _rank(tracer, fn, args, kwargs, result):
    a = _args(fn, args, kwargs)
    return {"points": a["n_t"] * a["n_s"], "label": f"{a['n_t']}x{a['n_s']}"}


def _inject(tracer, fn, args, kwargs, result):
    a = _args(fn, args, kwargs)
    return {"points": a["n_t"] * a["n_s"], "collisions": len(result), "label": f"{a['n_t']}x{a['n_s']}"}


def _bernstein(tracer, fn, args, kwargs, result):
    degree = _args(fn, args, kwargs)["degree"]
    return {"coeffs": 4 * (degree + 1) ** 2, "label": f"deg={degree}"}


def _slice(tracer, fn, args, kwargs, result):
    a = _args(fn, args, kwargs)
    return {"cells": (a["n_t"] - 1) * (a["n_s"] - 1),
            "points_out": sum(len(c) for c in result.curves), "label": f"{a['n_t']}x{a['n_s']}"}


def _mesh(tracer, fn, args, kwargs, result):
    shape = _args(fn, args, kwargs)["grid"].points.shape
    return {"faces": len(result.faces), "label": f"{shape[0]}x{shape[1]}"}


def _written(path_arg, fmt_arg=None):
    def hook(tracer, fn, args, kwargs, result):
        a = _args(fn, args, kwargs)
        paths = result if path_arg is None else [a[path_arg]]
        return {"bytes": sum(os.path.getsize(p) for p in paths),
                "label": a[fmt_arg] if fmt_arg else "csv"}
    return hook


def _twist(tracer, fn, args, kwargs, result):
    import spun4d.twist as tw

    return {"precheck_points": tw.PRECHECK_NT * tw.PRECHECK_NPHI,
            "label": f"k={_args(fn, args, kwargs)['k']}", **_built(tracer, result)}


HOOKS = {
    "poly.Poly2.__call__": lambda tr, fn, a, k, r: {"points": int(r.size)},
    "verify.jacobian_rank_scan": _rank,
    "verify.injectivity_scan": _inject,
    "approx.bernstein_fit2": _bernstein,
    "export.slice_surface": _slice,
    "export.to_mesh": _mesh,
    "export.export_mesh": _written("path", "fmt"),
    "export.export_grid_csv": _written("path"),
    "export.export_slices": _written(None, "fmt"),
    "twist.twist_spin": _twist,
    "twist.polynomialize_twist": lambda tr, fn, a, k, r: _built(tr, r[0]),
    "spin.spin": lambda tr, fn, a, k, r: _built(tr, r),
    "spin.polynomial_spin": lambda tr, fn, a, k, r: _built(tr, r),
}
for _cls in ("Surface4", "PolyMap4"):
    for _meth in ("evaluate", "eval_grid"):
        HOOKS[f"surface.{_cls}.{_meth}"] = lambda tr, fn, a, k, r: _points(r)
    HOOKS[f"surface.{_cls}.partials_grid"] = lambda tr, fn, a, k, r: _points(r[0])
    HOOKS[f"surface.{_cls}.from_json"] = lambda tr, fn, a, k, r: _built(tr, r)


# -- aggregation ----------------------------------------------------------------

_EVAL = {f"surface.{c}.{m}" for c in ("Surface4", "PolyMap4") for m in ("evaluate", "eval_grid")}
_PARTIALS = {f"surface.{c}.partials_grid" for c in ("Surface4", "PolyMap4")}
_JSON = {f"surface.{c}.{m}" for c in ("Surface4", "PolyMap4") for m in ("to_json", "from_json")}
_BUILDERS = {"spin.spin", "spin.polynomial_spin", "twist.twist_spin", "twist.polynomialize_twist",
             "surface.Surface4.from_json", "surface.PolyMap4.from_json"}
_WRITERS = {"export.export_mesh", "export.export_grid_csv", "export.export_slices"}


def span_self_times(spans) -> list[float]:
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[4] is not None:
            covered[rec[4]] += rec[3] - rec[2]
    return [rec[3] - rec[2] - c for rec, c in zip(spans, covered)]


def cycle_totals(spans) -> dict[int, dict]:
    """Per cycle: self time and calls per layer and per span name, and the
    counts recorded at each boundary, keyed 'fn:<name>.<count>'.  Points of a
    surface evaluation nested in another are not counted twice."""
    selfs = span_self_times(spans)
    grids = _EVAL | _PARTIALS
    out: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    for rec, own in zip(spans, selfs):
        name, layer, _, _, parent, cycle, info = rec
        if layer is None:
            continue
        tot = out[cycle]
        tot[f"{layer}.busy_s"] += own
        tot[f"{layer}.calls"] += 1
        tot[f"fn:{name}.self"] += own
        tot[f"fn:{name}.calls"] += 1
        for key, value in (info or {}).items():
            if key == "label":
                continue
            nested = key == "points" and name in grids and parent is not None and spans[parent][0] in grids
            if not nested:
                tot[f"fn:{name}.{key}"] += value
    return out


def _sum(tot, names, key):
    return sum(tot.get(f"fn:{n}.{key}", 0.0) for n in names)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def _metric_table():
    """(name, unit, fn(per-cycle totals) -> value) for every per-layer metric."""
    t = []

    def add(name, unit, fn):
        t.append((name, unit, fn))

    add("cli.process_s", "s", lambda d: d.get("cli.process_s", 0.0))
    add("cli.import_s", "s", lambda d: d.get("cli.import_s", 0.0))
    add("cli.commands", "count", lambda d: d.get("cli.commands", 0.0))
    add("catalog.calls", "count", lambda d: d.get("catalog.calls", 0.0))
    add("catalog.double_points_s", "s", lambda d: _sum(d, ["catalog.plane_double_points"], "self"))
    mul = ["poly.Poly2.__mul__", "poly.Poly2.__rmul__"]
    add("poly.mul_calls", "count", lambda d: _sum(d, mul, "calls"))
    add("poly.mul_s", "s", lambda d: _sum(d, mul, "self"))
    add("poly.eval2_points", "count", lambda d: _sum(d, ["poly.Poly2.__call__"], "points"))
    add("poly.eval2_s", "s", lambda d: _sum(d, ["poly.Poly2.__call__"], "self"))
    add("poly.roots_calls", "count", lambda d: _sum(d, ["poly.roots_in_interval"], "calls"))
    add("poly.roots_s", "s", lambda d: _sum(d, ["poly.roots_in_interval"], "self"))
    add("spin.calls", "count", lambda d: d.get("spin.calls", 0.0))
    add("twist.build_calls", "count", lambda d: _sum(d, ["twist.twist_spin"], "calls"))
    add("twist.build_s", "s", lambda d: _sum(d, ["twist.twist_spin"], "self"))
    add("twist.precheck_points", "count", lambda d: _sum(d, ["twist.twist_spin"], "precheck_points"))
    add("twist.polynomialize_s", "s", lambda d: _sum(d, ["twist.polynomialize_twist"], "self"))
    add("surface.eval_points", "count", lambda d: _sum(d, _EVAL, "points"))
    add("surface.eval_s", "s", lambda d: _sum(d, _EVAL, "self"))
    add("surface.eval_ns_per_point", "ns/point",
        lambda d: _ratio(_sum(d, _EVAL, "self"), _sum(d, _EVAL, "points"), 1e9))
    add("surface.partials_points", "count", lambda d: _sum(d, _PARTIALS, "points"))
    add("surface.partials_s", "s", lambda d: _sum(d, _PARTIALS, "self"))
    add("surface.partials_ns_per_point", "ns/point",
        lambda d: _ratio(_sum(d, _PARTIALS, "self"), _sum(d, _PARTIALS, "points"), 1e9))
    add("surface.tree_nodes", "count",
        lambda d: _ratio(_sum(d, _BUILDERS, "tree_nodes"), _sum(d, _BUILDERS, "trees")))
    add("surface.json_bytes", "bytes",
        lambda d: _ratio(_sum(d, _BUILDERS, "json_bytes"), _sum(d, _BUILDERS, "built")))
    add("surface.json_s", "s", lambda d: _sum(d, _JSON, "self"))
    add("verify.rank_points", "count", lambda d: _sum(d, ["verify.jacobian_rank_scan"], "points"))
    add("verify.rank_s", "s", lambda d: _sum(d, ["verify.jacobian_rank_scan"], "self"))
    add("verify.inject_points", "count", lambda d: _sum(d, ["verify.injectivity_scan"], "points"))
    add("verify.inject_s", "s", lambda d: _sum(d, ["verify.injectivity_scan"], "self"))
    add("verify.family_s", "s", lambda d: _sum(d, ["verify.isotopy_family_check"], "self"))
    add("verify.collisions", "count", lambda d: _sum(d, ["verify.injectivity_scan"], "collisions"))
    bern = ["approx.bernstein_fit2"]
    add("approx.bernstein_calls", "count", lambda d: _sum(d, bern, "calls"))
    add("approx.bernstein_s", "s", lambda d: _sum(d, bern, "self"))
    add("approx.bernstein_coeffs_per_s", "coeff/s",
        lambda d: _ratio(_sum(d, bern, "coeffs"), _sum(d, bern, "self")))
    add("approx.cheb_calls", "count", lambda d: _sum(d, ["approx.chebyshev_fit"], "calls"))
    add("approx.cheb_s", "s", lambda d: _sum(d, ["approx.chebyshev_fit"], "self"))
    sl = ["export.slice_surface"]
    add("export.slice_calls", "count", lambda d: _sum(d, sl, "calls"))
    add("export.slice_s", "s", lambda d: _sum(d, sl, "self"))
    add("export.slice_cells", "count", lambda d: _sum(d, sl, "cells"))
    add("export.slice_us_per_cell", "us/cell", lambda d: _ratio(_sum(d, sl, "self"), _sum(d, sl, "cells"), 1e6))
    add("export.slice_points_out", "count", lambda d: _sum(d, sl, "points_out"))
    add("export.mesh_s", "s", lambda d: _sum(d, ["export.to_mesh"], "self"))
    add("export.mesh_faces", "count", lambda d: _sum(d, ["export.to_mesh"], "faces"))
    add("export.write_s", "s", lambda d: _sum(d, _WRITERS, "self"))
    add("export.bytes_written", "bytes", lambda d: _sum(d, _WRITERS, "bytes"))
    add("export.write_mb_per_s", "MB/s", lambda d: _ratio(_sum(d, _WRITERS, "bytes"), _sum(d, _WRITERS, "self"), 1e-6))
    for layer in LAYERS:
        add(f"{layer}.busy_s", "s", lambda d, layer=layer: d.get(f"{layer}.busy_s", 0.0))
    add("trace_overhead", "s", lambda d: d.get("trace_overhead", 0.0))
    return t


PER_LAYER = _metric_table()


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def layer_metrics(spans, extras: dict[int, dict]) -> dict[str, tuple[float, float, float, str]]:
    """Every per-layer metric as (q1, median, q3, unit) over cycles; ``extras``
    adds per-cycle totals measured outside the spans (process times)."""
    totals = cycle_totals(spans)
    cycles = sorted(set(totals) | set(extras))
    out = {}
    for name, unit, fn in PER_LAYER:
        per_cycle = []
        for c in cycles:
            d = dict(totals.get(c, {}))
            d.update(extras.get(c, {}))
            per_cycle.append(float(fn(d)))
        out[name] = (*quartiles(per_cycle), unit)
    return out


def call_breakdown(spans) -> list[tuple]:
    """Per span name and size label: calls, median inclusive and self ms."""
    selfs = span_self_times(spans)
    groups: dict[tuple, list] = defaultdict(list)
    for rec, own in zip(spans, selfs):
        if rec[1] is None:
            continue
        label = (rec[6] or {}).get("label", "")
        groups[(rec[0], label)].append((rec[3] - rec[2], own))
    rows = []
    for (name, label), calls in sorted(groups.items()):
        incl = [c[0] * 1e3 for c in calls]
        own = [c[1] * 1e3 for c in calls]
        rows.append((name, label, len(calls), statistics.median(incl), *quartiles(own)))
    return rows
