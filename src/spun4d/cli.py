"""Command-line surface: catalog -> construction -> verification -> export.

Subcommands compose through JSON surface files on disk; every run that writes
outputs also writes a manifest (command line, config hash, version,
tolerances, timing, output list) alongside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .approx import bernstein_fit2, bernstein_lattice
from .catalog import get_knot, knot_names
from .errors import Spun4dError
from .export import (
    AXIS_NAMES, _axes_indices, export_grid_csv, export_mesh, export_slices, project,
    sample_surface, slice_surface, to_mesh,
)
from .poly import Interval, Poly1, roots_in_interval
from .spin import spin
from .surface import PolyMap4, _max_distance, surface_from_json
from .twist import Bump, choose_bump, make_axis, polynomialize_twist, twist_spin
from .verify import IMAGE_TOL, N_INJECT, N_RANK, PARAM_SEP, RANK_TOL, verify_surface

PROG = "spun4d"

# polynomialize warns when its grid deviation exceeds this share of the
# input's largest |coordinate| on the same grid: the fit has diverged
POLY_DEVIATION_WARN = 1e-3

# central defaults; overridable per-key by a spun4d.json config file
DEFAULT_CONFIG = {
    "rank_tol": RANK_TOL,
    "image_tol": IMAGE_TOL,
    "param_sep": PARAM_SEP,
    "n_rank": N_RANK,
    "n_inject": N_INJECT,
    "cheb_degree": 8,
    "grid_nt": 200,
    "grid_ns": 200,
    "slice_n": 128,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for
    verification failures, so remap usage errors to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None


def _load_config(path: str | None) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    candidate = path or "spun4d.json"
    if path is not None or os.path.exists(candidate):
        user = _read_json(candidate)
        if not isinstance(user, dict):
            raise ValueError(f"{candidate}: config must be a JSON object")
        unknown = set(user) - set(DEFAULT_CONFIG)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in user.items():
            _check_config_value(candidate, key, value)
        cfg.update(user)
    return cfg


def _check_config_value(path: str, key: str, value) -> None:
    """An int where the default is an int, a finite number where it is a
    float; either way greater than 0."""
    if isinstance(DEFAULT_CONFIG[key], int):
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    else:
        ok, kind = isinstance(value, (int, float)) and not isinstance(value, bool), "a finite number"
    if not ok or not 0 < value < float("inf"):
        raise ValueError(f"{path}: config key {key!r} must be {kind} > 0, got {value!r}")


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_json(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_manifest(args, cfg, outputs, t0, warnings):
    _write_json(
        {
            "command": [PROG] + args.argv,
            "version": __version__,
            "config_hash": _config_hash(cfg),
            "tolerances": cfg,
            "timing_seconds": round(time.time() - t0, 3),
            "outputs": outputs,
            "warnings": list(warnings),
        },
        outputs[0] + ".manifest.json",
    )


def _load_surface(path: str):
    """A surface4 or polymap4 file; any defect names the file and the key."""
    doc = _read_json(path)
    try:
        return surface_from_json(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _input_surface(name: str):
    """The spin of a catalog arc, or the surface in a file."""
    return spin(get_knot(name)) if name in knot_names() else _load_surface(name)


def _default_axis(arc):
    """Axis endpoints straddling the crossing interval at equal heights:
    t2 halfway between the crossings and the upper root, t1 the matching
    height parameter below the crossings."""
    if arc.crossing_iv is None:
        lo, hi = arc.ab.lo, arc.ab.hi
        t2 = lo + 0.75 * (hi - lo)
        cut = lo + 0.25 * (hi - lo)
    else:
        t2 = 0.5 * (arc.crossing_iv.hi + arc.ab.hi)
        cut = arc.crossing_iv.lo
    level = float(arc.h(t2))
    matches = roots_in_interval(arc.h - Poly1((level,)), Interval(arc.ab.lo, cut))
    if not matches:
        raise ValueError("no equal-height axis endpoint below the crossings; pass --t1/--t2")
    return make_axis(arc, matches[-1], t2)


def _build_surface(args):
    """Surface for the construction subcommands, plus the source arc."""
    arc = get_knot(args.knot)
    if args.cmd == "spin":
        return spin(arc), arc
    if args.t1 is not None or args.t2 is not None:
        if args.t1 is None or args.t2 is None:
            raise ValueError("--t1 and --t2 must be given together")
        axis = make_axis(arc, args.t1, args.t2)
    else:
        axis = _default_axis(arc)
    if args.d1 is not None or args.d2 is not None:
        if args.d1 is None or args.d2 is None:
            raise ValueError("--d1 and --d2 must be given together")
        bump = Bump(args.d1, args.d2)
    else:
        bump = choose_bump(arc, axis)
    return twist_spin(arc, axis, bump, args.k), arc


_VERIFY_KEYS = ("n_rank", "n_inject", "param_sep", "rank_tol", "image_tol")


def _run_verify(surface, arc, cfg):
    """The verification report, printed one line per check."""
    report = verify_surface(surface, arc, **{key: cfg[key] for key in _VERIFY_KEYS})
    print(f"rank-2 on grid: {'pass' if report.rank_ok else 'FAIL'} "
          f"(min singular ratio {report.min_singular_ratio:.3e})")
    count = f"{'at least ' if report.collisions_capped else ''}{len(report.collisions)}"
    print(f"injectivity: {'pass' if not report.collisions else 'FAIL'} ({count} collision(s))")
    if report.boundary_ok is not None:
        print(f"boundary transversality: {'pass' if report.boundary_ok else 'FAIL'}")
    print(f"overall: {'pass' if report.ok else 'FAIL'}")
    return report


def _export_surface(surface, fmt, out, plane, cfg):
    grid = sample_surface(surface, cfg["grid_nt"], cfg["grid_ns"])
    if fmt == "csv":
        export_grid_csv(grid, out)
    else:
        export_mesh(to_mesh(project(grid, plane)), fmt, out)


def _slice_files(surface, axis, args, cfg, pattern):
    """Write cross-sections of ``surface`` across ``axis`` through ``pattern``:
    at the ``--values`` of ``slice``, otherwise at ``--count`` values evenly
    spaced strictly inside the range the axis takes on a sample grid."""
    n = cfg["slice_n"]
    if args.cmd == "slice":
        try:
            values = [float(v) for v in args.values.split(",")]
        except ValueError as exc:  # the message quotes the entry
            raise ValueError(f"--values {args.values!r}: {exc}") from None
    else:
        count = 24 if args.count is None else args.count
        if count < 1:
            raise ValueError(f"--count must be at least 1, got {count}")
        w = sample_surface(surface, n, n).points[..., AXIS_NAMES.index(axis)]
        values = np.linspace(float(w.min()), float(w.max()), count + 2)[1:-1]
    slices = [slice_surface(surface, axis, float(v), n, n) for v in values]
    return export_slices(slices, args.format or "json", pattern)


# Each handler returns (exit code, files written, manifest warnings);
# dispatch writes the manifest when any file was written.

def _cmd_catalog(args, cfg):
    for name in knot_names():
        arc = get_knot(name)
        print(f"{name:15s} deg(f,g,h)=({arc.f.degree},{arc.g.degree},{arc.h.degree}) "
              f"t in [{arc.ab.lo:.6g}, {arc.ab.hi:.6g}] "
              f"crossings={len(arc.crossings)}")
    return 0, [], []


def _cmd_construct(args, cfg):
    if args.cmd == "twistspin" and args.sweep and (args.export or args.out):
        raise ValueError("--sweep names its slice files by --out-pattern, not --export or --out")
    if args.cmd == "twistspin" and not args.sweep:
        for flag, value in (("--out-pattern", args.out_pattern), ("--count", args.count),
                            ("--format", args.format)):
            if value is not None:
                raise ValueError(f"{flag} applies only with --sweep")
    if args.export and not args.out:
        raise ValueError("--export requires --out")
    surface, arc = _build_surface(args)
    if args.verify:
        report = _run_verify(surface, arc, cfg)
        if not report.ok:
            rpath = (args.out or f"{args.knot}_{args.cmd}") + ".report.json"
            _write_json(report.to_json(), rpath)
            return 2, [rpath], ["verification failed; exports skipped"]
    if args.cmd == "twistspin" and args.sweep:
        pattern = args.out_pattern or f"{args.knot}_k{args.k}_{args.sweep}_{{}}.json"
        return 0, _slice_files(surface, args.sweep, args, cfg, pattern), []
    if args.export:
        _export_surface(surface, args.export, args.out, args.plane, cfg)
        return 0, [args.out], []
    out = args.out or f"{args.knot}_{args.cmd}.json"
    _write_json(surface.to_json(), out)
    return 0, [out], []


def _cmd_polynomialize(args, cfg):
    degree = cfg["cheb_degree"] if args.cheb_degree is None else args.cheb_degree
    surface = _input_surface(args.input)
    if isinstance(surface, PolyMap4):
        raise ValueError(f"{args.input}: key 'type' must be 'surface4' to polynomialize; "
                         "a polymap4 is polynomial already")
    poly, dev = polynomialize_twist(surface, degree, args.bump_degree)
    out = args.out or "polynomialized.json"
    _write_json(poly.to_json(), out)
    print(f"max grid deviation from exact surface: {dev:.6e}")
    # the deviation's own 200x200 grid
    with np.errstate(over="ignore", invalid="ignore"):
        size = float(np.abs(surface.eval_grid(surface.t_dom.sample(200),
                                              surface.s_dom.sample(200))).max())
    if dev > POLY_DEVIATION_WARN * size:
        warning = (f"the deviation {dev:.3e} exceeds {POLY_DEVIATION_WARN:g} times the surface's "
                   f"largest |coordinate| {size:.3e}: the Chebyshev fit has diverged")
        print(f"{PROG}: warning: {warning}", file=sys.stderr)
        return 0, [out], [warning]
    return 0, [out], []


def _cmd_approx(args, cfg):
    surface = _input_surface(args.input)
    u = bernstein_lattice(args.degree)
    tv = surface.t_dom.mid + 0.5 * surface.t_dom.length * u
    sv = surface.s_dom.mid + 0.5 * surface.s_dom.length * u
    with np.errstate(over="ignore", invalid="ignore"):
        samples = surface.eval_grid(tv, sv)
    polys = bernstein_fit2(samples, args.degree)
    fit = PolyMap4(polys, Interval(-1.0, 1.0), Interval(-1.0, 1.0),
                   surface.periodic_s, surface.pole_low, surface.pole_high)
    with np.errstate(over="ignore", invalid="ignore"):
        fitted = fit.eval_grid(u, u)
    err = _max_distance(fitted, samples, "the Bernstein fit on its lattice")
    out = args.out or "bernstein.json"
    doc = fit.to_json()
    doc["source_t_dom"] = [surface.t_dom.lo, surface.t_dom.hi]
    doc["source_s_dom"] = [surface.s_dom.lo, surface.s_dom.hi]
    _write_json(doc, out)
    print(f"lattice residual: {err:.6e}")
    return 0, [out], []


def _cmd_verify(args, cfg):
    surface = _load_surface(args.input)
    arc = get_knot(args.knot) if args.knot else None
    report = _run_verify(surface, arc, cfg)
    out = args.out or args.input + ".report.json"
    _write_json(report.to_json(), out)
    return (0, [out], []) if report.ok else (2, [out], ["verification failed"])


def _cmd_project(args, cfg):
    surface = _load_surface(args.input)
    grid = sample_surface(surface, cfg["grid_nt"], cfg["grid_ns"])
    export_grid_csv(project(grid, args.plane), args.out)
    return 0, [args.out], []


def _cmd_slice(args, cfg):
    surface = _load_surface(args.input)
    pattern = args.out_pattern or f"{args.cmd}_{args.axis}_{{}}.{args.format}"
    return 0, _slice_files(surface, args.axis, args, cfg, pattern), []


def _cmd_export(args, cfg):
    surface = _load_surface(args.input)
    _export_surface(surface, args.format, args.out, args.plane, cfg)
    return 0, [args.out], []


def _build_parser() -> _Parser:
    p = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    p.add_argument("--config", help="path to a spun4d.json config file")
    sub = p.add_subparsers(dest="cmd", required=True)

    sub.add_parser("catalog", help="list built-in knots").set_defaults(run=_cmd_catalog)

    def construction(name, help):
        c = sub.add_parser(name, help=help)
        c.set_defaults(run=_cmd_construct)
        c.add_argument("knot", help="catalog name or knot-definition JSON path")
        c.add_argument("--out", help="output path (surface JSON unless --export)")
        c.add_argument("--verify", action="store_true")
        c.add_argument("--export", choices=["obj", "ply", "json", "csv"])
        c.add_argument("--plane", default="xyz", help="projection axes for mesh export")
        return c

    construction("spin", "spin a catalog arc into an exact surface: a topological 2-sphere, "
                 "with a cone point at each pole")
    tw = construction("twistspin", "k-twist spin a catalog arc")
    tw.add_argument("--k", type=int, required=True)
    tw.add_argument("--t1", type=float)
    tw.add_argument("--t2", type=float)
    tw.add_argument("--d1", type=float)
    tw.add_argument("--d2", type=float)
    tw.add_argument("--sweep", choices=list("xyzw"), help="emit cross-section files instead of a surface")
    # None when not given: without --sweep they are refused
    tw.add_argument("--count", type=int)
    tw.add_argument("--format", choices=["json", "csv"])
    tw.add_argument("--out-pattern")

    pz = sub.add_parser("polynomialize", help="replace transcendental factors by Chebyshev fits")
    pz.set_defaults(run=_cmd_polynomialize)
    pz.add_argument("input", help="catalog name or surface JSON path")
    pz.add_argument("--cheb-degree", type=int)
    pz.add_argument("--bump-degree", type=int)
    pz.add_argument("--out")

    ap = sub.add_parser("approx", help="approximation utilities")
    apsub = ap.add_subparsers(dest="approx_cmd", required=True)
    ab = apsub.add_parser("bernstein", help="bivariate Bernstein tensor fit of a surface")
    ab.set_defaults(run=_cmd_approx)
    ab.add_argument("input", help="catalog name or surface JSON path")
    ab.add_argument("--degree", type=int, required=True)
    ab.add_argument("--out")

    v = sub.add_parser("verify", help="embedding checks on a surface file")
    v.set_defaults(run=_cmd_verify)
    v.add_argument("input")
    v.add_argument("--knot", help="catalog arc for the boundary check")
    v.add_argument("--out")

    pr = sub.add_parser("project", help="project a surface to 3D and write a CSV grid")
    pr.set_defaults(run=_cmd_project)
    pr.add_argument("input")
    pr.add_argument("--plane", default="xyz")
    pr.add_argument("--out", required=True)

    for name, help in (("slice", "hyperplane cross-sections at given values"),
                       ("sweep", "evenly spaced cross-sections across an axis")):
        sl = sub.add_parser(name, help=help)
        sl.set_defaults(run=_cmd_slice)
        sl.add_argument("input")
        sl.add_argument("--axis", choices=list("xyzw"), default="w")
        if name == "slice":
            sl.add_argument("--values", required=True, help="comma-separated slice values")
        else:
            sl.add_argument("--count", type=int)
        sl.add_argument("--format", choices=["json", "csv"], default="json")
        sl.add_argument("--out-pattern")

    ex = sub.add_parser("export", help="mesh/grid export of a surface file")
    ex.set_defaults(run=_cmd_export)
    ex.add_argument("input")
    ex.add_argument("--format", required=True, choices=["obj", "ply", "json", "csv"])
    ex.add_argument("--out", required=True)
    ex.add_argument("--plane", default="xyz")
    return p


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse stores [] for "--opt=--"; no option here takes a list
        for key, value in vars(args).items():
            if isinstance(value, list):
                parser.error(f"argument --{key.replace('_', '-')}: expected one argument")
    except SystemExit as exc:
        return int(exc.code or 0)
    args.argv = list(argv)

    try:
        cfg = _load_config(args.config)
        _axes_indices(getattr(args, "plane", "xyz"))  # for every format, before any work
        t0 = time.time()
        code, outputs, warnings = args.run(args, cfg)
        if outputs:
            _write_manifest(args, cfg, outputs, t0, warnings)
        return code
    except (Spun4dError, OSError, ValueError, KeyError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"{PROG}: error: out of memory: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
