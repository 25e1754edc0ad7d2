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
    GRID_LEAST, SLICE_LEAST, SLICE_N, _axes_indices, export_grid_csv, export_mesh, export_slices,
    project, sample_surface, slice_surface, sweep_surface, to_mesh,
)
from .poly import Interval, Poly1, _count, _finite, _read_json, roots_in_interval
from .spin import spin
from .surface import DEVIATION_GRID, PolyMap4, _images, _max_distance, surface_from_json
from .twist import Bump, choose_bump, make_axis, polynomialize_twist, twist_spin
from .verify import IMAGE_TOL, N_INJECT, N_RANK, PARAM_SEP, RANK_TOL, _settings, verify_surface

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
    "slice_n": SLICE_N,
}

# the least value of each integer config key but verify's sizes, whose least
# _settings checks in its own words: a degree, and n_t and n_s of
# slice_surface and sample_surface
_CONFIG_LEAST = {"cheb_degree": 1, "slice_n": SLICE_LEAST, "grid_nt": GRID_LEAST, "grid_ns": GRID_LEAST}
# the config keys of verify_surface's settings, in the order of verify._settings
_VERIFY_KEYS = ("n_rank", "n_inject", "rank_tol", "param_sep", "image_tol")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for
    verification failures, so remap usage errors to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_config(path: str | None) -> dict:
    if path is None and not os.path.exists("spun4d.json"):
        return dict(DEFAULT_CONFIG)
    return _read_json(path or "spun4d.json", _config)


def _config(user) -> dict:
    """The defaults updated by a config file's object ``user``, each value
    checked, then verify_surface's settings as it checks them."""
    if not isinstance(user, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(user) - set(DEFAULT_CONFIG)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in user.items():
        name = f"config key {key!r}"
        if isinstance(DEFAULT_CONFIG[key], int):
            _count(value, name, _CONFIG_LEAST.get(key, -np.inf))
        elif not _finite(value, f"{name}: ") > 0:
            raise ValueError(f"{name} must be > 0, got {value!r}")
    cfg = {**DEFAULT_CONFIG, **user}
    _settings(*(cfg[key] for key in _VERIFY_KEYS))
    return cfg


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_json(doc: dict, path: str) -> None:
    # one line, no indent: json.dumps then runs the C encoder
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True))
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


def _input_surface(name: str):
    """The spin of a catalog arc, or the surface in a file."""
    return spin(get_knot(name)) if name in knot_names() else _read_json(name, surface_from_json)


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
    axis = _default_axis(arc) if args.t1 is None else make_axis(arc, args.t1, args.t2)
    bump = choose_bump(arc, axis) if args.d1 is None else Bump(args.d1, args.d2)
    return twist_spin(arc, axis, bump, args.k), arc


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


def _check_plane(fmt, plane):
    """Refuse a ``--plane`` that the format ``fmt`` would ignore: only a mesh
    is projected."""
    if plane is not None and fmt in (None, "csv"):
        raise ValueError("--plane applies only to a mesh export (obj, ply or json); "
                         "`spun4d project` writes a projected CSV")


def _export_surface(surface, fmt, out, plane, cfg):
    grid = sample_surface(surface, cfg["grid_nt"], cfg["grid_ns"])
    if fmt == "csv":
        export_grid_csv(grid, out)
    else:
        export_mesh(to_mesh(project(grid, plane or "xyz")), fmt, out)


def _slice_files(surface, axis, args, cfg, pattern):
    """Write cross-sections of ``surface`` across ``axis`` through ``pattern``:
    at the ``--values`` of ``slice``, otherwise a ``--count``-level sweep."""
    n = cfg["slice_n"]
    if args.cmd == "slice":
        try:
            values = [float(v) for v in args.values.split(",")]
        except ValueError as exc:  # the message quotes the entry
            raise ValueError(f"--values {args.values!r}: {exc}") from None
        slices = [slice_surface(surface, axis, v, n, n) for v in values]
    else:
        slices = sweep_surface(surface, axis, 24 if args.count is None else args.count, n, n)
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
    if args.cmd == "twistspin":
        for flag, value in (("--out-pattern", args.out_pattern), ("--count", args.count),
                            ("--format", args.format)):
            if value is not None and not args.sweep:
                raise ValueError(f"{flag} applies only with --sweep")
        for a, b in (("t1", "t2"), ("d1", "d2")):
            if (getattr(args, a) is None) != (getattr(args, b) is None):
                raise ValueError(f"--{a} and --{b} must be given together")
    if args.export and not args.out:
        raise ValueError("--export requires --out")
    _check_plane(args.export, args.plane)
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
    size = float(np.abs(sample_surface(surface, DEVIATION_GRID, DEVIATION_GRID).points).max())
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
    samples = _images(surface, tv[:, None], sv[None, :], "the surface's image on the Bernstein lattice")
    polys = bernstein_fit2(samples, args.degree)
    fit = PolyMap4(polys, Interval(-1.0, 1.0), Interval(-1.0, 1.0),
                   surface.periodic_s, surface.pole_low, surface.pole_high)
    what = "the Bernstein fit on its lattice"
    err = _max_distance(_images(fit, u[:, None], u[None, :], f"{what}: an image"), samples, what)
    out = args.out or "bernstein.json"
    doc = fit.to_json()
    doc["source_t_dom"] = [surface.t_dom.lo, surface.t_dom.hi]
    doc["source_s_dom"] = [surface.s_dom.lo, surface.s_dom.hi]
    _write_json(doc, out)
    print(f"lattice residual: {err:.6e}")
    return 0, [out], []


def _cmd_verify(args, cfg):
    surface = _read_json(args.input, surface_from_json)
    arc = get_knot(args.knot) if args.knot else None
    report = _run_verify(surface, arc, cfg)
    out = args.out or args.input + ".report.json"
    _write_json(report.to_json(), out)
    return (0, [out], []) if report.ok else (2, [out], ["verification failed"])


def _cmd_project(args, cfg):
    surface = _read_json(args.input, surface_from_json)
    grid = sample_surface(surface, cfg["grid_nt"], cfg["grid_ns"])
    export_grid_csv(project(grid, args.plane), args.out)
    return 0, [args.out], []


def _cmd_slice(args, cfg):
    surface = _read_json(args.input, surface_from_json)
    pattern = args.out_pattern or f"{args.cmd}_{args.axis}_{{}}.{args.format}"
    return 0, _slice_files(surface, args.axis, args, cfg, pattern), []


def _cmd_export(args, cfg):
    _check_plane(args.format, args.plane)
    surface = _read_json(args.input, surface_from_json)
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
        # None when not given: refused unless --export writes a mesh
        c.add_argument("--plane", help="projection axes for mesh export (default xyz)")
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
    ex.add_argument("--plane", help="projection axes for a mesh format (default xyz)")
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
        _axes_indices(getattr(args, "plane", None) or "xyz")  # for every format, before any work
        if getattr(args, "count", None) is not None:  # for every command, before any work
            _count(args.count, "--count", 1)
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
