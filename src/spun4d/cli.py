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

PROG = "spun4d"

# central defaults; overridable per-key by a spun4d.json config file
DEFAULT_CONFIG = {
    "rank_tol": 1e-6,
    "image_tol": 1e-3,
    "param_sep": 0.05,
    "n_rank": 200,
    "n_inject": 400,
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
        except json.JSONDecodeError as exc:
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


def _write_manifest(args, cfg, outputs, t0, warnings=()):
    from . import __version__

    primary = outputs[0] if outputs else f"{args.cmd}"
    path = primary + ".manifest.json"
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
        path,
    )
    return path


def _load_surface(path: str):
    """A surface4 or polymap4 file; any defect names the file and the key."""
    from .surface import PolyMap4, Surface4

    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a surface file must be a JSON object with key 'type', "
                         f"got a JSON {type(doc).__name__}")
    cls = {"surface4": Surface4, "polymap4": PolyMap4}.get(doc.get("type"))
    if cls is None:
        raise ValueError(f"{path}: not a surface file (key 'type' is {doc.get('type')!r}, "
                         "expected 'surface4' or 'polymap4')")
    try:
        return cls.from_json(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _default_axis(arc):
    """Axis endpoints straddling the crossing interval at equal heights:
    t2 halfway between the crossings and the upper root, t1 the matching
    height parameter below the crossings."""
    from .poly import Interval, Poly1, roots_in_interval
    from .twist import make_axis

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


def _build_surface(args, cfg):
    """Surface for the construction subcommands, plus the source arc."""
    from .catalog import get_knot
    from .spin import spin
    from .twist import Bump, choose_bump, twist_spin

    arc = get_knot(args.knot)
    if args.cmd == "spin":
        return spin(arc), arc
    if args.t1 is not None or args.t2 is not None:
        if args.t1 is None or args.t2 is None:
            raise ValueError("--t1 and --t2 must be given together")
        from .twist import make_axis

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


def _run_verify(surface, arc, cfg):
    from .verify import verify_surface

    return verify_surface(
        surface,
        arc,
        n_rank=cfg["n_rank"],
        n_inject=cfg["n_inject"],
        param_sep=cfg["param_sep"],
        rank_tol=cfg["rank_tol"],
        image_tol=cfg["image_tol"],
    )


def _print_report(report):
    print(f"rank-2 on grid: {'pass' if report.rank_ok else 'FAIL'} "
          f"(min singular ratio {report.min_singular_ratio:.3e})")
    print(f"injectivity: {'pass' if not report.collisions else 'FAIL'} "
          f"({len(report.collisions)} collision(s))")
    if report.boundary_ok is not None:
        print(f"boundary transversality: {'pass' if report.boundary_ok else 'FAIL'}")
    print(f"overall: {'pass' if report.ok else 'FAIL'}")


def _export_surface(surface, fmt, out, plane, cfg):
    from .export import export_grid_csv, export_mesh, project, sample_surface, to_mesh

    grid = sample_surface(surface, cfg["grid_nt"], cfg["grid_ns"])
    if fmt == "csv":
        export_grid_csv(grid, out)
        return
    g3 = project(grid, plane)
    if fmt in ("obj", "ply", "json"):
        export_mesh(to_mesh(g3), fmt, out)
    else:
        raise ValueError(f"unknown export format {fmt!r}")


def _sweep_values(surface, axis, count, n):
    import numpy as np

    from .export import AXIS_NAMES, sample_surface

    if count < 1:
        raise ValueError(f"--count must be at least 1, got {count}")
    idx = AXIS_NAMES.index(axis)
    grid = sample_surface(surface, n, n)
    w = grid.points[..., idx]
    return np.linspace(float(w.min()), float(w.max()), count + 2)[1:-1]


def _do_slices(surface, axis, values, fmt, pattern, cfg):
    from .export import export_slices, slice_surface

    n = cfg["slice_n"]
    slices = [slice_surface(surface, axis, float(v), n, n) for v in values]
    return export_slices(slices, fmt, pattern)


def _cmd_catalog(args, cfg):
    from .catalog import get_knot, knot_names

    for name in knot_names():
        arc = get_knot(name)
        print(f"{name:15s} deg(f,g,h)=({arc.f.degree},{arc.g.degree},{arc.h.degree}) "
              f"t in [{arc.ab.lo:.6g}, {arc.ab.hi:.6g}] "
              f"crossings={len(arc.crossings)}")
    return 0


def _cmd_construct(args, cfg):
    t0 = time.time()
    surface, arc = _build_surface(args, cfg)
    outputs, warnings = [], []

    if args.verify:
        report = _run_verify(surface, arc, cfg)
        _print_report(report)
        if not report.ok:
            rpath = (args.out or f"{args.knot}_{args.cmd}") + ".report.json"
            _write_json(report.to_json(), rpath)
            warnings.append("verification failed; exports skipped")
            _write_manifest(args, cfg, [rpath], t0, warnings)
            return 2

    if args.cmd == "twistspin" and args.sweep:
        pattern = args.out_pattern or f"{args.knot}_k{args.k}_{args.sweep}_{{}}.json"
        values = _sweep_values(surface, args.sweep, args.count, cfg["slice_n"])
        outputs += _do_slices(surface, args.sweep, values, args.format, pattern, cfg)
    elif args.export:
        if not args.out:
            raise ValueError("--export requires --out")
        _export_surface(surface, args.export, args.out, args.plane, cfg)
        outputs.append(args.out)
    else:
        out = args.out or f"{args.knot}_{args.cmd}.json"
        _write_json(surface.to_json(), out)
        outputs.append(out)

    _write_manifest(args, cfg, outputs, t0, warnings)
    return 0


def _cmd_polynomialize(args, cfg):
    from .catalog import knot_names
    from .spin import polynomial_spin
    from .surface import PolyMap4, max_grid_deviation
    from .twist import polynomialize_twist

    t0 = time.time()
    degree = cfg["cheb_degree"] if args.cheb_degree is None else args.cheb_degree
    if args.input in knot_names():
        from .catalog import get_knot
        from .spin import spin

        arc = get_knot(args.input)
        poly = polynomial_spin(arc, degree)
        dev = max_grid_deviation(spin(arc), poly)
    else:
        surface = _load_surface(args.input)
        if isinstance(surface, PolyMap4):
            raise ValueError(f"{args.input}: key 'type' must be 'surface4' to polynomialize; "
                             "a polymap4 is polynomial already")
        poly, dev = polynomialize_twist(surface, degree, args.bump_degree)
    out = args.out or "polynomialized.json"
    _write_json(poly.to_json(), out)
    print(f"max grid deviation from exact surface: {dev:.6e}")
    _write_manifest(args, cfg, [out], t0)
    return 0


def _cmd_approx(args, cfg):
    import numpy as np

    from .approx import bernstein_fit2, bernstein_lattice
    from .catalog import knot_names
    from .poly import Interval
    from .surface import PolyMap4

    t0 = time.time()
    if args.input in knot_names():
        from .catalog import get_knot
        from .spin import spin

        surface = spin(get_knot(args.input))
    else:
        surface = _load_surface(args.input)
    u = bernstein_lattice(args.degree)
    tv = surface.t_dom.mid + 0.5 * surface.t_dom.length * u
    sv = surface.s_dom.mid + 0.5 * surface.s_dom.length * u
    samples = surface.eval_grid(tv, sv)
    polys = bernstein_fit2(samples, args.degree)
    fit = PolyMap4(polys, Interval(-1.0, 1.0), Interval(-1.0, 1.0),
                   surface.periodic_s, surface.pole_low, surface.pole_high)
    err = float(np.max(np.linalg.norm(
        fit.eval_grid(u, u) - samples, axis=-1)))
    out = args.out or "bernstein.json"
    doc = fit.to_json()
    doc["source_t_dom"] = [surface.t_dom.lo, surface.t_dom.hi]
    doc["source_s_dom"] = [surface.s_dom.lo, surface.s_dom.hi]
    _write_json(doc, out)
    print(f"lattice residual: {err:.6e}")
    _write_manifest(args, cfg, [out], t0)
    return 0


def _cmd_verify(args, cfg):
    from .catalog import get_knot

    t0 = time.time()
    surface = _load_surface(args.input)
    arc = get_knot(args.knot) if args.knot else None
    report = _run_verify(surface, arc, cfg)
    _print_report(report)
    out = args.out or args.input + ".report.json"
    _write_json(report.to_json(), out)
    _write_manifest(args, cfg, [out], t0,
                    () if report.ok else ("verification failed",))
    return 0 if report.ok else 2


def _cmd_project(args, cfg):
    from .export import export_grid_csv, project, sample_surface

    t0 = time.time()
    surface = _load_surface(args.input)
    grid = sample_surface(surface, cfg["grid_nt"], cfg["grid_ns"])
    export_grid_csv(project(grid, args.plane), args.out)
    _write_manifest(args, cfg, [args.out], t0)
    return 0


def _cmd_slice(args, cfg):
    t0 = time.time()
    surface = _load_surface(args.input)
    values = [float(v) for v in args.values.split(",")]
    pattern = args.out_pattern or f"slice_{args.axis}_{{}}.{args.format}"
    outputs = _do_slices(surface, args.axis, values, args.format, pattern, cfg)
    _write_manifest(args, cfg, outputs, t0)
    return 0


def _cmd_sweep(args, cfg):
    t0 = time.time()
    surface = _load_surface(args.input)
    values = _sweep_values(surface, args.axis, args.count, cfg["slice_n"])
    pattern = args.out_pattern or f"sweep_{args.axis}_{{}}.{args.format}"
    outputs = _do_slices(surface, args.axis, values, args.format, pattern, cfg)
    _write_manifest(args, cfg, outputs, t0)
    return 0


def _cmd_export(args, cfg):
    t0 = time.time()
    surface = _load_surface(args.input)
    _export_surface(surface, args.format, args.out, args.plane, cfg)
    _write_manifest(args, cfg, [args.out], t0)
    return 0


def _build_parser() -> _Parser:
    p = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    p.add_argument("--config", help="path to a spun4d.json config file")
    sub = p.add_subparsers(dest="cmd", required=True)

    sub.add_parser("catalog", help="list built-in knots")

    def construction(name, help):
        c = sub.add_parser(name, help=help)
        c.add_argument("knot", help="catalog name or knot-definition JSON path")
        c.add_argument("--out", help="output path (surface JSON unless --export)")
        c.add_argument("--verify", action="store_true")
        c.add_argument("--export", choices=["obj", "ply", "json", "csv"])
        c.add_argument("--plane", default="xyz", help="projection axes for mesh export")
        return c

    construction("spin", "spin a catalog arc into an exact 2-sphere surface")
    tw = construction("twistspin", "k-twist spin a catalog arc")
    tw.add_argument("--k", type=int, required=True)
    tw.add_argument("--t1", type=float)
    tw.add_argument("--t2", type=float)
    tw.add_argument("--d1", type=float)
    tw.add_argument("--d2", type=float)
    tw.add_argument("--sweep", choices=list("xyzw"), help="emit cross-section files instead of a surface")
    tw.add_argument("--count", type=int, default=24)
    tw.add_argument("--format", choices=["json", "csv"], default="json")
    tw.add_argument("--out-pattern")

    pz = sub.add_parser("polynomialize", help="replace transcendental factors by Chebyshev fits")
    pz.add_argument("input", help="catalog name or surface JSON path")
    pz.add_argument("--cheb-degree", type=int)
    pz.add_argument("--bump-degree", type=int)
    pz.add_argument("--out")

    ap = sub.add_parser("approx", help="approximation utilities")
    apsub = ap.add_subparsers(dest="approx_cmd", required=True)
    ab = apsub.add_parser("bernstein", help="bivariate Bernstein tensor fit of a surface")
    ab.add_argument("input", help="catalog name or surface JSON path")
    ab.add_argument("--degree", type=int, required=True)
    ab.add_argument("--out")

    v = sub.add_parser("verify", help="embedding checks on a surface file")
    v.add_argument("input")
    v.add_argument("--knot", help="catalog arc for the boundary check")
    v.add_argument("--out")

    pr = sub.add_parser("project", help="project a surface to 3D and write a CSV grid")
    pr.add_argument("input")
    pr.add_argument("--plane", default="xyz")
    pr.add_argument("--out", required=True)

    sl = sub.add_parser("slice", help="hyperplane cross-sections at given values")
    sl.add_argument("input")
    sl.add_argument("--axis", choices=list("xyzw"), default="w")
    sl.add_argument("--values", required=True, help="comma-separated slice values")
    sl.add_argument("--format", choices=["json", "csv"], default="json")
    sl.add_argument("--out-pattern")

    sw = sub.add_parser("sweep", help="evenly spaced cross-sections across an axis")
    sw.add_argument("input")
    sw.add_argument("--axis", choices=list("xyzw"), default="w")
    sw.add_argument("--count", type=int, default=24)
    sw.add_argument("--format", choices=["json", "csv"], default="json")
    sw.add_argument("--out-pattern")

    ex = sub.add_parser("export", help="mesh/grid export of a surface file")
    ex.add_argument("input")
    ex.add_argument("--format", required=True, choices=["obj", "ply", "json", "csv"])
    ex.add_argument("--out", required=True)
    ex.add_argument("--plane", default="xyz")
    return p


_DISPATCH = {
    "catalog": _cmd_catalog,
    "spin": _cmd_construct,
    "twistspin": _cmd_construct,
    "polynomialize": _cmd_polynomialize,
    "approx": _cmd_approx,
    "verify": _cmd_verify,
    "project": _cmd_project,
    "slice": _cmd_slice,
    "sweep": _cmd_sweep,
    "export": _cmd_export,
}


def dispatch(argv) -> int:
    # cap BLAS parallelism before numpy spins up its thread pools
    threads = os.environ.get("SPUN4D_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.argv = list(argv)

    from .errors import Spun4dError

    try:
        cfg = _load_config(args.config)
        return _DISPATCH[args.cmd](args, cfg)
    except (Spun4dError, OSError, ValueError, KeyError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
