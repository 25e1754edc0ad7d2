"""spun4d benchmark: one workload, one seed, one line of JSON metrics.

    python3 perfbench/run.py --workload <cli_session|twist_certify|poly_models>
                             --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the root of a checkout; the package is imported from its ``src/``.
The op list is as many whole cycles as fit in ``--seconds`` at the workload's
nominal cycle time (at least one), each cycle one seeded pass over the
workload's op multiset, so runs of the same ``--seconds`` always measure the
same inputs.  ``--trace 0`` times the ops with
no instrumentation and reports the end-to-end metrics.  ``--trace 1`` runs
half as many cycles, each twice, untraced and then traced, so that it takes
about as long, and reports the per-layer metrics
(medians over cycles) plus ``trace_overhead``, the traced minus the untraced
wall time per cycle.  Every op's outputs are checked; a failed check, an
exception or a non-zero exit counts the op as failed.  ``--smoke`` shrinks
every input for the benchmark's self-tests.  The last line of standard output
is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
from contextlib import nullcontext
from time import perf_counter

import speed
from workloads import THREAD_VARS, WORKLOADS, check_provenance

for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before anything imports numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPS = 3
END_TO_END_UNITS = {"ops_per_s": "op/s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one cycle")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def tail(times):
    """The highest-percentile sample with at least ten samples above it, and
    that percentile; the maximum when there are ten samples or fewer."""
    xs = sorted(times)
    i = len(xs) - 11
    if i < 0:
        return xs[-1], 100.0
    return xs[i], 100.0 * i / (len(xs) - 1)


class Outcome:
    def __init__(self):
        self.times: list[float] = []     # measured
        self.kernels: list[list[float]] = []  # speed kernel times between ops
        self.bracket: list[int] = []     # index of the kernel before each op
        self.ops: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.check_s = 0.0

    def record(self, op, seconds, reason, bracket=-1):
        self.attempted += 1
        self.times.append(seconds)
        self.bracket.append(bracket)
        self.ops.append(repr(op))
        if reason:
            self.failed += 1
            self.reasons.append(reason)

    def factors(self) -> list[float]:
        """Each op's factor to the reference speed, from the median of the
        kernel runs in the six gaps around it: one kernel run jitters by a
        third, the machine's speed moves over seconds.  1 for ops run
        without kernels."""
        out = []
        for b in self.bracket:
            window = [k for gap in self.kernels[max(0, b - 2):b + 4] for k in gap]
            out.append(speed.scale(window) if b >= 0 else 1.0)
        return out

    def op_times(self, scaled=True) -> list[float]:
        """Each op's time as the median over its identical repeats in the
        run (once per cycle, spread across the run), at the reference speed
        unless ``scaled`` is false.  Ops that run once keep their time."""
        factors = self.factors() if scaled else [1.0] * len(self.times)
        repeats: dict[str, list[float]] = {}
        for op, t, f in zip(self.ops, self.times, factors):
            repeats.setdefault(op, []).append(t * f)
        medians = {op: statistics.median(ts) for op, ts in repeats.items()}
        return [medians[op] for op in self.ops]


def label(op) -> str:
    """'twist/10', 'bernstein/20', 'sweep': the op kind and its size."""
    return "/".join(str(x) for x in op[:2] if isinstance(x, (str, int)))


def run_cycles(wl, plan, outcome, tracer=None):
    """Run every cycle of the plan, untraced, and when ``tracer`` is given a
    second time traced; returns {cycle: {'trace_overhead': s}} for traced runs.
    Untraced-only runs bracket every op with ``wl.kernel_runs`` runs of
    the speed kernel."""
    extras = {}

    def gap():
        return [speed.kernel_s() for _ in range(wl.kernel_runs)]

    if tracer is None:
        outcome.kernels.append(gap())
    for c, ops in enumerate(plan):
        walls = {}
        for tr in (None, tracer) if tracer is not None else (None,):
            if tr is not None:
                tr.cycle = c
            session = wl.session(c, traced=tr is not None)
            total = 0.0
            with wl.traced(tr):
                for op in ops:
                    with tr.op(label(op)) if tr is not None else nullcontext():
                        t0 = perf_counter()
                        try:
                            result, reason = wl.run(op, session, tr), None
                        except Exception as exc:  # the op failed; keep measuring the rest
                            result, reason = None, f"{label(op)}: {type(exc).__name__}: {exc}"
                        dt = perf_counter() - t0
                    total += dt
                    bracket = -1
                    if tracer is None:
                        bracket = len(outcome.kernels) - 1
                        outcome.kernels.append(gap())
                    if reason is None:
                        if tr is not None:
                            tr.paused = True
                        c0 = perf_counter()
                        try:
                            reason = wl.check(op, result, session)
                        except Exception as exc:  # unreadable output is a failed op
                            reason = f"{label(op)}: check raised {type(exc).__name__}: {exc}"
                        finally:
                            if tr is not None:
                                tr.paused = False
                            outcome.check_s += perf_counter() - c0
                    outcome.record(op, dt, reason, bracket)
            walls[tr is not None] = total
        if tracer is not None:
            extras[c] = {"trace_overhead": walls[True] - walls[False]}
    return extras


def provenance(setup_samples):
    import numpy
    import scipy

    import spun4d

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = fh.read().strip()
        except OSError:
            continue
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "source": source_fingerprint(),
        "spun4d_file": os.path.relpath(spun4d.__file__, ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "caches": caches,
        "setup_samples_s": setup_samples,
    }


def source_fingerprint():
    """The commit when the checkout is a git repository, else a hash of src/."""
    import hashlib
    import subprocess

    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return "commit " + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256 " + digest.hexdigest()[:16]


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spun4d", "__init__.py")):
        print(f"perfbench: no spun4d sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()

    before = [speed.kernel_s() for _ in range(3)]
    t0 = perf_counter()
    wl.setup(ROOT, args.seed, args.smoke)
    setup_raw = [perf_counter() - t0]
    if args.setup_probe:
        print(repr(setup_raw[0]))
        return 0
    setup_factors = [speed.scale(before + [speed.kernel_s() for _ in range(3)])]
    import spun4d

    check_provenance(spun4d.__file__, ROOT)
    if not args.trace:
        for _ in range(SETUP_REPS - 1):
            before = [speed.kernel_s() for _ in range(3)]
            setup_raw.append(wl.setup_sample(ROOT, args.smoke))
            setup_factors.append(speed.scale(before + [speed.kernel_s() for _ in range(3)]))
    setup_samples = [t * f for t, f in zip(setup_raw, setup_factors)]

    rng = random.Random(args.seed)
    cycles = 1 if args.smoke else max(1, int(args.seconds // wl.nominal_cycle_s))
    if args.trace:
        cycles = (cycles + 1) // 2  # each cycle runs twice, untraced and traced
    plan = [wl.cycle(rng) for _ in range(cycles)]
    outcome = Outcome()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        if args.trace:
            from tracing import Tracer, call_breakdown, layer_metrics

            tracer = Tracer()
            extras = run_cycles(wl, plan, outcome, tracer)
            for c, more in getattr(wl, "extras", {}).items():
                extras.setdefault(c, {}).update(more)
            per_layer = layer_metrics(tracer.spans, extras)
            tracer.dump(os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json"),
                        workload=args.workload, seed=args.seed, cycles=cycles)
            report_trace(per_layer, call_breakdown(tracer.spans))
            metrics = {name: {"value": v[1], "unit": v[3]} for name, v in per_layer.items()}
        else:
            run_cycles(wl, plan, outcome)
            metrics = end_to_end(outcome, setup_raw, setup_samples, wl.peak_rss_mb())
        info = provenance(setup_raw)
    finally:
        wl.close()

    if hasattr(wl, "deviations"):
        devs = {k: sorted({f"{pkg:.3e}/{ind:.3e}" for pkg, ind in v}) for k, v in sorted(wl.deviations.items())}
        print("# polynomialize_twist deviation by k (package / independent): " + json.dumps(devs))
    for reason in outcome.reasons[:20]:
        print("# FAILED " + reason)
    print("# provenance " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end(outcome, setup_raw, setup_samples, peak_rss_mb):
    """The end-to-end metrics at the reference speed; the same computed from
    the measured times, and the machine's speed, go to comment lines."""
    def timing(times, setups):
        tail_s, tail_pct = tail(times)
        return {
            "ops_per_s": (outcome.attempted - outcome.failed) / sum(times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_s,
            "setup_s": statistics.median(setups),
        }, tail_pct

    times = outcome.op_times()
    metrics, tail_pct = timing(times, setup_samples)
    metrics["peak_rss_mb"] = peak_rss_mb
    measured, _ = timing(outcome.op_times(scaled=False), setup_raw)
    print(f"# ops={len(times)} ops_s={sum(outcome.times):.1f} checks_s={outcome.check_s:.1f} "
          f"failed={outcome.failed} failed_ratio={outcome.failed / len(times):.3g} "
          f"op_tail_s is p{tail_pct:.1f} of {len(times)} samples")
    print("# measured, not scaled: " + ", ".join(f"{k}={v:.4g}" for k, v in measured.items())
          + "; set-ups " + ", ".join(f"{t:.3f}" for t in setup_raw))
    ratios = [k / speed.REFERENCE_S for gap in outcome.kernels for k in gap]
    print(f"# speed kernel time / reference: median {statistics.median(ratios):.3f}, "
          f"range {min(ratios):.3f}-{max(ratios):.3f} over {len(ratios)} runs of it")
    by_op = sorted({(t, op) for op, t in zip(outcome.ops, times)})
    print("# op times at reference speed: " + ", ".join(f"{op} {t:.3f}" for t, op in by_op))
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}


def report_trace(per_layer, breakdown):
    print(f"# {'metric':32s} {'q1':>12s} {'median':>12s} {'q3':>12s}  unit")
    for name, (q1, med, q3, unit) in per_layer.items():
        print(f"# {name:32s} {q1:12.6g} {med:12.6g} {q3:12.6g}  {unit}")
    print(f"# {'span':36s} {'label':10s} {'calls':>6s} {'incl_ms':>9s} {'self_ms q1/med/q3':>26s}")
    for name, label, calls, incl, q1, med, q3 in breakdown:
        print(f"# {name:36s} {label:10s} {calls:6d} {incl:9.3f} {q1:8.3f} {med:8.3f} {q3:8.3f}")


if __name__ == "__main__":
    sys.exit(main())
