"""The three benchmark workloads.

Each workload is closed-loop with one client: an op starts when the previous
one has finished.  ``cycle(rng)`` draws one pass over the workload's fixed op
multiset in a seeded order, so every run measures the same inputs and the
seed changes only their order.  ``run`` executes one op
(the timed part); ``check`` verifies its outputs with the independent oracles
(untimed) and returns None or the reason the op failed.

Nothing here imports numpy or spun4d at module level: ``setup`` is timed from
before ``import spun4d``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from time import perf_counter

PERFBENCH = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "SPUN4D_THREADS")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def check_provenance(module_file: str, root: str) -> None:
    src = os.path.realpath(os.path.join(root, "src")) + os.sep
    if not os.path.realpath(module_file).startswith(src):
        raise SystemExit(f"perfbench: spun4d imported from {module_file}, not from {src}")


class InProcess:
    """What the in-process workloads share.  Every workload also defines
    ``name``, ``nominal_cycle_s``, ``setup``, ``cycle``, ``run`` and ``check``."""

    kernel_runs = 1  # speed kernel runs between ops (speed.py)

    def setup_sample(self, root: str, smoke: bool) -> float:
        """Set-up time of a fresh process running this workload's set-up."""
        cmd = [sys.executable, os.path.join(PERFBENCH, "run.py"), "--setup-probe", "--workload", self.name]
        if smoke:
            cmd.append("--smoke")
        out = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True, text=True, check=True)
        return float(out.stdout.strip().splitlines()[-1])

    def session(self, cycle: int, traced: bool):
        return None

    def traced(self, tracer):
        """Install the tracing wrappers in this process for one cycle."""
        return tracer.installed() if tracer is not None else nullcontext()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass


# -- twist_certify ---------------------------------------------------------------

class TwistCertify(InProcess):
    """k-twist spin, embedding scans and degree-24 polynomialization."""

    name = "twist_certify"
    nominal_cycle_s = 5.0
    KS = (0, 1, 2, 3, 5, 10)
    # the finer grid for the first twist and the largest one only: six
    # fine-grid ops would double the cycle and halve each op's repeats
    FINE_KS = (1, 10)
    DEFAULT, FINE = (200, 400), (300, 600)
    CHEB_DEGREE = 24
    GATED_K = 3            # the monomial fit diverges for k >= 5: recorded, not gated
    POLY_TOL = 1e-5        # seed commit: <= 4e-6 for k <= 3
    EXACT_TOL = 1e-10

    def setup(self, root, seed, smoke):
        import spun4d

        self.spun4d = spun4d
        self.arc = spun4d.get_knot("trefoil_twist")
        self.axis = spun4d.make_axis(self.arc, -2.19, 2.19)
        self.bump = spun4d.choose_bump(self.arc, self.axis)
        if smoke:
            self.KS, self.FINE_KS, self.DEFAULT, self.FINE = (0, 1), (1,), (32, 64), (48, 96)
        warm = spun4d.twist_spin(self.arc, self.axis, self.bump, 1)
        spun4d.verify_surface(warm, self.arc, n_rank=32, n_inject=64)
        spun4d.polynomialize_twist(warm, self.CHEB_DEGREE)
        self.deviations: dict[int, list] = {}

    def cycle(self, rng):
        """Every k on the default grid and the FINE_KS on the finer grid, in
        a seeded order.  Each op repeats once per cycle, so its median time
        is taken over repeats spread across the whole run."""
        ops = [("twist", k, self.DEFAULT) for k in self.KS]
        ops += [("twist", k, self.FINE) for k in self.FINE_KS]
        rng.shuffle(ops)
        return ops

    def run(self, op, session, tracer):
        _, k, (n_rank, n_inject) = op
        S = self.spun4d
        surface = S.twist_spin(self.arc, self.axis, self.bump, k)
        report = S.verify_surface(surface, self.arc, n_rank=n_rank, n_inject=n_inject)
        poly, dev = S.polynomialize_twist(surface, self.CHEB_DEGREE)
        return surface, report, poly, dev

    def check(self, op, result, session):
        import numpy as np
        import oracles as O

        _, k, _ = op
        surface, report, poly, dev = result
        if not report.ok:
            return f"k={k}: verify_surface not ok"
        T, TH = O.probe_grid(O.TREFOIL_TWIST.a, O.TREFOIL_TWIST.b)
        if k == 0:
            want = O.spin_points(O.TREFOIL_TWIST, T, TH)
        else:
            want = O.twist_points(O.TREFOIL_TWIST, self.axis.t1, self.axis.t2,
                                  self.bump.d1, self.bump.d2, k, T, TH)
        bad = O.check_close(surface.evaluate(T, TH), want, self.EXACT_TOL, f"k={k} twist surface")
        if bad:
            return bad
        indep = float(np.max(np.linalg.norm(poly.evaluate(T, TH) - want, axis=-1)))
        self.deviations.setdefault(k, []).append((float(dev), indep))
        if k <= self.GATED_K and not indep <= self.POLY_TOL:
            return f"k={k}: polynomialized deviation {indep:.3e} > {self.POLY_TOL:.0e}"
        return None


# -- poly_models -----------------------------------------------------------------

class PolyModels(InProcess):
    """Bernstein fits and Chebyshev polynomial spins with the isotopy family."""

    name = "poly_models"
    nominal_cycle_s = 3.3
    BERNSTEIN_DEGREES = (16, 20, 24, 28, 30)
    CHEB_DEGREES = (8, 12, 16)
    FAMILY_N = 2
    # the u-values of the acceptance criterion; the family is not embedded for
    # 0 < u < ~0.006 (see CHANGES.md), so u is not drawn at random
    FAMILY_U = (0.0, 0.25, 0.5, 0.75, 1.0)
    FAMILY_GRID = {}  # isotopy_family_check's own defaults (96 / 200)

    def setup(self, root, seed, smoke):
        import spun4d

        self.spun4d = spun4d
        self.arc = spun4d.get_knot("trefoil_spun")
        self.surface = spun4d.spin(self.arc)
        if smoke:
            self.BERNSTEIN_DEGREES, self.CHEB_DEGREES = (6, 8), (8,)
            self.FAMILY_GRID = {"n_rank": 32, "n_inject": 48}
        self._bernstein(6)
        pm = spun4d.polynomial_spin(self.arc, 8)
        spec, _ = spun4d.odd_perturbation(pm.polys, self.FAMILY_N, [])
        spun4d.isotopy_family_check(pm, spec, [0.5], n_rank=32, n_inject=48)

    def cycle(self, rng):
        ops = [("bernstein", d) for d in self.BERNSTEIN_DEGREES]
        ops += [("polyspin", c, self.FAMILY_U) for c in self.CHEB_DEGREES]
        rng.shuffle(ops)
        return ops

    def _bernstein(self, degree):
        S = self.spun4d
        s = self.surface
        u = S.approx.bernstein_lattice(degree)
        samples = s.eval_grid(s.t_dom.mid + 0.5 * s.t_dom.length * u,
                              s.s_dom.mid + 0.5 * s.s_dom.length * u)
        return S.bernstein_fit2(samples, degree)

    def run(self, op, session, tracer):
        S = self.spun4d
        if op[0] == "bernstein":
            return self._bernstein(op[1])
        _, degree, us = op
        pm = S.polynomial_spin(self.arc, degree)
        spec, _ = S.odd_perturbation(pm.polys, self.FAMILY_N, [])
        return pm, S.isotopy_family_check(pm, spec, list(us), **self.FAMILY_GRID)

    def check(self, op, result, session):
        import numpy as np
        import oracles as O

        arc = O.TREFOIL_SPUN
        if op[0] == "bernstein":
            degree = op[1]
            lattice = np.linspace(-1.0, 1.0, degree + 1)
            T, TH = np.meshgrid(0.5 * (arc.a + arc.b) + 0.5 * (arc.b - arc.a) * lattice,
                                np.pi + np.pi * lattice, indexing="ij")
            return O.check_bernstein([p.coeffs for p in result], O.spin_points(arc, T, TH))
        _, degree, us = op
        pm, family_ok = result
        if not family_ok:
            return f"isotopy family check failed at cheb degree {degree}, u={us}"
        T, TH = O.probe_grid(arc.a, arc.b)
        got = np.stack([np.polynomial.polynomial.polyval2d(T, TH, p.coeffs) for p in pm.polys], axis=-1)
        tol = 7.0 * np.sqrt(2.0) * O.cheb_interp_bound(O.TWO_PI, degree) + 1e-9
        return O.check_close(got, O.spin_points(arc, T, TH), tol, f"polynomial_spin degree {degree}")


# -- cli_session -----------------------------------------------------------------

# (id, argv, ids it reads the outputs of): the README's CLI commands
COMMANDS = (
    ("catalog", "catalog", ()),
    ("spin_obj", "spin trefoil_spun --verify --export obj --out tref.obj", ()),
    ("twistspin", "twistspin trefoil_twist --k 10 --sweep w --count 24", ()),
    ("spin_json", "spin trefoil_spun --out s.json", ()),
    ("verify", "verify s.json --knot trefoil_spun", ("spin_json",)),
    ("polynomialize", "polynomialize trefoil_spun --cheb-degree 8 --out p.json", ()),
    ("bernstein", "approx bernstein trefoil_spun --degree 20 --out b.json", ()),
    ("project", "project s.json --plane xzw --out grid.csv", ("spin_json",)),
    ("slice", "slice s.json --axis w --values 0,1.5", ("spin_json",)),
    ("sweep", "sweep p.json --axis w --count 24", ("polynomialize",)),
    ("export_ply", "export s.json --format ply --out mesh.ply", ("spin_json",)),
)
DEFAULT_SIZES = {"grid_nt": 200, "grid_ns": 200, "slice_n": 128, "count": 24, "degree": 20}
SMOKE_SIZES = {"grid_nt": 24, "grid_ns": 24, "slice_n": 64, "count": 3, "degree": 6}
SMOKE_CONFIG = {"n_rank": 32, "n_inject": 48, "grid_nt": 24, "grid_ns": 24, "slice_n": 64}


class CliSession:
    """The README's CLI session, one subprocess per command."""

    name = "cli_session"
    nominal_cycle_s = 20.0
    # the benchmark process waits idle through each command, so its first
    # kernel runs after one are slow for reasons of its own: take several
    kernel_runs = 5

    def setup(self, root, seed, smoke):
        self.root = root
        self.smoke = smoke
        self.sizes = SMOKE_SIZES if smoke else DEFAULT_SIZES
        self.env = child_env(root)
        self.tmp = self._prepare()
        self.max_rss_kb = 0
        self.extras: dict[int, dict] = {}

    def _prepare(self) -> str:
        """A working directory, and a child that compiles the package's
        bytecode and shows where the package is imported from."""
        out_base = os.path.join(self.root, ".perfbench_out")
        os.makedirs(out_base, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="cli-", dir=out_base)
        probe = subprocess.run(
            [sys.executable, "-c", "import spun4d; print(spun4d.__file__)"],
            cwd=tmp, env=self.env, capture_output=True, text=True, check=True)
        check_provenance(probe.stdout.strip(), self.root)
        return tmp

    def setup_sample(self, root, smoke) -> float:
        t0 = perf_counter()
        tmp = self._prepare()
        elapsed = perf_counter() - t0
        shutil.rmtree(tmp)
        return elapsed

    def cycle(self, rng):
        """Dependency order, with the seed choosing among the ready commands."""
        pending = list(COMMANDS)
        done, order = set(), []
        while pending:
            ready = [c for c in pending if set(c[2]) <= done]
            pick = ready[rng.randrange(len(ready))]
            pending.remove(pick)
            done.add(pick[0])
            order.append((pick[0], self._argv(pick[1])))
        return order

    def _argv(self, text):
        argv = text.split()
        for flag, key in (("--count", "count"), ("--degree", "degree")):
            if flag in argv:
                argv[argv.index(flag) + 1] = str(self.sizes[key])
        return argv

    def session(self, cycle, traced):
        path = os.path.join(self.tmp, f"c{cycle}-{'traced' if traced else 'plain'}")
        os.makedirs(path)
        if self.smoke:
            with open(os.path.join(path, "spun4d.json"), "w") as fh:
                json.dump(SMOKE_CONFIG, fh)
        self._cycle = cycle
        return path

    def traced(self, tracer):
        return nullcontext()  # the traced runner installs the wrappers in each child

    def run(self, op, session, tracer):
        cmd_id, argv = op
        if tracer is None:
            cmd = [sys.executable, "-m", "spun4d.cli", *argv]
        else:
            spans_path = os.path.join(session, f"{cmd_id}.spans.json")
            cmd = [sys.executable, os.path.join(PERFBENCH, "cli_runner.py"), spans_path, self.root, *argv]
        out_path = os.path.join(session, f"{cmd_id}.stdout")
        err_path = os.path.join(session, f"{cmd_id}.stderr")
        t0 = perf_counter()
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(cmd, cwd=session, env=self.env, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        extras = self.extras.setdefault(self._cycle, {})
        if tracer is None:
            self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
            extras["cli.process_s"] = extras.get("cli.process_s", 0.0) + wall
            extras["cli.commands"] = extras.get("cli.commands", 0) + 1
        elif os.path.exists(spans_path):
            with open(spans_path) as fh:
                doc = json.load(fh)
            extras["cli.import_s"] = extras.get("cli.import_s", 0.0) + doc["import_s"]
            _merge_spans(tracer, doc["spans"])
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        return {"rc": proc.returncode, "stdout": stdout, "stderr": stderr}

    def check(self, op, result, session):
        cmd_id = op[0]
        if result["rc"] != 0:
            tail = (result["stderr"].strip().splitlines() or ["no output"])[-1]
            return f"{cmd_id}: exit code {result['rc']}: {tail}"
        reason = check_command(cmd_id, result["stdout"], session, self.sizes)
        return reason and f"{cmd_id}: {reason}"

    def peak_rss_mb(self):
        return self.max_rss_kb / 1024.0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def _merge_spans(tracer, spans):
    """Adopt a child process's spans under the current op span and cycle."""
    base = len(tracer.spans)
    parent = tracer._stack[-1] if tracer._stack else None
    for name, layer, start, end, par, _, info in spans:
        tracer.spans.append([name, layer, start, end, parent if par is None else base + par, tracer.cycle, info])


def check_command(cmd_id, stdout, d, sizes):
    """Verdict lines and output files of one README command, against the oracles."""
    import numpy as np
    import oracles as O

    def path(name):
        return os.path.join(d, name)

    arc = O.TREFOIL_SPUN
    if cmd_id == "catalog":
        for name, oracle in (("trefoil_spun", O.TREFOIL_SPUN), ("trefoil_twist", O.TREFOIL_TWIST)):
            line = next((ln for ln in stdout.splitlines() if ln.split()[:1] == [name]), None)
            if line is None:
                return f"no line for {name}"
            want = f"deg(f,g,h)=(3,5,4) t in [{oracle.a:.6g}, {oracle.b:.6g}]"
            if want not in line:
                return f"{name} line {line!r} lacks {want!r}"
        return None
    if cmd_id in ("spin_obj", "verify") and "overall: pass" not in stdout.splitlines():
        return "no 'overall: pass' verdict"
    if cmd_id == "spin_obj":
        return O.check_closed_sphere(*O.read_obj(path("tref.obj")))
    if cmd_id == "export_ply":
        return O.check_closed_sphere(*O.read_ply(path("mesh.ply")))
    if cmd_id == "verify":
        return None if O.load_json(path("s.json.report.json")).get("ok") is True else "report not ok"
    if cmd_id == "spin_json":
        T, TH = O.probe_grid(arc.a, arc.b)
        got = O.eval_surface_doc(O.load_json(path("s.json")), T, TH)
        return O.check_close(got, O.spin_points(arc, T, TH), 1e-10, "s.json")
    if cmd_id == "polynomialize":
        if not any(ln.startswith("max grid deviation") for ln in stdout.splitlines()):
            return "no deviation line"
        T, TH = O.probe_grid(arc.a, arc.b)
        got = O.eval_surface_doc(O.load_json(path("p.json")), T, TH)
        tol = 7.0 * np.sqrt(2.0) * O.cheb_interp_bound(O.TWO_PI, 8) + 1e-9
        return O.check_close(got, O.spin_points(arc, T, TH), tol, "p.json")
    if cmd_id == "bernstein":
        doc = O.load_json(path("b.json"))
        lattice = np.linspace(-1.0, 1.0, sizes["degree"] + 1)
        T, TH = np.meshgrid(0.5 * (arc.a + arc.b) + 0.5 * (arc.b - arc.a) * lattice,
                            np.pi + np.pi * lattice, indexing="ij")
        return O.check_bernstein([c["coeffs"] for c in doc["coords"]], O.spin_points(arc, T, TH))
    if cmd_id == "project":
        rows = np.loadtxt(path("grid.csv"), delimiter=",", skiprows=1, ndmin=2)
        n = sizes["grid_nt"] * sizes["grid_ns"]
        if rows.shape != (n, 5) or not np.all(np.isfinite(rows)):
            return f"grid.csv: shape {rows.shape}, want {(n, 5)} finite"
        want = O.spin_points(arc, rows[:, 0], rows[:, 1])[:, [0, 2, 3]]
        return O.check_close(rows[:, 2:], want, 1e-6, "grid.csv")
    if cmd_id == "slice":
        tol = O.slice_tolerance(sizes["slice_n"])
        return _first([O.check_w_slice(O.load_json(path(f"slice_w_{i}.json")), arc, tol) for i in range(2)])
    if cmd_id == "sweep":
        tol = O.slice_tolerance(sizes["slice_n"], cheb_degree=8)
        return _first([O.check_w_slice(O.load_json(path(f"sweep_w_{i}.json")), arc, tol)
                       for i in range(sizes["count"])])
    if cmd_id == "twistspin":
        docs = [O.load_json(path(f"trefoil_twist_k10_w_{i}.json")) for i in range(sizes["count"])]
        values = [doc["slice_value"] for doc in docs]
        if values != sorted(values) or len(set(values)) != len(values):
            return "sweep values not strictly increasing"
        return _first([O.check_slice_doc(doc) for doc in docs])
    raise ValueError(f"unknown command id {cmd_id!r}")


def _first(reasons):
    return next((r for r in reasons if r), None)


WORKLOADS = {w.name: w for w in (CliSession, TwistCertify, PolyModels)}
