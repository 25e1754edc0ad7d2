"""Self-tests of the benchmark: tiny runs emit every declared metric, and
planted bad outputs are counted as failed ops.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import speed
import spun4d
from run import Outcome, run_cycles, tail
from workloads import SMOKE_SIZES, CliSession, PolyModels

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "poly_models", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(11))) == (0, 0.0)
    assert tail(list(range(21))) == (10, 50.0)
    assert tail([3.0, 1.0]) == (3.0, 100.0)


def test_op_times_are_medians_over_identical_repeats_at_the_reference_speed():
    outcome = Outcome()
    for op, t in ((("a", 1), 1.0), (("b", 2), 5.0), (("a", 1), 3.0), (("a", 1), 2.0)):
        outcome.record(op, t, None)
    assert outcome.op_times() == [2.0, 5.0, 2.0, 2.0]
    outcome.kernels = [[2 * speed.REFERENCE_S]] * 5  # a machine at half the reference speed
    outcome.bracket = [0, 1, 2, 3]
    assert outcome.op_times() == [1.0, 2.5, 1.0, 1.0]
    assert outcome.op_times(scaled=False) == [2.0, 5.0, 2.0, 2.0]


class _Planted:
    """A one-op workload whose op 'produces' a planted output, checked by a
    real workload's checker."""

    kernel_runs = 1

    def __init__(self, checker, op, result, session=None):
        self.checker, self.op, self.result, self._session = checker, op, result, session

    def session(self, cycle, traced):
        return self._session

    def traced(self, tracer):
        from contextlib import nullcontext
        return nullcontext()

    def run(self, op, session, tracer):
        return self.result

    def check(self, op, result, session):
        return self.checker.check(op, result, session)


def _failed(checker, op, result, session=None):
    outcome = Outcome()
    run_cycles(_Planted(checker, op, result, session), [[op]], outcome)
    assert outcome.attempted == 1
    return outcome.failed


def _cli_checker():
    cli = CliSession()
    cli.sizes = SMOKE_SIZES
    return cli


def test_obj_with_a_face_deleted_fails(tmp_path):
    grid = spun4d.sample_surface(spun4d.spin(spun4d.get_knot("trefoil_spun")), 24, 24)
    spun4d.export_mesh(spun4d.to_mesh(spun4d.project(grid, "xyz")), "obj", tmp_path / "tref.obj")
    op = ("spin_obj", ["spin"])
    result = {"rc": 0, "stdout": "overall: pass\n", "stderr": ""}
    assert _failed(_cli_checker(), op, result, str(tmp_path)) == 0
    lines = (tmp_path / "tref.obj").read_text().splitlines(keepends=True)
    victim = next(i for i, ln in enumerate(lines) if ln.startswith("f "))
    (tmp_path / "tref.obj").write_text("".join(lines[:victim] + lines[victim + 1:]))
    assert _failed(_cli_checker(), op, result, str(tmp_path)) == 1


def test_slice_point_moved_off_the_level_set_fails(tmp_path):
    surface = spun4d.spin(spun4d.get_knot("trefoil_spun"))
    docs = [spun4d.slice_surface(surface, "w", v, 64, 64).to_json() for v in (0.0, 1.5)]
    op = ("slice", ["slice"])
    result = {"rc": 0, "stdout": "", "stderr": ""}

    def write():
        for i, doc in enumerate(docs):
            (tmp_path / f"slice_w_{i}.json").write_text(json.dumps(doc))

    write()
    assert _failed(_cli_checker(), op, result, str(tmp_path)) == 0
    point = docs[1]["curves"][0]["points"][5]
    point[0] += 0.5
    write()
    assert _failed(_cli_checker(), op, result, str(tmp_path)) == 1


def test_perturbed_bernstein_coefficient_fails():
    models = PolyModels()
    models.setup(ROOT, 0, smoke=True)
    op = ("bernstein", 6)
    polys = models.run(op, None, None)
    assert _failed(models, op, polys) == 0
    coeffs = np.array(polys[2].coeffs)
    coeffs[2, 3] += 1e-6
    planted = (polys[0], polys[1], spun4d.Poly2(coeffs), polys[3])
    assert _failed(models, op, planted) == 1
