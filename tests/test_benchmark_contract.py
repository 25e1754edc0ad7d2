"""The benchmark's contract with the package, checked by the tests.

``perfbench/`` drives the package from outside.  ``tracing.py`` wraps the
public functions and the methods of ``Poly2``, ``Surface4`` and ``PolyMap4``
by name; its counters read call arguments by name (``n_t``, ``n_s``,
``degree``, ``k``, ``grid``, ``path``, ``fmt``) and ``twist.PRECHECK_NPHI``;
its workloads call the public API and the CLI.  A rename on the package's
side would first fail a benchmark run; here it fails a test.  The perfbench
modules are imported from the checkout as they are.
"""

import json
import os
import random
import sys

import pytest

import spun4d
import spun4d.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import oracles  # noqa: E402  (the workload checks import it by this name)
import tracing  # noqa: E402
import workloads  # noqa: E402


def _wrappable():
    """Every attribute the tracer may replace, by owner and name."""
    mods = [spun4d] + [sys.modules[f"spun4d.{layer}"] for layer in tracing.LAYERS]
    attrs = {(mod.__name__, name): obj for mod in mods for name, obj in vars(mod).items()}
    for layer, cls_name, methods in tracing.METHODS:
        cls = getattr(sys.modules[f"spun4d.{layer}"], cls_name)
        attrs.update({(cls_name, meth): cls.__dict__[meth] for meth in methods})
    return attrs


def _readme_argv(text):
    """A README command at the benchmark's smoke sizes."""
    argv = text.split()
    for flag, key in (("--count", "count"), ("--degree", "degree")):
        if flag in argv:
            argv[argv.index(flag) + 1] = str(workloads.SMOKE_SIZES[key])
    return argv


def test_benchmark_runs_traced_against_the_package(tmp_path, monkeypatch, capsys):
    # the smoke ops of the in-process workloads, then the README commands at
    # smoke sizes, all under the tracer, each output checked by its workload
    for mod in (oracles, tracing, workloads):
        assert os.path.dirname(os.path.abspath(mod.__file__)) == PERFBENCH
    ops = []
    for cls in (workloads.TwistCertify, workloads.PolyModels):
        wl = cls()
        wl.setup(ROOT, 1, True)
        ops += [(wl, op) for op in wl.cycle(random.Random(1))]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spun4d.json").write_text(json.dumps(workloads.SMOKE_CONFIG))
    before = _wrappable()
    tracer, failed = tracing.Tracer(), []

    def checked(label, check):
        tracer.paused = True
        try:
            reason = check()
        finally:
            tracer.paused = False
        if reason:
            failed.append(f"{label}: {reason}")

    with tracer.installed():
        assert spun4d.export.slice_surface is not before[("spun4d.export", "slice_surface")]
        for wl, op in ops:
            with tracer.op(wl.name):
                result = wl.run(op, None, tracer)
            checked(f"{wl.name} {op[:2]}", lambda: wl.check(op, result, None))
        for cmd_id, text, _ in workloads.COMMANDS:
            capsys.readouterr()
            with tracer.op(cmd_id):
                rc = spun4d.cli.dispatch(_readme_argv(text))
            out = capsys.readouterr().out
            checked(cmd_id, lambda: f"exit code {rc}" if rc else workloads.check_command(
                cmd_id, out, str(tmp_path), workloads.SMOKE_SIZES))
    assert failed == []
    after = _wrappable()
    assert [key for key, obj in before.items() if after.get(key) is not obj] == []
    metrics = tracing.layer_metrics(tracer.spans, {})
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
    # every counter on a function (``layer.name``; the method counters read
    # only results) ran, reading its arguments, on a call of this run
    names = {rec[0] for rec in tracer.spans}
    assert {name for name in tracing.HOOKS if name.count(".") == 1} <= names
