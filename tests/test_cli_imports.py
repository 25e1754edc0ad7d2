"""Each README command runs only the layers it calls.

``import spun4d.cli`` puts the layers in ``sys.modules`` unexecuted, and a
layer's code runs when a handler first reads it.  Each command runs in a fresh
interpreter, started as ``python -m spun4d.cli`` starts (runpy runs the CLI as
``__main__``) or as the ``spun4d`` console script starts (``cli.main``), with
an audit hook that records the file of every code object ``exec`` runs: a
module's code runs through ``exec`` once, when it is executed.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "spun4d")
LAYERS = {"cli", "catalog", "poly", "spin", "twist", "surface", "approx", "verify", "export"}

_PROBE = """
import json, runpy, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(getattr(args[0], "co_filename", None)))
report, start, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.argv = ["spun4d", *argv]
try:
    if start == "-m":
        runpy.run_module("spun4d.cli", run_name="__main__", alter_sys=True)
    else:
        from spun4d.cli import main
        main()
except SystemExit as exc:
    code = exc.code
with open(report, "w") as fh:
    json.dump({"exit": code, "ran": sorted(f for f in ran if f), "modules": sorted(sys.modules)}, fh)
"""


def run_cli(argv, cwd, start="-m"):
    """Run the CLI on ``argv`` in a fresh interpreter in ``cwd``: its exit
    code, the layers whose code ran and the names in ``sys.modules`` after."""
    report = os.path.join(cwd, "probe.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", _PROBE, report, start, *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(report) as fh:
        doc = json.load(fh)
    os.remove(report)
    ran = {os.path.splitext(os.path.basename(f))[0] for f in doc["ran"]
           if os.path.dirname(os.path.abspath(f)) == PACKAGE}
    return doc["exit"], ran & LAYERS, set(doc["modules"])


SMALL = {"n_rank": 32, "n_inject": 48, "grid_nt": 24, "grid_ns": 24}
BUILD = {"cli", "catalog", "poly", "spin", "twist", "surface"}  # the spin of a catalog arc
READ = {"cli", "poly", "surface"}  # a surface file
# (argv, layers whose code runs, whether numpy.polynomial is imported), in
# dependency order: each command's inputs are written by one above it
TABLE = [
    (["catalog"], {"cli", "catalog", "poly"}, False),
    (["spin", "trefoil_spun", "--out", "s.json"], BUILD, False),
    (["--config", "small.json", "spin", "trefoil_spun", "--verify", "--export", "obj", "--out", "t.obj"],
     BUILD | {"verify", "export"}, False),
    (["twistspin", "trefoil_twist", "--k", "10", "--sweep", "w", "--count", "2"], BUILD - {"spin"} | {"export"},
     False),
    (["--config", "small.json", "verify", "s.json", "--knot", "trefoil_spun"], READ | {"catalog", "verify"}, False),
    (["polynomialize", "trefoil_spun", "--cheb-degree", "8", "--out", "p.json"], BUILD | {"approx", "export"}, True),
    (["approx", "bernstein", "trefoil_spun", "--degree", "6", "--out", "b.json"], BUILD | {"approx"}, False),
    (["project", "s.json", "--plane", "xzw", "--out", "grid.csv"], READ | {"export"}, False),
    (["slice", "s.json", "--axis", "w", "--values", "0,1.5"], READ | {"export"}, False),
    (["sweep", "p.json", "--axis", "w", "--count", "2"], READ | {"export"}, False),
    (["export", "s.json", "--format", "ply", "--out", "mesh.ply"], READ | {"export"}, False),
    # a config file is checked as verify_surface checks its settings
    (["--config", "small.json", "slice", "s.json", "--values", "0"], READ | {"export", "verify", "catalog"}, False),
]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("cli")
    (cwd / "small.json").write_text(json.dumps(SMALL))
    return {" ".join(argv): run_cli(argv, str(cwd)) for argv, _, _ in TABLE}


@pytest.mark.parametrize("argv, layers, polynomial", TABLE, ids=[" ".join(a) for a, _, _ in TABLE])
def test_a_command_runs_only_the_layers_it_calls(runs, argv, layers, polynomial):
    code, ran, modules = runs[" ".join(argv)]
    assert code == 0
    assert sorted(ran) == sorted(layers)
    assert ("numpy.polynomial" in modules) == polynomial
    # the layers it does not call are in sys.modules unexecuted
    assert {f"spun4d.{name}" for name in LAYERS - {"cli"}} <= modules


@pytest.mark.parametrize("argv", [["catalog"], ["spin", "trefoil_spun", "--out", "s.json"]])
def test_the_console_script_runs_the_same_layers(tmp_path, argv):
    want = next(layers for a, layers, _ in TABLE if a == argv)
    assert run_cli(argv, str(tmp_path), start="main")[:2] == (0, want)
