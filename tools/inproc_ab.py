"""Time two trees of the package op by op in one process.

    python tools/inproc_ab.py A B [--pairs N] [--degrees 16,20,24]

A and B are each a directory holding a checkout of the repository, or a
git revision of the repository this tool is in (extracted with ``git
archive`` into a temporary directory).  Each tree's ``src/spun4d`` is
loaded as a package of its own, ``spun4d_a`` and ``spun4d_b``, so both run
in this process, on one BLAS thread.

The ops are ``bernstein_fit2`` at each degree, on the spun trefoil's samples
on the Bernstein lattice.  Each op runs its pairs in one block, after a
warm-up of three calls on each side: every pair times one call on each
side, A first in even pairs and B first in odd ones.  (Interleaving the ops
pair by pair would time the call after a large op's frees: the degree-16
fit after a degree-100 one spread from 0.68 to 1.07 in its ratio
quartiles, on 2 shared cores.)  Per op it prints the median times, the median ratio B / A with
its quartiles, and the number of pairs in which B was faster.  Module state
is per copy; the allocator is shared, so each side sees the other's frees.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "SPUN4D_THREADS")


def _tree(spec: str, tmp: str) -> str:
    """The package directory of ``spec``: a checkout's, or a revision's
    extracted under ``tmp``."""
    if os.path.isdir(spec):
        return os.path.join(spec, "src", "spun4d")
    data = subprocess.run(["git", "-C", REPO, "archive", "--format=tar", spec, "src/spun4d"],
                          capture_output=True, check=True).stdout
    root = tempfile.mkdtemp(dir=tmp)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(root, filter="data")
    return os.path.join(root, "src", "spun4d")


def _load(name: str, path: str):
    """The package at ``path``, imported as ``name``; its imports are
    relative, so its modules load as ``name``'s submodules."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(path, "__init__.py"),
                                                  submodule_search_locations=[path])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _ops(pkg, degrees):
    """Per degree, a label and a call of ``bernstein_fit2`` on the spun
    trefoil's lattice samples."""
    s = pkg.spin(pkg.get_knot("trefoil_spun"))
    ops = []
    for degree in degrees:
        u = pkg.approx.bernstein_lattice(degree)
        samples = s.eval_grid(s.t_dom.mid + 0.5 * s.t_dom.length * u, s.s_dom.mid + 0.5 * s.s_dom.length * u)
        ops.append((f"bernstein_fit2 {degree}",
                    lambda samples=samples, degree=degree: pkg.bernstein_fit2(samples, degree)))
    return ops


def _quartiles(xs):
    import numpy as np

    return tuple(float(q) for q in np.percentile(xs, [25, 50, 75]))


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--pairs", type=int, default=101)
    parser.add_argument("--degrees", default="16,20,24,28,30")
    args = parser.parse_args(argv)
    degrees = [int(d) for d in args.degrees.split(",")]
    os.environ.update({v: "1" for v in THREAD_VARS})  # before numpy starts its BLAS
    with tempfile.TemporaryDirectory() as tmp:  # kept while the packages run
        sides = [_ops(_load(f"spun4d_{n}", _tree(spec, tmp)), degrees) for n, spec in (("a", args.a),
                                                                                      ("b", args.b))]
        times = {}
        for (label, call_a), (_, call_b) in zip(*sides):
            for _ in range(3):
                call_a()
                call_b()
            times[label] = ([], [])
            for pair in range(args.pairs):
                for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                    call = (call_a, call_b)[side]
                    start = time.perf_counter()
                    call()
                    times[label][side].append(time.perf_counter() - start)
    print(f"{args.pairs} pairs, B / A per pair: median [quartiles], pairs B faster")
    for label, (ta, tb) in times.items():
        ratios = [b / a for a, b in zip(ta, tb)]
        q1, med, q3 = _quartiles(ratios)
        wins = sum(r < 1 for r in ratios)
        print(f"{label:>20}: A {_quartiles(ta)[1] * 1e3:.3f} ms, B {_quartiles(tb)[1] * 1e3:.3f} ms, "
              f"ratio {med:.3f} [{q1:.3f}, {q3:.3f}], B faster in {wins}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
