"""Time two trees of the package op by op in one process.

    python tools/inproc_ab.py A B [--pairs N] [--degrees 16,20,24]

A and B are each a directory holding a checkout of the repository, or a
git revision of the repository this tool is in (extracted with ``git
archive`` into a temporary directory).  Each tree's ``src/spun4d`` is
loaded as a package of its own, ``spun4d_a`` and ``spun4d_b``, so both run
in this process, on one BLAS thread.

The ops are ``bernstein_fit2`` at each degree, on the spun trefoil's samples
on the Bernstein lattice, then the in-process benchmark workloads' ops, each
timed on its own.  For each k from 0 to 10, on the tall trefoil about the
chord at t = -2.19, 2.19: ``twist_spin``, then ``verify_surface`` of that
twist spin at 200 / 400 (300 / 600 for k = 1 and 10), then
``polynomialize_twist`` of it at degree 24.  For each degree 8, 12 and 16:
``polynomial_spin`` of the spun trefoil, ``odd_perturbation`` of it with
N = 2, and ``isotopy_family_check`` of the two at the five u of acceptance
criterion 8, on its default grids.  An op's input is built anew, untimed,
before each call, as the workloads build it in each of their ops: a model
kept across calls would time whatever it keeps from the calls before.

Each op runs its pairs in one block, after a warm-up of three calls on each
side: every pair times one call on each side, A first in even pairs and B
first in odd ones.  (Interleaving the ops pair by pair would time the call
after a large op's frees: the degree-16 fit after a degree-100 one spread
from 0.68 to 1.07 in its ratio quartiles, on 2 shared cores.)  Per op it
prints the median times, the median ratio B / A with its quartiles, and the
number of pairs in which B was faster, and each side's median minor page
faults per call (``getrusage``'s ``ru_minflt`` around the call): a call
that faults pays for memory the allocator returned to the system or never
took from it.  Module state is per copy; the allocator is shared, so each
side sees the other's frees.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import os
import resource
import subprocess
import sys
import tarfile
import tempfile
import time
from functools import partial

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


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
    """A label and a maker of each op: a call of no arguments that builds
    the op's input and returns the call to time.  Per degree,
    ``bernstein_fit2`` on the spun trefoil's lattice samples; then the twist
    and polynomial-spin ops."""
    spun = pkg.get_knot("trefoil_spun")
    s = pkg.spin(spun)
    ops = []
    for degree in degrees:
        u = pkg.approx.bernstein_lattice(degree)
        samples = s.eval_grid(s.t_dom.mid + 0.5 * s.t_dom.length * u, s.s_dom.mid + 0.5 * s.s_dom.length * u)
        ops.append((f"bernstein_fit2 {degree}",
                    lambda samples=samples, degree=degree: partial(pkg.bernstein_fit2, samples, degree)))
    arc = pkg.get_knot("trefoil_twist")
    axis = pkg.make_axis(arc, -2.19, 2.19)
    bump = pkg.choose_bump(arc, axis)
    for k in range(11):
        twist = partial(pkg.twist_spin, arc, axis, bump, k)
        n_rank, n_inject = (300, 600) if k in (1, 10) else (200, 400)
        ops += [(f"twist_spin {k}", lambda twist=twist: twist),
                (f"verify_surface {k} {n_rank}/{n_inject}",
                 lambda twist=twist, n_rank=n_rank, n_inject=n_inject: partial(
                     pkg.verify_surface, twist(), arc, n_rank=n_rank, n_inject=n_inject)),
                (f"polynomialize_twist {k}",
                 lambda twist=twist: partial(pkg.polynomialize_twist, twist(), 24))]
    us = [0.0, 0.25, 0.5, 0.75, 1.0]
    for degree in (8, 12, 16):
        poly = partial(pkg.polynomial_spin, spun, degree)

        def family(poly=poly):
            pm = poly()
            return partial(pkg.isotopy_family_check, pm, pkg.odd_perturbation(pm.polys, 2, [])[0], us)

        ops += [(f"polynomial_spin {degree}", lambda poly=poly: poly),
                (f"odd_perturbation {degree}", lambda poly=poly: partial(pkg.odd_perturbation, poly().polys, 2, [])),
                (f"isotopy_family_check {degree}", family)]
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
        times, faults = {}, {}
        for (label, make_a), (_, make_b) in zip(*sides):
            for _ in range(3):
                make_a()()
                make_b()()
            times[label], faults[label] = ([], []), ([], [])
            for pair in range(args.pairs):
                for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                    call = (make_a, make_b)[side]()
                    minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                    start = time.perf_counter()
                    call()
                    times[label][side].append(time.perf_counter() - start)
                    faults[label][side].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt)
    print(f"{args.pairs} pairs, B / A per pair: median [quartiles], pairs B faster; "
          "median minor page faults per call")
    for label, (ta, tb) in times.items():
        ratios = [b / a for a, b in zip(ta, tb)]
        q1, med, q3 = _quartiles(ratios)
        wins = sum(r < 1 for r in ratios)
        fa, fb = (_quartiles(f)[1] for f in faults[label])
        print(f"{label:>28}: A {_quartiles(ta)[1] * 1e3:.3f} ms, B {_quartiles(tb)[1] * 1e3:.3f} ms, "
              f"ratio {med:.3f} [{q1:.3f}, {q3:.3f}], B faster in {wins}/{args.pairs}, "
              f"faults A {fa:g}, B {fb:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
