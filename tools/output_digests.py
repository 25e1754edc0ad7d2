"""sha256 digests of the package's outputs, to show that a change leaves them
bit-identical.

    python tools/output_digests.py SRC OUT

    python tools/output_digests.py --compare A.json B.json

SRC is a checkout of the repository: its ``src/`` is the package measured,
and its ``perfbench/workloads.py`` gives the README's CLI commands
(``COMMANDS``).  OUT is the JSON file written; its ``environment`` section
records the Python and numpy versions and the platform.  Run it on two
checkouts and compare the two files: ``--compare`` prints, per section, the
keys added, removed or changed from A to B, and exits 1 if any differ, 0 if
none do.  It also prints each difference of the two environments, which
does not count as a difference of the outputs.

Everything runs with one BLAS thread.  The commands run in order in one
temporary directory; each one's exit code, stdout and stderr make one digest,
and each file written one more, a manifest without its ``timing_seconds``.
The library digests cover the spins of the catalog arcs and the twist spins
of ``trefoil_twist`` at k = 0, 1, 3 and 10 (axis at t = -2.19 and 2.19):
``eval_grid`` on 150 x 130 samples, ``verify_surface`` at 96 / 200 and the
degree-24 ``polynomialize_twist``; the grids and reports of
``polynomial_spin`` of ``trefoil_spun`` at degrees 8 and 12; the verdict
of acceptance criterion 8's perturbation family; the coefficient bits of
``bernstein_fit2`` at degrees 6, 16, 20, 24, 28 and 30, on the spun trefoil's
lattice samples and on seeded awkward samples (signed zeros, magnitudes near
1e-300 and 1e+300); ``evaluate`` at a scalar theta and at a scalar t, and
``partials_grid``, of four ``PolyMap4``s on the 150 x 130 samples: the
polynomial spins of degrees 8 and 12, the degree-20 Bernstein fit of the
spun trefoil and criterion 8's family map at u = 1, and the point
(0.5, 1e200) of (1e-300 s^2, t, 0, 0), where s^2 overflows; and collision
lists that are neither empty nor capped: ``injectivity_scan`` of the fold
(t^2, s, 0, 0) on [-1, 1]^2 at 101 x 101 (image_tol 1e-6), from its
factors and from an evaluate-only wrapper of it,
of the ``Surface4`` of no terms on [0, 1]^2 at 16 x 16, whose 256 nodes
make 32,640 collisions, and of the k = 1 twist spin of ``trefoil_twist``
from its factors at 400 x 400 (param_sep 0.002, image_tol 0.01), whose
plane stage keeps about 23,000 suspects and whose 800 collisions are theta
neighbours on the rows next to the poles.  The crossing search has digests of its own: each
catalog arc's ``ab``, ``crossings`` and ``crossing_iv``, its
``plane_double_points`` on [-5, 5] and [-1.3, 2.1], and ``lift_height`` of
-t^4 + 4t^2 - 1 over ``trefoil_spun``'s f and g.  Three objects are built
from numpy float32 values and again from the Python floats of the same
values, which must give the same digest: the k = 1 twist spin of
``trefoil_twist`` with its axis at float32 -2.19 and 2.19, its
``verify_surface`` report at 96 / 200 with float32 settings, and the spin of
``trefoil_spun`` on a float32 interval.  Each digest is of the object's
JSON, or, where that cannot be written, of the exception's type and message.

Two more CLI commands (``MORE_COMMANDS``), run in order in a second
temporary directory, add their digests and those of their files to the
README's.

The refusal digests cover the CLI's answer to malformed inputs
(``REFUSALS``): config files, knot files and surface files, each written
alone into a new temporary directory and given to one command there, whose
exit code, stdout and stderr make one digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile

DEGREE = 24
BERNSTEIN_DEGREES = (6, 16, 20, 24, 28, 30)
GRID = (150, 130)
VERIFY = (96, 200)

_KNOT_GH = '"g": {"coeffs": [0, 0, 1]}, "h": {"coeffs": [1, 0, -1]}'
_COORD = '{"coeffs": [[0.0]]}'
_DOMAINS = '"t_dom": [-1, 1], "s_dom": [-1, 1]'
_CONFIG_RUN = ["--config", "cfg.json", "spin", "trefoil_spun", "--verify", "--out", "v.json"]
_KNOT_RUN = ["spin", "k.json", "--out", "s.json"]
_SURFACE_RUN = ["project", "s.json", "--out", "g.csv"]
# commands beyond the README's, in the form of ``COMMANDS``: an id, the
# command line and (unused here) the ids it depends on
MORE_COMMANDS = [
    ("spin_csv", "spin trefoil_spun --export csv --out s.csv", ()),
    ("twistspin_figure8", "twistspin figure8_spun --k 1 --verify --out f8.json", ()),
]
# a malformed input per entry: its label, its file's name and text, and the
# command given it
REFUSALS = [
    ("config: not JSON", "cfg.json", "{'n_rank': 64}", _CONFIG_RUN),
    ("config: not an object", "cfg.json", "[64]", _CONFIG_RUN),
    ("config: an unknown key", "cfg.json", '{"bogus": 1}', _CONFIG_RUN),
    ("config: n_rank \"abc\"", "cfg.json", '{"n_rank": "abc"}', _CONFIG_RUN),
    ("config: image_tol 1e-200", "cfg.json", '{"image_tol": 1e-200}', _CONFIG_RUN),
    ("config: param_sep 5", "cfg.json", '{"param_sep": 5}', _CONFIG_RUN),
    ("knot: not JSON", "k.json", "not json", _KNOT_RUN),
    ("knot: a list", "k.json", '[{"f": {"coeffs": [0, 1]}, ' + _KNOT_GH + "}]", _KNOT_RUN),
    ("knot: no h", "k.json", '{"f": {"coeffs": [0, 1]}, "g": {"coeffs": [0, 0, 1]}}', _KNOT_RUN),
    ("knot: a NaN coefficient", "k.json", '{"f": {"coeffs": [0, NaN]}, ' + _KNOT_GH + "}", _KNOT_RUN),
    ("surface: an unknown tag", "s.json",
     '{"type": "surface4", "coords": [' + ", ".join(['{"tag": "bogus"}'] * 4) + "], " + _DOMAINS + "}",
     _SURFACE_RUN),
    ("surface: a ragged polymap4 row", "s.json",
     '{"type": "polymap4", "coords": [{"coeffs": [[1, 2], [3]]}, ' + ", ".join([_COORD] * 3) + "], "
     + _DOMAINS + "}", _SURFACE_RUN),
    ("surface: a domain whose length overflows", "s.json",
     '{"type": "polymap4", "coords": [' + ", ".join([_COORD] * 4) + '], "t_dom": [-1, 1], '
     '"s_dom": [-1e308, 1e308]}', _SURFACE_RUN),
]


def _sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _json_sha(doc) -> str:
    return _sha(json.dumps(doc, sort_keys=True))


def _run(argv, cwd: str, env: dict) -> str:
    """The digest of the exit code, stdout and stderr of one CLI command."""
    proc = subprocess.run([sys.executable, "-m", "spun4d.cli", *argv], cwd=cwd, env=env,
                          capture_output=True)
    return _sha(f"{proc.returncode}\n".encode() + proc.stdout + b"\0" + proc.stderr)


def _refusal_digests(env: dict) -> dict:
    """Per malformed input of ``REFUSALS``, the digest of its command's
    answer, run alone in a new directory with the file."""
    out = {}
    for label, name, text, argv in REFUSALS:
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(text)
            out[label] = _run(argv, tmp, env)
    return out


def _command_digests(commands, env: dict) -> tuple[dict, dict]:
    """Per command, the digest of its exit code, stdout and stderr; per file
    the commands wrote, the digest of its bytes (a manifest's without its
    timing)."""
    done, files = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for cid, text, _ in commands:
            done[cid] = _run(text.split(), tmp, env)
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as fh:
                data = fh.read()
            if name.endswith(".manifest.json"):
                doc = json.loads(data)
                doc.pop("timing_seconds")
                files[name] = _json_sha(doc)
            else:
                files[name] = _sha(data)
    return done, files


class _EvaluateOnly:
    """A sampler of ``evaluate``, the domains and the flags alone, so that
    ``injectivity_scan`` projects its image grid."""

    def __init__(self, s):
        self._s = s
        self.t_dom, self.s_dom = s.t_dom, s.s_dom
        self.periodic_s, self.pole_low, self.pole_high = s.periodic_s, s.pole_low, s.pole_high

    def evaluate(self, t, th):
        return self._s.evaluate(t, th)


def _collision_digests() -> dict:
    from spun4d.catalog import get_knot
    from spun4d.poly import Interval, Poly1, Poly2
    from spun4d.surface import PolyMap4, Surface4
    from spun4d.twist import choose_bump, make_axis, twist_spin
    from spun4d.verify import MAX_COLLISIONS, injectivity_scan

    fold = PolyMap4((Poly2.from_t(Poly1((0.0, 0.0, 1.0))), Poly2.from_s(Poly1((0.0, 1.0))), Poly2(),
                     Poly2()), Interval(-1.0, 1.0), Interval(-1.0, 1.0))
    empty = Surface4(((), (), (), ()), Interval(0.0, 1.0), Interval(0.0, 1.0), False, False, False)
    arc = get_knot("trefoil_twist")
    axis = make_axis(arc, -2.19, 2.19)
    twist = twist_spin(arc, axis, choose_bump(arc, axis), 1)
    out = {}
    for label, s, n, param_sep, image_tol in (
            ("fold (t^2, s, 0, 0)", fold, 101, 0.05, 1e-6),
            ("fold (t^2, s, 0, 0), evaluate only", _EvaluateOnly(fold), 101, 0.05, 1e-6),
            ("Surface4 of no terms", empty, 16, 0.05, 1e-3),
            ("twist_spin trefoil_twist k=1, param_sep 0.002, image_tol 0.01", twist, 400, 0.002, 1e-2)):
        found = injectivity_scan(s, n, n, param_sep, image_tol)
        if not 0 < len(found) < MAX_COLLISIONS:
            raise RuntimeError(f"{label}: {len(found)} collisions, not an uncapped, non-empty list")
        out[f"{label}: injectivity_scan {n}x{n}, {len(found)} collisions"] = _json_sha(
            [[c.param_a, c.param_b, c.distance] for c in found])
    return out


def _crossing_digests() -> dict:
    from spun4d.catalog import get_knot, knot_names, lift_height, plane_double_points
    from spun4d.poly import Interval, Poly1

    out = {}
    for name in knot_names():
        arc = get_knot(name)
        iv = arc.crossing_iv
        out[f"{name}: ab, crossings, crossing_iv"] = _sha(repr(
            ((arc.ab.lo, arc.ab.hi), arc.crossings, None if iv is None else (iv.lo, iv.hi))))
        for lo, hi in ((-5.0, 5.0), (-1.3, 2.1)):
            out[f"{name}: plane_double_points [{lo}, {hi}]"] = _sha(
                repr(plane_double_points(arc.f, arc.g, Interval(lo, hi))))
    arc = get_knot("trefoil_spun")
    h, ab = lift_height(Poly1((-1.0, 0.0, 4.0, 0.0, -1.0)), arc.f, arc.g)
    out["trefoil_spun: lift_height -t^4 + 4t^2 - 1"] = _sha(repr((h.coeffs, ab.lo, ab.hi)))
    return out


def _float32_digests() -> dict:
    """Per object of three, the digest of its JSON when built from numpy
    float32 values and when built from their Python floats."""
    from dataclasses import replace

    import numpy as np

    from spun4d.catalog import get_knot
    from spun4d.poly import Interval
    from spun4d.spin import spin
    from spun4d.twist import choose_bump, make_axis, twist_spin
    from spun4d.verify import verify_surface

    def digest(build):
        doc = build().to_json()
        try:
            return _json_sha(doc)
        except TypeError as exc:  # a value that JSON cannot write
            return _sha(f"{type(exc).__name__}: {exc}")

    twist_arc, arc = get_knot("trefoil_twist"), get_knot("trefoil_spun")
    out = {}
    for label, real in (("float32", np.float32), ("float", lambda x: float(np.float32(x)))):
        def twist(real=real):
            axis = make_axis(twist_arc, real(-2.19), real(2.19))
            return twist_spin(twist_arc, axis, choose_bump(twist_arc, axis), 1)

        name = f"twist_spin trefoil_twist k=1, axis at {label} -2.19 and 2.19"
        out[name] = digest(twist)
        out[f"{name}: verify_surface {VERIFY[0]}/{VERIFY[1]}, {label} settings"] = digest(
            lambda real=real: verify_surface(twist(), twist_arc, *VERIFY, real(0.05), real(1e-6), real(1e-3)))
        out[f"spin trefoil_spun on a {label} interval"] = digest(
            lambda real=real: replace(spin(arc), t_dom=Interval(real(arc.ab.lo), real(arc.ab.hi))))
    return out


def _library_digests() -> dict:
    import numpy as np

    from spun4d.approx import bernstein_fit2, odd_perturbation
    from spun4d.catalog import get_knot, knot_names
    from spun4d.spin import polynomial_spin, spin
    from spun4d.twist import choose_bump, make_axis, polynomialize_twist, twist_spin
    from spun4d.verify import isotopy_family_check, verify_surface

    def grid(s):
        pts = np.ascontiguousarray(s.eval_grid(s.t_dom.sample(GRID[0]), s.s_dom.sample(GRID[1])))
        return _sha(repr(pts.shape).encode() + pts.tobytes())

    def report(s, arc):
        return _json_sha(verify_surface(s, arc, *VERIFY).to_json())

    out = {}
    twist_arc = get_knot("trefoil_twist")
    axis = make_axis(twist_arc, -2.19, 2.19)
    bump = choose_bump(twist_arc, axis)
    surfaces = [(f"spin {name}", spin(get_knot(name)), get_knot(name)) for name in knot_names()]
    surfaces += [(f"twist_spin trefoil_twist k={k}", twist_spin(twist_arc, axis, bump, k), twist_arc)
                 for k in (0, 1, 3, 10)]
    for label, s, arc in surfaces:
        out[f"{label}: eval_grid {GRID[0]}x{GRID[1]}"] = grid(s)
        out[f"{label}: verify_surface {VERIFY[0]}/{VERIFY[1]}"] = report(s, arc)
        poly, dev = polynomialize_twist(s, DEGREE)
        out[f"{label}: polynomialize_twist {DEGREE}"] = _json_sha({"surface": poly.to_json(),
                                                                   "deviation": dev})
    arc = get_knot("trefoil_spun")
    for degree in (8, 12):
        p, label = polynomial_spin(arc, degree), f"polynomial_spin trefoil_spun {degree}"
        out[f"{label}: eval_grid {GRID[0]}x{GRID[1]}"] = grid(p)
        out[f"{label}: verify_surface {VERIFY[0]}/{VERIFY[1]}"] = report(p, arc)
    p = polynomial_spin(arc, 8)
    spec, _ = odd_perturbation(p.polys, 2, [])
    ok = isotopy_family_check(p, spec, [0.0, 0.25, 0.5, 0.75, 1.0], n_rank=96, n_inject=200,
                              param_sep=0.05)
    out["criterion 8 family verdict"] = _json_sha({"N": spec.N, "epsilon": spec.epsilon, "ok": ok})
    s = spin(arc)
    for degree in BERNSTEIN_DEGREES:
        for label, samples in (("trefoil_spun lattice", _lattice_samples(s, degree)),
                               (f"awkward samples, seed {degree}", _awkward_samples(degree))):
            fit = bernstein_fit2(samples, degree)
            out[f"bernstein_fit2 {degree}: {label}"] = _sha(
                b"".join(repr(c.coeffs.shape).encode() + c.coeffs.tobytes() for c in fit))
    out.update(_shape_digests())
    out.update(_collision_digests())
    out.update(_crossing_digests())
    out.update(_float32_digests())
    return out


def _lattice_samples(s, degree: int):
    """``s`` sampled on the Bernstein lattice of ``degree`` over its domains."""
    from spun4d.approx import bernstein_lattice

    u = bernstein_lattice(degree)
    return s.eval_grid(s.t_dom.mid + 0.5 * s.t_dom.length * u, s.s_dom.mid + 0.5 * s.s_dom.length * u)


def _shape_digests() -> dict:
    """Per PolyMap4 the package builds (two polynomial spins, a Bernstein
    fit, criterion 8's family map at u = 1), the bits of ``evaluate`` at a
    scalar theta and at a scalar t, and of ``partials_grid``, on the GRID
    samples; and the bits of one point of a map whose theta^2 overflows."""
    from dataclasses import replace

    import numpy as np

    from spun4d.approx import bernstein_fit2, odd_perturbation
    from spun4d.catalog import get_knot
    from spun4d.poly import Interval, Poly1, Poly2
    from spun4d.spin import polynomial_spin, spin
    from spun4d.surface import PolyMap4

    def bits(a):
        a = np.ascontiguousarray(a)
        return _sha(repr(a.shape).encode() + a.tobytes())

    arc = get_knot("trefoil_spun")
    p8 = polynomial_spin(arc, 8)
    _, family = odd_perturbation(p8.polys, 2, [])
    out = {}
    for label, s in (("polynomial_spin trefoil_spun 8", p8),
                     ("polynomial_spin trefoil_spun 12", polynomial_spin(arc, 12)),
                     ("bernstein_fit2 20 of spin trefoil_spun",
                      PolyMap4(bernstein_fit2(_lattice_samples(spin(arc), 20), 20), Interval(-1.0, 1.0),
                               Interval(-1.0, 1.0))),
                     ("criterion 8 family map at u = 1", replace(p8, polys=family))):
        tv, sv = s.t_dom.sample(GRID[0]), s.s_dom.sample(GRID[1])
        out[f"{label}: evaluate at theta sample 37 of {GRID[1]}"] = bits(s.evaluate(tv, sv[37]))
        out[f"{label}: evaluate at t sample 41 of {GRID[0]}"] = bits(s.evaluate(tv[41], sv))
        out[f"{label}: partials_grid {GRID[0]}x{GRID[1]}"] = bits(s.partials_grid(tv, sv))
    witness = PolyMap4((Poly2.from_s(Poly1((0.0, 0.0, 1e-300))), Poly2.from_t(Poly1((0.0, 1.0))), Poly2(),
                        Poly2()), Interval(0.0, 1.0), Interval(-1e200, 1e200))
    with np.errstate(over="ignore"):
        out["(1e-300 s^2, t, 0, 0): evaluate at (0.5, 1e200)"] = bits(witness.evaluate(0.5, 1e200))
    return out


def _awkward_samples(degree: int):
    """Seeded normal samples with exact zeros and -0.0, one coordinate near
    1e-300, one near 1e+300 and one partly near 1e-300."""
    import numpy as np

    rng = np.random.default_rng(degree)
    n = degree + 1
    x = rng.normal(size=(n, n, 4))
    x[rng.random((n, n, 4)) < 0.15] = 0.0
    x[rng.random((n, n, 4)) < 0.15] = -0.0
    x[..., 1] *= 1e-300
    x[..., 2] *= 1e300
    x[::3, ::2, 3] *= 1e-300
    return x


def compare(path_a: str, path_b: str) -> int:
    """Print, per section of two digest files, the count of equal entries
    and the keys added, removed or changed from A to B; 1 if any differ."""
    docs = []
    for path in (path_a, path_b):
        with open(path) as fh:
            docs.append(json.load(fh))
    a, b = docs
    env_a, env_b = a.pop("environment", {}), b.pop("environment", {})
    for key in sorted(set(env_a) | set(env_b)):
        if env_a.get(key) != env_b.get(key):
            print(f"environment: {key} {env_a.get(key)} in A, {env_b.get(key)} in B")
    differ = False
    for section in sorted(set(a) | set(b)):
        x, y = a.get(section, {}), b.get(section, {})
        moved = {"added": sorted(set(y) - set(x)), "removed": sorted(set(x) - set(y)),
                 "changed": sorted(k for k in set(x) & set(y) if x[k] != y[k])}
        equal = len(set(x) & set(y)) - len(moved["changed"])
        print(f"{section}: {equal} equal, " + ", ".join(f"{len(v)} {k}" for k, v in moved.items()))
        for what, keys in moved.items():
            for key in keys:
                print(f"  {what}: {key}")
        differ |= any(moved.values())
    return int(differ)


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) != 2:
        print("usage: python tools/output_digests.py SRC OUT\n"
              "       python tools/output_digests.py --compare A.json B.json", file=sys.stderr)
        return 2
    src, out_path = os.path.abspath(argv[0]), argv[1]
    # SRC's own perfbench and package, imported before numpy so that its
    # BLAS starts with one thread
    sys.path[:0] = [os.path.join(src, "perfbench"), os.path.join(src, "src")]
    from workloads import COMMANDS, THREAD_VARS, check_provenance, child_env

    os.environ.update({v: "1" for v in THREAD_VARS})
    import spun4d

    check_provenance(spun4d.__file__, src)
    commands, files = _command_digests(COMMANDS, child_env(src))
    more, more_files = _command_digests(MORE_COMMANDS, child_env(src))
    if set(more) & set(commands) or set(more_files) & set(files):
        raise RuntimeError("MORE_COMMANDS repeat a README command's id or file name")
    commands.update(more)
    files.update(more_files)
    refusals = _refusal_digests(child_env(src))
    library = _library_digests()
    import numpy as np

    environment = {"python": platform.python_version(), "numpy": np.__version__,
                   "platform": f"{platform.system()} {platform.machine()}, {' '.join(platform.libc_ver())}"}
    with open(out_path, "w") as fh:
        json.dump({"commands": commands, "environment": environment, "files": files, "library": library,
                   "refusals": refusals}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{out_path}: {len(commands)} commands, {len(files)} files, {len(library)} library "
          f"entries, {len(refusals)} refusals")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
