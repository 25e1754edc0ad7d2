"""The ledger of witnesses: each standing defect as a committed input, with
the answer its fixing item's gate asks for.

``data/witnesses/index.json`` lists each gate of a witness: its file, the
ROADMAP item that fixes it, its command, today's answer and the gate's.  Each
gate is a strict expected failure while its defect stands; the change that
fixes one removes it from ``STANDING``, and its entry becomes a plain test.
"""

import json
import os
import re

import pytest

from spun4d.cli import dispatch

WITNESSES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "witnesses")
with open(os.path.join(WITNESSES, "index.json")) as fh:
    INDEX = json.load(fh)["witnesses"]

# the gates whose defect stands today
STANDING = {"dip", "dip-piece", "touch", "scaled-2m7", "scaled-2m20"}

NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"


def _names_piece(line: str, lo: float, hi: float) -> bool:
    """Whether ``line`` names a point of [lo, hi], or an interval [x, y]
    that meets it."""
    spans = [(float(x), float(y)) for x, y in re.findall(rf"\[\s*({NUMBER})\s*,\s*({NUMBER})\s*\]", line)]
    points = [float(x) for x in re.findall(NUMBER, line)]
    return any(x <= hi and lo <= y for x, y in spans) or any(lo <= x <= hi for x in points)


def _entries():
    for w in INDEX:
        marks = [pytest.mark.xfail(strict=True, raises=AssertionError, reason=w["today"]["why"])] \
            if w["id"] in STANDING else []
        yield pytest.param(w, marks=marks, id=f"item{w['item']}-{w['id']}")


@pytest.mark.parametrize("w", _entries())
def test_witness_gets_its_gates_answer(w, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [os.path.join(WITNESSES, a) if a == w["file"] else a for a in w["argv"]]
    rc = dispatch(argv)
    errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("spun4d: error:")]
    assert rc == w["gate"]["exit"], f"exit {rc}, today's answer: {w['today']['why']}"
    if "refusal" in w["gate"]:
        assert len(errors) == 1 and w["gate"]["refusal"] in errors[0], errors
    if "piece" in w["gate"]:
        assert len(errors) == 1 and _names_piece(errors[0], *w["gate"]["piece"]), errors


def _height(w):
    with open(os.path.join(WITNESSES, w["file"])) as fh:
        coeffs = json.load(fh)["h"]["coeffs"]
    return lambda t: sum(c * t ** i for i, c in enumerate(coeffs))


def test_each_witness_file_holds_its_defect():
    assert STANDING <= {w["id"] for w in INDEX}
    dip, touch = (next(w for w in INDEX if w["id"] == name) for name in ("dip-piece", "touch"))
    # the dip's height is negative at the piece's middle, and positive at
    # 1000 evenly spaced points inside its roots -1 and 1
    h = _height(dip)
    lo, hi = dip["gate"]["piece"]
    assert h((lo + hi) / 2) < -2e-7
    assert min(h(-1 + 2 * i / 1001) for i in range(1, 1001)) > 0
    # the planted term alpha (t - a)(b - t) leaves the spun trefoil's roots
    # where they were
    b = 2.155400498994286
    h = _height(touch)
    assert abs(h(-b)) < 1e-9 and abs(h(b)) < 1e-9
