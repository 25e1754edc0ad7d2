"""Malformed input files, one defect at a time: a knot file, a surface file
(``spin`` output and a ``polymap4``) and a config file, each changed by one
malformed step, must end in exit code 1 and exactly one ``spun4d: error:``
line, never a traceback or a warning.  Random values of the numeric and
axis flags must either succeed or end the same way."""

import contextlib
import copy
import io
import json
import math
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spun4d.cli import dispatch

KNOT = {
    "name": "unknot",
    "f": {"coeffs": [0.0, 1.0]},
    "g": {"coeffs": [0.0, 0.0, 1.0]},
    "h": {"coeffs": [1.0, 0.0, -1.0]},
    "interval_hint": [-2.0, 2.0],
}
POLYMAP = {
    "type": "polymap4",
    "coords": [{"coeffs": [[0.0, 1.0], [1.0, 0.0]]}, {"coeffs": [[0.0], [0.5]]},
               {"coeffs": [[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]}, {"coeffs": [[0.0, 0.0], [0.0, 0.0]]}],
    "t_dom": [-1.0, 1.0],
    "s_dom": [-1.0, 1.0],
}
CONFIG = {"n_rank": 64, "image_tol": 0.001}

# keys a file may leave out
OPTIONAL = {"name", "interval_hint", "periodic_s", "pole_low", "pole_high"}
INTERVAL_KEYS = {"t_dom", "s_dom", "interval_hint"}

# replacement values per kind of malformed step
BAD = {
    "root": [[], [1.0], 1.0, "{}", None],
    "number": [math.nan, math.inf, -math.inf, True, False, "0", "1.5", None],
    "interval": [[1.0, -1.0], [-math.inf, 1.0], [0.0, math.nan], [0.0], [-1.0, 0.0, 1.0],
                 1.0, None, {"lo": -1.0, "hi": 1.0}, ["-1", "1"]],
    "coeffs": [1.0, "1.0", None, {"coeffs": [1.0]}],
    "row": [[], 1.0, None],  # one polymap4 row emptied or not a list
    "ragged": [None],        # one polymap4 row one entry longer than the others
    "delete": [None],
}


def _sites(node, deletable: bool, path=()):
    """(kind, path) of every place where one malformed step can go."""
    if isinstance(node, dict):
        for key, value in node.items():
            here = path + (key,)
            if deletable and key not in OPTIONAL:
                yield "delete", here
            if key in INTERVAL_KEYS:
                yield "interval", here
            if key == "coeffs":
                yield "coeffs", here
                if value and isinstance(value[0], list):
                    for i in range(len(value)):
                        yield "row", here + (i,)
                        yield "ragged", here + (i,)
            yield from _sites(value, deletable, here)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _sites(value, deletable, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield "number", path


def _mutate(doc, kind, path, value):
    if kind == "root":
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "ragged":
        parent[path[-1]] = parent[path[-1]] + [1.0]
    else:
        parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    config = d / "config.json"
    config.write_text(json.dumps(CONFIG))
    assert dispatch(["--config", str(config), "spin", "trefoil_spun", "--out", str(d / "spin.json")]) == 0
    spin_doc = json.loads((d / "spin.json").read_text())
    project = lambda path: ["--config", str(config), "project", path, "--out", str(d / "out.csv")]
    return d, {
        "knot": (KNOT, True, lambda path: ["--config", str(config), "spin", path,
                                          "--out", str(d / "out.json")]),
        "spin": (spin_doc, True, project),
        "polymap": (POLYMAP, True, project),
        "config": (CONFIG, False, lambda path: ["--config", path, "catalog"]),
    }


@pytest.mark.parametrize("which", ["knot", "spin", "polymap", "config"])
def test_valid_input_is_accepted(inputs, which):
    d, cases = inputs
    doc, _, command = cases[which]
    path = d / f"valid_{which}.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(command(str(path))) == 0


@pytest.mark.parametrize("which", ["knot", "spin", "polymap", "config"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_malformed_step_is_one_error_line(inputs, which, data):
    d, cases = inputs
    doc, deletable, command = cases[which]
    kind, path = data.draw(st.sampled_from([("root", ())] + list(_sites(doc, deletable))))
    bad = _mutate(doc, kind, path, data.draw(st.sampled_from(BAD[kind])))
    file = d / f"bad_{which}.json"
    file.write_text(json.dumps(bad))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = dispatch(command(str(file)))
    lines = err.getvalue().splitlines()
    assert code == 1, (kind, path, bad)
    assert len(lines) == 1 and lines[0].startswith("spun4d: error:"), lines
    assert out.getvalue() == ""


# -- command-line flags ------------------------------------------------------

SMALL_CONFIG = {"grid_nt": 8, "grid_ns": 8, "slice_n": 64}
FLAG_TEXT = st.one_of(
    st.floats().map(repr),
    st.integers().map(str),
    st.sampled_from(["", " ", "nan", "-inf", "1e999", "0x10", "1_0", "1,2", "xyzw", "--",
                     str(2 ** 53 + 1), "9" * 400]),
    st.text(max_size=6),
)
FLAG_VALUES = {
    "--values": st.one_of(FLAG_TEXT, st.lists(st.floats().map(repr), min_size=1, max_size=3)
                          .map(",".join)),
    "--plane": st.one_of(st.text(alphabet="xyzwq, ", max_size=5), st.text(max_size=5)),
    "--t1": FLAG_TEXT, "--t2": FLAG_TEXT, "--d1": FLAG_TEXT, "--d2": FLAG_TEXT, "--k": FLAG_TEXT,
}


@pytest.fixture(scope="module")
def flag_commands(tmp_path_factory):
    """Per flag, the command that reads its value v (passed as --flag=v, so
    that a value starting with '-' is not read as an option)."""
    d = tmp_path_factory.mktemp("flags")
    config = d / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    common = ["--config", str(config)]
    spin = str(d / "spin.json")
    assert dispatch(common + ["spin", "trefoil_spun", "--out", spin]) == 0
    twist = common + ["twistspin", "trefoil_twist", "--out", str(d / "twist.json")]
    return {
        "--values": lambda v: common + ["slice", spin, "--values=" + v,
                                        "--out-pattern", str(d / "slice_{}.json")],
        "--plane": lambda v: common + ["project", spin, "--plane=" + v, "--out", str(d / "p.csv")],
        "--t1": lambda v: twist + ["--k", "1", "--t1=" + v, "--t2", "2.19"],
        "--t2": lambda v: twist + ["--k", "1", "--t1", "-2.19", "--t2=" + v],
        "--d1": lambda v: twist + ["--k", "1", "--d1=" + v, "--d2", "4.8"],
        "--d2": lambda v: twist + ["--k", "1", "--d1", "3.8", "--d2=" + v],
        "--k": lambda v: twist + ["--k=" + v],
    }


@pytest.mark.parametrize("flag", list(FLAG_VALUES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_random_flag_value_succeeds_or_is_one_error_line(flag_commands, flag, data):
    value = data.draw(FLAG_VALUES[flag])
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = dispatch(flag_commands[flag](value))
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [], (value, lines)
        return
    assert code == 1, (value, lines)
    # argparse's own refusals name the subcommand ("spun4d twistspin: error:")
    # and come after a usage message
    errors = [ln for ln in lines if re.match(r"spun4d( [a-z]+)?: error: ", ln)]
    assert len(errors) == 1, (value, lines)
    assert all(ln is errors[0] or ln.startswith(("usage:", " ")) for ln in lines), (value, lines)
