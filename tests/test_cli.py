import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from spun4d.catalog import get_knot
from spun4d.cli import DEFAULT_CONFIG, dispatch
from spun4d.errors import PlaneCrossing
from spun4d.surface import MAX_TERMS
from spun4d.twist import choose_bump, make_axis, twist_spin
from test_reference_impls import assert_exact_plane_crossing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_catalog_lists_fixtures(capsys):
    assert dispatch(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "trefoil_spun" in out and "trefoil_twist" in out and "figure8_spun" in out
    assert sum(1 for ln in out.splitlines() if ln.strip()) >= 3
    assert "deg(f,g,h)" in out


def test_usage_error_exit_code():
    assert dispatch(["spinx"]) == 1
    assert dispatch(["twistspin", "trefoil_twist"]) == 1  # missing --k
    assert dispatch([]) == 1


def test_unknown_knot_is_io_error(workdir, capsys):
    assert dispatch(["spin", "granny"]) == 1
    assert "granny" in capsys.readouterr().err


def test_spin_writes_surface_and_manifest(workdir):
    assert dispatch(["spin", "trefoil_spun", "--out", "s.json"]) == 0
    doc = json.loads((workdir / "s.json").read_text())
    assert doc["type"] == "surface4"
    man = json.loads((workdir / "s.json.manifest.json").read_text())
    assert man["outputs"] == ["s.json"]
    assert man["command"][0] == "spun4d"
    assert "config_hash" in man and "tolerances" in man


def test_spin_export_obj_watertight(workdir):
    assert dispatch(["spin", "trefoil_spun", "--verify", "--export", "obj",
                     "--out", "tref.obj"]) == 0
    text = (workdir / "tref.obj").read_text()
    nv = sum(1 for ln in text.splitlines() if ln.startswith("v "))
    nf = sum(1 for ln in text.splitlines() if ln.startswith("f "))
    ne = nv + nf - 2  # closed genus-0 mesh satisfies V - E + F = 2
    assert nv > 0 and nf > 0 and ne > 0


_FOLD = {
    "type": "polymap4",
    "coords": [
        {"coeffs": [[0.0], [0.0], [1.0]]},   # t^2
        {"coeffs": [[0.0, 1.0]]},            # s
        {"coeffs": [[0.0]]},
        {"coeffs": [[0.0]]},
    ],
    "t_dom": [-1.0, 1.0],
    "s_dom": [-1.0, 1.0],
}
# every coordinate the constant 0: a surface of no terms, with zero partials
_NO_TERMS = {"type": "surface4", "coords": [{"tag": "const", "value": 0}] * 4,
             "t_dom": [0, 1], "s_dom": [0, 1]}


def test_verify_failure_exits_2_with_report(workdir):
    # a folded, non-injective polynomial map, and a map of no terms
    for doc, rank_ok in ((_FOLD, True), (_NO_TERMS, False)):
        (workdir / "bad.json").write_text(json.dumps(doc))
        code = dispatch(["verify", "bad.json"])
        assert code == 2
        report = json.loads((workdir / "bad.json.report.json").read_text())
        assert report["ok"] is False
        assert len(report["collisions"]) > 0
        assert report["rank_ok"] is rank_ok
        if not rank_ok:
            assert report["min_singular_ratio"] == 0.0


def test_verify_pass_on_spun_surface(workdir):
    assert dispatch(["spin", "trefoil_spun", "--out", "s.json"]) == 0
    assert dispatch(["verify", "s.json", "--knot", "trefoil_spun"]) == 0
    report = json.loads((workdir / "s.json.report.json").read_text())
    assert report["ok"] is True and report["boundary_ok"] is True


@pytest.mark.parametrize("key, dom", [("t_dom", [0.5, 0.5]), ("s_dom", [1.0, 1.0])])
def test_verify_zero_length_domain_is_one_error_line(workdir, capsys, key, dom):
    # over a zero-length domain every parameter separation is 0 / 0, which
    # no pair exceeds: the file is refused rather than passed
    assert dispatch(["spin", "trefoil_spun", "--out", "s.json"]) == 0
    doc = json.loads((workdir / "s.json").read_text())
    (workdir / "z.json").write_text(json.dumps({**doc, key: dom}))
    capsys.readouterr()
    assert dispatch(["verify", "z.json", "--knot", "trefoil_spun"]) == 1
    assert f"z.json: key '{key}'" in _one_error_line(capsys)
    assert sorted(os.listdir(workdir)) == ["s.json", "s.json.manifest.json", "z.json"]


_OVERFLOWING_DOMAIN = ('{"type": "polymap4", "coords": [{"coeffs": [[1]]}, {"coeffs": [[0]]}, {"coeffs": [[0]]}, '
                         '{"coeffs": [[0]]}], "t_dom": [-1, 1], "s_dom": [-1e308, 1e308]}')


@pytest.mark.parametrize("cmd", [["verify", "s.json"], ["project", "s.json", "--out", "g.csv"],
                                 ["slice", "s.json", "--values", "0"],
                                 ["export", "s.json", "--format", "obj", "--out", "m.obj"]],
                         ids=["verify", "project", "slice", "export"])
def test_a_domain_whose_length_overflows_is_one_error_line(workdir, capsys, cmd):
    # finite ends whose difference overflows: the scans' separations would
    # divide by inf, so the model refuses the domain when it is built
    (workdir / "s.json").write_text(_OVERFLOWING_DOMAIN)
    start = time.perf_counter()
    assert dispatch(cmd) == 1
    assert time.perf_counter() - start < 1.0
    assert _one_error_line(capsys) == ("spun4d: error: s.json: key 's_dom': the domain's length overflows, "
                                       "got [-1e+308, 1e+308]")
    assert os.listdir(workdir) == ["s.json"]


def test_approx_bernstein_of_a_domain_whose_ends_sum_beyond_double_range(workdir, capsys):
    # (1, 1e-308 s, 0, 0) is finite on [8e307, 1.7e308], whose midpoint is 1.25e308
    (workdir / "s.json").write_text(json.dumps({
        "type": "polymap4", "coords": [{"coeffs": [[1.0]]}, {"coeffs": [[0.0, 1e-308]]}, {"coeffs": [[0.0]]},
                                       {"coeffs": [[0.0]]}],
        "t_dom": [-1.0, 1.0], "s_dom": [8e307, 1.7e308]}))
    assert dispatch(["approx", "bernstein", "s.json", "--degree", "4", "--out", "b.json"]) == 0
    assert capsys.readouterr().out.startswith("lattice residual: ")
    doc = json.loads((workdir / "b.json").read_text())
    assert doc["source_s_dom"] == [8e307, 1.7e308]
    assert doc["coords"][0]["coeffs"] == [[1.0]]
    assert doc["coords"][1]["coeffs"][0][:2] == pytest.approx([1.25, 0.45])


def test_twistspin_sweep_emits_count_files(workdir):
    assert dispatch(["twistspin", "trefoil_twist", "--k", "2", "--sweep", "w",
                     "--count", "5"]) == 0
    files = sorted(p for p in os.listdir(workdir)
                   if p.startswith("trefoil_twist_k2_w_") and not p.endswith("manifest.json"))
    assert len(files) == 5


def _one_error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("spun4d: error:")
    return err[0]


@pytest.mark.parametrize("values", ["nan", "inf,1", "1,-inf"])
def test_slice_non_finite_value_is_one_error_line(workdir, capsys, values):
    assert dispatch(["spin", "trefoil_spun", "--out", "s.json"]) == 0
    assert dispatch(["slice", "s.json", "--values", values]) == 1
    assert "finite" in _one_error_line(capsys)
    assert not any(p.startswith("slice_") for p in os.listdir(workdir))


@pytest.mark.parametrize("values, entry", [("1,,2", "''"), ("", "''"), ("1,x", "'x'")])
def test_slice_value_not_a_number_names_flag_and_entry(workdir, capsys, values, entry):
    assert dispatch(["spin", "trefoil_spun", "--out", "s.json"]) == 0
    assert dispatch(["slice", "s.json", "--values", values]) == 1
    line = _one_error_line(capsys)
    assert f"--values {values!r}" in line and line.endswith(f": {entry}")
    assert sorted(os.listdir(workdir)) == ["s.json", "s.json.manifest.json"]


@pytest.mark.parametrize("argv, words", [
    (["spin", "trefoil_spun", "--verify", "--export", "obj"], "--export requires --out"),
    (["twistspin", "trefoil_twist", "--k", "1", "--sweep", "w", "--count", "2",
      "--export", "obj", "--out", "x.obj"], "--sweep"),
    (["twistspin", "trefoil_twist", "--k", "1", "--out-pattern", "x_{}.json"],
     "--out-pattern applies only with --sweep"),
    (["twistspin", "trefoil_twist", "--k", "1", "--count", "3"], "--count applies only with --sweep"),
    (["twistspin", "trefoil_twist", "--k", "1", "--format", "csv"], "--format applies only with --sweep"),
], ids=["export_without_out", "sweep_with_export", "out_pattern_without_sweep",
        "count_without_sweep", "format_without_sweep"])
def test_output_flags_are_checked_before_any_work(workdir, capsys, argv, words):
    # the surface is neither built nor verified: nothing is printed or written
    assert dispatch(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    err = out.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("spun4d: error:") and words in err[0]
    assert os.listdir(workdir) == []


@pytest.mark.parametrize("argv, plane", [
    (["spin", "trefoil_spun", "--export", "csv", "--out", "x.csv"], "ab"),
    (["twistspin", "trefoil_twist", "--k", "1", "--export", "csv", "--out", "x.csv"], "qq"),
    (["export", "s.json", "--format", "csv", "--out", "x.csv"], "ab"),
], ids=["spin", "twistspin", "export"])
def test_bad_plane_is_refused_for_csv_too(workdir, capsys, argv, plane):
    assert dispatch(_SPIN) == 0
    capsys.readouterr()
    assert dispatch(argv + ["--plane", plane]) == 1
    assert _one_error_line(capsys) == (
        f"spun4d: error: axes spec must be 3 distinct letters from 'xyzw', got {plane!r}")
    assert sorted(os.listdir(workdir)) == ["s.json", "s.json.manifest.json"]


@pytest.mark.parametrize("argv", [
    ["export", "s.json", "--format", "csv", "--out", "x.csv"],
    ["spin", "trefoil_spun", "--export", "csv", "--out", "x.csv"],
    ["spin", "trefoil_spun", "--out", "x.json"],
    ["twistspin", "trefoil_twist", "--k", "1", "--sweep", "w", "--count", "2"],
], ids=["export_csv", "spin_csv", "spin_surface", "twistspin_sweep"])
def test_plane_outside_a_mesh_export_is_refused(workdir, capsys, argv):
    # a CSV keeps all four coordinates, and a surface file or a sweep has no
    # projection: an explicit --plane would be ignored there
    assert dispatch(_SPIN) == 0
    capsys.readouterr()
    assert dispatch(argv + ["--plane", "xzw"]) == 1
    assert "--plane applies only to a mesh export" in _one_error_line(capsys)
    assert sorted(os.listdir(workdir)) == ["s.json", "s.json.manifest.json"]


@pytest.mark.parametrize("cmd", [["sweep", "s.json", "--count"],
                                 ["twistspin", "trefoil_twist", "--k", "2", "--sweep", "w", "--count"]])
@pytest.mark.parametrize("count", ["0", "-5"])
def test_count_below_one_is_one_error_line(workdir, capsys, cmd, count):
    assert dispatch(["spin", "trefoil_spun", "--out", "s.json"]) == 0
    assert dispatch(cmd + [count]) == 1
    assert "--count" in _one_error_line(capsys)
    assert sorted(os.listdir(workdir)) == ["s.json", "s.json.manifest.json"]


@pytest.mark.parametrize("pattern", ["x.json", "a{1}.json", "a{x}.json"])
def test_bad_out_pattern_is_one_error_line(workdir, capsys, pattern):
    assert dispatch(["spin", "trefoil_spun", "--out", "s.json"]) == 0
    assert dispatch(["slice", "s.json", "--values", "0,1.5", "--out-pattern", pattern]) == 1
    assert repr(pattern) in _one_error_line(capsys)
    assert sorted(os.listdir(workdir)) == ["s.json", "s.json.manifest.json"]


def test_polynomialize_and_slice_pipeline(workdir, capsys):
    assert dispatch(["spin", "trefoil_spun", "--out", "s.json"]) == 0
    assert dispatch(["polynomialize", "trefoil_spun", "--cheb-degree", "8",
                     "--out", "p.json"]) == 0
    out = capsys.readouterr().out
    assert "deviation" in out
    doc = json.loads((workdir / "p.json").read_text())
    assert doc["type"] == "surface4"
    # a catalog name is polynomialized as the spin surface file is
    assert dispatch(["polynomialize", "s.json", "--cheb-degree", "8", "--out", "q.json"]) == 0
    assert (workdir / "p.json").read_bytes() == (workdir / "q.json").read_bytes()
    assert dispatch(["slice", "s.json", "--axis", "w", "--values", "0,1.0",
                     "--out-pattern", "sl_{}.json"]) == 0
    assert (workdir / "sl_0.json").exists() and (workdir / "sl_1.json").exists()
    assert dispatch(["sweep", "p.json", "--axis", "w", "--count", "3",
                     "--out-pattern", "sw_{}.json"]) == 0
    assert (workdir / "sw_2.json").exists()


@pytest.mark.parametrize("cmd", [["polynomialize", "trefoil_spun", "--cheb-degree"],
                                 ["approx", "bernstein", "trefoil_spun", "--degree"]])
@pytest.mark.parametrize("degree", ["0", "-1"])
def test_degree_below_one_is_one_error_line(workdir, capsys, cmd, degree):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(cmd + [degree, "--out", "o.json"]) == 1
    assert f"got {degree}" in _one_error_line(capsys)
    assert os.listdir(workdir) == []


def test_approx_bernstein(workdir, capsys):
    assert dispatch(["approx", "bernstein", "trefoil_spun", "--degree", "8",
                     "--out", "b.json"]) == 0
    doc = json.loads((workdir / "b.json").read_text())
    assert doc["type"] == "polymap4"
    assert doc["source_t_dom"][1] > 2.0


def test_project_and_export(workdir):
    assert dispatch(["spin", "trefoil_spun", "--out", "s.json"]) == 0
    assert dispatch(["project", "s.json", "--plane", "xzw", "--out", "g.csv"]) == 0
    header = (workdir / "g.csv").read_text().splitlines()[0]
    assert header == "t,theta,x,z,w"
    assert dispatch(["export", "s.json", "--format", "ply", "--out", "m.ply"]) == 0
    assert (workdir / "m.ply").read_text().startswith("ply")


def test_idempotent_outputs(workdir):
    assert dispatch(["spin", "trefoil_spun", "--out", "a.json"]) == 0
    first = (workdir / "a.json").read_bytes()
    assert dispatch(["spin", "trefoil_spun", "--out", "a.json"]) == 0
    assert (workdir / "a.json").read_bytes() == first


def test_config_file_overrides(workdir, capsys):
    (workdir / "spun4d.json").write_text(json.dumps({"n_rank": 64, "n_inject": 64}))
    assert dispatch(["spin", "trefoil_spun", "--out", "s.json"]) == 0
    assert dispatch(["verify", "s.json"]) == 0
    man = json.loads((workdir / "s.json.report.json.manifest.json").read_text())
    assert man["tolerances"]["n_rank"] == 64
    (workdir / "spun4d.json").write_text(json.dumps({"bogus": 1}))
    assert dispatch(["catalog"]) == 1


@pytest.mark.parametrize("cfg", [
    {"n_rank": "abc"}, {"n_rank": True}, {"n_inject": 2.5},
    {"image_tol": 0}, {"rank_tol": -1e-6}, {"param_sep": "0.1"}, {"image_tol": None},
])
def test_bad_config_value_is_one_error_line(workdir, capsys, cfg):
    (workdir / "spun4d.json").write_text(json.dumps(cfg))
    assert dispatch(["spin", "trefoil_spun", "--verify"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("spun4d: error:")
    assert repr(next(iter(cfg))) in err[0]


@pytest.mark.parametrize("cfg, cmd, words", [
    ({"slice_n": 32}, ["slice", "s.json", "--values", "0"], "'slice_n' must be at least 64, got 32"),
    ({"grid_nt": 1}, ["project", "s.json", "--out", "g.csv"], "'grid_nt' must be at least 2, got 1"),
    ({"grid_ns": 1}, ["export", "s.json", "--format", "ply", "--out", "m.ply"],
     "'grid_ns' must be at least 2, got 1"),
], ids=["slice_n", "grid_nt", "grid_ns"])
def test_grid_size_config_below_its_least_names_the_file_and_key(workdir, capsys, cfg, cmd, words):
    assert dispatch(["spin", "trefoil_spun", "--out", "s.json"]) == 0
    capsys.readouterr()
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    assert dispatch(["--config", "cfg.json", *cmd]) == 1
    assert _one_error_line(capsys) == f"spun4d: error: cfg.json: config key {words}"
    assert sorted(os.listdir(workdir)) == ["cfg.json", "s.json", "s.json.manifest.json"]


_INT_CONFIG_LEAST = {"n_rank": 16, "n_inject": 16, "cheb_degree": 1, "grid_nt": 2, "grid_ns": 2, "slice_n": 64}


def test_every_integer_config_key_has_a_least():
    assert sorted(_INT_CONFIG_LEAST) == sorted(k for k, v in DEFAULT_CONFIG.items() if isinstance(v, int))


@pytest.mark.parametrize("key, least", _INT_CONFIG_LEAST.items(), ids=list(_INT_CONFIG_LEAST))
def test_an_integer_config_key_takes_its_least_and_refuses_below_it(workdir, capsys, key, least):
    # verify's sizes are refused in the scans' words, the others as config keys
    (workdir / "cfg.json").write_text(json.dumps({key: least}))
    assert dispatch(["--config", "cfg.json", "catalog"]) == 0
    capsys.readouterr()
    for below in sorted({least - 1, 0, -1}):
        (workdir / "cfg.json").write_text(json.dumps({key: below}))
        assert dispatch(["--config", "cfg.json", "catalog"]) == 1
        name = key if key in ("n_rank", "n_inject") else f"config key {key!r}"
        assert _one_error_line(capsys) == f"spun4d: error: cfg.json: {name} must be at least {least}, got {below}"


def test_invalid_config_json_names_the_file(workdir, capsys):
    (workdir / "bad.json").write_text("{'n_rank': 64}")
    assert dispatch(["--config", "bad.json", "catalog"]) == 1
    assert _one_error_line(capsys).startswith("spun4d: error: bad.json: not valid JSON")


@pytest.mark.parametrize("cmd", [["verify", "pic.json"], ["slice", "pic.json", "--values", "0"],
                                 ["--config", "pic.json", "catalog"]],
                         ids=["verify", "slice", "config"])
def test_file_that_is_not_utf8_names_the_file(workdir, capsys, cmd):
    # a PNG renamed .json
    (workdir / "pic.json").write_bytes(b"\x89PNG\r\n\x1a\n\x00\x00")
    assert dispatch(cmd) == 1
    assert _one_error_line(capsys).startswith("spun4d: error: pic.json: not valid JSON")
    assert os.listdir(workdir) == ["pic.json"]


def test_image_tol_below_its_least_is_one_error_line(workdir, capsys):
    assert dispatch(["spin", "trefoil_spun", "--out", "s.json"]) == 0
    capsys.readouterr()
    (workdir / "spun4d.json").write_text(json.dumps({"image_tol": 1e-200}))
    assert dispatch(["verify", "s.json"]) == 1
    assert "image_tol must be at least 2**-511" in _one_error_line(capsys)


def test_int_config_value_accepted_where_default_is_float(workdir):
    (workdir / "spun4d.json").write_text(json.dumps({"image_tol": 1, "param_sep": 0.25}))
    assert dispatch(["catalog"]) == 0


@pytest.mark.parametrize("doc, key", [
    ({"f": {"coeffs": [0.0, 1.0]}, "h": {"coeffs": [1.0, 0.0, -1.0]}}, "g"),
    ({"f": {"coeffs": [0.0, 1.0]}, "g": {}, "h": {"coeffs": [1.0, 0.0, -1.0]}}, "g"),
    ({"f": {"coeffs": [0.0, 1.0]}, "g": {"coeffs": [0.0, 0.0, 1.0]}}, "h"),
    ({"f": {"coeffs": [0.0, 1.0]}, "g": {"coeffs": [0.0, 0.0, 1.0]},
      "h": {"coeffs": [1.0, 0.0, -1.0]}, "interval_hint": [1.0]}, "interval_hint"),
    ({"f": {"coeffs": [0.0, 1.0]}, "g": {"coeffs": [0.0, 0.0, 1.0]},
      "h": {"coeffs": [1.0, 0.0, -1.0]}, "interval_hint": ["a", "b"]}, "interval_hint"),
])
def test_knot_file_missing_key_names_file_and_key(workdir, capsys, doc, key):
    (workdir / "k.json").write_text(json.dumps(doc))
    assert dispatch(["spin", "k.json"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("spun4d: error:")
    assert "k.json" in err[0] and repr(key) in err[0]


_KNOT = {"f": {"coeffs": [0.0, 1.0]}, "g": {"coeffs": [0.0, 0.0, 1.0]},
         "h": {"coeffs": [1.0, 0.0, -1.0]}}
_INF = float("inf")


@pytest.mark.parametrize("key, doc", [
    (key, {"coeffs": [1.0, bad, 0.0, -1.0]})
    for key in "fgh" for bad in [float("nan"), _INF, -_INF, True, "0", None]
] + [("interval_hint", bad) for bad in [
    [2.0, -2.0], [-_INF, 2.0], [-2.0, float("nan")], [1.0], [-2.0, 0.0, 2.0], 3.0,
    ["-2", "2"], [True, 2.0], None,
]])
def test_knot_file_bad_number_names_file_and_key(workdir, capsys, key, doc):
    (workdir / "k.json").write_text(json.dumps({**_KNOT, key: doc}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(["spin", "k.json"]) == 1
    line = _one_error_line(capsys)
    assert "'k.json'" in line and f"key {key!r}" in line
    assert os.listdir(workdir) == ["k.json"]


def test_knot_file_whose_height_touches_zero_inside_the_arc_is_refused(workdir, capsys):
    # h = (t - 0.3)^2 (4 - t^2) is positive at every one of the 1000 samples
    # inside [-2, 2] but touches zero at 0.3, where the spin would pinch
    h = np.polynomial.polynomial.polyfromroots([0.3, 0.3, -2.0, 2.0]) * -1.0
    (workdir / "touch.json").write_text(json.dumps({
        "name": "touch", "f": {"coeffs": [0.0, -3.0, 0.0, 1.0]},
        "g": {"coeffs": [0.0, -10.0, 0.0, 0.0, 0.0, 1.0]}, "h": {"coeffs": list(h)}}))
    assert dispatch(["spin", "touch.json", "--verify", "--out", "s.json"]) == 1
    line = _one_error_line(capsys)
    assert "'touch.json'" in line and "height of 'touch' has 3 roots" in line
    assert os.listdir(workdir) == ["touch.json"]


def test_knot_file_must_be_an_object(workdir, capsys):
    (workdir / "k.json").write_text(json.dumps([_KNOT]))
    assert dispatch(["spin", "k.json"]) == 1
    assert "'k.json' must be a JSON object" in _one_error_line(capsys)


def test_knot_file_whose_newton_meets_a_zero_lu_pivot_spins(workdir, capsys):
    from test_catalog import _seeded_curve

    f, g = _seeded_curve(5)
    (workdir / "lin.json").write_text(json.dumps(
        {"f": {"coeffs": list(f.coeffs)}, "g": {"coeffs": list(g.coeffs)},
         "h": {"coeffs": [4.0, 0.0, -1.0]}}))
    assert dispatch(["spin", "lin.json", "--verify"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "overall: pass"
    assert get_knot("lin.json").crossings == (pytest.approx((-1.81856, 1.77704), abs=1e-5),)


def test_knot_file_invalid_json_names_file(workdir, capsys):
    (workdir / "k.json").write_text("not json")
    assert dispatch(["spin", "k.json"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("spun4d: error:") and "k.json" in err[0]


_TWIST_DOMAIN = {"t_dom": [-1.0, 1.0], "s_dom": [0.0, 6.283185307179586]}
_POLY_COORD = {"coeffs": [[0.0, 1.0], [1.0, 0.0]]}


@pytest.mark.parametrize("doc,key", [
    ([1, 2, 3], "'type'"),
    ({"type": "surface4", "coords": [{"tag": "const", "value": 1.0}] * 4,
      "s_dom": [0.0, 1.0]}, "'t_dom'"),
    ({"type": "polymap4", "coords": [_POLY_COORD], **_TWIST_DOMAIN}, "'coords'"),
    ({"type": "surface4", "coords": [{"tag": "cosine", "k": 1}] * 4, **_TWIST_DOMAIN},
     "'cosine'"),
    ({"type": "surface4", "coords": [{"tag": "bump", "d1": 2.0, "d2": 1.0}] * 4, **_TWIST_DOMAIN},
     "d1"),
    ({"type": "surface4", "coords": [{"tag": "poly_t"}] * 4, **_TWIST_DOMAIN}, "'coeffs'"),
    ({"type": "mesh"}, "'type'"),
    ({"type": "surface4", "coords": [{"tag": "cos_k", "k": 10 ** 400}] * 4, **_TWIST_DOMAIN},
     "2**53"),
    ({"type": ["surface4"]}, "'type'"),
])
@pytest.mark.parametrize("cmd", [["project", "bad.json", "--out", "p.csv"],
                                 ["export", "bad.json", "--format", "obj", "--out", "p.obj"]])
def test_bad_surface_file_names_file_and_key(workdir, capsys, doc, key, cmd):
    (workdir / "bad.json").write_text(json.dumps(doc))
    assert dispatch(cmd) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("spun4d: error: bad.json:") and key in err[0]


def test_surface_file_beyond_the_term_bound_is_one_error_line(workdir, capsys):
    # five sums of ten distinct terms: their product has 10^5 distinct terms
    sums = [{"tag": "sum", "terms": [{"tag": "poly_t", "coeffs": [i + 1.0, j + 1.0]}
                                     for j in range(10)]} for i in range(5)]
    doc = {"type": "surface4", "coords": [{"tag": "product", "factors": sums}]
           + [{"tag": "const", "value": 0.0}] * 3, **_TWIST_DOMAIN}
    (workdir / "big.json").write_text(json.dumps(doc))
    assert dispatch(["verify", "big.json"]) == 1
    line = _one_error_line(capsys)
    assert line.startswith("spun4d: error: big.json: key 'coords'[0]:") and f"{MAX_TERMS} terms" in line
    assert os.listdir(workdir) == ["big.json"]


def test_surface_file_of_sixteen_two_term_factors_is_refused_at_once(workdir, capsys):
    # x is a product of 16 distinct two-term sums: 2^16 distinct terms, whose
    # factor arrays would stall the scans
    sums = [{"tag": "sum", "terms": [{"tag": "poly_t", "coeffs": [i + 1.0, 1.0]},
                                     {"tag": "poly_theta", "coeffs": [1.0, i + 1.0]}]}
            for i in range(16)]
    doc = {"type": "surface4", "coords": [{"tag": "product", "factors": sums}]
           + [{"tag": "const", "value": 0.0}] * 3, **_TWIST_DOMAIN}
    (workdir / "big.json").write_text(json.dumps(doc))
    start = time.perf_counter()
    assert dispatch(["verify", "big.json"]) == 1
    assert time.perf_counter() - start < 1.0
    line = _one_error_line(capsys)
    assert line.startswith("spun4d: error: big.json: key 'coords'[0]:") and f"{MAX_TERMS} terms" in line
    assert os.listdir(workdir) == ["big.json"]


def test_polynomialize_twist_file_with_bump_degree(workdir, capsys):
    import numpy as np

    from spun4d.surface import Surface4, max_grid_deviation
    from spun4d.twist import polynomialize_twist

    assert dispatch(["twistspin", "trefoil_twist", "--k", "2", "--out", "tw.json"]) == 0
    capsys.readouterr()
    assert dispatch(["polynomialize", "tw.json", "--bump-degree", "16", "--out", "pz.json"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    twist = Surface4.from_json(json.loads((workdir / "tw.json").read_text()))
    poly, dev = polynomialize_twist(twist, 8, 16)
    assert out == [f"max grid deviation from exact surface: {dev:.6e}"]
    assert np.isfinite(dev) and dev > 0.0
    reloaded = Surface4.from_json(json.loads((workdir / "pz.json").read_text()))
    assert reloaded == poly
    assert max_grid_deviation(reloaded, poly, 60, 60) == 0.0


def test_polynomialize_rejects_polymap_file(workdir, capsys):
    assert dispatch(["approx", "bernstein", "trefoil_spun", "--degree", "8", "--out", "b.json"]) == 0
    capsys.readouterr()
    assert dispatch(["polynomialize", "b.json"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "b.json" in err[0] and "'type'" in err[0]


def test_polynomialize_catalog_name_takes_any_degree_a_file_takes(workdir, capsys):
    assert dispatch(["polynomialize", "trefoil_spun", "--cheb-degree", "5", "--out", "p.json"]) == 0
    assert json.loads((workdir / "p.json").read_text())["type"] == "surface4"


def test_polynomialize_out_of_memory_is_one_error_line(workdir, capsys):
    # the degree-100000 Chebyshev interpolation asks numpy for a 74.5 GiB
    # Vandermonde matrix, which it refuses at once
    assert dispatch(["twistspin", "trefoil_twist", "--k", "3", "--out", "t3.json"]) == 0
    capsys.readouterr()
    assert dispatch(["polynomialize", "t3.json", "--cheb-degree", "100000"]) == 1
    assert "out of memory" in _one_error_line(capsys)
    assert sorted(os.listdir(workdir)) == ["t3.json", "t3.json.manifest.json"]


_TWIST_219 = ["twistspin", "trefoil_twist", "--t1", "-2.19", "--t2", "2.19", "--out", "s.json", "--k"]


@pytest.mark.parametrize("build, degree, warns", [
    (["spin", "trefoil_spun", "--out", "s.json"], "8", False),
    (["spin", "trefoil_spun", "--out", "s.json"], "6", True),
    (_TWIST_219 + ["3"], "24", False),
    (_TWIST_219 + ["5"], "24", True),
    (_TWIST_219 + ["10"], "60", True),
], ids=["spin_8", "spin_6", "twist_k3_24", "twist_k5_24", "twist_k10_60"])
def test_polynomialize_warns_when_the_fit_diverges(workdir, capsys, build, degree, warns):
    # a deviation beyond 1e-3 times the input's largest |coordinate| on the
    # deviation grid is one warning line and a manifest warning; the exit
    # code stays 0.  The k = 10 fit at degree 60 is off by about 5.5e32
    assert dispatch(build) == 0
    capsys.readouterr()
    assert dispatch(["polynomialize", "s.json", "--cheb-degree", degree, "--out", "p.json"]) == 0
    err = capsys.readouterr().err.strip().splitlines()
    warnings = json.loads((workdir / "p.json.manifest.json").read_text())["warnings"]
    if warns:
        assert len(err) == 1 and err[0].startswith("spun4d: warning: ") and "diverged" in err[0]
        assert warnings == [err[0].removeprefix("spun4d: warning: ")]
    else:
        assert err == [] and warnings == []


@pytest.mark.parametrize("cmd, degree", [(["twistspin", "trefoil_twist", "--k", "2"], "0"),
                                         (["spin", "trefoil_spun"], "-1"), ([], "-1")],
                         ids=["twist", "spin", "catalog"])
def test_polynomialize_refuses_bump_degree_below_one(workdir, capsys, cmd, degree):
    # a spin file and a catalog name have no bump, and are refused all the same
    written = []
    if cmd:
        assert dispatch(cmd + ["--out", "s.json"]) == 0
        written = ["s.json", "s.json.manifest.json"]
    capsys.readouterr()
    source = "s.json" if cmd else "trefoil_spun"
    assert dispatch(["polynomialize", source, "--bump-degree", degree]) == 1
    assert f"bump_degree must be at least 1, got {degree}" in _one_error_line(capsys)
    assert sorted(os.listdir(workdir)) == written


# -- the command frame ---------------------------------------------------------

_SMALL = {"n_rank": 40, "n_inject": 40, "grid_nt": 24, "grid_ns": 24, "slice_n": 64}
_SPIN = ["spin", "trefoil_spun", "--out", "s.json"]
_POLY = ["polynomialize", "trefoil_spun", "--cheb-degree", "8", "--out", "p.json"]

# the README's CLI commands, each after the commands that write its inputs
_README = [
    ([], ["catalog"]),
    ([], ["spin", "trefoil_spun", "--verify", "--export", "obj", "--out", "tref.obj"]),
    ([], ["twistspin", "trefoil_twist", "--k", "10", "--sweep", "w", "--count", "24"]),
    ([], _SPIN),
    ([_SPIN], ["verify", "s.json", "--knot", "trefoil_spun"]),
    ([], _POLY),
    ([], ["approx", "bernstein", "trefoil_spun", "--degree", "20", "--out", "b.json"]),
    ([_SPIN], ["project", "s.json", "--plane", "xzw", "--out", "grid.csv"]),
    ([_SPIN], ["slice", "s.json", "--axis", "w", "--values", "0,1.5"]),
    ([_POLY], ["sweep", "p.json", "--axis", "w", "--count", "24"]),
    ([_SPIN], ["export", "s.json", "--format", "ply", "--out", "mesh.ply"]),
]


def test_readme_cli_block_is_the_tested_command_list():
    # the sh block under "## CLI" in README.md, command for command
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    assert [line.split() for line in block.splitlines()] == [["spun4d"] + cmd for _, cmd in _README]


@pytest.mark.parametrize("setup, cmd", _README, ids=[" ".join(cmd[:2]) for _, cmd in _README])
def test_readme_command_writes_one_manifest_listing_its_outputs(workdir, capsys, setup, cmd):
    (workdir / "spun4d.json").write_text(json.dumps(_SMALL))
    for argv in setup:
        assert dispatch(argv) == 0
    before = set(os.listdir(workdir))
    assert dispatch(cmd) == 0
    written = set(os.listdir(workdir)) - before
    manifests = [p for p in written if p.endswith(".manifest.json")]
    if cmd == ["catalog"]:
        assert written == set()
        return
    assert len(manifests) == 1
    man = json.loads((workdir / manifests[0]).read_text())
    assert manifests[0] == man["outputs"][0] + ".manifest.json"
    assert sorted(man["outputs"]) == sorted(written - set(manifests))
    assert man["command"] == ["spun4d"] + cmd and man["warnings"] == []
    assert man["tolerances"]["slice_n"] == 64


@pytest.mark.parametrize("cmd, report, warning", [
    (["spin", "trefoil_spun", "--verify", "--out", "v.json"], "v.json.report.json",
     "verification failed; exports skipped"),
    (["verify", "s.json"], "s.json.report.json", "verification failed"),
])
def test_failed_verification_manifest_lists_the_report(workdir, capsys, cmd, report, warning):
    assert dispatch(_SPIN) == 0
    # no sampled Jacobian of the spin reaches a singular-value ratio of 0.5
    (workdir / "fail.json").write_text(json.dumps({"rank_tol": 0.5, "n_rank": 40, "n_inject": 40}))
    before = set(os.listdir(workdir))
    assert dispatch(["--config", "fail.json"] + cmd) == 2
    assert set(os.listdir(workdir)) - before == {report, report + ".manifest.json"}
    man = json.loads((workdir / (report + ".manifest.json")).read_text())
    assert man["outputs"] == [report] and man["warnings"] == [warning]
    assert "overall: FAIL" in capsys.readouterr().out


def test_spin_command_loads_no_scipy(tmp_path):
    # scipy.spatial costs more to import than a whole command takes; the
    # injectivity scan of the verifying commands needs numpy alone
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for cmd in (_SPIN, ["spin", "trefoil_spun", "--verify", "--out", "v.json"],
                ["verify", "s.json", "--knot", "trefoil_spun"]):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "spun4d.cli"] + cmd,
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        imported = [ln.rsplit("|", 1)[-1].strip() for ln in proc.stderr.splitlines()
                    if ln.startswith("import time:")]
        assert "spun4d.verify" in imported
        assert [m for m in imported if m.split(".")[0] == "scipy"] == [], cmd


def test_verify_constant_map_reports_at_least_the_cap(workdir, capsys):
    # every pair of samples of a constant map collides; the scan stops at the cap
    const = {"type": "polymap4", "coords": [{"coeffs": [[c]]} for c in (1.0, 2.0, 3.0, 4.0)],
             "t_dom": [-1.0, 1.0], "s_dom": [-1.0, 1.0]}
    (workdir / "c.json").write_text(json.dumps(const))
    (workdir / "cfg.json").write_text(json.dumps({"n_rank": 16, "n_inject": 64}))
    assert dispatch(["--config", "cfg.json", "verify", "c.json"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert "injectivity: FAIL (at least 65536 collision(s))" in out
    report = json.loads((workdir / "c.json.report.json").read_text())
    assert report["collisions_capped"] is True and len(report["collisions"]) == 65536



# -- inputs that used to end in a traceback or a warning ------------------------

_DEEP = '{"tag": "sum", "terms": [' * 600 + "]}" * 600


@pytest.mark.parametrize("name, text, cmd", [
    ("deep.json", '{"type": "surface4", "coords": [' + _DEEP + "]}",
     ["project", "deep.json", "--out", "x.csv"]),
    ("deepknot.json", '{"f": ' + _DEEP + "}", ["spin", "deepknot.json"]),
    ("deepcfg.json", '{"n_rank": ' + _DEEP + "}", ["--config", "deepcfg.json", "catalog"]),
], ids=["surface", "knot", "config"])
def test_deeply_nested_json_is_one_error_line(workdir, capsys, name, text, cmd):
    (workdir / name).write_text(text)
    assert dispatch(cmd) == 1
    line = _one_error_line(capsys)
    assert name in line and "not valid JSON" in line
    assert os.listdir(workdir) == [name]


@pytest.mark.parametrize("c", [1e300, 1e200])
def test_knot_file_overflowing_plane_curve_is_one_error_line(workdir, capsys, c):
    (workdir / "big.json").write_text(json.dumps(
        {"f": {"coeffs": [0, c]}, "g": {"coeffs": [0, 0, c]}, "h": {"coeffs": [1, 0, -1]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(["spin", "big.json"]) == 1
    line = _one_error_line(capsys)
    assert "'big.json'" in line and "overflow" in line
    assert os.listdir(workdir) == ["big.json"]


@pytest.mark.parametrize("flags, words", [
    (["--d1", "1", "--d2", "10"], ["d2=10.0", "6.47214"]),
    (["--d1", "1", "--d2", "inf"], ["d2=inf", "6.47214"]),
    (["--t1", "inf", "--t2", "2.19"], ["t1=inf", "[-2.54404, 2.54404]"]),
    (["--k", str(2 ** 53 + 1)], ["2**53"]),
])
def test_twist_flags_outside_their_range_are_one_error_line(workdir, capsys, flags, words):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(["twistspin", "trefoil_twist", "--k", "2"] + flags) == 1
    line = _one_error_line(capsys)
    assert all(w in line for w in words), line
    assert os.listdir(workdir) == []


@pytest.mark.parametrize("argv, flag", [
    (["twistspin", "trefoil_twist", "--k=--"], "--k"),
    (["twistspin", "trefoil_twist", "--k", "2", "--t1=--", "--t2", "2.19"], "--t1"),
    (["slice", "s.json", "--values=--"], "--values"),
    (["export", "s.json", "--format", "obj", "--plane=--", "--out", "m.obj"], "--plane"),
])
def test_lone_double_dash_as_a_value_is_a_usage_error(workdir, capsys, argv, flag):
    # argparse stores [] for "--opt=--" instead of refusing it
    assert dispatch(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: spun4d")
    assert err[-1] == f"spun4d: error: argument {flag}: expected one argument"


@pytest.mark.parametrize("k", ["0", "1", "360", "720"])
def test_twist_height_precheck_sees_every_rotation_angle(workdir, capsys, k):
    # the short trefoil's knotted part dips below the boundary plane for every
    # k >= 1; the check takes the least height over the rotation angle
    # phi = k theta itself, where a 360-point theta grid would see only
    # multiples of 2 pi as k theta for k = 360 and k = 720
    argv = ["twistspin", "trefoil_spun", "--k", k, "--t1", "-2.1", "--t2", "2.1"]
    if k == "0":
        assert dispatch(argv) == 0
        return
    assert dispatch(argv) == 1
    line = _one_error_line(capsys)
    assert os.listdir(workdir) == []
    arc = get_knot("trefoil_spun")
    axis = make_axis(arc, -2.1, 2.1)
    bump = choose_bump(arc, axis)
    with pytest.raises(PlaneCrossing) as exc:
        twist_spin(arc, axis, bump, int(k))
    assert line == f"spun4d: error: {exc.value}"
    assert_exact_plane_crossing(arc, axis, bump, int(k), exc.value)


@pytest.mark.parametrize("f, h", [
    # 1e308 (1 - t^2): root isolation would overflow and count 257 roots
    ([0, 1], [1e308, 0, -1e308]),
    # t + 1e-300 t^1100 on [-2, 2]: finite samples, but its scale 2^1100 overflows
    ([0, 1] + [0] * 1098 + [1e-300], [4, 0, -1]),
], ids=["height", "curve_scale"])
def test_knot_file_overflowing_scale_is_one_error_line(workdir, capsys, f, h):
    (workdir / "big.json").write_text(json.dumps(
        {"f": {"coeffs": f}, "g": {"coeffs": [0, 0, 1]}, "h": {"coeffs": h}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(["spin", "big.json"]) == 1
    line = _one_error_line(capsys)
    assert "'big.json'" in line and "overflow" in line
    assert os.listdir(workdir) == ["big.json"]


def test_knot_file_with_a_tiny_high_degree_term_spins(workdir):
    # 1 - t^2 - 1e-300 t^700 has the roots +-1; its coefficients bound it on
    # [-2, 2] by 5 + 5e-90, far below max |c| * 2^700 = 5e210
    h = [1.0, 0.0, -1.0] + [0.0] * 697 + [-1e-300]
    (workdir / "tiny.json").write_text(json.dumps(
        {"f": {"coeffs": [0, 1]}, "g": {"coeffs": [0, 0, 1]}, "h": {"coeffs": h},
         "interval_hint": [-2, 2]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(["spin", "tiny.json", "--out", "s.json"]) == 0
    assert os.path.exists(workdir / "s.json")


@pytest.mark.parametrize("cfg, words", [({"n_inject": 1}, "n_inject must be at least 16, got 1"),
                                        ({"param_sep": 5}, "param_sep must be in (0, 1)")])
def test_scan_setting_that_cannot_fail_is_one_error_line(workdir, capsys, cfg, words):
    # a 1x1 grid has no pair to test; normalized parameters lie at most sqrt(2)
    # apart, so no pair is ever separated by more than param_sep = 5
    assert dispatch(["spin", "trefoil_spun", "--out", "s.json"]) == 0
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dispatch(["--config", "cfg.json", "verify", "s.json", "--knot", "trefoil_spun"]) == 1
    assert words in _one_error_line(capsys)
    assert not os.path.exists(workdir / "s.json.report.json")


@pytest.mark.parametrize("h", [
    [-1, 0, 1],          # t^2 - 1: negative between its roots
    [-1, 0, 2, 0, -1],   # -(t^2 - 1)^2: double roots at +-1, nowhere positive
], ids=["negative", "double_roots"])
def test_knot_file_height_not_positive_between_roots_is_one_error_line(workdir, capsys, h):
    (workdir / "h.json").write_text(json.dumps(
        {"f": {"coeffs": [0, 1]}, "g": {"coeffs": [0, 0, 1]}, "h": {"coeffs": h}}))
    assert dispatch(["spin", "h.json", "--out", "s.json"]) == 1
    line = _one_error_line(capsys)
    assert "'h.json'" in line and "positive between its roots" in line
    assert os.listdir(workdir) == ["h.json"]


@pytest.mark.parametrize("argv", [
    ["verify", "big.json"],
    ["slice", "big.json", "--axis", "y", "--values", "0"],
    ["sweep", "big.json", "--axis", "y", "--count", "3"],
    ["project", "big.json", "--plane", "xyz", "--out", "p.csv"],
    ["export", "big.json", "--format", "obj", "--out", "b.obj"],
], ids=lambda argv: argv[0])
def test_verify_overflowing_map_is_one_error_line_without_warnings(tmp_path, argv):
    # x = 1e308 t on [-10, 10]: finite coefficients whose partials' squares and
    # samples overflow; nothing is written
    doc = {"type": "polymap4", "t_dom": [-10.0, 10.0], "s_dom": [-1.0, 1.0],
           "coords": [{"coeffs": [[0.0], [1e308]]}, {"coeffs": [[0.0, 1.0]]},
                      {"coeffs": [[1.0]]}, {"coeffs": [[2.0]]}]}
    (tmp_path / "big.json").write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "spun4d.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    err = proc.stderr.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("spun4d: error:") and "not finite" in err[0]
    assert os.listdir(tmp_path) == ["big.json"]


_ZERO = {"tag": "const", "value": 0.0}
# x = 1e308 t on [-10, 10]: finite coefficients, samples that overflow
_OVERFLOWING_X = {"tag": "poly_t", "coeffs": [0.0, 1e308]}
_WIDE = [-10.0, 10.0]
# 1.7e308 on the lattice row t = 0 and 0 on the others (the bump is 0 for |t| >= 0.2):
# the degree-8 fit's t^4 coefficient is 70 * 6 / 256 times 1.7e308
_MIDDLE_ROW_X = {"tag": "product", "factors": [{"tag": "const", "value": 1.7e308},
                                               {"tag": "bump", "d1": 0.01, "d2": 0.04}]}
# 0.85e308 (1 + theta / 10) on the lattice row t = 0, and 0 on the others: samples up
# to 1.7e308, and a degree-8 fit whose finite coefficients sum, on the lattice, to
# values within 0.26 times the largest double (a Bernstein fit's values there are
# means of the samples), but whose rank-K theta-row for t^4, (70 * 6 / 256) 0.85e308
# (1 + s), is 1.55 times the largest double at s = 1 in exact arithmetic: it
# overflows in any order of its sum
_OVERFLOWING_ROWS_X = {"tag": "product", "factors": [{"tag": "const", "value": 0.85e308},
                                                     {"tag": "bump", "d1": 0.01, "d2": 0.04},
                                                     {"tag": "poly_theta", "coeffs": [1.0, 0.1]}]}


def _x_surface(x, t_dom, s_dom=(0.0, 2.0 * math.pi)):
    return {"type": "surface4", "t_dom": t_dom, "s_dom": list(s_dom),
            "coords": [x, _ZERO, _ZERO, _ZERO]}


@pytest.mark.parametrize("argv, x, dom, message", [
    (["approx", "bernstein", "big.json", "--degree", "8"], _OVERFLOWING_X, _WIDE, "not finite"),
    (["polynomialize", "big.json"], _OVERFLOWING_X, _WIDE, "not finite"),
    (["approx", "bernstein", "big.json", "--degree", "8"], _MIDDLE_ROW_X, _WIDE,
     "coordinate x of the degree-8 Bernstein fit has a coefficient beyond double range"),
    (["approx", "bernstein", "big.json", "--degree", "8"], _OVERFLOWING_ROWS_X, _WIDE,
     "the Bernstein fit on its lattice: an image is not finite"),
], ids=["bernstein_samples", "polynomialize", "bernstein_coefficient", "bernstein_fit_image"])
def test_fit_of_an_overflowing_surface_is_one_error_line(workdir, capsys, argv, x, dom, message):
    (workdir / "big.json").write_text(json.dumps(_x_surface(x, dom, dom)))
    assert dispatch(argv) == 1
    assert message in _one_error_line(capsys)
    assert os.listdir(workdir) == ["big.json"]


@pytest.mark.parametrize("argv", [["approx", "bernstein", "big.json", "--degree", "8"],
                                  ["polynomialize", "big.json", "--cheb-degree", "8"]],
                         ids=lambda argv: argv[0])
def test_distance_of_a_huge_finite_surface_is_finite(workdir, capsys, argv):
    # x = a cos 4 theta: at a = 1e200 the squares of a plain norm overflow
    values = []
    for a in (1.0, 1e200):
        x = {"tag": "product", "factors": [{"tag": "const", "value": a}, {"tag": "cos_k", "k": 4}]}
        (workdir / "big.json").write_text(json.dumps(_x_surface(x, [-1.0, 1.0])))
        assert dispatch(argv) == 0
        (line,) = capsys.readouterr().out.strip().splitlines()
        values.append(float(line.rsplit(":", 1)[1]))
    assert 0.5 < values[0] < 2.0
    assert values[1] == pytest.approx(1e200 * values[0], rel=1e-6)


def test_max_distance_scales_only_when_the_plain_norm_overflows():
    import numpy as np

    from spun4d.surface import _max_distance

    rng = np.random.default_rng(7)
    pa, pb = rng.normal(size=(2, 30, 30, 4))
    plain = _max_distance(pa, pb, "p")
    assert plain == float(np.max(np.linalg.norm(pa - pb, axis=-1)))
    # a power of two scales the distance exactly, also through the rescaled path
    assert _max_distance(pa * 2.0 ** 1000, pb * 2.0 ** 1000, "p") == plain * 2.0 ** 1000
    assert _max_distance(pa * 2.0 ** 1000, -pa * 2.0 ** 1000, "p") > 1e300
    big = np.zeros((1, 4))
    big[0, 0] = 1.7e308
    with pytest.raises(ValueError, match="beyond double range"):
        _max_distance(big, -big, "p")


# -- every input rule before any work -----------------------------------------

def test_count_below_one_is_refused_before_the_twist_is_built(workdir, capsys, monkeypatch):
    import spun4d.cli as cli

    called = []
    for name in ("get_knot", "twist_spin", "verify_surface"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _n=name, _r=real, **k: called.append(_n) or _r(*a, **k))
    argv = ["twistspin", "trefoil_twist", "--k", "10", "--verify", "--sweep", "w", "--count", "0"]
    assert dispatch(argv) == 1
    assert "--count must be at least 1, got 0" in _one_error_line(capsys)
    assert called == [] and os.listdir(workdir) == []


@pytest.mark.parametrize("flags", [["--t1", "-2.19"], ["--t2", "2.19"], ["--d1", "0.5"], ["--d2", "3"]])
def test_half_a_flag_pair_is_refused_before_the_arc_is_built(workdir, capsys, monkeypatch, flags):
    import spun4d.cli as cli

    monkeypatch.setattr(cli, "get_knot", lambda name: pytest.fail("the arc was built"))
    assert dispatch(["twistspin", "trefoil_twist", "--k", "1", *flags]) == 1
    assert "must be given together" in _one_error_line(capsys)


@pytest.mark.parametrize("cfg, words", [
    ({"param_sep": 5}, "param_sep must be in (0, 1), got 5"),
    ({"image_tol": 1e-200}, "image_tol must be at least 2**-511"),
    ({"rank_tol": 2}, "rank_tol must be in (0, 1), got 2"),
    ({"n_inject": 8}, "n_inject must be at least 16, got 8"),
], ids=["param_sep", "image_tol", "rank_tol", "n_inject"])
def test_a_config_that_verify_would_refuse_is_refused_at_load(workdir, capsys, cfg, words):
    assert dispatch(_SPIN) == 0
    capsys.readouterr()
    before = sorted(os.listdir(workdir))
    (workdir / "cfg.json").write_text(json.dumps(cfg))
    for cmd in (["export", "s.json", "--format", "ply", "--out", "m.ply"], ["catalog"],
                ["spin", "trefoil_spun", "--out", "t.json"], ["verify", "s.json"]):
        assert dispatch(["--config", "cfg.json", *cmd]) == 1
        line = _one_error_line(capsys)
        assert line.startswith("spun4d: error: cfg.json: ") and words in line
    assert sorted(os.listdir(workdir)) == sorted(before + ["cfg.json"])


def test_a_config_is_refused_before_the_surface_file_is_opened(workdir, capsys):
    # s.json does not exist: the refusal is the config's
    (workdir / "spun4d.json").write_text(json.dumps({"image_tol": 1e-200}))
    assert dispatch(["verify", "s.json"]) == 1
    assert _one_error_line(capsys).startswith("spun4d: error: spun4d.json: image_tol must be at least")


_HUGE = "1" + "0" * 400  # a JSON integer beyond double range


@pytest.mark.parametrize("name, text, cmd", [
    ("k.json", '{"f": {"coeffs": [0, ' + _HUGE + ']}, "g": {"coeffs": [0, 0, 1]}, '
     '"h": {"coeffs": [1, 0, -1]}}', ["spin", "k.json"]),
    ("cfg.json", '{"image_tol": ' + _HUGE + "}", ["--config", "cfg.json", "catalog"]),
    ("s.json", '{"type": "polymap4", "coords": [{"coeffs": [[' + _HUGE + ']]}, {"coeffs": [[0]]}, '
     '{"coeffs": [[0]]}, {"coeffs": [[0]]}], "t_dom": [-1, 1], "s_dom": [-1, 1]}',
     ["project", "s.json", "--out", "g.csv"]),
], ids=["knot", "config", "surface"])
def test_an_integer_beyond_double_range_is_one_error_line(workdir, capsys, name, text, cmd):
    (workdir / name).write_text(text)
    assert dispatch(cmd) == 1
    line = _one_error_line(capsys)
    assert name in line and "expected a finite number" in line
    assert os.listdir(workdir) == [name]


def test_twistspin_of_a_crossing_free_arc_takes_the_default_axis_and_verifies(workdir, capsys):
    # figure8_spun has no crossing interval: its default axis spans the middle half of [a, b]
    assert dispatch(["twistspin", "figure8_spun", "--k", "1", "--verify", "--out", "f8.json"]) == 0
    assert "overall: pass" in capsys.readouterr().out
    assert json.loads((workdir / "f8.json").read_text())["type"] == "surface4"


def test_spin_export_csv_writes_the_grid(workdir):
    assert dispatch(["spin", "trefoil_spun", "--export", "csv", "--out", "s.csv"]) == 0
    lines = (workdir / "s.csv").read_text().splitlines()
    assert lines[0] == "t,theta,x,y,z,w" and len(lines) == 1 + 200 * 200
    assert json.loads((workdir / "s.csv.manifest.json").read_text())["outputs"] == ["s.csv"]


def test_twistspin_axis_ends_at_one_plane_point_is_one_error_line(workdir, capsys):
    assert dispatch(["twistspin", "figure8_spun", "--k", "1", "--t1", "0.5", "--t2", "0.5"]) == 1
    assert _one_error_line(capsys) == "spun4d: error: axis endpoints project to the same plane point"
    assert os.listdir(workdir) == []


def test_verify_refuses_a_surface_file_whose_flag_is_not_a_bool(workdir, capsys):
    assert dispatch(["spin", "trefoil_spun", "--out", "s.json"]) == 0
    doc = json.loads((workdir / "s.json").read_text())
    (workdir / "s.json").write_text(json.dumps({**doc, "pole_low": 1}))
    capsys.readouterr()
    assert dispatch(["verify", "s.json"]) == 1
    assert _one_error_line(capsys) == "spun4d: error: s.json: key 'pole_low' must be true or false, got 1"
