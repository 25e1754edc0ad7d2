"""The package's outputs against the digests committed in
``tests/data/output_digests.json``.

``tools/output_digests.py`` writes the digests of this checkout (the README's
CLI commands from ``perfbench/workloads.py``, the files they write, library
outputs and refusals of malformed input) and compares them with the
committed file.  Any moved entry fails the test, which names each one by
section.  The message also names each difference between the environment
the committed file was made in (Python, numpy, platform) and this one; a
different environment does not by itself fail the test, and a moved digest
fails it in any environment.  A change that moves an output by design
writes the file again with

    python tools/output_digests.py . tests/data/output_digests.json

and lists each moved entry, with its reason, where the change is recorded.
"""

import contextlib
import importlib.util
import io
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "output_digests.py")
COMMITTED = os.path.join(ROOT, "tests", "data", "output_digests.json")


def _compare(path_a, path_b):
    """The tool's ``compare`` of two digest files: its exit code and what it printed."""
    spec = importlib.util.spec_from_file_location("output_digests", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tool.compare(path_a, path_b)
    return code, out.getvalue()


def test_outputs_match_the_committed_digests(tmp_path):
    path = tmp_path / "digests.json"
    proc = subprocess.run([sys.executable, TOOL, ROOT, str(path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, report = _compare(COMMITTED, str(path))
    assert code == 0, f"outputs moved from {COMMITTED} (A) in this checkout (B):\n{report}"
