"""One spun4d CLI command with the tracing wrappers installed.

    python3 perfbench/cli_runner.py <spans.json> <checkout root> <spun4d args...>

Imports spun4d from the checkout's src/ (timing the import), installs the
wrappers, calls ``spun4d.cli.dispatch`` with the arguments, writes the spans
and the import time to <spans.json> and exits with the command's exit code.
"""

import os
import sys
from time import perf_counter


def main() -> int:
    spans_path, root, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = perf_counter()
    import spun4d
    import_s = perf_counter() - t0

    from tracing import Tracer
    from workloads import check_provenance

    check_provenance(spun4d.__file__, root)
    tracer = Tracer()
    tracer.install()
    try:
        rc = spun4d.cli.dispatch(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, import_s=import_s)
    return rc


if __name__ == "__main__":
    sys.exit(main())
