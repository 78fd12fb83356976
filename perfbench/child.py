"""One cold run of a workload, in a fresh interpreter started by run.py.

Usage: python3 perfbench/child.py REQUEST.json

The request names the mode (``setup``: imports only; ``suites``: call
bweyl.suites functions in the planned order; ``cli``: call bweyl.cli.main
in-process, used for the traced CLI run), the bweyl modules the workload
uses, whether to install the tracing wrappers, and where to write the
result.  Timestamps are time.monotonic() values, which run.py can compare
with its own because the clock is system-wide.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        request = json.load(fh)
    import numpy

    import bweyl

    src = os.path.realpath(os.path.join(request["root"], "src"))
    if not os.path.realpath(bweyl.__file__).startswith(src + os.sep):
        print(f"bweyl was imported from {bweyl.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    for name in request["modules"]:
        importlib.import_module(f"bweyl.{name}")
    result = {
        "setup_end": time.monotonic(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    mode = request["mode"]
    if mode != "setup":
        tracer = None
        if request["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(bweyl, request.get("trace_dir"))
        result["start"] = time.monotonic()
        if mode == "suites":
            from workloads import SUITE_FUNCTIONS, canonical_digest, count_checks

            suites = importlib.import_module("bweyl.suites")
            reports = [
                getattr(suites, SUITE_FUNCTIONS[suite])(*point).as_dict()
                for suite, point in request["plan"]
            ]
            result["end"] = time.monotonic()
            result["digest"] = canonical_digest(reports)
            result["checks"], result["failed"] = count_checks(reports)
            result["failed_checks"] = [
                [r["suite"], r["params"], c["check"]]
                for r in reports for c in r["checks"] if not c["passed"]
            ][:5]
        else:
            cli = importlib.import_module("bweyl.cli")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                result["exit_code"] = cli.main(request["argv"])
            result["end"] = time.monotonic()
            with open(request["stdout_path"], "w") as fh:
                fh.write(out.getvalue())
        if tracer is not None:
            result["trace"] = tracer.snapshot()
    tmp = request["result_path"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, request["result_path"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
