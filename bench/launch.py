"""Run one quandlekit CLI call with the benchmark's layer tracing installed.

    PYTHONPATH=src python3 bench/launch.py TRACE_FILE -- ARGV...

Behaves like `python -m quandlekit.cli ARGV...` (same stdout, stderr and
exit code) and writes the call's per-layer sums to TRACE_FILE as JSON.
Kernel chunks run by forked pool workers land in TRACE_FILE.kernel-*.jsonl.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_file, argv = sys.argv[1], sys.argv[3:]
    t0 = perf_counter()
    import quandlekit  # noqa: F401
    import_s = perf_counter() - t0
    import quandlekit.cli

    from tracing import Tracer

    tracer = Tracer(sidecar=trace_file)
    tracer.install()
    try:
        code = quandlekit.cli.main(argv)
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(trace_file, "w") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
