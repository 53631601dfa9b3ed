"""Traced stand-in for `python -m rewirelab.cli`, used by the cli-pipeline trace run.

    python3 perfbench/launcher.py SPAN_FILE OP_ID -- <rewirelab arguments>

Times `import rewirelab.cli`, installs the same layer spans as the in-process
runs, calls `rewirelab.cli.main` with the arguments, writes the spans,
counters and import time to SPAN_FILE as JSON, and exits with main's code.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    span_file, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: launcher.py SPAN_FILE OP_ID -- ARGS...", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    import rewirelab.cli

    import_ms = (time.perf_counter() - t0) * 1e3
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.op = op_id
    code = 2
    try:
        code = rewirelab.cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        with open(span_file, "w") as fh:
            json.dump({"import_ms": import_ms, "spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
