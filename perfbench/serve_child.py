"""Traced server: ``python -m repro serve`` with the layer wrappers on.

Usage: ``serve_child.py TRACE_OUT serve --kb PATH ...``.  Installs the
serve-layer wrappers, runs ``repro``'s ``__main__`` with the remaining
arguments, and writes the tracer's totals to ``TRACE_OUT`` once the
server has shut down (after SIGINT has drained its ingest queue).
"""

import json
import runpy
import sys


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    from layers import install_serve_layers
    from tracer import Tracer

    tracer = Tracer()
    install_serve_layers(tracer)
    sys.argv = ["repro"] + argv
    code = 0
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(trace_out, "w") as fh:
            json.dump(tracer.totals(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
