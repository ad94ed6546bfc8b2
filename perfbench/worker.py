"""One pass of a workload in a fresh process.

Reads ``{"ops": [...], "trace": bool}`` as JSON on stdin, runs the
operations one after another, and prints one JSON line: per-operation
time, exit code and output, the process's peak RSS and, when tracing,
the per-layer aggregate.  The output checks run in the parent, so this
process does only the program's work.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time
import traceback


def _iterated_pairs(sf, ring: str, steps: int) -> str:
    reports = sf.theorems.iterated_pairs(sf.finring.parse_ring(ring), steps)
    return "\n".join(r.to_json() for r in reports) + "\n"


LIBRARY_CALLS = {"iterated_pairs": _iterated_pairs}


def run_op(sf, op: dict) -> tuple[int | None, str]:
    if "argv" in op:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = sf.cli.main(list(op["argv"]))
        return rc, out.getvalue() + err.getvalue()
    return 0, LIBRARY_CALLS[op["lib"]](sf, *op["args"])


def main() -> None:
    request = json.load(sys.stdin)
    import numpy
    import spectra_forge
    import spectra_forge.cli  # noqa: F401  (the package does not import it)

    tracer = None
    if request["trace"]:
        from tracer import Tracer    # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()

    results, bounds = [], []
    clock = time.perf_counter
    for op in request["ops"]:
        first = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.active = True
        start = clock()
        try:
            rc, text = run_op(spectra_forge, op)
        except Exception:      # a crash is a failed operation, not a lost pass
            rc, text = None, traceback.format_exc()
        seconds = clock() - start
        if tracer:
            tracer.active = False
        bounds.append((first, len(tracer.spans) if tracer else 0))
        results.append({"seconds": seconds, "rc": rc, "text": text})

    reply = {
        "ops": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer:
        whole = tracer.aggregate()
        reply["trace"] = {
            "layers": whole["layers"],
            "untraced_s": sum(r["seconds"] for r in results) - whole["top_level_s"],
            "per_op": [{name: v["self_s"] for name, v in tracer.aggregate(a, b)["layers"].items()}
                       for a, b in bounds],
            "wrapped": tracer.wrapped,
        }
    sys.stdout.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
