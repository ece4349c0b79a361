"""One measured sweep in a fresh interpreter.

Usage: python3 child.py [--trace SPANS_PATH]

Imports the library the way the `qchar` command does, derives the lazy
quasi-R constants, prints "ready" (the harness times set-up up to that line),
then reads a JSON list of ops on stdin, runs them one at a time and prints one
JSON object with a record per op.  With an empty op list it only sets up.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def calibrate() -> float:
    """Time a fixed pure-Python dict loop (about 0.4 ms).  It uses no library
    code, so its time tracks only how fast the machine runs at that moment."""
    start = time.perf_counter()
    d: dict = {}
    for i in range(3000):
        k = i % 97
        d[k] = d.get(k, 0) + i * 7
    return time.perf_counter() - start


def sweep(ops: list[dict], tracer=None) -> list[dict]:
    """Run the ops in order; each record holds the op's seconds, a calibration
    burst timed right after it, and either its output digest or its error."""
    calls = [workloads.prepare(op) for op in ops]
    records = []
    for i, (op, call) in enumerate(zip(ops, calls)):
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # an op that raises is a recorded failure
            out = exc
        record = {"key": op["key"], "s": time.perf_counter() - start, "cal": calibrate()}
        if isinstance(out, Exception):
            record.update(error=type(out).__name__, detail=str(out)[:300])
        else:
            form = workloads.canonical_form(op, out)
            record.update(digest=workloads.digest(form), invariants=workloads.invariants_hold(op, form))
        records.append(record)
    return records


def main(argv) -> int:
    sys.path.insert(0, SRC)
    import qchar.cli  # the command's full import graph
    from qchar import tensor_space

    tensor_space.zeta_constants()
    print("ready", flush=True)

    ops = json.load(sys.stdin)
    result = {"qchar_file": qchar.cli.__file__}
    if "--trace" in argv:
        from tracer import Tracer

        spans_path = argv[argv.index("--trace") + 1]
        tracer = Tracer()
        with tracer.installed():
            result["records"] = sweep(ops, tracer)
        result["trace"] = tracer.metrics()
        with open(spans_path, "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        result["records"] = sweep(ops)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
