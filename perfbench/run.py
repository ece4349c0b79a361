"""The qchar benchmark: exact-algebra sweeps driven through the public library.

    python3 perfbench/run.py --workload s_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --write-reference

Each sweep runs in a fresh interpreter (child.py), because users of the
`qchar` command pay the cold library caches on every run.  The load is a
closed loop: one process, one op at a time, op order shuffled by the seed.
Sweeps repeat until the next one would overrun --seconds.  Times are
scaled to a reference machine speed by calibration bursts timed between ops
(see README.md).  With --trace 1 the
run alternates untraced and traced sweeps of the same order and reports the
per-layer metrics plus the tracing overhead; otherwise it reports the
end-to-end metrics.  Every op's output is checked against reference.json.
The last line of stdout is one JSON object; a copy of the result with its
provenance and failure list goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 8  # set-up is short and noisy: report the median of many
CHILD_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from child import calibrate  # noqa: E402

# Reported times are scaled to a machine on which one calibration burst takes
# CAL_REF_S, using the median of the bursts measured around each op.
CAL_REF_S = 0.0004
CAL_WINDOW = 5


class BenchError(RuntimeError):
    """The benchmark could not run (missing sources, child crash, stale
    reference); no result is printed."""


def spawn(ops: list[dict], spans_path: Path | None = None) -> tuple[float, dict]:
    """Run one sweep in a fresh interpreter; return (set-up seconds, result)."""
    cmd = [sys.executable, str(HERE / "child.py")]
    if spans_path is not None:
        cmd += ["--trace", str(spans_path)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    speed = statistics.median(calibrate() for _ in range(2 * CAL_WINDOW + 1))
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = (perf_counter() - start) * CAL_REF_S / speed
        out, _ = proc.communicate(json.dumps(ops).encode())
    finally:
        watchdog.cancel()
        watchdog.join()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"sweep process failed (exit {proc.returncode})")
    result = json.loads(out)
    if Path(result["qchar_file"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"library imported from {result['qchar_file']}, not {SRC}")
    return setup, result


def shuffled(ops: list[dict], seed: int) -> list[dict]:
    order = list(ops)
    random.Random(seed).shuffle(order)
    return order


# ---------------------------------------------------------------------------
# Correctness.
# ---------------------------------------------------------------------------


def check(ops: list[dict], records: list[dict], reference: dict) -> tuple[list[str], list[dict]]:
    """Compare one sweep with the reference; return (problems, failures).

    An op with a reference digest must reproduce it.  An op that raised at
    the reference may raise again (a recorded failure) or must now pass the
    invariant checks.
    """
    by_key = {op["key"]: op for op in ops}
    problems, failures = [], []
    if sorted(r["key"] for r in records) != sorted(by_key):
        problems.append("sweep did not run every op exactly once")
    for rec in records:
        op, ref = by_key[rec["key"]], reference.get(rec["key"], {})
        if "error" in rec:
            failures.append({
                "error": rec["error"], "detail": rec["detail"],
                **{k: op[k] for k in ("key", "fn", "shape", "window", "weight", "label")},
            })
            if "digest" in ref:
                problems.append(f"raised {rec['error']}, reference has a result: {rec['key']}")
        elif "digest" in ref:
            if rec["digest"] != ref["digest"]:
                problems.append(f"digest mismatch: {rec['key']}")
        elif not rec["invariants"]:
            problems.append(f"new result fails the invariant checks: {rec['key']}")
    return problems, failures


def load_reference(workload: str, ops: list[dict]) -> dict:
    reference = json.loads(REFERENCE.read_text())[workload]
    if sorted(reference) != sorted(op["key"] for op in ops):
        raise BenchError(f"{REFERENCE.name} does not list the ops of {workload}")
    return reference


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def scaled_times(result: dict) -> list[tuple[str, float]]:
    """(op key, seconds) for each op of a sweep, the seconds scaled to the
    reference machine by the calibration bursts timed around the op."""
    cals = [r["cal"] for r in result["records"]]
    return [
        (r["key"], r["s"] * CAL_REF_S / statistics.median(cals[max(0, i - CAL_WINDOW) : i + CAL_WINDOW + 1]))
        for i, r in enumerate(result["records"])
    ]


def op_times(results: list[dict]) -> dict[str, float]:
    """Each op's scaled time, the median over the run's sweeps (which ran the
    same order in fresh interpreters, so did the same work)."""
    per_op: dict[str, list[float]] = {}
    for result in results:
        for key, s in scaled_times(result):
            per_op.setdefault(key, []).append(s)
    return {key: statistics.median(times) for key, times in per_op.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    ops = workloads.build_ops(*workloads.WORKLOADS[workload])
    reference = load_reference(workload, ops)
    order = shuffled(ops, seed)
    spans_path = OUT / f"spans-{workload}.jsonl"
    begin = perf_counter()
    setups = [] if trace else [spawn([])[0] for _ in range(SETUP_PROBES)]
    plain, traced, last = [], [], 0.0
    while not plain or perf_counter() - begin + last <= seconds:
        started = perf_counter()
        setup, result = spawn(order)
        setups.append(setup)
        plain.append(result)
        if trace:
            traced.append(spawn(order, spans_path)[1])
        last = perf_counter() - started

    problems, failures = [], {}
    for result in plain + traced:
        found, failed = check(ops, result["records"], reference)
        problems += found
        for f in failed:
            failures.setdefault(f["key"], f)
    records = [r for result in plain + traced for r in result["records"]]
    raised = {r["key"] for r in records if "error" in r}
    if trace:
        metrics = per_layer(plain, traced)
        wanted = spec["per_layer"]
    else:
        metrics = end_to_end(plain, setups, raised)
        wanted = spec["end_to_end"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "sweeps": len(plain) + len(traced),
        "correct": not problems,
        "problems": sorted(set(problems)),
        "attempted": len(records),
        "failed": sum("error" in r for r in records),
        "failures": [failures[k] for k in sorted(failures)],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def end_to_end(plain: list[dict], setups: list[float], raised: set[str]) -> dict:
    times = op_times(plain)
    completed = sum(key not in raised for key in times)
    # latency percentiles pool every completed execution of the run
    latencies_ms = [s * 1000 for r in plain for key, s in scaled_times(r) if key not in raised]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": completed / sum(times.values()),
        "op_ms_p50": percentile(latencies_ms, 50),
        "op_ms_p90": percentile(latencies_ms, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "completed_ratio": completed / len(times),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    # Counts repeat exactly from sweep to sweep; times are medians over the
    # traced sweeps, each scaled by its median calibration burst.
    out = dict(traced[-1]["trace"])
    for name in out:
        if name.endswith("self_s"):
            out[name] = statistics.median(
                r["trace"][name] * CAL_REF_S / statistics.median(x["cal"] for x in r["records"]) for r in traced
            )
    out["trace.overhead_ratio"] = sum(op_times(traced).values()) / sum(op_times(plain).values())
    return out


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def provenance() -> dict:
    import qchar.laurent

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "laurent_kernel": getattr(qchar.laurent, "KERNEL", None),
    }


def write_reference() -> None:
    reference = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.build_ops(*workloads.WORKLOADS[workload])
        _, result = spawn(ops)
        reference[workload] = {
            r["key"]: {"error": r["error"]} if "error" in r else {"digest": r["digest"]}
            for r in result["records"]
        }
        failed = sum("error" in r for r in result["records"])
        print(f"{workload}: {len(ops)} ops, {failed} raise")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def report(result: dict) -> None:
    sweeps = result["sweeps"]
    print(f"{result['workload']}: {result['attempted'] // sweeps} ops, {len(result['failures'])} raise; "
          f"{sweeps} sweeps: attempted {result['attempted']} failed {result['failed']}; correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for problem in result["problems"][:20]:
        print(f"  PROBLEM {problem}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    try:
        if not (SRC / "qchar" / "__init__.py").is_file():
            raise BenchError(f"no library sources at {SRC}")
        sys.path.insert(0, str(SRC))
        if args.write_reference:
            write_reference()
            return 0
        OUT.mkdir(exist_ok=True)
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = [measure(n, args.seed, args.seconds, bool(args.trace), spec) for n in names]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    prov = provenance()
    for result in results:
        report(result)
        path = OUT / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"provenance": prov, **result}, indent=1) + "\n")
    if len(results) == 1:
        print(json.dumps({k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
