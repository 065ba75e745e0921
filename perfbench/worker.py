"""One workload in one process: set up, run the timed loop, optionally
run as many passes again with spans recorded, and print the result as one
JSON line.

The machine's own speed drifts (see ``speed``), so every op is preceded by
a run of a fixed reference kernel, and the reported times are the ops' wall
times scaled to the speed at which the kernel takes ``speed.REF_S``.

Started by ``run.py``; prints ``READY`` once set-up (import, input
generation and warm-up) is done, so the launcher can time set-up from
process start.  The program under test is the checkout's own ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter, namedtuple
from pathlib import Path

import speed
from checks import Rejected
from tracer import Tracer
from workloads import WORKLOADS, attribute

ROOT = Path(__file__).resolve().parent.parent
MIN_COMPLETED = 100       # p90 needs at least 10 completed ops beyond it
OpLabel = namedtuple("OpLabel", "kind name")
# One op's outcome: its label, wall seconds, exception, the checker's
# rejection, and the reference kernel's wall seconds just before it.
Record = namedtuple("Record", "op seconds exc rejection ref_s")
# An op is scaled by the kernel's median over the runs before it and before
# this many ops on either side: enough samples to steady the kernel's own
# noise, few enough to follow the drift within a run.
REF_WINDOW = 10


def _args(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def measure(workload, seconds: float, min_completed: int = MIN_COMPLETED):
    """Run whole passes of the workload until the timed ops add up to
    ``seconds`` and at least ``min_completed`` ops returned, so every run
    measures the same mix.

    Returns one ``Record`` per op and the number of passes run.
    """
    records = []
    passes = 0
    while (sum(r.seconds for r in records) < seconds
           or sum(r.exc is None for r in records) < min_completed):
        records += run_pass(workload, passes)
        passes += 1
    return records, passes


def run_pass(workload, k: int, run_op=None, first_id: int = 0):
    """Run the ops of pass ``k``, each timed alone by ``run_op(op_id, fn,
    payload)`` (plain timing by default) right after a run of the reference
    kernel, and its output checked afterwards, outside the timed region.

    A record keeps the op's label and the exception without its traceback,
    not the op, its output or its frames, so the memory a run holds does
    not grow with the number of passes and ``peak_rss_mib`` measures the
    ops themselves."""
    run_op = run_op or _timed
    records = []
    for op in workload.make_pass(k):
        ref_s = speed.reference_seconds()
        out, exc, dt = run_op(first_id + len(records), op.run, op.payload)
        rej = check(op, out) if exc is None else None
        if exc is not None:
            exc.__traceback__ = exc.__context__ = exc.__cause__ = None
        records.append(Record(OpLabel(op.kind, op.name), dt, exc, rej, ref_s))
        del out
    return records


def _timed(op_id, fn, payload):
    exc = out = None
    t0 = time.perf_counter()
    try:
        out = fn(payload)
    except Exception as e:      # a failed op is recorded, not fatal
        exc = e
    return out, exc, time.perf_counter() - t0


def check(op, out) -> str | None:
    """The checker's reason for rejecting ``out``, or None."""
    try:
        op.check(op.payload, out, op.ref)
    except Rejected as e:
        return str(e)
    except Exception as e:      # an output the checker cannot even read is wrong too
        return f"checker raised {type(e).__name__}: {e}"
    return None


def scaled_seconds(records) -> list[float]:
    """Every op's wall time at the reference speed, measured by the kernel
    runs before it and the ``REF_WINDOW`` ops on either side of it."""
    ref = [r.ref_s for r in records]
    return [speed.scaled(r.seconds, ref[max(0, i - REF_WINDOW): i + REF_WINDOW + 1]) for i, r in enumerate(records)]


def _figures(records, seconds) -> tuple[float, float, float]:
    """Throughput over the summed op times, and the median and p90 over
    every completed op's latency.  Failed ops count in the time and not in
    the throughput."""
    passed = sum(1 for r in records if r.exc is None and r.rejection is None)
    latencies = [s * 1e3 for r, s in zip(records, seconds) if r.exc is None]
    return (passed / sum(seconds), statistics.median(latencies),
            statistics.quantiles(latencies, n=10)[-1])


def summarize(records, passes: int) -> dict:
    """End-to-end figures of one run, at the reference speed, and the same
    figures from the wall times as measured."""
    attempted = len(records)
    failed = sum(1 for r in records if r.exc is not None or r.rejection is not None)
    wall = [r.seconds for r in records]
    ops_per_s, p50, p90 = _figures(records, scaled_seconds(records))
    wall_ops_per_s, wall_p50, wall_p90 = _figures(records, wall)
    return {
        "attempted": attempted,
        "failed": failed,
        "completed": sum(1 for r in records if r.exc is None),
        "inputs": attempted // passes,
        "passes": passes,
        "timed_s": sum(wall),
        "ops_per_s": ops_per_s,
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "ok_frac": (attempted - failed) / attempted,
        "ref_ms": statistics.median(r.ref_s for r in records) * 1e3,
        "wall_ops_per_s": wall_ops_per_s,
        "wall_op_p50_ms": wall_p50,
        "wall_op_p90_ms": wall_p90,
    }


def correct(records) -> bool:
    """Whether every output passed its check and every exception is
    attributed to a known defect; any other failure makes the run wrong,
    whatever share of the ops it is."""
    return all(r.rejection is None and (r.exc is None or attribute(r.op.kind, r.exc) != "unattributed")
               for r in records)


def failure_report(records) -> list[dict]:
    """Distinct failures by op, input, error and attribution (the known
    defect an exception is attributed to), with their count and the first
    message; messages name labels, which differ from pass to pass."""
    seen = Counter()
    message = {}
    for op, _, exc, rej, _ in records:
        if exc is None and rej is None:
            continue
        if exc is not None:
            key = (op.kind, op.name, type(exc).__name__, attribute(op.kind, exc))
            text = str(exc).splitlines()[0] if str(exc) else ""
        else:
            key = (op.kind, op.name, "rejected", "output rejected by the checker")
            text = rej
        seen[key] += 1
        message.setdefault(key, text[:160])
    return [{"op": k[0], "input": k[1], "error": k[2], "message": message[k], "count": n, "attributed_to": k[3]}
            for k, n in sorted(seen.items())]


def metadata() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            "nproc": os.cpu_count(), "ref_ms": speed.REF_S * 1e3}


def main(argv=None) -> int:
    args = _args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import ppiprep  # noqa: F401  (set-up includes the import)
    workload = WORKLOADS[args.workload](args.seed)
    for op in workload.warmup:
        try:
            op.run(op.payload)
        except Exception:       # the timed run records it
            pass
    print("READY", flush=True)
    if args.setup_only:
        return 0

    records, passes = measure(workload, args.seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = summarize(records, passes)
    summary["peak_rss_mib"] = peak_rss_mib
    result = {"summary": summary, "failures": failure_report(records), "meta": metadata(),
              "correct": correct(records)}
    if args.trace:
        # as many passes again, presented afresh, with spans recorded
        tracer = Tracer()
        tracer.install()
        try:
            traced = []
            for k in range(passes, 2 * passes):
                traced += run_pass(workload, k, tracer.run_op, len(traced))
        finally:
            tracer.uninstall()
        layers = tracer.metrics()
        # both at the reference speed, so the machine's drift between the
        # two loops does not pass for tracing overhead
        traced_s, untraced_s = sum(scaled_seconds(traced)), sum(scaled_seconds(records))
        layers["trace.overhead_s"] = (traced_s - untraced_s, "s")
        layers["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
        problems = tracer.self_test(workload.spans)
        if args.workload == "horn-recognize" and layers["horn.family_enumerations"][0]:
            problems.append("horn-recognize enumerated a closed family")
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}.tsv", [f"{r.op.kind} {r.op.name}" for r in traced])
        result["layers"] = layers
        result["self_test"] = problems
        result["correct"] = result["correct"] and correct(traced) and not problems
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
