"""Benchmark of ppiprep: three seeded workloads driven through the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload horn-recognize --seed 1 --seconds 20 --trace 0

Without ``--workload`` every workload runs in turn.  ``--seconds`` has no
default: ``run_seconds`` in ``BENCHMARK.json`` is the one run length.
Each workload runs in fresh worker processes started here:
``SETUP_SAMPLES - 1`` of them only set up, and the last also measures.  ``setup_s`` is the median time from
starting a worker to it being ready for the first timed op, each scaled to
the reference speed (see ``speed``) measured just before the worker starts;
the timed metrics are scaled the same way, op by op.  Prints every
metric as ``name value unit`` and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("horn-recognize", "lattice-certify", "matrix-dm")
SETUP_SAMPLES = 11
REF_SAMPLES = 9        # kernel runs before each worker starts
# Wall-clock budget of one run of one workload, whatever ``--seconds`` is:
# a run must end within 180 s, so a worker still running after this is
# killed and the run fails instead of overrunning.
DEADLINE_S = 170


def _worker(args, setup_only: bool, deadline: float) -> tuple[float, str]:
    """Start one worker; return (seconds until READY at the reference speed,
    rest of its stdout)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED=str(args.seed % 2 ** 32))
    ref = [speed.reference_seconds() for _ in range(REF_SAMPLES)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"worker for {args.workload} failed (exit {code})")
    return speed.scaled(setup, ref), rest


def run_workload(args, deadline: float) -> dict:
    setups = [_worker(args, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup, out = _worker(args, False, deadline)
    setups.append(setup)
    result = json.loads(out.strip().splitlines()[-1])
    s = result["summary"]
    meta = result["meta"]
    print(f"# {args.workload} seed {args.seed}: {s['attempted']} ops attempted ({s['passes']} passes over "
          f"{s['inputs']} inputs), {s['completed']} completed, {s['failed']} failed, {s['timed_s']:.2f} s timed; "
          f"python {meta['python']}, numpy {meta['numpy']}, "
          f"{meta['blas']} x{meta['blas_threads']}, nproc {meta['nproc']}", file=sys.stderr)
    print(f"# reference kernel {s['ref_ms']:.3f} ms (nominal {meta['ref_ms']} ms); as measured, without scaling: "
          f"ops_per_s {s['wall_ops_per_s']:.4g}, op_p50_ms {s['wall_op_p50_ms']:.4g}, "
          f"op_p90_ms {s['wall_op_p90_ms']:.4g}", file=sys.stderr)
    for f in result["failures"]:
        print(f"#   failed {f['count']}x {f['op']} on {f['input']}: {f['error']}: {f['message']} "
              f"[{f['attributed_to']}]", file=sys.stderr)
    for problem in result.get("self_test", ()):
        print(f"#   tracer self-test: {problem}", file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["layers"].items()}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        for name, unit in (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
                           ("ok_frac", "ratio"), ("peak_rss_mib", "MiB")):
            metrics[name] = {"value": s[name], "unit": unit}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    return {"correct": result["correct"], "attempted": s["attempted"], "failed": s["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True, help="timed op seconds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ppiprep" / "__init__.py").is_file():
        print(f"perfbench: no ppiprep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in ([args.workload] if args.workload else WORKLOADS):
        args.workload = name
        try:
            result = run_workload(args, time.monotonic() + DEADLINE_S)
        except RuntimeError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
