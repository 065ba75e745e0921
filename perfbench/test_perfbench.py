"""Tests of the benchmark itself: determinism of the inputs, the checker,
failure accounting, the tracer and the launcher.

Run from the root of the repository with ``python3 -m pytest perfbench``.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from checks import Rejected  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, Op, Workload  # noqa: E402

DIGEST = """
import hashlib, sys
sys.path.insert(0, {here!r})
from workloads import WORKLOADS
h = hashlib.sha256()
for name, build in sorted(WORKLOADS.items()):
    wl = build({seed})
    for k in (0, 1):
        for op in wl.make_pass(k):
            h.update(f"{{name}}|{{k}}|{{op.kind}}|{{op.name}}|{{op.payload['text']}}".encode())
print(h.hexdigest())
"""


def _digest(seed: int, hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run([sys.executable, "-c", DIGEST.format(here=str(HERE), seed=seed)],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip()


def test_same_seed_gives_byte_identical_inputs():
    # different string-hash layouts must not leak into the inputs
    assert _digest(7, "1") == _digest(7, "2")
    assert _digest(7, "1") != _digest(8, "1")


def test_passes_present_the_same_structures_afresh():
    for name, build in WORKLOADS.items():
        wl = build(4)
        first, second = wl.make_pass(0), wl.make_pass(1)
        assert sorted((op.kind, op.name) for op in first) == sorted((op.kind, op.name) for op in second)
        texts = [op.payload["text"] for op in first + second + wl.warmup]
        assert len(set(texts)) == len(texts), f"{name} repeats a payload"


def _op(workload, kind, name_part="", seed=3):
    wl = WORKLOADS[workload](seed)
    return next(op for op in wl.make_pass(0) if op.kind == kind and name_part in op.name)


def _rejects(op, output):
    with pytest.raises(Rejected):
        op.check(op.payload, output, op.ref)


def test_checker_accepts_then_rejects_flipped_verdict_and_closure():
    op = _op("horn-recognize", "recognize", "L(3,2)")
    ok, closures = op.run(op.payload)
    op.check(op.payload, (ok, closures), op.ref)
    _rejects(op, (not ok, closures))
    wrong = [frozenset()] + closures[1:]
    _rejects(op, (ok, wrong))


def test_checker_rejects_nonzero_below_stage_diagonal():
    op = _op("matrix-dm", "dm", "GF(3)")
    dm = op.run(op.payload)
    op.check(op.payload, dm, op.ref)
    rstage = [k for k, (r, _) in enumerate(dm.stages) for _ in range(r)]
    cstage = [k for k, (_, c) in enumerate(dm.stages) for _ in range(c)]
    below = [(r, c) for r in range(len(rstage)) for c in range(len(cstage)) if cstage[c] < rstage[r]]
    assert below, "fixture has no entry below the stage diagonal"
    r, c = below[0]
    entries = dm.transformed.to_lists()
    entries[r][c] = 1
    bad = copy.copy(dm)
    bad.transformed = type(dm.transformed)(entries, dm.transformed.p)
    _rejects(op, bad)


def test_checker_rejects_wrong_structures():
    op = _op("matrix-dm", "mvsp", "GF(3)")
    optimum, oracle, ppip = op.run(op.payload)
    op.check(op.payload, (optimum, oracle, ppip), op.ref)
    _rejects(op, (optimum + 1, oracle, ppip))

    op = _op("lattice-certify", "optimal-base", "M3^3")
    base = op.run(op.payload)
    op.check(op.payload, base, op.ref)
    _rejects(op, "\n".join(base.splitlines()[1:]) + "\n")

    op = _op("lattice-certify", "product", "M3^4")
    ppip, calls = op.run(op.payload)
    op.check(op.payload, (ppip, calls), op.ref)
    _rejects(op, (ppip, 10 ** 9))

    op = _op("lattice-certify", "validate", "L(3,2)")
    size, irr, modular, median = op.run(op.payload)
    _rejects(op, (size, irr, modular, True))

    op = _op("lattice-certify", "polar", "d4")
    out = op.run(op.payload)
    op.check(op.payload, out, op.ref)
    _rejects(op, out[:3] + (out[3] + 1,))


def _boom(payload):
    raise RuntimeError("injected")


def test_injected_exception_fails_the_op_and_the_run():
    good = _op("horn-recognize", "recognize", "L(2,3)")
    bad = Op("recognize", "injected", good.payload, _boom, good.check)
    wl = Workload(lambda k: [good, bad, good, good], [], ())
    records, passes = worker.measure(wl, seconds=0.0, min_completed=3)
    s = worker.summarize(records, passes)
    assert (s["attempted"], s["failed"], s["completed"], s["passes"]) == (4, 1, 3, 1)
    assert s["ok_frac"] == 0.75
    report = worker.failure_report(records)
    assert report == [{"op": "recognize", "input": "injected", "error": "RuntimeError",
                       "message": "injected", "count": 1, "attributed_to": "unattributed"}]
    assert not worker.correct(records)
    assert worker.correct(records[:1] + records[2:])


def test_known_defect_is_attributed_and_keeps_the_run_correct():
    op = _op("lattice-certify", "optimal-base", "L(2,3)")
    records, _ = worker.measure(Workload(lambda k: [op], [], ()), seconds=1e-9, min_completed=0)
    (failure,) = worker.failure_report(records)
    assert failure["error"] == "AssertionError" and failure["attributed_to"].startswith("ROADMAP item 1")
    assert worker.correct(records)


def test_rejected_output_fails_the_run():
    good = _op("horn-recognize", "recognize", "L(2,3)")
    flipped = Op("recognize", "flipped", good.payload, lambda payload: (False, good.run(payload)[1]),
                 good.check)
    records, passes = worker.measure(Workload(lambda k: [flipped], [], ()), seconds=0.0, min_completed=2)
    assert worker.summarize(records, passes)["failed"] == 2
    assert not worker.correct(records)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracer_records_every_assigned_span(name):
    wl = WORKLOADS[name](5)
    tracer = Tracer()
    tracer.install()
    try:
        worker.run_pass(wl, 0, tracer.run_op)
    finally:
        tracer.uninstall()
    assert tracer.self_test(wl.spans) == []
    metrics = tracer.metrics()
    assert metrics["bench.op.self_s"][0] >= 0
    if name == "horn-recognize":
        assert metrics["horn.family_enumerations"][0] == 0
    # a span that is never reached is reported
    assert tracer.self_test(["gflin.dm_decompose"] if name != "matrix-dm" else ["ppip.birkhoff_roundtrip"])


def test_every_span_is_assigned_to_a_workload():
    assigned = set().union(*(WORKLOADS[n](1).spans for n in WORKLOADS))
    assert assigned == set(SPAN_NAMES)


def test_tracer_uninstall_restores_the_library():
    import ppiprep
    from ppiprep import gflin, horn
    before = (ppiprep.Poset.__init__, gflin.build_ppip, horn.induced_ppip, ppiprep.build_ppip)
    tracer = Tracer()
    tracer.install()
    assert gflin.build_ppip is not before[1] and horn.induced_ppip is not before[2]
    tracer.uninstall()
    assert (ppiprep.Poset.__init__, gflin.build_ppip, horn.induced_ppip, ppiprep.build_ppip) == before


def test_launcher_prints_metrics_and_refuses_a_bare_directory(tmp_path):
    run = [sys.executable, str(HERE / "run.py"), "--workload", "horn-recognize",
           "--seed", "1", "--seconds", "0.2", "--trace", "0"]
    out = subprocess.run(run, capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "ok_frac", "peak_rss_mib"}
    assert result["correct"] and result["attempted"] >= 100

    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    bare = [sys.executable, str(tmp_path / "perfbench" / "run.py")] + run[2:]
    out = subprocess.run(bare, capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""


def test_op_times_are_scaled_by_the_kernel_around_them():
    label = worker.OpLabel("recognize", "x")
    # the kernel runs at the reference speed, then twice as slow
    records = [worker.Record(label, 0.01, None, None, speed.REF_S)] * 30 + \
              [worker.Record(label, 0.02, None, None, 2 * speed.REF_S)] * 30
    scaled = worker.scaled_seconds(records)
    assert scaled[0] == pytest.approx(0.01) and scaled[-1] == pytest.approx(0.01)
    s = worker.summarize(records, 1)
    assert s["ops_per_s"] == pytest.approx(100) and s["wall_ops_per_s"] == pytest.approx(60 / 0.9)
    assert speed.scaled(1.0, [speed.REF_S, 3 * speed.REF_S, 4 * speed.REF_S]) == pytest.approx(1 / 3)
    assert speed.reference_seconds() > 0


def test_row_side_optimum_matches_a_hand_example():
    # A = [[1, 0], [0, 0]] over GF(2), one 2x2 block: u^T A v = u1 v1, so the
    # maximum tuples are (everything, <e2>) and (<e2>, everything), of dimension 3
    data = {"p": 2, "row_blocks": [2], "col_blocks": [2], "entries": [[1, 0], [0, 0]]}
    assert checks.row_side_optimum(data) == (3, 2)
