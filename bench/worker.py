"""Run one workload in this (fresh) interpreter and print its figures as JSON.

    PYTHONPATH=src python bench/worker.py --workload NAME --seed N --seconds S
        [--trace | --setup-only]

`run.py` starts this script; it is not meant to be called by hand.  The
untraced run measures whole rounds of ops, as many as fit in `--seconds`
give or take half a round, and at least MIN_OPS ops.  The traced run replays round 0 twice,
once plain and once traced, so its counts depend on the seed alone.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# Standard modules the workloads use, loaded before the set-up clock starts
# so that setup_s counts the program's own imports only.
import random  # noqa: F401
import resource  # noqa: F401
import subprocess  # noqa: F401

MIN_OPS = 100  # op_p90_ms needs at least ten samples beyond it
HARD_CAP_S = 120.0  # no new round starts after this much measuring


def run_ops(wl, ops, latencies: list, errors: list, tracer=None) -> tuple[int, int]:
    """Time each op; returns (failed ops, ops that expanded no node)."""
    failed = warm = 0
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_id
            frame = tracer.open("op")
            nodes_before = tracer.counts["core.nodes_expanded"]
        start = time.perf_counter()
        try:
            ok = wl.run(op)
            problem = f"wrong answer (expected {op.expected!r})"
        except Exception as exc:  # a crashing op is a failed op, not a failed run
            ok = False
            problem = repr(exc)
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.close(frame)
            warm += tracer.counts["core.nodes_expanded"] == nodes_before
        if not ok:
            failed += 1
            errors.append(f"{op.kind} {op.args}: {problem}")
    return failed, warm


def measure(wl, seed: int, seconds: float) -> dict:
    """Whole rounds of ops for about `seconds`.  ops_per_s is the median of
    the rounds' rates, so a round the host slowed down does not move it; the
    latency quantiles pool every op of the run."""
    latencies: list[float] = []
    rates: list[float] = []
    errors: list[str] = []
    failed = rounds = 0
    start = time.perf_counter()
    while True:
        ops = wl.inputs(seed, rounds)
        wl.start_round()
        failed += run_ops(wl, ops, latencies, errors)[0]
        wl.finish_round()
        rounds += 1
        rates.append(len(ops) / sum(latencies[-len(ops) :]))
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S:
            break
        if len(latencies) >= MIN_OPS and elapsed + 0.5 * elapsed / rounds > seconds:
            break  # another round would overrun by more than half a round
    return {
        "attempted": len(latencies),
        "failed": failed,
        "rounds": rounds,
        "wall_s": elapsed,
        "errors": errors[:5],
        "metrics": {
            "ops_per_s": statistics.median(rates),
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
            "peak_rss_mb": wl.peak_rss_mb(),
        },
    }


def traced(workloads, name: str, tmpdir: Path, seed: int, spans_out: Path) -> dict:
    from tracing import Tracer

    plain = workloads.make(name, tmpdir)
    ops = plain.inputs(seed, 0)
    latencies: list[float] = []
    errors: list[str] = []
    start = time.perf_counter()
    plain.start_round()
    failed = run_ops(plain, ops, latencies, errors)[0]
    plain.finish_round()
    untraced_wall = time.perf_counter() - start

    tracer = Tracer()
    wl = workloads.make(name, tmpdir)
    wl.trace(tracer)
    start = time.perf_counter()
    wl.start_round()
    more_failed, warm = run_ops(wl, ops, latencies, errors, tracer)
    wl.finish_round()
    traced_wall = time.perf_counter() - start
    tracer.restore()
    spans_out.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans_out)

    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    nodes, canon = counts["core.nodes_expanded"], counts["core.canonical_calls"]
    metrics = {
        "core.nodes_expanded": nodes,
        "core.options_generated": counts["core.options_generated"],
        "core.canonical_calls": canon,
        "core.expand_ratio": nodes / canon if canon else 0.0,
        "core.memo_entries": wl.memo_entries,
        "core.warm_op_share": warm / len(ops),
        "core.self_s": self_s["core"],
        "cram.options_s": self_s["cram.options"],
        "cram.legal_moves_calls": calls["cram.legal_moves"],
        "cram.legal_moves_s": self_s["cram.legal_moves"],
        "cram.post_button_value_calls": calls["cram.post_button_value"],
        "cram.post_button_value_s": self_s["cram.post_button_value"],
        "cram.canonical_s": self_s["cram.canonical"],
        "heaps.options_calls": calls["heaps.options"],
        "heaps.options_s": self_s["heaps.options"],
        "heaps.canonical_s": self_s["heaps.canonical"],
        "push.options_s": self_s["push.options"],
        "zeruclid.bound_check_s": self_s["zeruclid.bound_check"],
        "push.oracle_calls": calls["push.oracle"],
        "push.oracle_s": self_s["push.oracle"],
        "arith.zeckendorf_calls": calls["arith.zeckendorf"],
        "arith.zeckendorf_s": self_s["arith.zeckendorf"],
        "arith.floor_phi_calls": calls["arith.floor_phi"],
        "periodicity.certify_calls": calls["periodicity.certify"],
        "periodicity.certify_s": self_s["periodicity.certify"],
        **plain.layer_extras(),  # wall-clock CLI figures, untouched by tracing
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead": traced_wall / untraced_wall,
    }
    return {
        "attempted": 2 * len(ops),
        "failed": failed + more_failed,
        "rounds": 2,
        "wall_s": untraced_wall + traced_wall,
        "errors": errors[:5],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import workloads  # imports the program: part of set-up

    tmpdir = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=workloads.ROOT))
    try:
        wl = workloads.make(args.workload, tmpdir)
        measured = wl.setup()
        setup_s = measured if measured is not None else time.perf_counter() - start
        if args.setup_only:
            result = {"setup_s": setup_s}
        elif args.trace:
            spans_out = workloads.ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl"
            result = traced(workloads, args.workload, tmpdir, args.seed, spans_out)
        else:
            result = measure(wl, args.seed, args.seconds)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
