"""The gamelab benchmark: one seeded workload, its answers checked, its figures printed.

    python3 bench/run.py --workload {cram-cold,heap-sweep,cli} --seed N \\
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout that holds `src/gamelab`.  Each
workload runs in a fresh interpreter with PYTHONPATH=src (see worker.py), so
set-up time and peak memory belong to that workload alone.

With `--trace 0` it prints the end-to-end metrics named in BENCHMARK.json:
`setup_s` is the median of fresh set-ups timed before and after the run
(import and lazy set-up before the first op; for `cli`, the wall time of a
trivial invocation), the rest come from timing every op: `ops_per_s` is the
median of the rounds' rates, the latency quantiles pool every op of the run.
With `--trace 1` it prints the per-layer metrics of a traced replay of round
0, plus the tracing overhead.  The last line of standard output is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The error rate is `failed / attempted`.  It is shown in the table above the
JSON line, but it is not a metric of its own, because it is 0 on a correct
program.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("cram-cold", "heap-sweep", "cli")
#: Set-ups timed before the run and again after it, so that setup_s is not
#: taken in one moment of the host's load.
SETUP_SAMPLES = 6
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in its own interpreter and session; its last stdout line."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any gamelab process it started
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "gamelab" / "cli.py").is_file():
        print(f"error: no gamelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + TIME_LIMIT_S
    base = ["--workload", args.workload]

    def setups() -> list[float]:
        return [worker([*base, "--setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]

    try:
        setup = []
        if not args.trace:
            worker([*base, "--setup-only"], deadline)  # byte-compiles the sources; discarded
            setup = setups()
        run = [*base, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        result = worker([*run, "--trace"] if args.trace else run, deadline)
        if not args.trace:
            setup += setups()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    values = dict(result["metrics"])
    if setup:
        values["setup_s"] = statistics.median(setup)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: workload did not report {', '.join(missing)}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    for line in result["errors"]:
        print(f"failed op: {line}", file=sys.stderr)
    mode = "traced replay of round 0" if args.trace else f"{result['rounds']} rounds"
    print(
        f"{args.workload} seed {args.seed}: {attempted} ops ({mode}, "
        f"{result['wall_s']:.1f} s), error_rate {failed / attempted:.4g} ({failed} failed)"
    )
    for m in declared:
        print(f"  {m['name']:<30} {values[m['name']]:>14.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
