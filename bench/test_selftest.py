"""Self-tests of the benchmark itself (not part of the project's test suite).

    python3 -m pytest bench/test_selftest.py

They check that a seed fixes the inputs, that a wrong answer shows up as a
failed op, that the benchmark's own Push Cram solver agrees with the pure
search ruleset, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

from gamelab import core, cram  # noqa: E402
from gamelab.cram import GridBoard  # noqa: E402

import workloads  # noqa: E402
from cram_reference import CramReference  # noqa: E402
from worker import run_ops  # noqa: E402


def test_same_seed_gives_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, tmp_path)
        first = wl.inputs(7, 0)
        assert first == wl.inputs(7, 0)
        assert first != wl.inputs(8, 0)
        assert first != wl.inputs(7, 1)


def test_wrong_expectation_counts_as_failure(tmp_path):
    ppos = ("ppos", "--compound", "nim-euclid", "--max", "10")
    cases = {  # (kind, args, true answer, deliberately wrong answer)
        "cram-cold": ("board", (3, 4, 0), "P", "N"),
        "heap-sweep": ("nim-euclid", ((7, 12),), ("P",), ("N",)),
        "cli": ("ppos", ppos, [[0, 1], [2, 4], [3, 5], [6, 10]], [[0, 1]]),
    }
    for name, (kind, args, right, wrong) in cases.items():
        wl = workloads.make(name, tmp_path)
        wl.setup()
        ops = [workloads.Op(kind, args, right), workloads.Op(kind, args, wrong)]
        latencies, errors = [], []
        failed, _ = run_ops(wl, ops, latencies, errors)
        assert failed / len(latencies) == 0.5, name
        assert "wrong answer" in errors[0]


def test_reference_agrees_with_pure_search():
    for rows, cols in ((3, 4), (4, 4), (3, 5), (5, 3)):
        ref = CramReference(rows, cols)
        anchors = range((rows - 1) * cols)
        for a, b in itertools.combinations(anchors, 2):
            occ = 0
            for cell in (a, b):
                domino = (1 << cell) | (1 << (cell + cols))
                if occ & domino:
                    break
                occ |= domino
            else:
                want = core.Solver(cram.CRAM_SEARCH).outcome(GridBoard(rows, cols, occ)).value
                assert ref.outcome(occ) == want, (rows, cols, occ)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
