"""The benchmark's workloads: seeded inputs, one timed call per op, and checks.

Each workload hands out its inputs in rounds.  Round `i` of seed `s` is made
from `random.Random(f"{name}/{s}/{i}")` alone, so the same seed gives the same
inputs, and the program sees only the generated positions and flags.  The
expected answer of every op is worked out while the round's inputs are made,
outside the timed region; the op itself calls the program once and compares.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from gamelab import arith, core, cram, heaps, periodicity, push, zeruclid
from gamelab.core import Convention
from gamelab.cram import GridBoard
from gamelab.push import Phase, PushPosition

from cram_reference import CramReference

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "cli_launcher.py"


#: Per-layer figures only the CLI workload produces; zero on the others.
CLI_METRICS = (
    "cli.startup_s",
    "cli.handler_ms",
    "cli.cache_bytes",
    "cli.cache_loaded_entries",
    "cli.cache_warm_ms",
    "cli.cache_cold_ms",
)


class Op(NamedTuple):
    kind: str
    args: tuple
    expected: object


def _rng(name: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{name}/{seed}/{round_no}")


class Workload:
    name = ""

    def setup(self) -> float | None:
        """Lazy set-up before the first op.  Returns the set-up time when it
        is measured some other way than the caller's clock."""
        return None

    def inputs(self, seed: int, round_no: int) -> list[Op]:
        raise NotImplementedError

    def start_round(self) -> None:
        """Give the round fresh program state; not timed."""

    def finish_round(self) -> None:
        pass

    def run(self, op: Op) -> bool:
        """One timed op: call the program once and check its answer."""
        raise NotImplementedError

    def trace(self, tracer) -> None:
        """Switch the following ops to traced rulesets and functions."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_extras(self) -> dict:
        return dict.fromkeys(CLI_METRICS, 0)


# -- cram-cold ----------------------------------------------------------------

#: 24-30 cells on which every search board takes at most a few hundred ms.
#: 5x6, 6x5, 7x4 and 9x3 (and all boards of 31-36 cells) are left out: single
#: positions there take 1-18 s at the seed, so a run would hold a handful of
#: them and its figures would swing with the seed.
CRAM_SHAPES = ((3, 10), (4, 7), (3, 9), (5, 5), (6, 4), (4, 6), (8, 3))
#: Search boards per shape and domino count (1-4) in a round.  Search cost is
#: much alike within one shape and domino count, so fixing the count of each
#: fixes the mix of cheap and dear ops that every round holds.
CRAM_SEARCH_BOARDS = 2
#: Boards per shape and round that pressing the button wins at once.
CRAM_BUTTON_BOARDS = 2
#: At most 21 cells: small enough for the pure two-phase search CRAM_SEARCH.
CRAM_CHECK_SHAPES = ((3, 6), (4, 5), (5, 4), (3, 7))
CRAM_CHECKS_PER_ROUND = 4
_TRIES = 1000


def random_board(rng: random.Random, rows: int, cols: int, dominoes: int) -> int:
    """Occupancy with `dominoes` non-overlapping vertical dominoes."""
    occ = 0
    for _ in range(dominoes):
        while True:
            cell = rng.randrange((rows - 1) * cols)
            domino = (1 << cell) | (1 << (cell + cols))
            if not occ & domino:
                occ |= domino
                break
    return occ


class CramCold(Workload):
    """BEFORE-phase Push Cram positions, each solved by a fresh Solver.

    A round holds, for every shape, the empty board, CRAM_SEARCH_BOARDS
    boards with each of 1-4 random vertical dominoes on which the button
    does not win at once (an even row count with one domino has none),
    CRAM_BUTTON_BOARDS boards the button wins, and a few small boards.  The
    searches are most of the ops, so op_p50_ms and op_p90_ms are both search
    latencies.  Answers are checked against `cram_closed_form` on empty
    boards where it applies, against the button rule on button boards,
    against the pure search ruleset on small boards, and against the
    benchmark's own solver everywhere else.
    """

    name = "cram-cold"

    def __init__(self):
        self.rules = cram.CRAM
        self.references: dict[tuple[int, int], CramReference] = {}
        self.memo_entries = 0

    def setup(self):
        cram.g007_certificate()  # builds and certifies the strip-value table
        return None

    def _reference(self, rows: int, cols: int) -> CramReference:
        ref = self.references.get((rows, cols))
        if ref is None:
            ref = self.references[(rows, cols)] = CramReference(rows, cols)
        return ref

    def _board(self, rng, rows, cols, dominoes, button_wins: bool) -> Op | None:
        ref = self._reference(rows, cols)
        for _ in range(_TRIES):
            occ = random_board(rng, rows, cols, dominoes)
            if (ref.after_value(occ) == 0) == button_wins:
                return Op("board", (rows, cols, occ), "N" if button_wins else ref.outcome(occ))
        return None

    def inputs(self, seed, round_no):
        rng = _rng(self.name, seed, round_no)
        ops = []
        for rows, cols in CRAM_SHAPES:
            closed = cram.cram_closed_form(rows, cols)
            want = closed.value if closed is not None else self._reference(rows, cols).outcome(0)
            ops.append(Op("board", (rows, cols, 0), want))
            for dominoes in range(1 + (rows % 2 == 0), 5):
                for _ in range(CRAM_SEARCH_BOARDS):
                    ops.append(self._board(rng, rows, cols, dominoes, button_wins=False))
            for _ in range(CRAM_BUTTON_BOARDS):
                # One domino on an odd row count never leaves a zero button value.
                ops.append(self._board(rng, rows, cols, rng.randint(2, 4), button_wins=True))
        for _ in range(CRAM_CHECKS_PER_ROUND):
            rows, cols = rng.choice(CRAM_CHECK_SHAPES)
            occ = random_board(rng, rows, cols, rng.randrange(3))
            want = core.Solver(cram.CRAM_SEARCH).outcome(GridBoard(rows, cols, occ)).value
            ops.append(Op("board", (rows, cols, occ), want))
        ops = [op for op in ops if op is not None]
        rng.shuffle(ops)
        return ops

    def run(self, op):
        rows, cols, occ = op.args
        solver = core.Solver(self.rules)
        got = solver.outcome(GridBoard(rows, cols, occ))
        self.memo_entries += solver.entry_count()
        return got.value == op.expected

    def trace(self, tracer):
        from tracing import install_library

        self.rules = install_library(tracer)["cram"]


# -- heap-sweep ---------------------------------------------------------------

#: Domains are kept small enough for a round to take about 3 s, so that a
#: run holds several rounds and ops_per_s is a median over them.
HEAP_MAX = 60  # compound heaps
GRID_MAX = 120  # Zeruclid (1, a, b) coordinates
BAND_MAX = 30  # Zeruclid (a, b, c) bound checks: 1 <= a <= b <= BAND_MAX
HEAP_QUERIES = 3000  # ops per round
HEAP_ADVANCE = 0.25  # share of each kind's ops that move its sweep forward
#: Share of the ops of each kind; the four compounds share the rest evenly.
HEAP_SHARES = {"grundy": 0.4, "band": 0.1}


class HeapSweep(Workload):
    """Queries through the shared `core.solver_for` solvers.

    There are six kinds of query: BEFORE outcomes of each of the four push
    compounds on heaps up to HEAP_MAX, checked against `push_p_oracle`;
    Zeruclid (1, a, b) Grundy values up to GRID_MAX, whose zero set must be
    that of `is_nim_euclid_p`; and `zeruclid_bound_check` scans, which must
    find no P-position outside the band.  Each kind sweeps its whole domain
    in ascending order once per round, as the verify suites and the heatmap
    do.  A quarter of the ops move one sweep on by a segment of positions and
    write the memo; the others revisit one position already swept and read
    it.  Every round holds the same number of ops, and of forward ops, of
    each kind; the seed picks their order and the positions revisited.
    Every round starts from emptied memo tables.
    """

    name = "heap-sweep"

    def __init__(self):
        self.compounds = {name: push.compound_ruleset(name) for name in push.COMPOUNDS}
        self.zeruclid = heaps.ZERUCLID
        self.memo_entries = 0
        self._sweeps: dict[str, list] = {}

    def _solvers(self):
        return [core.solver_for(r) for r in (*self.compounds.values(), self.zeruclid)]

    def setup(self):
        self._solvers()
        return None

    def _expected(self, kind: str, pos: tuple):
        if kind == "grundy":
            return push.is_nim_euclid_p(*pos)
        if kind == "band":
            return ()
        return push.push_p_oracle(kind, pos).value

    def inputs(self, seed, round_no):
        if not self._sweeps:
            heap_pairs = [(a, b) for a in range(HEAP_MAX + 1) for b in range(a, HEAP_MAX + 1)]
            self._sweeps = {
                **dict.fromkeys(sorted(self.compounds), heap_pairs),
                "grundy": [(a, b) for a in range(GRID_MAX + 1) for b in range(a, GRID_MAX + 1)],
                "band": [
                    (a, b, arith.ceil_phi(b) + a + 2)  # scans a little past the band
                    for b in range(1, BAND_MAX + 1)
                    for a in range(1, b + 1)
                ],
            }
        rng = _rng(self.name, seed, round_no)
        kinds = list(self._sweeps)
        compound_share = (1 - sum(HEAP_SHARES.values())) / (len(kinds) - len(HEAP_SHARES))
        plan = []
        for kind in kinds:
            count = round(HEAP_QUERIES * HEAP_SHARES.get(kind, compound_share))
            forward = round(count * HEAP_ADVANCE)
            plan += [(kind, True)] * forward + [(kind, False)] * (count - forward)
        rng.shuffle(plan)
        steps = {kind: sum(1 for k, forward in plan if k == kind and forward) + 1 for kind in kinds}
        swept = {kind: 0 for kind in kinds}
        ops = []
        for kind, forward in plan + [(kind, True) for kind in kinds]:  # the tail ends each sweep
            sweep = self._sweeps[kind]
            if forward or not swept[kind]:
                size = -(-len(sweep) // steps[kind])
                positions = sweep[swept[kind] : swept[kind] + size]
                swept[kind] += len(positions)
                if not positions:
                    continue
            else:
                positions = [sweep[rng.randrange(swept[kind])]]
            expected = tuple(self._expected(kind, pos) for pos in positions)
            ops.append(Op(kind, tuple(positions), expected))
        return ops

    def start_round(self):
        for solver in self._solvers():
            solver.table(None).clear()
            for convention in Convention:
                solver.table(convention).clear()

    def finish_round(self):
        self.memo_entries += sum(s.entry_count() for s in self._solvers())

    def run(self, op):
        if op.kind == "grundy":
            solver = core.solver_for(self.zeruclid)
            got = tuple(solver.grundy((1, a, b)) == 0 for a, b in op.args)
        elif op.kind == "band":
            got = tuple(zeruclid.zeruclid_bound_check(*scan).violations for scan in op.args)
        else:
            solver = core.solver_for(self.compounds[op.kind])
            got = tuple(solver.outcome(PushPosition(Phase.BEFORE, pos)).value for pos in op.args)
        return got == op.expected

    def trace(self, tracer):
        from tracing import install_library

        traced = install_library(tracer)
        self.compounds = traced["compounds"]
        self.zeruclid = traced["zeruclid"]


# -- cli ------------------------------------------------------------------------

CLI_CRAM_SHAPES = ((3, 6), (3, 8), (5, 4), (5, 3), (7, 3))  # 0.15-0.25 s each


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli(Workload):
    """`gamelab` invocations, each in a fresh `python -m gamelab.cli` process.

    A round holds closed-form commands (`ppos`, `period` in both forms) and
    cold/warm pairs of `solve`, `heatmap` and `cram` sharing one `--cache`
    file: the cold run writes it, the warm run reads it.  Cache files live in
    a directory made for this run alone and are deleted after their pair, so
    no op ever loads a file the benchmark did not write.
    """

    name = "cli"

    def __init__(self, tmpdir: Path):
        self.tmpdir = tmpdir
        self.env = cli_env()
        self.tracer = None
        self.memo_entries = 0
        self.cold_results: dict[str, object] = {}
        self.extras = dict.fromkeys(CLI_METRICS, 0)

    def setup(self):
        start = time.perf_counter()
        report = self._invoke(["ppos", "--compound", "nim-normal", "--max", "1"])[0]
        if report is None:
            raise RuntimeError("trivial gamelab invocation failed")
        return time.perf_counter() - start

    def inputs(self, seed, round_no):
        rng = _rng(self.name, seed, round_no)
        ops = []
        n = rng.randint(80, 160)
        pairs = [list(p) for p in push.nim_euclid_pairs_below(n)]
        ops.append(Op("ppos", ("ppos", "--compound", "nim-euclid", "--max", str(n)), pairs))
        n = rng.randint(80, 160)
        pairs = []
        k = 0
        while arith.wythoff_pair(k)[1] <= n:
            pairs.append(list(arith.wythoff_pair(k)))
            k += 1
        ops.append(Op("ppos", ("ppos", "--compound", "wythoff", "--max", str(n)), pairs))
        k1, k2 = rng.randint(1, 6), rng.randint(1, 6)
        want = periodicity.predicted_period(k1, k2)
        ops.append(Op("period", ("period", "--k1", str(k1), "--k2", str(k2)), want))
        k1, k2 = rng.randint(1, 6), rng.randint(1, 6)
        s1 = ",".join(str(v) for v in range(1, k1 + 1))
        s2 = ",".join(str(v) for v in range(1, k2 + 1))
        want = (periodicity.predicted_period(k1, k2), k2 + 1)
        ops.append(Op("period-set", ("period", "--s1", s1, "--r2", s2), want))

        name = rng.choice(sorted(push.COMPOUNDS))
        a, b = rng.randint(20, 60), rng.randint(20, 60)
        want = push.push_p_oracle(name, (a, b)).value
        ops += self._pair(round_no, "solve", ("solve", "--compound", name, "--pos", f"{a},{b}"), want)
        n = rng.randint(24, 48)
        zeros = [[push.is_nim_euclid_p(x, y) for y in range(n + 1)] for x in range(n + 1)]
        ops += self._pair(round_no, "heatmap", ("heatmap", "--max", str(n)), zeros)
        rows, cols = rng.choice(CLI_CRAM_SHAPES)
        want = cram.cram_closed_form(rows, cols).value
        ops += self._pair(round_no, "cram", ("cram", "--rows", str(rows), "--cols", str(cols)), want)
        return ops

    def _pair(self, round_no, kind, argv, want):
        path = str(self.tmpdir / f"round{round_no}-{kind}.cache")
        argv = (*argv, "--cache", path)
        return [Op(f"{kind}-cold", argv, want), Op(f"{kind}-warm", argv, want)]

    def _invoke(self, argv) -> tuple[dict | None, float]:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "gamelab.cli", *argv]
            out = None
        else:
            out = self.tmpdir / "trace.json"
            cmd = [sys.executable, str(LAUNCHER), str(out), *argv]
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120
        )
        wall = time.perf_counter() - start
        if out is not None and out.exists():
            with open(out) as fh:
                self.tracer.merge(json.load(fh))
            out.unlink()
        if proc.returncode != 0:
            sys.stderr.write(f"gamelab {' '.join(argv)} exited {proc.returncode}: {proc.stderr[-300:]}\n")
            return None, wall
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall

    def _check(self, op: Op, result: dict) -> bool:
        kind = op.kind.split("-")[0]
        want = op.expected
        if kind == "ppos":
            return result["pairs"] == want and result["count"] == len(want)
        if op.kind == "period":
            return result["predicted"] == want and result["certified"]["period"] == want
        if op.kind == "period-set":
            return (result["outcome"]["period"], result["r2"]["period"]) == want
        if kind == "heatmap":
            grid = result["grid"]
            return [[v == 0 for v in row] for row in grid] == want
        return result["outcome"] == want

    def run(self, op):
        if op.kind.endswith("-cold"):
            path = op.args[-1]
            if os.path.exists(path):  # never let the program load a stale file
                return False
        report, wall = self._invoke(op.args)
        if report is None:
            return False
        ms = report["timing_ms"]
        self.extras["cli.startup_s"] += wall - ms / 1000.0
        self.extras["cli.handler_ms"] += ms
        cache = report["cache"]
        if cache is not None:
            self.memo_entries += cache["entries"]
        ok = self._check(op, report["result"])
        kind = op.kind.split("-")[0]
        if op.kind.endswith("-cold"):
            self.extras["cli.cache_cold_ms"] += ms
            ok = ok and cache["loaded"] == 0 and cache["saved"]
            self.extras["cli.cache_bytes"] += os.path.getsize(op.args[-1])
            self.cold_results[kind] = report["result"]
        elif op.kind.endswith("-warm"):
            self.extras["cli.cache_warm_ms"] += ms
            self.extras["cli.cache_loaded_entries"] += cache["loaded"]
            ok = ok and cache["loaded"] > 0 and report["result"] == self.cold_results.pop(kind, None)
            os.remove(op.args[-1])
        return ok

    def trace(self, tracer):
        self.tracer = tracer

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def layer_extras(self):
        return dict(self.extras)


def make(name: str, tmpdir: Path | None = None) -> Workload:
    if name == "cram-cold":
        return CramCold()
    if name == "heap-sweep":
        return HeapSweep()
    if name == "cli":
        return Cli(tmpdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("cram-cold", "heap-sweep", "cli")
