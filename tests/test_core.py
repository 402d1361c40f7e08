"""Solver engine: outcomes, Grundy values, memo caps, conventions."""

import copy
import itertools
import random

import pytest

from gamelab.core import (
    DEFAULT_MEMO_CAP,
    Convention,
    MemoLimitExceeded,
    Outcome,
    Ruleset,
    Solver,
    memo_cap_from_env,
    mex,
    solver_for,
    sum_grundy,
    sum_rulesets,
)
from gamelab.cram import CRAM, CRAM_SEARCH, GridBoard
from gamelab.heaps import EUCLID, NIM, WYTHOFF, ZERUCLID, subtraction
from gamelab.push import COMPOUNDS, Phase, PushPosition, compound_ruleset

from reference import naive_grundy, naive_outcome, nim_moves


def test_mex():
    assert mex([]) == 0
    assert mex({0, 1, 3}) == 2
    assert mex({1, 2}) == 0
    assert mex(range(10)) == 10


def test_sum_grundy():
    assert sum_grundy([]) == 0
    assert sum_grundy([3, 3]) == 0
    assert sum_grundy([1, 2, 4]) == 7


def test_nim_outcomes():
    nim = solver_for(NIM)
    assert nim.outcome((3, 3)) is Outcome.P
    assert nim.outcome((3, 4)) is Outcome.N
    assert nim.outcome(()) is Outcome.P
    assert nim.outcome((1, 1), Convention.MISERE) is Outcome.N
    assert nim.outcome((1,), Convention.MISERE) is Outcome.P


def test_nim_grundy_values():
    assert solver_for(NIM).grundy((0, 3)) == 3
    assert solver_for(NIM).grundy((2, 3)) == 1
    assert solver_for(NIM).grundy(()) == 0
    assert solver_for(ZERUCLID).grundy((1, 0, 0)) == 1


def test_conventions_on_terminal():
    empty = Solver(Ruleset(name="empty", options=lambda pos: []))
    assert empty.outcome(0) is Outcome.P
    assert empty.outcome(0, Convention.MISERE) is Outcome.N


def test_outcome_iff_grundy_zero():
    solver = Solver(NIM)
    for a in range(8):
        for b in range(8):
            for c in range(8):
                pos = (a, b, c)
                is_p = solver.outcome(pos) is Outcome.P
                assert is_p == (solver.grundy(pos) == 0)


def test_nim_grundy_is_xor():
    solver = Solver(NIM)
    for a in range(9):
        for b in range(9):
            assert solver.grundy((a, b)) == a ^ b


def test_solver_matches_naive_reference():
    solver = Solver(NIM)
    out_memo = {}
    g_memo = {}
    for a in range(7):
        for b in range(7):
            pos = (a, b)
            assert solver.outcome(pos).value == naive_outcome(nim_moves, pos, memo=out_memo)
            assert solver.grundy(pos) == naive_grundy(nim_moves, pos, memo=g_memo)


def test_sum_rulesets_grundy_is_xor_of_components():
    summed = sum_rulesets(NIM, subtraction((1, 2)))
    solver = Solver(summed)
    nim_solver = Solver(NIM)
    sub_solver = Solver(subtraction((1, 2)))
    for a in range(6):
        for n in range(12):
            expected = nim_solver.grundy((a,)) ^ sub_solver.grundy((n,))
            assert solver.grundy(((a,), (n,))) == expected


def test_leaf_hook_matches_search():
    expanded = []

    def nim_options(pos):
        expanded.append(pos)
        return NIM.options(pos)

    xor_leaf = Ruleset("nim-xor", nim_options, canonical=NIM.canonical, leaf=sum_grundy)
    liar = Ruleset("nim-liar", NIM.options, canonical=NIM.canonical, leaf=lambda pos: 0)
    plain, fast, lying = Solver(NIM), Solver(xor_leaf), Solver(liar)
    for pos in itertools.product(range(5), repeat=3):
        assert fast.outcome(pos) is plain.outcome(pos), pos
        assert fast.grundy(pos) == plain.grundy(pos), pos
        assert lying.outcome(pos, Convention.MISERE) is plain.outcome(pos, Convention.MISERE), pos
    assert expanded == []
    assert lying.outcome((1,)) is Outcome.P  # normal play does consult the leaf


def test_outcome_leaf_serves_outcome_searches_only():
    # A leaf that knows N-positions only: Grundy searches search them,
    # misere searches never ask, normal-play outcome searches skip them.
    asked = []

    def n_leaf(pos):
        asked.append(pos)
        return Outcome.N if sum_grundy(pos) else None

    def counted():
        expanded = []

        def options(pos):
            expanded.append(pos)
            return NIM.options(pos)

        return options, expanded

    plain_options, plain_expanded = counted()
    leaf_options, leaf_expanded = counted()
    plain = Solver(Ruleset("nim-counted", plain_options, canonical=NIM.canonical))
    fast = Solver(Ruleset("nim-n-leaf", leaf_options, canonical=NIM.canonical, leaf=n_leaf))
    positions = list(itertools.product(range(5), repeat=3))
    for pos in positions:
        assert fast.outcome(pos) is plain.outcome(pos), pos
    assert 0 < len(leaf_expanded) < len(plain_expanded)
    assert fast.table(Convention.NORMAL)[(1, 2, 4)] is Outcome.N  # a leaf root is stored
    for pos in positions:
        assert fast.grundy(pos) == plain.grundy(pos), pos
    assert all(value.__class__ is int for value in fast.table(None).values())
    asked.clear()
    for pos in positions:
        assert fast.outcome(pos, Convention.MISERE) is plain.outcome(pos, Convention.MISERE), pos
    assert asked == []


def _assert_children_canonical(ruleset, positions):
    canon = ruleset.canonical
    for pos in positions:
        root = canon(pos)
        for child in ruleset.options(root):
            assert canon(child) == child, (ruleset.name, root, child)


def test_children_of_canonical_positions_are_canonical():
    pairs = list(itertools.product(range(9), repeat=2))
    for ruleset in (NIM, WYTHOFF, EUCLID, ZERUCLID):
        _assert_children_canonical(ruleset, pairs)
    for ruleset in (NIM, ZERUCLID):
        _assert_children_canonical(ruleset, itertools.product(range(9), repeat=3))
    for name in COMPOUNDS:
        _assert_children_canonical(
            compound_ruleset(name),
            [PushPosition(phase, pair) for phase in Phase for pair in pairs],
        )
    rng = random.Random(7)
    boards = []
    for rows, cols in itertools.product(range(3, 6), range(4, 6)):
        for _ in range(20):
            occ = rng.getrandbits(rows * cols) & rng.getrandbits(rows * cols)
            board = GridBoard(rows, cols, occ)
            boards += [board, PushPosition(Phase.AFTER, board)]
    for ruleset in (CRAM, CRAM_SEARCH):
        _assert_children_canonical(ruleset, boards)


def test_leaf_positions_are_never_stored():
    # Push Cram keys are bare ints before the button and PushPositions after
    # it; every after-button child is a leaf of CRAM, so normal play and
    # Grundy searches store only ints, while misere play searches them.
    solver = Solver(CRAM)
    for rows, cols in [(3, 4), (4, 4), (5, 4), (3, 5), (5, 5)]:
        solver.outcome(GridBoard(rows, cols))
        solver.grundy(GridBoard(rows, cols))
        solver.outcome(GridBoard(rows, cols), Convention.MISERE)
    for table in (solver.table(None), solver.table(Convention.NORMAL)):
        assert table and all(key.__class__ is int for key in table)
    assert any(key.__class__ is PushPosition for key in solver.table(Convention.MISERE))


def test_canonical_defaults_to_the_identity():
    ruleset = Ruleset("r", nim_moves)
    for position in ((3, 1), [2], object()):
        assert ruleset.canonical(position) is position


def test_memo_cap_from_env(monkeypatch):
    monkeypatch.setenv("GAMELAB_MEMO_CAP", "12345")
    assert memo_cap_from_env() == 12345
    monkeypatch.setenv("GAMELAB_MEMO_CAP", "junk")
    with pytest.raises(ValueError):
        memo_cap_from_env()
    monkeypatch.setenv("GAMELAB_MEMO_CAP", "-3")
    with pytest.raises(ValueError):
        memo_cap_from_env()
    monkeypatch.delenv("GAMELAB_MEMO_CAP")
    assert memo_cap_from_env() == 25_000_000


def test_default_memo_cap_fits_in_4_gib():
    # A search peaks at about 110-175 bytes of resident memory per entry
    # (dict resizes make it jump), so at 160 bytes the default cap is at most
    # 4 GiB, and at 175 bytes 4.1 GiB: it fails with exit code 2 before an
    # 8 GB machine runs out of memory.
    assert DEFAULT_MEMO_CAP * 160 <= 4 * 2**30


def test_solver_reads_env_cap(monkeypatch):
    monkeypatch.setenv("GAMELAB_MEMO_CAP", "16")
    solver = Solver(NIM)
    with pytest.raises(MemoLimitExceeded):
        solver.grundy((40, 41, 42))
    assert solver.entry_count() <= solver.memo_cap
    # The cap is exact: the search stops at the store that would pass it.
    solver = Solver(NIM)
    with pytest.raises(MemoLimitExceeded):
        solver.outcome((5, 6, 7))
    assert solver.entry_count() == solver.memo_cap == 16
    # A root that is a leaf is stored too, so never into a full table.
    monkeypatch.setenv("GAMELAB_MEMO_CAP", "1")
    solver = Solver(Ruleset("nim-xor", NIM.options, canonical=NIM.canonical, leaf=sum_grundy))
    assert solver.grundy((1, 2)) == 3
    with pytest.raises(MemoLimitExceeded):
        solver.grundy((1, 3))
    assert solver.entry_count() == 1


def test_cycle_detection():
    loop = Ruleset(name="loop", options=lambda pos: [pos])
    with pytest.raises(ValueError):
        Solver(loop).outcome(0)


def test_deep_position_no_recursion_limit():
    # An explicit-stack evaluator must survive chains far beyond CPython's
    # default recursion limit.
    solver = Solver(subtraction((1,)))
    n = 50_000
    assert solver.outcome((n,)) is (Outcome.N if n % 2 else Outcome.P)


def test_cache_stats_and_tables():
    solver = Solver(NIM)
    solver.grundy((3, 4))
    stats = solver.cache_stats()
    assert stats["entries"] == solver.entry_count() > 0
    assert solver.table(None)[(3, 4)] == 7
    solver.outcome((1, 2), Convention.MISERE)
    assert solver.table(Convention.MISERE)[(1, 2)] is Outcome.N


def test_outcome_rejects_non_convention():
    solver = Solver(NIM)
    for convention in (None, "normal", 0, [Convention.NORMAL]):
        with pytest.raises(ValueError, match="Convention"):
            solver.outcome((3, 5), convention)
    assert solver.outcome((3, 5), Convention.NORMAL) is Outcome.N
    assert solver.outcome((3, 5), Convention.MISERE) is Outcome.N


def test_solver_for_reuses_instances():
    assert solver_for(NIM) is solver_for(NIM)
    # A copy, as the benchmark's tracer makes one, is a ruleset of its own.
    traced = copy.copy(NIM)
    assert solver_for(traced) is solver_for(traced) is not solver_for(NIM)
