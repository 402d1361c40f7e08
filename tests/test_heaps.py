"""Base heap rulesets and their closed-form P-position tests."""

import pytest

from gamelab.arith import ceil_phi
from gamelab.core import Convention, Outcome, Solver
from gamelab.heaps import (
    BASE_ORACLES,
    EUCLID,
    NIM,
    RULESETS,
    WYTHOFF,
    ZERUCLID,
    is_euclid_misere_p,
    is_euclid_p,
    is_nim_misere_p,
    is_nim_p,
    is_wythoff_p,
    subtraction,
)
from gamelab.cram import GridBoard
from gamelab.periodicity import compound_certificates
from gamelab.push import Phase, PushPosition, compound_ruleset

from reference import (
    euclid_moves,
    naive_outcome,
    nim_moves,
    subtraction_moves,
    wythoff_moves,
    zeruclid_moves,
)


def test_registry_contents():
    assert set(RULESETS) == {"nim", "wythoff", "euclid", "zeruclid"}
    assert RULESETS["nim"] is NIM
    assert set(BASE_ORACLES) == {
        "nim-normal",
        "nim-misere",
        "wythoff",
        "euclid-normal",
        "euclid-misere",
    }


def canonical_set(ruleset, moves):
    """The reference moves as the canonical children options() lists."""
    return {ruleset.canonical(m) for m in moves}


def canonical_options(ruleset, position):
    """The options of `position`, asked as a solver asks them: of its canonical form."""
    return ruleset.options(ruleset.canonical(position))


def test_option_sets_match_reference():
    for a in range(7):
        for b in range(7):
            assert set(canonical_options(NIM, (a, b))) == canonical_set(NIM, nim_moves((a, b)))
            assert set(canonical_options(WYTHOFF, (a, b))) == canonical_set(
                WYTHOFF, wythoff_moves((a, b))
            )
            assert set(canonical_options(EUCLID, (a, b))) == canonical_set(
                EUCLID, euclid_moves((a, b))
            )
    for heaps in [(0, 0, 0), (1, 2, 3), (2, 3, 5), (4, 4, 4), (0, 2, 6)]:
        assert set(canonical_options(ZERUCLID, heaps)) == canonical_set(
            ZERUCLID, zeruclid_moves(heaps)
        )


def test_options_are_duplicate_free():
    for ruleset in (NIM, WYTHOFF, EUCLID, ZERUCLID):
        for a in range(6):
            for b in range(6):
                opts = canonical_options(ruleset, (a, b))
                assert len(opts) == len(set(opts))
    # Repeated and zero heaps: equal heaps give equal children, so each
    # distinct heap value is lowered once, from any input order.
    for heaps in [(2, 2, 5), (1, 1, 1, 7), (0, 3, 3, 3, 8), (0, 0, 4)]:
        for ruleset, moves in ((NIM, nim_moves), (ZERUCLID, zeruclid_moves)):
            want = canonical_set(ruleset, moves(heaps))
            for position in (heaps, heaps[::-1]):
                opts = canonical_options(ruleset, position)
                assert all(child == tuple(sorted(child)) for child in opts), heaps
                assert len(opts) == len(set(opts)), heaps
                assert set(opts) == want, heaps


def test_heap_move_order_keeps_search_small():
    # Likeliest P children first: in generation order (smallest heap first,
    # no diagonal first) the nim-wythoff sweep held 3,760 entries and the
    # band sweep 23,162.
    nim_wythoff = Solver(compound_ruleset("nim-wythoff"))
    for a in range(61):
        for b in range(61):
            nim_wythoff.outcome(PushPosition(Phase.BEFORE, (a, b)))
    assert nim_wythoff.entry_count() < 2_500
    band = Solver(ZERUCLID)
    for b in range(1, 31):
        for a in range(1, b + 1):
            for c in range(b, ceil_phi(b) + a + 3):
                band.outcome((a, b, c))
    assert band.entry_count() < 20_500
    for a in range(1, 12):
        for b in range(a, 20):
            assert canonical_options(WYTHOFF, (a, b))[0] == (a - 1, b - 1)
            assert canonical_options(WYTHOFF, (b, a))[0] == (a - 1, b - 1)


def test_euclid_option_examples():
    assert canonical_options(EUCLID, (3, 3)) == []
    assert canonical_options(EUCLID, (0, 0)) == []
    assert set(canonical_options(EUCLID, (0, 5))) == {(0, 0)}
    assert set(canonical_options(EUCLID, (5, 0))) == {(0, 0)}
    assert set(canonical_options(EUCLID, (3, 10))) == canonical_set(
        EUCLID, {(3, 7), (3, 4), (3, 1)}
    )


def test_zeruclid_option_example():
    assert set(ZERUCLID.options((2, 3, 5))) == canonical_set(
        ZERUCLID,
        {
            (0, 3, 5),
            (2, 1, 5),
            (2, 3, 3),
            (2, 3, 1),
        },
    )


def test_subtraction_ruleset():
    s12 = subtraction((1, 2))
    assert s12.name == "subtraction(1,2)"
    assert subtraction((2, 1)) is s12
    for n in range(10):
        assert set(s12.options((n,))) == set(subtraction_moves((1, 2), (n,)))


@pytest.mark.parametrize(
    "moves", [[True], [1, True], [1.5], [2.0, 1], ["1"]],
    ids=["bool", "int-and-bool", "float", "integral-float", "string"],
)
def test_subtraction_set_takes_only_ints(moves):
    with pytest.raises(ValueError, match="positive ints"):
        subtraction(moves)
    with pytest.raises(ValueError, match="positive ints"):
        compound_certificates(moves, [1])
    # A refused set leaves no alias behind in the constructor's cache.
    assert subtraction([1]).name == "subtraction(1)"


def test_heap_validation():
    # A root is checked where it enters the search, by the canonical form.
    with pytest.raises(ValueError):
        Solver(NIM).outcome((1, -2))
    with pytest.raises(ValueError):
        Solver(NIM).outcome([1, 2])
    with pytest.raises(ValueError):
        Solver(NIM).outcome((True, 2))
    with pytest.raises(ValueError):
        Solver(WYTHOFF).outcome((1, 2, 3))
    with pytest.raises(ValueError):
        Solver(EUCLID).outcome((4,))
    with pytest.raises(ValueError):
        subtraction(())
    with pytest.raises(ValueError):
        subtraction((0, 1))


@pytest.mark.parametrize(
    "ask",
    [
        lambda: Solver(NIM).outcome(GridBoard(1, 2, 0)),
        lambda: Solver(NIM).outcome([1, 2]),
        lambda: Solver(ZERUCLID).grundy(GridBoard(1, 2, 0)),
        lambda: is_nim_p(GridBoard(2, 3, 5)),
    ],
    ids=["nim-root-board", "nim-root-list", "zeruclid-root-board", "nim-oracle-board"],
)
def test_heap_positions_are_plain_tuples(ask):
    # A tuple subclass or a list sorts like a heap tuple, but is none.
    with pytest.raises(ValueError, match="heap position must be a tuple"):
        ask()


@pytest.mark.parametrize(
    "ruleset, stored, bad",
    [
        *(
            (ruleset, (1, 2), bad)
            for ruleset in (NIM, WYTHOFF, EUCLID, ZERUCLID)
            for bad in ((True, 2), (1.0, 2), (2, -1))
        ),
        *((subtraction((1, 2)), (1,), bad) for bad in ((True,), (1.0,))),
    ],
    ids=lambda v: repr(v) if isinstance(v, tuple) else getattr(v, "name", None),
)
def test_heap_roots_are_refused_whatever_the_memo_holds(ruleset, stored, bad):
    # True == 1 and 1.0 == 1, so a memo hit on the stored root would answer a
    # bad one: the canonical form checks it before any lookup.
    solver = Solver(ruleset)
    solver.outcome(stored)
    solver.grundy(stored)
    with pytest.raises(ValueError, match="heap sizes must be non-negative ints"):
        solver.outcome(bad)
    with pytest.raises(ValueError, match="heap sizes must be non-negative ints"):
        solver.grundy(bad)


def test_euclid_small_outcomes():
    solver = Solver(EUCLID)
    assert solver.outcome((1, 2)) is Outcome.N
    assert solver.outcome((2, 3)) is Outcome.P
    assert solver.outcome((3, 4)) is Outcome.P
    assert solver.outcome((7, 12)) is Outcome.N
    assert solver.outcome((2, 3), Convention.MISERE) is Outcome.N
    assert solver.outcome((3, 4), Convention.MISERE) is Outcome.P


def test_closed_forms_match_search():
    nim_solver = Solver(NIM)
    for a in range(26):
        for b in range(26):
            assert is_nim_p((a, b)) == (nim_solver.outcome((a, b)) is Outcome.P)
            assert is_nim_misere_p((a, b)) == (
                nim_solver.outcome((a, b), Convention.MISERE) is Outcome.P
            )
    wythoff_solver = Solver(WYTHOFF)
    for a in range(26):
        for b in range(26):
            assert is_wythoff_p((a, b)) == (
                wythoff_solver.outcome((a, b)) is Outcome.P
            )
    euclid_solver = Solver(EUCLID)
    for a in range(1, 41):
        for b in range(1, 41):
            assert is_euclid_p((a, b)) == (
                euclid_solver.outcome((a, b)) is Outcome.P
            )
            assert is_euclid_misere_p((a, b)) == (
                euclid_solver.outcome((a, b), Convention.MISERE) is Outcome.P
            )


def test_closed_forms_match_naive_reference():
    out_memo = {}
    for a in range(16):
        for b in range(16):
            assert is_nim_p((a, b)) == (
                naive_outcome(nim_moves, (a, b), memo=out_memo) == "P"
            )
    wy_memo = {}
    for a in range(16):
        for b in range(16):
            assert is_wythoff_p((a, b)) == (
                naive_outcome(wythoff_moves, (a, b), memo=wy_memo) == "P"
            )
    eu_memo = {}
    eu_mis = {}
    for a in range(1, 26):
        for b in range(1, 26):
            assert is_euclid_p((a, b)) == (
                naive_outcome(euclid_moves, (a, b), memo=eu_memo) == "P"
            )
            assert is_euclid_misere_p((a, b)) == (
                naive_outcome(euclid_moves, (a, b), misere=True, memo=eu_mis) == "P"
            )


def test_euclid_closed_forms_reject_zero_heaps():
    with pytest.raises(ValueError):
        is_euclid_p((0, 5))
    with pytest.raises(ValueError):
        is_euclid_misere_p((5, 0))


def test_base_oracles_dispatch():
    assert BASE_ORACLES["nim-normal"]((3, 3)) is True
    assert BASE_ORACLES["nim-normal"]((3, 4)) is False
    assert BASE_ORACLES["nim-misere"]((1,)) is True
    assert BASE_ORACLES["wythoff"]((1, 2)) is True
    assert BASE_ORACLES["euclid-normal"]((2, 3)) is True
    assert BASE_ORACLES["euclid-misere"]((1, 2)) is True
    assert BASE_ORACLES["euclid-misere"]((1, 1)) is False
