"""Two-phase compounds: options, equivalence lemma, closed-form P-sets."""

import itertools

import pytest

from gamelab.core import Convention, Outcome, Ruleset, Solver, sum_grundy, sum_rulesets
from gamelab.heaps import EUCLID, NIM, WYTHOFF, subtraction
from gamelab.push import (
    COMPOUND_ORACLES,
    COMPOUNDS,
    Phase,
    PushPosition,
    compound_ruleset,
    is_euclid_nim_p,
    is_nim_euclid_p,
    is_nim_wythoff_p,
    is_wythoff_nim_p,
    nim_euclid_fib_classify,
    nim_euclid_pairs,
    nim_euclid_pairs_below,
    push_p_oracle,
    push_ruleset,
)

from reference import euclid_moves, fibonacci as fib, naive_outcome, nim_moves, push_moves

NIM_EUCLID = compound_ruleset("nim-euclid")


def test_option_lists():
    # Before the button a position is the first ruleset's own; a BEFORE
    # wrapper is read as that position by `canonical`, which options trust.
    canonical = NIM_EUCLID.canonical
    assert canonical(PushPosition(Phase.BEFORE, (0, 0))) == (0, 0)
    assert NIM_EUCLID.options((0, 0)) == [PushPosition(Phase.AFTER, (0, 0))]
    with pytest.raises(ValueError, match="bad phase"):
        canonical(PushPosition("after", (1, 2)))  # a string, not a Phase
    opts = NIM_EUCLID.options((1, 1))
    assert opts[-1] == PushPosition(Phase.AFTER, (1, 1))
    assert set(opts) == {
        canonical(p)
        for p in (
            PushPosition(Phase.AFTER, (1, 1)),
            PushPosition(Phase.BEFORE, (0, 1)),
            PushPosition(Phase.BEFORE, (1, 0)),
        )
    }
    assert NIM_EUCLID.options(PushPosition(Phase.AFTER, (3, 3))) == []
    after = NIM_EUCLID.options(PushPosition(Phase.AFTER, (3, 10)))
    assert set(after) == {
        canonical(p)
        for p in (
            PushPosition(Phase.AFTER, (3, 7)),
            PushPosition(Phase.AFTER, (3, 4)),
            PushPosition(Phase.AFTER, (3, 1)),
        )
    }


def test_before_wrapper_and_bare_root_share_one_entry():
    # The four compounds canonicalize; the subtraction one only unwraps.
    cases = [(compound_ruleset(name), (5, 3)) for name in COMPOUNDS]
    cases.append((push_ruleset(subtraction((1, 2)), NIM), (7,)))
    for ruleset, g in cases:
        solver = Solver(ruleset)
        bare = solver.outcome(g)
        entries = solver.entry_count()
        assert solver.outcome(PushPosition(Phase.BEFORE, g)) is bare, ruleset
        assert solver.entry_count() == entries, ruleset
        assert ruleset.canonical(g) in solver.table(Convention.NORMAL), ruleset


def test_each_phase_takes_its_own_canonical_form():
    # After the button a position is NIM's, so both heap orders are one root.
    solver = Solver(push_ruleset(subtraction((1, 2)), NIM))
    first = solver.outcome(PushPosition(Phase.AFTER, (4, 3)))
    assert solver.outcome(PushPosition(Phase.AFTER, (3, 4))) is first
    assert solver.entry_count() == 11


def test_button_child_takes_the_second_form():
    # An identity-form first ruleset hands on (5, 3) as it is; the button
    # child puts it in Euclid's sorted form, and the search stores only that.
    r1 = Ruleset("drop-first", lambda p: [(p[0] - 1, p[1])] if p[0] else [])
    compound = push_ruleset(r1, EUCLID)
    assert compound.options((5, 3))[-1] == PushPosition(Phase.AFTER, (3, 5))
    solver = Solver(compound)
    solver.grundy((6, 3))
    after = [p.inner for p in solver.table() if p.__class__ is PushPosition]
    assert (3, 5) in after
    assert all(inner == tuple(sorted(inner)) for inner in after)
    # Before the button, r2's leaf scores that same button child.
    scored = []
    r2 = Ruleset("euclid-scored", EUCLID.options, EUCLID.canonical, leaf=scored.append)
    assert push_ruleset(r1, r2).leaf((5, 3)) is None
    assert scored == [(3, 5)]


def test_after_button_plays_as_the_second_ruleset():
    # After the button only the second ruleset moves, so the CLI asks an
    # after-button question of r2 itself (`solve --ruleset euclid ...`).
    for name, (_, r2) in COMPOUNDS.items():
        compound, inner = Solver(compound_ruleset(name)), Solver(r2)
        for a, b in itertools.product(range(13), repeat=2):
            after = PushPosition(Phase.AFTER, (a, b))
            assert compound.grundy(after) == inner.grundy((a, b)), (name, a, b)
            for convention in Convention:
                got = compound.outcome(after, convention)
                assert got is inner.outcome((a, b), convention), (name, a, b, convention)


def test_push_passes_the_second_leaf_through():
    expanded = []

    def nim_options(pos):
        expanded.append(pos)
        return NIM.options(pos)

    nim_xor = Ruleset("nim-xor", nim_options, canonical=NIM.canonical, leaf=sum_grundy)
    plain = Solver(push_ruleset(NIM, NIM))
    fast = Solver(push_ruleset(NIM, nim_xor))
    roots = [PushPosition(Phase.BEFORE, (a, b)) for a in range(9) for b in range(9)]
    for pos in roots:
        assert fast.outcome(pos) is plain.outcome(pos), pos
        assert fast.grundy(pos) == plain.grundy(pos), pos
    assert expanded == []  # every after-button position was a leaf
    for pos in roots:
        assert fast.outcome(pos, Convention.MISERE) is plain.outcome(pos, Convention.MISERE), pos


def test_registry_and_caching():
    assert set(COMPOUNDS) == {"nim-euclid", "nim-wythoff", "euclid-nim", "wythoff-nim"}
    assert set(COMPOUND_ORACLES) == set(COMPOUNDS)
    assert compound_ruleset("nim-euclid") is NIM_EUCLID
    assert NIM_EUCLID.name == "push(nim,euclid)"
    with pytest.raises(ValueError):
        compound_ruleset("nope")
    with pytest.raises(ValueError):
        push_p_oracle("nope", (1, 2))


def test_compound_rulesets_share_the_pair_form():
    # One form for both phases: push_ruleset then leaves every button child
    # as it is, and the form refuses a root that is not two heaps.
    for name, (r1, r2) in COMPOUNDS.items():
        assert r1.canonical is r2.canonical, name
        assert r1.canonical((5, 2)) == (2, 5), name
        with pytest.raises(ValueError, match=r"expected 2 heaps, got \(1, 2, 3\)"):
            r1.canonical((1, 2, 3))
    nims = {r for pair in COMPOUNDS.values() for r in pair if r.name == "nim"}
    assert len(nims) == 1 and NIM not in nims  # the any-arity Nim stays as it was
    assert next(iter(nims)).options is NIM.options


@pytest.mark.parametrize("position", [(-2, 0), (0, -1)])
@pytest.mark.parametrize("oracle", sorted(COMPOUND_ORACLES))
def test_compound_oracles_refuse_negative_heaps(oracle, position):
    with pytest.raises(ValueError, match="non-negative"):
        COMPOUND_ORACLES[oracle](*position)


def test_self_compound_equals_sum_with_unit_heap():
    # R-then-R has the same Grundy values as R plus a one-token Nim heap.
    solver = Solver(push_ruleset(NIM, NIM))
    sum_solver = Solver(sum_rulesets(NIM, NIM))
    for a in range(10):
        for b in range(10):
            left = solver.grundy(PushPosition(Phase.BEFORE, (a, b)))
            right = sum_solver.grundy(((a, b), (1,)))
            assert left == right, (a, b)
    s12 = subtraction((1, 2))
    solver = Solver(push_ruleset(s12, s12))
    sum_solver = Solver(sum_rulesets(s12, NIM))
    for n in range(25):
        assert solver.grundy(
            PushPosition(Phase.BEFORE, (n,))
        ) == sum_solver.grundy(((n,), (1,)))


def test_nim_euclid_examples():
    assert is_nim_euclid_p(7, 12)
    assert is_nim_euclid_p(0, 1)
    assert is_nim_euclid_p(12, 7)
    assert not is_nim_euclid_p(1, 2)
    assert not is_nim_euclid_p(12, 20)
    assert not is_nim_euclid_p(0, 0)


def test_nim_euclid_three_descriptions_agree():
    # Search, toggled-Beatty predicate, and the mex/ceil-phi recurrence.
    solver = Solver(NIM_EUCLID)
    for x in range(26):
        for y in range(26):
            search_p = solver.outcome(PushPosition(Phase.BEFORE, (x, y))) is Outcome.P
            assert search_p == is_nim_euclid_p(x, y), (x, y)
    pairs = nim_euclid_pairs_below(80)
    predicate_set = {
        (x, y) for x in range(81) for y in range(81) if is_nim_euclid_p(x, y)
    }
    recurrence_set = set(pairs) | {(b, a) for a, b in pairs}
    assert predicate_set == recurrence_set


def test_nim_euclid_toggled_pairs_to_large_index():
    # The toggled pairs (fib(k+1) - 1, fib(k+2) - 1) are P exactly for odd k,
    # and the pair test agrees with the Zeckendorf classification on both
    # members far past the 10^4 of criterion 2.
    for k in range(86):
        x, y = fib(k + 1) - 1, fib(k + 2) - 1
        p = is_nim_euclid_p(x, y)
        assert p is (k % 2 == 1), k
        assert p is (nim_euclid_fib_classify(x) == (True, y)), k
        assert p is (nim_euclid_fib_classify(y) == (False, x)), k


def test_nim_euclid_pair_tables():
    assert nim_euclid_pairs(3) == [(0, 1), (2, 4), (3, 5)]
    assert nim_euclid_pairs_below(28) == [
        (0, 1),
        (2, 4),
        (3, 5),
        (6, 10),
        (7, 12),
        (8, 13),
        (9, 15),
        (11, 18),
        (14, 23),
        (16, 26),
        (17, 28),
    ]
    assert nim_euclid_pairs(11) == nim_euclid_pairs_below(28)
    with pytest.raises(ValueError):
        nim_euclid_pairs(-1)


def test_fib_classification():
    assert nim_euclid_fib_classify(0) == (True, 1)
    assert nim_euclid_fib_classify(1) == (False, 0)
    assert nim_euclid_fib_classify(2) == (True, 4)
    assert nim_euclid_fib_classify(4) == (False, 2)
    assert nim_euclid_fib_classify(7) == (True, 12)
    for a, b in nim_euclid_pairs_below(300):
        assert nim_euclid_fib_classify(a) == (True, b)
        assert nim_euclid_fib_classify(b) == (False, a)


def test_all_compound_oracles_match_search():
    for name in COMPOUNDS:
        solver = Solver(compound_ruleset(name))
        for x in range(22):
            for y in range(22):
                want = solver.outcome(PushPosition(Phase.BEFORE, (x, y)))
                assert push_p_oracle(name, (x, y)) is want, (name, x, y)


def test_other_compound_examples():
    assert is_nim_wythoff_p(0, 1)
    assert is_nim_wythoff_p(2, 2)
    assert not is_nim_wythoff_p(1, 1)
    assert not is_nim_wythoff_p(0, 0)
    assert is_euclid_nim_p(0, 4)
    assert not is_euclid_nim_p(0, 0)
    assert is_euclid_nim_p(1, 2)
    assert not is_euclid_nim_p(1, 1)
    assert is_wythoff_nim_p(0, 1)
    assert is_wythoff_nim_p(2, 4)
    assert not is_wythoff_nim_p(0, 0)
    assert not is_wythoff_nim_p(1, 2)


def test_compound_against_naive_reference():
    moves = push_moves(nim_moves, euclid_moves)
    memo = {}
    solver = Solver(NIM_EUCLID)
    for x in range(13):
        for y in range(13):
            naive = naive_outcome(moves, (False, (x, y)), memo=memo)
            ours = solver.outcome(PushPosition(Phase.BEFORE, (x, y)))
            assert ours.value == naive, (x, y)


def test_structural_characterization():
    # BEFORE-phase position is P iff pressing loses for the opponent is false
    # everywhere: the second game is N as-is, and every first-game move gives N.
    solver = Solver(NIM_EUCLID)
    r2_solver = Solver(EUCLID)
    for x in range(15):
        for y in range(15):
            is_p = solver.outcome(PushPosition(Phase.BEFORE, (x, y))) is Outcome.P
            structural = r2_solver.outcome((x, y)) is Outcome.N and all(
                solver.outcome(PushPosition(Phase.BEFORE, opt)) is Outcome.N
                for opt in NIM.options(NIM.canonical((x, y)))
            )
            assert is_p == structural, (x, y)
