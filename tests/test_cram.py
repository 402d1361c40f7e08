"""Two-phase domino boards: strip values, fast solver, closed forms, bluff."""

import itertools
import random
from collections import Counter

import pytest

from gamelab.core import Convention, Outcome, Solver, solver_for
from gamelab.cram import (
    CRAM,
    CRAM_SEARCH,
    HORIZONTAL,
    VERTICAL,
    MAX_CELLS,
    BluffReport,
    GridBoard,
    Phase,
    bluff_report,
    cram_closed_form,
    g007,
    g007_certificate,
    legal_moves,
    phase1_value,
    post_button_value,
    _strip_xor,
)

from gamelab.push import PushPosition, push_ruleset

from reference import board_state, cram_moves, cram_start, naive_outcome, strip_value

N, P = Outcome.N, Outcome.P
MISERE = Convention.MISERE


def _at(board, phase):
    """The Push Cram position of a board in a phase."""
    return PushPosition(phase, board) if phase is Phase.AFTER else board


# -- strip values --------------------------------------------------------------


def test_g007_prefix():
    assert [g007(n) for n in range(12)] == [0, 0, 1, 1, 2, 0, 3, 1, 1, 0, 3, 3]


def test_g007_matches_independent_recursion():
    # Past the computed table too: the seam between it and the periodic tail.
    for n in range(600):
        assert g007(n) == strip_value(n), n


def test_g007_certificate_and_tail():
    cert = g007_certificate()
    assert (cert.preperiod, cert.period) == (52, 34)
    for n in (60, 123, 300, 5_000, 10**9):
        assert g007(n) == g007(n + 34), n


def test_g007_zeros_are_all_odd_in_range():
    zeros = {n for n in range(1, 501) if g007(n) == 0}
    assert all(n % 2 == 1 for n in zeros)
    assert {1, 5, 9, 15, 21, 25} <= zeros
    assert all(g007(n) != 0 for n in range(2, 501, 2))


def test_g007_domain():
    with pytest.raises(ValueError):
        g007(-1)


# -- boards --------------------------------------------------------------------


def test_board_validation():
    # A GridBoard is plain data, like a heap tuple: made without a check, it
    # is checked where it enters, in the canonical form.
    assert GridBoard._fields == ("rows", "cols", "occupied")
    assert GridBoard(8, 8).rows == 8
    assert GridBoard(0, 3) == (0, 3, 0)
    assert MAX_CELLS == 64
    for board, message in [
        (GridBoard(0, 3), "board must be at least 1x1, got 0x3"),
        (GridBoard(9, 8), "board 9x8 exceeds 64 cells"),
        (GridBoard(2, 2, occupied=1 << 4), "occupancy out of range for 2x2"),
        (GridBoard(2, 2, occupied=-1), "occupancy out of range for 2x2"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            CRAM.canonical(board)
    # An int key whose shape bits are zero names no board, and says so.
    with pytest.raises(ValueError, match="^key 5 names no board: board must be at least 1x1, got 0x0$"):
        VERTICAL.canonical(5)


#: Boards that name no board, made by the constructor, `_replace` or `_make`:
#: each is refused where it enters.
_BAD_BOARDS = {
    "zero-rows": GridBoard(0, 3),
    "too-many-cells": GridBoard(9, 8),
    "occupancy-off-board": GridBoard(2, 2, 1 << 4),
    "negative-occupancy": GridBoard(2, 2, -1),
    "replace-cols": GridBoard(3, 3)._replace(cols=70),
    "replace-rows": GridBoard(3, 3)._replace(rows=0),
    "replace-occupied": GridBoard(3, 3)._replace(occupied=-1),
    "replace-bool-rows": GridBoard(3, 3)._replace(rows=True),
    "make": GridBoard._make((9, 8, 0)),
}


@pytest.mark.parametrize("board", list(_BAD_BOARDS.values()), ids=list(_BAD_BOARDS))
def test_bad_boards_are_refused_where_they_enter(board):
    # CRAM.canonical first: a search of a board that is not refused may not end.
    entries = [CRAM.canonical, VERTICAL.canonical, HORIZONTAL.canonical]
    entries += [legal_moves, post_button_value]
    entries += [Solver(r).outcome for r in (CRAM, CRAM_SEARCH, VERTICAL, HORIZONTAL)]
    entries += [Solver(HORIZONTAL).grundy]
    for entry in entries:
        with pytest.raises(ValueError):
            entry(board)
    for phase in Phase:
        for entry in (CRAM.canonical, legal_moves, post_button_value, Solver(CRAM).outcome):
            with pytest.raises(ValueError):
                entry(PushPosition(phase, board))


@pytest.mark.parametrize(
    "rows, cols", [(0, 4), (4, 0), (-1, 4), (9, 8), (3, 70), (True, 3), (2, 3.0), ("2", 3)]
)
def test_shape_functions_refuse_what_boards_refuse(rows, cols):
    # cram_closed_form and phase1_value check their shape through the same
    # code as the canonical form.
    with pytest.raises(ValueError) as board_error:
        CRAM.canonical(GridBoard(rows, cols))
    for function in (cram_closed_form, phase1_value, bluff_report):
        with pytest.raises(ValueError) as error:
            function(rows, cols)
        assert str(error.value) == str(board_error.value), function


#: The refusal of a position that is neither a board nor a key, true for a
#: CRAM caller and a VERTICAL or HORIZONTAL one alike.
_NOT_A_BOARD = (
    r"^expected a GridBoard or its int key, got .*"
    r" \(CRAM takes either, alone or in one PushPosition\)$"
)


def test_refusals_name_their_cause():
    # An int key is named as a key; a position that is neither a board nor a
    # key is told what CRAM takes.
    with pytest.raises(ValueError, match="^key 5 names no board: "):
        legal_moves(5)
    with pytest.raises(ValueError, match="^key 5 names no board: "):
        Solver(CRAM).outcome(5)
    with pytest.raises(ValueError, match=_NOT_A_BOARD):
        legal_moves((2, 3))
    with pytest.raises(ValueError, match=_NOT_A_BOARD):
        CRAM.canonical(PushPosition(Phase.BEFORE, PushPosition(Phase.AFTER, GridBoard(2, 3))))


#: A 2x2 shape key with occupancy bit 10 set: no 2x2 board has that cell.
_OFF_BOARD_KEY = ((2 << 8 | 2) << 64) | 1 << 10


@pytest.mark.parametrize(
    "ruleset, root",
    [
        (VERTICAL, _OFF_BOARD_KEY),
        (HORIZONTAL, _OFF_BOARD_KEY),
        (CRAM, _OFF_BOARD_KEY),
        (CRAM, PushPosition(Phase.AFTER, _OFF_BOARD_KEY)),
    ],
    ids=["vertical", "horizontal", "cram", "cram-after"],
)
def test_int_key_roots_are_checked(ruleset, root):
    with pytest.raises(ValueError, match="occupancy out of range for 2x2"):
        Solver(ruleset).outcome(root)


@pytest.mark.parametrize(
    "fields", [(2, 3, 1.0), (True, 3), (2, 3.0), (2, 3, False), ("2", 3)],
    ids=["float-occupied", "bool-rows", "float-cols", "bool-occupied", "string-rows"],
)
def test_board_fields_are_ints(fields):
    board = GridBoard(*fields)
    for ask in (CRAM.canonical, Solver(VERTICAL).outcome, legal_moves):
        with pytest.raises(ValueError, match="^board fields must be ints"):
            ask(board)


def test_canonical_board_flip_invariance():
    board = GridBoard(2, 3, 0b001001)  # cells (0,0) and (1,0)
    flipped = GridBoard(2, 3, 0b100100)  # cells (0,2) and (1,2)
    # A key is its empty board's key (the shape) OR the least occupancy.
    key = CRAM.canonical(GridBoard(2, 3)) | 0b001001
    assert CRAM.canonical(board) == CRAM.canonical(flipped) == key
    # Canonicalization never changes shape or phase.
    after = PushPosition(Phase.AFTER, flipped)
    assert CRAM.canonical(after) == PushPosition(Phase.AFTER, key)


def _flip_images(board):
    """Occupancies of the h, v and hv flips of a board, cell by cell."""
    rows, cols = board.rows, board.cols
    cells = [
        (r, c) for r in range(rows) for c in range(cols) if board.occupied >> (r * cols + c) & 1
    ]
    images = []
    for fh, fv in ((True, False), (False, True), (True, True)):
        occ = 0
        for r, c in cells:
            occ |= 1 << ((rows - 1 - r if fv else r) * cols + (cols - 1 - c if fh else c))
        images.append(occ)
    return images


def test_canonical_board_agrees_across_flips():
    rng = random.Random(20190801)
    for rows, cols in [(3, 4), (5, 7), (8, 8), (1, 64), (64, 1), (2, 32), (7, 9)]:
        for _ in range(20):
            occ = rng.getrandbits(rows * cols)
            images = [occ, *_flip_images(GridBoard(rows, cols, occ))]
            key = CRAM.canonical(GridBoard(rows, cols)) | min(images)
            for phase in Phase:
                keys = {CRAM.canonical(_at(GridBoard(rows, cols, image), phase)) for image in images}
                assert keys == {_at(key, phase)}, (rows, cols, occ)


def test_outcome_invariant_under_flips():
    solver = Solver(CRAM)
    base = GridBoard(3, 3, 0b000000110)
    want = solver.outcome(base)
    for occ in (0b000000011, 0b110000000, 0b011000000):
        assert solver.outcome(GridBoard(3, 3, occ)) is want


# -- moves ---------------------------------------------------------------------


def test_legal_moves_button_last():
    assert legal_moves(GridBoard(1, 3)) == [PushPosition(Phase.AFTER, GridBoard(1, 3))]
    moves = legal_moves(GridBoard(2, 1))
    assert moves == [GridBoard(2, 1, 0b11), PushPosition(Phase.AFTER, GridBoard(2, 1))]
    assert legal_moves(PushPosition(Phase.AFTER, GridBoard(2, 2, 0b1111))) == []


def test_legal_moves_mirror_first():
    # Canonical children: the vertical placements that equal one of their own
    # flips (on 3x3, the middle column), then the rest, then the button child.
    for board in (GridBoard(3, 3), GridBoard(4, 3), GridBoard(4, 3, 0b010_000_000_010)):
        moves = legal_moves(board)
        assert moves[-1] == PushPosition(Phase.AFTER, board)
        mirrored = [b.occupied in _flip_images(b) for b in moves[:-1]]
        assert mirrored == sorted(mirrored, reverse=True), board
        assert True in mirrored and False in mirrored, board
    moves = legal_moves(GridBoard(3, 3))
    assert [b.occupied for b in moves[:-1]] == [0b010_010, 0b010_010, *[0b1_001] * 4]


def test_legal_moves_by_phase():
    board = GridBoard(2, 2)
    before = legal_moves(board)
    assert before[-1] == PushPosition(Phase.AFTER, board)
    # The two vertical dominoes are flips of each other: one canonical child, twice.
    assert before[:-1] == [GridBoard(2, 2, 0b0101)] * 2
    after = legal_moves(PushPosition(Phase.AFTER, board))
    assert after == [PushPosition(Phase.AFTER, GridBoard(2, 2, 0b0011))] * 2


def test_legal_moves_match_cell_set_reference():
    # The kernel's children, as a multiset, against the reference's raw
    # children put in canonical form by the cell-by-cell flips.
    for rows, cols in [(2, 3), (3, 3), (3, 2), (1, 4), (3, 4)]:
        for occ in range(1 << (rows * cols)):
            for phase, pushed in ((Phase.BEFORE, False), (Phase.AFTER, True)):
                position = _at(GridBoard(rows, cols, occ), phase)
                got = Counter(
                    (p[1].occupied, True) if p.__class__ is PushPosition else (p.occupied, False)
                    for p in legal_moves(position)
                )
                ref = Counter()
                for _, _, cells, pushed2 in cram_moves(board_state(rows, cols, occ, pushed)):
                    mask = 0
                    for r, c in cells:
                        mask |= 1 << (r * cols + c)
                    ref[min(mask, *_flip_images(GridBoard(rows, cols, mask))), pushed2] += 1
                assert got == ref, (rows, cols, occ, phase)


# -- after-phase reduction -------------------------------------------------------


def test_post_button_value_examples():
    assert post_button_value(GridBoard(2, 3, 0)) == 0
    assert post_button_value(GridBoard(1, 5, 0b00100)) == 0
    assert post_button_value(GridBoard(1, 5, 0)) == g007(5) == 0
    assert post_button_value(GridBoard(1, 4, 0)) == 2
    assert post_button_value(GridBoard(2, 4, 0b0000_0001)) == g007(3) ^ g007(4)


def test_post_button_value_takes_either_phase():
    for board in (GridBoard(2, 3), GridBoard(1, 4), GridBoard(2, 4, 0b0000_0001)):
        want = post_button_value(board)
        for phase in Phase:
            assert post_button_value(PushPosition(phase, board)) == want, (board, phase)


def test_position_functions_reject_other_types():
    # An int that names no board, a heap tuple, a wrapped one and a string
    # phase are not Push Cram positions; CRAM.canonical refuses each.
    bads = (5, (2, 3), PushPosition(Phase.AFTER, 5), PushPosition("after", GridBoard(1, 2)))
    for bad in bads:
        for function in (post_button_value, legal_moves, CRAM.canonical):
            with pytest.raises(ValueError):
                function(bad)


def test_position_functions_take_every_form_cram_takes():
    # A board, its BEFORE and AFTER wrappers, its int key (not canonicalized)
    # and the key in either wrapper: the helpers and the solver answer each
    # as they answer the board form of the same phase.
    boards = [GridBoard(2, 3, occ) for occ in range(1 << 6)]
    boards += [GridBoard(3, 3, occ) for occ in range(1 << 9)]
    rng = random.Random(26)
    boards += [GridBoard(3, 4, rng.getrandbits(12)) for _ in range(200)]
    solver = Solver(CRAM)
    for board in boards:
        key = CRAM.canonical(GridBoard(board.rows, board.cols)) | board.occupied
        forms = {
            Phase.BEFORE: [PushPosition(Phase.BEFORE, board), key, PushPosition(Phase.BEFORE, key)],
            Phase.AFTER: [PushPosition(Phase.AFTER, key)],
        }
        for phase, others in forms.items():
            position = _at(board, phase)
            want = (legal_moves(position), post_button_value(position), solver.outcome(position))
            for form in others:
                got = (legal_moves(form), post_button_value(form), solver.outcome(form))
                assert got == want, (board, phase, form)


def test_post_button_value_empty_boards():
    for rows in range(1, 7):
        for cols in range(1, 7):
            want = 0
            for _ in range(rows):
                want ^= g007(cols)
            assert post_button_value(GridBoard(rows, cols)) == want


def test_post_button_value_equals_search_grundy():
    solver = Solver(CRAM_SEARCH)
    for rows, cols in [(1, 6), (2, 3), (3, 3), (2, 4)]:
        for occ in range(1 << (rows * cols)):
            board = GridBoard(rows, cols, occ)
            after = PushPosition(Phase.AFTER, board)
            assert post_button_value(board) == solver.grundy(after), (rows, cols, occ)


# -- outcomes ------------------------------------------------------------------


def test_cram_is_the_push_compound():
    assert CRAM is push_ruleset(VERTICAL, HORIZONTAL)
    assert CRAM.leaf is not None and CRAM_SEARCH.leaf is None
    # CRAM_SEARCH is CRAM without its leaf: the same moves and canonical forms.
    assert CRAM_SEARCH.options is CRAM.options and CRAM_SEARCH.canonical is CRAM.canonical


def test_component_rulesets_take_before_phase_boards():
    # VERTICAL and HORIZONTAL read int keys and boards; a board's after-button
    # game is HORIZONTAL's game on that board.
    horizontal, vertical = Solver(HORIZONTAL), Solver(VERTICAL)
    for rows, cols in [(1, 5), (2, 3), (3, 3), (2, 4)]:
        for occ in range(1 << (rows * cols)):
            board = GridBoard(rows, cols, occ)
            assert horizontal.grundy(board) == post_button_value(board), (rows, cols, occ)
    for rows in range(1, 5):
        for cols in range(1, 5):
            got = vertical.grundy(GridBoard(rows, cols))
            assert got == phase1_value(rows, cols), (rows, cols)


def test_component_rulesets_reject_after_phase_boards():
    def searches(board):
        return [
            lambda solver: solver.grundy(board),
            lambda solver: solver.outcome(board),
            lambda solver: solver.outcome(board, Convention.MISERE),
        ]

    # A CRAM position is refused in either phase, as a board or as a key,
    # with a pointer to CRAM.
    board = GridBoard(2, 3)
    for ruleset in (HORIZONTAL, VERTICAL):
        for inner in (board, CRAM.canonical(board)):
            for phase in Phase:
                for search in searches(PushPosition(phase, inner)):
                    with pytest.raises(ValueError, match=_NOT_A_BOARD):
                        search(Solver(ruleset))
    # The compounds take both phases: grundy, normal and misere outcome.
    want = {Phase.BEFORE: [2, N, N], Phase.AFTER: [post_button_value(board), P, N]}
    for ruleset in (CRAM, CRAM_SEARCH):
        for phase, answers in want.items():
            position = _at(board, phase)
            assert [search(Solver(ruleset)) for search in searches(position)] == answers


def test_outcome_examples():
    fast = solver_for(CRAM)
    assert fast.outcome(GridBoard(2, 5)) is N
    assert fast.outcome(GridBoard(3, 4)) is P
    assert fast.outcome(GridBoard(5, 4)) is P
    assert fast.outcome(GridBoard(1, 3)) is P
    assert fast.outcome(GridBoard(1, 2)) is P
    assert fast.outcome(GridBoard(3, 3)) is N


def test_fast_solver_matches_pure_search():
    fast = Solver(CRAM)
    pure = Solver(CRAM_SEARCH)
    shapes = [(1, 5), (2, 3), (3, 3), (2, 5), (4, 3), (3, 4)]
    boards = [GridBoard(rows, cols) for rows, cols in shapes]
    boards.append(PushPosition(Phase.AFTER, GridBoard(1, 4)))
    for rows, cols, step in [(2, 3, 1), (3, 3, 5), (1, 7, 3), (3, 4, 37)]:
        for occ in range(0, 1 << (rows * cols), step):
            boards += [_at(GridBoard(rows, cols, occ), phase) for phase in Phase]
    for board in boards:
        assert fast.outcome(board) is pure.outcome(board), board
        assert fast.grundy(board) == pure.grundy(board), board
        assert fast.outcome(board, MISERE) is pure.outcome(board, MISERE), board


def test_mirror_first_ordering_keeps_search_small():
    # The count the README quotes: any change that moves the search moves it.
    # Without mirror-first ordering this search held 1,972,292 entries.
    solver = Solver(CRAM)
    assert solver.outcome(GridBoard(9, 4)) is cram_closed_form(9, 4) is P
    assert solver.entry_count() == 7_974


def test_outcome_search_stores_no_button_winnable_board():
    # CRAM's leaf settles a pre-button board of strip-value xor 0 as N (the
    # button wins there), so only a root can enter the table with xor 0.
    boards = [GridBoard(3, 5), GridBoard(5, 4), GridBoard(3, 6), GridBoard(4, 4, 0x861)]
    rng = random.Random(11)
    for rows, cols in [(3, 5), (4, 5), (5, 5)]:
        for _ in range(4):
            occ = rng.getrandbits(rows * cols) & rng.getrandbits(rows * cols)
            boards.append(GridBoard(rows, cols, occ))
    boards.append(GridBoard(5, 5, 0x200024))
    for board in boards:
        solver = Solver(CRAM)
        solver.outcome(board)
        root = CRAM.canonical(board)
        table = solver.table(Convention.NORMAL)
        assert root in table, board
        stored = [key for key in table if key != root]
        assert all(_strip_xor(key) != 0 for key in stored), board
    assert len(stored) > 1000  # the last board is a deep search, not a leaf


def test_outcomes_match_naive_reference():
    fast = Solver(CRAM)
    memo = {}
    for rows in range(1, 5):
        for cols in range(1, 5):
            if rows * cols > 12:
                continue
            want = naive_outcome(cram_moves, cram_start(rows, cols), memo=memo)
            assert fast.outcome(GridBoard(rows, cols)).value == want, (rows, cols)


def test_closed_form_examples():
    assert cram_closed_form(2, 7) is N
    assert cram_closed_form(4, 4) is N
    assert cram_closed_form(7, 9) is N  # odd width: zero strip value
    assert cram_closed_form(1, 1) is N
    assert cram_closed_form(3, 4) is P
    assert cram_closed_form(3, 10) is P
    assert cram_closed_form(5, 4) is P
    assert cram_closed_form(9, 3) is P  # g007(9) == 0
    assert cram_closed_form(5, 3) is P  # g007(5) == 0
    assert cram_closed_form(7, 3) is N  # g007(7) == 1
    assert cram_closed_form(5, 6) is None
    assert cram_closed_form(7, 7) is None


def test_closed_form_matches_search_small():
    for rows in range(1, 5):
        for cols in range(1, 6):
            want = cram_closed_form(rows, cols)
            if want is not None:
                assert solver_for(CRAM).outcome(GridBoard(rows, cols)) is want, (rows, cols)


def test_one_row_rule_matches_search():
    # A 1 x n board's only move is the button: P iff the strip is an N-position.
    fast, pure = Solver(CRAM), Solver(CRAM_SEARCH)
    for n in range(1, 65):
        want = cram_closed_form(1, n)
        assert want is (P if strip_value(n) != 0 else N), n
        assert fast.outcome(GridBoard(1, n)) is want, n
        # The pure search holds about 20 k entries at n = 24 and 946 k at
        # n = 32, growing about eightfold per four cells.
        if n <= 24:
            assert pure.outcome(GridBoard(1, n)) is want, n


# -- bluff audit ----------------------------------------------------------------


def test_phase1_value():
    assert phase1_value(3, 5) == g007(3) == 1
    assert phase1_value(3, 4) == 0  # even width: values pair off
    assert phase1_value(1, 7) == 0  # no room for a vertical domino
    assert phase1_value(4, 3) == g007(4) == 2
    with pytest.raises(ValueError):
        phase1_value(0, 3)


@pytest.mark.parametrize(
    "ask",
    [
        lambda: phase1_value(True, 3),
        lambda: phase1_value(100, 1),
        lambda: phase1_value(2.0, 3),
        lambda: bluff_report(2.0, 3),
    ],
    ids=["bool-rows", "too-many-cells", "float-rows", "bluff-float-rows"],
)
def test_phase1_value_takes_only_boards(ask):
    # The same rule as GridBoard's: bluff_report refuses what phase1_value does.
    with pytest.raises(ValueError):
        ask()


def test_bluff_holds_on_three_row_odd_boards():
    for cols in (1, 3, 5, 7, 9):
        report = bluff_report(3, cols)
        assert isinstance(report, BluffReport)
        assert report.holds, cols
        assert report.outcome is N
        assert report.phase1_value == 1
        assert report.losing_phase1_moves == 0
        assert report.total_phase1_moves == 2 * cols


def test_bluff_fails_elsewhere():
    for rows, cols in ((2, 2), (2, 4), (1, 5), (4, 3)):
        assert not bluff_report(rows, cols).holds, (rows, cols)
    report = bluff_report(4, 3)
    assert report.phase1_value == 2
    assert report.losing_phase1_moves > 0


def test_bluff_small_two_by_three():
    report = bluff_report(2, 3)
    assert report.holds and report.outcome is N and report.phase1_value == 1
