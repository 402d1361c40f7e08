"""Three-heap Zeruclid: band bound, residue structure, unit-heap grid."""

import pytest

from gamelab.arith import ceil_phi
from gamelab.core import Outcome, Solver
from gamelab.heaps import ZERUCLID
from gamelab.push import is_nim_euclid_p
from gamelab.zeruclid import (
    HEATMAP_MAX_COORD,
    grundy_heatmap,
    zeruclid_bound_check,
    zeruclid_residue_survey,
)

from reference import naive_grundy, naive_outcome, zeruclid_moves


def test_bound_check_small():
    # (1, 1, c) is P only at c = 0, below the scan floor, so no sorted hits.
    check = zeruclid_bound_check(1, 1, 6)
    assert check.hits == ()
    assert check.violations == ()
    # (1, 2, c) pairs with the compound on (2, c): P exactly at c = 4.
    check = zeruclid_bound_check(1, 2, 8)
    assert check.hits == (4,)
    assert check.violations == ()
    check = zeruclid_bound_check(2, 2, 10)
    assert check.hits == (5,)
    assert check.violations == ()


def test_bound_check_band_everywhere():
    for b in range(1, 13):
        for a in range(1, b + 1):
            check = zeruclid_bound_check(a, b, ceil_phi(b) + a + 4)
            assert check.violations == (), (a, b)
            lo = ceil_phi(b)
            assert all(lo <= c <= lo + a - 1 for c in check.hits)


def test_bound_check_domain():
    with pytest.raises(ValueError):
        zeruclid_bound_check(0, 1, 5)
    with pytest.raises(ValueError):
        zeruclid_bound_check(3, 2, 5)


def test_residue_survey():
    for b in range(1, 11):
        for a in range(1, b + 1):
            survey = zeruclid_residue_survey(a, b)
            assert survey.complete, (a, b)
            assert len(survey.hits) == a
            assert {r for _, r in survey.hits} == set(range(a))
    survey = zeruclid_residue_survey(3, 5)
    assert survey.a == 3 and survey.b == 5
    with pytest.raises(ValueError):
        zeruclid_residue_survey(2, 1)


def test_unit_heap_matches_compound_predicate():
    solver = Solver(ZERUCLID)
    for a in range(25):
        for b in range(25):
            is_p = solver.outcome((1, a, b)) is Outcome.P
            assert is_p == is_nim_euclid_p(a, b), (a, b)


def test_heatmap_values():
    grid = grundy_heatmap(8)
    assert len(grid) == 9 and all(len(row) == 9 for row in grid)
    # zero exactly on the compound's P-pairs
    for a in range(9):
        for b in range(9):
            assert (grid[a][b] == 0) == is_nim_euclid_p(a, b), (a, b)
    assert grid[2][4] == 0
    assert grid[1][2] != 0


def test_heatmap_against_naive_reference():
    grid = grundy_heatmap(5)
    memo = {}
    for a in range(6):
        for b in range(6):
            assert grid[a][b] == naive_grundy(zeruclid_moves, (1, a, b), memo)


def test_heatmap_domain():
    with pytest.raises(ValueError):
        grundy_heatmap(HEATMAP_MAX_COORD + 1)
    with pytest.raises(ValueError):
        grundy_heatmap(-1)
    assert grundy_heatmap(0) == [[1]]


def test_solver_matches_naive_outcomes():
    solver = Solver(ZERUCLID)
    memo = {}
    for a in range(7):
        for b in range(7):
            for c in range(7):
                ours = solver.outcome((a, b, c)).value
                assert ours == naive_outcome(zeruclid_moves, (a, b, c), memo=memo)
