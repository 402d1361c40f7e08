"""Cross-validation suites: reduced-size runs must report no counterexamples."""

import pytest

from gamelab import verify
from gamelab.core import Outcome
from gamelab.verify import (
    SUITES,
    run_suite,
    suite_cram_propositions,
    suite_nim_euclid_triple,
    suite_push_characterization,
    suite_push_lemma,
    suite_subtraction_periods,
    suite_zeruclid_bounds,
    suite_zeruclid_residues,
)


def check_clean(report):
    assert set(report) >= {"suite", "checks", "counterexamples"}
    assert report["checks"] > 0
    assert report["counterexamples"] == []


def test_suite_push_lemma():
    check_clean(suite_push_lemma(nim_max=8, sub_max=15))


def test_suite_push_characterization():
    check_clean(suite_push_characterization(limit=15, structural_limit=8))


def test_suite_nim_euclid_triple():
    check_clean(suite_nim_euclid_triple(pair_limit=200, box=80, brute=25))


def test_suite_zeruclid_bounds():
    check_clean(suite_zeruclid_bounds(limit=8, correspondence_limit=12))


def test_suite_zeruclid_residues():
    check_clean(suite_zeruclid_residues(limit=8))


def test_suite_subtraction_periods():
    check_clean(suite_subtraction_periods(grid_max=4, instances=8, max_move=5, seed=7))


def test_suite_cram_propositions():
    check_clean(suite_cram_propositions(cell_budget=12, closed_form_area=12))


def test_registry_and_dispatch():
    assert set(SUITES) == {
        "push-lemma",
        "push-characterization",
        "nim-euclid-triple",
        "zeruclid-bounds",
        "zeruclid-residues",
        "subtraction-periods",
        "cram-propositions",
    }
    reports = run_suite("push-lemma")
    assert len(reports) == 1 and reports[0]["suite"] == "push-lemma"
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


def test_run_all_returns_every_suite(monkeypatch):
    # "all" must dispatch each registered suite, in registry order; the
    # full-size suites run in the acceptance tests, so stubs stand in here.
    stubs = {name: (lambda name=name: {"suite": name}) for name in SUITES}
    monkeypatch.setattr(verify, "SUITES", stubs)
    assert run_suite("all") == [{"suite": name} for name in stubs]


def test_planted_closed_form_error_is_the_one_counterexample(monkeypatch):
    # A closed form wrong at one position must come back as exactly one
    # record, in the shape every search-against-closed-form check shares,
    # and the check count must not change.
    oracle = verify.push_p_oracle
    flip = {Outcome.P: Outcome.N, Outcome.N: Outcome.P}
    planted = ("wythoff-nim", (2, 3))

    def wrong_once(name, position):
        want = oracle(name, position)
        return flip[want] if (name, position) == planted else want

    monkeypatch.setattr(verify, "push_p_oracle", wrong_once)
    report = suite_push_characterization(limit=5, structural_limit=3)
    truth = oracle(*planted)
    assert report["checks"] == 4 * (6 * 6 + 4 * 4)
    assert report["counterexamples"] == [
        {"compound": "wythoff-nim", "position": (2, 3), "search": truth, "closed_form": flip[truth]}
    ]


def test_vertical_occupancies_are_every_vertical_filling():
    # The closure of the empty board under "add any free vertical domino",
    # with cell (r, c) at bit r * cols + c, must come out once per board.
    for rows in range(1, 13):
        for cols in range(1, 12 // rows + 1):
            dominoes = [
                (1 << (r * cols + c)) | (1 << ((r + 1) * cols + c))
                for r in range(rows - 1)
                for c in range(cols)
            ]
            closure, frontier = {0}, [0]
            while frontier:
                occ = frontier.pop()
                for d in dominoes:
                    if not occ & d and occ | d not in closure:
                        closure.add(occ | d)
                        frontier.append(occ | d)
            got = list(verify._vertical_occupancies(rows, cols))
            assert len(got) == len(set(got)), (rows, cols)
            assert set(got) == closure, (rows, cols)
