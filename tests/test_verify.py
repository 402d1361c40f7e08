"""Verification suites: dispatch, and planted faults that each suite must
report as exactly one counterexample.  Every suite runs clean at its one
fixed size in the acceptance tests."""

import json

import pytest

import gamelab.cli as cli
from gamelab import verify
from gamelab.core import Outcome
from gamelab.verify import (
    SUITES,
    run_suite,
    suite_push_characterization,
    suite_subtraction_periods,
    suite_zeruclid_residues,
)


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
    report = suite_push_characterization()
    truth = oracle(*planted)
    assert report["checks"] == 4 * (41 * 41 + 16 * 16) == 7_748
    assert report["counterexamples"] == [
        {"compound": "wythoff-nim", "position": (2, 3), "search": truth, "closed_form": flip[truth]}
    ]


def one_planted_record(capsys, suite, name, checks):
    """The one counterexample that `suite` reports under a planted fault; it
    must serialize, leave the check count as it is, and make
    `gamelab verify name` exit 3."""
    report = suite()
    assert report["checks"] == checks
    [record] = report["counterexamples"]
    json.dumps(record)
    assert cli.main(["verify", name]) == 3
    assert json.loads(capsys.readouterr().out)["result"]["counterexamples"] == 1
    return record


def test_planted_incomplete_survey_is_the_one_counterexample(capsys, monkeypatch):
    survey = verify.zeruclid_residue_survey
    truth = survey(3, 5)
    planted = truth._replace(hits=truth.hits[:-1])

    def drop_last_hit(a, b):
        return planted if (a, b) == (3, 5) else survey(a, b)

    monkeypatch.setattr(verify, "zeruclid_residue_survey", drop_last_hit)
    record = one_planted_record(capsys, suite_zeruclid_residues, "zeruclid-residues", 120)
    assert record == {"a": 3, "b": 5, "scanned_to": truth.scanned_to, "hits": planted.hits}


def test_planted_out_of_bound_period_is_the_one_counterexample(capsys, monkeypatch):
    # The suite's first random instance, drawn once in its 50.
    planted = ([1, 2, 4, 5, 6], [1, 2])
    certs = verify.compound_certificates(*planted)
    bound = certs["r2"].period * 2 ** 6
    wrong = {**certs, "outcome": certs["outcome"]._replace(period=bound + 1)}
    certificates = verify.compound_certificates

    def out_of_bound_once(s1, s2):
        return wrong if (s1, s2) == planted else certificates(s1, s2)

    monkeypatch.setattr(verify, "compound_certificates", out_of_bound_once)
    record = one_planted_record(capsys, suite_subtraction_periods, "subtraction-periods", 114)
    assert record == {
        "s1": planted[0],
        "s2": planted[1],
        "outcome_period": bound + 1,
        "outcome_bound": bound,
        "value_period": certs["values"].period,
        "value_bound": certs["r2_values"].period * 7**6,
    }


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
