"""Acceptance gate: every documented guarantee at its stated time budget.

Each test prints exactly one line:

    criterion N: PASS|FAIL [elapsed / budget] label

and fails if the check fails or the budget is exceeded.
"""

import json
import time

import gamelab.cli as cli
from gamelab.cram import g007, g007_certificate
from gamelab.push import is_nim_euclid_p
from gamelab.verify import (
    suite_cram_propositions,
    suite_nim_euclid_triple,
    suite_push_characterization,
    suite_push_lemma,
    suite_subtraction_periods,
    suite_zeruclid_bounds,
    suite_zeruclid_residues,
)


def run_criterion(capsys, number, label, budget, body):
    def report(status, elapsed):
        with capsys.disabled():
            print(
                f"criterion {number}: {status} "
                f"[{elapsed:.2f}s / budget {budget:g}s] {label}",
                flush=True,
            )

    start = time.perf_counter()
    try:
        body()
    except BaseException:
        report("FAIL", time.perf_counter() - start)
        raise
    elapsed = time.perf_counter() - start
    report("PASS" if elapsed <= budget else "FAIL", elapsed)
    assert elapsed <= budget, (
        f"criterion {number} exceeded its budget: {elapsed:.2f}s > {budget}s"
    )


def no_counterexamples(report, checks):
    assert report["counterexamples"] == [], report
    assert report["checks"] == checks, report["suite"]


def test_criterion_1_p_position_tables(capsys):
    def body():
        assert (
            cli.main(
                ["ppos", "--compound", "nim-euclid", "--max", "28", "--format", "csv"]
            )
            == 0
        )
        nim_euclid = capsys.readouterr().out
        assert nim_euclid == (
            "a,b\n0,1\n2,4\n3,5\n6,10\n7,12\n8,13\n9,15\n11,18\n14,23\n16,26\n17,28\n"
        )
        assert (
            cli.main(
                ["ppos", "--compound", "wythoff", "--max", "28", "--format", "csv"]
            )
            == 0
        )
        wythoff = capsys.readouterr().out
        assert wythoff == (
            "a,b\n0,0\n1,2\n3,5\n4,7\n6,10\n8,13\n9,15\n11,18\n12,20\n14,23\n16,26\n17,28\n"
        )

    run_criterion(capsys, 1, "P-position tables to 28 (two rulesets, exact)", 1.0, body)


def test_criterion_2_triple_characterization(capsys):
    def body():
        no_counterexamples(suite_nim_euclid_triple(), 199_404)

    run_criterion(
        capsys, 2, "three Nim-then-Euclid descriptions agree to 10^4 (+ search to 40)", 30.0, body
    )


def test_criterion_3_push_operator_lemmas(capsys):
    def body():
        no_counterexamples(suite_push_lemma(), 167)
        no_counterexamples(suite_push_characterization(), 7_748)

    run_criterion(
        capsys, 3, "self-compound adds a unit heap; P-characterization holds", 60.0, body
    )


def test_criterion_4_other_compounds_to_40(capsys):
    def body():
        no_counterexamples(suite_push_characterization(), 7_748)

    run_criterion(
        capsys, 4, "all four compound closed forms match search on [0,40]^2", 60.0, body
    )


def test_criterion_5_zeruclid_theorems(capsys):
    def body():
        no_counterexamples(suite_zeruclid_bounds(), 1_286)
        no_counterexamples(suite_zeruclid_residues(), 120)

    run_criterion(
        capsys, 5, "unit-heap correspondence, band bound, residue coverage", 600.0, body
    )


def test_criterion_6_subtraction_periodicity(capsys):
    def body():
        no_counterexamples(suite_subtraction_periods(), 114)

    run_criterion(
        capsys, 6, "interval periods match prediction; random sets within bounds", 120.0, body
    )


def test_criterion_7_strip_sequence(capsys):
    def body():
        cert = g007_certificate()
        assert (cert.preperiod, cert.period) == (52, 34)
        for n in range(1, 501):
            if g007(n) == 0:
                assert n % 2 == 1, n

    run_criterion(capsys, 7, "strip values: certificate (52, 34); zeros odd to 500", 1.0, body)


def test_criterion_8_push_cram_propositions(capsys):
    def body():
        no_counterexamples(suite_cram_propositions(), 8_321)

    run_criterion(
        capsys, 8, "board outcomes, row-split values, bluff audit to 3x9", 600.0, body
    )


def test_criterion_9_heatmap_zero_set(capsys):
    def body():
        assert cli.main(["heatmap", "--max", "200"]) == 0
        grid = json.loads(capsys.readouterr().out)["result"]["grid"]
        assert len(grid) == 201 and all(len(row) == 201 for row in grid)
        for a in range(201):
            for b in range(201):
                assert (grid[a][b] == 0) == is_nim_euclid_p(a, b), (a, b)

    run_criterion(
        capsys, 9, "201x201 unit-heap grid: zero set equals the closed-form P-set", 300.0, body
    )
