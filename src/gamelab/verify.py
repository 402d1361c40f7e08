"""Verification sweeps: every closed form re-checked against brute search.

Each suite returns {"suite", "checks", "counterexamples"}; an empty
counterexample list means the sweep found full agreement at its stated
ranges.  Suites are sized so the whole battery stays desk-scale.
"""

from __future__ import annotations

import itertools
import random

from .arith import ceil_phi
from .core import Outcome, Solver, sum_rulesets
from .cram import (
    CRAM_SEARCH,
    GridBoard,
    bluff_report,
    cram_closed_form,
    cram_outcome,
    empty_board,
    g007,
    g007_certificate,
    post_button_value,
)
from .heaps import NIM, ZERUCLID, subtraction
from .periodicity import (
    compound_certificates,
    interval_compound_certificate,
    predicted_period,
)
from .push import (
    COMPOUNDS,
    Phase,
    compound_ruleset,
    is_nim_euclid_p,
    nim_euclid_fib_classify,
    nim_euclid_pairs_below,
    push_p_oracle,
    push_ruleset,
)
from .zeruclid import zeruclid_bound_check, zeruclid_residue_survey


def _report(suite: str, checks: int, counterexamples: list) -> dict:
    return {"suite": suite, "checks": checks, "counterexamples": counterexamples}


def suite_push_lemma(nim_max: int = 15, sub_max: int = 30) -> dict:
    """push(R, R) has the value of R plus one extra token, for two test rulesets."""
    checks = 0
    bad: list = []

    rr = Solver(push_ruleset(NIM, NIM))
    plus_star = Solver(sum_rulesets(NIM, NIM))
    for a in range(nim_max + 1):
        for b in range(a, nim_max + 1):
            checks += 1
            lhs = rr.grundy((a, b))
            rhs = plus_star.grundy(((a, b), (1,)))
            if lhs != rhs:
                bad.append(
                    {"ruleset": "nim", "position": [a, b], "push": lhs, "sum": rhs}
                )

    s12 = subtraction((1, 2))
    rr = Solver(push_ruleset(s12, s12))
    plus_star = Solver(sum_rulesets(s12, NIM))
    for n in range(sub_max + 1):
        checks += 1
        lhs = rr.grundy((n,))
        rhs = plus_star.grundy(((n,), (1,)))
        if lhs != rhs:
            bad.append(
                {"ruleset": "subtraction-1-2", "position": [n], "push": lhs, "sum": rhs}
            )
    return _report("push-lemma", checks, bad)


def suite_push_characterization(limit: int = 30, structural_limit: int = 15) -> dict:
    """Search outcomes of the four compounds against their closed forms,

    plus the structural test: a pre-button position is P exactly when its
    inner position is an N-position of the second ruleset and every first-
    ruleset option is an N-position of the compound.
    """
    checks = 0
    bad: list = []
    for name, (r1, r2) in COMPOUNDS.items():
        solver = Solver(compound_ruleset(name))
        for x in range(limit + 1):
            for y in range(limit + 1):
                checks += 1
                got = solver.outcome((x, y))
                want = push_p_oracle(name, (x, y))
                if got is not want:
                    bad.append(
                        {
                            "compound": name,
                            "position": [x, y],
                            "search": got.name,
                            "closed_form": want.name,
                        }
                    )
        inner_solver = Solver(r2)
        for x in range(structural_limit + 1):
            for y in range(structural_limit + 1):
                checks += 1
                is_p = solver.outcome((x, y)) is Outcome.P
                push_back_loses = inner_solver.outcome((x, y)) is Outcome.N
                all_moves_lose = all(
                    solver.outcome(opt) is Outcome.N
                    for opt in r1.options((x, y))
                )
                if is_p != (push_back_loses and all_moves_lose):
                    bad.append(
                        {
                            "compound": name,
                            "position": [x, y],
                            "structural_mismatch": True,
                        }
                    )
    return _report("push-characterization", checks, bad)


def suite_nim_euclid_triple(
    pair_limit: int = 10_000, box: int = 600, brute: int = 40
) -> dict:
    """The three descriptions of the Nim-then-Euclid P-pairs must coincide:

    the mex/ceil-phi recurrence, the Fibonacci-word classification, and the
    pair predicate; the predicate is then re-checked against raw search.
    """
    checks = 0
    bad: list = []

    # Recurrence pairs out to 2*pair_limit put every integer <= pair_limit on
    # one side of some pair (the slow side crosses pair_limit well before the
    # fast side crosses 2*pair_limit).
    pairs = nim_euclid_pairs_below(2 * pair_limit + 2)
    role: dict[int, tuple[bool, int]] = {}
    for a, b in pairs:
        if a <= pair_limit:
            role[a] = (True, b)
        if b <= pair_limit:
            role[b] = (False, a)
        checks += 1
        if not is_nim_euclid_p(a, b):
            bad.append({"pair": [a, b], "predicate": "rejects recurrence pair"})
    checks += 1
    if len(role) != pair_limit + 1:
        missing = sorted(set(range(pair_limit + 1)) - set(role))[:10]
        bad.append({"recurrence_gaps": missing})
    for x in range(pair_limit + 1):
        checks += 1
        c = nim_euclid_fib_classify(x)
        if (c.is_lower, c.partner) != role.get(x):
            bad.append(
                {
                    "x": x,
                    "classified": [c.is_lower, c.partner],
                    "recurrence": list(role[x]) if x in role else None,
                }
            )

    in_box = {(a, b) for a, b in pairs if a <= box and b <= box}
    scanned = set()
    for a in range(box + 1):
        for b in range(a, box + 1):
            checks += 1
            if is_nim_euclid_p(a, b):
                scanned.add((a, b))
    if scanned != in_box:
        diff = sorted(scanned ^ in_box)[:10]
        bad.append({"box": box, "set_mismatch": [list(p) for p in diff]})

    solver = Solver(compound_ruleset("nim-euclid"))
    for x in range(brute + 1):
        for y in range(x, brute + 1):
            checks += 1
            got = solver.outcome((x, y))
            want = Outcome.P if is_nim_euclid_p(x, y) else Outcome.N
            if got is not want:
                bad.append({"position": [x, y], "search": got.name, "closed_form": want.name})
    return _report("nim-euclid-triple", checks, bad)


def suite_zeruclid_bounds(limit: int = 25, correspondence_limit: int = 30) -> dict:
    """Three-heap structure: (1, a, b) plays like the Nim-then-Euclid compound,

    and sorted P-positions keep their largest heap inside the predicted band.
    """
    checks = 0
    bad: list = []
    solver = Solver(ZERUCLID)
    for a in range(correspondence_limit + 1):
        for b in range(correspondence_limit + 1):
            checks += 1
            got = solver.outcome((1, a, b))
            want = push_p_oracle("nim-euclid", (a, b))
            if got is not want:
                bad.append(
                    {"triple": [1, a, b], "search": got.name, "compound": want.name}
                )
    for a in range(1, limit + 1):
        for b in range(a, limit + 1):
            checks += 1
            result = zeruclid_bound_check(a, b, ceil_phi(b) + a + 5)
            if result.violations:
                bad.append(
                    {"a": a, "b": b, "violations": [int(c) for c in result.violations]}
                )
    return _report("zeruclid-bounds", checks, bad)


def suite_zeruclid_residues(limit: int = 15) -> dict:
    """Each (a, b) admits exactly a completions, one per residue class mod a."""
    checks = 0
    bad: list = []
    for a in range(1, limit + 1):
        for b in range(a, limit + 1):
            checks += 1
            survey = zeruclid_residue_survey(a, b)
            if not survey.complete:
                bad.append(
                    {
                        "a": a,
                        "b": b,
                        "hits": [list(h) for h in survey.hits],
                        "scanned_to": survey.scanned_to,
                    }
                )
    return _report("zeruclid-residues", checks, bad)


def suite_subtraction_periods(
    grid_max: int = 8, instances: int = 50, max_move: int = 6, seed: int = 112358
) -> dict:
    """Interval compounds match the closed-form period with no preperiod;

    random subtraction compounds stay within the certified state bounds.
    """
    checks = 0
    bad: list = []
    for k1 in range(1, grid_max + 1):
        for k2 in range(1, grid_max + 1):
            checks += 1
            cert = interval_compound_certificate(k1, k2)
            want = predicted_period(k1, k2)
            if cert.preperiod != 0 or cert.period != want:
                bad.append(
                    {
                        "k1": k1,
                        "k2": k2,
                        "certified": [cert.preperiod, cert.period],
                        "predicted": want,
                    }
                )

    rng = random.Random(seed)
    for _ in range(instances):
        s1 = sorted(rng.sample(range(1, max_move + 1), rng.randint(1, max_move)))
        s2 = sorted(rng.sample(range(1, max_move + 1), rng.randint(1, max_move)))
        checks += 1
        certs = compound_certificates(s1, s2)
        out, values = certs["outcome"], certs["values"]
        out_bound = certs["r2"].period * 2 ** max(s1)
        val_bound = certs["r2_values"].period * (len(s1) + 2) ** max(s1)
        if out.period > out_bound or values.period > val_bound:
            bad.append(
                {
                    "s1": s1,
                    "s2": s2,
                    "outcome_period": out.period,
                    "outcome_bound": out_bound,
                    "value_period": values.period,
                    "value_bound": val_bound,
                }
            )
    return _report("subtraction-periods", checks, bad)


def _column_patterns(rows: int) -> list[int]:
    """Row-masks a single column can reach with disjoint vertical dominoes."""
    patterns: list[int] = []

    def extend(i: int, mask: int) -> None:
        if i >= rows:
            patterns.append(mask)
            return
        extend(i + 1, mask)
        if i + 1 < rows:
            extend(i + 2, mask | (1 << i) | (1 << (i + 1)))

    extend(0, 0)
    return patterns


def _vertical_occupancies(rows: int, cols: int):
    for combo in itertools.product(_column_patterns(rows), repeat=cols):
        occ = 0
        for c, pattern in enumerate(combo):
            for r in range(rows):
                if pattern >> r & 1:
                    occ |= 1 << (r * cols + c)
        yield occ


def suite_cram_propositions(cell_budget: int = 16, closed_form_area: int = 36) -> dict:
    """Closed-form board outcomes, the row-split evaluation, the strip-value

    certificate, the zero-parity invariant, and the bluff property.
    """
    checks = 0
    bad: list = []

    boards = (
        [(2, n) for n in range(1, 9)]
        + [(3, 2 * k) for k in range(1, 9)]
        + [(m, 3) for m in range(1, 10)]
        + [(2 * k + 1, 4) for k in range(6)]
    )
    boards += [
        (m, n)
        for m in range(1, closed_form_area + 1)
        for n in range(1, closed_form_area // m + 1)
        if cram_closed_form(m, n) is not None and (m, n) not in boards
    ]
    for rows, cols in boards:
        checks += 1
        want = cram_closed_form(rows, cols)
        got = cram_outcome(empty_board(rows, cols))
        if want is None or got is not want:
            bad.append(
                {
                    "board": [rows, cols],
                    "search": got.name,
                    "closed_form": want.name if want else None,
                }
            )

    search = Solver(CRAM_SEARCH)
    for rows in range(1, cell_budget + 1):
        for cols in range(1, cell_budget // rows + 1):
            for occ in _vertical_occupancies(rows, cols):
                checks += 1
                board = GridBoard(rows, cols, occ, Phase.AFTER)
                fast = post_button_value(board)
                slow = search.grundy(board)
                if fast != slow:
                    bad.append(
                        {"board": board.to_record(), "split": fast, "search": slow}
                    )

    for k in range(5):
        checks += 1
        report = bluff_report(3, 2 * k + 1)
        if not report.holds or report.outcome is not Outcome.N:
            bad.append({"board": [3, 2 * k + 1], "bluff": report._asdict()})
    checks += 1
    if bluff_report(2, 2).holds:
        bad.append({"board": [2, 2], "bluff": "unexpectedly holds"})

    checks += 1
    cert = g007_certificate()
    if (cert.preperiod, cert.period) != (52, 34):
        bad.append({"strip_certificate": [cert.preperiod, cert.period]})
    checks += 1
    even_zeros = [n for n in range(1, 501) if g007(n) == 0 and n % 2 == 0]
    if even_zeros:
        bad.append({"even_strip_zeros": even_zeros})
    return _report("cram-propositions", checks, bad)


SUITES = {
    "push-lemma": suite_push_lemma,
    "push-characterization": suite_push_characterization,
    "nim-euclid-triple": suite_nim_euclid_triple,
    "zeruclid-bounds": suite_zeruclid_bounds,
    "zeruclid-residues": suite_zeruclid_residues,
    "subtraction-periods": suite_subtraction_periods,
    "cram-propositions": suite_cram_propositions,
}


def run_suite(name: str) -> list[dict]:
    """Run one named suite, or every suite for "all"; returns report dicts."""
    if name == "all":
        return [fn() for fn in SUITES.values()]
    if name not in SUITES:
        known = ", ".join([*SUITES, "all"])
        raise ValueError(f"unknown suite {name!r}; known suites: {known}")
    return [SUITES[name]()]
