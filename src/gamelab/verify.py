"""Verification sweeps: every closed form re-checked against brute search.

Each suite returns {"suite", "checks", "counterexamples"}; an empty
counterexample list means the sweep found full agreement at its stated
ranges.  Where a search is checked against a closed form, each mismatch is
recorded as {**context, "position", "search", "closed_form"}, holding the
two values as computed.  Suites are sized so the whole battery stays
desk-scale.
"""

from __future__ import annotations

import itertools
import random

from .arith import ceil_phi
from .core import Outcome, Solver, solver_for, sum_rulesets
from .cram import (
    CRAM,
    CRAM_SEARCH,
    GridBoard,
    bluff_report,
    cram_closed_form,
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
    PushPosition,
    compound_ruleset,
    is_nim_euclid_p,
    nim_euclid_fib_classify,
    nim_euclid_pairs_below,
    push_p_oracle,
    push_ruleset,
)
from .zeruclid import zeruclid_bound_check, zeruclid_residue_survey


class _Tally:
    """The checks one suite runs and the counterexamples they find."""

    def __init__(self, suite: str):
        self.suite = suite
        self.checks = 0
        self.counterexamples: list = []

    def check(self, ok: bool, counterexample) -> None:
        """Count one check; if it failed, record what `counterexample()` builds."""
        self.checks += 1
        if not ok:
            self.counterexamples.append(counterexample())

    def agree(self, positions, search, closed_form, **context) -> None:
        """One check per position: `search` and `closed_form` give equal values."""
        for position in positions:
            got, want = search(position), closed_form(position)
            self.check(
                got == want,
                lambda: {**context, "position": position, "search": got, "closed_form": want},
            )

    def report(self) -> dict:
        return {"suite": self.suite, "checks": self.checks, "counterexamples": self.counterexamples}


def _pairs(low: int, high: int):
    """(a, b) with low <= a <= b <= high, a-major."""
    return itertools.combinations_with_replacement(range(low, high + 1), 2)


def suite_push_lemma(nim_max: int = 15, sub_max: int = 30) -> dict:
    """push(R, R) has the value of R plus one extra token, for two test rulesets."""
    tally = _Tally("push-lemma")
    for name, ruleset, positions in (
        ("nim", NIM, _pairs(0, nim_max)),
        ("subtraction-1-2", subtraction((1, 2)), ((n,) for n in range(sub_max + 1))),
    ):
        push = Solver(push_ruleset(ruleset, ruleset))
        plus_star = Solver(sum_rulesets(ruleset, NIM))
        tally.agree(
            positions, push.grundy, lambda p: plus_star.grundy((p, (1,))), ruleset=name
        )
    return tally.report()


def suite_push_characterization(limit: int = 30, structural_limit: int = 15) -> dict:
    """Search outcomes of the four compounds against their closed forms,

    plus the structural test: a pre-button position is P exactly when its
    inner position is an N-position of the second ruleset and every first-
    ruleset option is an N-position of the compound.
    """
    tally = _Tally("push-characterization")
    for name, (r1, r2) in COMPOUNDS.items():
        solver, inner = Solver(compound_ruleset(name)), Solver(r2)
        tally.agree(
            itertools.product(range(limit + 1), repeat=2),
            solver.outcome,
            lambda p: push_p_oracle(name, p),
            compound=name,
        )
        tally.agree(
            itertools.product(range(structural_limit + 1), repeat=2),
            lambda p: solver.outcome(p) is Outcome.P,
            lambda p: inner.outcome(p) is Outcome.N
            and all(solver.outcome(q) is Outcome.N for q in r1.options(r1.canonical(p))),
            compound=name,
            test="structural",
        )
    return tally.report()


def suite_nim_euclid_triple(
    pair_limit: int = 10_000, box: int = 600, brute: int = 40
) -> dict:
    """The three descriptions of the Nim-then-Euclid P-pairs must coincide:

    the mex/ceil-phi recurrence, the Fibonacci-word classification, and the
    pair predicate; the predicate is then re-checked against raw search.
    """
    tally = _Tally("nim-euclid-triple")

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
        tally.check(is_nim_euclid_p(a, b), lambda: {"pair": [a, b], "predicate": False})
    tally.check(
        len(role) == pair_limit + 1,
        lambda: {"recurrence_gaps": sorted(set(range(pair_limit + 1)) - set(role))[:10]},
    )
    for x in range(pair_limit + 1):
        c = nim_euclid_fib_classify(x)
        tally.check(
            c == role.get(x), lambda: {"x": x, "classified": list(c), "recurrence": role.get(x)}
        )

    upper = dict(pairs)
    for a in range(box + 1):
        partner = upper.get(a)
        # Built once per row (one per pair made the scan about 20 % slower);
        # it reads the failing b when `check` calls it.
        wrong = lambda: {"pair": [a, b], "predicate": b != partner, "box": box}
        for b in range(a, box + 1):
            tally.check(is_nim_euclid_p(a, b) == (b == partner), wrong)

    solver = Solver(compound_ruleset("nim-euclid"))
    tally.agree(
        _pairs(0, brute),
        solver.outcome,
        lambda p: Outcome.P if is_nim_euclid_p(*p) else Outcome.N,
    )
    return tally.report()


def suite_zeruclid_bounds(limit: int = 25, correspondence_limit: int = 30) -> dict:
    """Three-heap structure: (1, a, b) plays like the Nim-then-Euclid compound,

    and sorted P-positions keep their largest heap inside the predicted band.
    """
    tally = _Tally("zeruclid-bounds")
    tally.agree(
        ((1, a, b) for a, b in itertools.product(range(correspondence_limit + 1), repeat=2)),
        Solver(ZERUCLID).outcome,
        lambda p: push_p_oracle("nim-euclid", p[1:]),
    )
    for a, b in _pairs(1, limit):
        result = zeruclid_bound_check(a, b, ceil_phi(b) + a + 5)
        tally.check(
            not result.violations,
            lambda: {"a": a, "b": b, "violations": [int(c) for c in result.violations]},
        )
    return tally.report()


def suite_zeruclid_residues(limit: int = 15) -> dict:
    """Each (a, b) admits exactly a completions, one per residue class mod a."""
    tally = _Tally("zeruclid-residues")
    for a, b in _pairs(1, limit):
        survey = zeruclid_residue_survey(a, b)
        tally.check(
            survey.complete,
            lambda: {
                "a": a,
                "b": b,
                "hits": [list(h) for h in survey.hits],
                "scanned_to": survey.scanned_to,
            },
        )
    return tally.report()


def suite_subtraction_periods(
    grid_max: int = 8, instances: int = 50, max_move: int = 6, seed: int = 112358
) -> dict:
    """Interval compounds match the closed-form period with no preperiod;

    random subtraction compounds stay within the certified state bounds.
    """
    tally = _Tally("subtraction-periods")
    tally.agree(
        itertools.product(range(1, grid_max + 1), repeat=2),
        lambda k: interval_compound_certificate(*k)._asdict(),
        lambda k: {"preperiod": 0, "period": predicted_period(*k)},
    )

    rng = random.Random(seed)
    for _ in range(instances):
        s1 = sorted(rng.sample(range(1, max_move + 1), rng.randint(1, max_move)))
        s2 = sorted(rng.sample(range(1, max_move + 1), rng.randint(1, max_move)))
        certs = compound_certificates(s1, s2)
        out, values = certs["outcome"], certs["values"]
        out_bound = certs["r2"].period * 2 ** max(s1)
        val_bound = certs["r2_values"].period * (len(s1) + 2) ** max(s1)
        tally.check(
            out.period <= out_bound and values.period <= val_bound,
            lambda: {
                "s1": s1,
                "s2": s2,
                "outcome_period": out.period,
                "outcome_bound": out_bound,
                "value_period": values.period,
                "value_bound": val_bound,
            },
        )
    return tally.report()


def _vertical_occupancies(rows: int, cols: int):
    """Occupancies of a rows x cols board that disjoint vertical dominoes
    fill, each once: `tops | tops << cols` for each set of domino top cells
    with no top directly above another."""
    for tops in range(1 << (rows - 1) * cols):
        if not tops & tops >> cols:
            yield tops | tops << cols


def suite_cram_propositions(cell_budget: int = 16, closed_form_area: int = 36) -> dict:
    """Closed-form board outcomes, the row-split evaluation, the strip-value

    certificate, the zero-parity invariant, and the bluff property.
    """
    tally = _Tally("cram-propositions")
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
    fast = solver_for(CRAM)
    tally.agree(boards, lambda p: fast.outcome(GridBoard(*p)), lambda p: cram_closed_form(*p))

    search = Solver(CRAM_SEARCH)
    tally.agree(
        (
            GridBoard(rows, cols, occ)
            for rows in range(1, cell_budget + 1)
            for cols in range(1, cell_budget // rows + 1)
            for occ in _vertical_occupancies(rows, cols)
        ),
        lambda board: search.grundy(PushPosition(Phase.AFTER, board)),
        post_button_value,
    )

    for k in range(5):
        report = bluff_report(3, 2 * k + 1)
        tally.check(
            report.holds and report.outcome is Outcome.N,
            lambda: {"board": [3, 2 * k + 1], "bluff": report._asdict()},
        )
    tally.check(
        not bluff_report(2, 2).holds, lambda: {"board": [2, 2], "bluff": "unexpectedly holds"}
    )

    cert = g007_certificate()
    tally.check(
        (cert.preperiod, cert.period) == (52, 34),
        lambda: {"strip_certificate": [cert.preperiod, cert.period]},
    )
    even_zeros = [n for n in range(1, 501) if g007(n) == 0 and n % 2 == 0]
    tally.check(not even_zeros, lambda: {"even_strip_zeros": even_zeros})
    return tally.report()


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
