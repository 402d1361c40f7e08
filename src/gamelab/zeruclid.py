"""Outcome structure of three-heap Zeruclid around a quiet smallest heap.

Three-heap Zeruclid positions (1, a, b) play out exactly like the
Nim-then-Euclid compound on (a, b): the unit heap acts as the button (remove
it to switch regimes).  Beyond that correspondence, sorted P-positions
(a, b, c) with c >= b >= a >= 1 pin c into the band
[ceil(b*phi), ceil(b*phi) + a - 1], and for each (a, b) there are exactly a
values of c making (a, b, c) a P-position, one per residue class mod a.
The helpers here scan those claims with the exhaustive solver.
"""

from __future__ import annotations

from typing import NamedTuple

from . import core
from .arith import ceil_phi
from .core import Outcome
from .heaps import ZERUCLID

HEATMAP_MAX_COORD = 400


def _is_p(a: int, b: int, c: int) -> bool:
    return core.solver_for(ZERUCLID).outcome((a, b, c)) is Outcome.P


class BoundCheck(NamedTuple):
    hits: tuple[int, ...]        # c values in [b, c_max] with (a, b, c) a P-position
    violations: tuple[int, ...]  # hits outside [ceil_phi(b), ceil_phi(b) + a - 1]


def zeruclid_bound_check(a: int, b: int, c_max: int) -> BoundCheck:
    """Scan c in [b, c_max] for P-positions (a, b, c) and flag band violations."""
    if not 1 <= a <= b:
        raise ValueError(f"need 1 <= a <= b, got ({a}, {b})")
    lo = ceil_phi(b)
    hi = lo + a - 1
    hits = tuple(c for c in range(b, c_max + 1) if _is_p(a, b, c))
    violations = tuple(c for c in hits if not lo <= c <= hi)
    return BoundCheck(hits, violations)


class ResidueSurvey(NamedTuple):
    a: int
    b: int
    scanned_to: int
    hits: tuple[tuple[int, int], ...]  # (c, c mod a), ascending in c

    @property
    def complete(self) -> bool:
        """Exactly a hits covering every residue class mod a."""
        return len(self.hits) == self.a and (
            {r for _, r in self.hits} == set(range(self.a))
        )


def zeruclid_residue_survey(a: int, b: int) -> ResidueSurvey:
    """All c making (a, b, c) a P-position, tagged with c mod a.

    The scan range [0, ceil_phi(m) + m] with m = max(a, b) is exhaustive: a
    sorted P-triple keeps its largest coordinate inside the band bound, and
    any unsorted candidate c is below b and hence inside the range anyway.
    `complete` says whether the hits cover each residue class exactly once.
    """
    if a < 1 or b < a:
        raise ValueError(f"need 1 <= a <= b, got ({a}, {b})")
    m = max(a, b)
    top = ceil_phi(m) + m
    hits = tuple((c, c % a) for c in range(top + 1) if _is_p(a, b, c))
    return ResidueSurvey(a, b, top, hits)


def grundy_heatmap(max_coord: int, solver: core.Solver | None = None) -> list[list[int]]:
    """grid[a][b] = Grundy value of Zeruclid (1, a, b) for a, b in [0, max_coord].

    Memoization on sorted triples keeps the state space to the
    (unit-heap, zero-heap) families, so the quadratic grid reuses one table:
    `solver`'s, a Zeruclid solver, or the shared one when None.
    """
    if not 0 <= max_coord <= HEATMAP_MAX_COORD:
        raise ValueError(
            f"max_coord must be in [0, {HEATMAP_MAX_COORD}], got {max_coord}"
        )
    solver = core.solver_for(ZERUCLID) if solver is None else solver
    coords = range(max_coord + 1)
    return [[solver.grundy((1, a, b)) for b in coords] for a in coords]
