"""Push Cram: vertical dominoes, then the button, then horizontal dominoes.

Boards are rectangular bitboards (row-major, at most 64 cells) tagged with the
button phase.  After the button, rows no longer interact: the remaining game
is a disjoint sum of one-row strips, and a strip of length n has the Grundy
value of the take-two-and-split heap game (mex over g(i) xor g(n-2-i)), i.e.
Dawson's Kayles, octal 0.07.  `CRAM_SEARCH` is the pure two-phase search;
`CRAM` is the same ruleset plus a closed-form leaf that scores every
after-button board by that strip-value xor.  Misere searches never use the
leaf, so both rulesets give the same outcomes and Grundy values everywhere.

Board symmetry is the flip group only — horizontal and vertical reflections
preserve domino orientation, transposition does not and is never applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import core
from .core import Outcome, Ruleset, mex
from .periodicity import PeriodCertificate, certified_split_period
from .push import Phase

MAX_CELLS = 64

_STRIP_HORIZON = 512
_STRIP_MAX_TAKE = 2  # a domino removes two adjacent cells from a strip


# -- the one-row strip game ---------------------------------------------------


@lru_cache(maxsize=1)
def _strip_table() -> tuple[tuple[int, ...], PeriodCertificate]:
    values = [0, 0]
    for n in range(2, _STRIP_HORIZON):
        values.append(mex(values[i] ^ values[n - 2 - i] for i in range(n - 1)))
    cert = certified_split_period(values, _STRIP_MAX_TAKE)
    return tuple(values), cert


def g007(n: int) -> int:
    """Grundy value of a free strip of n cells under horizontal-domino play.

    Values beyond the computed horizon come from the certified periodic tail.
    """
    if n < 0:
        raise ValueError(f"strip length must be >= 0, got {n}")
    values, cert = _strip_table()
    if n < len(values):
        return values[n]
    return values[cert.preperiod + (n - cert.preperiod) % cert.period]


def g007_certificate() -> PeriodCertificate:
    """The certified (preperiod, period) of the strip-value sequence.

    The preperiod is counted over strip lengths n >= 1: the length-0 strip
    has no cells and no moves, so it sits outside the reported table.
    """
    cert = _strip_table()[1]
    return PeriodCertificate(
        preperiod=max(cert.preperiod - 1, 0),
        period=cert.period,
        checked_to=cert.checked_to,
    )


# -- boards -------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GridBoard:
    rows: int
    cols: int
    occupied: int = 0
    phase: Phase = Phase.BEFORE

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"board must be at least 1x1, got {self.rows}x{self.cols}")
        if self.rows * self.cols > MAX_CELLS:
            raise ValueError(
                f"board {self.rows}x{self.cols} exceeds {MAX_CELLS} cells"
            )
        if not 0 <= self.occupied < (1 << (self.rows * self.cols)):
            raise ValueError(f"occupancy out of range for {self.rows}x{self.cols}")
        if not isinstance(self.phase, Phase):
            raise ValueError(f"bad phase {self.phase!r}")

    def bit(self, r: int, c: int) -> int:
        return 1 << (r * self.cols + c)

    def is_free(self, r: int, c: int) -> bool:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValueError(f"cell ({r}, {c}) outside {self.rows}x{self.cols}")
        return not self.occupied & self.bit(r, c)

    def to_record(self) -> str:
        """One-line text record: 'rows cols phase hex-occupancy'."""
        return f"{self.rows} {self.cols} {self.phase.value} {self.occupied:#x}"

    @classmethod
    def from_record(cls, line: str) -> "GridBoard":
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"board record needs 4 fields, got {line!r}")
        rows, cols = int(parts[0]), int(parts[1])
        try:
            phase = Phase(parts[2])
        except ValueError:
            raise ValueError(f"bad phase {parts[2]!r} in board record") from None
        return cls(rows, cols, int(parts[3], 16), phase)


@lru_cache(maxsize=None)
def _reverse_bits(value: int, width: int) -> int:
    out = 0
    for _ in range(width):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


@lru_cache(maxsize=None)
def _shape_masks(rows: int, cols: int) -> tuple[int, int, int]:
    """(full board, vertical anchors, horizontal anchors) for a shape.

    An anchor is the lower-index cell of a domino: vertical anchors exclude
    the last row, horizontal anchors exclude the last column.
    """
    full = (1 << (rows * cols)) - 1
    vert = (1 << ((rows - 1) * cols)) - 1 if rows > 1 else 0
    row_anchor = (1 << (cols - 1)) - 1
    horiz = 0
    for r in range(rows):
        horiz |= row_anchor << (r * cols)
    return full, vert, horiz


def _h_flip(occ: int, rows: int, cols: int) -> int:
    row_mask = (1 << cols) - 1
    out = 0
    for r in range(rows):
        out |= _reverse_bits((occ >> (r * cols)) & row_mask, cols) << (r * cols)
    return out


def _v_flip(occ: int, rows: int, cols: int) -> int:
    row_mask = (1 << cols) - 1
    out = 0
    for r in range(rows):
        out |= ((occ >> (r * cols)) & row_mask) << ((rows - 1 - r) * cols)
    return out


def canonical_board(board: GridBoard) -> GridBoard:
    """Least occupancy over the flip group {identity, h, v, hv}."""
    rows, cols, occ = board.rows, board.cols, board.occupied
    h = _h_flip(occ, rows, cols)
    v = _v_flip(occ, rows, cols)
    hv = _v_flip(h, rows, cols)
    best = min(occ, h, v, hv)
    if best == occ:
        return board
    return GridBoard(rows, cols, best, board.phase)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def legal_moves(board: GridBoard) -> list[GridBoard]:
    """Children of a board: vertical placements plus the button before the
    push, horizontal placements after it."""
    rows, cols, occ = board.rows, board.cols, board.occupied
    full, vert, horiz = _shape_masks(rows, cols)
    free = ~occ & full
    out = []
    if board.phase is Phase.BEFORE:
        # Button child first: under CRAM it is scored by the closed-form
        # leaf, so a button-winnable board resolves before any vertical
        # subtree is opened.
        out.append(GridBoard(rows, cols, occ, Phase.AFTER))
        for b in _bits(free & (free >> cols) & vert):
            out.append(GridBoard(rows, cols, occ | (1 << b) | (1 << (b + cols)), Phase.BEFORE))
    else:
        for b in _bits(free & (free >> 1) & horiz):
            out.append(GridBoard(rows, cols, occ | (1 << b) | (1 << (b + 1)), Phase.AFTER))
    return out


def post_button_value(board: GridBoard) -> int:
    """Grundy value of the board's after-button game: xor of strip values over
    the maximal free runs of each row."""
    total = 0
    occ, cols = board.occupied, board.cols
    for r in range(board.rows):
        run = 0
        base = r * cols
        for c in range(cols):
            if occ & (1 << (base + c)):
                total ^= g007(run)
                run = 0
            else:
                run += 1
        total ^= g007(run)
    return total


# -- rulesets -----------------------------------------------------------------


def _after_button_value(board: GridBoard) -> int | None:
    if board.phase is Phase.AFTER:
        return post_button_value(board)
    return None


#: Pure two-phase search, no strip reduction; for cross-validation.
CRAM_SEARCH = Ruleset("push-cram-search", legal_moves, canonical=canonical_board)

#: Fast solver: CRAM_SEARCH plus the strip-value leaf, which scores every
#: after-button board in closed form instead of searching it.
CRAM = Ruleset(
    "push-cram", legal_moves, canonical=canonical_board, leaf=_after_button_value
)


def cram_outcome(board: GridBoard) -> Outcome:
    """Outcome of a board position under the fast solver."""
    return core.outcome(CRAM, board)


def empty_board(rows: int, cols: int) -> GridBoard:
    return GridBoard(rows, cols)


def cram_closed_form(rows: int, cols: int) -> Outcome | None:
    """Outcome of the empty rows x cols board where a strategy is known.

    Even row count: pair the rows; whatever happens in one half is mirrored,
    so the second player to commit loses the race — N for the first player
    via the pairing argument.  Odd rows with a zero-value column count: the
    button answer wins immediately.  Three-row boards of even width are P;
    three-column boards follow the strip value of the row count; odd-row
    four-column boards are P.  Everything else is left to search.
    """
    empty_board(rows, cols)  # validates the shape
    if rows % 2 == 0:
        return Outcome.N
    if g007(cols) == 0:
        return Outcome.N
    if rows == 3 and cols % 2 == 0:
        return Outcome.P
    if cols == 3:
        return Outcome.P if g007(rows) == 0 else Outcome.N
    if cols == 4:
        return Outcome.P
    return None


class BluffReport(NamedTuple):
    holds: bool
    outcome: Outcome  # full-game outcome of the empty board, by search
    phase1_value: int  # nim-value of the vertical-only game
    total_phase1_moves: int
    losing_phase1_moves: int  # placements that lose the vertical-only game


def phase1_value(rows: int, cols: int) -> int:
    """Nim-value of the empty board when only vertical dominoes are played.

    Vertical placements never cross columns, so the vertical-only game is a
    disjoint sum of cols strips of height rows, each with value g007(rows).
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"board must be at least 1x1, got {rows}x{cols}")
    return g007(rows) if cols % 2 else 0


def bluff_report(rows: int, cols: int) -> BluffReport:
    """Move-by-move audit of the domino phase, plus the full-game outcome.

    A board passes when the vertical-only game is a first-player win in which
    no placement can be misplayed: a domino at height offset i rewrites one
    column's value from g007(rows) to g007(i) xor g007(rows-2-i), so each
    offset is checked for landing on zero.  On passing boards the first player
    wins the domino phase no matter which domino either side plays.
    """
    root = phase1_value(rows, cols)
    losing = 0
    for i in range(rows - 1):
        child = root ^ g007(rows) ^ g007(i) ^ g007(rows - 2 - i)
        if child != 0:
            losing += cols
    out = cram_outcome(empty_board(rows, cols))
    return BluffReport(
        holds=out is Outcome.N and root != 0 and losing == 0,
        outcome=out,
        phase1_value=root,
        total_phase1_moves=cols * (rows - 1),
        losing_phase1_moves=losing,
    )


def bluff_check(rows: int, cols: int) -> bool:
    """True when the board is a first-player win and its vertical-only game
    is an N-position in which every vertical placement is a winning move.
    """
    return bluff_report(rows, cols).holds
