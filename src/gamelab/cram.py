"""Push Cram: vertical dominoes, then the button, then horizontal dominoes.

`CRAM` is ``push_ruleset(VERTICAL, HORIZONTAL)``, so the button phase is
:mod:`gamelab.push`'s alone: a `GridBoard` is a position before the button,
and ``PushPosition(Phase.AFTER, board)`` one after it.  Boards are rectangular
bitboards (row-major, at most 64 cells).  After the button, rows no longer
interact: the remaining game is a disjoint sum of one-row strips, and a strip
of length n has the Grundy value of the take-two-and-split heap game (mex
over g(i) xor g(n-2-i)), i.e. Dawson's Kayles, octal 0.07.  `HORIZONTAL`
scores every board by that strip-value xor through its closed-form leaf;
`CRAM_SEARCH` is `CRAM` without that leaf.  Misere searches never use the
leaf, so both give the same outcomes and Grundy values everywhere.

Inside the solver a board is one int key (shape and occupancy), so the memo
tables, and the cache files the CLI writes from them, are keyed by ints,
wrapped after the button.  Both domino rulesets share one option generator
and one canonicalizer over these keys, built on per-shape domino lists (each
domino with its flip images) and on row-reversal and row-strip-value tables
that fill as rows are met.  The solver canonicalizes only its root; the
option generator flips the parent once and lists each child already
canonical, as the least of the parent's images OR the domino's.  Options
come mirror first: the placements whose board equals one of its own flips
(the classic mirror replies, which often end an outcome node at once), then
the rest; the button child follows them.  Before the button, the compound's
leaf reads a board whose strip-value xor is 0 as N, since pressing the
button wins there, so normal-play outcome searches expand only boards whose
button child is an N-position.
`legal_moves` decodes that kernel's option list back to Push Cram positions
(canonical children in the order above); `post_button_value` reads the
strip-value xor of a position's board, in either phase.  Both read their
input through `CRAM.canonical`, so they take any position `CRAM` takes and
refuse what it refuses.  A `GridBoard` is plain data, as a heap tuple is:
the domino rulesets' canonical form checks a board or int key where it enters.

Board symmetry is the flip group only — horizontal and vertical reflections
preserve domino orientation, transposition does not and is never applied.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import core
from .core import Outcome, Ruleset, mex
from .periodicity import PeriodCertificate, certified_split_period
from .push import Phase, PushPosition, push_ruleset

MAX_CELLS = 64

# certified_split_period needs 2 * (53 + 34) + 2 = 176 values for the strip
# sequence's raw preperiod 53 and period 34; 256 leaves room to spare.
_STRIP_HORIZON = 256
_STRIP_MAX_TAKE = 2  # a domino removes two adjacent cells from a strip


# -- the one-row strip game ---------------------------------------------------


@lru_cache(maxsize=1)
def _strip_table() -> tuple[tuple[int, ...], PeriodCertificate]:
    values = [0, 0]
    for n in range(2, _STRIP_HORIZON):
        values.append(mex(values[i] ^ values[n - 2 - i] for i in range(n // 2)))
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
    return cert._replace(preperiod=max(cert.preperiod - 1, 0))


# -- boards -------------------------------------------------------------------


class GridBoard(NamedTuple):
    """A rows x cols board, occupancy bits row-major; unchecked until it enters."""

    rows: int
    cols: int
    occupied: int = 0


def _check_board(rows, cols, occupied=0, key=None) -> None:
    """Refuse fields that name no board; `key` is the int key they came from."""
    if any(f.__class__ is not int for f in (rows, cols, occupied)):
        fault = f"board fields must be ints, got {(rows, cols, occupied)!r}"
    elif rows < 1 or cols < 1:
        fault = f"board must be at least 1x1, got {rows}x{cols}"
    elif rows * cols > MAX_CELLS:
        fault = f"board {rows}x{cols} exceeds {MAX_CELLS} cells"
    elif not 0 <= occupied < (1 << (rows * cols)):
        fault = f"occupancy out of range for {rows}x{cols}"
    else:
        return
    raise ValueError(fault if key is None else f"key {key} names no board: {fault}")


# -- the search kernel ----------------------------------------------------------
#
# Inside the solver a board is one int key, (rows << 8 | cols) << 64 | occupied,
# so a child is its parent's key with a domino's bits set.

_OCC_MASK = (1 << MAX_CELLS) - 1
_SHAPE_SHIFT = MAX_CELLS


class _LazyTable(dict):
    """A dict that computes and stores a missing entry on first lookup."""

    __slots__ = ("_compute",)

    def __init__(self, compute):
        super().__init__()
        self._compute = compute

    def __missing__(self, key):
        value = self[key] = self._compute(key)
        return value


def _row_value(bits: int, cols: int) -> int:
    """Xor of the strip values of one row's maximal free runs."""
    total = 0
    for run in f"{bits:0{cols}b}".split("1"):
        total ^= g007(len(run))
    return total


class _Shape:
    """The dominoes and row offsets of one board shape, plus row-reversal and
    row-strip-value tables that fill as rows are met."""

    __slots__ = ("row_mask", "row_shifts", "reverse", "strip", "vertical", "horizontal")

    def __init__(self, rows: int, cols: int):
        self.row_mask = (1 << cols) - 1
        # (offset of row r, offset of its mirror row) for the flips.
        self.row_shifts = tuple((r * cols, (rows - 1 - r) * cols) for r in range(rows))
        self.reverse = _LazyTable(lambda bits: int(f"{bits:0{cols}b}"[::-1], 2))
        self.strip = _LazyTable(lambda bits: _row_value(bits, cols))
        # Dominoes in order of their lower cell, each with its h, v and hv
        # images for the children's flips.
        vertical = [1 << b | 1 << (b + cols) for b in range((rows - 1) * cols)]
        horizontal = [0b11 << b for b in range(rows * cols) if b % cols < cols - 1]
        self.vertical = [(domino, *self.images(domino)) for domino in vertical]
        self.horizontal = [(domino, *self.images(domino)) for domino in horizontal]

    def images(self, occ: int) -> tuple[int, int, int]:
        """The h, v and hv flips of an occupancy."""
        reverse, mask = self.reverse, self.row_mask
        h = v = hv = 0
        for at, mirror in self.row_shifts:
            bits = occ >> at & mask
            if bits:
                flipped = reverse[bits]
                h |= flipped << at
                v |= bits << mirror
                hv |= flipped << mirror
        return h, v, hv


_SHAPES = _LazyTable(lambda shape_id: _Shape(shape_id >> 8, shape_id & 0xFF))


def _placements(orientation: str):
    """Options placing the dominoes of the `_Shape` attribute `orientation`:
    the canonical children of a canonical key, mirror first (placements that
    leave a board equal to one of its own flips, most often the P children
    that end an outcome node), then the rest.  Flips are OR-homomorphisms, so
    a child's flip images are the parent's images OR the domino's, and its
    canonical occupancy is the least of the four; two placements that are
    flips of each other give one child twice."""

    def options(key: int) -> list[int]:
        shape = _SHAPES[key >> _SHAPE_SHIFT]
        occ = key & _OCC_MASK
        base = key ^ occ
        h, v, hv = shape.images(occ)
        out = []
        rest = []
        for domino, dh, dv, dhv in getattr(shape, orientation):
            if not occ & domino:
                child, fh, fv, fhv = occ | domino, h | dh, v | dv, hv | dhv
                if child == fh or child == fv or child == fhv:
                    out.append(base | min(child, fh, fv, fhv))
                else:
                    rest.append(base | min(child, fh, fv, fhv))
        out += rest
        return out

    return options


def _canonical(position):
    """Key of the least occupancy over the flip group {identity, h, v, hv}, and
    the one check of a board: a GridBoard, or an int key decoded to one."""
    key = None
    if position.__class__ is int:
        key, position = position, _position(position)
    if position.__class__ is not GridBoard:
        raise ValueError(
            f"expected a GridBoard or its int key, got {position!r}"
            " (CRAM takes either, alone or in one PushPosition)"
        )
    rows, cols, occ = position
    _check_board(rows, cols, occ, key)
    shape_id = rows << 8 | cols
    return shape_id << _SHAPE_SHIFT | min(occ, *_SHAPES[shape_id].images(occ))


def _strip_xor(key: int) -> int:
    """Grundy value of a key under horizontal play: xor of the rows' values."""
    shape = _SHAPES[key >> _SHAPE_SHIFT]
    strip, mask = shape.strip, shape.row_mask
    total = 0
    for at, _ in shape.row_shifts:
        total ^= strip[key >> at & mask]  # rows end below the shape bits
    return total


def _position(p):
    """The Push Cram position of a CRAM key, the inverse of `CRAM.canonical`:
    an int key is a board, PushPosition(AFTER, key) that board after the button."""
    if p.__class__ is PushPosition:
        return PushPosition(Phase.AFTER, _position(p[1]))
    shape = p >> _SHAPE_SHIFT
    return GridBoard(shape >> 8, shape & 0xFF, p & _OCC_MASK)


def legal_moves(position) -> list:
    """The search's own children of a Push Cram position: canonical, mirror
    replies first, the button child last, one entry per placement."""
    return [_position(p) for p in CRAM.options(CRAM.canonical(position))]


def post_button_value(position) -> int:
    """Grundy value of a Push Cram position's board after the button, in either
    phase: xor of strip values over the maximal free runs of each row."""
    key = CRAM.canonical(position)
    return _strip_xor(key[1] if key.__class__ is PushPosition else key)


# -- rulesets -----------------------------------------------------------------

#: Vertical dominoes: the game before the button.  Like `HORIZONTAL`, it takes
#: and checks int keys and GridBoards; `CRAM` takes them in PushPositions too.
VERTICAL = Ruleset("vertical-dominoes", _placements("vertical"), canonical=_canonical)

#: Horizontal dominoes, scored in closed form by the strip-value xor: a
#: board's after-button value is ``Solver(HORIZONTAL).grundy(board)``.
HORIZONTAL = Ruleset(
    "horizontal-dominoes", _placements("horizontal"), canonical=_canonical, leaf=_strip_xor
)

#: Fast solver: HORIZONTAL's leaf scores every after-button board.
CRAM = push_ruleset(VERTICAL, HORIZONTAL)

#: Pure two-phase search: CRAM without its leaf, for cross-validation.
CRAM_SEARCH = Ruleset("push-cram-search", CRAM.options, CRAM.canonical)


def cram_closed_form(rows: int, cols: int) -> Outcome | None:
    """Outcome of the empty rows x cols board where a strategy is known.

    Even row count: pair the rows; whatever happens in one half is mirrored,
    so the second player to commit loses the race — N for the first player
    via the pairing argument.  Odd rows with a zero-value column count: the
    button answer wins immediately.  A single row has the button as its only
    move, so it is P whenever the strip value is not zero.  Three-row boards
    of even width are P; three-column boards follow the strip value of the
    row count; odd-row four-column boards are P.  Everything else is left to
    search.
    """
    _check_board(rows, cols)
    if rows % 2 == 0:
        return Outcome.N
    if g007(cols) == 0:
        return Outcome.N
    if rows == 1:
        return Outcome.P
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
    _check_board(rows, cols)
    return g007(rows) if cols % 2 else 0


def bluff_report(rows: int, cols: int, solver: core.Solver | None = None) -> BluffReport:
    """Move-by-move audit of the domino phase, plus the full-game outcome.

    A board passes when the vertical-only game is a first-player win in which
    no placement can be misplayed: a domino at height offset i rewrites one
    column's value from g007(rows) to g007(i) xor g007(rows-2-i), so each
    offset is checked for landing on zero.  On passing boards the first player
    wins the domino phase no matter which domino either side plays.  `solver`
    (a `CRAM` solver; the shared one when None) searches the outcome.
    """
    root = phase1_value(rows, cols)
    losing = 0
    for i in range(rows - 1):
        child = root ^ g007(rows) ^ g007(i) ^ g007(rows - 2 - i)
        if child != 0:
            losing += cols
    out = (solver or core.solver_for(CRAM)).outcome(GridBoard(rows, cols))
    return BluffReport(
        holds=out is Outcome.N and root != 0 and losing == 0,
        outcome=out,
        phase1_value=root,
        total_phase1_moves=cols * (rows - 1),
        losing_phase1_moves=losing,
    )

