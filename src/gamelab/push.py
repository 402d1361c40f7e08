"""The push-the-button combinator and its solved two-heap compounds.

Before the button is pushed, moves come from the first ruleset and pushing
the button is always available as an extra move (it changes nothing but the
phase); after the push, moves come from the second ruleset, whose `leaf`
scores after-button positions and, through the button, settles the
before-button positions that pressing it wins.  Push Cram
(:mod:`gamelab.cram`) is one.

The four compounds built from Nim, Wythoff's game and the Euclid variant all
have closed-form P-position tests, implemented here in exact integer
arithmetic.  The Nim-then-Euclid compound has three descriptions, each on its
own :mod:`gamelab.arith` primitive, so their cross-checks compare independent
code: the pair test `is_nim_euclid_p` (Beatty pairs by `is_wythoff_pair`,
toggled where `consecutive_fib_index` finds consecutive Fibonacci numbers),
the recurrence `nim_euclid_pairs` (mex of the used values, partnered by
`ceil_phi`) and the classification `nim_euclid_fib_classify` (the shape of a
value's Zeckendorf word).
"""

from __future__ import annotations

import enum
from functools import lru_cache
from itertools import islice, takewhile
from typing import NamedTuple

from .arith import (
    ceil_phi,
    consecutive_fib_index,
    floor_phi,
    is_wythoff_pair,
    zeckendorf,
    zeckendorf_decode,
)
from .core import Outcome, Position, Ruleset
from .heaps import (
    EUCLID,
    NIM,
    WYTHOFF,
    _check_heaps,
    is_euclid_misere_p,
    is_nim_misere_p,
)


class Phase(enum.Enum):
    BEFORE = "before"
    AFTER = "after"

    __hash__ = object.__hash__  # identity hash, as for core.Outcome


class PushPosition(NamedTuple):
    phase: Phase
    inner: Position


@lru_cache(maxsize=None)
def push_ruleset(r1: Ruleset, r2: Ruleset) -> Ruleset:
    """The compound r1 then r2.  Before the button a position is r1's own
    position g (r1's positions are never PushPositions); the button wraps it
    as PushPosition(Phase.AFTER, g) and r2 moves inside that wrapper.  A root
    PushPosition(Phase.BEFORE, g) is read as g.  Each phase takes its own
    ruleset's canonical form: r1's for g, r2's for the g inside the wrapper:
    the button child puts g in r2's form unless r1 and r2 share one form.

    Options take canonical positions as they are: a bare r1 position, or an
    AFTER wrapper (they read any PushPosition as one after the button).
    Options before the button list r1's moves, then the button child.  When
    r2 has a `leaf`, the compound's leaf is r2's after the button, and before
    it answers Outcome.N for a g whose button child r2's leaf scores 0.  A
    normal-play outcome search settles such a g without expanding it, so the
    button child of a node it does expand never wins where r2's leaf scores
    it."""
    options1, options2 = r1.options, r2.options
    canonical1, canonical2 = r1.canonical, r2.canonical
    after = Phase.AFTER
    new = tuple.__new__  # skips NamedTuple's Python-level __new__ per child
    # Picked once: a shared form leaves the button child's g as it is.
    button = None if canonical1 is canonical2 else canonical2

    def options(p):
        if p.__class__ is not PushPosition:
            # Button child last: where r2's leaf scores it, `leaf` below has
            # already settled every position the button wins.
            g = p if button is None else button(p)
            return [*options1(p), new(PushPosition, (after, g))]
        return [new(PushPosition, (after, h)) for h in options2(p[1])]

    def canonical(p):
        if p.__class__ is PushPosition:
            phase, p = p
            if phase is after:
                return new(PushPosition, (after, canonical2(p)))
            if phase is not Phase.BEFORE:
                raise ValueError(f"bad phase {phase!r}")
        return canonical1(p)

    leaf2 = r2.leaf
    win = Outcome.N

    def leaf(p):
        if p.__class__ is PushPosition:
            return leaf2(p[1])
        # Before the button: pressing it moves to a P-position when r2's
        # value there is 0, so p is N; anything else needs a search.
        return win if leaf2(p if button is None else button(p)) == 0 else None

    return Ruleset(f"push({r1.name},{r2.name})", options, canonical, leaf if leaf2 else None)


COMPOUNDS = {
    "nim-euclid": (NIM, EUCLID),
    "nim-wythoff": (NIM, WYTHOFF),
    "euclid-nim": (EUCLID, NIM),
    "wythoff-nim": (WYTHOFF, NIM),
}


def compound_ruleset(name: str) -> Ruleset:
    try:
        r1, r2 = COMPOUNDS[name]
    except KeyError:
        raise ValueError(f"unknown compound {name!r}") from None
    return push_ruleset(r1, r2)


# -- Nim-then-Euclid: three equivalent descriptions -------------------------
#
# The P-pairs are the Beatty pairs with one family of exceptions toggled:
# whenever two consecutive members of u_k = fib(k+1) - 1 form a pair, that
# pair flips membership (the even-index pairs are Beatty pairs and leave the
# set; the odd-index pairs are not and join it).


def is_nim_euclid_p(x: int, y: int) -> bool:
    """Nim then Euclid: P iff Beatty-pair membership, toggled where
    (x + 1, y + 1) are consecutive Fibonacci numbers."""
    if x > y:
        x, y = y, x
    return is_wythoff_pair(x, y) != (consecutive_fib_index(x + 1, y + 1) is not None)


def _nim_euclid_recurrence():
    """The endless stream of Nim-then-Euclid recurrence pairs, in order."""
    used: set[int] = set()
    candidate = 0
    a, b = 0, 1
    while True:
        yield a, b
        used.add(a)
        used.add(b)
        while candidate in used:
            candidate += 1
        a = candidate
        b = ceil_phi(a)


def nim_euclid_pairs(count: int) -> list[tuple[int, int]]:
    """First `count` P-pairs of Nim-then-Euclid by the recurrence: starting
    from (0, 1), the next lower entry is the least value not used by any
    earlier pair and its partner is ceil(lower * phi)."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return list(islice(_nim_euclid_recurrence(), count))


def nim_euclid_pairs_below(limit: int) -> list[tuple[int, int]]:
    """All recurrence pairs with both coordinates <= limit, in order."""
    return list(takewhile(lambda pair: max(pair) <= limit, _nim_euclid_recurrence()))


class FibClassification(NamedTuple):
    is_lower: bool
    partner: int


def nim_euclid_fib_classify(x: int) -> FibClassification:
    """Which column of the P-pair table x sits in, with its partner.

    Lower entries are the values whose Zeckendorf word either is alternating
    ('10' repeated, possibly empty) or ends in an even number of zeros without
    being an alternating word plus '1'.  An alternating word's partner appends
    '1', any other lower word's partner appends '0', and an upper word's
    partner drops its last digit.
    """
    word = zeckendorf(x)
    alternating = "10" * (len(word) // 2)
    if word == alternating:
        return FibClassification(True, zeckendorf_decode(word + "1"))
    trailing = len(word) - len(word.rstrip("0"))
    if trailing % 2 == 0 and word != alternating + "1":
        return FibClassification(True, zeckendorf_decode(word + "0"))
    return FibClassification(False, zeckendorf_decode(word[:-1]))


# -- the other three compounds ----------------------------------------------


def is_nim_wythoff_p(x: int, y: int) -> bool:
    """Nim then Wythoff: the misere-Nim kernel {(0,1)} + {(k,k): k >= 2}."""
    return is_nim_misere_p((x, y))


def is_euclid_nim_p(x: int, y: int) -> bool:
    """Euclid then Nim: misere-Euclid P-positions, extended to zero pairs.

    With one empty heap the variant's only line is the escape to (0, 0), whose
    button answer is a losing Nim position, so (0, i) with i >= 1 is P and
    (0, 0) is N.
    """
    if x > y:
        x, y = y, x
    if x == 0:
        return y >= 1
    return is_euclid_misere_p((x, y))


def is_wythoff_nim_p(x: int, y: int) -> bool:
    """Wythoff then Nim: both coordinates of a positive-index Beatty pair, each
    lowered by one."""
    if x > y:
        x, y = y, x
    n = y - x
    return n >= 1 and x + 1 == floor_phi(n)


COMPOUND_ORACLES = {
    "nim-euclid": is_nim_euclid_p,
    "nim-wythoff": is_nim_wythoff_p,
    "euclid-nim": is_euclid_nim_p,
    "wythoff-nim": is_wythoff_nim_p,
}


def push_p_oracle(compound: str, position: tuple) -> Outcome:
    """Closed-form outcome of a named compound at BEFORE-phase pair `position`."""
    try:
        test = COMPOUND_ORACLES[compound]
    except KeyError:
        raise ValueError(f"unknown compound {compound!r}") from None
    a, b = _check_heaps(position, arity=2)
    return Outcome.P if test(a, b) else Outcome.N
