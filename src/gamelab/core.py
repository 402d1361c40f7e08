"""Memoized outcome and Grundy evaluation for finite impartial games.

A game here is a :class:`Ruleset`: a deterministic function from positions to
the finite list of positions reachable in one move.  Positions can be any
hashable values; the option graph must be acyclic and every play must be
finite.  Outcomes follow the usual two conventions: under normal play the
player who cannot move loses, under misere play that player wins.
"""

from __future__ import annotations

import enum
import os
from functools import lru_cache, reduce
from operator import attrgetter, xor
from typing import Callable, Hashable, Iterable

Position = Hashable

MEMO_CAP_ENV = "GAMELAB_MEMO_CAP"
# A search peaks at about 110-175 bytes an entry, so about 4 GiB at most.
DEFAULT_MEMO_CAP = 25_000_000


class Outcome(enum.Enum):
    """Who wins with best play: P = previous player, N = next player."""

    P = "P"
    N = "N"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality and skips the Python-level Enum.__hash__ on
    # every memo lookup keyed by a member.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


class Convention(enum.Enum):
    NORMAL = "normal"
    MISERE = "misere"

    __hash__ = object.__hash__  # see Outcome


class MemoLimitExceeded(Exception):
    """A solver's memo tables would outgrow their configured entry cap."""


class HorizonExceeded(Exception):
    """The computed horizon ended before a period could be certified."""


def memo_cap_from_env() -> int:
    """Entry cap for new solvers: GAMELAB_MEMO_CAP or the default."""
    raw = os.environ.get(MEMO_CAP_ENV)
    if raw is None:
        return DEFAULT_MEMO_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{MEMO_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap <= 0:
        raise ValueError(f"{MEMO_CAP_ENV} must be positive, got {cap}")
    return cap


def mex(values: Iterable[int]) -> int:
    """Least non-negative integer not occurring in `values`."""
    present = set(values)
    m = 0
    while m in present:
        m += 1
    return m


def sum_grundy(values: Iterable[int]) -> int:
    """Grundy value of a disjunctive sum given the component values (xor)."""
    return reduce(xor, values, 0)


def _identity(position: Position) -> Position:
    return position


class Ruleset:
    """A finite acyclic impartial ruleset.

    `options` maps a position to every position reachable in one move, as a
    list in a deterministic order (a read-only property: the callable itself,
    so a call costs no extra frame).  An outcome search stops at the first P
    child and descends into the first option that the memo and `leaf` leave
    open, so the order lists the likeliest P children first.  `canonical`
    maps a position to a fixed representative of its symmetry class (the
    identity by default; the sorted heap tuple for heap-symmetric games) and
    is where a root is checked: it refuses anything that is no position of
    the ruleset.  `options` takes a canonical position as it is and lists
    canonical children: solvers canonicalize only the root they are handed,
    memoize on canonical representatives and never reorder anything
    themselves.  A child may repeat in the list (two moves may land in one
    symmetry class); the search just meets it again.

    `leaf`, when given, tells what a closed form knows of a canonical
    position, in one of three answers: an int, its normal-play Grundy value;
    an :class:`Outcome`, when only its normal-play outcome is known; None,
    when nothing is.  A solver asks it about the root and about every option
    that misses the memo, and uses an answer it can read without expanding
    or storing that position (a root that is a leaf is stored): Grundy
    searches take an int as is and search a position whose answer is an
    Outcome; normal-play outcome searches take an Outcome as is and read an
    int 0 as P and any other int as N.  Misere searches never consult `leaf`
    and always search.  A push compound answers Outcome.N before the button
    where pressing it wins, and passes its second ruleset's `leaf` through
    for after-button positions.
    """

    __slots__ = ("name", "_options", "canonical", "leaf")

    def __init__(
        self,
        name: str,
        options: Callable[[Position], list],
        canonical: Callable[[Position], Position] = _identity,
        leaf: Callable[[Position], int | Outcome | None] | None = None,
    ):
        self.name = name
        self._options = options
        self.canonical = canonical
        self.leaf = leaf

    options = property(attrgetter("_options"))

    def __repr__(self) -> str:
        return f"Ruleset({self.name!r})"


class Solver:
    """Memoized outcome/Grundy evaluation for one ruleset.

    Keeps one memo table per value kind, keyed by canonical position: the
    Grundy table under None and an outcome table under each convention.  The
    tables together hold at most `memo_cap` entries, read from
    GAMELAB_MEMO_CAP when the solver is made: a search raises
    :class:`MemoLimitExceeded` in place of the store that would pass the cap,
    keeping every entry stored before it.

    Recursion is run on an explicit stack, so option chains far deeper than
    the interpreter's recursion limit are fine.
    """

    def __init__(self, ruleset: Ruleset):
        self.ruleset = ruleset
        self.memo_cap = memo_cap_from_env()
        self._memos: dict[Convention | None, dict] = {
            None: {},
            Convention.NORMAL: {},
            Convention.MISERE: {},
        }

    # -- bookkeeping ------------------------------------------------------

    def entry_count(self) -> int:
        return sum(len(t) for t in self._memos.values())

    def cache_stats(self) -> dict:
        return {"entries": self.entry_count(), "cap": self.memo_cap}

    def table(self, convention: Convention | None = None) -> dict:
        """Live memo dict: the Grundy table, or an outcome table per convention.

        Exposed for persistence; preloaded entries must come from the same
        ruleset or the results are garbage.
        """
        return self._memos[convention]

    # -- evaluation -------------------------------------------------------

    def outcome(self, position: Position, convention: Convention = Convention.NORMAL) -> Outcome:
        if convention.__class__ is not Convention:
            # None would index the Grundy table and return an int.
            raise ValueError(f"convention must be a Convention, got {convention!r}")
        memo = self._memos[convention]
        root = self.ruleset.canonical(position)
        hit = memo.get(root)
        if hit is not None:
            return hit
        return self._search(root, memo, convention)

    def grundy(self, position: Position) -> int:
        memo = self._memos[None]
        root = self.ruleset.canonical(position)
        hit = memo.get(root)
        if hit is not None:
            return hit
        return self._search(root, memo, None)

    def _search(self, root: Position, memo: dict, convention: Convention | None):
        """Value of the canonical `root`, filling `memo` with every position
        the search expands on the way.

        With `convention` None the values are Grundy values and a node ends
        with the mex of its options; otherwise they are outcomes under that
        convention and a node ends at its first P option.  Options of a
        canonical position are canonical already, so only the root is ever
        canonicalized.  An option that misses the memo is put to `leaf`
        first, and an answer this kind of search can read is used at once:
        only expanded positions, and a root that is itself a leaf, are
        memoized.
        """
        rules = self.ruleset
        options = rules.options
        grundy = convention is None
        leaf = None if convention is Convention.MISERE else rules.leaf
        decisive = None if grundy else Outcome.P
        terminal = Outcome.P if convention is Convention.NORMAL else Outcome.N
        # The memo may grow to `room` entries before the tables hold the cap.
        room = self.memo_cap - self.entry_count() + len(memo)
        value = None
        if leaf is not None:
            value = leaf(root)
            if value.__class__ is Outcome:
                if grundy:
                    value = None  # an outcome is no Grundy value: search
            elif value is not None and not grundy:
                value = Outcome.P if value == 0 else Outcome.N
        # Frame layout: [position, option iterator or None, option values
        # seen, option being searched].
        stack = [[root, None, None, None]]
        on_path = {root}
        while stack:
            frame = stack[-1]
            pos, opts, seen, child = frame
            if value is not None:
                pass  # only a root that is a leaf arrives settled
            elif opts is None:
                opts = frame[1] = iter(options(pos))
                seen = frame[2] = set()
            else:
                found = memo[child]
                if found is decisive:
                    value = Outcome.N
                else:
                    seen.add(found)
            if value is None:
                child = None
                for option in opts:
                    found = memo.get(option)
                    if found is None:
                        if leaf is not None:
                            found = leaf(option)
                        if found is None:
                            child = option
                            break
                        if found.__class__ is not Outcome:
                            if not grundy:
                                found = Outcome.P if found == 0 else Outcome.N
                        elif grundy:
                            child = option
                            break
                    if found is decisive:
                        value = Outcome.N
                        break
                    seen.add(found)
                if child is not None:
                    if child in on_path:
                        raise ValueError(
                            f"{rules.name}: cyclic options through {child!r}"
                        )
                    frame[3] = child
                    on_path.add(child)
                    stack.append([child, None, None, None])
                    continue
                if value is None:
                    if not grundy:
                        value = Outcome.P if seen else terminal
                    else:
                        value = mex(seen)
            if len(memo) >= room:
                raise MemoLimitExceeded(
                    f"{rules.name}: memo tables hit the cap of "
                    f"{self.memo_cap} entries (set {MEMO_CAP_ENV} to raise it)"
                )
            memo[pos] = value
            stack.pop()
            on_path.discard(pos)
            value = None
        return memo[root]


# -- shared per-ruleset solvers -------------------------------------------

@lru_cache(maxsize=None)
def solver_for(ruleset: Ruleset) -> Solver:
    """The shared memoizing solver for a ruleset instance, kept for the process."""
    return Solver(ruleset)


def sum_rulesets(r1: Ruleset, r2: Ruleset) -> Ruleset:
    """Disjunctive sum: positions are pairs, a move changes exactly one side."""

    def options(position):
        a, b = position
        opts = [(x, b) for x in r1.options(a)]
        opts += [(a, y) for y in r2.options(b)]
        return opts

    c1, c2 = r1.canonical, r2.canonical

    def canonical(position):
        a, b = position
        return (c1(a), c2(b))

    return Ruleset(f"{r1.name}+{r2.name}", options, canonical)
