"""Heap rulesets: Nim, Wythoff's game, a Euclid variant, Zeruclid, subtraction.

Positions are tuples of non-negative heap sizes.  Every option function
returns a duplicate-free list in a deterministic order.  Nim, Wythoff, Euclid
and Zeruclid are symmetric under permuting heaps: their canonical form checks
a root's heaps and sorts them, and their option functions take a sorted tuple
and list sorted children, likeliest P children first (see `core.Ruleset`): the
largest heap first in Nim and Zeruclid, the diagonal moves first in Wythoff,
the smallest remainder first in Euclid.  Subtraction's form only checks.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable

from .arith import consecutive_fib_index, is_wythoff_pair, ratio_below_phi
from .core import Ruleset, sum_grundy


def _check_heaps(position, arity: int | None = None) -> tuple:
    if position.__class__ is not tuple:
        raise ValueError(f"heap position must be a tuple, got {position!r}")
    if arity is not None and len(position) != arity:
        raise ValueError(f"expected {arity} heaps, got {position!r}")
    for h in position:
        if h.__class__ is not int or h < 0:
            raise ValueError(f"heap sizes must be non-negative ints, got {position!r}")
    return position


def _sorted_tuple(position: tuple) -> tuple:
    """The heap-symmetric rulesets' canonical form: checked heaps, sorted."""
    return tuple(sorted(_check_heaps(position)))


# Options of the heap-symmetric rulesets take the sorted tuple that the
# canonical form made as it is, and list sorted children without duplicates.


def _lowerings(s: tuple, step: int) -> list[tuple]:
    """Children of the sorted heaps `s` that lower one heap by a positive
    multiple of `step`, the largest heap first and the smallest take first.
    The new value goes in at an index that only falls as the take grows."""
    out = []
    prev = None
    for j in range(len(s) - 1, -1, -1):
        h = s[j]
        if h == prev:
            continue  # equal heaps give equal children: lower the last copy only
        prev = h
        i = j
        head, tail = s[:j], s[j + 1 :]
        floor = s[j - 1] if j else -1  # the new value stays at i while >= floor
        for new in range(h - step, -1, -step):
            if new < floor:
                while i and s[i - 1] > new:
                    i -= 1
                head, tail = s[:i], s[i:j] + s[j + 1 :]
                floor = s[i - 1] if i else -1
            out.append(head + (new,) + tail)
    return out


def nim_options(position: tuple) -> list[tuple]:
    """Take any positive number of tokens from one heap."""
    return _lowerings(position, 1)


def wythoff_options(position: tuple) -> list[tuple]:
    """Nim moves on two heaps, plus taking the same positive amount from both."""
    a, b = position
    opts = [(a - k, b - k) for k in range(1, a + 1)]
    if a < b:  # the Nim move to (2a - b, a) is the diagonal move that takes b - a
        opts += [(a, y) for y in range(b - 1, a - 1, -1)]
        opts += [(y, a) for y in range(a - 1, -1, -1) if y != 2 * a - b]
    return opts + [(x, b) for x in range(a - 1, -1, -1)]


def euclid_options(position: tuple) -> list[tuple]:
    """Remove a positive multiple of the smaller heap from the larger, staying >= 1.

    Equal positive heaps and (0, 0) are terminal; a pair with exactly one
    empty heap has the single escape move to (0, 0).
    """
    a, b = position
    if a == 0:
        return [] if b == 0 else [(0, 0)]
    if a == b:
        return []
    # The least remainder r is at most a; every other one exceeds a.
    r = (b - 1) % a + 1
    return [(r, a)] + [(a, y) for y in range(r + a, b, a)]


def zeruclid_options(position: tuple) -> list[tuple]:
    """Remove a positive multiple of the smallest non-zero heap from any heap,
    keeping every heap non-negative.  All heaps empty is terminal."""
    m = next((h for h in position if h), 0)
    return _lowerings(position, m) if m else []


def subtraction_set(values: Iterable[int]) -> tuple[int, ...]:
    """The distinct moves of a subtraction set in ascending order, checked
    non-empty, positive ints (no bools or floats)."""
    vals = tuple(values)
    if not vals or any(v.__class__ is not int or v < 1 for v in vals):
        raise ValueError(f"subtraction set must be non-empty positive ints, got {vals}")
    return tuple(sorted(set(vals)))


def subtraction(values: Iterable[int]) -> Ruleset:
    """Single-heap subtraction game: remove v tokens for any v in `values`."""
    return _subtraction_cached(subtraction_set(values))


@lru_cache(maxsize=None)
def _subtraction_cached(vals: tuple[int, ...]) -> Ruleset:
    def options(position):
        (n,) = position
        return [(n - v,) for v in vals if v <= n]

    name = "subtraction({})".format(",".join(map(str, vals)))
    return Ruleset(name, options, canonical=_check_heaps)


NIM = Ruleset("nim", nim_options, canonical=_sorted_tuple)
WYTHOFF = Ruleset("wythoff", wythoff_options, canonical=_sorted_tuple)
EUCLID = Ruleset("euclid", euclid_options, canonical=_sorted_tuple)
ZERUCLID = Ruleset("zeruclid", zeruclid_options, canonical=_sorted_tuple)

RULESETS = {
    "nim": NIM,
    "wythoff": WYTHOFF,
    "euclid": EUCLID,
    "zeruclid": ZERUCLID,
}


# -- closed-form P-position tests ------------------------------------------


def is_nim_p(position: tuple) -> bool:
    """Normal-play Nim: P iff the xor of the heaps is zero."""
    return sum_grundy(_check_heaps(position)) == 0


def is_nim_misere_p(position: tuple) -> bool:
    """Misere Nim: play normal Nim until only heaps of one remain, then flip
    parity — P iff some heap exceeds 1 and the xor is 0, or the count of
    one-token heaps is odd."""
    if any(h > 1 for h in _check_heaps(position)):
        return sum_grundy(position) == 0
    return sum(position) % 2 == 1


def is_wythoff_p(position: tuple) -> bool:
    """Wythoff's game: P iff the sorted pair is a Beatty pair."""
    a, b = _check_heaps(position, arity=2)
    return is_wythoff_pair(a, b)


def is_euclid_p(position: tuple) -> bool:
    """Euclid under normal play: P iff the larger/smaller ratio is below phi.

    Defined on positive pairs only; pairs with a zero heap are search
    territory for the variant, not this closed form.
    """
    a, b = _check_heaps(position, arity=2)
    if a == 0 or b == 0:
        raise ValueError(f"Euclid oracle needs positive heaps, got {position!r}")
    return ratio_below_phi(min(a, b), max(a, b))


def is_euclid_misere_p(position: tuple) -> bool:
    """Euclid under misere play.

    Reduce the pair by its gcd.  If it is a pair of consecutive Fibonacci
    numbers (fib(k), fib(k+1)), the position is P exactly for even k (the
    convergents above phi); otherwise P iff the ratio is below phi.
    """
    a, b = _check_heaps(position, arity=2)
    if a == 0 or b == 0:
        raise ValueError(f"Euclid oracle needs positive heaps, got {position!r}")
    if a > b:
        a, b = b, a
    g = gcd(a, b)
    k = consecutive_fib_index(a // g, b // g)
    if k is not None:
        return k % 2 == 0
    return ratio_below_phi(a, b)


BASE_ORACLES = {
    "nim-normal": is_nim_p,
    "nim-misere": is_nim_misere_p,
    "wythoff": is_wythoff_p,
    "euclid-normal": is_euclid_p,
    "euclid-misere": is_euclid_misere_p,
}
