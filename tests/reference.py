"""Independent naive oracles for the test suite.

Everything here is re-derived from the game definitions with deliberately
different machinery than the package (plain recursion with dict memos,
set-of-cells boards, high-precision decimal arithmetic), so agreement is
meaningful double-entry bookkeeping rather than a tautology.
"""

from __future__ import annotations

import sys
from decimal import Decimal, getcontext

getcontext().prec = 80
SQRT5 = Decimal(5).sqrt()
PHI = (1 + SQRT5) / 2

sys.setrecursionlimit(100_000)


def phi_floor(n: int) -> int:
    """floor(n*phi) by 80-digit decimal; safe far beyond the tested ranges."""
    return int(Decimal(n) * PHI)


def fibonacci(n: int) -> int:
    """fib(n) with fib(0) = 0 and fib(1) = 1, by plain iteration."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# -- naive solvers -----------------------------------------------------------


def naive_win(options, position, misere: bool = False, memo=None) -> bool:
    """True iff the player to move wins; plain recursive definition."""
    if memo is None:
        memo = {}
    hit = memo.get(position)
    if hit is not None:
        return hit
    opts = options(position)
    if not opts:
        result = misere
    else:
        result = any(not naive_win(options, q, misere, memo) for q in opts)
    memo[position] = result
    return result


def naive_outcome(options, position, misere: bool = False, memo=None) -> str:
    return "N" if naive_win(options, position, misere, memo) else "P"


def naive_grundy(options, position, memo=None) -> int:
    if memo is None:
        memo = {}
    hit = memo.get(position)
    if hit is not None:
        return hit
    seen = {naive_grundy(options, q, memo) for q in options(position)}
    value = 0
    while value in seen:
        value += 1
    memo[position] = value
    return value


# -- move generators ----------------------------------------------------------


def nim_moves(heaps: tuple) -> list[tuple]:
    out = set()
    for i, h in enumerate(heaps):
        for take in range(1, h + 1):
            out.add(heaps[:i] + (h - take,) + heaps[i + 1 :])
    return sorted(out)


def wythoff_moves(heaps: tuple) -> list[tuple]:
    a, b = heaps
    out = set(nim_moves(heaps))
    for t in range(1, min(a, b) + 1):
        out.add((a - t, b - t))
    return sorted(out)


def euclid_moves(pair: tuple) -> list[tuple]:
    # Remove a positive multiple of the smaller heap from the larger; both
    # heaps must stay positive.  A pair with exactly one zero heap has the
    # single move to (0, 0); equal heaps and (0, 0) are terminal.
    a, b = pair
    if (a == 0) != (b == 0):
        return [(0, 0)]
    out = set()
    if a > b > 0:
        for k in range(1, (a - 1) // b + 1):
            out.add((a - k * b, b))
    elif b > a > 0:
        for k in range(1, (b - 1) // a + 1):
            out.add((a, b - k * a))
    return sorted(out)


def zeruclid_moves(heaps: tuple) -> list[tuple]:
    # Remove a positive multiple of the smallest non-zero heap from any heap,
    # allowing the result to reach zero.
    nonzero = [h for h in heaps if h]
    if not nonzero:
        return []
    s = min(nonzero)
    out = set()
    for i, h in enumerate(heaps):
        for k in range(1, h // s + 1):
            out.add(heaps[:i] + (h - k * s,) + heaps[i + 1 :])
    return sorted(out)


def subtraction_moves(values: tuple, heap: tuple) -> list[tuple]:
    (n,) = heap
    return [(n - v,) for v in sorted(values) if v <= n]


def push_moves(r1_moves, r2_moves):
    """Move function of the two-phase compound over (pushed?, inner) pairs."""

    def moves(state):
        pushed, inner = state
        if pushed:
            return [(True, q) for q in r2_moves(inner)]
        return [(False, q) for q in r1_moves(inner)] + [(True, inner)]

    return moves


# -- two-phase domino game on explicit cell sets ------------------------------


def cram_start(rows: int, cols: int):
    return (rows, cols, frozenset(), False)


def cram_moves(state) -> list:
    rows, cols, occupied, pushed = state
    out = []
    if not pushed:
        for r in range(rows - 1):
            for c in range(cols):
                if (r, c) not in occupied and (r + 1, c) not in occupied:
                    out.append(
                        (rows, cols, occupied | {(r, c), (r + 1, c)}, False)
                    )
        out.append((rows, cols, occupied, True))
    else:
        for r in range(rows):
            for c in range(cols - 1):
                if (r, c) not in occupied and (r, c + 1) not in occupied:
                    out.append((rows, cols, occupied | {(r, c), (r, c + 1)}, True))
    return out


def board_state(rows: int, cols: int, occupancy: int, pushed: bool):
    cells = frozenset(
        (r, c)
        for r in range(rows)
        for c in range(cols)
        if occupancy >> (r * cols + c) & 1
    )
    return (rows, cols, cells, pushed)


# -- strip game (place a domino on two adjacent free cells of a 1 x n row) ----

_STRIP_MEMO = {0: 0, 1: 0}


def strip_value(n: int) -> int:
    if n in _STRIP_MEMO:
        return _STRIP_MEMO[n]
    seen = {strip_value(i) ^ strip_value(n - 2 - i) for i in range(n - 1)}
    value = 0
    while value in seen:
        value += 1
    _STRIP_MEMO[n] = value
    return value
