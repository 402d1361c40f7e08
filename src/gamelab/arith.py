"""Exact integer arithmetic around the golden ratio and Fibonacci numbers.

No decision anywhere in the package goes through floating point: multiples of
phi = (1 + sqrt 5)/2 are floored via the exact integer square root, and ratio
comparisons against phi reduce to the sign of an integer quadratic form.
"""

from __future__ import annotations

from math import isqrt

# floor_phi keeps the documented fixed-width contract: 5*n*n must fit in an
# unsigned 128-bit intermediate.
PHI_INPUT_LIMIT = 1 << 62

_FIB = [0, 1]


def _fib_table(limit_value: int) -> list[int]:
    while _FIB[-1] <= limit_value:
        _FIB.append(_FIB[-1] + _FIB[-2])
    return _FIB


def floor_phi(n: int) -> int:
    """floor(n * phi), exactly.

    floor(n * sqrt 5) = isqrt(5 n^2), and halving cannot round past the next
    integer because n * phi is irrational for n >= 1.
    """
    if n < 0:
        raise ValueError(f"floor_phi needs n >= 0, got {n}")
    if n >= PHI_INPUT_LIMIT:
        raise ValueError(f"floor_phi input out of range: {n} >= 2**62")
    return (n + isqrt(5 * n * n)) // 2


def ceil_phi(n: int) -> int:
    """ceil(n * phi): floor_phi(n) + 1 for n >= 1, and 0 at 0."""
    if n == 0:
        return 0
    return floor_phi(n) + 1


def ratio_below_phi(a: int, b: int) -> bool:
    """True iff b/a < phi, decided by the sign of b^2 - ab - a^2.

    The form never vanishes for a >= 1 since phi is irrational.
    """
    if a < 1 or b < 0:
        raise ValueError(f"ratio test needs a >= 1 and b >= 0, got ({a}, {b})")
    d = b * b - a * b - a * a
    if d == 0:
        raise ArithmeticError(f"b^2 - ab - a^2 vanished at ({a}, {b})")
    return d < 0


def wythoff_pair(n: int) -> tuple[int, int]:
    """The n-th Beatty pair (floor(n phi), floor(n phi) + n); n = 0 gives (0, 0)."""
    a = floor_phi(n)
    return (a, a + n)


def is_wythoff_pair(x: int, y: int) -> bool:
    """True iff {x, y} is some Beatty pair, unordered."""
    if x < 0 or y < 0:
        raise ValueError(f"heap sizes must be non-negative, got ({x}, {y})")
    if x > y:
        x, y = y, x
    return x == floor_phi(y - x)


def consecutive_fib_index(p: int, q: int) -> int | None:
    """k with (p, q) == (fib(k), fib(k+1)), or None.

    fib(1) = fib(2) = 1 makes (1, 1) -> 1 and (1, 2) -> 2 the only pairs whose
    first entry is ambiguous; every p >= 2 occurs at a single index.
    """
    if p < 1 or q < p:
        return None
    if p == 1:
        return {1: 1, 2: 2}.get(q)
    table = _fib_table(limit_value=q)  # ends past q >= p, so the loop returns
    for k in range(3, len(table)):
        if table[k] == p:
            return k if k + 1 < len(table) and table[k + 1] == q else None
        if table[k] > p:
            return None


def zeckendorf(n: int) -> str:
    """Zeckendorf word of n, most significant digit first; '' encodes 0.

    A k-letter word has its leftmost digit standing for fib(k + 1) and its
    rightmost for fib(2); no two adjacent digits are 1.
    """
    if n < 0:
        raise ValueError(f"zeckendorf needs n >= 0, got {n}")
    if n == 0:
        return ""
    table = _fib_table(limit_value=n)
    k = len(table) - 2  # largest index with table[k] <= n
    while table[k] > n:
        k -= 1
    bits = []
    rem = n
    for idx in range(k, 1, -1):
        f = table[idx]
        if f <= rem:
            bits.append("1")
            rem -= f
        else:
            bits.append("0")
    if rem != 0:
        raise ArithmeticError(f"greedy Fibonacci expansion of {n} left {rem}")
    return "".join(bits)


def zeckendorf_decode(word: str) -> int:
    """Inverse of :func:`zeckendorf`; rejects words with adjacent ones."""
    if set(word) - {"0", "1"}:
        raise ValueError(f"Zeckendorf word must be over 0/1, got {word!r}")
    if "11" in word:
        raise ValueError(f"adjacent ones in Zeckendorf word {word!r}")
    total, f, g = 0, 1, 2  # the rightmost digit stands for fib(2), the next for fib(3)
    for c in reversed(word):
        if c == "1":
            total += f
        f, g = g, f + g
    return total
