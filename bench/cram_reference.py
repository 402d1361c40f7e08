"""An independent Push Cram solver that the benchmark checks answers against.

It shares no code with `gamelab.cram`.  Boards are plain ints (row-major
bits), the after-button game is scored by XOR-ing per-row lookups of the
Dawson's Kayles strip values (octal 0.07), and a BEFORE board is N exactly
when its post-button value is 0 or some vertical placement leads to a P
board.  Children that are mirror images of themselves are tried first: they
are the usual mirror replies, so N boards resolve after few nodes.
"""

from __future__ import annotations


def strip_values(n: int) -> list[int]:
    """Grundy values of horizontal-domino play on free strips of 0..n cells."""
    values = [0, 0]
    for m in range(2, n + 1):
        seen = {values[i] ^ values[m - 2 - i] for i in range(m - 1)}
        v = 0
        while v in seen:
            v += 1
        values.append(v)
    return values[: n + 1]


class CramReference:
    """Outcomes of BEFORE-phase boards of one shape, with a memo shared by
    every board asked about."""

    def __init__(self, rows: int, cols: int):
        self.rows, self.cols = rows, cols
        strip = strip_values(cols)
        width = 1 << cols
        self._row_value = []
        for bits in range(width):
            total = run = 0
            for c in range(cols):
                if bits >> c & 1:
                    total ^= strip[run]
                    run = 0
                else:
                    run += 1
            self._row_value.append(total ^ strip[run])
        self._reverse = [int(format(b, f"0{cols}b")[::-1], 2) for b in range(width)]
        self._row_mask = width - 1
        self._full = (1 << (rows * cols)) - 1
        self._anchors = (1 << ((rows - 1) * cols)) - 1
        self._memo: dict[int, bool] = {}

    def _rows(self, occ: int) -> list[int]:
        return [(occ >> (r * self.cols)) & self._row_mask for r in range(self.rows)]

    def _join(self, rows: list[int]) -> int:
        occ = 0
        for r, bits in enumerate(rows):
            occ |= bits << (r * self.cols)
        return occ

    def _images(self, occ: int) -> tuple[int, int, int]:
        rows = self._rows(occ)
        flipped = [self._reverse[bits] for bits in rows]
        return self._join(flipped), self._join(rows[::-1]), self._join(flipped[::-1])

    def after_value(self, occ: int) -> int:
        """Grundy value of the game left after pressing the button."""
        total = 0
        for bits in self._rows(occ):
            total ^= self._row_value[bits]
        return total

    def _wins(self, occ: int) -> bool:
        """True when the player to move wins (an N board)."""
        h, v, hv = self._images(occ)
        key = min(occ, h, v, hv)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        won = self.after_value(occ) == 0
        if not won:
            free = ~occ & self._full
            anchors = free & (free >> self.cols) & self._anchors
            children = []
            while anchors:
                low = anchors & -anchors
                anchors ^= low
                children.append(occ | low | (low << self.cols))
            children.sort(key=lambda child: child not in self._images(child))
            won = any(not self._wins(child) for child in children)
        self._memo[key] = won
        return won

    def outcome(self, occupied: int) -> str:
        """'N' or 'P' for the BEFORE-phase board with this occupancy."""
        return "N" if self._wins(occupied) else "P"
