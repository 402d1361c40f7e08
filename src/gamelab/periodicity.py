"""Eventual periodicity of subtraction compounds, with finite-state certificates.

For a subtraction set S compounded with a single-heap ruleset r2 whose
P-positions repeat with period k, the outcome at heap n is a function of the
previous max(S) outcomes and n mod k.  That recursion walks a finite state
space, so the first repeated lookback state proves the whole stream periodic
forever; the same argument certifies Grundy streams with the larger value
alphabet.  Minimal (preperiod, period) are then recovered by re-verification
against the certified cycle, since a raw repetition need not be tight.  Both
streams are `ruleset_stream(push_ruleset(subtraction(S), r2), convention)`.

Split-heap Grundy sequences (a move may split a heap in two) look back over
the whole prefix, so they get a separate certifier: once values agree with
their shift by p on [n0, 2*n0 + p + max_take), every later heap's split
options land their larger part inside the verified zone and induction closes
the loop.
"""

from __future__ import annotations

from itertools import count, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import core
from .core import Convention, HorizonExceeded, Ruleset
from .heaps import subtraction, subtraction_set
from .push import push_ruleset


class PeriodCertificate(NamedTuple):
    """Certified minimal eventual period of a stream: values[n + period] ==
    values[n] for every n >= preperiod."""

    preperiod: int
    period: int


# -- streams ----------------------------------------------------------------


def ruleset_stream(r: Ruleset, convention: Convention | None) -> Iterator:
    """Values of a single-heap ruleset at heaps 0, 1, 2, ..., read off its
    shared solver: outcomes under `convention`, or Grundy values when it is
    None."""
    solver = core.solver_for(r)
    heaps = zip(count())
    if convention is None:
        return map(solver.grundy, heaps)
    return map(solver.outcome, heaps, repeat(convention))


# -- certificates -------------------------------------------------------------


def certified_period(
    stream: Iterable,
    window: int,
    modulus: int,
    state_bound: int,
    start: int = 0,
) -> PeriodCertificate:
    """Certified minimal (preperiod, period) of a finite-state stream.

    Assumes element n (for n >= start) is a function of the state
    (elements n-window .. n-1, n mod modulus).  Scans states from index
    start + window; by pigeonhole a repeat must appear within `state_bound`
    + 1 probes (the size of the state space), else the assumption is broken
    and :class:`HorizonExceeded` is raised.  The repeat proves the stream
    periodic forever from the first repeated index minus the window.  The
    least divisor of the raw stride under which the stream agrees with its
    shift over one full certified cycle is the minimal period, and the start
    of that agreement, walked backwards, the preperiod; if no divisor agrees,
    the assumption is broken and :class:`HorizonExceeded` is raised.
    """
    if window < 0 or modulus < 1 or state_bound < 1 or start < 0:
        raise ValueError("window >= 0, modulus >= 1, state_bound >= 1, start >= 0")
    values: list = []
    it = iter(stream)

    def need(upto: int) -> None:
        while len(values) <= upto:
            try:
                values.append(next(it))
            except StopIteration:
                raise HorizonExceeded(
                    f"stream ended at {len(values)} elements, needed {upto + 1}"
                ) from None

    seen: dict = {}
    base = start + window
    for n in range(base, base + state_bound + 2):
        need(n - 1)
        probe = (tuple(values[n - window : n]), n % modulus)
        if probe in seen:
            first, second = seen[probe], n
            break
        seen[probe] = n
    else:
        raise HorizonExceeded(
            f"no repeated state within the bound of {state_bound} states; "
            "window/modulus do not match the stream's recursion"
        )

    raw_period = second - first
    cycle_start = first - window  # >= start; periodic from here on, certified
    cycle_end = cycle_start + raw_period
    for d in range(1, raw_period + 1):
        if raw_period % d:
            continue
        need(cycle_end + d - 1)
        preperiod = _tail_start(values, d, cycle_end)
        if preperiod <= cycle_start:
            return PeriodCertificate(preperiod, d)
    raise HorizonExceeded(
        f"the repeat at {first} and {second} is no period of the stream; "
        "window/modulus do not match the stream's recursion"
    )


def certified_split_period(values: Sequence, max_take: int) -> PeriodCertificate:
    """Certified minimal (preperiod, period) of a split-heap Grundy sequence.

    A candidate (n0, p) read off the horizon is eternal once values[n] ==
    values[n + p] holds for n0 <= n < 2*n0 + p + max_take: any heap past that
    range splits, under every move, into parts whose larger side is already
    inside the verified zone, so the option value sets of n and n + p match
    and induction extends the agreement.  Candidates are tried in ascending
    p (with the tightest n0 the horizon supports), which yields the minimal
    eventual period because a smaller true period would certify first.
    """
    if max_take < 1:
        raise ValueError(f"max_take must be >= 1, got {max_take}")
    horizon = len(values)
    for p in range(1, horizon):
        n0 = _tail_start(values, p, horizon - p)
        if 2 * n0 + 2 * p + max_take <= horizon:
            return PeriodCertificate(n0, p)
    raise HorizonExceeded(
        f"horizon of {horizon} values is too short to certify any period"
    )


def _tail_start(values: Sequence, p: int, stop: int) -> int:
    """Least n0 with values[n] == values[n + p] for every n0 <= n < stop."""
    n0 = stop
    while n0 > 0 and values[n0 - 1] == values[n0 - 1 + p]:
        n0 -= 1
    return n0


# -- interval compounds -------------------------------------------------------


def predicted_period(k1: int, k2: int) -> int:
    """Closed-form outcome period of Subtraction({1..k1}) then Subtraction({1..k2}).

    (k1+1)*a + 1 for the least a with (k1+1)*a = -1 mod (k2+1); such an a
    exists iff k1+1 and k2+1 are coprime, and otherwise the period is k1+1.
    """
    if k1 < 1 or k2 < 1:
        raise ValueError(f"need k1, k2 >= 1, got ({k1}, {k2})")
    p1, p2 = k1 + 1, k2 + 1
    for a in range(1, p2 + 1):
        if (p1 * a) % p2 == p2 - 1:
            return p1 * a + 1
    return p1


def interval_compound_certificate(
    k1: int, k2: int, convention: Convention = Convention.NORMAL
) -> PeriodCertificate:
    """Certified outcome periodicity of the {1..k1} then {1..k2} compound."""
    if k1 < 1 or k2 < 1:
        raise ValueError(f"need k1, k2 >= 1, got ({k1}, {k2})")
    if convention.__class__ is not Convention:  # None would certify Grundy values
        raise ValueError(f"convention must be a Convention, got {convention!r}")
    return _certify_compound(range(1, k1 + 1), range(1, k2 + 1), convention)[1]


def compound_certificates(
    s1: Iterable[int], s2: Iterable[int], convention: Convention = Convention.NORMAL
) -> dict:
    """Outcome certificates ("r2", "outcome") for Subtraction(s1) then
    Subtraction(s2), and under normal play Grundy ones ("r2_values",
    "values") too; see :func:`_certify_compound`."""
    if convention.__class__ is not Convention:
        raise ValueError(f"convention must be a Convention, got {convention!r}")
    moves1, moves2 = subtraction_set(s1), subtraction_set(s2)
    r2_cert, out_cert = _certify_compound(moves1, moves2, convention)
    result = {"r2": r2_cert, "outcome": out_cert}
    if convention is Convention.NORMAL:
        result["r2_values"], result["values"] = _certify_compound(moves1, moves2, None)
    return result


def _certify_compound(
    moves1: Sequence[int], moves2: Sequence[int], convention: Convention | None
) -> tuple[PeriodCertificate, PeriodCertificate]:
    """Certificates of r2 = Subtraction(moves2) and of Subtraction(moves1) then
    r2, for outcomes under `convention` or, when it is None, Grundy values.
    Both move sets are ascending, distinct and positive.

    r2's own stream is certified first (window max(moves2), no modulus); its
    period becomes the modulus of the compound scan and its preperiod shifts
    the scan start, which keeps the state recursion sound when r2 is not
    purely periodic.  A heap of either game has at most window + 1 options
    (its moves, and the button), so a Grundy value is one of window + 2.
    Heap n of the compound is P exactly when r2 at heap n (the button answer)
    is N and every subtraction move lands on an N heap, under either
    convention, since the button keeps every pre-button position non-terminal.
    """
    r2 = subtraction(moves2)

    def states(window: int) -> int:
        return (2 if convention is not None else window + 2) ** window

    w2, w1 = moves2[-1], moves1[-1]
    r2_cert = certified_period(
        ruleset_stream(r2, convention), window=w2, modulus=1, state_bound=states(w2)
    )
    k = r2_cert.period
    cert = certified_period(
        ruleset_stream(push_ruleset(subtraction(moves1), r2), convention),
        window=w1,
        modulus=k,
        state_bound=k * states(w1),
        start=r2_cert.preperiod,
    )
    return r2_cert, cert
