"""Outcome/Grundy streams of interval compounds and period certificates."""

import itertools
import random
from functools import partial

import pytest

from gamelab.core import Convention, Outcome
from gamelab.heaps import subtraction
from gamelab.periodicity import (
    HorizonExceeded,
    certified_period,
    certified_split_period,
    compound_certificates,
    interval_compound_certificate,
    predicted_period,
    ruleset_stream,
)
from gamelab.push import push_ruleset

from reference import (
    naive_grundy,
    naive_outcome,
    push_moves,
    strip_value,
    subtraction_moves,
)

N, P = Outcome.N, Outcome.P


def _compound(s1, s2, length, convention=Convention.NORMAL):
    """Values of Subtraction(s1) then Subtraction(s2) at heaps 0 .. length-1:
    outcomes under `convention`, Grundy values when it is None."""
    stream = ruleset_stream(push_ruleset(subtraction(s1), subtraction(s2)), convention)
    return list(itertools.islice(stream, length))


def test_outcome_sequence_simple():
    # {1} then {1}: heap 0 is N (press, opponent is stuck on an exhausted
    # second heap), and outcomes alternate from there.
    seq = _compound({1}, {1}, 6)
    assert seq == [N, P, N, P, N, P]


def test_stream_matches_full_search():
    s1, s2 = {1, 2}, {1, 2, 3}
    moves = push_moves(partial(subtraction_moves, s1), partial(subtraction_moves, s2))
    for convention in (Convention.NORMAL, Convention.MISERE):
        seq = _compound(s1, s2, 40, convention)
        memo = {}
        misere = convention is Convention.MISERE
        for n in range(40):
            want = naive_outcome(moves, (False, (n,)), misere, memo)
            assert seq[n].value == want, (n, convention)


def test_interval_compound_p_set():
    # {1,2} then {1,2,3}: P exactly on 1, 5, 9, ... (period 4 from heap 0).
    seq = _compound({1, 2}, {1, 2, 3}, 30)
    p_set = {n for n, o in enumerate(seq) if o is P}
    assert p_set == {n for n in range(30) if n % 4 == 1}
    cert = interval_compound_certificate(2, 3)
    assert (cert.preperiod, cert.period) == (0, 4)


def test_grundy_stream_values():
    # {1} then {1}: pressing adds a unit heap, so values are (plain) xor 1.
    s1, s2 = {1}, {1}
    values = _compound(s1, s2, 20, None)
    assert values[0] == 1
    plain = [n % 2 for n in range(20)]  # Grundy of Subtraction({1})
    assert values == [g ^ 1 for g in plain]
    moves = push_moves(partial(subtraction_moves, s1), partial(subtraction_moves, s2))
    memo = {}
    for n in range(20):
        assert values[n] == naive_grundy(moves, (False, (n,)), memo)


def test_grundy_zero_iff_outcome_p():
    s1, s2 = {1, 3}, {2, 3}
    values = _compound(s1, s2, 60, None)
    outcomes = _compound(s1, s2, 60)
    for n in range(60):
        assert (values[n] == 0) == (outcomes[n] is P), n


def test_certified_period_constant_stream():
    cert = certified_period(itertools.repeat(7), window=1, modulus=1, state_bound=4)
    assert (cert.preperiod, cert.period) == (0, 1)


def test_certified_period_walks_back_to_true_preperiod():
    # A scan started past the preperiod first finds the cycle at `start`,
    # then walks back over every value that already repeats with the period.
    cycle = itertools.cycle((1, 2, 3))
    cert = certified_period(cycle, window=1, modulus=3, state_bound=9, start=5)
    assert (cert.preperiod, cert.period) == (0, 3)
    stream = itertools.chain((7, 7), itertools.cycle((1, 2, 3)))
    cert = certified_period(stream, window=1, modulus=3, state_bound=9, start=6)
    assert (cert.preperiod, cert.period) == (2, 3)


def test_certified_period_simple_compound():
    stream = ruleset_stream(push_ruleset(subtraction({1}), subtraction({1})), Convention.NORMAL)
    cert = certified_period(stream, window=1, modulus=2, state_bound=8)
    assert cert == (0, 2) and cert._fields == ("preperiod", "period")


def test_certified_period_finds_preperiod():
    # Iterating a function from a transient start: 3 -> 5 -> 1 -> 2 -> 1 ...
    # (each value determines the next, as the window-1 scan assumes).
    values = [3, 5] + [1, 2] * 50

    def gen():
        yield from values

    cert = certified_period(gen(), window=1, modulus=1, state_bound=30)
    assert (cert.preperiod, cert.period) == (2, 2)


def test_certified_period_minimizes():
    # Stride found by the state scan can be a multiple of the true period.
    cert = certified_period(itertools.cycle([0, 1, 0, 1]), 2, 4, 64)
    assert cert.period == 2


def test_certified_period_horizon_errors():
    with pytest.raises(HorizonExceeded):
        certified_period(iter([1, 2, 3]), window=2, modulus=1, state_bound=50)
    with pytest.raises(HorizonExceeded):
        # Counter stream never repeats within the bound.
        certified_period(itertools.count(), window=1, modulus=1, state_bound=40)
    with pytest.raises(HorizonExceeded):
        # The state (0, 0) repeats at 2 and 5, but 3 is no period: element n
        # is no function of the two before it, as the window claims.
        certified_period([0, 0, 1, 0, 0, 2] + [7] * 20, window=2, modulus=1, state_bound=9)


def test_certified_period_bad_args():
    with pytest.raises(ValueError):
        certified_period(itertools.repeat(0), window=-1, modulus=1, state_bound=4)
    with pytest.raises(ValueError):
        certified_period(itertools.repeat(0), window=1, modulus=0, state_bound=4)
    with pytest.raises(ValueError):
        certified_period(itertools.repeat(0), window=1, modulus=1, state_bound=0)
    with pytest.raises(ValueError):
        certified_split_period([0, 1], 0)


def test_predicted_period_examples():
    assert predicted_period(1, 1) == 2
    assert predicted_period(1, 2) == 3
    assert predicted_period(2, 3) == 4
    assert predicted_period(2, 2) == 3  # 3 and 3 share a factor: falls back to k1+1
    assert predicted_period(3, 1) == 4
    assert predicted_period(3, 3) == 4
    assert predicted_period(3, 2) == 9
    with pytest.raises(ValueError):
        predicted_period(0, 1)


def test_interval_certificates_match_prediction():
    for k1 in range(1, 7):
        for k2 in range(1, 7):
            cert = interval_compound_certificate(k1, k2)
            assert cert.preperiod == 0, (k1, k2)
            assert cert.period == predicted_period(k1, k2), (k1, k2)


def test_interval_certificate_bad_args():
    with pytest.raises(ValueError):
        interval_compound_certificate(0, 3)


def test_certificates_take_only_conventions():
    # None would certify Grundy streams and file them as outcome certificates.
    for convention in (None, "normal"):
        with pytest.raises(ValueError, match="convention must be a Convention"):
            interval_compound_certificate(2, 3, convention)
        with pytest.raises(ValueError, match="convention must be a Convention"):
            compound_certificates([1, 2], [1, 2, 3], convention)


def test_plain_interval_subtraction_outcomes():
    # Sanity check of the stream helper on plain rulesets: Subtraction({1..k})
    # is P on multiples of k+1 under normal play, and 1 mod k+1 under misere.
    for k in range(1, 11):
        r = subtraction(range(1, k + 1))
        normal = ruleset_stream(r, Convention.NORMAL)
        misere = ruleset_stream(r, Convention.MISERE)
        for n in range(4 * (k + 1)):
            assert next(normal) is (P if n % (k + 1) == 0 else N)
            assert next(misere) is (P if n % (k + 1) == 1 else N)


def test_compound_certificates_structure():
    s1, s2 = {1, 2}, {1, 2, 3}
    certs = compound_certificates(s1, s2)
    assert set(certs) == {"r2", "r2_values", "outcome", "values"}
    assert certs["outcome"].period == 4
    assert certs["values"].period % certs["outcome"].period == 0
    assert compound_certificates(iter(s1), iter(s2)) == certs
    misere = compound_certificates(s1, s2, Convention.MISERE)
    assert set(misere) == {"r2", "outcome"}
    # Certified outcome periods describe the actual stream.
    cert = certs["outcome"]
    seq = _compound(s1, s2, cert.preperiod + 3 * cert.period)
    for n in range(cert.preperiod, cert.preperiod + 2 * cert.period):
        assert seq[n] is seq[n + cert.period]


def test_compound_certificates_general_sets():
    s1, s2 = {2, 5}, {1, 4}
    certs = compound_certificates(s1, s2)
    cert = certs["values"]
    values = _compound(s1, s2, cert.preperiod + 4 * cert.period, None)
    for n in range(cert.preperiod, len(values) - cert.period):
        assert values[n] == values[n + cert.period]


def test_certified_split_period_on_strip_values():
    values = [strip_value(n) for n in range(300)]
    cert = certified_split_period(values, max_take=2)
    assert (cert.preperiod, cert.period) == (53, 34)
    for n in range(cert.preperiod, 300 - 34):
        assert values[n] == values[n + 34]
    assert values[52] != values[52 + 34]


def _naive_period(values, settled):
    """Least (preperiod, period) read off `values` by brute force, given that
    values[settled:] spans at least two periods."""
    for p in itertools.count(1):
        for n0 in range(settled + 1):
            if all(values[n] == values[n + p] for n in range(n0, len(values) - p)):
                return n0, p


def test_certifiers_match_naive_finder():
    rng = random.Random(20171)
    for _ in range(300):
        prefix = [rng.randrange(3) for _ in range(rng.randrange(8))]
        cycle = [rng.randrange(3) for _ in range(rng.randrange(1, 8))]
        values = prefix + cycle * (len(prefix) + 3)
        want = _naive_period(values, len(prefix))
        window = len(prefix) + len(cycle)
        cert = certified_period(iter(values), window, modulus=1, state_bound=window)
        assert cert == want, (prefix, cycle)
        assert certified_split_period(values, max_take=1) == want, (prefix, cycle)


def test_certified_split_period_horizon():
    with pytest.raises(HorizonExceeded):
        certified_split_period([0, 1] * 3, max_take=50)


def test_stream_bad_subtraction_sets():
    with pytest.raises(ValueError):
        _compound(set(), {1}, 5)
    with pytest.raises(ValueError):
        _compound({0, 1}, {1}, 5, None)
