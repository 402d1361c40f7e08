"""Golden-ratio floors, Fibonacci tools, and Zeckendorf coding."""

import random

import pytest

from gamelab import arith
from gamelab.arith import (
    FIB_INDEX_LIMIT,
    PHI_INPUT_LIMIT,
    ceil_phi,
    consecutive_fib_index,
    fib,
    floor_phi,
    is_wythoff_pair,
    ratio_below_phi,
    wythoff_pair,
    zeckendorf,
    zeckendorf_decode,
)

from reference import phi_floor


def test_floor_phi_small_values():
    assert floor_phi(0) == 0
    assert floor_phi(1) == 1
    assert floor_phi(2) == 3
    assert floor_phi(3) == 4
    assert floor_phi(4) == 6


def test_ceil_phi_small_values():
    assert ceil_phi(0) == 0
    assert ceil_phi(1) == 2
    assert ceil_phi(2) == 4
    assert ceil_phi(3) == 5


def test_floor_phi_matches_decimal_oracle():
    rng = random.Random(0xF100)
    samples = list(range(0, 2_000))
    samples += [rng.randrange(10**6) for _ in range(500)]
    samples += [rng.randrange(10**12) for _ in range(200)]
    samples += [PHI_INPUT_LIMIT - 1 - k for k in range(5)]
    for n in samples:
        assert floor_phi(n) == phi_floor(n), n


def test_ceil_phi_is_floor_plus_one_off_zero():
    for n in range(1, 5_000):
        assert ceil_phi(n) == floor_phi(n) + 1


def test_floor_phi_domain_errors():
    with pytest.raises(ValueError):
        floor_phi(-1)
    with pytest.raises(ValueError):
        floor_phi(PHI_INPUT_LIMIT)


def test_fib_values():
    assert [fib(i) for i in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert fib(6) == 8
    assert fib(5) - 1 == 4
    assert fib(FIB_INDEX_LIMIT) == 2880067194370816120


def test_fib_domain_errors():
    with pytest.raises(ValueError):
        fib(-1)
    with pytest.raises(ValueError):
        fib(FIB_INDEX_LIMIT + 1)


def test_wythoff_pair_basics():
    assert wythoff_pair(0) == (0, 0)
    assert wythoff_pair(1) == (1, 2)
    assert wythoff_pair(2) == (3, 5)
    assert wythoff_pair(3) == (4, 7)
    assert wythoff_pair(4) == (6, 10)


def test_beatty_complementarity():
    # Lower and upper Wythoff sequences partition the positive integers.
    limit = 100_000
    seen = set()
    n = 1
    while True:
        a, b = wythoff_pair(n)
        if a > limit and b > limit:
            break
        for x in (a, b):
            if x <= limit:
                assert x not in seen
                seen.add(x)
        n += 1
    assert seen == set(range(1, limit + 1))


def test_is_wythoff_pair_unordered():
    pairs = {wythoff_pair(n) for n in range(200)}
    for a in range(40):
        for b in range(40):
            expect = (a, b) in pairs or (b, a) in pairs
            assert is_wythoff_pair(a, b) == expect
    with pytest.raises(ValueError):
        is_wythoff_pair(-1, 2)


def test_ratio_below_phi_examples():
    assert ratio_below_phi(3, 4) is True
    assert ratio_below_phi(7, 12) is False
    assert ratio_below_phi(1, 1) is True
    assert ratio_below_phi(2, 3) is True
    assert ratio_below_phi(1, 2) is False


def test_ratio_below_phi_matches_ceil_phi():
    rng = random.Random(0xBEA7)
    for _ in range(4_000):
        a = rng.randrange(1, 10_000)
        b = rng.randrange(0, 2 * a + 2)
        assert ratio_below_phi(a, b) == (b < ceil_phi(a))


def test_ratio_below_phi_domain():
    with pytest.raises(ValueError):
        ratio_below_phi(0, 1)
    with pytest.raises(ValueError):
        ratio_below_phi(1, -1)


def test_consecutive_fib_index():
    assert consecutive_fib_index(1, 1) == 1
    assert consecutive_fib_index(1, 2) == 2
    assert consecutive_fib_index(2, 3) == 3
    assert consecutive_fib_index(3, 5) == 4
    assert consecutive_fib_index(5, 8) == 5
    assert consecutive_fib_index(2, 4) is None
    assert consecutive_fib_index(1, 3) is None
    assert consecutive_fib_index(0, 1) is None


def test_zeckendorf_examples():
    assert zeckendorf(0) == ""
    assert zeckendorf(1) == "1"
    assert zeckendorf(2) == "10"
    assert zeckendorf(3) == "100"
    assert zeckendorf(4) == "101"
    assert zeckendorf(7) == "1010"
    assert zeckendorf(12) == "10101"
    with pytest.raises(ValueError):
        zeckendorf(-1)


def test_zeckendorf_checks_its_remainder(monkeypatch):
    # A table missing fib(2) = 1 cannot spell 4; the check is a raise, so it
    # holds under python -O too.
    monkeypatch.setattr(arith, "_fib_table", lambda **_: [0, 1, 3, 5, 8, 13])
    with pytest.raises(ArithmeticError):
        zeckendorf(4)


def test_zeckendorf_round_trip():
    for n in range(0, 3_000):
        word = zeckendorf(n)
        assert "11" not in word
        assert zeckendorf_decode(word) == n
    rng = random.Random(0x2ECC)
    for _ in range(300):
        n = rng.randrange(10**6)
        assert zeckendorf_decode(zeckendorf(n)) == n


def test_zeckendorf_decode_rejects_invalid():
    with pytest.raises(ValueError):
        zeckendorf_decode("11")
    with pytest.raises(ValueError):
        zeckendorf_decode("1011")
    with pytest.raises(ValueError):
        zeckendorf_decode("102")


def test_wythoff_pairs_from_even_fibonacci():
    # (floor(phi*F(2n)), floor(phi*F(2n)) + F(2n)) is a Wythoff pair.
    for n in range(1, 41):
        f = fib(2 * n)
        a = floor_phi(f)
        assert is_wythoff_pair(a, a + f), n


def test_fib_minus_one_zeckendorf_shapes():
    # F(2n+2) - 1 has word (10)^n; F(2n+1) - 1 has word (10)^(n-1) 1.
    for n in range(1, 21):
        assert zeckendorf(fib(2 * n + 2) - 1) == "10" * n
        assert zeckendorf(fib(2 * n + 1) - 1) == "10" * (n - 1) + "1"
