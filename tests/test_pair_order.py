"""The pair-order primitive behind h(p), the prime-power lift and h_L(5^e),
checked directly and against the searches it replaced: the increasing-divisor
search for h(p), and the order searches for h_L(p^e) and h_L(m) that
h_L(p^e) = h(p^e) for p != 5 made redundant."""

import random

import pytest

from pisano import periods
from pisano.errors import ClaimViolationError
from pisano.fibmod import fib_pair, lucas_pair
from pisano.numth import MODULUS_MAX, divisors, factorize, is_prime, primes_up_to
from pisano.periods import (
    _class_bound,
    _pair_order,
    _prime_order,
    lucas_period,
    period_bound,
    pisano_period,
    prime_period,
    prime_power_period,
)


def divisor_search_period(p: int) -> int:
    """Reference h(p): the least divisor of the class bound at which fast
    doubling returns to (0, 1), divisors tried in increasing order."""
    if p in (2, 5):
        return {2: 3, 5: 20}[p]
    bound = p - 1 if p % 5 in (1, 4) else 2 * p + 2
    for d in divisors(factorize(bound)):
        if fib_pair(d, p).as_tuple() == (0, 1):
            return d
    raise AssertionError(f"no divisor of {bound} is a period of {p}")


def union_search_lucas_period(m: int) -> int:
    """Reference h_L(m): the order of (2, 1) mod m itself, divided down from
    h(m) by the union of every p | m's class-bound primes, plus p when
    p^2 | m (the search lucas_period ran before it went per prime power)."""
    pairs = list(factorize(m)) if m > 1 else []
    primes = {p for p, e in pairs if e > 1}
    for p, _ in pairs:
        primes.update(factorize(period_bound(p)).primes())
    return _pair_order((2, 1), m, pisano_period(m).period, sorted(primes))


def prime_power_search_lucas_period(p: int, e: int) -> int:
    """Reference h_L(p^e): the order of (2, 1) mod p^e divided down from
    h(p^e) by the primes of p's class bound and p itself (the search
    lucas_period ran before h_L(p^e) = h(p^e) replaced it)."""
    primes = (*factorize(period_bound(p)).primes(), p)
    return _pair_order((2, 1), p**e, prime_power_period(p, e).period, primes)


def _random_prime(rng: random.Random, bits: int, residues) -> int:
    while True:
        p = rng.randrange(2 ** (bits - 1), 2**bits) | 1
        if p % 5 in residues and is_prime(p):
            return p


def test_pair_order_divides_a_padded_multiple_down():
    # h(7) = 16; the multiple carries spare factors 3 and 5
    assert _pair_order((0, 1), 7, 16 * 3 * 5, (2, 3, 5)) == 16
    # h_L(55) = h(55) = 20, not h(55) / 5
    assert _pair_order((2, 1), 55, 20 * 3 * 7, (2, 3, 5, 7)) == 20


def test_pair_order_rejects_a_multiple_that_is_not_a_return_time():
    with pytest.raises(ClaimViolationError, match="divisibility theorem failed"):
        _pair_order((0, 1), 7, 15, (3, 5))
    with pytest.raises(ClaimViolationError, match="divisibility theorem failed"):
        _pair_order((2, 1), 55, 10, (2, 5))


def test_lift_escalations_count_factors_of_p_divided_out(wall_sun_sun_seven):
    # 7 stands in for a prime with h(p^2) = h(p), so the lift from 7 * 16
    # divides one 7 out
    res = prime_power_period(7, 2)
    assert (res.period, res.lift_escalations) == (16, 1)
    assert pisano_period(2 * 49).lift_escalations == 1


def test_prime_order_checks_a_split_result_by_fast_doubling():
    # 5 is no return time mod 11 (h(11) = 10); the ladder only divides
    # down, so the final fast doubling must catch the bad bound
    with pytest.raises(ClaimViolationError, match="does not return after 5 steps mod 11"):
        _prime_order(11, 5, (5,))
    assert _prime_order(11, 10, (2, 5)) == 10


def test_prime_order_checks_an_irreducible_result_by_fast_doubling():
    # h(7) = 16: 8 is no return time, and with no primes to divide out the
    # ladder never runs, so the final fast doubling must catch the bound
    with pytest.raises(ClaimViolationError, match="does not return after 8 steps mod 7"):
        _prime_order(7, 8, ())
    assert _prime_order(7, 16 * 3, (2, 3)) == 16


def test_prime_order_rejects_a_composite_irreducible_input():
    # 77 = 7 * 11 = 2 (mod 5); h(77) = 80 divides no divisor of 156
    with pytest.raises(ClaimViolationError, match="mod 77"):
        _prime_order(77, *_class_bound(77, lambda n: dict(factorize(n).factors)))


def test_lucas_period_of_a_prime_power_is_its_period_below_1e5():
    # (2, 1) and (1, 3) span (Z/p^e)^2 for p != 5, so the old search never
    # divides h(p^e) down
    for p in primes_up_to(10**5):
        if p == 5:
            continue
        pe, e = p, 1
        while pe <= 10**5:
            h = prime_power_period(p, e).period
            assert prime_power_search_lucas_period(p, e) == h == lucas_period(pe).period, pe
            pe, e = pe * p, e + 1


@pytest.mark.parametrize("residues", [(1, 4), (2, 3)], ids=["split", "irreducible"])
def test_lucas_period_of_a_prime_is_its_period_at_64_bits(residues):
    rng = random.Random(6365 + residues[0])
    for bits in (60, 61, 62, 63):
        for _ in range(2):
            p = _random_prime(rng, bits, residues)
            h = prime_period(p).period
            assert prime_power_search_lucas_period(p, 1) == h == lucas_period(p).period, p


def test_lucas_period_of_a_power_of_five():
    # h_L(5^e) = 4 * 5^(e-1): (2, 1) returns there and at no h_L / q
    for e in range(1, 28):
        h_lucas = 4 * 5**(e - 1)
        assert lucas_period(5**e).period == h_lucas, e
        assert lucas_pair(h_lucas, 5**e).as_tuple() == (2, 1), e
        for q in (2, 5):
            if h_lucas % q == 0:
                assert lucas_pair(h_lucas // q, 5**e).as_tuple() != (2, 1), (e, q)


def test_prime_period_matches_divisor_search_below_1e5():
    for p in primes_up_to(10**5):
        assert prime_period(p).period == divisor_search_period(p), p


# Split primes with 12 distinct primes in p - 1, and with 2^40 | p - 1, where
# the ladder divides out 2 up to 40 times before the even guard can stop it
SPLIT_EXTRAS = (2**61 - 1, *(k * 2**40 + 1 for k in (88, 2097228, 2097243, 4194360, 4194600)))


@pytest.mark.parametrize("residues", [(1, 4), (2, 3)], ids=["split", "irreducible"])
def test_prime_period_matches_divisor_search_at_64_bits(residues):
    rng = random.Random(20260 + residues[0])
    primes = [_random_prime(rng, bits, residues) for bits in (60, 61, 62, 63) for _ in range(2)]
    if residues == (1, 4):
        assert all(is_prime(p) and p % 5 in residues for p in SPLIT_EXTRAS)
        primes.extend(SPLIT_EXTRAS)
    for p in primes:
        assert prime_period(p).period == divisor_search_period(p), p


def test_lucas_period_matches_union_search_to_5000():
    for m in range(1, 5001):
        assert lucas_period(m).period == union_search_lucas_period(m), m


def test_lucas_period_matches_union_search_at_64_bits():
    rng = random.Random(6364)
    for bits in (60, 61, 62, 63):
        for _ in range(10):
            m = rng.randrange(2 ** (bits - 1), min(2**bits, MODULUS_MAX + 1))
            assert lucas_period(m).period == union_search_lucas_period(m), m
    # 5^a k with a >= 2, the one prime power whose Lucas period is not h(p^e)
    for bits in (60, 61, 62, 63):
        for _ in range(5):
            a = rng.randrange(2, 26)
            low, high = 2 ** (bits - 1), min(2**bits, MODULUS_MAX + 1)
            k = rng.randrange(-(-low // 5**a), high // 5**a)
            m = 5**a * k
            assert low <= m < high
            assert lucas_period(m).period == union_search_lucas_period(m), m
