"""The pair-order primitive behind h(p), the prime-power lift and h_L(m),
checked directly and against the increasing-divisor search it replaced."""

import random

import pytest

from pisano import periods
from pisano.errors import ClaimViolationError
from pisano.fibmod import fib_pair
from pisano.numth import divisors, factorize, is_prime, primes_up_to
from pisano.periods import _pair_order, clear_caches, prime_period, prime_power_period


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


def test_lift_escalations_count_factors_of_p_divided_out(monkeypatch):
    # A cache entry of p * h(p) stands in for a prime with h(p^2) = h(p):
    # the lift starts at 7 * 112 mod 49 and must divide one 7 out.
    clear_caches()
    try:
        monkeypatch.setitem(periods._PRIME_PERIOD_CACHE, 7, (7 * 16, (2,)))
        res = prime_power_period(7, 2)
        assert (res.period, res.lift_escalations) == (112, 1)
    finally:
        clear_caches()
    res = prime_power_period(7, 2)
    assert (res.period, res.lift_escalations) == (112, 0)


def test_prime_period_matches_divisor_search_below_1e5():
    clear_caches()
    for p in primes_up_to(10**5):
        assert prime_period(p).period == divisor_search_period(p), p


@pytest.mark.parametrize("residues", [(1, 4), (2, 3)], ids=["split", "irreducible"])
def test_prime_period_matches_divisor_search_at_64_bits(residues):
    rng = random.Random(20260 + residues[0])
    for bits in (60, 61, 62, 63):
        for _ in range(2):
            p = _random_prime(rng, bits, residues)
            assert prime_period(p).period == divisor_search_period(p), p
