import math
import random

import pytest

from pisano import periods
from pisano.errors import DomainError, PeriodOverflowError
from pisano.fibmod import Method, brute_period, fib_pair, lucas_brute_period, lucas_pair
from pisano.numth import MODULUS_MAX, U64_MAX, factorize, primes_up_to
from pisano.periods import (
    PrimeClass,
    classify_prime,
    clear_caches,
    lucas_period,
    period_bound,
    pisano_period,
    prime_period,
    prime_power_period,
)


def test_classify_prime_knowns():
    assert classify_prime(2) is PrimeClass.SPECIAL_TWO
    assert classify_prime(5) is PrimeClass.SPECIAL_FIVE
    for p in (11, 19, 29, 31, 41, 59, 61, 71, 79, 89, 101):
        assert classify_prime(p) is PrimeClass.SPLIT, p
    for p in (3, 7, 13, 17, 23, 37, 43, 47, 53, 67, 73, 83, 97):
        assert classify_prime(p) is PrimeClass.IRREDUCIBLE, p


def test_classify_prime_rejects_composites():
    for n in (0, 1, 4, 6, 15, 561):
        with pytest.raises(DomainError):
            classify_prime(n)


def test_classify_matches_root_existence():
    # split primes are exactly those where x^2 - x - 1 has a root
    for p in primes_up_to(300):
        has_root = any((g * g - g - 1) % p == 0 for g in range(p))
        cls = classify_prime(p)
        if cls is PrimeClass.SPLIT or cls is PrimeClass.SPECIAL_FIVE:
            assert has_root, p
        elif cls is PrimeClass.IRREDUCIBLE:
            assert not has_root, p


def test_period_bound_values():
    assert period_bound(2) == 3
    assert period_bound(5) == 20
    assert period_bound(11) == 10
    assert period_bound(7) == 16
    assert period_bound(101) == 100
    assert period_bound(103) == 208


def test_prime_period_matches_oracle():
    for p in primes_up_to(2000):
        res = prime_period(p)
        assert res.period == brute_period(p).period, p
        assert res.method is Method.PRIME_DIVISOR_SEARCH
        assert period_bound(p) % res.period == 0, p


def test_prime_period_knowns():
    assert prime_period(2).period == 3
    assert prime_period(5).period == 20
    assert prime_period(11).period == 10
    assert prime_period(29).period == 14  # proper divisor of p - 1 = 28
    assert prime_period(47).period == 32  # proper divisor of 2p + 2 = 96
    assert prime_period(101).period == 50


def test_prime_period_rejects_composites():
    with pytest.raises(DomainError):
        prime_period(10)


def test_prime_power_known_families():
    for n in range(1, 11):
        assert prime_power_period(2, n).period == 3 * 2 ** (n - 1), n
        assert prime_power_period(3, n).period == 8 * 3 ** (n - 1), n
    for n in range(1, 9):
        assert prime_power_period(5, n).period == 4 * 5**n, n


def test_prime_power_matches_oracle():
    for p in primes_up_to(100):
        e = 1
        while p**e <= 20000:
            res = prime_power_period(p, e)
            assert res.period == brute_period(p**e).period, (p, e)
            assert res.lift_escalations == 0
            e += 1


def test_prime_power_lift_guard_verifies():
    # the guard resolves the lift by recurrence check, never by trust
    for p, e in ((2, 10), (3, 7), (7, 5), (13, 4)):
        res = prime_power_period(p, e)
        m = p**e
        assert fib_pair(res.period, m).as_tuple() == (0, 1)


def test_prime_power_domain():
    with pytest.raises(DomainError):
        prime_power_period(6, 2)
    with pytest.raises(DomainError):
        prime_power_period(3, 0)
    with pytest.raises(PeriodOverflowError):
        prime_power_period(2, 64)


def test_pisano_period_oracle_small_exhaustive():
    for m in range(1, 2000):
        assert pisano_period(m).period == brute_period(m).period, m


def test_pisano_period_oracle_random():
    rng = random.Random(1234)
    for _ in range(500):
        m = rng.randrange(2, 10**6)
        assert pisano_period(m).period == brute_period(m).period, m


def test_pisano_period_known_composites():
    assert pisano_period(10).period == 60
    assert pisano_period(250).period == 1500  # 2 * 5^3, ratio 6
    assert pisano_period(832040).period == 60  # F_30, index law value 2 * 30


def test_pisano_period_methods():
    assert pisano_period(1).method is Method.LCM_COMPOSITION
    assert pisano_period(7).method is Method.PRIME_DIVISOR_SEARCH
    assert pisano_period(8).method is Method.PRIME_POWER_LIFT
    assert pisano_period(10).method is Method.LCM_COMPOSITION
    assert pisano_period(1).period == 1


def test_pisano_period_is_lcm_of_prime_power_parts():
    rng = random.Random(4321)
    for _ in range(60):
        m = rng.randrange(2, 10**6)
        res = pisano_period(m)
        parts = []
        mm = m
        d = 2
        while d * d <= mm:
            if mm % d == 0:
                e = 0
                while mm % d == 0:
                    mm //= d
                    e += 1
                parts.append(prime_power_period(d, e).period)
            d += 1
        if mm > 1:
            parts.append(prime_power_period(mm, 1).period)
        assert res.period == math.lcm(*parts), m


def test_pisano_period_start_pair_recurs_at_period_only():
    rng = random.Random(86420)
    moduli = [rng.randrange(2, 10**7) for _ in range(50)]
    moduli += [rng.randrange(2**40, 2**61) for _ in range(10)]
    for m in moduli:
        for period, pair, start in ((pisano_period, fib_pair, (0, 1)),
                                    (lucas_period, lucas_pair, (2 % m, 1 % m))):
            h = period(m).period
            assert pair(h, m).as_tuple() == start, m
            # h is minimal: no maximal proper divisor h / q returns
            for q in factorize(h).primes() if h > 1 else ():
                assert pair(h // q, m).as_tuple() != start, (m, q)


def test_pisano_period_domain():
    with pytest.raises(DomainError):
        pisano_period(0)
    with pytest.raises(DomainError):
        pisano_period(2**63)


def test_periods_at_the_domain_boundaries():
    # 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657
    h = pisano_period(MODULUS_MAX).period
    assert fib_pair(h, MODULUS_MAX).as_tuple() == (0, 1)
    assert h == math.lcm(*(prime_power_period(p, e).period
                           for p, e in factorize(MODULUS_MAX)))
    assert lucas_period(MODULUS_MAX).period == h  # 5 does not divide 2^63 - 1
    # 2 * 5^26 is the largest in-domain modulus with h(m) = 6m
    m = 2 * 5**26
    assert pisano_period(m).period == 12 * 5**26 == 6 * m
    assert 6 * m < U64_MAX
    # 10 p is in the domain, but lcm(60, 2p + 2) > 2^64 - 1
    p = 922337203685477263
    assert p % 5 == 3 and 10 * p <= MODULUS_MAX
    for period in (pisano_period, lucas_period):
        with pytest.raises(PeriodOverflowError):
            period(10 * p)


@pytest.mark.parametrize("m, h, h_lucas, method", [
    (1, 1, 1, Method.LCM_COMPOSITION),   # no prime powers: the empty lcm
    (2, 3, 3, Method.PRIME_DIVISOR_SEARCH),
    (4, 6, 6, Method.PRIME_POWER_LIFT),
    (5, 20, 4, Method.PRIME_DIVISOR_SEARCH),
    (25, 100, 20, Method.PRIME_POWER_LIFT),
])
def test_periods_at_m_one_two_and_the_special_primes(m, h, h_lucas, method):
    res = pisano_period(m)
    assert res.period == brute_period(m).period == h
    assert res.method is method
    assert lucas_period(m).period == lucas_brute_period(m).period == h_lucas
    if m in (2, 5):
        # a special prime's class bound is its period, not a multiple of it
        assert period_bound(m) == h


def test_lucas_period_matches_oracle():
    for m in range(1, 2001):
        assert lucas_period(m).period == lucas_brute_period(m).period, m


def test_lucas_period_known_family():
    # Lucas period of 5^n is 4 * 5^(n-1), one fifth of the Fibonacci one
    for n in range(1, 9):
        assert lucas_period(5**n).period == 4 * 5 ** (n - 1), n
    assert lucas_period(6).period == 24
    assert lucas_period(1).period == 1


def test_lucas_period_cross_check_with_fibonacci_period():
    # h_L(m) = h(m) when 5 does not divide m, and
    # h_L(5^a k) = lcm(4 * 5^(a-1), h(k)) with 5 not dividing k; that is
    # h(m) / 5 only when 5^a does not divide h(k): h_L(55) = h(55) = 20.
    rng = random.Random(5555)
    moduli = list(range(1, 5001)) + [rng.randrange(2, 2**61) for _ in range(20)]
    moduli += [5**a * k for a in (1, 2, 26) for k in (1, 2, 11, 3**20, 2**59 - 1)
               if 5**a * k <= MODULUS_MAX]
    for m in moduli:
        a, k = 0, m
        while k % 5 == 0:
            a, k = a + 1, k // 5
        expected = pisano_period(m).period if a == 0 else math.lcm(
            4 * 5 ** (a - 1), pisano_period(k).period)
        assert lucas_period(m).period == expected, m
    assert lucas_period(55).period == pisano_period(55).period == 20


def test_lucas_period_divides_pisano_period():
    for m in range(1, 10**4 + 1):
        assert pisano_period(m).period % lucas_period(m).period == 0, m


def test_prime_power_at_first_power_is_prime_period():
    for p in primes_up_to(10**4):
        assert prime_power_period(p, 1).period == prime_period(p).period, p


def test_results_are_deterministic_across_calls():
    clear_caches()
    first = [(pisano_period(m), lucas_period(m)) for m in range(1, 300)]
    clear_caches()
    # cold again: only the fixed entries for 2 and 5 survive
    assert set(periods._PRIME_PERIOD_CACHE) == {2, 5}
    assert periods._PRIME_POWER_CACHE == {}
    second = [(pisano_period(m), lucas_period(m)) for m in range(1, 300)]
    assert first == second
