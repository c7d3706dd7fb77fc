import math
import random

import pytest

from pisano.errors import DomainError, PeriodOverflowError
from pisano.numth import (
    MODULUS_MAX,
    U64_MAX,
    DivisorSet,
    Factorization,
    divisors,
    factorize,
    gcd,
    is_prime,
    lcm,
    mod_sqrt,
    mulmod,
    multiplicative_order,
    powmod,
    primes_up_to,
    smallest_prime_factors,
)


# oracles: straight trial division, nothing shared with the module under test

def trial_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def trial_factor(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def naive_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_primes_up_to_matches_trial_division():
    for n in (0, 1, 2, 3, 10, 97, 100, 541):
        assert primes_up_to(n) == [k for k in range(2, n + 1) if trial_is_prime(k)]


def test_smallest_prime_factors_match_trial_division():
    for n in (0, 1, 2, 3, 4, 48, 49, 50):
        assert len(smallest_prime_factors(n)) == n + 1
    spf = smallest_prime_factors(10**4)
    assert spf[0] == spf[1] == 0
    for m in range(2, 10**4 + 1):
        least = next(d for d in range(2, m + 1) if m % d == 0)
        assert spf[m] == (0 if least == m else least), m


def test_is_prime_small_exhaustive():
    for n in range(-5, 3000):
        assert is_prime(n) == trial_is_prime(n), n


def test_is_prime_carmichael_and_strong_pseudoprimes():
    # composites that fool weaker tests
    for n in (561, 1105, 1729, 41041, 512461, 3215031751, 3825123056546413051):
        assert not is_prime(n), n


def test_is_prime_large_knowns():
    assert is_prime(2**61 - 1)
    assert is_prime(1000000007)
    assert is_prime(1000000009)
    assert is_prime(999999999999999989)
    assert is_prime(2**64 - 59)
    assert not is_prime(2**64 - 1)
    assert not is_prime(1000000007 * 1000000009)


def test_is_prime_random_cross_check():
    rng = random.Random(20240815)
    for _ in range(300):
        n = rng.randrange(2, 10**6)
        assert is_prime(n) == trial_is_prime(n), n


def test_factorize_small_exhaustive():
    for n in range(2, 2000):
        assert factorize(n).factors == trial_factor(n), n


def test_factorize_known_composite():
    assert factorize(60).factors == ((2, 2), (3, 1), (5, 1))
    assert factorize(2**6).factors == ((2, 6),)
    assert factorize(832040).factors == (
        (2, 3), (5, 1), (11, 1), (31, 1), (61, 1))


def test_factorize_random_products_reconstruct():
    rng = random.Random(987)
    for _ in range(120):
        n = rng.randrange(2, 10**12)
        f = factorize(n)
        assert f.value() == n
        for p, e in f:
            assert e >= 1 and is_prime(p)
        assert list(f.primes()) == sorted(f.primes())


def test_factorize_semiprime_with_large_factors():
    n = 1000000007 * 1000000009
    assert factorize(n).factors == ((1000000007, 1), (1000000009, 1))
    m = (2**31 - 1) * (2**61 - 1)
    assert factorize(m).factors == ((2**31 - 1, 1), (2**61 - 1, 1))


def test_factorize_is_seed_independent():
    n = 600851475143 * 3
    base = factorize(n)
    for seed in (0, 1, 7, 123456):
        assert factorize(n, seed=seed) == base


def test_factorize_domain():
    # 1 is deliberately out of domain; callers special-case it
    for bad in (1, 0, -1, -100):
        with pytest.raises(DomainError):
            factorize(bad)


def test_factorization_str():
    assert str(Factorization.from_pairs(())) == "1"
    assert str(factorize(10)) == "2 * 5"
    assert str(factorize(40)) == "2^3 * 5"
    assert str(factorize(97)) == "97"


def test_factorization_from_pairs_validates():
    Factorization.from_pairs([(2, 3), (5, 1)])
    with pytest.raises(DomainError):
        Factorization.from_pairs([(5, 1), (2, 1)])  # out of order
    with pytest.raises(DomainError):
        Factorization.from_pairs([(4, 1)])  # not prime
    with pytest.raises(DomainError):
        Factorization.from_pairs([(2, 0)])  # exponent


def test_divisors_matches_naive():
    for n in range(2, 500):
        ds = divisors(factorize(n))
        assert list(ds) == naive_divisors(n), n
        assert len(ds) == len(naive_divisors(n))
    assert list(divisors(Factorization.from_pairs(()))) == [1]


def test_divisor_set_contains():
    ds = divisors(factorize(60))
    assert 12 in ds and 60 in ds and 7 not in ds
    assert isinstance(ds, DivisorSet)
    assert ds.source == 60


def test_gcd_lcm_basics():
    rng = random.Random(5150)
    for _ in range(500):
        a, b = rng.randrange(0, 10**9), rng.randrange(0, 10**9)
        assert gcd(a, b) == math.gcd(a, b)
        if a and b:
            assert lcm(a, b) == a * b // math.gcd(a, b)
    assert lcm(0, 5) == 0 and lcm(5, 0) == 0
    assert lcm(12, 18) == 36


def test_lcm_overflow_is_an_error():
    assert lcm(2**63, 2) == 2**63  # still inside u64
    with pytest.raises(PeriodOverflowError):
        lcm(2**40, 3**30)
    with pytest.raises(PeriodOverflowError):
        lcm(U64_MAX, 2)


def test_mulmod_powmod_match_builtins():
    rng = random.Random(31337)
    for i in range(10**4):
        if i % 4:
            m = rng.randrange(1, MODULUS_MAX)
        else:
            m = MODULUS_MAX - rng.randrange(0, 1000)  # stress the top of the domain
        a, b = rng.randrange(0, 2**64), rng.randrange(0, 2**64)
        assert mulmod(a, b, m) == a * b % m
        e = rng.randrange(0, 2**40)
        assert powmod(a, e, m) == pow(a, e, m)
    assert mulmod(2**62, 2, 2**63 - 1) == 2**63 % (2**63 - 1)
    assert powmod(8, 5, 11) == 10
    assert powmod(7, 0, 11) == 1


def test_mulmod_powmod_domain():
    with pytest.raises(DomainError):
        mulmod(1, 1, 0)
    with pytest.raises(DomainError):
        powmod(2, 3, -1)
    with pytest.raises(DomainError):
        powmod(2, -1, 7)


def brute_sqrts(a, p):
    roots = sorted(r for r in range(p) if r * r % p == a)
    return tuple(roots) if roots else None


def test_mod_sqrt_exhaustive_small_primes():
    for p in primes_up_to(200):
        if p == 2:
            continue
        for a in range(p):
            got = mod_sqrt(a, p)
            want = brute_sqrts(a, p)
            if want is None:
                assert got is None, (a, p)
            elif a == 0:
                assert got == (0, 0)
            else:
                assert got == (want[0], want[-1]), (a, p)
                r, s = got
                assert r * r % p == a and s * s % p == a
                assert r <= s and (r + s) % p == 0


def test_mod_sqrt_large_prime():
    # 5 is a residue mod p iff p = +-1 (mod 5)
    assert mod_sqrt(5, 1000000007) is None
    p = 1000000009
    got = mod_sqrt(5, p)
    assert got is not None
    r, s = got
    assert r * r % p == 5 and s == p - r


def test_mod_sqrt_domain():
    with pytest.raises(DomainError):
        mod_sqrt(1, 15)  # composite
    with pytest.raises(DomainError):
        mod_sqrt(1, 2)  # even prime unsupported
    with pytest.raises(DomainError):
        mod_sqrt(-1, 7)
    with pytest.raises(DomainError):
        mod_sqrt(7, 7)


def naive_order(g, p):
    x, k = g % p, 1
    while x != 1:
        x = x * g % p
        k += 1
    return k


def test_multiplicative_order_exhaustive_small():
    for p in primes_up_to(120):
        if p == 2:
            continue
        f = factorize(p - 1)
        for g in range(1, p):
            assert multiplicative_order(g, p, f) == naive_order(g, p), (g, p)


def test_multiplicative_order_divides_group_order():
    rng = random.Random(404)
    p = 999999999999999989
    f = factorize(p - 1)
    for _ in range(12):
        g = rng.randrange(2, p - 1)
        k = multiplicative_order(g, p, f)
        assert (p - 1) % k == 0
        assert pow(g, k, p) == 1


def test_multiplicative_order_domain():
    with pytest.raises(DomainError):
        multiplicative_order(0, 7, factorize(6))
    with pytest.raises(DomainError):
        multiplicative_order(3, 7, factorize(8))  # wrong group order
