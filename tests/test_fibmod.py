import random

import pytest

from pisano.errors import ClaimViolationError, DomainError, OracleCapError
from pisano.fibmod import (
    DEFAULT_ORACLE_CAP,
    Method,
    PeriodResult,
    ResiduePair,
    brute_period,
    fib_exact,
    fib_pair,
    lucas_brute_period,
    lucas_pair,
    oracle_cap,
)
from pisano.numth import _lucas_ladder


# oracles

def iter_fib(n, m):
    a, b = 0, 1 % m
    for _ in range(n):
        a, b = b, (a + b) % m
    return a, b


def iter_lucas(n, m):
    a, b = 2 % m, 1 % m
    for _ in range(n):
        a, b = b, (a + b) % m
    return a, b


def matrix_fib(n, m):
    # independent algorithm: 2x2 matrix power by squaring
    def mul(x, y):
        return (
            (x[0] * y[0] + x[1] * y[2]) % m,
            (x[0] * y[1] + x[1] * y[3]) % m,
            (x[2] * y[0] + x[3] * y[2]) % m,
            (x[2] * y[1] + x[3] * y[3]) % m,
        )

    result = (1 % m, 0, 0, 1 % m)
    base = (1 % m, 1 % m, 1 % m, 0)
    while n:
        if n & 1:
            result = mul(result, base)
        base = mul(base, base)
        n >>= 1
    # result = [[F_{n+1}, F_n], [F_n, F_{n-1}]]
    return result[1], result[0]


def iter_period(m):
    a, b = 0, 1 % m
    k = 0
    while True:
        a, b = b, (a + b) % m
        k += 1
        if (a, b) == (0, 1 % m):
            return k


def test_fib_pair_small_exhaustive():
    for m in (1, 2, 3, 7, 10, 97, 1000):
        for n in range(0, 250):
            pair = fib_pair(n, m)
            assert (pair.lo, pair.hi) == iter_fib(n, m), (n, m)
            assert pair.modulus == m


def test_fib_pair_matches_independent_matrix_power():
    rng = random.Random(777)
    for _ in range(200):
        n = rng.randrange(0, 2**62)
        m = rng.randrange(2, 2**40)
        assert fib_pair(n, m).as_tuple() == matrix_fib(n, m), (n, m)
    assert fib_pair(10**12, 9973).as_tuple() == matrix_fib(10**12, 9973)


def test_fib_pair_domain():
    with pytest.raises(DomainError):
        fib_pair(5, 0)
    with pytest.raises(DomainError):
        fib_pair(-1, 7)
    with pytest.raises(DomainError):
        fib_pair(5, 2**63)


def test_lucas_pair_small_exhaustive():
    for m in (1, 2, 3, 7, 10, 97):
        for n in range(0, 200):
            assert lucas_pair(n, m).as_tuple() == iter_lucas(n, m), (n, m)


def test_lucas_pair_large_random():
    rng = random.Random(778)
    for _ in range(100):
        n = rng.randrange(0, 10**15)
        m = rng.randrange(2, 10**9)
        lo, hi = lucas_pair(n, m).as_tuple()
        # L_n = 2 F_{n+1} - F_n
        fa, fb = matrix_fib(n, m)
        assert lo == (2 * fb - fa) % m


def test_lucas_ladder_small_exhaustive():
    # (L_2j, L_2j+2) mod m, against the fast-doubling Lucas pair
    for m in range(1, 41):
        for j in range(0, 130):
            want = (lucas_pair(2 * j, m).lo, lucas_pair(2 * j + 2, m).lo)
            assert _lucas_ladder(j, m) == want, (j, m)


def test_lucas_ladder_at_62_and_63_bits():
    rng = random.Random(2962)
    for bits in (62, 63):
        for _ in range(100):
            m = rng.randrange(2 ** (bits - 1), 2**bits)
            j = rng.randrange(0, 2**bits)
            want = (lucas_pair(2 * j, m).lo, lucas_pair(2 * j + 2, m).lo)
            assert _lucas_ladder(j, m) == want, (j, m)


def test_fib_exact_values():
    a, b = 0, 1
    for n in range(1001):
        assert fib_exact(n) == a, n
        a, b = b, a + b
    assert fib_exact(92) == 7540113804746346429


def test_fib_exact_cassini_identity_at_1e5():
    n = 10**5
    assert fib_exact(n + 1) * fib_exact(n - 1) - fib_exact(n) ** 2 == (-1) ** n


def test_fib_exact_domain():
    with pytest.raises(DomainError):
        fib_exact(-1)


def test_residue_pair_validates():
    with pytest.raises(DomainError):
        ResiduePair(0, 1, 0)
    with pytest.raises(DomainError):
        ResiduePair(5, 1, 3)
    p = ResiduePair(1, 2, 10)
    assert p.step().as_tuple() == (2, 3)


def test_brute_period_small_table():
    # first ten periods, checked against the iterative oracle as well
    expected = [1, 3, 8, 6, 20, 24, 16, 12, 24, 60]
    for m, want in enumerate(expected, start=1):
        res = brute_period(m)
        assert res.period == want == iter_period(m)
        assert res.modulus == m
        assert res.method is Method.BRUTE_FORCE


def test_brute_period_random_matches_oracle():
    rng = random.Random(99)
    for _ in range(60):
        m = rng.randrange(2, 3000)
        assert brute_period(m).period == iter_period(m), m


def test_brute_period_start_pair_recurs():
    for m in range(1, 300):
        h = brute_period(m).period
        assert fib_pair(h, m).as_tuple() == (0, 1 % m)
        # no earlier recurrence at proper divisors
        for d in range(1, h):
            if h % d == 0 and fib_pair(d, m).as_tuple() == (0, 1 % m):
                raise AssertionError((m, d, h))


def proper_divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d and n // d != n:
                out.append(n // d)
        d += 1
    return [v for v in out if v != n]


def test_brute_period_minimality_to_ten_thousand():
    # returns to (0, 1) happen only at multiples of the period, so checking
    # proper divisors settles minimality
    for m in range(2, 10**4 + 1):
        h = brute_period(m).period
        assert fib_pair(h, m).as_tuple() == (0, 1), m
        for d in proper_divisors(h):
            assert fib_pair(d, m).as_tuple() != (0, 1), (m, d)


def test_fib_pair_step_determinism():
    rng = random.Random(1618)
    for _ in range(1000):
        n = rng.randrange(0, 2**50)
        m = rng.randrange(1, 10**9)
        assert fib_pair(n, m).step() == fib_pair(n + 1, m)


def test_fib_pair_end_of_cycle_parity():
    # F_{h-1} squares to 1 mod m: the term before the restart is +-1-like
    for m in range(3, 500):
        h = brute_period(m).period
        f = fib_pair(h - 1, m).lo
        assert f * f % m == 1, (m, h, f)


def test_lucas_is_fib_neighbor_sum():
    rng = random.Random(2925)
    for _ in range(1000):
        n = rng.randrange(1, 2**48)
        m = rng.randrange(1, 10**9)
        ln = lucas_pair(n, m).lo
        assert ln == (fib_pair(n - 1, m).lo + fib_pair(n + 1, m).lo) % m


def test_brute_period_cap():
    assert oracle_cap() == DEFAULT_ORACLE_CAP
    with pytest.raises(OracleCapError):
        brute_period(DEFAULT_ORACLE_CAP + 1)
    # the cap itself is allowed: h(10^7) = lcm(3 * 2^6, 4 * 5^7)
    assert brute_period(10**7).period == 15000000


def test_oracle_cap_env_override(monkeypatch):
    monkeypatch.setenv("PISANO_ORACLE_CAP", "50")
    assert oracle_cap() == 50
    with pytest.raises(OracleCapError):
        brute_period(51)
    assert brute_period(50).period == 300
    monkeypatch.setenv("PISANO_ORACLE_CAP", "not a number")
    with pytest.raises(DomainError):
        oracle_cap()


def test_lucas_brute_period_small_table():
    expected = [1, 3, 8, 6, 4, 24]
    for m, want in enumerate(expected, start=1):
        res = lucas_brute_period(m)
        assert res.period == want
        assert res.method is Method.BRUTE_FORCE
        lo, hi = lucas_pair(res.period, m).as_tuple()
        assert (lo, hi) == (2 % m, 1 % m)


def test_lucas_period_divides_fib_period():
    for m in range(1, 400):
        assert brute_period(m).period % lucas_brute_period(m).period == 0, m


def test_period_result_fields():
    res = PeriodResult(10, 60, Method.LCM_COMPOSITION)
    assert res.lift_escalations == 0
    assert res == PeriodResult(10, 60, Method.LCM_COMPOSITION, 5)  # not part of identity
