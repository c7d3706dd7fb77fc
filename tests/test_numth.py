import math
import random

import pytest

from pisano import numth
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
    # composites that fool weaker tests, with the least strong pseudoprime to
    # the bases up to 7, 13, 17 and 31
    for n in (561, 1105, 1729, 41041, 512461, 3215031751, 3474749660383,
              341550071728321, 3825123056546413051):
        assert not is_prime(n), n


def test_is_prime_large_knowns():
    assert is_prime(2**61 - 1)
    assert is_prime(1000000007)
    assert is_prime(1000000009)
    assert is_prime(999999999999999989)
    assert is_prime(2**64 - 59)
    assert not is_prime(2**64 - 1)
    assert not is_prime(1000000007 * 1000000009)


# psi_12 and psi_13, strong pseudoprimes to every prime base up to 37 and 41,
# fail the Lucas half of BPSW and are proved composite
_BEYOND_64_BIT_PSEUDOPRIMES = (318665857834031151167461, 3317044064679887385961981)


# Mersenne primes pass both halves of BPSW, but beyond 2^64 - 1 none is
# certified: is_prime answers False or raises, never True
@pytest.mark.parametrize("n", [*_BEYOND_64_BIT_PSEUDOPRIMES, 2**89 - 1, 2**127 - 1])
def test_is_prime_certifies_no_prime_beyond_64_bits(n):
    if n in _BEYOND_64_BIT_PSEUDOPRIMES:
        assert is_prime(n) is False
        return
    with pytest.raises(DomainError, match="passes every witness base"):
        is_prime(n)


def test_is_prime_beyond_64_bits_still_proves_composites():
    # psi_12, the least strong pseudoprime to all twelve primes up to 37, and
    # a larger one pass the base-2 half and fail the Lucas half
    for n in (2**89 + 1, 318665857834031151167461, 3317044064679887385961981):
        assert is_prime(n) is False, n
    with pytest.raises(DomainError, match="passes every witness base"):
        factorize(2**127 - 1)
    with pytest.raises(DomainError, match="passes every witness base"):
        mod_sqrt(4, 2**127 - 1)


def test_is_prime_random_cross_check():
    rng = random.Random(20240815)
    for _ in range(300):
        n = rng.randrange(2, 10**6)
        assert is_prime(n) == trial_is_prime(n), n


@pytest.mark.parametrize("lo, hi", [
    (2**20, 3215031751),
    (3215031751, 3474749660383),
    (3474749660383, 341550071728321),
    (341550071728321, 2**64),
])
def test_is_prime_matches_sympy_up_to_64_bits(lo, hi):
    # 200 odd n in each range: below its upper end the bases up to 7, 13 and
    # 17 alone are exact, and the last needs all twelve
    sympy = pytest.importorskip("sympy")
    rng = random.Random(lo)
    for _ in range(200):
        n = rng.randrange(lo, hi) | 1
        assert is_prime(n) == sympy.isprime(n), n


def eratosthenes(n):
    """flags[k] = 1 for the primes k < n, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * n
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, n, p)))
    return flags


def strong_base_2(n):
    """The strong probable-prime test to base 2 of an odd n > 2."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(2, d, n)
    return x == 1 or any(pow(x, 2**r, n) == n - 1 for r in range(s))


# Below 200,000, among the n with no prime factor up to 37, the composites
# that pass the base-2 strong test, which only the Lucas half rejects, and
# those that pass the strong Lucas test with Selfridge's parameters, which
# only the base-2 half rejects
BASE_2_PSEUDOPRIMES = (8321, 42799, 49141, 65281, 80581, 85489, 88357, 90751, 104653,
                       130561, 196093)
LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
                      75077, 97439, 100127, 113573, 115639, 130139, 158399, 161027, 162133,
                      176399, 176471, 189419, 192509, 197801)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def test_is_prime_matches_a_sieve_below_200000():
    flags = eratosthenes(200000)
    for n in range(200000):
        assert is_prime(n) == flags[n], n
    rough = [n for n in range(41, 200000, 2)
             if not flags[n] and all(n % p for p in SMALL_PRIMES)]
    assert tuple(n for n in rough if strong_base_2(n)) == BASE_2_PSEUDOPRIMES


@pytest.mark.parametrize("n", BASE_2_PSEUDOPRIMES + LUCAS_PSEUDOPRIMES)
def test_each_half_of_bpsw_rejects_the_other_halfs_pseudoprimes(n):
    factors = trial_factor(n)
    assert sum(e for _, e in factors) > 1 and factors[0][0] > 37
    assert strong_base_2(n) == (n in BASE_2_PSEUDOPRIMES)
    assert numth._strong_lucas(n) == (n in LUCAS_PSEUDOPRIMES)
    assert is_prime(n) is False


def test_squares_of_the_wieferich_primes_stop_at_the_square_check(monkeypatch):
    # base-2 strong pseudoprimes, so they pass the base-2 half.  No D has
    # (D | n) = -1 for a square n, so the Lucas half's search for one would
    # end only at a D that shares a prime with n
    calls = []
    monkeypatch.setattr(numth, "_strong_lucas", calls.append)
    for p in (1093, 3511):
        assert strong_base_2(p * p)
        assert is_prime(p * p) is False
    assert calls == []


def test_strong_lucas_half_matches_sympy():
    # the 11,724 odd composites below 200,000 with no prime factor up to 37
    # that are not squares, then 3,000 seeded odd n of 62 to 64 bits
    primetest = pytest.importorskip("sympy.ntheory.primetest")
    flags = eratosthenes(200000)
    rng = random.Random(2021)
    ns = [n for n in range(41, 200000, 2) if not flags[n]]
    ns += [rng.randrange(2**62, 2**64) | 1 for _ in range(3000)]
    ns = [n for n in ns if all(n % p for p in SMALL_PRIMES) and math.isqrt(n) ** 2 != n]
    lucas = [n for n in ns if numth._strong_lucas(n)]
    assert lucas == [n for n in ns if primetest.is_strong_lucas_prp(n)]
    assert [n for n in lucas if n < 200000] == list(LUCAS_PSEUDOPRIMES)


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
    rng = random.Random(4242)
    # BARE_1^2 and SAFE_1 * SAFE_2 * BARE_1 reach ECM: p - 1 misses them
    ns = [600851475143 * 3, (2**31 - 1) ** 2, 1000000007**2 * 1000000009,
          BARE_1**2, SAFE_1 * SAFE_2 * BARE_1]
    ns += [seeded_prime(rng, 2**30, 2**31) * seeded_prime(rng, 2**30, 2**31) for _ in range(4)]
    for n in ns:
        base = factorize(n)
        assert base.value() == n and all(is_prime(p) for p in base.primes()), n
        for seed in (0, 1, -1, 7, 123456, 2**64 + 7):
            assert factorize(n, seed=seed) == base, (n, seed)


def brent_meets(n, c):
    """The first gcd(x - y, n) > 1 of Brent's cycle search on y -> y^2 + c
    from y = c, one comparison at a time, as rho's backtracking finds it."""
    y, r = c, 1
    while True:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        for _ in range(r):
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
            if g > 1:
                return g
        r *= 2


def test_rho_moves_to_the_next_constant_when_its_cycle_degenerates():
    # 1031 * 1049: from c = 1 % (n - 1) + 1 = 2 both primes meet at the same
    # step, so g = n; the next constant, 3, splits off 1031
    n = 1031 * 1049
    assert brent_meets(n, 2) == n
    assert brent_meets(n, 3) == 1031
    assert numth._brent_rho(n, 1) == 1031


def test_factorize_domain():
    # 1 is deliberately out of domain; callers special-case it
    for bad in (1, 0, -1, -100):
        with pytest.raises(DomainError):
            factorize(bad)


# Primes near 2^31 for the p - 1 splits, with p - 1 factored.  Stage 1
# raises to E = lcm(1, ..., 2048); stage 2 allows one more prime up to
# 25,303: 210 k +- j reaches every prime from 2,207 = 210 * 11 - 103, and a
# smaller one through a multiple prime to 210.
SAFE_1 = 2147483783  # 2 * 1073741891, a safe prime
SAFE_2 = 2149486187  # 2 * 1074743093, a safe prime
SMOOTH_1 = 2147483647  # 2 * 3^2 * 7 * 11 * 31 * 151 * 331
SMOOTH_2 = 2147483137  # 2^9 * 3 * 23 * 89 * 683
STAGE2_1 = 2147483713  # 2^6 * 3 * 11 * 251 * 4051
STAGE2_2 = 2147483867  # 2 * 11 * 67 * 113 * 12893
EDGE_631 = 2152458367  # 2 * 3 * 17 * 53 * 631^2
EDGE_2309 = 2147485451  # 2 * 5^2 * 11 * 19 * 89 * 2309
EDGE_25303 = 2148528337  # 2^4 * 3 * 29 * 61 * 25303
BARE_1 = 2147486399  # 2 * 1073743199
BARE_2 = 2147487779  # 2 * 1073743889

E = math.lcm(*range(1, 2049))


def p_minus_1_stage1(n):
    return math.gcd(pow(2, E, n) - 1, n)


def test_stage_1_exponent_is_the_lcm_up_to_2048():
    assert numth._P1_EXPONENT == E


def stage2_calls(monkeypatch):
    calls, real = [], numth._stage2

    def stage2(babies, giants, n):
        calls.append(n)
        return real(babies, giants, n)

    monkeypatch.setattr(numth, "_stage2", stage2)
    return calls


@pytest.mark.parametrize("p, q, expected", [
    (SAFE_1, SAFE_2, 0),  # neither p - 1 is smooth
    (SMOOTH_1, SMOOTH_2, 0),  # stage 1 catches both: g = n
    (SMOOTH_1, SAFE_1, SMOOTH_1),  # stage 1 hit
    (STAGE2_1, SAFE_1, STAGE2_1),  # stage 2 hit, after stage 1 gave 1
    (STAGE2_1, STAGE2_2, 0),  # stage 2 catches both: g = n
    # stage 2 through 11 * 631 = 6,941, 631 left over from 631^2 > 2048
    (EDGE_631, SAFE_1, EDGE_631),
    (EDGE_2309, SAFE_1, EDGE_2309),  # stage 2 at its first band, 210 * 11 - 1
    (EDGE_25303, SAFE_1, EDGE_25303),  # stage 2 at its last prime, 210 * 120 + 103
])
def test_p_minus_1_returns_a_proper_divisor_or_0(monkeypatch, p, q, expected):
    for r in (p, q):
        assert trial_is_prime(r)
    n = p * q
    stage2 = stage2_calls(monkeypatch)
    assert numth._p_minus_1(n) == expected
    stage1 = p_minus_1_stage1(n)
    if p in (STAGE2_1, EDGE_631, EDGE_2309, EDGE_25303):
        assert stage1 == 1
    # stage 2 would catch a stage-1 prime too; it runs only when stage 1 gave 1
    assert stage2 == ([n] if stage1 == 1 else [])


def seeded_prime(rng, lo, hi):
    while True:
        p = rng.randrange(lo, hi) | 1
        if is_prime(p):
            return p


def test_p_minus_1_never_returns_1_or_n():
    # a split of 1 or n would push the same part back onto the stack forever;
    # ECM never gives up, so it never returns 0 either
    rng = random.Random(1501)
    for _ in range(60):
        n = math.prod(seeded_prime(rng, 1025, 2**20) for _ in range(rng.randrange(2, 4)))
        d = numth._p_minus_1(n)
        assert d == 0 or (1 < d < n and n % d == 0), (n, d)
        d = numth._ecm(n)
        assert 1 < d < n and n % d == 0, (n, d)


def test_p_minus_1_runs_once_and_only_after_the_short_rho_rounds(monkeypatch):
    calls = []
    for name in ("_p_minus_1", "_ecm"):
        def split(n, real=getattr(numth, name), name=name):
            calls.append((name, n))
            return real(n)

        monkeypatch.setattr(numth, name, split)
    # rho splits factors near 2^12 in far fewer than 256 steps
    assert factorize(4093 * 4099 * 4111).factors == ((4093, 1), (4099, 1), (4111, 1))
    assert calls == []
    n = SMOOTH_1 * SAFE_1  # p - 1 splits it, so ECM never runs
    assert factorize(n).factors == ((SMOOTH_1, 1), (SAFE_1, 1))
    assert calls == [("_p_minus_1", n)]
    calls.clear()
    n = BARE_1 * BARE_2  # p - 1 finds nothing, so ECM runs once and splits it
    assert factorize(n).factors == ((BARE_1, 1), (BARE_2, 1))
    assert calls == [("_p_minus_1", n), ("_ecm", n)]


def test_p_minus_1_and_rho_alone_factor_alike(monkeypatch):
    # p - 1 splits 18 of these 41; patched to 0, it leaves the short rho
    # rounds and ECM alone to split them
    rng = random.Random(6211)
    pairs = [sorted(seeded_prime(rng, 2**30, 2**31) for _ in range(2)) for _ in range(40)]
    pairs.append([1000000007, 1000000009])
    with_passes = [factorize(p * q).factors for p, q in pairs]
    monkeypatch.setattr(numth, "_p_minus_1", lambda n: 0)
    rho_alone = [factorize(p * q).factors for p, q in pairs]
    for (p, q), a, b in zip(pairs, with_passes, rho_alone):
        assert a == b == ((p, 1), (q, 1)), (p, q)


BABIES = [j for j in range(1, 105, 2) if math.gcd(j, 210) == 1]


def old_stage2(a, n):
    """The p - 1 stage 2 that the paired one replaced, as the reference:
    gcd(n, product of a^(210k) - a^j) over k = 4 .. 120 and the 48 j < 210
    prime to 210."""
    baby = [pow(a, j, n) for j in range(1, 210) if math.gcd(j, 210) == 1]
    step = pow(a, 210, n)
    giant = pow(step, 4, n)
    acc = 1
    for _ in range(4, 121):
        for b in baby:
            acc = acc * (giant - b) % n
        giant = giant * step % n
    return math.gcd(acc, n)


def test_paired_stage_2_splits_whatever_the_48_baby_stage_2_splits():
    # every prime the old product catches, the paired one catches too:
    # 210k - j for 105 < j < 210 is 210(k - 1) + (210 - j), and a term
    # below 2,207 (k < 11) through its multiple by 11, a later term.  The
    # Lucas values V_i = a^i + a^-i come from pow here, and the chain that
    # p - 1 uses must give the same ones.
    rng = random.Random(3307)
    old_splits = 0
    for _ in range(150):
        n = seeded_prime(rng, 2**30, 2**31) * seeded_prime(rng, 2**30, 2**31)
        a = pow(2, E, n)
        if math.gcd(a - 1, n) != 1:
            continue
        babies = [(pow(a, j, n) + pow(a, -j, n)) % n for j in BABIES]
        giants = [(pow(a, 210 * k, n) + pow(a, -210 * k, n)) % n for k in numth._STAGE2_GIANTS]
        chain = numth._stage2_multiples(
            (a + pow(a, -1, n)) % n, lambda s, t, d: (s * t - d) % n, lambda s: (s * s - 2) % n)
        assert chain == (babies, giants), n
        old = old_stage2(a, n)
        new = numth._stage2(babies, giants, n)
        assert new % old == 0, (n, old, new)
        if 1 < old < n:
            old_splits += 1
            assert new == old, (n, old, new)
    assert old_splits >= 20  # 27 of the 127 that stage 1 leaves


def test_stage_2_table_covers_what_every_pair_covers():
    # the primes 256 < r <= 25,303 that divide a term 210 k +- j, by trial
    # division: the 1,929 pairs the table keeps cover every one of them, as
    # all 2,640 pairs do
    def covered(pairs):
        return {r for k, j in pairs for t in (210 * k - j, 210 * k + j)
                for r, _ in trial_factor(t) if 256 < r <= 25303}

    every = [(k, j) for k in numth._STAGE2_GIANTS for j in BABIES]
    kept = [(k, j) for k, row in zip(numth._STAGE2_GIANTS, numth._STAGE2_TABLE)
            for j, keep in zip(BABIES, row) if keep]
    assert len(numth._STAGE2_TABLE) == len(numth._STAGE2_GIANTS) and len(kept) == 1929
    primes = {r for r in range(257, 25304) if trial_is_prime(r)}
    assert covered(kept) == covered(every) == primes and len(primes) == 2736


# ECM's curves against the textbook group law, with nothing shared with the
# module's x-only arithmetic: affine points (x, y) on B y^2 = x^3 + A x^2 + x
# over F_p, and None for the point at infinity

def suyama_curve(sigma, p):
    """(A, B, start) of Suyama's curve sigma over F_p: u = sigma^2 - 5,
    v = 4 sigma, A = (v - u)^3 (3u + v) / (4 u^3 v) - 2 and the start's
    x = u^3 / v^3; B is taken so that the start has y = 1."""
    u, v = (sigma * sigma - 5) % p, 4 * sigma % p
    A = ((v - u) ** 3 * (3 * u + v) * pow(4 * u**3 * v, -1, p) - 2) % p
    x = u**3 * pow(v, -3, p) % p
    return A, (x**3 + A * x * x + x) % p, (x, 1)


def affine_add(P, Q, A, B, p):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + 2 * A * x1 + 1) * pow(2 * B * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (B * lam * lam - A - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def affine_mul(k, P, A, B, p):
    out = None
    while k:
        if k & 1:
            out = affine_add(out, P, A, B, p)
        P = affine_add(P, P, A, B, p)
        k >>= 1
    return out


def curve_order(A, B, p):
    """#E(F_p): each x gives 1 + (B f(x) | p) points, and infinity one more."""
    squares = {y * y % p for y in range(1, p)}
    order = 1
    for x in range(p):
        r = B * (x**3 + A * x * x + x) % p
        order += 1 if r == 0 else 2 if r in squares else 0
    return order


def projective(P, scale, p):
    """P as an x-only (X : Z) with Z = scale, or (1 : 0) for infinity."""
    return (1, 0) if P is None else (P[0] * scale % p, scale)


def same_x(xz, P, p):
    x, z = xz
    if P is None:
        return z % p == 0
    return z % p != 0 and x * pow(z, -1, p) % p == P[0]


def test_curve_arithmetic_matches_the_affine_group_law():
    for p in (10007, 10009, 10037):
        for sigma in range(6, 21):
            A, B, start = suyama_curve(sigma, p)
            assert B * (A * A - 4) % p, (p, sigma)  # not singular
            x, a24 = numth._suyama(sigma, p)
            assert same_x((x, 1), start, p) and a24 == (A + 2) * pow(4, -1, p) % p
            order = curve_order(A, B, p)
            assert order % 12 == 0, (p, sigma, order)  # Suyama's torsion
            assert affine_mul(order, start, A, B, p) is None
            assert same_x(numth._ladder(order, x, a24, p), None, p)
            kp = [None, start]
            for _ in range(2, 41):
                kp.append(affine_add(kp[-1], start, A, B, p))
            for k in range(1, 21):
                assert same_x(numth._xdbl(*projective(kp[k], k + 2, p), a24, p), kp[2 * k], p)
            for a in range(2, 21):
                for b in range(1, a):
                    d = kp[a - b]
                    if d is None or d[0] == 0:  # x-only addition needs x(P - Q) != 0, infinity
                        continue
                    s = numth._xadd(*projective(kp[a], a + 3, p), *projective(kp[b], b + 5, p),
                                    *projective(d, a + b, p), p)
                    assert same_x(s, kp[a + b], p), (p, sigma, a, b)
            for k in range(1, 41):
                assert same_x(numth._ladder(k, x, a24, p), kp[k], p), (p, sigma, k)


def test_ecm_stage_2_matches_a_ladder_per_multiple():
    # each baby j Q and giant 210 k Q from its own ladder, not from the chain
    rng = random.Random(2417)
    multiples = BABIES + [210 * k for k in numth._STAGE2_GIANTS]
    splits = 0
    for _ in range(20):
        n = seeded_prime(rng, 2**30, 2**31) * seeded_prime(rng, 2**30, 2**31)
        for sigma in (6, 7):
            x, a24 = numth._suyama(sigma, n)
            x, z = numth._ladder(numth._ECM_EXPONENT, x, a24, n)
            if math.gcd(z, n) != 1:
                continue
            affine = x * pow(z, -1, n) % n  # the ladder starts from (x : 1)
            points = [numth._ladder(i, affine, a24, n) for i in multiples]
            g = math.gcd(math.prod(pz for _, pz in points), n)
            if g == 1:
                xs = [px * pow(pz, -1, n) % n for px, pz in points]
                acc = 1
                for giant in xs[len(BABIES):]:
                    for baby in xs[: len(BABIES)]:
                        acc = acc * (giant - baby) % n
                g = math.gcd(acc, n)
            assert numth._ecm_stage2(x, z, a24, n) == g, (n, sigma)
            splits += 1 < g < n
    assert splits >= 6  # 8 of the 39 curves that reach stage 2


# Primes near 2^31 for ECM's first curve, sigma = 6, by the order of its
# start mod each; stage 1 multiplies it by E_ECM = lcm(1, ..., 256)
E_ECM = math.lcm(*range(1, 257))
ECM_1 = 2147484733  # the order divides E_ECM; p - 1 = 2^2 * 3 * 178957061
ECM_2 = 2147484041  # it divides 10,979 E_ECM, not E_ECM; p - 1 = 2^3 * 5 * 13 * 4129777


def test_ecm_table_primes_by_the_affine_group_law():
    # curve 6's stage 1 catches ECM_1 and BARE_2 and misses ECM_2, SAFE_1
    # and BARE_1; a further 10,979 times catches ECM_2
    for p in (ECM_1, ECM_2, BARE_2, SAFE_1, BARE_1):
        A, B, start = suyama_curve(6, p)
        q = affine_mul(E_ECM, start, A, B, p)
        assert (q is None) == (p in (ECM_1, BARE_2)), p
        if p == ECM_2:
            assert affine_mul(10979, q, A, B, p) is None


@pytest.mark.parametrize("p, q, expected, stage2_runs", [
    (ECM_1, SAFE_1, ECM_1, 0),  # curve 6, stage 1
    (ECM_2, SAFE_1, ECM_2, 1),  # curve 6, stage 2, after stage 1 gave 1
    (BARE_1, BARE_2, BARE_2, 0),  # curve 6, stage 1
    # curve 6 misses both and 7 catches both in stage 2 (g = n), 8 misses
    # both, and 9 catches SAFE_2 in stage 2
    (SAFE_1, SAFE_2, SAFE_2, 4),
])
def test_ecm_returns_the_first_proper_split(monkeypatch, p, q, expected, stage2_runs):
    for r in (p, q):
        assert trial_is_prime(r)
    n = p * q
    stage2, real = [], numth._ecm_stage2

    def ecm_stage2(x, z, a24, m):
        stage2.append(m)
        return real(x, z, a24, m)

    monkeypatch.setattr(numth, "_ecm_stage2", ecm_stage2)
    assert numth._ecm(n) == expected
    # stage 2 would catch a stage-1 prime too; it runs only when stage 1 gave 1
    assert stage2 == [n] * stage2_runs


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


def test_sqrt_of_five_and_factoring_match_sympy_at_64_bits():
    # sympy is a second oracle, independent of this module's arithmetic
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5061)
    split = []
    while len(split) < 24:
        p = rng.randrange(2**60, 2**63) | 1
        if p % 5 in (1, 4) and sympy.isprime(p):
            split.append(p)
    for p in split:
        assert list(mod_sqrt(5, p)) == sorted(sympy.sqrt_mod(5, p, all_roots=True)), p
    for _ in range(40):
        n = rng.randrange(2**63, 2**64)
        assert is_prime(n) == sympy.isprime(n), n
        assert dict(factorize(n).factors) == sympy.factorint(n), n
    for p in split:
        assert is_prime(p)
        assert dict(factorize(p - 1).factors) == sympy.factorint(p - 1), p


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


def test_multiplicative_order_checks_its_start():
    # 2 has order 6 mod 9, and 3 has none: p - 1 = 8 is no multiple of either
    for g in (2, 3):
        with pytest.raises(DomainError, match="not a multiple"):
            multiplicative_order(g, 9, factorize(8))
    # 341 = 11 * 31 is a base-2 Fermat pseudoprime: 2^340 = 1, so the start
    # is a true multiple of the order and dividing down stays exact
    assert multiplicative_order(2, 341, factorize(340)) == 10


def test_multiplicative_order_checks_its_primes():
    # 4 listed as a prime: dividing out 4 skips the prime 2, and the order
    # of 2 mod 17 would read 16 where it is 8
    with pytest.raises(DomainError, match="4, which is not prime"):
        multiplicative_order(2, 17, Factorization(((4, 2),)))
    assert multiplicative_order(2, 17, factorize(16)) == 8


def test_factoring_a_semiprime_tests_each_part_for_primality_once(monkeypatch):
    # two 31-bit primes: trial division leaves n whole, and rho splits it
    p, q = 2147483629, 2147483647
    tested = []
    real = numth.is_prime

    def counting(n):
        tested.append(n)
        return real(n)

    monkeypatch.setattr(numth, "is_prime", counting)
    assert factorize(p * q).factors == ((p, 1), (q, 1))
    assert sorted(tested) == [p, q, p * q]
