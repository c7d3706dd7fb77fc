"""Fast computation of the Fibonacci period h(m) for arbitrary m.

Strategy: the times at which a pair returns under the Fibonacci step form
a subgroup h*Z, so h is found by dividing each prime out of a known multiple
while the pair still returns.  One recipe serves point queries and range
tables alike: h(p) is divided down from the class bound (2p+2 for
p = +-2 mod 5, p-1 for p = +-1 mod 5), h(p^e) from p^(e-1) h(p), and prime
powers compose by lcm.  For every prime but 5 the return test at n is, with
n even, phi^n = 1 by ``pow`` on a root phi of x^2 - x - 1 mod p for split
p = 3 (mod 4) or 5 (mod 8), else L_n = 2 (mod p) by ``numth._lucas_ladder``;
for p = +-2 mod 5 the power of 2 in 2p+2 is never divided out, because
h(p) divides 2p+2 but not p+1.  5 and prime powers test each n by fast
doubling (``_pair_order``).  Those tests only divide down: one Lucas
doubling, (L_n, L_n+1) = (2, 1), checks each h(p).

The Lucas period h_L(m), the order of (2, 1), needs no search of its own.
The step T is linear and commutes with T^n, and (2, 1) and T(2, 1) = (1, 3)
have determinant 5, so for p != 5 they span (Z/p^e)^2: T^n fixes (2, 1)
exactly when T^n = I, that is when T^n fixes (0, 1), as then
F_(n-1) = F_(n+1) - F_n = 1.  So h_L(p^e) = h(p^e) for p != 5, and the
verified (0, 1) return is the (2, 1) return too.  With Vinson's h_L(5^a) =
4 * 5^(a-1) (Fibonacci Quarterly 1963), h_L(m) = lcm(4, h(m/5)) when
5 | m; ``_lucas_order`` proves that rule where it is used.

Point queries factor m and compute each prime power afresh, so they keep
no state between calls.  Range scans use ``period_table(limit)`` instead:
one smallest-prime-factor sieve gives the prime powers of each m, and each
h(p) the primes of p - 1 or (p + 1)/2 as a list, in one ascending pass over
the odd m and the powers of 2; each other even m = 2^e k is lcm(h(2^e),
h(k)) (D. D. Wall, Amer. Math. Monthly 67, 1960), stored by slices of odd
k.  The Lucas scan reads h_L(m) off the same table.  Every h(p) and lift
is verified by the pair returning.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass, replace
from itertools import chain, repeat

from .errors import ClaimViolationError, DomainError, PeriodOverflowError
# Unused divisors and lucas_brute_period stay: bench/tracer.py wraps them here.
from .fibmod import (  # noqa: F401
    Method,
    PeriodResult,
    _check_modulus,
    _fib_pair_ints,
    _lucas_pair_ints,
    lucas_brute_period,
)
from .numth import (  # noqa: F401
    MODULUS_MAX,
    U64_MAX,
    _factor_pairs,
    _lucas_ladder,
    _sieve_primes,
    _zeroed,
    divisors,
    factorize,
    is_prime,
    lcm,
    smallest_prime_factors,
)


class PrimeClass(enum.Enum):
    """Trichotomy of primes by residue mod 5, with 2 and 5 set apart.

    SPLIT: x^2 - x - 1 has two roots phi and psi = -1/phi mod p, so
    h(p) | p - 1, and (0, 1) returns at n exactly when n is even and
    L_n = phi^n + phi^-n = 2.
    IRREDUCIBLE: no roots mod p; the root phi in GF(p^2) has
    phi^(p+1) = -1, so h(p) | 2p + 2 but not p + 1, and
    v2(h(p)) = v2(2p + 2).
    """

    SPECIAL_TWO = "special2"
    SPECIAL_FIVE = "special5"
    SPLIT = "split"
    IRREDUCIBLE = "irreducible"


def _check_prime(p: int) -> None:
    # is_prime is exact only below 2^64; the domain ends at 2^63 - 1
    if p > MODULUS_MAX:
        raise DomainError(f"prime {p} exceeds the supported domain 2^63 - 1")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")


def classify_prime(p: int) -> PrimeClass:
    """Class of a prime p; non-prime input is a domain error."""
    _check_prime(p)
    if p == 2:
        return PrimeClass.SPECIAL_TWO
    if p == 5:
        return PrimeClass.SPECIAL_FIVE
    if p % 5 in (1, 4):
        return PrimeClass.SPLIT
    return PrimeClass.IRREDUCIBLE


def _class_bound(p: int, factors_of=None) -> tuple[int, dict[int, int]]:
    """(prime p's class bound 3, 20, p - 1 or 2p + 2, and its {prime:
    exponent}, primes ascending), ``factors_of(n)`` giving a new such dict
    for n; without it the dict is empty for p other than 2 and 5."""
    if p == 2:
        return 3, {3: 1}
    if p == 5:
        return 20, {2: 2, 5: 1}
    if not factors_of:
        return (p - 1 if p % 5 in (1, 4) else 2 * p + 2), {}
    if p % 5 in (1, 4):
        return p - 1, factors_of(p - 1)
    # 2p + 2 = 4 (p + 1) / 2, and (p + 1) / 2 < p stays inside a sieve to p
    factors = factors_of((p + 1) // 2)
    return 2 * p + 2, {2: factors.pop(2, 0) + 2, **factors}


def period_bound(p: int) -> int:
    """The integer whose divisors contain h(p): 3, 20, p-1, or 2p+2 by class."""
    _check_prime(p)
    return _class_bound(p)[0]


def _pair_order(start: tuple[int, int], m: int, multiple: int, primes) -> int:
    """Least n >= 1 at which ``start`` returns under the Fibonacci step mod m.

    ``multiple`` must be a return time and ``primes`` must hold every prime
    dividing multiple / order.  Return times form the subgroup order * Z, so
    each prime is divided out while the pair still returns (Cohen, A Course
    in Computational Algebraic Number Theory, 1.4).
    """
    s0, s1 = start[0] % m, start[1] % m

    def returns(n: int) -> bool:
        # T^n(s0, s1) = (s0 F_{n-1} + s1 F_n, s0 F_n + s1 F_{n+1})
        f0, f1 = _fib_pair_ints(n, m)
        return ((s0 * (f1 - f0) + s1 * f0) % m, (s0 * f0 + s1 * f1) % m) == (s0, s1)

    if not returns(multiple):
        raise ClaimViolationError(
            f"{start} does not return after {multiple} steps mod {m};"
            " the divisibility theorem failed (is the input prime?)"
        )
    for q in primes:
        while multiple % q == 0 and returns(multiple // q):
            multiple //= q
    return multiple


def _prime_order(p: int, bound: int, primes) -> int:
    """h(p) for a prime p, divided down from its class bound ``bound`` by its
    primes ``primes``, ascending: ``_class_bound``'s, or a list off the sieve.

    h(5) = 20 comes from ``_pair_order``: x^2 - x - 1 has a double root
    mod 5, where L_4 = 2 but h(5) = 20.  Every other p tests even n only, as
    (phi psi)^n = -1 for odd n (p = 2's bound 3 is odd: no test runs), and
    for even n, psi^n = phi^-n, so T^n = I exactly when phi^n = 1.  Split
    p = 3 (mod 4) or 5 (mod 8): phi = (1 + r)/2, r = 5^((p+1)/4) or Atkin's
    5t (10t^2 - 1), t = 10^((p-5)/8) (Cohen, 1.5), checked a root; the test
    is phi^n = 1 by ``pow``.  Other p: L_n = phi^n + phi^-n = 2, from the
    Lucas ladder, forces (phi^n - 1)^2 = 0.  One Lucas doubling then checks
    (L_n, L_n+1) = (2, 1), for p != 5 the (0, 1) return.  Irreducible p:
    v2(h(p)) = v2(2p + 2), as h(p) | 2p + 2 but not p + 1: 2 never divides out.
    """
    if p % 5 not in (1, 4):
        primes = [q for q in primes if q != 2]
    if p == 5:
        return _pair_order((0, 1), p, bound, primes)
    n = bound
    if p % 5 in (1, 4) and p & 7 != 1:
        if p & 3 == 3:
            r = pow(5, (p + 1) >> 2, p)
        else:
            t = pow(10, (p - 5) >> 3, p)
            r = 5 * t * (10 * t * t - 1)
        phi = (1 + r) * ((p + 1) >> 1) % p
        if (phi * phi - phi - 1) % p:
            raise ClaimViolationError(f"{phi} is no root of x^2 - x - 1 mod {p}")
        for q in primes:
            while n % q == 0 and n // q % 2 == 0 and pow(phi, n // q, p) == 1:
                n //= q
    else:
        for q in primes:
            while n % q == 0 and n // q % 2 == 0 and _lucas_ladder(n // q // 2, p)[0] == 2:
                n //= q
    if _lucas_pair_ints(n, p) != (2 % p, 1 % p):
        raise ClaimViolationError(
            f"(0, 1) does not return after {n} steps mod {p};"
            " the divide-down test failed (is the input prime?)"
        )
    return n


def _lucas_order(m: int, h: int, primes=(2, 5)) -> int:
    """lcm(4, h), for 5 | m and h = h(m/5), proved h_L(m): a return time of
    (2, 1) mod m that divides prod(primes)^64, from which none of ``primes``
    divides out; else a ClaimViolationError, details (m, order or None, lcm)."""
    n = lcm(4, h)
    order = _pair_order((2, 1), m, n, primes) if pow(math.prod(primes), 64, n) == 0 else None
    if order != n:
        raise ClaimViolationError(f"h_L({m}) = {order}, not lcm(4, h(m/5)) = {n}", [(m, order, n)])
    return n


def _lift(p: int, pe: int, period: int) -> tuple[int, int]:
    """(h(p^e), lift escalations) for pe = p^e, e >= 2, from h(p) = ``period``:
    the order of (0, 1) mod p^e, divided down by p from p^(e-1) h(p);
    escalations count the factors of p divided out."""
    candidate = pe // p * period
    if candidate > U64_MAX:  # inside the domain only 5^27 and 13^17 get here
        e = round(math.log(pe, p))
        raise PeriodOverflowError(
            f"candidate period {candidate} for {p}^{e} exceeds the 64-bit range"
        )
    value = _pair_order((0, 1), pe, candidate, (p,))
    escalations = 0
    while candidate > value:
        candidate //= p
        escalations += 1
    return value, escalations


def prime_period(p: int) -> PeriodResult:
    """h(p) as the order of (0, 1) mod p, found by dividing primes out of
    the class bound; 2 -> 3 and 5 -> 20."""
    _check_prime(p)
    return _period(p, ((p, 1),))


def prime_power_period(p: int, e: int) -> PeriodResult:
    """h(p^e), a divisor of p^(e-1) h(p), verified rather than trusted."""
    _check_prime(p)
    if e < 1:
        raise DomainError(f"exponent {e} must be >= 1")
    # p >= 2, so p^e >= 2^63 from e = 63 on: no need to build it
    if e >= 63 or (pe := p**e) > MODULUS_MAX:
        raise PeriodOverflowError(f"{p}^{e} exceeds the modulus domain 2^63 - 1")
    return replace(_period(pe, ((p, e),)), method=Method.PRIME_POWER_LIFT)


def _period(m: int, pairs, lucas: bool = False) -> PeriodResult:
    """h(m), or h_L(m) with ``lucas``, from the (prime, exponent) pairs of
    m: each h(p) divided down from its class bound, lifted to h(p^e) for
    e > 1, and composed by lcm; m = 1 has no pairs.  For 5 | m, h_L(m) is
    lcm(4, h(m/5)) from m/5's pairs, proved by ``_lucas_order`` against 2,
    5, each p and the primes of its class bound."""
    if five := lucas and m % 5 == 0:  # m/5's pairs: one 5 fewer
        pairs = [(p, e - (p == 5)) for p, e in pairs if (p, e) != (5, 1)]
    period, escalations, primes = 1, 0, {2, 5}
    for p, e in pairs:
        # factorize is looked up here at call time, where bench/tracer.py counts it
        bound, factors = _class_bound(p, lambda n: dict(factorize(n)))
        primes.update(factors, (p,))
        value = _prime_order(p, bound, factors)
        if e > 1:
            value, esc = _lift(p, p**e, value)
            escalations += esc
        period = lcm(period, value)
    if five:
        period = _lucas_order(m, period, primes)
    if lucas or (len(pairs) == 1 and pairs[0][1] == 1):
        method = Method.PRIME_DIVISOR_SEARCH
    elif len(pairs) == 1:
        method = Method.PRIME_POWER_LIFT
    else:
        method = Method.LCM_COMPOSITION
    return PeriodResult(m, period, method, escalations)


def pisano_period(m: int) -> PeriodResult:
    """h(m): factor m, lift each prime power, compose by lcm; h(1) = 1."""
    _check_modulus(m)
    return _period(m, _factor_pairs(m))


def lucas_period(m: int) -> PeriodResult:
    """Least d with (L_d, L_{d+1}) = (2, 1) mod m: h(m) when 5 does not
    divide m, else lcm(4, h(m/5)), proved the order of (2, 1) mod m."""
    _check_modulus(m)
    return _period(m, _factor_pairs(m), lucas=True)


# Method codes of a PeriodTable; 0 covers m = 1, which composes nothing.
TABLE_METHODS = (Method.LCM_COMPOSITION, Method.PRIME_DIVISOR_SEARCH,
                 Method.PRIME_POWER_LIFT)


@dataclass(frozen=True)
class PeriodTable:
    """h(m), lift escalations and Method code for every 0 < m <= limit.

    ``spf`` is the sieve the table was built from; entry 0 of each array is
    unused.  ``escalations[m]`` equals ``pisano_period(m).lift_escalations``
    and ``TABLE_METHODS[method[m]]`` its ``method``.
    """

    spf: array           # numth.smallest_prime_factors(limit), 'H' or 'I'
    period: array        # 'I' while 6 limit < 2^32 (h(m) <= 6m), else 'Q'
    escalations: array   # 'B'
    method: array        # 'B', an index into TABLE_METHODS


# odd k per slice of the even m: a slice copies at most 32 KB of ``period``
_SLICE_BLOCK = 1 << 12


def period_table(limit: int) -> PeriodTable:
    """h(m) for 1 <= m <= limit (limit >= 1): one ascending pass over the
    sieve's odd m and powers of 2, then the other even m by slices.

    For p = spf(m) and m = p^e * rest: a prime is the order of (0, 1) from
    its class bound, by the primes of p - 1 or (p + 1)/2 walked off the
    sieve (2 and 5 take ``_class_bound``'s); a prime power is lifted from
    p^(e-1) h(p); anything else is lcm(h(p^e), h(rest)), and only m with
    p^2 | m look for e.  The pass takes the powers of 2 in their place, 2,
    3, 4, 5, 7, 8, 9, ..., and after it every other even m = 2^e k, k odd,
    is lcm(h(2^e), h(k)), stored for a block of at most ``_SLICE_BLOCK``
    odd k at a time.  A lift's escalations are added after the pass to
    every m that p^e exactly divides.  A limit below 1, or one whose tables
    cannot be allocated, is a DomainError, and an h(m) past ``period``'s
    typecode, so above 6m, a ClaimViolationError for the least such m.
    """
    if limit < 1:
        raise DomainError(f"table limit {limit} must be >= 1")
    spf = smallest_prime_factors(limit)
    period = _zeroed("I" if 6 * limit < 1 << 32 else "Q", limit + 1)
    escalations = _zeroed("B", limit + 1)
    method = _zeroed("B", limit + 1)
    lifted = []  # (p^e, p, escalations) of each lift that divided p out
    period[1] = 1
    powers = [1 << e for e in range(1, limit.bit_length())]  # each 2^e <= limit
    for pe in powers:  # 2^e, then the odd m up to 2^(e+1): every m in turn
        for m in chain((pe,), range(pe + 1, min(2 * pe, limit + 1), 2)):
            p = spf[m]
            if not p:
                if m % 5 in (1, 4):
                    h = _prime_order(m, m - 1, _sieve_primes(spf, m - 1))
                elif m in (2, 5):
                    h = _prime_order(m, *_class_bound(m))
                else:  # (m + 1)/2 holds the odd primes of 2m + 2, and 2 never divides out
                    h = _prime_order(m, 2 * m + 2, _sieve_primes(spf, (m + 1) // 2))
                method[m] = 1  # PRIME_DIVISOR_SEARCH
            elif (rest := m // p) % p:
                h = math.lcm(period[p], period[rest])
            else:
                while rest % p == 0:
                    rest //= p
                if rest > 1:
                    h = math.lcm(period[m // rest], period[rest])
                else:
                    h, count = _lift(p, m, period[p])
                    method[m] = 2  # PRIME_POWER_LIFT
                    if count:
                        lifted.append((m, p, count))
            try:
                period[m] = h
            except OverflowError:
                raise _overflow(period, m, h) from None
    for pe in powers:
        stop = limit // pe + 1
        for k in range(3, stop, 2 * _SLICE_BLOCK):
            end = min(k + 2 * _SLICE_BLOCK, stop)
            try:
                period[k * pe:end * pe:2 * pe] = array(
                    period.typecode, map(math.lcm, repeat(period[pe]), period[k:end:2]))
            except OverflowError:  # at some even m of this slice
                raise _overflow(period, limit + 1, None) from None
    for pe, p, count in lifted:
        for m in range(pe, limit + 1, pe):
            if m // pe % p:
                escalations[m] += count
    return PeriodTable(spf, period, escalations, method)


def _overflow(period, m, h) -> ClaimViolationError:
    """The 6m error for the least m' <= m whose h(m') does not fit
    ``period``, every odd m' < m and every 2^e < m being stored: each even
    m' < m, 2^e k with k odd, is recomputed as lcm(h(2^e), h(k)), and
    h(m) = h is the one that fails when none of them does."""
    for n in range(2, m, 2):
        v = math.lcm(period[n & -n], period[n // (n & -n)])
        if v >> 8 * period.itemsize:
            m, h = n, v
            break
    return ClaimViolationError(f"6m bound violated: h({m}) = {h} > {6 * m}", [(m, h)])
