"""Fast computation of the Fibonacci period h(m) for arbitrary m.

Strategy: the times at which a pair returns under the Fibonacci step form
a subgroup h*Z, so h is found by dividing each prime out of a known multiple
while the pair still returns.  The multiple is the class bound for a prime
(2p+2 for p = +-2 mod 5, p-1 for p = +-1 mod 5), p^(e-1) h(p) for a prime
power, and h(m) for the Lucas pair; prime powers compose by lcm.

Range scans use ``period_table(limit)`` instead: one smallest-prime-factor
sieve, then one ascending pass that finds h(p) from the class bound (its
primes read off the sieve), lifts h(p^e) from p h(p^(e-1)), and composes
every other m as lcm(h(p^e), h(m / p^e)).  Every h(p) and lift is verified
by the pair returning, as on the point path; ``lucas_period_table`` adds the
Lucas periods in a second pass over the same sieve.

Caches are plain dicts of immutable values: concurrent writers can only
store identical entries, so the functions stay thread-safe.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass

from .errors import ClaimViolationError, DomainError, PeriodOverflowError
# Unused divisors and lucas_brute_period stay: bench/tracer.py wraps them here.
from .fibmod import (  # noqa: F401
    Method,
    PeriodResult,
    _check_modulus,
    _fib_pair_ints,
    lucas_brute_period,
)
from .numth import (  # noqa: F401
    MODULUS_MAX,
    U64_MAX,
    _factor_pairs,
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

    SPLIT: x^2 - x - 1 has two roots mod p, so h(p) | p - 1.
    IRREDUCIBLE: no roots mod p, so h(p) | 2p + 2.
    """

    SPECIAL_TWO = "special2"
    SPECIAL_FIVE = "special5"
    SPLIT = "split"
    IRREDUCIBLE = "irreducible"


def _classify(p: int) -> PrimeClass:
    # caller guarantees p prime
    if p == 2:
        return PrimeClass.SPECIAL_TWO
    if p == 5:
        return PrimeClass.SPECIAL_FIVE
    if p % 5 in (1, 4):
        return PrimeClass.SPLIT
    return PrimeClass.IRREDUCIBLE


def classify_prime(p: int) -> PrimeClass:
    """Class of a prime p; non-prime input is a domain error."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return _classify(p)


def period_bound(p: int) -> int:
    """The integer whose divisors contain h(p): 3, 20, p-1, or 2p+2 by class."""
    cls = classify_prime(p)
    if cls is PrimeClass.SPECIAL_TWO:
        return 3
    if cls is PrimeClass.SPECIAL_FIVE:
        return 20
    if cls is PrimeClass.SPLIT:
        return p - 1
    return 2 * p + 2


# p -> (h(p), the primes of p's class bound); 2 and 5 have fixed bounds
_PRIME_PERIOD_SPECIAL = {2: (3, (3,)), 5: (20, (2, 5))}
_PRIME_PERIOD_CACHE: dict[int, tuple[int, tuple[int, ...]]] = dict(_PRIME_PERIOD_SPECIAL)
_PRIME_POWER_CACHE: dict[tuple[int, int], tuple[int, int]] = {}


def clear_caches() -> None:
    """Drop memoized periods (timing tests want cold starts)."""
    _PRIME_PERIOD_CACHE.clear()
    _PRIME_PERIOD_CACHE.update(_PRIME_PERIOD_SPECIAL)
    _PRIME_POWER_CACHE.clear()


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


def _prime_period_value(p: int) -> tuple[int, tuple[int, ...]]:
    """(h(p), the primes of p's class bound) for prime p: the order of
    (0, 1) mod p, divided down from the class bound by those primes, which
    also hold every prime of h(p)."""
    cached = _PRIME_PERIOD_CACHE.get(p)
    if cached is not None:
        return cached
    bound = p - 1 if p % 5 in (1, 4) else 2 * p + 2
    primes = factorize(bound).primes()
    entry = _pair_order((0, 1), p, bound, primes), primes
    _PRIME_PERIOD_CACHE[p] = entry
    return entry


def prime_period(p: int) -> PeriodResult:
    """h(p) as the order of (0, 1) mod p, found by dividing primes out of
    the class bound; 2 -> 3 and 5 -> 20."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return PeriodResult(p, _prime_period_value(p)[0], Method.PRIME_DIVISOR_SEARCH)


def _prime_power_value(p: int, e: int) -> tuple[int, int]:
    """(h(p^e), lift escalations): the order of (0, 1) mod p^e, divided down
    by p from p^(e-1) h(p); escalations count the factors of p divided out."""
    key = (p, e)
    cached = _PRIME_POWER_CACHE.get(key)
    if cached is not None:
        return cached
    candidate = p ** (e - 1) * _prime_period_value(p)[0]
    if candidate > U64_MAX:
        raise PeriodOverflowError(
            f"candidate period {candidate} for {p}^{e} exceeds the 64-bit range"
        )
    period = _pair_order((0, 1), p**e, candidate, (p,))
    escalations = 0
    while candidate > period:
        candidate //= p
        escalations += 1
    _PRIME_POWER_CACHE[key] = (period, escalations)
    return period, escalations


def prime_power_period(p: int, e: int) -> PeriodResult:
    """h(p^e), a divisor of p^(e-1) h(p), verified rather than trusted."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if e < 1:
        raise DomainError(f"exponent {e} must be >= 1")
    pe = p**e
    if pe > MODULUS_MAX:
        raise PeriodOverflowError(f"{p}^{e} exceeds the modulus domain 2^63 - 1")
    value, escalations = _prime_power_value(p, e)
    return PeriodResult(pe, value, Method.PRIME_POWER_LIFT, escalations)


def _pisano_value(pairs) -> tuple[int, int, Method]:
    """(h(m), lift escalations, method) from the (prime, exponent) pairs of
    m, without dataclass overhead; m = 1 has no pairs."""
    period = 1
    escalations = 0
    for p, e in pairs:
        value, esc = _prime_power_value(p, e)
        escalations += esc
        period = lcm(period, value)
    if len(pairs) != 1:
        method = Method.LCM_COMPOSITION
    elif pairs[0][1] > 1:
        method = Method.PRIME_POWER_LIFT
    else:
        method = Method.PRIME_DIVISOR_SEARCH
    return period, escalations, method


def pisano_period(m: int) -> PeriodResult:
    """h(m): factor m, lift each prime power, compose by lcm; h(1) = 1."""
    _check_modulus(m)
    period, escalations, method = _pisano_value(_factor_pairs(m))
    return PeriodResult(m, period, method, escalations)


def lucas_period(m: int) -> PeriodResult:
    """Least d with (L_d, L_{d+1}) = (2, 1) mod m.

    The Lucas sequence obeys the same recurrence, so its start pair returns
    at h(m) and its period divides h(m).  It is the order of (2, 1), divided
    down from h(m) by primes that hold every prime of h(m): those of the
    class bound of each p | m (h(p) divides it), and p itself when p^2 | m.
    """
    _check_modulus(m)
    pairs = _factor_pairs(m)
    period, escalations, _ = _pisano_value(pairs)
    primes = {p for p, e in pairs if e > 1}
    for p, _ in pairs:
        primes.update(_prime_period_value(p)[1])
    period = _pair_order((2, 1), m, period, primes)
    return PeriodResult(m, period, Method.PRIME_DIVISOR_SEARCH, escalations)


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

    spf: array           # 'I', numth.smallest_prime_factors(limit)
    period: array        # 'Q'
    escalations: array   # 'B'
    method: array        # 'B', an index into TABLE_METHODS


def _sieve_bound(p: int, spf) -> tuple[int, list[int]]:
    """The class bound of prime p and its primes, read off the sieve."""
    if p == 2:
        return 3, [3]
    if p == 5:
        return 20, [2, 5]
    if p % 5 in (1, 4):
        return p - 1, _sieve_primes(spf, p - 1)
    # 2p + 2 = 4 (p + 1) / 2, and (p + 1) / 2 <= p stays inside the sieve
    return 2 * p + 2, [2, *_sieve_primes(spf, (p + 1) // 2)]


def period_table(limit: int) -> PeriodTable:
    """h(m) for 1 <= m <= limit (limit >= 1) in one ascending pass over the
    sieve.

    For p = spf(m) and m = p^e * rest: a prime is the order of (0, 1) from
    its class bound; a prime power is the order from p * h(p^(e-1)) (every
    factor of p divided out is a lift escalation); anything else is
    lcm(h(p^e), h(rest)).  The caches of the point path are not touched.
    A limit whose tables cannot be allocated is a DomainError.
    """
    spf = smallest_prime_factors(limit)
    period = _zeroed("Q", limit + 1)
    escalations = _zeroed("B", limit + 1)
    method = _zeroed("B", limit + 1)
    period[1] = 1
    for m in range(2, limit + 1):
        p = spf[m]
        if not p:
            bound, primes = _sieve_bound(m, spf)
            period[m] = _pair_order((0, 1), m, bound, primes)
            method[m] = 1  # PRIME_DIVISOR_SEARCH
            continue
        rest = m // p
        if rest % p:
            period[m] = math.lcm(period[p], period[rest])
            escalations[m] = escalations[rest]
            continue
        pe = p
        while rest % p == 0:
            rest //= p
            pe *= p
        if rest > 1:
            period[m] = math.lcm(period[pe], period[rest])
            escalations[m] = escalations[pe] + escalations[rest]
            continue
        below = m // p
        multiple = p * period[below]
        value = _pair_order((0, 1), m, multiple, (p,))
        lifted = escalations[below]
        while multiple > value:
            multiple //= p
            lifted += 1
        period[m] = value
        escalations[m] = lifted
        method[m] = 2  # PRIME_POWER_LIFT
    return PeriodTable(spf, period, escalations, method)


def lucas_period_table(table: PeriodTable) -> array:
    """h_L(m) for every m of ``table``: h_L(p^e) is the order of (2, 1) from
    h(p^e), divided by the primes of p's class bound and p itself; the rest
    compose by lcm, since (2, 1) returns mod m exactly when it returns mod
    every p^e || m."""
    spf, period = table.spf, table.period
    limit = len(period) - 1
    lucas = _zeroed("Q", limit + 1)
    lucas[1] = 1
    for m in range(2, limit + 1):
        p = spf[m] or m
        rest, pe = m // p, p
        while rest % p == 0:
            rest //= p
            pe *= p
        if rest > 1:
            lucas[m] = math.lcm(lucas[pe], lucas[rest])
        else:
            primes = _sieve_bound(p, spf)[1]
            lucas[m] = _pair_order((2, 1), m, period[m], (*primes, p))
    return lucas
