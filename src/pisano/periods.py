"""Fast computation of the Fibonacci period h(m) for arbitrary m.

Strategy: the times at which a pair returns under the Fibonacci step form
a subgroup h*Z, so h is found by dividing each prime out of a known multiple
while the pair still returns.  One recipe serves point queries and range
tables alike: h(p) is divided down from the class bound (2p+2 for
p = +-2 mod 5, p-1 for p = +-1 mod 5), h(p^e) from p^(e-1) h(p), and prime
powers compose by lcm.  For every prime but 5 the return test at n is
L_n = 2 (mod p) with n even, from the Lucas ladder ``numth._lucas_ladder``,
and for p = +-2 mod 5 the power of 2 in 2p+2 is never divided out, because
h(p) divides 2p+2 but not p+1.  5 and prime powers test each n by fast
doubling (``_pair_order``).  The ladder only divides down: one fast
doubling of (0, 1) checks each result.

The Lucas period h_L(m), the order of (2, 1), needs no search of its own.
The step T is linear and commutes with T^n, and (2, 1) and T(2, 1) = (1, 3)
have determinant 5, so for p != 5 they span (Z/p^e)^2: T^n fixes (2, 1)
exactly when T^n = I.  T^n = I exactly when T^n fixes (0, 1), because then
F_(n-1) = F_(n+1) - F_n = 1.  Hence h_L(p^e) = h(p^e) for every p != 5,
2 and prime powers included, and the verified (0, 1) return is the (2, 1)
return too.  Only h_L(5^e) is found apart, by ``_lucas_five_power``.

Point queries factor m and compute each prime power afresh, so they keep
no state between calls.  Range scans use ``period_table(limit)`` instead:
one smallest-prime-factor sieve supplies every class bound's primes and
every m's prime powers, in one ascending pass, and the Lucas scan reads
h_L(m) off the same table.  Every h(p), lift and h_L(5^e) is verified by
the pair returning.
"""

from __future__ import annotations

import enum
import functools
import math
from array import array
from dataclasses import dataclass, replace

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
    _lucas_ladder,
    _sieve_factors,
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
    """(prime p's class bound 3, 20, p - 1 or 2p + 2, the bound's
    {prime: exponent}, primes ascending, so iterating it gives the primes);
    ``factors_of(n)`` gives a new such dict for n, and without it the dict
    is empty for p other than 2 and 5."""
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
    """h(p) for a prime p, divided down from its class bound ``bound`` by
    the bound's primes ``primes``, as ``_class_bound`` gives them.

    h(5) = 20 comes from ``_pair_order``: x^2 - x - 1 has a double root
    mod 5, and L_4 = 7 = 2 (mod 5) while h(5) = 20.  Every other p divides
    down with one test, L_n = 2 (mod p) with n even, from the Lucas ladder,
    and one fast doubling then checks the result.  An odd n is never a
    return time of an odd p, since (phi psi)^n = -1; the bound 3 of p = 2
    is odd, so no ladder runs.  For even n, phi^n psi^n = 1 in GF(p) or
    GF(p^2), so L_n = phi^n + phi^-n = 2 forces (phi^n - 1)^2 = 0, that is
    phi^n = psi^n = 1, and with phi != psi that is T^n = I.  Irreducible p:
    h(p) divides 2p + 2 but not p + 1, so v2(h(p)) = v2(2p + 2) and 2 is
    never divided out.
    """
    if p % 5 not in (1, 4):
        primes = [q for q in primes if q != 2]
    if p == 5:
        return _pair_order((0, 1), p, bound, primes)
    n = bound
    for q in primes:
        while n % q == 0 and n // q % 2 == 0 and _lucas_ladder(n // q // 2, p)[0] == 2:
            n //= q
    if _fib_pair_ints(n, p) != (0, 1):
        raise ClaimViolationError(
            f"(0, 1) does not return after {n} steps mod {p};"
            " the ladder test failed (is the input prime?)"
        )
    return n


def _lucas_five_power(e: int) -> int:
    """h_L(5^e) = 4 * 5^(e-1) (Vinson, Fibonacci Quarterly 1963), checked
    as a return time of (2, 1) mod 5^e and proved least."""
    return _pair_order((2, 1), 5**e, 4 * 5**(e - 1), (2, 5))


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
    e > 1, and composed by lcm; m = 1 has no pairs.  With ``lucas``, 5^e
    gives h_L(5^e) and every other p^e its h(p^e)."""
    period = 1
    escalations = 0
    for p, e in pairs:
        if lucas and p == 5:
            value = _lucas_five_power(e)
        else:
            # factorize is looked up here at call time, where bench/tracer.py counts it
            value = _prime_order(p, *_class_bound(p, lambda n: dict(factorize(n))))
            if e > 1:
                value, esc = _lift(p, p**e, value)
                escalations += esc
        period = lcm(period, value)
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
    """Least d with (L_d, L_{d+1}) = (2, 1) mod m: the lcm of h_L(p^e)
    over p^e || m."""
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


def period_table(limit: int) -> PeriodTable:
    """h(m) for 1 <= m <= limit (limit >= 1) in one ascending pass over the
    sieve.

    For p = spf(m) and m = p^e * rest: a prime is the order of (0, 1) from
    its class bound, whose primes come off the sieve; a prime power is
    lifted from p^(e-1) h(p); anything else is lcm(h(p^e), h(rest)).  A
    limit below 1, or one whose tables cannot be allocated, is a DomainError,
    and an h(m) past ``period``'s typecode, so above 6m, a ClaimViolationError.
    """
    if limit < 1:
        raise DomainError(f"table limit {limit} must be >= 1")
    spf = smallest_prime_factors(limit)
    sieve_factors = functools.partial(_sieve_factors, spf)
    period = _zeroed("I" if 6 * limit < 1 << 32 else "Q", limit + 1)
    escalations = _zeroed("B", limit + 1)
    method = _zeroed("B", limit + 1)
    period[1] = 1
    for m in range(2, limit + 1):
        p = spf[m]
        if not p:
            h = _prime_order(m, *_class_bound(m, sieve_factors))
            method[m] = 1  # PRIME_DIVISOR_SEARCH
        else:
            rest = m // p
            while rest % p == 0:
                rest //= p
            if rest > 1:
                pe = m // rest
                h = math.lcm(period[pe], period[rest])
                escalations[m] = escalations[pe] + escalations[rest]
            else:
                h, escalations[m] = _lift(p, m, period[p])
                method[m] = 2  # PRIME_POWER_LIFT
        try:
            period[m] = h
        except OverflowError:
            raise ClaimViolationError(f"6m bound violated: h({m}) = {h} > {6 * m}",
                                      [(m, h)]) from None
    return PeriodTable(spf, period, escalations, method)

