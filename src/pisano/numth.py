"""General integer number theory: primality, a smallest-prime-factor sieve,
factorization, divisors, modular square roots, multiplicative order.

Everything here is a pure function of its arguments; there is no shared
mutable state, so any number of threads may call these concurrently.
Python integers are arbitrary precision, so modular products are exact for
any modulus; the 64-bit contracts below are enforced as explicit domain
checks rather than left to wraparound.
"""

from __future__ import annotations

import math
import operator
import random
from array import array
from dataclasses import dataclass
from itertools import compress, islice

from .errors import DomainError, PeriodOverflowError

U64_MAX = 2**64 - 1
# Periods are at most 6m, so they fit in 64 bits for m <= U64_MAX // 6 but
# not always above: h(10 p) = lcm(60, 2p + 2) > U64_MAX for the prime
# p = 922337203685477263.  Such periods raise PeriodOverflowError.
MODULUS_MAX = 2**63 - 1


# Deterministic Miller-Rabin witness tiers (Jaeschke / Sinclair bounds).
# The final set is valid for all n < 3.3e24, which covers 64-bit inputs.
_MR_TIERS = (
    (3_215_031_751, (2, 3, 5, 7)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (None, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)


def _zeroed(typecode: str, n: int) -> array:
    """An array of n zeros made by one sized allocation.  A size the machine
    cannot hold fails at once as a DomainError, never part-way through a
    fill."""
    try:
        return array(typecode, (0,)) * n
    except (MemoryError, OverflowError):
        raise DomainError(f"a table of {n} entries does not fit in memory") from None


def smallest_prime_factors(n: int) -> array:
    """spf[m] = the smallest prime factor of composite m <= n, and 0 for a
    prime or m < 2 (so entries stay below 2^32).

    Sieve of Eratosthenes run downwards: every prime p <= sqrt(n) marks its
    multiples from p^2, and the smaller primes, marked later, overwrite.
    The primes p <= sqrt(n) come from the same sieve one level down.
    """
    spf = _zeroed("I", n + 1)
    root = math.isqrt(n)
    if root >= 2:
        below = smallest_prime_factors(root)
        for p in range(root, 1, -1):
            if not below[p]:
                start = p * p
                spf[start::p] = array("I", (p,)) * ((n - start) // p + 1)
    return spf


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending, read off the smallest-factor sieve."""
    if n < 2:
        return []
    spf = smallest_prime_factors(n)
    return list(compress(range(2, n + 1), map(operator.not_, islice(spf, 2, None))))


def _sieve_primes(spf, n: int) -> list[int]:
    """Distinct primes of 1 <= n < len(spf), ascending, by sieve lookups."""
    out = []
    while n > 1:
        p = spf[n] or n
        out.append(p)
        n //= p
        while n % p == 0:
            n //= p
    return out


_TRIAL_PRIMES = tuple(primes_up_to(1024))
_TRIAL_LIMIT_SQ = 1024 * 1024


def is_prime(n: int) -> bool:
    """Deterministic primality test for all n < 2^64 (no probabilistic error).

    Trial division by tiny primes, then Miller-Rabin with witness sets known
    to be exact below the tier bounds.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True

    # write n-1 = d * 2^s
    d = n - 1
    s = 0
    while d & 1 == 0:
        d >>= 1
        s += 1

    for bound, bases in _MR_TIERS:
        if bound is None or n < bound:
            break
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as ((prime, exponent), ...) with primes ascending."""

    factors: tuple[tuple[int, int], ...]

    def value(self) -> int:
        """The integer this factorization reconstructs."""
        n = 1
        for p, e in self.factors:
            n *= p**e
        return n

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)

    @classmethod
    def from_pairs(cls, pairs) -> "Factorization":
        """Validated constructor: primes strictly ascending, exponents >= 1."""
        pairs = tuple((int(p), int(e)) for p, e in pairs)
        for i, (p, e) in enumerate(pairs):
            if e < 1:
                raise DomainError(f"exponent {e} for prime {p} must be >= 1")
            if i and p <= pairs[i - 1][0]:
                raise DomainError("primes must be strictly increasing")
            if not is_prime(p):
                raise DomainError(f"{p} is not prime")
        return cls(pairs)


def _brent_rho(n: int, rng: random.Random) -> int:
    """One non-trivial factor of an odd composite n (Brent's cycle variant)."""
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            # backtrack one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # cycle degenerated; retry with fresh parameters


def _factor_pairs(n: int, seed: int | None = None) -> list[tuple[int, int]]:
    """Sorted (prime, exponent) pairs for n >= 1 (none for 1); trial
    division then rho."""
    counts: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            counts[p] = e
    if n > 1:
        if n < _TRIAL_LIMIT_SQ or is_prime(n):
            counts[n] = counts.get(n, 0) + 1
        else:
            # Deterministic by default: the rho retry stream is derived from
            # (n, seed) so failures reproduce without an explicit seed.
            material = n * 0x9E3779B97F4A7C15 ^ (0 if seed is None else seed)
            rng = random.Random(material & U64_MAX)
            stack = [n]
            while stack:
                v = stack.pop()
                if is_prime(v):
                    counts[v] = counts.get(v, 0) + 1
                    continue
                d = _brent_rho(v, rng)
                stack.append(d)
                stack.append(v // d)
    return sorted(counts.items())


def factorize(n: int, *, seed: int | None = None) -> Factorization:
    """Canonical factorization of n >= 2; callers handle 1 themselves.

    Trial division removes factors below 1024, then Brent's rho with a
    deterministic primality check splits what remains.  ``seed`` only varies
    the rho retry stream; the result is the same for every seed.
    """
    if n < 2:
        raise DomainError(f"cannot factor {n}: need n >= 2")
    return Factorization(tuple(_factor_pairs(n, seed)))


@dataclass(frozen=True)
class DivisorSet:
    """All divisors of ``source``, strictly increasing, including 1 and source."""

    divisors: tuple[int, ...]
    source: int

    def __iter__(self):
        return iter(self.divisors)

    def __len__(self) -> int:
        return len(self.divisors)

    def __contains__(self, d: int) -> bool:
        return d in self.divisors


def divisors(f: Factorization) -> DivisorSet:
    """Complete sorted divisor list of the factored integer."""
    divs = [1]
    for p, e in f.factors:
        pk = 1
        block = list(divs)
        for _ in range(e):
            pk *= p
            divs.extend(d * pk for d in block)
    divs.sort()
    return DivisorSet(tuple(divs), f.value())


def gcd(a: int, b: int) -> int:
    """Greatest common divisor; gcd(a, 0) = a."""
    return math.gcd(a, b)


def lcm(a: int, b: int) -> int:
    """Least common multiple with lcm(a, 0) = 0 by convention.

    Results above 2^64 - 1 raise PeriodOverflowError instead of wrapping:
    composed periods must never alias.
    """
    if a == 0 or b == 0:
        return 0
    v = a // math.gcd(a, b) * b
    if v > U64_MAX:
        raise PeriodOverflowError(f"lcm({a}, {b}) = {v} exceeds the 64-bit range")
    return v


def mulmod(a: int, b: int, m: int) -> int:
    """Exact (a * b) mod m. Python integers never wrap, so this is exact
    for any modulus; m = 0 is a domain error."""
    if m < 1:
        raise DomainError(f"modulus {m} must be >= 1")
    return a % m * (b % m) % m


def powmod(a: int, e: int, m: int) -> int:
    """Exact a^e mod m for e >= 0; m = 0 is a domain error."""
    if m < 1:
        raise DomainError(f"modulus {m} must be >= 1")
    if e < 0:
        raise DomainError(f"exponent {e} must be >= 0")
    return pow(a % m, e, m)


def mod_sqrt(a: int, p: int) -> tuple[int, int] | None:
    """Square roots of a modulo an odd prime p.

    Returns the pair (r, p - r) with r <= p - r when a is a quadratic
    residue, (0, 0) for a = 0, and None for a non-residue.  Tonelli-Shanks,
    with the p % 4 == 3 shortcut.
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise DomainError(f"{p} is not an odd prime")
    if not 0 <= a < p:
        raise DomainError(f"residue {a} out of range for modulus {p}")
    if a == 0:
        return (0, 0)
    if pow(a, (p - 1) // 2, p) != 1:
        return None

    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        # write p-1 = q * 2^s with q odd
        q = p - 1
        s = 0
        while q & 1 == 0:
            q >>= 1
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c = pow(z, q, p)
        r = pow(a, (q + 1) // 2, p)
        t = pow(a, q, p)
        m = s
        while t != 1:
            t2 = t
            i = 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            r = r * b % p
            t = t * b % p * b % p
            c = b * b % p
            m = i
    r = min(r, p - r)
    return (r, p - r)


def multiplicative_order(g: int, p: int, fact_p_minus_1: Factorization) -> int:
    """Least k >= 1 with g^k = 1 (mod p), via dividing primes out of p - 1."""
    if not 1 <= g < p or g % p == 0:
        raise DomainError(f"residue {g} must satisfy 1 <= g < p = {p}")
    if fact_p_minus_1.value() != p - 1:
        raise DomainError("factorization does not factor p - 1")
    k = p - 1
    for q, _ in fact_p_minus_1.factors:
        while k % q == 0 and pow(g, k // q, p) == 1:
            k //= q
    return k
