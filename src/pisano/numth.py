"""General integer number theory: primality (Baillie-PSW), a smallest-prime-
factor sieve, factorization, divisors, modular square roots, multiplicative
order.

``factorize`` divides out the primes below 1024, then splits what is left
with Brent's rho.  Where its rounds would pass 256 steps, one Pollard p - 1
pass and, when that finds nothing, Lenstra's elliptic curve method (ECM)
split the part instead.

Everything here is a pure function of its arguments; there is no shared
mutable state, so any number of threads may call these concurrently.
Python integers are arbitrary precision, so modular products are exact for
any modulus; the 64-bit contracts below are enforced as explicit domain
checks rather than left to wraparound.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from itertools import compress, count, islice

from .errors import DomainError, PeriodOverflowError

U64_MAX = 2**64 - 1
# Periods are at most 6m, so they fit in 64 bits for m <= U64_MAX // 6 but
# not always above: h(10 p) = lcm(60, 2p + 2) > U64_MAX for the prime
# p = 922337203685477263.  Such periods raise PeriodOverflowError.
MODULUS_MAX = 2**63 - 1


# is_prime's trial divisors: the twelve primes up to 37
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
    prime or m < 2.  Entries are at most sqrt(n), so the array is 'H' (2
    bytes) while sqrt(n) < 2^16 and 'I' beyond.

    Sieve of Eratosthenes run downwards: every prime p <= sqrt(n) marks its
    multiples from p^2, and the smaller primes, marked later, overwrite.
    The primes p <= sqrt(n) come from the same sieve one level down.
    """
    root = math.isqrt(n)
    spf = _zeroed("H" if root < 1 << 16 else "I", n + 1)
    if root >= 2:
        below = smallest_prime_factors(root)
        for p in range(root, 1, -1):
            if not below[p]:
                start = p * p
                spf[start::p] = array(spf.typecode, (p,)) * ((n - start) // p + 1)
    return spf


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending, read off the smallest-factor sieve."""
    if n < 2:
        return []
    spf = smallest_prime_factors(n)
    return list(compress(range(2, n + 1), map(operator.not_, islice(spf, 2, None))))


def _sieve_factors(spf, n: int) -> dict[int, int]:
    """{prime: exponent} of 1 <= n < len(spf), primes ascending, by sieve
    lookups; iterating it gives the distinct primes."""
    out = {}
    while n > 1:
        p = spf[n] or n
        n //= p
        e = 1
        while n % p == 0:
            n //= p
            e += 1
        out[p] = e
    return out


def _sieve_primes(spf, n: int) -> list[int]:
    """The keys of ``_sieve_factors(spf, n)``, walked without a dict."""
    out = []
    while n > 1:
        out.append(p := spf[n] or n)
        n //= p
        while n % p == 0:
            n //= p
    return out


def _lcm_up_to(bound: int) -> int:
    """lcm(1, ..., bound): the product of the largest power <= bound of each
    prime <= bound, the primes read off the sieve."""
    out = 1
    for p in primes_up_to(bound):
        pk = p
        while pk * p <= bound:
            pk *= p
        out *= pk
    return out


_TRIAL_PRIMES = tuple(primes_up_to(1024))
_TRIAL_LIMIT_SQ = 1024 * 1024

# Pollard p - 1 raises to lcm(1, ..., 2048) (2,945 bits) in stage 1, and
# the elliptic curve method to lcm(1, ..., 256) (363 bits).  Both share stage
# 2: it pairs giant steps 210 k, k = 11 .. 120, with the 24 baby steps
# j < 105 prime to 210: 210 k +- j covers every prime from 2,207 to 25,303,
# and a smaller prime r through a multiple r t prime to 210 in that range,
# so a lower band would add none.  ``_STAGE2_TABLE`` drops the pairs that
# cover no prime above 256 that the others miss.
_P1_EXPONENT = _lcm_up_to(2048)
_ECM_EXPONENT = _lcm_up_to(256)
_STAGE2_GIANTS = range(11, 121)
_STAGE2_BABIES = tuple(j for j in range(1, 105, 2) if math.gcd(j, 210) == 1)


def _stage2_table() -> tuple[tuple[bool, ...], ...]:
    """For each giant 210 k, which babies j stage 2 pairs it with: those
    with 210 k - j or 210 k + j prime, and for each prime 256 < r < 2,207
    that no such pair covers, the first pair with a multiple of r.  That is
    1,929 of the 2,640 pairs, and they cover the same primes in (256,
    25,303] as all of them; the primes up to 256 are in both stage 1s."""
    top = 210 * _STAGE2_GIANTS[-1] + 105
    spf = smallest_prime_factors(top)
    hit = bytearray(top)  # hit[t]: t = 210 k +- j for a kept pair (k, j)
    table = []
    for g in range(210 * _STAGE2_GIANTS[0], top, 210):
        row = [not (spf[g - j] and spf[g + j]) for j in _STAGE2_BABIES]
        for j in compress(_STAGE2_BABIES, row):
            hit[g - j] = hit[g + j] = 1
        table.append(row)
    start = 210 * _STAGE2_GIANTS[0] - 105
    for r in compress(range(257, start), map(operator.not_, spf[257:start])):
        first = -(-start // r) * r
        if not any(hit[first::r]):
            t = next(t for t in range(first, top, r) if math.gcd(t, 210) == 1)
            g = (t + 105) // 210 * 210
            table[g // 210 - _STAGE2_GIANTS[0]][_STAGE2_BABIES.index(abs(t - g))] = True
            hit[t] = hit[2 * g - t] = 1
    return tuple(map(tuple, table))


_STAGE2_TABLE = _stage2_table()


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a | n) for odd n > 0, by quadratic reciprocity."""
    t = 1
    while a := a % n:
        z = (a & -a).bit_length() - 1  # a = 2^z times an odd number
        if z & 1 and n % 8 in (3, 5):
            t = -t
        a >>= z
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a, n = n, a
    return t if n == 1 else 0


def is_prime(n: int) -> bool:
    """Deterministic primality test for all n < 2^64 (no probabilistic error).

    Trial division by the twelve primes up to 37, then Baillie-PSW: a strong
    test to base 2 and ``_strong_lucas``, which no composite below 2^64
    passes both of (Baillie, Fiori and Wagstaff, Math. Comp. 2021).  Above
    U64_MAX a failed test still proves n composite, but an n that passes
    both is a DomainError.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    x = pow(2, (n - 1) >> s, n)
    if x != 1 and x != n - 1:
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if math.isqrt(n) ** 2 == n or not _strong_lucas(n):  # a square has no D
        return False
    if n > U64_MAX:
        raise DomainError(f"{n} passes every witness base of the BPSW test but exceeds 2^64 - 1")
    return True


def _strong_lucas(n: int) -> bool:
    """The strong Lucas test (Baillie and Wagstaff, Math. Comp. 1980) of an
    odd non-square n > 37, with Selfridge's P = 1 and Q = (1 - D) / 4 for
    the first D of 5, -7, 9, -11, ... with (D | n) = -1: for n + 1 = d 2^s,
    d odd, U_d = 0 or V_(d 2^r) = 0 (mod n) for some 0 <= r < s.

    It runs ``_lucas_ladder`` with P' = 1 / Q - 2, whose W_i is V_2i / Q^i:
    for d = 2 j + 1, V_d = Q^(j+1) (W_j + W_j+1), D U_d = 2 V_d+1 - V_d
    = Q^(j+1) (W_j+1 - W_j) and V_(d 2^r) = Q^(d 2^(r-1)) W_(d 2^(r-1)).  A
    prime of both n and Q leaves every U_i and V_i, i >= 1, at 1 mod it."""
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = 2 - D if D < 0 else -D - 2
    q = (1 - D) // 4
    if j == 0 or math.gcd(q, n) != 1:  # a prime of n divides D or Q
        return False
    p = (pow(q, -1, n) - 2) % n
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d 2^s, d odd
    w0, w1 = _lucas_ladder((n + 1) >> (s + 1), n, p)  # W_j, W_j+1
    if w0 == w1 or (w0 + w1) % n == 0:  # U_d = 0 or V_d = 0
        return True
    w = (w0 * w1 - p) % n  # W_d
    for _ in range(s - 1):
        if w == 0:
            return True
        w = (w * w - 2) % n
    return False


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


def _lucas_ladder(j: int, m: int, p: int = 3) -> tuple[int, int]:
    """(V_j mod m, V_j+1 mod m) of the Lucas sequence V(p, 1) for j >= 0, by
    two multiplications a bit; for p = 3 that is (L_2j, L_2j+2).

    V_0 = 2, V_1 = p and V_k+1 = p V_k - V_k-1; p = 3 gives V_k = L_2k, the
    sequence of phi^2 (phi^2 + psi^2 = 3, phi^2 psi^2 = 1).  The ladder keeps
    (V_k, V_k+1) with V_2k = V_k^2 - 2 and V_2k+1 = V_k V_k+1 - p (Joye and
    Quisquater, "Efficient computation of full Lucas sequences", 1996).
    """
    if j <= 0:
        return 2 % m, p % m
    v, w = p % m, (p * p - 2) % m  # (V_1, V_2): the leading bit of j
    for bit in bin(j)[3:]:
        if bit == "1":
            v, w = (v * w - p) % m, (w * w - 2) % m
        else:
            v, w = (v * v - 2) % m, (v * w - p) % m
    return v, w


def _stage2_multiples(p, add, dbl):
    """(babies, giants): j p for the 24 j < 105 prime to 210, and 210 k p
    for k in ``_STAGE2_GIANTS``, by differential chains: add(a, b, d) is
    a + b given d = a - b, and dbl(a) is 2 a."""
    two = dbl(p)
    odd = [p, add(two, p, p)]  # odd[i] = (2 i + 1) p, up to 105 p
    while len(odd) < 53:
        odd.append(add(odd[-1], two, odd[-2]))
    step = dbl(odd[-1])  # 210 p
    giants = [step, dbl(step)]  # 210 k p from k = 1
    while len(giants) < _STAGE2_GIANTS[-1]:
        giants.append(add(giants[-1], step, giants[-2]))
    babies = [odd[j // 2] for j in _STAGE2_BABIES]
    return babies, giants[_STAGE2_GIANTS[0] - 1:]


def _stage2(babies, giants, n: int) -> int:
    """gcd(n, product of g - b over the giants g and the babies b that
    ``_STAGE2_TABLE`` pairs).

    Each value is x(i Q) for the stage-1 result Q, with x(-Q) = x(Q): the
    Lucas value a^i + a^-i for p - 1, a point's x-coordinate for ECM.  A
    prime q of n divides x(210 k Q) - x(j Q) when 210 k Q = +-j Q mod q, that
    is when the order of Q mod q divides 210 k - j or 210 k + j (Montgomery,
    "Speeding the Pollard and elliptic curve methods of factorization", 1987).
    The table keeps the pairs that cover a prime order above 256.
    """
    acc = 1
    for g, row in zip(giants, _STAGE2_TABLE):
        for b in compress(babies, row):
            acc = acc * (g - b) % n
    return math.gcd(acc, n)


def _p_minus_1(n: int) -> int:
    """A proper divisor of an odd composite n by Pollard's p - 1, or 0.

    It finds a prime factor p of n when the order of 2 mod p divides
    E = lcm(1, ..., 2048) (stage 1), or E times one prime from 257 to
    25,303 (stage 2: every prime from 2,207 directly, a smaller one through
    a multiple prime to 210 in that range), unless every prime factor of n
    is caught at once.  Never returns 1 or n.
    """
    a = pow(2, _P1_EXPONENT, n)
    g = math.gcd(a - 1, n)
    if g == 1:
        # V_i = a^i + a^-i: V_i+j = V_i V_j - V_i-j and V_2i = V_i^2 - 2
        babies, giants = _stage2_multiples(
            (a + pow(a, -1, n)) % n, lambda s, t, d: (s * t - d) % n, lambda s: (s * s - 2) % n)
        g = _stage2(babies, giants, n)
    return g if 1 < g < n else 0


def _xdbl(x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    """2 P for P = (x : z) on the Montgomery curve B y^2 = x^3 + A x^2 + x
    mod n, with a24 = (A + 2) / 4 (Montgomery 1987)."""
    s = (x + z) * (x + z) % n
    d = (x - z) * (x - z) % n
    t = s - d  # 4 x z
    return s * d % n, t * (d + a24 * t) % n


def _xadd(xa: int, za: int, xb: int, zb: int, xd: int, zd: int, n: int) -> tuple[int, int]:
    """P + Q for P = (xa : za) and Q = (xb : zb), given D = P - Q = (xd : zd),
    on any Montgomery curve mod n."""
    u = (xa - za) * (xb + zb) % n
    v = (xa + za) * (xb - zb) % n
    return zd * (u + v) ** 2 % n, xd * (u - v) ** 2 % n


def _ladder(k: int, x: int, a24: int, n: int) -> tuple[int, int]:
    """k P for k >= 1 and P = (x : 1), by Montgomery's ladder: it keeps
    (k' P, (k' + 1) P) for the leading bits k' of k, whose difference is P.
    Each bit adds the two (``_xadd`` with D = P, so Z_D = 1 drops a product)
    and doubles one (``_xdbl``), from X +- Z worked out once per point."""
    x0, z0 = x, 1
    x1, z1 = _xdbl(x, 1, a24, n)
    for bit in bin(k)[3:]:
        s0, d0, s1, d1 = x0 + z0, x0 - z0, x1 + z1, x1 - z1
        u, v = d1 * s0 % n, s1 * d0 % n
        w, y = u + v, u - v
        if bit == "1":
            s, d = s1 * s1 % n, d1 * d1 % n
            t = s - d
            x0, z0, x1, z1 = w * w % n, x * y * y % n, s * d % n, t * (d + a24 * t) % n
        else:
            s, d = s0 * s0 % n, d0 * d0 % n
            t = s - d
            x0, z0, x1, z1 = s * d % n, t * (d + a24 * t) % n, w * w % n, x * y * y % n
    return x0, z0


def _ecm_stage2(x: int, z: int, a24: int, n: int) -> int:
    """ECM's stage 2 from Q = (x : z): ``_stage2`` on the x = X / Z of Q's
    stage-2 multiples, or, when the product of their Zs is not prime to n,
    its gcd with n (Z = 0 mod q: the order of Q mod q divides that
    multiple)."""
    babies, giants = _stage2_multiples(
        (x, z), lambda p, q, d: _xadd(*p, *q, *d, n), lambda p: _xdbl(*p, a24, n))
    points = babies + giants
    prefix = [1]  # prefix[i] = product of the first i Zs
    for _, zi in points:
        prefix.append(prefix[-1] * zi % n)
    g = math.gcd(prefix[-1], n)
    if g != 1:
        return g
    # one inversion for all (Montgomery's trick): inv = 1 / prefix[i + 1]
    inv = pow(prefix[-1], -1, n)
    xs = [0] * len(points)
    for i in range(len(points) - 1, -1, -1):
        xi, zi = points[i]
        xs[i] = xi * prefix[i] % n * inv % n
        inv = inv * zi % n
    return _stage2(xs[: len(babies)], xs[len(babies):], n)


def _suyama(sigma: int, n: int) -> tuple[int, int]:
    """Suyama's curve sigma mod n, for n prime to 2 sigma (sigma^2 - 5): the
    start's x = u^3 / v^3, u = sigma^2 - 5 and v = 4 sigma, as the point
    (x : 1), and a24 = (A + 2) / 4 = (v - u)^3 (3 u + v) / (16 u^3 v) of its
    curve B y^2 = x^3 + A x^2 + x, whose group order mod a prime where it is
    nonsingular is a multiple of 12 (Montgomery 1987).  (u^3 : v^3) is the
    same point scaled by the unit v^3, so every gcd that ECM takes is too."""
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    u3 = pow(u, 3, n)
    return u3 * pow(v, -3, n) % n, pow(v - u, 3, n) * (3 * u + v) * pow(16 * u3 * v, -1, n) % n


def _ecm(n: int) -> int:
    """A proper divisor of a composite n prime to 6 by Lenstra's elliptic
    curve method ("Factoring integers with elliptic curves", Annals of Math.
    1987); never 1 or n.

    Curve sigma = 6, 7, ... (``_suyama``) finds a prime q of n when its
    start's order mod q divides E = lcm(1, ..., 256) (stage 1), or E times
    one prime from 257 to 25,303 (stage 2, as in p - 1).  One that catches no
    prime of n, or every prime at once, gives way to the next.
    """
    for sigma in count(6):
        # 16 u^3 v is prime to the odd n exactly when sigma (sigma^2 - 5) is
        g = math.gcd(sigma * (sigma * sigma - 5), n)
        if g == 1:
            x, a24 = _suyama(sigma, n)
            x, z = _ladder(_ECM_EXPONENT, x, a24, n)
            g = math.gcd(z, n)
            if g == 1:
                g = _ecm_stage2(x, z, a24, n)
        if 1 < g < n:
            return g


def _brent_rho(n: int, c: int) -> int:
    """One non-trivial factor of an odd composite n (Brent's cycle variant).

    The walk is y -> y^2 + c from y = c, with c taken into 1 .. n - 1.
    Its rounds run up to 256 steps: they split most class-bound cofactors.
    Where a longer round would start, one ``_p_minus_1`` pass and, when that
    finds nothing, ``_ecm`` give the factor instead: a rho walk to a 31-bit
    factor takes about sqrt(p) steps, three times what ECM takes.
    """
    while True:
        c = c % (n - 1) + 1
        m = 128
        g = r = q = 1
        x = ys = y = c
        while g == 1:
            if r > 256:
                return _p_minus_1(n) or _ecm(n)
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
        # cycle degenerated; retry with the next constant, c + 1


def _factor_pairs(n: int, seed: int | None = None) -> list[tuple[int, int]]:
    """Sorted (prime, exponent) pairs for n >= 1 (none for 1); trial
    division below 1024, then Brent's rho rounds up to 256 steps, then one
    p - 1 pass and, when that finds nothing, ECM."""
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
    # Deterministic by default: rho's starting constant is derived from
    # (n, seed), so failures reproduce without an explicit seed.
    c = (n * 0x9E3779B97F4A7C15 ^ (seed or 0)) & U64_MAX
    # no part has a prime factor <= min(1024, its square root): below 1024^2 it is prime
    stack = [n] if n > 1 else []
    while stack:
        v = stack.pop()
        if v < _TRIAL_LIMIT_SQ or is_prime(v):
            counts[v] = counts.get(v, 0) + 1
            continue
        d = _brent_rho(v, c)
        stack += (d, v // d)
    return sorted(counts.items())


def factorize(n: int, *, seed: int | None = None) -> Factorization:
    """Canonical factorization of n >= 2; callers handle 1 themselves.

    Trial division removes factors below 1024, then Brent's rho, with a
    deterministic primality check on every part, splits what remains.  Where
    its rounds would pass 256 steps, one Pollard p - 1 pass (stage-1 bound
    2048) and, when that finds nothing, the elliptic curve method (stage-1
    bound 256, one curve after another) split the part instead; both have
    stage-2 bound 25,303.  ``seed`` only varies rho's starting constant; the
    result is the same for every seed.
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
        block = divs[:]
        for k in range(1, e + 1):
            divs += map((p**k).__mul__, block)
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
    """Square roots of a modulo an odd prime p, by Tonelli-Shanks.

    Returns the pair (r, p - r) with r <= p - r when a is a quadratic
    residue, (0, 0) for a = 0, and None for a non-residue.
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise DomainError(f"{p} is not an odd prime")
    if not 0 <= a < p:
        raise DomainError(f"residue {a} out of range for modulus {p}")
    if a == 0:
        return (0, 0)
    if pow(a, (p - 1) // 2, p) != 1:
        return None
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
    if not 1 <= g < p:
        raise DomainError(f"residue {g} must satisfy 1 <= g < p = {p}")
    if fact_p_minus_1.value() != p - 1:
        raise DomainError("factorization does not factor p - 1")
    for q in fact_p_minus_1.primes():
        if not is_prime(q):
            raise DomainError(f"factorization of p - 1 lists {q}, which is not prime")
    if pow(g, p - 1, p) != 1:  # then p is not prime, or g shares a factor with p
        raise DomainError(f"p - 1 is not a multiple of {g}'s order mod {p}: is p prime?")
    k = p - 1
    for q, _ in fact_p_minus_1.factors:
        while k % q == 0 and pow(g, k // q, p) == 1:
            k //= q
    return k
