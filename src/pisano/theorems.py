"""Faithful realizations of the source theorems' own procedures.

The divisor filters are implemented exactly as stated, their F_{d+1} = 1
congruence test is decided from h(p) and confirmed by one Lucas ladder
(see ``_filter_report``), and the answer is *compared* against the
ground-truth period; a FilterReport records the comparison and never
asserts agreement, so any unsoundness in the filter conditions surfaces as
data instead of a crash.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ClaimViolationError, DomainError, PeriodOverflowError
from .fibmod import Method, PeriodResult, fib_exact
from .numth import (
    DivisorSet,
    Factorization,
    _lucas_ladder,
    divisors,
    factorize,
    mod_sqrt,
    multiplicative_order,
)
from .periods import (
    PrimeClass,
    classify_prime,
    pisano_period,
    prime_period,
)


@dataclass(frozen=True)
class FilterReport:
    """Outcome of running a divisor filter against the true period."""

    prime: int
    bound: int
    all_divisors: DivisorSet
    surviving: tuple[int, ...]
    filter_answer: int | None
    true_period: int

    @property
    def agrees(self) -> bool:
        return self.filter_answer == self.true_period

    @property
    def true_period_in_divisors(self) -> bool:
        """The assertable part: the divisibility theorem puts h(p) in the set."""
        return self.true_period in self.all_divisors


@dataclass(frozen=True)
class FprResult:
    """Roots of g^2 = g + 1 mod p and which of them generate the full group."""

    prime: int
    roots: tuple[int, ...]
    orders: tuple[int, ...]
    primitive_roots_among_them: tuple[int, ...]
    has_fpr: bool


@dataclass(frozen=True)
class FibIndexResult:
    """Predicted vs computed period when the modulus is a Fibonacci number."""

    index: int
    fib: int
    predicted: int
    computed: PeriodResult

    @property
    def agrees(self) -> bool:
        return self.predicted == self.computed.period


def _require_class(p: int, wanted: PrimeClass) -> None:
    cls = classify_prime(p)
    if cls is not wanted:
        raise DomainError(f"{p} is {cls.value}, expected {wanted.value}")


def _theorem1_filter(p: int, divs) -> list[int]:
    half_pp1 = p * (p + 1) // 2
    return [d for d in divs if half_pp1 % d and (p + 1) % d and (3 * (p - 1)) % d]


def _theorem2_filter(p: int, divs) -> list[int]:
    return [d for d in divs if (p + 1) % d and d % 2 == 0]


def theorem1_candidates(p: int) -> list[int]:
    """Divisors d of 2p+2 with d not dividing p(p+1)/2, p+1, or 3(p-1).

    Applies to odd primes p = +-2 (mod 5).
    """
    _require_class(p, PrimeClass.IRREDUCIBLE)
    return _theorem1_filter(p, divisors(factorize(2 * p + 2)))


def theorem2_candidates(p: int) -> list[int]:
    """Even divisors d of p-1 with d not dividing p+1.

    Applies to primes p = +-1 (mod 5).
    """
    _require_class(p, PrimeClass.SPLIT)
    return _theorem2_filter(p, divisors(factorize(p - 1)))


def _filter_report(p: int, true_period: int, factors: Factorization) -> FilterReport:
    """The filter of p's class run against h(p) = ``true_period``, over the
    divisors of p's class bound, factored as ``factors``; p must be a prime
    other than 2 and 5 (not checked here).

    The filter's answer is its first candidate d with F_{d+1} = 1 (mod p).
    Every candidate is even (Theorem 2 asks for it; a divisor of 2p + 2
    that does not divide p + 1 keeps all of its 2s), and for even d that
    congruence holds exactly when h | d or h | d + 2, so the answer is read
    off h.  Proof: let phi and psi = -1/phi be the roots of x^2 - x - 1 in
    GF(p) or GF(p^2).  For even d, sqrt(5) F_{d+1} = x + 1/x with
    x = phi^(d+1), and sqrt(5) = phi + 1/phi, so F_{d+1} = 1 exactly when
    x = phi or x = 1/phi, that is phi^d = 1 or phi^(d+2) = 1; for even n,
    phi^n = 1 exactly when (0, 1) returns at n, that is h | n.

    The chosen d is confirmed by one Lucas ladder, L_d + L_{d+2} = 5
    (mod p) (5 F_n = L_{n-1} + L_{n+1} and 5 is a unit mod p), so that a
    wrong h cannot pass a d that fails F_{d+1} = 1: that is a
    ClaimViolationError.  No ladder runs when no candidate passes.
    """
    split = p % 5 in (1, 4)
    all_divisors = divisors(factors)
    candidates = (_theorem2_filter if split else _theorem1_filter)(p, all_divisors)
    h = true_period
    filter_answer = next((d for d in candidates if d % h == 0 or (d + 2) % h == 0),
                         None)
    if filter_answer is not None:
        lo, hi = _lucas_ladder(filter_answer // 2, p)
        if (lo + hi) % p != 5 % p:
            raise ClaimViolationError(
                f"filter answer {filter_answer} for p = {p} fails F_{{d+1}} = 1"
                f" (mod p) although h({p}) = {h} divides d or d + 2",
                details=[(p, filter_answer, h)],
            )
    return FilterReport(
        prime=p,
        bound=all_divisors.source,
        all_divisors=all_divisors,
        surviving=tuple(candidates),
        filter_answer=filter_answer,
        true_period=true_period,
    )


def theorem1_period(p: int) -> FilterReport:
    """Run the 2p+2 divisor filter and report its answer next to h(p)."""
    _require_class(p, PrimeClass.IRREDUCIBLE)
    return _filter_report(p, prime_period(p).period, factorize(2 * p + 2))


def theorem2_period(p: int) -> FilterReport:
    """Run the p-1 divisor filter and report its answer next to h(p)."""
    _require_class(p, PrimeClass.SPLIT)
    return _filter_report(p, prime_period(p).period, factorize(p - 1))


def fibonacci_primitive_root(p: int) -> FprResult:
    """Solve g^2 = g + 1 (mod p) and test each root for full order p-1.

    Defined where 5 is a quadratic residue: split primes, plus the double
    root case p = 5.  The roots are (1 +- sqrt 5) / 2 mod p.
    """
    if p != 5:
        _require_class(p, PrimeClass.SPLIT)
    inv2 = pow(2, -1, p)
    if p == 5:
        roots = ((1 * inv2) % p,)  # sqrt(5) = 0 mod 5: a double root
    else:
        s = mod_sqrt(5 % p, p)
        if s is None:  # unreachable for split primes; defensive
            raise DomainError(f"5 is not a quadratic residue mod {p}")
        roots = ((1 + s[0]) * inv2 % p, (1 - s[0]) * inv2 % p)
    for g in roots:
        if (g * g - g - 1) % p:
            raise DomainError(f"internal: {g} does not solve g^2 = g + 1 mod {p}")
    fact = factorize(p - 1)
    orders = tuple(multiplicative_order(g, p, fact) for g in roots)
    primitive = tuple(g for g, k in zip(roots, orders) if k == p - 1)
    return FprResult(p, roots, orders, primitive, bool(primitive))


def fib_index_period(m: int) -> FibIndexResult:
    """Period of the Fibonacci sequence modulo F_m, with the parity-law
    prediction 2m (m even) or 4m (m odd) alongside the computed value."""
    if m <= 3:
        raise DomainError(f"index {m} must be > 3")
    if m > 92:  # F_92 is the last Fibonacci number <= 2^63 - 1
        raise PeriodOverflowError(
            f"F_{m} exceeds the modulus domain 2^63 - 1 (index {m} > 92)")
    fib = fib_exact(m)
    computed = pisano_period(fib)
    predicted = 2 * m if m % 2 == 0 else 4 * m
    return FibIndexResult(
        index=m,
        fib=fib,
        predicted=predicted,
        computed=PeriodResult(fib, computed.period, Method.FIB_INDEX_LAW,
                              computed.lift_escalations),
    )
