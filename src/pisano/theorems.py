"""Faithful realizations of the source theorems' own procedures.

The divisor filters and the F_{d+1} = 1 congruence test are implemented
exactly as stated and *compared* against the ground-truth period; a
FilterReport records the comparison and never asserts agreement, so any
unsoundness in the filter conditions surfaces as data instead of a crash.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, PeriodOverflowError
from .fibmod import Method, PeriodResult, _fib_pair_ints, fib_exact
from .numth import (
    MODULUS_MAX,
    DivisorSet,
    divisors,
    factorize,
    mod_sqrt,
    multiplicative_order,
)
from .periods import PrimeClass, classify_prime, pisano_period, prime_period


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


def _filter_report(p: int, true_period: int) -> FilterReport:
    """The filter of p's class run against h(p) = ``true_period``; p must be
    a prime other than 2 and 5 (not checked here)."""
    split = p % 5 in (1, 4)
    bound = p - 1 if split else 2 * p + 2
    all_divisors = divisors(factorize(bound))
    candidates = (_theorem2_filter if split else _theorem1_filter)(p, all_divisors)
    # the filter's own acceptance test is F_{d+1} = 1 (mod p), hi alone
    filter_answer = None
    for d in candidates:
        if _fib_pair_ints(d, p)[1] == 1:
            filter_answer = d
            break
    return FilterReport(
        prime=p,
        bound=bound,
        all_divisors=all_divisors,
        surviving=tuple(candidates),
        filter_answer=filter_answer,
        true_period=true_period,
    )


def theorem1_period(p: int) -> FilterReport:
    """Run the 2p+2 divisor filter and report its answer next to h(p)."""
    _require_class(p, PrimeClass.IRREDUCIBLE)
    return _filter_report(p, prime_period(p).period)


def theorem2_period(p: int) -> FilterReport:
    """Run the p-1 divisor filter and report its answer next to h(p)."""
    _require_class(p, PrimeClass.SPLIT)
    return _filter_report(p, prime_period(p).period)


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
    fib = fib_exact(m)
    if fib > MODULUS_MAX:
        raise PeriodOverflowError(f"F_{m} = {fib} exceeds the modulus domain")
    computed = pisano_period(fib)
    predicted = 2 * m if m % 2 == 0 else 4 * m
    return FibIndexResult(
        index=m,
        fib=fib,
        predicted=predicted,
        computed=PeriodResult(fib, computed.period, Method.FIB_INDEX_LAW,
                              computed.lift_escalations),
    )
