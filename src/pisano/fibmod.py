"""Fibonacci and Lucas values modulo m, plus the brute-force period oracle.

The oracle iterates the pair recurrence literally, one step at a time, and
is the ground truth every fast path is checked against.  All functions are
pure and thread-safe.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field

from .errors import ClaimViolationError, DomainError, OracleCapError
from .numth import MODULUS_MAX

DEFAULT_ORACLE_CAP = 10_000_000
ORACLE_CAP_ENV = "PISANO_ORACLE_CAP"


def oracle_cap() -> int:
    """Current brute-force modulus cap (PISANO_ORACLE_CAP overrides the default)."""
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise DomainError(f"{ORACLE_CAP_ENV}={raw!r} is not an integer") from exc


class Method(enum.Enum):
    """Which path produced a period."""

    BRUTE_FORCE = "BruteForce"
    PRIME_DIVISOR_SEARCH = "PrimeDivisorSearch"
    PRIME_POWER_LIFT = "PrimePowerLift"
    LCM_COMPOSITION = "LcmComposition"
    THEOREM1_FILTER = "Theorem1Filter"
    THEOREM2_FILTER = "Theorem2Filter"
    FIB_INDEX_LAW = "FibIndexLaw"


@dataclass(frozen=True)
class ResiduePair:
    """A consecutive pair (F_n mod m, F_{n+1} mod m); the recurrence state."""

    lo: int
    hi: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise DomainError(f"modulus {self.modulus} must be >= 1")
        if not (0 <= self.lo < self.modulus and 0 <= self.hi < self.modulus):
            raise DomainError("residues must lie below the modulus")

    def step(self) -> "ResiduePair":
        """Successor pair (hi, lo + hi mod m); total and deterministic."""
        return ResiduePair(self.hi, (self.lo + self.hi) % self.modulus, self.modulus)

    def as_tuple(self) -> tuple[int, int]:
        return (self.lo, self.hi)


@dataclass(frozen=True)
class PeriodResult:
    """A computed period with provenance.

    ``lift_escalations`` counts the factors of p the prime-power lift divided
    out of p^(e-1) h(p); it stays 0 unless h(p^2) = h(p) for some p | m,
    which would make p a Wall-Sun-Sun prime (none is known).
    """

    modulus: int
    period: int
    method: Method
    lift_escalations: int = field(default=0, compare=False)


def _check_modulus(m: int) -> None:
    if m < 1:
        raise DomainError(f"modulus {m} must be >= 1")
    if m > MODULUS_MAX:
        raise DomainError(f"modulus {m} exceeds the supported domain 2^63 - 1")


def _fib_pair_ints(n: int, m: int) -> tuple[int, int]:
    """(F_n mod m, F_{n+1} mod m) by fast doubling:
    F_2k = F_k (2 F_{k+1} - F_k),  F_2k+1 = F_k^2 + F_{k+1}^2.
    """
    a, b = 0, 1 % m
    if n <= 0:
        return a, b
    mask = 1 << (n.bit_length() - 1)
    while mask:
        t = (b + b - a) % m
        c = a * t % m
        d = (a * a + b * b) % m
        if n & mask:
            a, b = d, (c + d) % m
        else:
            a, b = c, d
        mask >>= 1
    return a, b


def fib_pair(n: int, m: int) -> ResiduePair:
    """(F_n mod m, F_{n+1} mod m) in O(log n) multiplications; F_0 = 0, F_1 = 1."""
    _check_modulus(m)
    if n < 0:
        raise DomainError(f"index {n} must be >= 0")
    lo, hi = _fib_pair_ints(n, m)
    return ResiduePair(lo, hi, m)


def _lucas_pair_ints(n: int, m: int) -> tuple[int, int]:
    # L_n = 2 F_{n+1} - F_n and L_{n+1} = 2 F_n + F_{n+1}
    a, b = _fib_pair_ints(n, m)
    return (2 * b - a) % m, (2 * a + b) % m


def lucas_pair(n: int, m: int) -> ResiduePair:
    """(L_n mod m, L_{n+1} mod m) with L_0 = 2, L_1 = 1."""
    _check_modulus(m)
    if n < 0:
        raise DomainError(f"index {n} must be >= 0")
    lo, hi = _lucas_pair_ints(n, m)
    return ResiduePair(lo, hi, m)


def fib_exact(n: int) -> int:
    """Exact integer F_n (no modulus)."""
    if n < 0:
        raise DomainError(f"index {n} must be >= 0")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _orbit_length(s0: int, s1: int, m: int) -> int:
    """Steps until the pair recurrence returns to (s0, s1) mod m.

    The step map is a bijection on at most m^2 pair states, so the orbit
    closes within m^2 steps; exceeding that would mean a broken recurrence.
    """
    a, b = s0, s1
    limit = m * m
    for n in range(1, limit + 1):
        a, b = b, (a + b) % m
        if a == s0 and b == s1:
            return n
    raise ClaimViolationError(f"pair orbit mod {m} did not close within {limit} steps")


def _check_oracle_domain(m: int, cap: int | None) -> None:
    _check_modulus(m)
    effective = oracle_cap() if cap is None else cap
    if m > effective:
        raise OracleCapError(
            f"modulus {m} exceeds the oracle cap {effective};"
            " use pisano_period for large moduli"
        )


def brute_period(m: int, cap: int | None = None) -> PeriodResult:
    """The definitional period oracle: iterate the pair recurrence from
    (0, 1) until (0, 1) recurs, counting steps.  No shortcuts.
    """
    _check_oracle_domain(m, cap)
    n = _orbit_length(0, 1 % m, m)
    return PeriodResult(m, n, Method.BRUTE_FORCE)


def lucas_brute_period(m: int, cap: int | None = None) -> PeriodResult:
    """As brute_period, but iterating from the Lucas start pair (2, 1)."""
    _check_oracle_domain(m, cap)
    n = _orbit_length(2 % m, 1 % m, m)
    return PeriodResult(m, n, Method.BRUTE_FORCE)
