"""Fibonacci and Lucas periods modulo m.

The period h(m) is computed by composition: factor m, find h(p) for each
prime as the order of the pair (0, 1) by dividing primes out of its class
bound (p - 1 or 2p + 2), find h(p^e) the same way from p^(e-1) h(p), and
take the lcm.  The Lucas period is the order of (2, 1), divided down from
h(m).
A brute-force oracle and range scans over the global bounds (h(m) <= 6m and
friends) keep the fast paths honest.
"""

from .errors import (
    ClaimViolationError,
    DomainError,
    OracleCapError,
    PeriodOverflowError,
    PisanoError,
)
from .numth import (
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
)
from .fibmod import (
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
from .periods import (
    PrimeClass,
    classify_prime,
    lucas_period,
    period_bound,
    pisano_period,
    prime_period,
    prime_power_period,
)
from .theorems import (
    FibIndexResult,
    FilterReport,
    FprResult,
    fib_index_period,
    fibonacci_primitive_root,
    theorem1_candidates,
    theorem1_period,
    theorem2_candidates,
    theorem2_period,
)
from .analysis import (
    Flag,
    ScanRecord,
    filter_agreement_scan,
    irreducible_product_scan,
    lucas_ratio_scan,
    ratio_scan,
    wall_property_scan,
)

__version__ = "0.1.0"

__all__ = [
    "ClaimViolationError", "DomainError", "OracleCapError",
    "PeriodOverflowError", "PisanoError",
    "MODULUS_MAX", "U64_MAX", "DivisorSet", "Factorization", "divisors",
    "factorize", "gcd", "is_prime", "lcm", "mod_sqrt", "mulmod",
    "multiplicative_order", "powmod", "primes_up_to",
    "DEFAULT_ORACLE_CAP", "Method", "PeriodResult", "ResiduePair",
    "brute_period", "fib_exact", "fib_pair", "lucas_brute_period",
    "lucas_pair", "oracle_cap",
    "PrimeClass", "classify_prime", "lucas_period", "period_bound",
    "pisano_period", "prime_period", "prime_power_period",
    "FibIndexResult", "FilterReport", "FprResult", "fib_index_period",
    "fibonacci_primitive_root", "theorem1_candidates", "theorem1_period",
    "theorem2_candidates", "theorem2_period",
    "Flag", "ScanRecord", "filter_agreement_scan",
    "irreducible_product_scan", "lucas_ratio_scan", "ratio_scan",
    "wall_property_scan",
]
