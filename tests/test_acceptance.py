"""Acceptance gate: eleven criteria, one test and one printed verdict line
each.  Verdicts also land in the end-of-run summary via conftest."""

import math
import time

from conftest import record_verdict

from pisano.analysis import (
    filter_agreement_scan,
    irreducible_product_scan,
    lucas_ratio_scan,
    ratio_scan,
    wall_property_scan,
)
from pisano.fibmod import brute_period, fib_pair, lucas_brute_period
from pisano.numth import primes_up_to
from pisano.periods import (
    classify_prime,
    clear_caches,
    lucas_period,
    period_bound,
    pisano_period,
    prime_period,
    prime_power_period,
    PrimeClass,
)
from pisano.theorems import fib_index_period, fibonacci_primitive_root


def verdict(n, ok, detail):
    line = f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    record_verdict(line)
    assert ok, line


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = [m for m in range(1, 10**4 + 1)
                  if pisano_period(m).period != brute_period(m).period]
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 30.0
    detail = f"pisano_period = brute_period for all m <= 10^4 in {elapsed:.1f}s"
    if mismatches:
        detail += f"; first mismatches {mismatches[:5]}"
    verdict(1, ok, detail)


def test_criterion_02_known_constants():
    checks = [prime_period(5).period == 20]
    checks += [prime_power_period(2, n).period == 3 * 2 ** (n - 1)
               for n in range(1, 11)]
    checks += [prime_power_period(3, n).period == 8 * 3 ** (n - 1)
               for n in range(1, 11)]
    checks += [prime_power_period(5, n).period == 4 * 5**n for n in range(1, 9)]
    checks += [lucas_period(5**n).period == 4 * 5 ** (n - 1) for n in range(1, 9)]
    verdict(2, all(checks),
            "h(5)=20; h(2^n)=3*2^(n-1), h(3^n)=8*3^(n-1) for n<=10; "
            "h(5^n)=4*5^n and Lucas 4*5^(n-1) for n<=8")


def test_criterion_03_six_m_bound_and_equality_set():
    t0 = time.perf_counter()
    s = ratio_scan(10**6)
    elapsed = time.perf_counter() - t0
    expected = (10, 50, 250, 1250, 6250, 31250, 156250, 781250)
    ok = s.equality_set == expected and s.max_ratio == (60, 10)
    verdict(3, ok,
            f"h(m) <= 6m for all m <= 10^6; equality exactly at "
            f"{{{','.join(str(v) for v in expected)}}} ({elapsed:.0f}s)")


def test_criterion_04_irreducible_product_bound():
    s = irreducible_product_scan(10**5)
    num, den = s.max_ratio
    ok = s.checked > 0 and num < 4 * den
    verdict(4, ok,
            f"h(m)/m < 4 for all {s.checked} odd-irreducible-factored m <= 10^5"
            f" (max {num}/{den} at m={s.max_at})")


def test_criterion_05_lucas_maximum():
    s = lucas_ratio_scan(10**4)
    ok = s.max_ratio == (24, 6) and s.attained == (6,)
    verdict(5, ok,
            f"max Lucas period ratio over m <= 10^4 is 4, attained only at "
            f"m = 6 (got {s.max_ratio[0]}/{s.max_ratio[1]} at "
            f"{list(s.attained)})")


def test_criterion_06_class_bound_divisibility():
    exceptions = []
    for p in primes_up_to(10**5):
        cls = classify_prime(p)
        if cls not in (PrimeClass.SPLIT, PrimeClass.IRREDUCIBLE):
            continue
        if period_bound(p) % prime_period(p).period != 0:
            exceptions.append(p)
    detail = ("h(p) | p-1 for split and h(p) | 2p+2 for irreducible primes"
              " p <= 10^5")
    if exceptions:
        detail += f"; exceptions {exceptions[:5]}"
    verdict(6, not exceptions, detail)


def test_criterion_07_index_law():
    bad = [m for m in range(4, 61) if not fib_index_period(m).agrees]
    detail = "h(F_m) = 2m (even m) / 4m (odd m) for 4 <= m <= 60"
    if bad:
        detail += f"; failures at {bad}"
    verdict(7, not bad, detail)


def test_criterion_08_fpr_implies_full_period():
    violations = []
    with_fpr = 0
    for p in primes_up_to(10**4):
        if classify_prime(p) is not PrimeClass.SPLIT:
            continue
        if fibonacci_primitive_root(p).has_fpr:
            with_fpr += 1
            if prime_period(p).period != p - 1:
                violations.append(p)
    detail = (f"h(p) = p-1 for every split prime p <= 10^4 with a Fibonacci"
              f" primitive root ({with_fpr} such primes)")
    if violations:
        detail += f"; violations {violations[:5]}"
    verdict(8, not violations, detail)


def test_criterion_09_wall_properties():
    s = wall_property_scan(10**4, divisor_limit=5000)
    ok = s.parity_checked == 10**4 - 2 and s.divisibility_checked > 0
    verdict(9, ok,
            f"h(m) even for 2 < m <= 10^4 ({s.parity_checked} checked); "
            f"h(n) | h(m) for n | m <= 5000 ({s.divisibility_checked} pairs)")


def test_criterion_10_filter_diagnostic():
    s = filter_agreement_scan(10**4)
    membership = all(r.true_period_in_divisors for r in s.reports)
    ok = s.total > 0 and membership
    agree, total = s.agreement_rate
    detail = (f"filters ran for {total} primes <= 10^4; h(p) in divisor set "
              f"for every prime; agreement rate {agree}/{total}")
    disagreeing = [r.prime for r in s.disagreements]
    if disagreeing:
        detail += f"; disagreements listed at {disagreeing[:10]}"
    verdict(10, ok, detail)


def test_criterion_11_performance_at_scale():
    cases = [
        (10**18, math.lcm(3 * 2**17, 4 * 5**18)),
        (2**61 - 1, None),
        (999999999999999989, None),
        (1000000007 * 1000000009, None),
    ]
    timings = []
    ok = True
    for m, expected in cases:
        clear_caches()
        t0 = time.perf_counter()
        res = pisano_period(m)
        elapsed = time.perf_counter() - t0
        timings.append(f"{m}: {elapsed * 1000:.0f}ms")
        if elapsed >= 1.0:
            ok = False
        if expected is not None and res.period != expected:
            ok = False
        if fib_pair(res.period, m).as_tuple() != (0, 1):
            ok = False
    verdict(11, ok, "period at 10^18 scale under 1s each (" +
            "; ".join(timings) + ")")
