"""The sieve-driven period table behind the range scans, checked against the
per-m point path (pisano_period / lucas_period), which stays the reference,
and against the brute-force oracle."""

import subprocess
import sys
from fractions import Fraction

import pytest

from pisano import periods
from pisano.analysis import (
    Flag,
    filter_agreement_scan,
    irreducible_product_scan,
    lucas_ratio_scan,
    ratio_scan,
    wall_property_scan,
)
from pisano.cli import main
from pisano.errors import DomainError
from pisano.fibmod import Method, brute_period, lucas_brute_period
from pisano.numth import MODULUS_MAX, factorize, primes_up_to
from pisano.periods import (
    TABLE_METHODS,
    clear_caches,
    lucas_period,
    lucas_period_table,
    period_table,
    pisano_period,
)
from pisano.theorems import theorem1_period, theorem2_period

LIMIT = 5000
BRUTE_LIMIT = 2000


def new_maxima(records):
    """m of each record whose ratio beats every earlier one, by Fractions."""
    best, out = Fraction(0), set()
    for r in records:
        if Fraction(r.period, r.m) > best:
            best = Fraction(r.period, r.m)
            out.add(r.m)
    return out


def test_period_table_matches_point_path():
    table = period_table(LIMIT)
    lucas = lucas_period_table(table)
    assert len(table.period) == len(lucas) == LIMIT + 1
    for m in range(1, LIMIT + 1):
        h = pisano_period(m)
        got = (table.period[m], table.escalations[m], TABLE_METHODS[table.method[m]])
        assert got == (h.period, h.lift_escalations, h.method), m
        assert lucas[m] == lucas_period(m).period, m
    assert TABLE_METHODS[table.method[1]] is Method.LCM_COMPOSITION


def test_period_tables_match_brute_oracle():
    table = period_table(BRUTE_LIMIT)
    lucas = lucas_period_table(table)
    for m in range(1, BRUTE_LIMIT + 1):
        assert table.period[m] == brute_period(m).period, m
        assert lucas[m] == lucas_brute_period(m).period, m


def test_period_table_leaves_the_point_caches_alone():
    clear_caches()
    cold = dict(periods._PRIME_PERIOD_CACHE)
    period_table(1000)
    assert periods._PRIME_PERIOD_CACHE == cold
    assert periods._PRIME_POWER_CACHE == {}


def test_ratio_scan_records_match_point_path():
    records = []
    summary = ratio_scan(LIMIT, records.append)
    assert [r.m for r in records] == list(range(1, LIMIT + 1))
    maxima = new_maxima(records)
    for r in records:
        h = pisano_period(r.m)
        flags = set()
        if h.period == 6 * r.m:
            flags.add(Flag.RATIO_SIX)
        if r.m in maxima:
            flags.add(Flag.NEW_MAXIMUM)
        if h.lift_escalations:
            flags.add(Flag.LIFT_GUARD_TRIGGERED)
        assert (r.period, r.method, r.flags) == (h.period, h.method, frozenset(flags)), r.m
        if r.m <= BRUTE_LIMIT:
            assert r.period == brute_period(r.m).period, r.m
    assert summary.equality_set == (10, 50, 250, 1250)
    assert summary.lift_guard_count == 0


def test_irreducible_scan_records_match_point_path():
    records = []
    summary = irreducible_product_scan(LIMIT, records.append)
    kept = [m for m in range(1, LIMIT + 1)
            if m == 1 or all(p != 2 and p % 5 in (2, 3) for p in factorize(m).primes())]
    assert [r.m for r in records] == kept
    assert summary.checked == len(kept)
    maxima = new_maxima(records)
    for r in records:
        h = pisano_period(r.m)
        flags = {Flag.NEW_MAXIMUM} if r.m in maxima else set()
        assert (r.period, r.method, r.flags) == (h.period, h.method, frozenset(flags)), r.m


def test_lucas_scan_records_match_point_path():
    records = []
    summary = lucas_ratio_scan(LIMIT, records.append)
    assert [r.m for r in records] == list(range(1, LIMIT + 1))
    maxima = new_maxima(records)
    for r in records:
        h = lucas_period(r.m)
        flags = {Flag.NEW_MAXIMUM} if r.m in maxima else set()
        assert (r.period, r.method, r.flags) == (h.period, h.method, frozenset(flags)), r.m
        if r.m <= BRUTE_LIMIT:
            assert r.period == lucas_brute_period(r.m).period, r.m
    assert summary.attained == (6,)


@pytest.fixture
def wall_sun_sun_seven(monkeypatch):
    """Make 7 look like a Wall-Sun-Sun prime: mod 49 the pair (0, 1) seems
    to return at h(7) = 16, so h(49) = h(7) and the lift from 7 * 16 must
    divide one factor of 7 out."""
    real = periods._fib_pair_ints

    def fib_pair_ints(n, m):
        if m == 49 and n % 16 == 0:
            return 0, 1
        return real(n, m)

    clear_caches()
    monkeypatch.setattr(periods, "_fib_pair_ints", fib_pair_ints)
    yield
    clear_caches()


def test_injected_lift_escalation_flags_every_multiple(wall_sun_sun_seven):
    # 7^3 = 343 lies beyond the limit, so only 49's lift is faked
    records = []
    summary = ratio_scan(300, records.append)
    flagged = [r.m for r in records if Flag.LIFT_GUARD_TRIGGERED in r.flags]
    assert flagged == list(range(49, 301, 49))
    assert summary.lift_guard_count == len(flagged)
    assert records[48].period == 16
    for r in records:
        h = pisano_period(r.m)
        assert (r.period, r.method) == (h.period, h.method), r.m
        assert (Flag.LIFT_GUARD_TRIGGERED in r.flags) == (h.lift_escalations == 1), r.m


def test_period_json_flags_an_injected_lift_escalation(wall_sun_sun_seven, capsys):
    assert main(["period", "49", "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"m": 49, "period": 16, "ratio_num": 16, "ratio_den": 49,'
        ' "method": "PrimePowerLift", "flags": "LiftGuardTriggered"}\n')


@pytest.mark.parametrize("scan", [ratio_scan, irreducible_product_scan, lucas_ratio_scan,
                                  wall_property_scan, filter_agreement_scan, primes_up_to])
def test_a_limit_too_large_for_the_tables_is_a_domain_error(scan):
    with pytest.raises(DomainError, match="does not fit in memory"):
        scan(MODULUS_MAX)


@pytest.mark.parametrize("scan", [ratio_scan, irreducible_product_scan, lucas_ratio_scan,
                                  wall_property_scan, filter_agreement_scan])
def test_a_table_for_another_limit_is_a_domain_error(scan):
    for other in (299, 301):
        with pytest.raises(DomainError, match="period table covers"):
            scan(300, table=period_table(other))


@pytest.mark.parametrize("prime_limit", [0, 1, 2, 3, 5, 2000])
def test_filter_scan_matches_the_theorem_reports(prime_limit):
    summary = filter_agreement_scan(prime_limit)
    expected = [theorem1_period(p) if p % 5 in (2, 3) else theorem2_period(p)
                for p in primes_up_to(prime_limit) if p not in (2, 5)]
    assert list(summary.reports) == expected
    if prime_limit >= 1:
        table = period_table(prime_limit)
        assert filter_agreement_scan(prime_limit, table=table) == summary


def test_cli_scan_beyond_the_tables_exits_one_without_a_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "pisano", "scan", "--limit", str(MODULUS_MAX)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
