"""The sieve-driven period table behind the range scans, checked against the
per-m point path (pisano_period / lucas_period), which stays the reference,
and against the brute-force oracle."""

import subprocess
import sys
from fractions import Fraction

import pytest

from pisano import analysis, periods
from pisano.analysis import (
    Flag,
    filter_agreement_scan,
    irreducible_product_scan,
    lucas_ratio_scan,
    ratio_scan,
    wall_property_scan,
)
from pisano.cli import main
from pisano.errors import ClaimViolationError, DomainError
from pisano.fibmod import Method, brute_period, lucas_brute_period
from pisano.numth import MODULUS_MAX, factorize, primes_up_to
from pisano.periods import (
    TABLE_METHODS,
    _class_bound,
    _pair_order,
    lucas_period,
    period_table,
    pisano_period,
    prime_period,
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


def lucas_scan_periods(limit):
    """{m: h_L(m)} for 1 <= m <= limit, off the Lucas scan's rows."""
    rows = []
    lucas_ratio_scan(limit, rows=rows.extend)
    assert [row[0] for row in rows] == list(range(1, limit + 1))
    return {row[0]: row[1] for row in rows}


def test_period_table_matches_point_path():
    table = period_table(LIMIT)
    lucas = lucas_scan_periods(LIMIT)
    assert len(table.period) == LIMIT + 1
    for m in range(1, LIMIT + 1):
        h = pisano_period(m)
        got = (table.period[m], table.escalations[m], TABLE_METHODS[table.method[m]])
        assert got == (h.period, h.lift_escalations, h.method), m
        assert lucas[m] == lucas_period(m).period, m
    assert TABLE_METHODS[table.method[1]] is Method.LCM_COMPOSITION


def test_period_tables_match_brute_oracle():
    table = period_table(BRUTE_LIMIT)
    lucas = lucas_scan_periods(BRUTE_LIMIT)
    for m in range(1, BRUTE_LIMIT + 1):
        assert table.period[m] == brute_period(m).period, m
        assert lucas[m] == lucas_brute_period(m).period, m


def test_lucas_scan_checks_each_five_power_once(monkeypatch):
    # h_L(5^a) is checked once, at m = 5^a, and reused for every 5^a k after
    # it; lucas_period, the reference, looks the helper up in periods
    checked = []

    def spy(e):
        checked.append(e)
        return periods._lucas_five_power(e)

    monkeypatch.setattr(analysis, "_lucas_five_power", spy)
    lucas = lucas_scan_periods(5**7)
    assert checked == list(range(1, 8))
    for m in range(5, 5**7 + 1, 5):
        assert lucas[m] == lucas_period(m).period, m
    for a in (1, 2, 3):
        for limit, powers in ((5**a - 1, a - 1), (5**a, a)):
            checked.clear()
            lucas = lucas_scan_periods(limit)
            assert checked == list(range(1, powers + 1)), limit
            assert lucas == {m: lucas_period(m).period for m in range(1, limit + 1)}


def test_period_table_primes_match_the_pair_order_recipe():
    # the fast-doubling recipe: the order of (0, 1) divided down from the
    # class bound by every prime of the bound
    table = period_table(10**5)
    factors_of = lambda n: dict(factorize(n).factors)  # noqa: E731
    for p in primes_up_to(10**5):
        assert table.period[p] == _pair_order((0, 1), p, *_class_bound(p, factors_of)), p


@pytest.mark.parametrize("p", [101, 103], ids=["split", "irreducible"])
def test_a_lying_ladder_is_a_claim_violation(monkeypatch, p):
    # a ladder that reports L = 2 at every index mod p divides h(p) down too
    # far; only the closing fast doubling can tell
    real = periods._lucas_ladder
    monkeypatch.setattr(periods, "_lucas_ladder",
                        lambda j, m: (2, 3) if m == p else real(j, m))
    for run in (lambda: prime_period(p), lambda: period_table(200)):
        with pytest.raises(ClaimViolationError, match=f"does not return after .* mod {p}"):
            run()
    assert prime_period(89).period == 44
    assert period_table(100).period[89] == 44


def test_period_table_stores_4_byte_periods_and_a_2_byte_sieve():
    table = period_table(1000)
    assert table.period.typecode == "I" and table.spf.typecode == "H"


# a period of 2^32 does not fit the 'I' table: h(7) from the prime search
# (m is its first argument), and h(49) from the lift (its second)
@pytest.mark.parametrize("name,at,m,value", [("_prime_order", 0, 7, 1 << 32),
                                             ("_lift", 1, 49, (1 << 32, 0))])
def test_a_period_past_the_table_typecode_is_a_claim_violation(monkeypatch, capsys,
                                                               name, at, m, value):
    real = getattr(periods, name)
    monkeypatch.setattr(periods, name,
                        lambda *args: value if args[at] == m else real(*args))
    with pytest.raises(ClaimViolationError) as info:
        period_table(100)
    assert str(info.value) == f"6m bound violated: h({m}) = {1 << 32} > {6 * m}"
    assert info.value.details == [(m, 1 << 32)]
    assert main(["scan", "--suite", "ratio", "--limit", "100"]) == 3
    assert capsys.readouterr() == (
        "", f"error: 6m bound violated: h({m}) = {1 << 32} > {6 * m}\n")


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


def test_period_table_rejects_a_limit_below_one():
    for limit in (0, -1):
        with pytest.raises(DomainError, match=f"table limit {limit} must be >= 1"):
            period_table(limit)


@pytest.mark.parametrize("scan", [ratio_scan, irreducible_product_scan, lucas_ratio_scan,
                                  wall_property_scan])
def test_a_scan_limit_below_one_is_a_domain_error(scan):
    for limit in (0, -1):
        with pytest.raises(DomainError, match=f"table limit {limit} must be >= 1"):
            scan(limit)
        with pytest.raises(DomainError, match="period table covers"):
            scan(limit, table=period_table(300))


@pytest.mark.parametrize("prime_limit", [0, 1])
def test_filter_scan_checks_a_table_below_prime_limit_two(prime_limit):
    # no prime to scan, but a table passed is still checked
    with pytest.raises(DomainError, match="period table covers"):
        filter_agreement_scan(prime_limit, table=period_table(300))


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
