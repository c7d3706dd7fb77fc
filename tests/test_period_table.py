"""The sieve-driven period table behind the range scans, checked against the
per-m point path (pisano_period / lucas_period), which stays the reference,
and against the brute-force oracle."""

import functools
import math
import subprocess
import sys
import tracemalloc
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
from pisano.numth import (
    MODULUS_MAX,
    _sieve_factors,
    factorize,
    primes_up_to,
    smallest_prime_factors,
)
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


def reference_table(limit):
    """(period, escalations, method) lists for 0 <= m <= limit from one
    ascending per-m pass over the sieve, every even m included: the loop
    period_table ran before it filled the even m by slices and walked the
    bound's primes as a list.  Each prime's h(p) comes from the fast-doubling
    recipe, ``_pair_order`` from the class bound by the keys of
    ``_class_bound``'s dict, not from the table's kernel ``_prime_order``."""
    spf = smallest_prime_factors(limit)
    sieve_factors = functools.partial(_sieve_factors, spf)
    period, escalations, method = ([0] * (limit + 1) for _ in range(3))
    lifted = []
    period[1] = 1
    for m in range(2, limit + 1):
        p = spf[m]
        if not p:
            h = _pair_order((0, 1), m, *_class_bound(m, sieve_factors))
            method[m] = 1
        elif (rest := m // p) % p:
            h = math.lcm(period[p], period[rest])
        else:
            while rest % p == 0:
                rest //= p
            if rest > 1:
                h = math.lcm(period[m // rest], period[rest])
            else:
                h, count = periods._lift(p, m, period[p])
                method[m] = 2
                if count:
                    lifted.append((m, p, count))
        period[m] = h
    for pe, p, count in lifted:
        for m in range(pe, limit + 1, pe):
            if m // pe % p:
                escalations[m] += count
    return period, escalations, method


def table_lists(table):
    return list(table.period), list(table.escalations), list(table.method)


# every limit from 1 to 40, 2^e - 1, 2^e and 2^e + 1 up to 2^17, where a
# power of 2 and its first slice enter the table, and 10^5
REFERENCE_LIMITS = [*range(1, 41), *(2**e + d for e in range(6, 18) for d in (-1, 0, 1)),
                    10**5]


def test_period_table_matches_the_per_m_reference():
    for limit in REFERENCE_LIMITS:
        assert table_lists(period_table(limit)) == reference_table(limit), limit


@pytest.mark.parametrize("block", [1, 3])
def test_period_table_does_not_depend_on_the_slice_block(monkeypatch, block):
    monkeypatch.setattr(periods, "_SLICE_BLOCK", block)
    for limit in [*range(1, 41), 2**10 - 1, 2**10, 2**10 + 1, 5000]:
        assert table_lists(period_table(limit)) == reference_table(limit), limit


def test_period_table_copies_no_table():
    # a slice of 2^12 odd k costs 16 KB, and the lcm array it makes another
    # 16 KB; a slice of the odd half (period[1::2] is 200 KB here) would
    # break the bound
    period_table(100)
    tracemalloc.start()
    try:
        table = period_table(10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(a.itemsize * len(a) for a in (table.spf, table.period,
                                               table.escalations, table.method))
    assert peak - arrays < 64 * 1024


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


def test_lucas_scan_rows_match_lucas_period_around_powers_of_five():
    lucas = lucas_scan_periods(5**7)
    for m in range(5, 5**7 + 1, 5):
        assert lucas[m] == lucas_period(m).period, m
    for a in (1, 2, 3):
        for limit in (5**a - 1, 5**a, 5**a + 1):
            lucas = lucas_scan_periods(limit)
            assert lucas == {m: lucas_period(m).period for m in range(1, limit + 1)}


@pytest.mark.parametrize("at, value, details", [
    (25, 20, None),  # lcm(4, 20) = 20: (2, 1) does not return mod 125
    (5, 100, [(25, 20, 100)]),  # a return mod 25, but h_L(25) = 20
], ids=["not-a-return", "not-the-least"])
def test_lucas_scan_proves_each_five_power(at, value, details):
    # h_L(5^a) = lcm(4, h(5^(a-1))) is proved at each 5^a <= limit, so a
    # planted h(5^(a-1)) fails the scan from limit 5^a on, and is not read
    # below it
    for limit in (5 * at, 5 * at + 1, 5**6):
        table = period_table(limit)
        table.period[at] = value
        with pytest.raises(ClaimViolationError) as error:
            lucas_ratio_scan(limit, table=table)
        assert details is None or error.value.details == details
    table = period_table(5 * at - 1)
    table.period[at] = value
    assert lucas_ratio_scan(5 * at - 1, table=table) == lucas_ratio_scan(5 * at - 1)


def test_period_table_primes_match_the_pair_order_recipe():
    # the fast-doubling recipe: the order of (0, 1) divided down from the
    # class bound by every prime of the bound
    table = period_table(10**5)
    factors_of = lambda n: dict(factorize(n).factors)  # noqa: E731
    for p in primes_up_to(10**5):
        assert table.period[p] == _pair_order((0, 1), p, *_class_bound(p, factors_of)), p


# 41 = 1 (mod 8) and 103 = 3 (mod 5) take the ladder's test, and 11 = 3
# (mod 4) and 101 = 5 (mod 8) the test phi^n = 1 by pow
@pytest.mark.parametrize("name, p", [("_lucas_ladder", 41), ("_lucas_ladder", 103),
                                     ("pow", 11), ("pow", 101)],
                         ids=["split", "irreducible", "split-pow-11", "split-pow-101"])
def test_a_lying_ladder_is_a_claim_violation(monkeypatch, name, p):
    # a ladder that reports L = 2 at every index mod p, or a pow that reports
    # phi^n = 1 at every n for a root phi of x^2 - x - 1 mod p, divides h(p)
    # down too far; only the closing Lucas doubling can tell
    if name == "pow":
        lie = lambda b, e, m: 1 if m == p and (b * b - b - 1) % m == 0 else pow(b, e, m)  # noqa: E731
        monkeypatch.setattr(periods, "pow", lie, raising=False)
    else:
        real = periods._lucas_ladder
        monkeypatch.setattr(periods, name, lambda j, m: (2, 3) if m == p else real(j, m))
    for run in (lambda: prime_period(p), lambda: period_table(200)):
        with pytest.raises(ClaimViolationError, match=f"does not return after .* mod {p};"):
            run()
    # below p, and at the other primes of each test, nothing changes
    assert table_lists(period_table(p - 1)) == reference_table(p - 1)
    assert [prime_period(q).period for q in (19, 29, 89)] == [18, 14, 44]


@pytest.mark.parametrize("p", [11, 101], ids=["3-mod-4", "5-mod-8"])
def test_a_wrong_square_root_of_five_is_a_claim_violation(monkeypatch, p):
    # r^2 = 5 comes from pow(5, (p+1)/4) for p = 3 (mod 4) and from Atkin's
    # t = pow(10, (p-5)/8) for p = 5 (mod 8); one of them off by one leaves
    # phi = (1 + r)/2 no root, which the root check must report
    wrong = lambda b, e, m: (pow(b, e, m) + (m == p and b in (5, 10))) % m  # noqa: E731
    monkeypatch.setattr(periods, "pow", wrong, raising=False)
    for run in (lambda: prime_period(p), lambda: period_table(200)):
        with pytest.raises(ClaimViolationError, match=f"is no root of x\\^2 - x - 1 mod {p}$"):
            run()
    assert table_lists(period_table(p - 1)) == reference_table(p - 1)
    assert [prime_period(q).period for q in (19, 29, 89)] == [18, 14, 44]


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


# h(11) = 2^31 fits the 'I' table, but h(22) = 3 * 2^31 does not.  At limit
# 100 the pass over the odd m fails first, at h(55) = 5 * 2^31, and at limit
# 22 the even slices do, at the table's last m: both must report the least
# m.  A planted h(13) = 2^32 fails below 22; a planted h(3) = 2^31 fails the
# pass at the lift h(9) = 3 * 2^31, after h(6) = 3 * 2^31; and h(2) = 2^32
# fails before the lift of 4 can.
@pytest.mark.parametrize("planted,limit,m,h", [
    ({11: 1 << 31}, 100, 22, 3 << 31),
    ({11: 1 << 31}, 22, 22, 3 << 31),
    ({11: 1 << 31, 13: 1 << 32}, 100, 13, 1 << 32),
    ({3: 1 << 31}, 100, 6, 3 << 31),
    ({2: 1 << 32}, 100, 2, 1 << 32),
], ids=["h11-odd-pass", "h11-slices", "h11-h13", "h3", "h2"])
@pytest.mark.parametrize("block", [1, 3, 1 << 12])
def test_an_overflow_is_reported_at_the_least_m(monkeypatch, planted, limit, m, h, block):
    real = periods._prime_order
    monkeypatch.setattr(periods, "_prime_order",
                        lambda p, *rest: planted[p] if p in planted else real(p, *rest))
    monkeypatch.setattr(periods, "_SLICE_BLOCK", block)
    with pytest.raises(ClaimViolationError) as info:
        period_table(limit)
    assert str(info.value) == f"6m bound violated: h({m}) = {h} > {6 * m}"
    assert info.value.details == [(m, h)]


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


def test_a_lift_escalation_reaches_every_m_its_prime_power_exactly_divides(
        wall_sun_sun_seven):
    # the table adds 49's one escalation after its pass, to 49 k with 7 not
    # dividing k; h(343), lifted from h(7) to 7^2 h(7), escalates nothing, so
    # 343, 686, 1029 and 1372 count 0
    table = period_table(1400)
    for m in range(1, 1401):
        assert table.escalations[m] == pisano_period(m).lift_escalations, m
    assert [m for m in range(1, 1401) if table.escalations[m]] == [
        m for m in range(49, 1401, 49) if m % 343]


def test_a_lift_escalation_of_four_reaches_every_m_four_exactly_divides(monkeypatch):
    # mod 4, (0, 1) seems to return at h(2) = 3, so the lift from 2 * 3
    # divides one factor of 2 out; 8's lift, from 4 * 3, escalates nothing
    real = periods._fib_pair_ints
    monkeypatch.setattr(periods, "_fib_pair_ints",
                        lambda n, m: (0, 1) if m == 4 and n % 3 == 0 else real(n, m))
    table = period_table(1000)
    assert table_lists(table) == reference_table(1000)
    assert table.period[4] == 3
    assert [m for m in range(1, 1001) if table.escalations[m]] == list(range(4, 1001, 8))
    for m in range(1, 201):
        assert table.escalations[m] == pisano_period(m).lift_escalations, m


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
