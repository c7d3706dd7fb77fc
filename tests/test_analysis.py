import csv
import io
import json
from fractions import Fraction

import pytest

from pisano.analysis import (
    CSV_COLUMNS,
    FILTER_CSV_COLUMNS,
    CsvRecordSink,
    Flag,
    JsonRecordSink,
    ScanRecord,
    filter_agreement_scan,
    irreducible_product_scan,
    lucas_ratio_scan,
    period_flags,
    ratio_scan,
    wall_property_scan,
    write_filter_reports_csv,
    write_filter_reports_json,
)
from pisano.errors import ClaimViolationError, DomainError
from pisano.fibmod import Method, brute_period, lucas_brute_period
from pisano.periods import TABLE_METHODS, lucas_period_table, period_table


def trial_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def test_ratio_scan_equality_sets():
    assert ratio_scan(9).equality_set == ()
    assert ratio_scan(1000).equality_set == (10, 50, 250)
    assert ratio_scan(2000).equality_set == (10, 50, 250, 1250)


def test_ratio_scan_maximum_tracking():
    s = ratio_scan(1)
    assert s.max_ratio == (1, 1) and s.attained == (1,)
    s = ratio_scan(9)
    # h(5)/5 = 4 is the peak, matched again by h(6)/6 = 24/6
    assert s.max_ratio == (20, 5)
    assert s.attained == (5, 6)
    assert s.max_at == 5
    s = ratio_scan(1000)
    assert s.max_ratio == (60, 10)
    assert s.attained == (10, 50, 250)


def test_ratio_scan_records_stream_in_order():
    records = []
    s = ratio_scan(60, emit=records.append)
    assert len(records) == 60 == s.records
    assert [r.m for r in records] == list(range(1, 61))
    for r in records:
        assert r.period == brute_period(r.m).period
        assert r.ratio_num == r.period and r.ratio_den == r.m
        assert (Flag.RATIO_SIX in r.flags) == (r.period == 6 * r.m)
    assert Flag.RATIO_SIX in records[9].flags
    assert Flag.NEW_MAXIMUM in records[0].flags
    assert Flag.NEW_MAXIMUM in records[9].flags


def test_ratio_scan_domain():
    with pytest.raises(DomainError):
        ratio_scan(0)


def test_irreducible_scan_membership():
    seen = []
    irreducible_product_scan(120, emit=seen.append)
    got = {r.m for r in seen}
    want = set()
    for m in range(1, 121):
        if all(p != 2 and p % 5 in (2, 3) for p in prime_factors(m)):
            want.add(m)
    assert got == want
    assert {3, 7, 9, 13, 21, 49, 63} <= got
    assert {2, 5, 10, 11, 22, 15} & got == set()


def test_irreducible_scan_bound_strict():
    s = irreducible_product_scan(1000)
    assert s.checked == 199
    num, den = s.max_ratio
    assert num * 1 < 4 * den
    assert s.max_at == 3  # h(3)/3 = 8/3 leads this family
    for m in (3, 7, 21):
        assert 4 * m - brute_period(m).period > 0


def test_lucas_scan_small_limits():
    s = lucas_ratio_scan(1)
    assert s.max_ratio == (1, 1)
    s = lucas_ratio_scan(5)
    assert s.max_ratio == (8, 3)  # below 4 everywhere
    assert s.attained == (3,)
    for m in range(1, 6):
        assert lucas_brute_period(m).period < 4 * m


def test_lucas_scan_maximum_at_six():
    s = lucas_ratio_scan(100)
    assert s.max_ratio == (24, 6)
    assert s.attained == (6,)


def test_filter_scan_counts_by_class():
    s = filter_agreement_scan(100)
    scanned = {r.prime for r in s.reports}
    assert scanned == {p for p in range(2, 101) if trial_is_prime(p)} - {2, 5}
    assert s.total == 23
    assert s.agreement_rate == (s.agreements, s.total)
    for r in s.reports:
        assert r.true_period in r.all_divisors


def test_filter_scan_empty():
    s = filter_agreement_scan(2)
    assert s.total == 0
    assert s.reports == ()


def test_wall_scan_passes():
    s = wall_property_scan(400)
    assert s.parity_checked == 398
    assert s.divisibility_checked > 0
    # boundary: h(2) = 3 is odd and exempt
    assert brute_period(2).period == 3


def test_wall_scan_divisor_limit():
    s = wall_property_scan(400, divisor_limit=100)
    assert s.divisor_limit == 100
    with pytest.raises(DomainError):
        wall_property_scan(100, divisor_limit=200)


def wall_pairs_by_loop(periods, div_limit):
    """The wall suite's divisibility pass as one Python step per pair:
    (pairs checked, violations as (n, m, h(n), h(m)))."""
    checked, violations = 0, []
    for n in range(1, div_limit + 1):
        hn = periods[n]
        for m in range(2 * n, div_limit + 1, n):
            checked += 1
            if periods[m] % hn:
                violations.append((n, m, hn, periods[m]))
    return checked, violations


@pytest.mark.parametrize("limit,divisor_limit", [(1, None), (2, None), (3, None),
                                                 (400, None), (400, 100), (400, 399),
                                                 (5000, None)])
def test_wall_scan_counts_the_pairs_of_the_loop(limit, divisor_limit):
    table = period_table(limit)
    s = wall_property_scan(limit, divisor_limit, table=table)
    div_limit = limit if divisor_limit is None else divisor_limit
    assert s.divisibility_checked == wall_pairs_by_loop(table.period, div_limit)[0]


@pytest.mark.parametrize("m,period", [(60, 122), (7, 18), (400, 2), (199, 200)])
def test_wall_scan_reports_a_planted_violation_as_the_loop_does(m, period):
    # an even period keeps the parity pass quiet; the divisibility pass then
    # lists every pair the loop lists, in the loop's order
    table = period_table(400)
    table.period[m] = period
    violations = wall_pairs_by_loop(table.period, 400)[1]
    assert violations
    with pytest.raises(ClaimViolationError) as info:
        wall_property_scan(400, table=table)
    assert str(info.value) == f"h(n) | h(m) violated at {violations[:10]}"
    assert info.value.details == violations


def test_scan_record_serialization():
    rec = ScanRecord(10, 60, Method.LCM_COMPOSITION,
                     frozenset({Flag.RATIO_SIX, Flag.NEW_MAXIMUM}))
    assert rec.csv_row() == (10, 60, 60, 10, "LcmComposition", "RatioSix;NewMaximum")
    obj = rec.json_obj()
    assert tuple(obj) == CSV_COLUMNS
    assert obj["flags"] == "RatioSix;NewMaximum"
    assert obj["method"] == "LcmComposition"


def test_csv_sink_format():
    buf = io.StringIO()
    sink = CsvRecordSink(buf)
    ratio_scan(12, sink)
    sink.close()
    text = buf.getvalue()
    assert "\r" not in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 13
    assert rows[10] == ["10", "60", "60", "10", "LcmComposition", "RatioSix;NewMaximum"]


def test_json_sink_parses_and_round_trips():
    buf = io.StringIO()
    sink = JsonRecordSink(buf)
    ratio_scan(12, sink)
    sink.close()
    data = json.loads(buf.getvalue())
    assert len(data) == 12
    assert data[9] == {"m": 10, "period": 60, "ratio_num": 60, "ratio_den": 10,
                       "method": "LcmComposition", "flags": "RatioSix;NewMaximum"}
    # one record per line between the brackets
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "[" and lines[-1] == "]"
    assert len(lines) == 14


def test_json_sink_empty():
    buf = io.StringIO()
    sink = JsonRecordSink(buf)
    sink.close()
    assert json.loads(buf.getvalue()) == []


def test_filter_report_writers():
    reports = filter_agreement_scan(50).reports
    buf = io.StringIO()
    write_filter_reports_csv(reports, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0][0] == "prime"
    assert len(rows) == len(reports) + 1
    assert "\r" not in buf.getvalue()

    jbuf = io.StringIO()
    write_filter_reports_json(reports, jbuf)
    data = json.loads(jbuf.getvalue())
    assert [d["prime"] for d in data] == [r.prime for r in reports]
    for d, r in zip(data, reports):
        assert d["true_period"] == r.true_period
        assert d["agrees"] == r.agrees
        assert d["all_divisors"] == list(r.all_divisors)


FILTER_WRITERS = {"csv": write_filter_reports_csv, "json": write_filter_reports_json}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("limit", [1, 2, 3, 300, 20000])
def test_streamed_filter_reports_write_the_same_bytes(limit, fmt):
    writer = FILTER_WRITERS[fmt]
    table = period_table(limit)
    collected = filter_agreement_scan(limit, table=table)
    whole = io.StringIO()
    writer(collected.reports, whole)
    streamed = io.StringIO()
    summary = filter_agreement_scan(limit, table=table,
                                    rows=lambda reports: writer(reports, streamed))
    assert streamed.getvalue() == whole.getvalue()
    assert summary.reports is None
    assert (summary.total, summary.agreements, summary.disagreements) == (
        collected.total, collected.agreements, collected.disagreements)
    if limit < 3:
        assert whole.getvalue() == ("[]\n" if fmt == "json" else
                                    ",".join(FILTER_CSV_COLUMNS) + "\n")


@pytest.mark.parametrize("limit", [2, 300, 20000])
def test_filter_scan_counts_match_its_reports(limit):
    s = filter_agreement_scan(limit)
    assert s.total == len(s.reports)
    assert s.agreements == sum(1 for r in s.reports if r.agrees)
    assert s.disagreements == tuple(r for r in s.reports if not r.agrees)
    assert s.agreement_rate == (s.agreements, s.total)
    if limit == 20000:
        assert (s.total, s.agreements) == (2260, 2259)
        assert [r.prime for r in s.disagreements] == [19489]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_filter_violation_leaves_the_earlier_reports_with_rows(fmt):
    writer = FILTER_WRITERS[fmt]
    clean = io.StringIO()
    writer(filter_agreement_scan(36).reports, clean)
    table = period_table(100)
    table.period[37] = 3 * 37  # not a divisor of 2 * 37 + 2
    out = io.StringIO()
    with pytest.raises(ClaimViolationError, match=r"h\(37\) = 111 is not a divisor"):
        filter_agreement_scan(100, table=table, rows=lambda reports: writer(reports, out))
    assert out.getvalue() == clean.getvalue()


def test_scans_are_deterministic():
    a = io.StringIO()
    ratio_scan(150, JsonRecordSink(a))
    b = io.StringIO()
    ratio_scan(150, JsonRecordSink(b))
    assert a.getvalue() == b.getvalue()


# ---------------------------------------------------------------------------
# the row path (a sink's write_rows, as the CLI uses it) against the record
# path (a library emit fed one ScanRecord at a time)

RECORD_SCANS = [ratio_scan, irreducible_product_scan, lucas_ratio_scan]


def expected_records(scan, limit):
    """The ScanRecords each record scan emitted before it streamed rows:
    the table's period and method, period_flags for the ratio scan, and
    NewMaximum wherever the exact ratio beats every earlier one."""
    table = period_table(limit)
    periods = lucas_period_table(table) if scan is lucas_ratio_scan else table.period
    best, out = Fraction(0), []
    for m in range(1, limit + 1):
        if scan is irreducible_product_scan and not all(
                p != 2 and p % 5 in (2, 3) for p in prime_factors(m)):
            continue
        period = periods[m]
        if scan is lucas_ratio_scan:
            method, flags = Method.PRIME_DIVISOR_SEARCH, set()
        else:
            method = TABLE_METHODS[table.method[m]]
            flags = (period_flags(m, period, table.escalations[m])
                     if scan is ratio_scan else set())
        if Fraction(period, m) > best:
            best = Fraction(period, m)
            flags.add(Flag.NEW_MAXIMUM)
        out.append(ScanRecord(m, period, method, frozenset(flags)))
    return out


def report_both_ways(scan, fmt, limit):
    sink_type = CsvRecordSink if fmt == "csv" else JsonRecordSink
    by_rows, by_records = io.StringIO(), io.StringIO()
    row_sink, record_sink = sink_type(by_rows), sink_type(by_records)
    summary = scan(limit, rows=row_sink.write_rows)
    records = []

    def emit(record):
        records.append(record)
        record_sink(record)

    assert scan(limit, emit) == summary
    row_sink.close()
    record_sink.close()
    # pairwise, so a failure names the first differing line or record
    lines = by_rows.getvalue().splitlines(keepends=True)
    record_lines = by_records.getvalue().splitlines(keepends=True)
    assert len(lines) == len(record_lines)
    for line, record_line in zip(lines, record_lines):
        assert line == record_line
    expected = expected_records(scan, limit)
    assert len(records) == len(expected)
    for got, want in zip(records, expected):
        assert got == want
    return by_rows.getvalue()


@pytest.mark.parametrize("limit", [1, 2, 6, 10, 2000])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("scan", RECORD_SCANS)
def test_rows_and_records_write_the_same_report(scan, fmt, limit):
    report_both_ways(scan, fmt, limit)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("scan", RECORD_SCANS)
def test_rows_and_records_agree_on_an_injected_lift(wall_sun_sun_seven, scan, fmt):
    text = report_both_ways(scan, fmt, 2000)
    if scan is ratio_scan:  # expected_records pins which m carry each flag
        assert "RatioSix;NewMaximum" in text and "LiftGuardTriggered" in text


def test_a_scan_takes_emit_or_rows_not_both():
    with pytest.raises(TypeError, match="not both"):
        ratio_scan(10, print, rows=list)
