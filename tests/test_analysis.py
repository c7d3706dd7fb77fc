import csv
import io
import json

import pytest

from pisano.analysis import (
    CSV_COLUMNS,
    CsvRecordSink,
    Flag,
    JsonRecordSink,
    ScanRecord,
    filter_agreement_scan,
    irreducible_product_scan,
    lucas_ratio_scan,
    ratio_scan,
    wall_property_scan,
    write_filter_reports_csv,
    write_filter_reports_json,
)
from pisano.errors import DomainError
from pisano.fibmod import Method, brute_period, lucas_brute_period


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


def test_scans_are_deterministic():
    a = io.StringIO()
    ratio_scan(150, JsonRecordSink(a))
    b = io.StringIO()
    ratio_scan(150, JsonRecordSink(b))
    assert a.getvalue() == b.getvalue()
