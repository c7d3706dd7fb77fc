import csv
import io
import itertools
import json
from fractions import Fraction

import pytest

from pisano import analysis, cli
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
from pisano.fibmod import Method, brute_period, lucas_brute_period, lucas_pair
from pisano.numth import U64_MAX, divisors, factorize
from pisano.periods import TABLE_METHODS, lucas_period, period_table
from pisano.theorems import FilterReport


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


def test_wall_scan_rejects_a_negative_divisor_limit():
    with pytest.raises(DomainError, match="divisor_limit -5 must be >= 0"):
        wall_property_scan(10, -5)
    # the table's own check comes first
    with pytest.raises(DomainError, match="table limit -1 must be >= 1"):
        wall_property_scan(-1, -5)


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


WALL_LIMITS = [(1, None), (2, None), (3, None), (400, None), (400, 100), (400, 399),
               (5000, None)]
# with slices of 3, m = 35 ends the slice k = 5..7 of n = 5 and starts the
# slice k = 5..7 of n = 7
WALL_PLANTS = [(60, 122), (7, 18), (400, 2), (199, 200), (35, 82)]


@pytest.fixture
def wall_slices_of_3(monkeypatch):
    """Slice the wall suite's multiples 3 at a time, so that every n with
    more than three multiples spans several slices."""
    monkeypatch.setattr(analysis, "_WALL_BLOCK", 3)


def check_wall_pair_count(limit, divisor_limit):
    table = period_table(limit)
    s = wall_property_scan(limit, divisor_limit, table=table)
    div_limit = limit if divisor_limit is None else divisor_limit
    assert s.divisibility_checked == wall_pairs_by_loop(table.period, div_limit)[0]


def check_wall_planted_violation(m, period):
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


@pytest.mark.parametrize("limit,divisor_limit", WALL_LIMITS)
def test_wall_scan_counts_the_pairs_of_the_loop(limit, divisor_limit):
    check_wall_pair_count(limit, divisor_limit)


@pytest.mark.parametrize("limit,divisor_limit", WALL_LIMITS)
def test_wall_scan_in_slices_of_3_counts_the_pairs_of_the_loop(wall_slices_of_3, limit,
                                                                divisor_limit):
    check_wall_pair_count(limit, divisor_limit)


@pytest.mark.parametrize("m,period", WALL_PLANTS)
def test_wall_scan_reports_a_planted_violation_as_the_loop_does(m, period):
    check_wall_planted_violation(m, period)


@pytest.mark.parametrize("m,period", WALL_PLANTS)
def test_wall_scan_in_slices_of_3_reports_a_planted_violation_as_the_loop_does(
        wall_slices_of_3, m, period):
    check_wall_planted_violation(m, period)


@pytest.mark.parametrize("slices_of_3", [False, True])
def test_wall_scan_slices_n_1_when_h_1_is_not_1(monkeypatch, slices_of_3):
    # n = 1 goes unsliced only because h(1) = 1; a planted h(1) = 2 fails
    # h(2) = 3, the one odd period, and only there
    if slices_of_3:
        monkeypatch.setattr(analysis, "_WALL_BLOCK", 3)
    table = period_table(400)
    table.period[1] = 2
    with pytest.raises(ClaimViolationError) as info:
        wall_property_scan(400, table=table)
    assert info.value.details == [(1, 2, 2, 3)]


def test_scan_record_serialization():
    rec = ScanRecord(10, 60, Method.LCM_COMPOSITION,
                     frozenset({Flag.RATIO_SIX, Flag.NEW_MAXIMUM}))
    assert rec.csv_row() == (10, 60, 60, 10, "LcmComposition", "RatioSix;NewMaximum")
    obj = rec.json_obj()
    assert tuple(obj) == CSV_COLUMNS
    assert obj["flags"] == "RatioSix;NewMaximum"
    assert obj["method"] == "LcmComposition"


def test_flags_text_keeps_the_schema_order():
    # the README's "Report schema" fixes the order of every flags text
    every = ScanRecord(50, 300, Method.LCM_COMPOSITION, frozenset(Flag))
    assert every.flags_text() == "RatioSix;NewMaximum;FilterDisagreement;LiftGuardTriggered"


def test_csv_sink_format():
    buf = io.StringIO()
    sink = CsvRecordSink(buf)
    ratio_scan(12, rows=sink.write_rows)
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
    ratio_scan(12, rows=sink.write_rows)
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_cli_report_row_goes_through_a_sinks_write_rows(tmp_path, monkeypatch, fmt):
    passed = []  # the rows of each write_rows call, in call order
    for sink_type in (CsvRecordSink, JsonRecordSink):
        def counting(self, rows, write_rows=sink_type.write_rows):
            rows = list(rows)
            passed.append(rows)
            write_rows(self, rows)
        monkeypatch.setattr(sink_type, "write_rows", counting)
    assert cli.main(["scan", "--limit", "300", "--emit", fmt, "--out", str(tmp_path)]) == 0
    suites = ["ratio", "irreducible", "lucas", "filters"]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        f"{suite}.{fmt}" for suite in suites)
    assert len(passed) == len(suites)
    for suite, rows in zip(suites, passed):
        text = (tmp_path / f"{suite}.{fmt}").read_text(encoding="utf-8")
        assert rows
        if fmt == "csv":
            written = list(csv.reader(io.StringIO(text)))[1:]
            assert written == [["" if v is None else str(v) for v in row] for row in rows]
        else:
            written = [list(obj.values()) for obj in json.loads(text)]
            assert written == json.loads(json.dumps(rows))


# ---------------------------------------------------------------------------
# the sinks' % templates against the csv.writer and json.dumps writers they
# replaced, kept here as the oracle

class OracleCsvSink:
    def __init__(self, fileobj, columns=CSV_COLUMNS):
        self._writer = csv.writer(fileobj, lineterminator="\n")
        self._writer.writerow(columns)

    def write_rows(self, rows):
        self._writer.writerows(rows)

    def close(self):
        pass


class OracleJsonSink:
    def __init__(self, fileobj, columns=CSV_COLUMNS):
        self._file, self._columns = fileobj, columns
        self._prefix = "\n"
        fileobj.write("[")

    def write_rows(self, rows):
        for row in rows:
            self._file.write(self._prefix + json.dumps(dict(zip(self._columns, row))))
            self._prefix = ",\n"

    def close(self):
        self._file.write("]\n" if self._prefix == "\n" else "\n]\n")


def oracle_filter_csv(reports, fileobj):
    OracleCsvSink(fileobj, FILTER_CSV_COLUMNS).write_rows(
        (r.prime, r.bound, r.true_period, r.filter_answer,
         "true" if r.agrees else "false",
         ";".join(map(str, r.surviving)), ";".join(map(str, r.all_divisors)))
        for r in reports)


def oracle_filter_json(reports, fileobj):
    sink = OracleJsonSink(fileobj, FILTER_CSV_COLUMNS)
    try:
        sink.write_rows((r.prime, r.bound, r.true_period, r.filter_answer, r.agrees,
                         list(r.surviving), list(r.all_divisors)) for r in reports)
    finally:
        sink.close()


SINKS = {"csv": (CsvRecordSink, OracleCsvSink), "json": (JsonRecordSink, OracleJsonSink)}
FILTER_ORACLES = {"csv": oracle_filter_csv, "json": oracle_filter_json}


def sink_text(sink_type, *calls):
    """What a sink writes for one write_rows call per item of ``calls``."""
    buf = io.StringIO()
    sink = sink_type(buf)
    for rows in calls:
        sink.write_rows(rows)
    sink.close()
    return buf.getvalue()


def assert_same_lines(got, want):
    # texts or bytes, line by line: a failure names the first differing row
    # and never makes pytest diff two whole reports
    got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for got_line, want_line in zip(got, want):
        assert got_line == want_line
    assert len(got) == len(want)


FLAG_SETS = [frozenset(flags) for k in range(len(Flag) + 1)
             for flags in itertools.combinations(Flag, k)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_record_templates_write_what_the_csv_and_json_modules_wrote(fmt):
    # every method and flags text a record can carry, which covers the 3 x 8
    # a scan row can carry, then periods near U64_MAX
    records = [ScanRecord(m, 6 * m, method, flags) for m, (method, flags) in
               enumerate(itertools.product(Method, FLAG_SETS), 1)]
    rows = [r.csv_row() for r in records]
    rows += [(U64_MAX // 6, U64_MAX - 4, U64_MAX - 4, U64_MAX // 6, "LcmComposition",
              "RatioSix;NewMaximum;LiftGuardTriggered"),
             (U64_MAX, U64_MAX, U64_MAX, U64_MAX, "PrimeDivisorSearch", "")]
    sink, oracle = SINKS[fmt]
    assert_same_lines(sink_text(sink, rows), sink_text(oracle, rows))


def filter_report(p, answer, true_period, surviving):
    bound = 2 * p + 2
    return FilterReport(p, bound, divisors(factorize(bound)), surviving, answer,
                        true_period)


EDGE_FILTER_REPORTS = [
    filter_report(3, 8, 8, (8,)),            # agrees
    filter_report(7, None, 16, ()),          # no answer and nothing survives
    filter_report(47, 16, 32, (16, 32)),     # an answer that disagrees
    filter_report(19489, None, 19490, (19490,)),  # no answer, something survives
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_filter_writers_write_what_the_csv_and_json_modules_wrote(fmt):
    reports = EDGE_FILTER_REPORTS + list(filter_agreement_scan(300).reports)
    assert not reports[1].agrees and not reports[2].agrees
    got, want = io.StringIO(), io.StringIO()
    FILTER_WRITERS[fmt](reports, got)
    FILTER_ORACLES[fmt](reports, want)
    assert_same_lines(got.getvalue(), want.getvalue())
    if fmt == "csv":
        assert got.getvalue().splitlines()[2] == "7,16,16,,false,,1;2;4;8;16"


@pytest.mark.parametrize("sizes", [(), (0,), (0, 0), (2, 0), (1, 1), (0, 3, 0, 2)])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sinks_frame_several_write_rows_calls_as_the_oracle_does(fmt, sizes):
    # one write_rows call per size, that many rows each
    rows = (ScanRecord(m, 3 * m, Method.LCM_COMPOSITION, frozenset()).csv_row()
            for m in itertools.count(1))
    batches = [list(itertools.islice(rows, n)) for n in sizes]
    sink, oracle = SINKS[fmt]
    text = sink_text(sink, *batches)
    assert text == sink_text(oracle, *batches)
    if fmt == "json":
        assert json.loads(text) == [dict(zip(CSV_COLUMNS, row)) for batch in batches
                                    for row in batch]
        if not any(batches):
            assert text == "[]\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_filter_writer_that_raises_part_way_leaves_the_earlier_rows(fmt):
    def reports():
        yield from EDGE_FILTER_REPORTS[:3]
        raise ClaimViolationError("stop")

    got, want = io.StringIO(), io.StringIO()
    with pytest.raises(ClaimViolationError):
        FILTER_WRITERS[fmt](reports(), got)
    with pytest.raises(ClaimViolationError):
        FILTER_ORACLES[fmt](reports(), want)
    assert got.getvalue() == want.getvalue()
    if fmt == "json":  # a closed array of the three rows
        assert [d["prime"] for d in json.loads(got.getvalue())] == [3, 7, 47]
    else:
        assert len(got.getvalue().splitlines()) == 4


@pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("suite", ["ratio", "irreducible", "lucas", "filters", "wall", "all"])
def test_scan_reports_match_the_oracle_writers_byte_for_byte(
        tmp_path, monkeypatch, capsys, suite, fmt, to_stdout):
    def run(name):
        """(exit code, stdout, stderr, {report name: bytes}) of one scan."""
        out_dir = tmp_path / name
        out_dir.mkdir()
        args = ["scan", "--suite", suite, "--limit", "300", "--emit", fmt]
        if not to_stdout:
            args += ["--out", str(out_dir if suite == "all" else out_dir / f"report.{fmt}")]
        code = cli.main(args)
        out, err = capsys.readouterr()
        return code, out, err, {path.name: path.read_bytes()
                                for path in sorted(out_dir.iterdir())}

    got = run("got")
    monkeypatch.setattr(cli, "CsvRecordSink", OracleCsvSink)
    monkeypatch.setattr(cli, "JsonRecordSink", OracleJsonSink)
    monkeypatch.setattr(cli, "write_filter_reports_csv", oracle_filter_csv)
    monkeypatch.setattr(cli, "write_filter_reports_json", oracle_filter_json)
    want = run("want")
    assert got[0] == want[0] == 0
    assert got[2] == want[2]
    assert_same_lines(got[1], want[1])
    assert list(got[3]) == list(want[3])
    for name, report in want[3].items():
        assert_same_lines(got[3][name], report)
    assert bool(got[3]) == (not to_stdout and suite != "wall")


def test_scans_are_deterministic():
    a = io.StringIO()
    ratio_scan(150, rows=JsonRecordSink(a).write_rows)
    b = io.StringIO()
    ratio_scan(150, rows=JsonRecordSink(b).write_rows)
    assert a.getvalue() == b.getvalue()


# ---------------------------------------------------------------------------
# the row path (a sink's write_rows, as the CLI uses it) against the record
# path (a library emit fed one ScanRecord at a time)

RECORD_SCANS = [ratio_scan, irreducible_product_scan, lucas_ratio_scan]


def expected_records(scan, limit):
    """The ScanRecords each record scan emitted before it streamed rows:
    the table's period and method (lucas_period's for the Lucas scan),
    period_flags for the ratio scan, and NewMaximum wherever the exact
    ratio beats every earlier one."""
    table = period_table(limit)
    best, out = Fraction(0), []
    for m in range(1, limit + 1):
        if scan is irreducible_product_scan and not all(
                p != 2 and p % 5 in (2, 3) for p in prime_factors(m)):
            continue
        if scan is lucas_ratio_scan:
            period = lucas_period(m).period
            method, flags = Method.PRIME_DIVISOR_SEARCH, set()
        else:
            period = table.period[m]
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
        record_sink.write_rows((record.csv_row(),))

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


@pytest.mark.parametrize("scan, m, period, message, details", [
    (ratio_scan, 10, 30, "6m equality set [50] differs from expected [10, 50]",
     [("equality_set", [50], [10, 50])]),
    (irreducible_product_scan, 3, 12,
     "irreducible-product bound violated: h(3) = 12 >= 12", [(3, 12)]),
    # h_L(7) = 28 ties the maximum 24/6 of m = 6
    (lucas_ratio_scan, 7, 28,
     "Lucas maximum expected 4 at m = 6 only; got 24/6 attained at [6, 7]",
     [("lucas_max", 24, 6, [6, 7])]),
    (wall_property_scan, 7, 15, "h(m) parity violated at [(7, 15)]", [(7, 15)]),
], ids=["ratio", "irreducible", "lucas", "wall"])
def test_a_planted_period_fails_its_scan(scan, m, period, message, details):
    table = period_table(100)
    table.period[m] = period
    with pytest.raises(ClaimViolationError) as caught:
        scan(100, table=table)
    assert str(caught.value) == message
    assert caught.value.details == details


def test_negative_filter_limit_and_lucas_index_are_domain_errors():
    with pytest.raises(DomainError, match="prime limit -1 must be >= 0"):
        filter_agreement_scan(-1)
    with pytest.raises(DomainError, match="index -1 must be >= 0"):
        lucas_pair(-1, 5)
