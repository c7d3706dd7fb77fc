"""Range scans over the global claims: the 6m ceiling and its equality set,
the <4 ratio for odd irreducible products, the Lucas maximum at m = 6, the
filter diagnostics, and the parity/divisibility laws.

Ratios are exact integer pairs throughout; floating point never enters a
stored value, so 6m equality cannot alias.  Hard assertions raise
ClaimViolationError with the offending evidence attached.  Each scan is one
sequential pass; records reach the sink in ascending m, so identical
arguments produce byte-identical reports.  The three record scans are each
one row generator: its CSV rows stream into a sink's one write method,
``write_rows`` (the CLI's path, which the filter report writers share), into
a library ``emit`` as ScanRecords, or are never built.

The filter scan's ``rows=`` takes its FilterReports as they are made, and
its summary then keeps only the counts and the disagreements; each answer
is picked from h(p) by divisibility and confirmed by one Lucas ladder
(``theorems._filter_report``).

No scan factors m: all five read h(m) from one sieve-built
``periods.period_table(limit)``, in which each h(p) and each lift is
computed once and verified.  The Lucas scan recomputes only the multiples
of 5, and the filter scan reads each class bound's factorization off the
same sieve.  Each scan takes that table as ``table=`` (``pisano scan
--suite all`` builds one and hands it to every suite) or builds its own.
The wall scan counts n = 1's pairs unsliced and tests every other n's
multiples in table slices of at most 2^16 entries.  A limit below 1 or too
large for the tables is a DomainError up front.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from collections import deque
from dataclasses import dataclass

from .errors import ClaimViolationError, DomainError
from .fibmod import Method
from .numth import Factorization, _sieve_factors
from .periods import (
    TABLE_METHODS,
    PeriodTable,
    _class_bound,
    _lucas_five_power,
    period_table,
)
from .theorems import FilterReport, _filter_report
# Unused primes_up_to, lucas_period, theorem1_period and theorem2_period
# stay: bench/tracer.py wraps them here.
from .numth import primes_up_to  # noqa: F401
from .periods import lucas_period  # noqa: F401
from .theorems import theorem1_period, theorem2_period  # noqa: F401


def __getattr__(name: str):
    """``analysis.ProcessPoolExecutor``, imported only when asked for, so
    ``import pisano`` never loads concurrent.futures and multiprocessing.
    Its only reader is ``_counted_pool`` in bench/tracer.py; the next
    benchmark change (ROADMAP item 1) deletes both."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Flag(enum.Enum):
    """Per-record markers attached during scans, in the order a flags text
    lists them, which the README's "Report schema" fixes."""

    RATIO_SIX = "RatioSix"
    NEW_MAXIMUM = "NewMaximum"
    FILTER_DISAGREEMENT = "FilterDisagreement"
    LIFT_GUARD_TRIGGERED = "LiftGuardTriggered"


CSV_COLUMNS = ("m", "period", "ratio_num", "ratio_den", "method", "flags")


def _flags_text(flags) -> str:
    return ";".join(f.value for f in Flag if f in flags)


# The flags a scan row can carry; a row indexes the flags text of each
# subset by the bits 4 * RatioSix + 2 * NewMaximum + LiftGuardTriggered.
_ROW_FLAGS = (Flag.RATIO_SIX, Flag.NEW_MAXIMUM, Flag.LIFT_GUARD_TRIGGERED)
_ROW_FLAG_SETS = tuple(frozenset(f for i, f in enumerate(_ROW_FLAGS) if bits & (4 >> i))
                       for bits in range(8))
_ROW_FLAGS_TEXT = tuple(_flags_text(flags) for flags in _ROW_FLAG_SETS)
_FLAGS_OF_TEXT = dict(zip(_ROW_FLAGS_TEXT, _ROW_FLAG_SETS))
# a row's method text, indexed by the period table's method code
_METHOD_TEXT = tuple(method.value for method in TABLE_METHODS)
_WALL_BLOCK = 1 << 16  # the most multiples in one slice of the wall suite


@dataclass(frozen=True)
class ScanRecord:
    """One scanned modulus: its period, the exact ratio, and markers.

    ratio_num/ratio_den are period and m verbatim (never reduced, never
    floats) so equality tests against 6m stay exact.
    """

    m: int
    period: int
    method: Method
    flags: frozenset[Flag]

    @property
    def ratio_num(self) -> int:
        return self.period

    @property
    def ratio_den(self) -> int:
        return self.m

    def flags_text(self) -> str:
        return _flags_text(self.flags)

    def csv_row(self) -> tuple:
        return (self.m, self.period, self.ratio_num, self.ratio_den,
                self.method.value, self.flags_text())

    def json_obj(self) -> dict:
        return dict(zip(CSV_COLUMNS, self.csv_row()))


def period_flags(m: int, period: int, escalations: int) -> set[Flag]:
    """The flags a period record carries on its own: RatioSix when
    h(m) = 6m, LiftGuardTriggered when a lift divided a factor of p out."""
    flags = set()
    if period == 6 * m:
        flags.add(Flag.RATIO_SIX)
    if escalations:
        flags.add(Flag.LIFT_GUARD_TRIGGERED)
    return flags


# ---------------------------------------------------------------------------
# scan summaries

@dataclass(frozen=True)
class RatioScanSummary:
    limit: int
    records: int
    max_ratio: tuple[int, int]   # (h(m), m) at the first maximum
    attained: tuple[int, ...]    # every m achieving the maximum ratio
    equality_set: tuple[int, ...]
    lift_guard_count: int

    @property
    def max_at(self) -> int:
        return self.attained[0]


@dataclass(frozen=True)
class IrreducibleScanSummary:
    limit: int
    checked: int
    max_ratio: tuple[int, int]
    max_at: int


@dataclass(frozen=True)
class LucasScanSummary:
    limit: int
    records: int
    max_ratio: tuple[int, int]
    attained: tuple[int, ...]    # every m achieving the maximum ratio


@dataclass(frozen=True)
class FilterScanSummary:
    """The filter scan's counts and disagreements; ``reports`` holds every
    FilterReport in ascending p, or is None when they went to ``rows``."""

    prime_limit: int
    total: int
    agreements: int
    disagreements: tuple[FilterReport, ...]
    reports: tuple[FilterReport, ...] | None

    @property
    def agreement_rate(self) -> tuple[int, int]:
        return (self.agreements, self.total)


@dataclass(frozen=True)
class WallScanSummary:
    limit: int
    divisor_limit: int
    parity_checked: int
    divisibility_checked: int


# ---------------------------------------------------------------------------
# scans

def _table_for(limit: int, table: PeriodTable | None) -> PeriodTable:
    """``table``, checked to cover exactly m <= limit, or a new
    ``period_table(limit)`` when it is None."""
    if table is None:
        return period_table(limit)
    if len(table.period) != limit + 1:
        raise DomainError(
            f"period table covers m <= {len(table.period) - 1}, not {limit}")
    return table


def _expected_equality_set(limit: int) -> list[int]:
    out, v = [], 10
    while v <= limit:
        out.append(v)
        v *= 5
    return out


def _drive(emit, rows, scan_rows, *args):
    """Run ``scan_rows(*args, wanted)``, a record scan's one row generator,
    and return the summary it returns.  Its rows stream into ``rows`` (a
    callable that takes an iterable of rows, such as a sink's
    ``write_rows``) or reach ``emit`` one ScanRecord at a time; with
    neither, the generator builds no row.  A claim violation raised at m
    leaves the rows of every earlier m with the consumer."""
    if emit is not None and rows is not None:
        raise TypeError("pass emit or rows, not both")
    summary = []

    def run(wanted):
        summary.append((yield from scan_rows(*args, wanted)))

    if rows is not None:
        rows(run(True))
    elif emit is not None:
        for row in run(True):
            emit(ScanRecord(row[0], row[1], Method(row[4]), _FLAGS_OF_TEXT[row[5]]))
    else:
        deque(run(False), maxlen=0)
    return summary[0]


def ratio_scan(limit: int, emit=None, *, table: PeriodTable | None = None,
               rows=None) -> RatioScanSummary:
    """h(m) for 1 <= m <= limit, asserting h(m) <= 6m everywhere and that
    equality happens exactly on {2 * 5^n}.  ``emit`` receives one ScanRecord
    per m in ascending order, or ``rows`` (say ``CsvRecordSink.write_rows``)
    an iterable of their CSV rows; ``table`` is ``period_table(limit)``,
    built here when not given."""
    return _drive(emit, rows, _ratio_rows, limit, _table_for(limit, table))


def _ratio_rows(limit: int, table: PeriodTable, wanted: bool):
    periods, lifts, methods = table.period, table.escalations, table.method
    best_num, best_den = 0, 1
    attained: list[int] = []
    equality: list[int] = []
    guard_count = 0
    for m in range(1, limit + 1):
        period = periods[m]
        six_m = 6 * m
        if period > six_m:
            raise ClaimViolationError(
                f"6m bound violated: h({m}) = {period} > {six_m}",
                details=[(m, period)],
            )
        ratio_six = period == six_m
        if ratio_six:
            equality.append(m)
        lifted = lifts[m] != 0
        if lifted:
            guard_count += 1
        cross_new, cross_best = period * best_den, best_num * m
        new_maximum = cross_new > cross_best
        if new_maximum:
            best_num, best_den = period, m
            attained = [m]
        elif cross_new == cross_best:
            attained.append(m)
        if wanted:
            yield (m, period, period, m, _METHOD_TEXT[methods[m]],
                   _ROW_FLAGS_TEXT[4 * ratio_six + 2 * new_maximum + lifted])
    expected = _expected_equality_set(limit)
    if equality != expected:
        raise ClaimViolationError(
            f"6m equality set {equality} differs from expected {expected}",
            details=[("equality_set", equality, expected)],
        )
    return RatioScanSummary(limit, limit, (best_num, best_den),
                            tuple(attained), tuple(equality), guard_count)


def irreducible_product_scan(limit: int, emit=None, *,
                             table: PeriodTable | None = None,
                             rows=None) -> IrreducibleScanSummary:
    """Over m <= limit built only from odd primes = +-2 (mod 5), assert the
    strict bound h(m) < 4m (checked as 4m - h(m) > 0, exactly).  ``emit``
    and ``rows`` are as in ratio_scan, for the qualifying m only."""
    return _drive(emit, rows, _irreducible_rows, limit, _table_for(limit, table))


def _irreducible_rows(limit: int, table: PeriodTable, wanted: bool):
    spf, periods, methods = table.spf, table.period, table.method
    # kept[m]: every prime of m is odd and = +-2 (mod 5), read as
    # p = 3, 7 (mod 10) for p = spf(m) and kept[m / p]
    kept = bytearray(limit + 1)
    kept[1] = 1
    checked = 0
    best_num, best_den, best_at = 0, 1, 0
    for m in range(1, limit + 1):
        if m > 1:
            p = spf[m] or m
            if not (p % 10 in (3, 7) and kept[m // p]):
                continue
            kept[m] = 1
        period = periods[m]
        if 4 * m - period <= 0:
            raise ClaimViolationError(
                f"irreducible-product bound violated: h({m}) = {period} >= {4 * m}",
                details=[(m, period)],
            )
        checked += 1
        new_maximum = period * best_den > best_num * m
        if new_maximum:
            best_num, best_den, best_at = period, m, m
        if wanted:
            yield (m, period, period, m, _METHOD_TEXT[methods[m]],
                   _ROW_FLAGS_TEXT[2 * new_maximum])
    return IrreducibleScanSummary(limit, checked, (best_num, best_den), best_at)


def lucas_ratio_scan(limit: int, emit=None, *, table: PeriodTable | None = None,
                     rows=None) -> LucasScanSummary:
    """Maximum Lucas-period ratio over m <= limit, with h_L(m) read off
    ``table`` (built here when not given); for limit >= 6 asserts the
    maximum is exactly 4, attained only at m = 6.  ``emit`` and ``rows``
    are as in ratio_scan."""
    return _drive(emit, rows, _lucas_rows, limit, _table_for(limit, table).period)


def _lucas_rows(limit: int, periods, wanted: bool):
    # h_L(m) = h(m) when 5 does not divide m, and lcm(h_L(5^a), h(k)) for
    # m = 5^a k with 5 not dividing k; lucas_five[a - 1] holds h_L(5^a).
    # Rows keep the method lucas_period reports.
    lucas_five: list[int] = []
    method = Method.PRIME_DIVISOR_SEARCH.value
    best_num, best_den = 0, 1
    attained: list[int] = []
    for m in range(1, limit + 1):
        if m % 5:
            period = periods[m]
        else:
            k, a = m // 5, 1
            while k % 5 == 0:
                k, a = k // 5, a + 1
            if a > len(lucas_five):
                lucas_five.append(_lucas_five_power(a))
            period = math.lcm(lucas_five[a - 1], periods[k])
        cross_new, cross_best = period * best_den, best_num * m
        new_maximum = cross_new > cross_best
        if new_maximum:
            best_num, best_den = period, m
            attained = [m]
        elif cross_new == cross_best:
            attained.append(m)
        if wanted:
            yield (m, period, period, m, method, _ROW_FLAGS_TEXT[2 * new_maximum])
    if limit >= 6 and (best_num != 4 * best_den or attained != [6]):
        raise ClaimViolationError(
            f"Lucas maximum expected 4 at m = 6 only; got {best_num}/{best_den}"
            f" attained at {attained}",
            details=[("lucas_max", best_num, best_den, attained)],
        )
    return LucasScanSummary(limit, limit, (best_num, best_den), tuple(attained))


def filter_agreement_scan(prime_limit: int, *, table: PeriodTable | None = None,
                          rows=None) -> FilterScanSummary:
    """Run the divisor filters on every applicable prime <= prime_limit and
    tally agreement with the true period, read from ``table`` (built here
    when not given).  Disagreements are listed, never suppressed and never
    asserted away; only h(p) membership in the divisor set (the divisibility
    theorem itself) is enforced.  ``rows`` (say ``lambda reports:
    write_filter_reports_csv(reports, fh)``) receives an iterable of the
    FilterReports in ascending p, made as it is read, and ``reports`` is
    None; a claim violation at p leaves it the reports of every earlier p.
    Without ``rows``, ``reports`` holds them all."""
    if prime_limit < 0:
        raise DomainError(f"prime limit {prime_limit} must be >= 0")
    spf = periods = ()
    if table is not None or prime_limit >= 2:
        table = _table_for(prime_limit, table)
        spf, periods = table.spf, table.period
    sieve_factors = functools.partial(_sieve_factors, spf)
    total = 0
    disagreements: list[FilterReport] = []

    def scan():
        nonlocal total
        for p in range(3, prime_limit + 1):
            if spf[p] or p == 5:
                continue
            factors = _class_bound(p, sieve_factors)[1]
            report = _filter_report(p, periods[p], Factorization(tuple(factors.items())))
            if not report.true_period_in_divisors:
                raise ClaimViolationError(
                    f"h({p}) = {report.true_period} is not a divisor of the class"
                    f" bound {report.bound}",
                    details=[(p, report.true_period, report.bound)],
                )
            total += 1
            if not report.agrees:
                disagreements.append(report)
            yield report

    reports = None
    if rows is None:
        reports = tuple(scan())
    else:
        rows(scan())
    return FilterScanSummary(prime_limit, total, total - len(disagreements),
                             tuple(disagreements), reports)


def wall_property_scan(limit: int, divisor_limit: int | None = None, *,
                       table: PeriodTable | None = None) -> WallScanSummary:
    """Assert h(m) is even for 2 < m <= limit and h(n) | h(m) whenever
    n | m <= divisor_limit (defaults to limit)."""
    div_limit = limit if divisor_limit is None else divisor_limit
    if div_limit > limit:
        raise DomainError("divisor_limit cannot exceed limit")
    periods = _table_for(limit, table).period
    if div_limit < 0:
        raise DomainError(f"divisor_limit {div_limit} must be >= 0")

    parity_violations = [(m, periods[m]) for m in range(3, limit + 1)
                         if periods[m] % 2]
    if parity_violations:
        raise ClaimViolationError(
            f"h(m) parity violated at {parity_violations[:10]}",
            details=parity_violations,
        )

    # h(n) = 1 (n = 1) divides every h(m), so its pairs are only counted; any
    # other n's multiples come in slices of at most _WALL_BLOCK, each tested
    # in one map, and a slice that fails has its pairs listed one by one
    divisibility_checked = 0
    divisibility_violations = []
    end = div_limit + 1
    for n in range(1, div_limit // 2 + 1):
        hn = periods[n]
        if hn == 1:
            divisibility_checked += div_limit // n - 1
            continue
        start, step = 2 * n, _WALL_BLOCK * n
        while start < end:
            stop = start + step
            multiples = periods[start:stop if stop < end else end:n]
            divisibility_checked += len(multiples)
            if any(map(hn.__rmod__, multiples)):
                divisibility_violations += [(n, k * n, hn, hm) for k, hm in
                                            enumerate(multiples, start // n) if hm % hn]
            start = stop
    if divisibility_violations:
        raise ClaimViolationError(
            f"h(n) | h(m) violated at {divisibility_violations[:10]}",
            details=divisibility_violations,
        )
    return WallScanSummary(limit, div_limit, max(limit - 2, 0), divisibility_checked)


# ---------------------------------------------------------------------------
# report sinks (CSV and JSON, both UTF-8 with LF endings); each formats a row
# with one % template: every field is an int, a ';'-joined list of ints or a
# text from a fixed table, so none ever needs CSV quoting or JSON escaping

_JSON_RECORD = ('{"%s": %%s, "%s": %%s, "%s": %%s, "%s": %%s, "%s": "%%s", "%s": "%%s"}'
                % CSV_COLUMNS)


class CsvRecordSink:
    """Writes rows as CSV lines under a header of ``columns``."""

    def __init__(self, fileobj, columns=CSV_COLUMNS):
        self._file, self._line = fileobj, ",".join(["%s"] * len(columns)) + "\n"
        fileobj.write(self._line % columns)

    def write_rows(self, rows) -> None:
        """Writes an iterable of row tuples in the order of ``columns``, as a
        scan's ``rows=`` hands them, row by row."""
        self._file.writelines(map(self._line.__mod__, rows))

    def close(self) -> None:
        pass


class JsonRecordSink:
    """Writes rows as a JSON array of objects keyed by ``columns``, one a
    line; ``close`` ends the array.  Rows keyed by other columns (filter
    rows, which hold lists, None and booleans) go through json.dumps."""

    def __init__(self, fileobj, columns=CSV_COLUMNS):
        self._file, self._prefix = fileobj, "\n"  # ",\n" once an object is written
        self._object = (_JSON_RECORD.__mod__ if columns == CSV_COLUMNS
                        else lambda row: json.dumps(dict(zip(columns, row))))
        fileobj.write("[")

    def write_rows(self, rows) -> None:
        """Writes an iterable of row tuples, one object each."""
        objects = map(self._object, rows)
        for first in objects:  # runs once: the rest follow in one writelines
            self._file.write(self._prefix + first)
            self._prefix = ",\n"
            self._file.writelines(map(",\n".__add__, objects))

    def close(self) -> None:
        self._file.write("]\n" if self._prefix == "\n" else "\n]\n")


FILTER_CSV_COLUMNS = ("prime", "bound", "true_period", "filter_answer", "agrees",
                      "surviving", "all_divisors")


def write_filter_reports_csv(reports, fileobj) -> None:
    """Writes an iterable of FilterReports through a CsvRecordSink with the
    FILTER_CSV_COLUMNS header, one row each: no filter answer is an empty
    field, and the divisor lists are ';'-joined."""
    CsvRecordSink(fileobj, FILTER_CSV_COLUMNS).write_rows(
        (r.prime, r.bound, r.true_period,
         "" if r.filter_answer is None else r.filter_answer,
         "true" if r.agrees else "false",
         ";".join(map(str, r.surviving)), ";".join(map(str, r.all_divisors)))
        for r in reports)


def write_filter_reports_json(reports, fileobj) -> None:
    """Writes an iterable of FilterReports through a JsonRecordSink keyed by
    FILTER_CSV_COLUMNS, one object a line; the array is closed even when the
    iterable raises."""
    sink = JsonRecordSink(fileobj, FILTER_CSV_COLUMNS)
    try:
        sink.write_rows((r.prime, r.bound, r.true_period, r.filter_answer, r.agrees,
                         list(r.surviving), list(r.all_divisors)) for r in reports)
    finally:
        sink.close()
