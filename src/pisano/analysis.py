"""Range scans over the global claims: the 6m ceiling and its equality set,
the <4 ratio for odd irreducible products, the Lucas maximum at m = 6, the
filter diagnostics, and the parity/divisibility laws.

Ratios are exact integer pairs throughout; floating point never enters a
stored value, so 6m equality cannot alias.  Hard assertions raise
ClaimViolationError with the offending evidence attached.  Each scan is one
sequential pass; records reach the sink in ascending m, so identical
arguments produce byte-identical reports.

No scan factors m: all five read h(m) from one sieve-built
``periods.period_table(limit)``, in which each h(p) and each lift is
computed once and verified, and the filter scan reads its primes off the
same sieve.  Each scan takes that table as ``table=`` (``pisano scan
--suite all`` builds one and hands it to every suite) or builds its own.
A limit too large for the tables is a DomainError before any work starts.
"""

from __future__ import annotations

import csv
import enum
import json
# Unused ProcessPoolExecutor stays: bench/tracer.py wraps it here.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass

from .errors import ClaimViolationError, DomainError
from .fibmod import Method
from .periods import TABLE_METHODS, PeriodTable, lucas_period_table, period_table
from .theorems import FilterReport, _filter_report
# Unused primes_up_to, lucas_period, theorem1_period and theorem2_period
# stay: bench/tracer.py wraps them here.
from .numth import primes_up_to  # noqa: F401
from .periods import lucas_period  # noqa: F401
from .theorems import theorem1_period, theorem2_period  # noqa: F401


class Flag(enum.Enum):
    """Per-record markers attached during scans."""

    RATIO_SIX = "RatioSix"
    NEW_MAXIMUM = "NewMaximum"
    FILTER_DISAGREEMENT = "FilterDisagreement"
    LIFT_GUARD_TRIGGERED = "LiftGuardTriggered"


_FLAG_ORDER = (
    Flag.RATIO_SIX,
    Flag.NEW_MAXIMUM,
    Flag.FILTER_DISAGREEMENT,
    Flag.LIFT_GUARD_TRIGGERED,
)

CSV_COLUMNS = ("m", "period", "ratio_num", "ratio_den", "method", "flags")


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
        if not self.flags:
            return ""
        return ";".join(f.value for f in _FLAG_ORDER if f in self.flags)

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
    prime_limit: int
    reports: tuple[FilterReport, ...]

    @property
    def total(self) -> int:
        return len(self.reports)

    @property
    def agreements(self) -> int:
        return sum(1 for r in self.reports if r.agrees)

    @property
    def disagreements(self) -> tuple[FilterReport, ...]:
        return tuple(r for r in self.reports if not r.agrees)

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

def _check_limit(limit: int) -> None:
    if limit < 1:
        raise DomainError(f"scan limit {limit} must be >= 1")


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


def ratio_scan(limit: int, emit=None, *,
               table: PeriodTable | None = None) -> RatioScanSummary:
    """h(m) for 1 <= m <= limit, asserting h(m) <= 6m everywhere and that
    equality happens exactly on {2 * 5^n}.  ``emit`` receives one ScanRecord
    per m in ascending order; ``table`` is ``period_table(limit)``, built
    here when not given."""
    _check_limit(limit)
    table = _table_for(limit, table)
    periods, lifts, methods = table.period, table.escalations, table.method
    best_num, best_den = 0, 1
    attained: list[int] = []
    equality: list[int] = []
    guard_count = 0
    for m in range(1, limit + 1):
        period = periods[m]
        if period > 6 * m:
            raise ClaimViolationError(
                f"6m bound violated: h({m}) = {period} > {6 * m}",
                details=[(m, period)],
            )
        flags = period_flags(m, period, lifts[m])
        if Flag.RATIO_SIX in flags:
            equality.append(m)
        cross_new, cross_best = period * best_den, best_num * m
        if cross_new > cross_best:
            best_num, best_den = period, m
            attained = [m]
            flags.add(Flag.NEW_MAXIMUM)
        elif cross_new == cross_best:
            attained.append(m)
        if Flag.LIFT_GUARD_TRIGGERED in flags:
            guard_count += 1
        if emit is not None:
            emit(ScanRecord(m, period, TABLE_METHODS[methods[m]], frozenset(flags)))
    expected = _expected_equality_set(limit)
    if equality != expected:
        raise ClaimViolationError(
            f"6m equality set {equality} differs from expected {expected}",
            details=[("equality_set", equality, expected)],
        )
    return RatioScanSummary(limit, limit, (best_num, best_den),
                            tuple(attained), tuple(equality), guard_count)


def irreducible_product_scan(limit: int, emit=None, *,
                             table: PeriodTable | None = None) -> IrreducibleScanSummary:
    """Over m <= limit built only from odd primes = +-2 (mod 5), assert the
    strict bound h(m) < 4m (checked as 4m - h(m) > 0, exactly)."""
    _check_limit(limit)
    table = _table_for(limit, table)
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
        flags = set()
        if period * best_den > best_num * m:
            best_num, best_den, best_at = period, m, m
            flags.add(Flag.NEW_MAXIMUM)
        if emit is not None:
            emit(ScanRecord(m, period, TABLE_METHODS[methods[m]], frozenset(flags)))
    return IrreducibleScanSummary(limit, checked, (best_num, best_den), best_at)


def lucas_ratio_scan(limit: int, emit=None, *,
                     table: PeriodTable | None = None) -> LucasScanSummary:
    """Maximum Lucas-period ratio over m <= limit; for limit >= 6 asserts the
    maximum is exactly 4, attained only at m = 6."""
    _check_limit(limit)
    periods = lucas_period_table(_table_for(limit, table))
    best_num, best_den = 0, 1
    attained: list[int] = []
    for m in range(1, limit + 1):
        period = periods[m]
        cross_new, cross_best = period * best_den, best_num * m
        flags = set()
        if cross_new > cross_best:
            best_num, best_den = period, m
            attained = [m]
            flags.add(Flag.NEW_MAXIMUM)
        elif cross_new == cross_best:
            attained.append(m)
        if emit is not None:
            # the Lucas CSV keeps the method lucas_period reports
            emit(ScanRecord(m, period, Method.PRIME_DIVISOR_SEARCH, frozenset(flags)))
    if limit >= 6 and (best_num != 4 * best_den or attained != [6]):
        raise ClaimViolationError(
            f"Lucas maximum expected 4 at m = 6 only; got {best_num}/{best_den}"
            f" attained at {attained}",
            details=[("lucas_max", best_num, best_den, attained)],
        )
    return LucasScanSummary(limit, limit, (best_num, best_den), tuple(attained))


def filter_agreement_scan(prime_limit: int, *,
                          table: PeriodTable | None = None) -> FilterScanSummary:
    """Run the divisor filters on every applicable prime <= prime_limit and
    tally agreement with the true period, read from ``table`` (built here
    when not given).  Disagreements are listed, never suppressed and never
    asserted away; only h(p) membership in the divisor set (the divisibility
    theorem itself) is enforced."""
    if prime_limit < 0:
        raise DomainError(f"prime limit {prime_limit} must be >= 0")
    if prime_limit < 2:
        return FilterScanSummary(prime_limit, ())
    table = _table_for(prime_limit, table)
    spf, periods = table.spf, table.period
    reports: list[FilterReport] = []
    for p in range(3, prime_limit + 1):
        if spf[p] or p == 5:
            continue
        report = _filter_report(p, periods[p])
        if not report.true_period_in_divisors:
            raise ClaimViolationError(
                f"h({p}) = {report.true_period} is not a divisor of the class"
                f" bound {report.bound}",
                details=[(p, report.true_period, report.bound)],
            )
        reports.append(report)
    return FilterScanSummary(prime_limit, tuple(reports))


def wall_property_scan(limit: int, divisor_limit: int | None = None, *,
                       table: PeriodTable | None = None) -> WallScanSummary:
    """Assert h(m) is even for 2 < m <= limit and h(n) | h(m) whenever
    n | m <= divisor_limit (defaults to limit)."""
    _check_limit(limit)
    div_limit = limit if divisor_limit is None else divisor_limit
    if div_limit > limit:
        raise DomainError("divisor_limit cannot exceed limit")
    periods = _table_for(limit, table).period

    parity_violations = [(m, periods[m]) for m in range(3, limit + 1)
                         if periods[m] % 2]
    if parity_violations:
        raise ClaimViolationError(
            f"h(m) parity violated at {parity_violations[:10]}",
            details=parity_violations,
        )

    divisibility_checked = 0
    divisibility_violations = []
    for n in range(1, div_limit + 1):
        hn = periods[n]
        for m in range(2 * n, div_limit + 1, n):
            divisibility_checked += 1
            if periods[m] % hn:
                divisibility_violations.append((n, m, hn, periods[m]))
    if divisibility_violations:
        raise ClaimViolationError(
            f"h(n) | h(m) violated at {divisibility_violations[:10]}",
            details=divisibility_violations,
        )
    return WallScanSummary(limit, div_limit, max(limit - 2, 0), divisibility_checked)


# ---------------------------------------------------------------------------
# report sinks (CSV and JSON, both UTF-8 with LF endings)

class CsvRecordSink:
    """Streams ScanRecords as CSV rows; header written up front."""

    def __init__(self, fileobj):
        self._writer = csv.writer(fileobj, lineterminator="\n")
        self._writer.writerow(CSV_COLUMNS)

    def __call__(self, record: ScanRecord) -> None:
        self._writer.writerow(record.csv_row())

    def close(self) -> None:
        pass


class JsonRecordSink:
    """Streams ScanRecords as a JSON array, one object per line."""

    def __init__(self, fileobj):
        self._file = fileobj
        self._count = 0
        self._file.write("[")

    def __call__(self, record: ScanRecord) -> None:
        prefix = "\n" if self._count == 0 else ",\n"
        self._file.write(prefix + json.dumps(record.json_obj()))
        self._count += 1

    def close(self) -> None:
        self._file.write("\n]\n" if self._count else "]\n")


FILTER_CSV_COLUMNS = ("prime", "bound", "true_period", "filter_answer", "agrees",
                      "surviving", "all_divisors")


def filter_report_obj(report: FilterReport) -> dict:
    return {
        "prime": report.prime,
        "bound": report.bound,
        "true_period": report.true_period,
        "filter_answer": report.filter_answer,
        "agrees": report.agrees,
        "surviving": list(report.surviving),
        "all_divisors": list(report.all_divisors),
    }


def write_filter_reports_csv(reports, fileobj) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(FILTER_CSV_COLUMNS)
    for r in reports:
        writer.writerow((
            r.prime, r.bound, r.true_period,
            "" if r.filter_answer is None else r.filter_answer,
            str(r.agrees).lower(),
            ";".join(str(d) for d in r.surviving),
            ";".join(str(d) for d in r.all_divisors),
        ))


def write_filter_reports_json(reports, fileobj) -> None:
    fileobj.write("[")
    for i, r in enumerate(reports):
        fileobj.write(("\n" if i == 0 else ",\n") + json.dumps(filter_report_obj(r)))
    fileobj.write("\n]\n" if reports else "]\n")
