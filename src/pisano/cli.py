"""Command-line front end.

Exit codes: 0 success, 1 domain/overflow error, 2 usage error, 3 claim or
internal assertion failure.  The split lets a CI job tell "bad input" from
"a verified property actually failed".  Failure paths write nothing to
stdout except a machine-readable error object under --json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections import deque
from pathlib import Path

from .analysis import (
    CsvRecordSink,
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
from .errors import ClaimViolationError, PisanoError
from .fibmod import _check_modulus, fib_pair
from .numth import Factorization, _factor_pairs, gcd
from .periods import (
    PrimeClass,
    _period,
    classify_prime,
    period_bound,
    period_table,
    prime_period,
)
# Unused factorize, lucas_period, pisano_period: bench/tracer.py wraps them here.
from .numth import factorize  # noqa: F401
from .periods import lucas_period, pisano_period  # noqa: F401
from .theorems import fib_index_period, fibonacci_primitive_root


def _int_at_least(low: int, rule: str):
    """An argparse type: an integer >= low, or a usage error ending in ``rule``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} {rule}")
        return value
    return parse


positive_int = _int_at_least(1, "must be a positive integer")
nonneg_int = _int_at_least(0, "must be >= 0")


def _fmt_ratio(num: int, den: int) -> str:
    # exact integers render bare; everything else to 6 decimal places
    if den and num % den == 0:
        return str(num // den)
    g = gcd(num, den)
    return f"{num / den:.6f} ({num // g}/{den // g})"


def _fmt_set(values) -> str:
    return "{" + ",".join(str(v) for v in values) + "}"


# ---------------------------------------------------------------------------
# subcommands

def cmd_period(args) -> int:
    m = args.m
    _check_modulus(m)
    pairs = _factor_pairs(m)  # factored once, for the period and the print
    result = _period(m, pairs, lucas=args.lucas)
    if args.json:
        flags = period_flags(m, result.period, result.lift_escalations)
        record = ScanRecord(m, result.period, result.method, frozenset(flags))
        print(json.dumps(record.json_obj()))
        return 0
    name = "h_L" if args.lucas else "h"
    print(f"{name}({m}) = {result.period}")
    print(f"method: {result.method.value}")
    print(f"factors: {m} = {Factorization(tuple(pairs))}")
    return 0


def cmd_fib(args) -> int:
    pair = fib_pair(args.n, args.mod)
    print(f"{pair.lo} {pair.hi}")
    return 0


def cmd_classify(args) -> int:
    p = args.p
    cls = classify_prime(p)
    bound = period_bound(p)
    if cls is PrimeClass.SPLIT:
        print(f"split (h | p-1 = {bound})")
    elif cls is PrimeClass.IRREDUCIBLE:
        print(f"irreducible (h | 2p+2 = {bound})")
    else:
        print(f"{cls.value} (h = {bound})")
    return 0


def cmd_fpr(args) -> int:
    p = args.p
    res = fibonacci_primitive_root(p)
    print(f"roots: {', '.join(str(g) for g in res.roots)}")
    for g, order in zip(res.roots, res.orders):
        mark = "  (primitive)" if g in res.primitive_roots_among_them else ""
        print(f"order({g}) = {order}{mark}")
    print(f"has_fpr: {str(res.has_fpr).lower()}")
    h = prime_period(p).period
    suffix = " = p - 1" if h == p - 1 else ""
    print(f"h({p}) = {h}{suffix}")
    return 0


def cmd_fib_index(args) -> int:
    res = fib_index_period(args.m)
    print(f"F_{res.index} = {res.fib}")
    print(f"predicted: {res.predicted}")
    print(f"computed: {res.computed.period} ({res.computed.method.value})")
    if res.agrees:
        print("OK")
        return 0
    print("MISMATCH")
    return 3


_SUITES = ("ratio", "irreducible", "lucas", "filters", "wall")


class _Counted:
    """A one-shot iterable whose len() is how many items it has yielded, for
    bench/tracer.py's filter-writer wrapper, which takes len() after a write."""

    def __init__(self, items):
        self.items, self.count = items, 0

    def __iter__(self):
        for item in self.items:
            self.count += 1
            yield item

    def __len__(self) -> int:
        return self.count


def _run_suite(suite: str, limit: int, table, rows):
    """Returns the suite's one-line summary.  The scan streams its rows, or
    the filter suite its FilterReports, into ``rows`` as it makes them; with
    rows None no row is made and each report is dropped once counted.  Every
    suite reads the one ``period_table(limit)`` passed as table."""
    if suite == "ratio":
        s = ratio_scan(limit, table=table, rows=rows)
        return (f"ratio: {s.records} moduli; max ratio "
                f"{_fmt_ratio(*s.max_ratio)} at {_fmt_set(s.attained)}; "
                f"equality set {_fmt_set(s.equality_set)}; "
                f"lift guard triggered {s.lift_guard_count}x")
    if suite == "irreducible":
        s = irreducible_product_scan(limit, table=table, rows=rows)
        return (f"irreducible: {s.checked} of {limit} moduli qualify; "
                f"max ratio {_fmt_ratio(*s.max_ratio)} at m={s.max_at}; "
                f"bound 4 holds")
    if suite == "lucas":
        s = lucas_ratio_scan(limit, table=table, rows=rows)
        return (f"lucas: {s.records} moduli; max ratio "
                f"{_fmt_ratio(*s.max_ratio)} at {_fmt_set(s.attained)}")
    if suite == "filters":
        s = filter_agreement_scan(limit, table=table,
                                  rows=rows or (lambda reports: deque(reports, maxlen=0)))
        line = f"filters: {s.agreements}/{s.total} agree with h(p)"
        if s.disagreements:
            primes = [r.prime for r in s.disagreements]
            line += f"; disagreements at {_fmt_set(primes)}"
        return line
    s = wall_property_scan(limit, table=table)
    return (f"wall: parity ok for {s.parity_checked} moduli; "
            f"divisibility ok for {s.divisibility_checked} pairs")


def cmd_scan(args) -> int:
    suites = _SUITES if args.suite == "all" else (args.suite,)
    fmt = args.emit or ("csv" if args.out else None)
    out_dir = None
    if args.out is not None and len(suites) > 1:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    # with records streaming to stdout, every summary goes to stderr
    summary_fh = sys.stderr if fmt is not None and args.out is None else sys.stdout
    table = period_table(args.limit)
    for suite in suites:
        with contextlib.ExitStack() as stack:  # closes the sink, then the file
            rows = None
            if fmt is not None and suite != "wall":
                path = (out_dir / f"{suite}.{fmt}") if out_dir else args.out
                fh = sys.stdout if path is None else stack.enter_context(
                    open(path, "w", encoding="utf-8", newline=""))
                if suite == "filters":
                    writer = (write_filter_reports_json if fmt == "json"
                              else write_filter_reports_csv)
                    rows = lambda reports: writer(_Counted(reports), fh)
                else:
                    sink = CsvRecordSink(fh) if fmt == "csv" else JsonRecordSink(fh)
                    stack.callback(sink.close)
                    rows = sink.write_rows
            summary = _run_suite(suite, args.limit, table, rows)
        print(summary, file=summary_fh)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pisano",
        description="Fibonacci and Lucas periods modulo m, with claim-"
                    "verification scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("period", help="period of the sequence mod m")
    p.add_argument("m", type=positive_int)
    p.add_argument("--lucas", action="store_true", help="Lucas period instead")
    p.add_argument("--json", action="store_true", help="emit one JSON object")
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("fib", help="F_n mod m and its successor")
    p.add_argument("n", type=nonneg_int)
    p.add_argument("--mod", type=positive_int, required=True)
    p.set_defaults(func=cmd_fib)

    p = sub.add_parser("classify", help="residue class of a prime")
    p.add_argument("p", type=positive_int)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("fpr", help="roots of g^2 = g + 1 mod p and their orders")
    p.add_argument("p", type=positive_int)
    p.set_defaults(func=cmd_fpr)

    p = sub.add_parser("fib-index", help="period mod F_m: predicted vs computed")
    p.add_argument("m", type=positive_int)
    p.set_defaults(func=cmd_fib_index)

    p = sub.add_parser("scan", help="range scans with report output")
    p.add_argument("--limit", type=positive_int, required=True)
    p.add_argument("--suite", choices=_SUITES + ("all",), default="all")
    p.add_argument("--emit", choices=("csv", "json"))
    p.add_argument("--out", help="report file (directory for --suite all)")
    p.add_argument("--seed", type=int, help="accepted; changes nothing")
    p.add_argument("--threads", type=positive_int,
                   help="accepted; changes nothing (scans run in one process)")
    p.set_defaults(func=cmd_scan)

    return parser


def _fail(args, exc, code: int) -> int:
    sys.stderr.write(f"error: {exc}\n")
    if getattr(args, "json", False):
        print(json.dumps({"error": str(exc), "exit_code": code}))
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ClaimViolationError as exc:
        return _fail(args, exc, 3)
    except (PisanoError, OSError) as exc:
        return _fail(args, exc, 1)


if __name__ == "__main__":
    sys.exit(main())
