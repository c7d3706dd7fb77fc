"""The record scans' row loops, which test the common case first (a ratio
below the running best carries no flag and counts nothing), against the
loops that ran the full event test on every m, kept here as the oracle,
on period tables with planted events."""

import math
import random

import pytest

from pisano import analysis
from pisano.analysis import (
    _METHOD_TEXT,
    _ROW_FLAGS_TEXT,
    IrreducibleScanSummary,
    LucasScanSummary,
    RatioScanSummary,
    _expected_equality_set,
)
from pisano.errors import ClaimViolationError
from pisano.fibmod import Method
from pisano.periods import period_table


def oracle_ratio_rows(limit, table, wanted):
    periods, lifts, methods = table.period, table.escalations, table.method
    best_num, best_den = 0, 1
    attained, equality = [], []
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


def oracle_irreducible_rows(limit, table, wanted):
    spf, periods, methods = table.spf, table.period, table.method
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


def oracle_lucas_rows(limit, periods, wanted):
    method = Method.PRIME_DIVISOR_SEARCH.value
    best_num, best_den = 0, 1
    attained = []
    for m in range(1, limit + 1):
        period = periods[m] if m % 5 else math.lcm(4, periods[m // 5])
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


# (name, the loop under test, its oracle); the Lucas loops read the periods
LOOPS = [
    ("ratio", analysis._ratio_rows, oracle_ratio_rows),
    ("irreducible", analysis._irreducible_rows, oracle_irreducible_rows),
    ("lucas", lambda limit, table, wanted: analysis._lucas_rows(limit, table.period, wanted),
     lambda limit, table, wanted: oracle_lucas_rows(limit, table.period, wanted)),
]
LIMIT = 2000


def outcome(loop, limit, table, wanted):
    """(the rows a loop yields, then ("summary", its summary) or ("raised",
    message, details))."""
    rows, gen = [], loop(limit, table, wanted)
    try:
        while True:
            rows.append(next(gen))
    except StopIteration as stop:
        return rows, ("summary", stop.value)
    except ClaimViolationError as error:
        return rows, ("raised", str(error), error.details)


def kept_moduli(limit):
    return [row[0] for row in oracle_irreducible_rows(limit, period_table(limit), True)]


KEPT = kept_moduli(LIMIT)
LATE_KEPT = [m for m in KEPT if m > LIMIT // 2]
NOT_FIVE = [m for m in range(7, LIMIT + 1) if m % 5]


def plant(kind, rng, table):
    """Plant one event of ``kind`` at a seeded m of ``table``."""
    period = table.period
    if kind == "ratio equality":  # h(m) = 6m off the set {2 * 5^k}
        m = rng.choice([m for m in range(11, LIMIT + 1) if m not in (50, 250, 1250)])
        period[m] = 6 * m
    elif kind == "ratio violation":
        m = rng.randrange(2, LIMIT + 1)
        period[m] = 6 * m + 2
    elif kind == "lift":
        for m in rng.sample(range(1, LIMIT + 1), 3):
            table.escalations[m] = rng.randrange(1, 3)
    elif kind == "lucas tie":  # h_L(m) = 4m at m != 6
        m = rng.choice(NOT_FIVE)
        period[m] = 4 * m
    elif kind == "lucas late maximum":
        m = rng.choice([m for m in NOT_FIVE if m > LIMIT // 2])
        period[m] = 4 * m + 2
    elif kind == "irreducible late maximum":
        m = rng.choice(LATE_KEPT)
        period[m] = 4 * m - 2
    elif kind == "irreducible tie":  # the best ratio 8/3 of m = 3 again
        m = rng.choice([m for m in LATE_KEPT if m % 3 == 0])
        period[m] = 8 * m // 3
    elif kind == "irreducible violation":
        m = rng.choice(KEPT[1:])
        period[m] = 4 * m


def raised(text):
    return lambda end: end[0] == "raised" and end[1].startswith(text)


# what each plant must do to the loop it aims at, so that every plant is seen
# to reach the loops' event path
KINDS = {
    "none": ("ratio", lambda end: end[0] == "summary"),
    "ratio equality": ("ratio", raised("6m equality set")),
    "ratio violation": ("ratio", raised("6m bound violated")),
    "lift": ("ratio", lambda end: end[0] == "summary" and end[1].lift_guard_count == 3),
    "lucas tie": ("lucas", raised("Lucas maximum expected 4 at m = 6 only; got 24/6")),
    "lucas late maximum": ("lucas", raised("Lucas maximum")),
    "irreducible late maximum": ("irreducible",
                                 lambda end: end[0] == "summary" and end[1].max_at > LIMIT // 2),
    "irreducible tie": ("irreducible",
                        lambda end: end[0] == "summary" and end[1].max_ratio == (8, 3)),
    "irreducible violation": ("irreducible", raised("irreducible-product bound violated")),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", KINDS)
def test_row_loops_match_the_full_test_loops_on_planted_tables(kind, seed):
    rng = random.Random(f"{kind} {seed}")
    table = period_table(LIMIT)
    plant(kind, rng, table)
    target, effect = KINDS[kind]
    for name, loop, oracle in LOOPS:
        for wanted in (True, False):
            got = outcome(loop, LIMIT, table, wanted)
            want = outcome(oracle, LIMIT, table, wanted)
            assert got[1] == want[1], (name, wanted)
            assert len(got[0]) == len(want[0]), (name, wanted)
            for got_row, want_row in zip(got[0], want[0]):
                assert got_row == want_row, (name, wanted)
            if name == target:
                assert effect(got[1]), (name, wanted, got[1])
