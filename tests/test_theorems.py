import random

import pytest

from pisano.errors import ClaimViolationError, DomainError, PeriodOverflowError
from pisano.analysis import filter_agreement_scan
from pisano.fibmod import Method, _fib_pair_ints, fib_exact, fib_pair
from pisano.numth import _lucas_ladder, divisors, factorize, is_prime, primes_up_to
from pisano.periods import period_table, prime_period, pisano_period
from pisano.theorems import (
    FilterReport,
    fib_index_period,
    fibonacci_primitive_root,
    theorem1_candidates,
    theorem1_period,
    theorem2_candidates,
    theorem2_period,
)


def naive_order(g, p):
    x, k = g % p, 1
    while x != 1:
        x = x * g % p
        k += 1
    return k


def test_theorem1_candidates_knowns():
    assert theorem1_candidates(3) == [8]
    assert theorem1_candidates(7) == [16]
    assert theorem1_candidates(13) == [28]


def test_theorem1_candidates_conditions_hold():
    for p in primes_up_to(500):
        if p % 5 not in (2, 3) or p == 2:
            continue
        cands = theorem1_candidates(p)
        half = p * (p + 1) // 2
        for d in cands:
            assert (2 * p + 2) % d == 0
            assert half % d != 0
            assert (p + 1) % d != 0
            assert (3 * (p - 1)) % d != 0


def test_theorem1_candidates_wrong_class():
    with pytest.raises(DomainError):
        theorem1_candidates(11)  # split
    with pytest.raises(DomainError):
        theorem1_candidates(5)
    with pytest.raises(DomainError):
        theorem1_candidates(9)  # not prime


def test_theorem2_candidates_knowns():
    assert theorem2_candidates(11) == [10]
    assert theorem2_candidates(29) == [4, 14, 28]
    assert theorem2_candidates(31) == [6, 10, 30]
    assert theorem2_candidates(101) == [4, 10, 20, 50, 100]


def test_theorem2_candidates_conditions_hold():
    for p in primes_up_to(500):
        if p % 5 not in (1, 4):
            continue
        for d in theorem2_candidates(p):
            assert (p - 1) % d == 0
            assert d % 2 == 0
            assert (p + 1) % d != 0


def test_theorem2_candidates_wrong_class():
    with pytest.raises(DomainError):
        theorem2_candidates(7)


def test_filter_reports_agree_on_small_primes():
    for p in primes_up_to(500):
        if p in (2, 5):
            continue
        rep = theorem1_period(p) if p % 5 in (2, 3) else theorem2_period(p)
        assert rep.prime == p
        assert rep.true_period == prime_period(p).period
        assert rep.true_period in rep.all_divisors
        assert set(rep.surviving) <= set(rep.all_divisors)
        # F_{h+1} = 1 (mod p) is forced by the pair definition of h
        assert fib_pair(rep.true_period, p).hi == 1
        # not asserted in the library; it happens to hold at this range
        assert rep.agrees, p


def test_filter_answer_is_congruence_checked():
    # p = 29: least survivor 4 fails F_5 = 1, so the answer is 14
    rep = theorem2_period(29)
    assert rep.surviving == (4, 14, 28)
    assert fib_pair(4, 29).hi != 1
    assert fib_pair(14, 29).hi == 1
    assert rep.filter_answer == 14
    assert rep.true_period == 14


def test_filter_report_on_proper_divisor_case():
    # h(47) = 32 is a proper divisor of 2p + 2 = 96
    rep = theorem1_period(47)
    assert rep.bound == 96
    assert rep.true_period == 32
    assert rep.true_period in rep.all_divisors


def test_filter_answer_for_101():
    rep = theorem2_period(101)
    assert rep.surviving == (4, 10, 20, 50, 100)
    assert rep.filter_answer == 50
    assert rep.agrees


def reference_filter_report(p: int) -> FilterReport:
    """The filter report built the way the scan built it before it read the
    sieve: the class bound factored by ``factorize``, and the first
    candidate whose F_{d+1} = 1 (mod p) by fast doubling."""
    split = p % 5 in (1, 4)
    bound = p - 1 if split else 2 * p + 2
    candidates = theorem2_candidates(p) if split else theorem1_candidates(p)
    answer = next((d for d in candidates if _fib_pair_ints(d, p)[1] == 1), None)
    return FilterReport(p, bound, divisors(factorize(bound)), tuple(candidates),
                        answer, prime_period(p).period)


def test_filter_scan_matches_the_factorize_and_fast_doubling_reports():
    reports = filter_agreement_scan(20000).reports
    primes = [p for p in primes_up_to(20000) if p not in (2, 5)]
    assert [r.prime for r in reports] == primes
    for rep in reports:
        ref = reference_filter_report(rep.prime)
        for name in ("prime", "bound", "all_divisors", "surviving",
                     "filter_answer", "true_period"):
            assert getattr(rep, name) == getattr(ref, name), (rep.prime, name)


@pytest.mark.parametrize("residues", [(1, 4), (2, 3)], ids=["split", "irreducible"])
def test_filter_reports_match_the_reference_at_64_bits(residues):
    rng = random.Random(7177 + residues[0])
    run = theorem2_period if residues == (1, 4) else theorem1_period
    for bits in (61, 62, 63):
        while True:
            p = rng.randrange(2 ** (bits - 1), 2**bits) | 1
            if p % 5 in residues and is_prime(p):
                break
        assert run(p) == reference_filter_report(p), p


def ladder_walk_answer(p: int, candidates) -> int | None:
    """The filter answer as the scan found it before it read h(p): the
    first candidate d with L_d + L_(d+2) = 5 (mod p), one ladder each."""
    for d in candidates:
        lo, hi = _lucas_ladder(d // 2, p)
        if (lo + hi) % p == 5 % p:
            return d
    return None


def test_filter_answer_by_divisibility_matches_the_ladder_walk():
    reports = filter_agreement_scan(10**5).reports
    assert len(reports) == 9590
    for rep in reports:
        assert rep.filter_answer == ladder_walk_answer(rep.prime, rep.surviving), rep.prime
    rng = random.Random(1149)
    for i in range(40):
        bits = 40 + i % 9
        p = rng.randrange(2 ** (bits - 1), 2**bits) | 1
        while not is_prime(p):
            p += 2
        rep = theorem2_period(p) if p % 5 in (1, 4) else theorem1_period(p)
        assert rep.filter_answer == ladder_walk_answer(p, rep.surviving), p


def test_filter_disagreements_answer_h_minus_two():
    # F_(d+1) = 1 holds for h | d + 2 as well as h | d: at these primes a
    # candidate h - 2 survives and comes first
    s = filter_agreement_scan(10**5)
    assert [(r.prime, r.true_period, r.filter_answer) for r in s.disagreements] == [
        (19489, 58, 56), (31249, 126, 124)]
    assert (s.total, s.agreements) == (9590, 9588)
    for p, h in ((144481, 86), (146521, 222)):
        rep = theorem2_period(p) if p % 5 in (1, 4) else theorem1_period(p)
        assert (rep.true_period, rep.filter_answer) == (h, h - 2), p


def test_a_wrong_period_that_picks_a_failing_d_is_a_claim_violation():
    # p = 29 keeps 4, 14 and 28; F_5 = 5 (mod 29), so h = 4 would pick a d
    # the confirming ladder rejects
    table = period_table(100)
    assert (table.period[29], theorem2_period(29).surviving) == (14, (4, 14, 28))
    assert fib_pair(4, 29).hi != 1
    table.period[29] = 4
    with pytest.raises(ClaimViolationError, match=r"p = 29\b") as info:
        filter_agreement_scan(100, table=table)
    assert info.value.details == [(29, 4, 4)]
    assert "h(29) = 4" in str(info.value)


def test_fpr_known_roots():
    res = fibonacci_primitive_root(11)
    assert res.roots == (8, 4)
    assert res.orders == (10, 5)
    assert res.primitive_roots_among_them == (8,)
    assert res.has_fpr


def test_fpr_double_root_at_five():
    res = fibonacci_primitive_root(5)
    assert res.roots == (3,)
    assert res.orders == (4,)
    assert res.has_fpr  # order 4 = p - 1


def test_fpr_exists_iff_some_root_is_primitive():
    for p in primes_up_to(600):
        if p % 5 not in (1, 4):
            continue
        res = fibonacci_primitive_root(p)
        assert len(res.roots) == 2
        for g, order in zip(res.roots, res.orders):
            assert (g * g - g - 1) % p == 0
            assert order == naive_order(g, p)
        assert res.has_fpr == any(o == p - 1 for o in res.orders)
        assert res.primitive_roots_among_them == tuple(
            g for g, o in zip(res.roots, res.orders) if o == p - 1
        )


def test_fpr_roots_pair_up():
    # the two roots multiply to -1 and sum to 1 (mod p): Vieta on x^2 - x - 1
    for p in primes_up_to(10**4):
        if p % 5 not in (1, 4):
            continue
        res = fibonacci_primitive_root(p)
        a, b = res.roots
        assert (a + b) % p == 1
        assert a * b % p == p - 1
        if res.has_fpr:
            assert prime_period(p).period == p - 1


def test_fpr_no_roots_for_irreducible_class():
    with pytest.raises(DomainError):
        fibonacci_primitive_root(7)
    with pytest.raises(DomainError):
        fibonacci_primitive_root(2)
    with pytest.raises(DomainError):
        fibonacci_primitive_root(15)


def test_fpr_29_has_none():
    res = fibonacci_primitive_root(29)
    assert res.roots == (6, 24)
    assert not res.has_fpr


def test_fib_index_known_values():
    res = fib_index_period(6)
    assert res.fib == 8
    assert res.predicted == 12
    assert res.computed.period == 12
    assert res.computed.method is Method.FIB_INDEX_LAW
    assert res.agrees
    assert fib_index_period(7).predicted == 28  # odd index: 4m
    assert fib_index_period(10).predicted == 20


def test_fib_index_agrees_over_range():
    for m in range(4, 40):
        res = fib_index_period(m)
        assert res.fib == fib_exact(m)
        assert res.predicted == (2 * m if m % 2 == 0 else 4 * m)
        assert res.agrees, m
        assert res.computed.period == pisano_period(res.fib).period


def test_fib_index_domain():
    for m in (0, 1, 2, 3):
        with pytest.raises(DomainError):
            fib_index_period(m)
    with pytest.raises((DomainError, PeriodOverflowError)):
        fib_index_period(93)  # F_93 falls outside the modulus domain
    assert fib_index_period(92).agrees  # F_92 is the last one inside
    assert fib_exact(92) <= 2**63 - 1 < fib_exact(93)
    # refused before F_m is built, whose 20,899 digits no message can print
    with pytest.raises(PeriodOverflowError, match="index 100000 > 92"):
        fib_index_period(10**5)


def test_candidate_lists_are_subsets_of_bound_divisors():
    rng = random.Random(31415)
    primes = [p for p in primes_up_to(3000) if p not in (2, 5)]
    for p in rng.sample(primes, 40):
        if p % 5 in (2, 3):
            cands = theorem1_candidates(p)
            bound = 2 * p + 2
        else:
            cands = theorem2_candidates(p)
            bound = p - 1
        ds = divisors(factorize(bound))
        assert all(c in ds for c in cands)
        assert cands == sorted(cands)
