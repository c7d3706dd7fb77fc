"""Property tests of the laws the period table rests on: a pair returns
mod lcm(a, b) exactly when it returns mod a and mod b, so h(lcm(a, b)) =
lcm(h(a), h(b)), and the same for the Lucas period, with Vinson's
h_L(5^a k) = lcm(4 * 5^(a-1), h(k)) for 5 not dividing k; and h(p) is the
order of (0, 1) mod a prime p, so (0, 1) returns at h(p) and at no
h(p) / q.  Skipped when hypothesis is not installed."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from pisano.fibmod import fib_pair  # noqa: E402
from pisano.numth import factorize, is_prime  # noqa: E402
from pisano.periods import lucas_period, pisano_period, prime_period  # noqa: E402

# lcm(a, b) < 2^62 stays inside the modulus domain and its period below 2^64
moduli = st.integers(min_value=1, max_value=2**31 - 1)
small = st.integers(min_value=1, max_value=5000)
law = settings(max_examples=150, deadline=None, derandomize=True)


@law
@given(moduli, moduli)
def test_fibonacci_period_of_an_lcm(a, b):
    assert pisano_period(math.lcm(a, b)).period == math.lcm(
        pisano_period(a).period, pisano_period(b).period)


@law
@given(moduli, moduli)
def test_lucas_period_of_an_lcm(a, b):
    assert lucas_period(math.lcm(a, b)).period == math.lcm(
        lucas_period(a).period, lucas_period(b).period)


@law
@given(small, small)
def test_periods_of_an_lcm_with_shared_primes(a, b):
    # small moduli share prime powers often, where the lcm keeps the larger
    c = math.lcm(a, b)
    assert pisano_period(c).period == math.lcm(pisano_period(a).period,
                                               pisano_period(b).period)
    assert lucas_period(c).period == math.lcm(lucas_period(a).period,
                                              lucas_period(b).period)


# a >= 1 and 5^a * k < 2^62; k = 0 mod 5 is discarded
fives_and_cofactors = st.integers(min_value=1, max_value=26).flatmap(
    lambda a: st.tuples(st.just(a), st.integers(min_value=1, max_value=(2**62 - 1) // 5**a)))


@law
@given(fives_and_cofactors)
def test_lucas_period_of_a_multiple_of_five(a_k):
    a, k = a_k
    assume(k % 5)
    assert lucas_period(5**a * k).period == math.lcm(4 * 5 ** (a - 1),
                                                     pisano_period(k).period)


# a 2- to 63-bit start and a class; the prime is the largest of that class
# at or below the start, so both classes are drawn at every size
starts = st.integers(min_value=2, max_value=63).flatmap(
    lambda bits: st.integers(min_value=2 ** (bits - 1), max_value=2**bits - 1))
classes = st.sampled_from([(1, 4), (2, 3)])


def prime_at_or_below(n: int, residues) -> int:
    while n >= 2 and not (n % 5 in residues and is_prime(n)):
        n -= 1
    assume(n >= 2)
    return n


prime_law = settings(max_examples=80, deadline=None, derandomize=True)


@prime_law
@given(starts, classes)
def test_the_start_pair_returns_at_the_prime_period(start, residues):
    p = prime_at_or_below(start, residues)
    assert fib_pair(prime_period(p).period, p).as_tuple() == (0, 1)


@prime_law
@given(starts, classes)
def test_the_start_pair_returns_at_no_prime_period_over_q(start, residues):
    p = prime_at_or_below(start, residues)
    h = prime_period(p).period
    for q in factorize(h).primes():
        assert fib_pair(h // q, p).as_tuple() != (0, 1), (p, q)
