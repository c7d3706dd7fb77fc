"""Property tests of the lcm law the period table rests on: a pair returns
mod lcm(a, b) exactly when it returns mod a and mod b, so h(lcm(a, b)) =
lcm(h(a), h(b)), and the same for the Lucas period.  Skipped when
hypothesis is not installed."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pisano.periods import lucas_period, pisano_period  # noqa: E402

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
