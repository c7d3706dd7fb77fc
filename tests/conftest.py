"""Collects acceptance verdict lines and prints them after the run, where
capture cannot hide them; holds the fixtures several test files share."""

import os
from pathlib import Path

import pytest

from pisano import periods

# The CLI tests start `python -m pisano` in a child, which finds the package
# only on PYTHONPATH in a checkout that has not been installed.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

_verdicts = []


def record_verdict(line: str) -> None:
    _verdicts.append(line)


def pytest_terminal_summary(terminalreporter):
    if _verdicts:
        terminalreporter.section("acceptance verdicts")
        for line in _verdicts:
            terminalreporter.line(line)


@pytest.fixture
def wall_sun_sun_seven(monkeypatch):
    """Make 7 look like a Wall-Sun-Sun prime: mod 49 the pair (0, 1) seems
    to return at h(7) = 16, so h(49) = h(7) and the lift from 7 * 16 must
    divide one factor of 7 out.  Mod m = 49k with 7 not dividing k, as in
    the Lucas check mod 5 * 49, the pair is the CRT of the fake (0, 1) mod
    49 and the true pair mod k."""
    real = periods._fib_pair_ints

    def fib_pair_ints(n, m):
        if m % 49 == 0 and m % 343 and n % 16 == 0:
            k = m // 49
            one = 49 * pow(49, -1, k)  # 0 mod 49 and 1 mod k
            return tuple((one * (r - s) + s) % m for r, s in zip(real(n, k), (0, 1)))
        return real(n, m)

    monkeypatch.setattr(periods, "_fib_pair_ints", fib_pair_ints)
