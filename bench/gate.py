"""Correctness checks the benchmark applies outside its timed regions.

The prime factors a minimality check needs come from the small factorizer
below, not from ``pisano.factorize``, so a broken factorizer in the package
cannot hide a non-minimal period.  Every check returns ``None`` when the
output is correct, else a one-line reason.
"""

from __future__ import annotations

import hashlib
import math
import random

_SMALL = tuple(p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1)))
# Deterministic Miller-Rabin: these bases are exact for every n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality for n < 3.3e24 (covers every 64-bit period)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int, rng: random.Random) -> int:
    """A non-trivial factor of the odd composite n (Pollard rho, Floyd cycle)."""
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return g


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending."""
    found: set[int] = set()
    for p in _SMALL:
        if n % p == 0:
            found.add(p)
            while n % p == 0:
                n //= p
    stack = [n] if n > 1 else []
    rng = random.Random(n)
    while stack:
        v = stack.pop()
        if is_prime(v):
            found.add(v)
            continue
        d = _rho(v, rng)
        stack += [d, v // d]
    return sorted(found)


def check_least_period(m: int, period: int, pair, start: tuple[int, int]) -> str | None:
    """``period`` is the least n >= 1 with pair(n, m) == start: it returns to
    the start pair, and no period / q does for any prime q dividing it."""
    if period < 1:
        return f"period {period} of {m} is not positive"
    if pair(period, m) != start:
        return f"{period} is not a period of {m}"
    for q in prime_factors(period):
        if pair(period // q, m) == start:
            return f"{period} is not the least period of {m}: {period // q} is one"
    return None


def check_vinson(m: int, fib: int, lucas: int, period_of) -> str | None:
    """Lucas against Fibonacci period (Vinson 1963): h_L(m) = h(m) when 5
    does not divide m.  For m = 5^a k with a >= 1 and 5 not dividing k,
    h_L(m) = lcm(4 * 5^(a-1), h(k)), so h(m) / 5 only when 5^a does not
    divide h(k): h_L(55) = h(55) = 20.  ``period_of(k)`` gives h(k)."""
    if m % 5:
        expected = fib
    else:
        a, k = 0, m
        while k % 5 == 0:
            a, k = a + 1, k // 5
        expected = math.lcm(4 * 5 ** (a - 1), period_of(k) if k > 1 else 1)
    if lucas != expected:
        return f"h_L({m}) = {lucas} but h({m}) = {fib} predicts {expected}"
    return None


def equality_set(limit: int) -> tuple[int, ...]:
    """{2 * 5^n <= limit}: where the paper says h(m) = 6m holds."""
    out, v = [], 10
    while v <= limit:
        out.append(v)
        v *= 5
    return tuple(out)


def check_ratio_summary(limit: int, summary) -> str | None:
    """ratio_scan(limit) found 6 as the maximum, exactly on {2 * 5^n}."""
    expected = equality_set(limit)
    if tuple(summary.equality_set) != expected:
        return f"equality set {summary.equality_set} != {expected}"
    if tuple(summary.max_ratio) != (60, 10) or tuple(summary.attained) != expected:
        return f"max ratio {summary.max_ratio} at {summary.attained}, expected 60/10 at {expected}"
    return None


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _fmt_set(values) -> str:
    return "{" + ",".join(str(v) for v in values) + "}"


def check_cli_scan(limit: int, code: int, stdout: str, out_dir, pins: dict | None) -> list[str]:
    """Failures of one ``pisano scan --suite all --out DIR`` run: exit code,
    the summary lines, report row counts and the pinned sha256 digests."""
    if code != 0:
        return [f"exit code {code}"]
    lines = stdout.splitlines()
    if [line.split(":")[0] for line in lines] != ["ratio", "irreducible", "lucas", "filters", "wall"]:
        return [f"unexpected summary lines {lines!r}"]
    failures = []
    eq = _fmt_set(equality_set(limit))
    expected = {
        0: f"ratio: {limit} moduli; max ratio 6 at {eq}; equality set {eq};",
        2: f"lucas: {limit} moduli; max ratio 4 at {{6}}",
    }
    for i, prefix in expected.items():
        if not lines[i].startswith(prefix):
            failures.append(f"summary line {lines[i]!r} does not start with {prefix!r}")
    if not lines[1].endswith("bound 4 holds"):
        failures.append(f"irreducible bound not confirmed: {lines[1]!r}")
    try:
        qualifying = int(lines[1].split()[1])
        filtered = int(lines[3].split()[1].split("/")[1])
    except (IndexError, ValueError):
        return failures + [f"unparsable summary lines {lines[1]!r}, {lines[3]!r}"]
    rows = {"ratio.csv": limit, "irreducible.csv": qualifying, "lucas.csv": limit,
            "filters.csv": filtered}
    for name, count in rows.items():
        path = out_dir / name
        if not path.is_file():
            failures.append(f"report {name} missing")
            continue
        with open(path, encoding="utf-8") as fh:
            got = sum(1 for _ in fh) - 1
        if got != count:
            failures.append(f"{name} has {got} rows, expected {count}")
    if pins is None:
        return failures + [f"no sha256 pin for limit {limit}"]
    digests = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    digests.update((name, sha256_file(out_dir / name)) for name in rows if (out_dir / name).is_file())
    for name, digest in pins.items():
        if digests.get(name) != digest:
            failures.append(f"sha256 of {name} is {digests.get(name)}, pinned {digest}")
    return failures
