"""The pisano benchmark: cold point queries, a summary-only range scan and the
CLI scan-all, timed from outside the package.

    python3 bench/run.py --workload point|scan|cli-scan --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src/`` and nowhere else.  Stdout carries three JSON lines: the
run environment, a report of every metric by name, and last the result
(``correct``, ``attempted``, ``failed``, ``metrics``).  With ``--trace 1``
the result holds the per-layer metrics of a traced run instead of the
end-to-end ones.  See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import gate
from pace import Pace, scale_ms
from tracer import LAYER_METRICS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("point", "scan", "cli-scan")

# Full-size inputs; the tests substitute tiny ones.
SIZES = {
    "setup_imports": 12,     # fresh interpreters timed before, and again after, the workload
    "point_rounds": 4,       # rounds of the point mix per timed cycle
    "scan_limit": 100_000,   # N of ratio_scan(N)
    "brute_sample": 12,      # seeded moduli <= N checked against brute_period
    "cli_limit": 20_000,     # --limit of pisano scan --suite all
    "child_timeout_s": 60,
}

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "norm_ms_per_item": "ms"}

CRITERION_11 = (10**18, 2**61 - 1, 999_999_999_999_999_989, 1_000_000_007 * 1_000_000_009)
FIXED_SMOOTH = (10**18, 2 * 5**26, 3**39)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
PRIMES_BELOW_100 = SMALL_PRIMES + (53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
# h(m) <= 6m, so every modulus up to here has a period that fits in 64 bits.
SIX_M_SAFE = (2**64 - 1) // 6
# Class bounds of the heavy primes have this many divisors (2^61 - 1 has 9,216).
HEAVY_DIVISORS = (2_000, 3_000)
# One round of the point mix, interleaved so that any prefix keeps its shares.
# Cheap queries (big primes, smooth numbers) are 65% of a round, so the
# median falls inside them; heavy primes are 15%, so the 90th percentile
# falls inside those.
ROUND = ("split", "smooth", "irreducible", "semiprime", "split",
         "heavy", "irreducible", "smooth", "split", "semiprime",
         "irreducible", "smooth", "split", "heavy", "irreducible",
         "semiprime", "split", "smooth", "heavy", "criterion11")


@dataclass
class Outcome:
    """What a workload hands back: gate counts, metrics and a report."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    report: dict[str, object] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures.append(reason)


# ---------------------------------------------------------------------------
# environment and helpers

def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return None


def git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    head = (_read(git / "HEAD") or "").strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    sha = (_read(git / ref) or "").strip()
    if sha:
        return sha
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip()
                for line in (_read(Path("/proc/cpuinfo")) or "").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    load = (_read(Path("/proc/loadavg")) or "").split()[:3]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha(), "cpu_model": cpu,
            "loadavg": [float(v) for v in load]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(cmd: list[str], timeout: float) -> tuple[int, str, str]:
    """Run cmd in its own session from the checkout root; on timeout kill
    the whole session (a CLI's pool workers too) and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {timeout}s"
    return proc.returncode, out, err


def now_ns() -> int:
    # CLOCK_MONOTONIC is one clock for every process on the machine.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def measure_setup(count: int, timeout: float) -> list[float]:
    """Seconds from spawning a fresh interpreter until ``import pisano`` is done."""
    code = ("import time, pisano; "
            "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC), pisano.__file__)")
    samples = []
    for _ in range(count):
        start = now_ns()
        rc, out, err = run_child([sys.executable, "-c", code], timeout)
        if rc != 0:
            raise RuntimeError(f"import pisano failed: {err.strip()}")
        stamp, path = out.split(maxsplit=1)
        if Path(path.strip()).resolve().parent != SRC / "pisano":
            raise RuntimeError(f"imported pisano from {path.strip()}, not {SRC}")
        samples.append((int(stamp) - start) / 1e9)
    return samples


def p90(samples: list[float]) -> float | None:
    """The 90th percentile, defined only when ten samples lie beyond it."""
    if len(samples) < 100:
        return None
    return sorted(samples)[math.ceil(0.9 * len(samples)) - 1]


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def clear_caches() -> None:
    """Reset the package's memo tables, when it has any: every
    ``pisano period M`` process starts cold."""
    from pisano import periods
    clear = getattr(periods, "clear_caches", None)
    if clear is not None:
        clear()


def alternate(seconds: float, untraced, traced) -> tuple[list, list]:
    """Alternate untraced and traced runs of one block of work until the
    time is up, at least once each; returns both lists of results."""
    plain, seen = [], []
    deadline = time.perf_counter() + seconds
    while not seen or time.perf_counter() < deadline:
        plain.append(untraced())
        seen.append(traced())
    return plain, seen


def traced_block(tracers: list[Tracer], block):
    """Run block() under a fresh Tracer, kept in tracers."""
    tracer = Tracer()
    tracers.append(tracer)
    tracer.install()
    try:
        return block()
    finally:
        tracer.uninstall()


def median_layers(blocks: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(b[name] for b in blocks) for name in blocks[0]}


# ---------------------------------------------------------------------------
# point: cold pisano_period(m) and lucas_period(m) over a seeded mix

def _random_prime(rng: random.Random, lo: int, hi: int, accept) -> int:
    while True:
        p = rng.randrange(lo, hi) | 1
        if accept(p) and gate.is_prime(p):
            return p


def _heavy_prime(rng: random.Random) -> int:
    """A prime whose class bound (p - 1 when split, 2p + 2 when irreducible)
    is smooth with thousands of divisors, like 2^61 - 1."""
    while True:
        split = rng.random() < 0.5
        exps = {2: 1, 5: 1} if split else {2: 2}
        bound = math.prod(p**e for p, e in exps.items())
        choices = SMALL_PRIMES if split else tuple(q for q in SMALL_PRIMES if q != 5)
        while True:
            q = rng.choice(choices)
            if bound * q > 2**62:
                break
            bound *= q
            exps[q] = exps.get(q, 0) + 1
        if not HEAVY_DIVISORS[0] <= math.prod(e + 1 for e in exps.values()) <= HEAVY_DIVISORS[1]:
            continue
        p = bound + 1 if split else bound // 2 - 1
        if (p % 5 in (1, 4)) == split and gate.is_prime(p):
            return p


def _smooth(rng: random.Random, i: int) -> int:
    """In turn a seeded smooth number, a seeded prime power, and one of the
    fixed ones (10^18, 2 * 5^26, 3^39)."""
    if i % 3 == 2:
        return FIXED_SMOOTH[(i // 3) % len(FIXED_SMOOTH)]
    p = m = rng.choice(PRIMES_BELOW_100)
    while True:
        q = p if i % 3 == 1 else rng.choice(PRIMES_BELOW_100)
        if m * q > SIX_M_SAFE:
            return m
        m *= q


def point_mix(seed: int):
    """Endless stream of in-domain moduli, one ROUND at a time."""
    rng = random.Random(seed)
    make = {
        "split": lambda i: _random_prime(rng, 2**61, 2**63, lambda p: p % 5 in (1, 4)),
        "irreducible": lambda i: _random_prime(rng, 2**61, 2**63, lambda p: p % 5 in (2, 3)),
        "heavy": lambda i: _heavy_prime(rng),
        "semiprime": lambda i: (_random_prime(rng, 2**30, 2**31, lambda p: True)
                                * _random_prime(rng, 2**30, 2**31, lambda p: True)),
        "smooth": lambda i: _smooth(rng, i),
        "criterion11": lambda i: CRITERION_11[i % len(CRITERION_11)],
    }
    seen = dict.fromkeys(make, 0)  # occurrences so far, per kind
    while True:
        for kind in ROUND:
            yield make[kind](seen[kind])
            seen[kind] += 1


def _query_pair(m: int, pace: Pace, times: dict, results: list) -> float:
    """Cold h(m), then cold h_L(m), each timed alone in CPU seconds;
    returns the two times' sum."""
    import pisano
    spent = 0.0
    for kind, fn in (("fib", pisano.pisano_period), ("lucas", pisano.lucas_period)):
        clear_caches()
        start = pace.mark()
        try:
            value = fn(m).period
        except Exception:  # a query that raises counts as failed
            traceback.print_exc()
            value = None
        times[kind].append(pace.work_s(start))
        spent += times[kind][-1]
        results.append((kind, m, value))
    return spent


def gate_point(results: list, outcome: Outcome) -> None:
    """Least-period checks on every answer, and the Vinson cross-check."""
    import pisano
    pairs = {
        "fib": (lambda n, m: pisano.fib_pair(n, m).as_tuple(), lambda m: (0, 1 % m)),
        "lucas": (lambda n, m: pisano.lucas_pair(n, m).as_tuple(), lambda m: (2 % m, 1 % m)),
    }
    verdicts: dict[tuple, str | None] = {}

    def period_of(k: int) -> int:
        return pisano.pisano_period(k).period

    for i, (kind, m, value) in enumerate(results):
        outcome.attempted += 1
        # a Lucas verdict also depends on the Fibonacci answer just before it
        key = (kind, m, value, results[i - 1][2] if kind == "lucas" else None)
        if key not in verdicts:
            if value is None:
                verdicts[key] = f"{kind}({m}) raised"
            else:
                pair, start = pairs[kind]
                verdicts[key] = gate.check_least_period(m, value, pair, start(m))
            if verdicts[key] is None and kind == "lucas":
                verdicts[key] = gate.check_vinson(m, results[i - 1][2], value, period_of)
        if verdicts[key] is not None:
            outcome.fail(verdicts[key])


def run_point(seed: int, seconds: float, trace: bool, sizes: dict) -> Outcome:
    outcome = Outcome()
    mix = point_mix(seed)
    if not trace:
        times = {"fib": [], "lucas": []}
        results: list = []
        # Normalized ms per query of each whole cycle.  A cycle of four rounds
        # holds each criterion-11 modulus once, so all cycles weigh alike.
        cycles, raw = [], []
        moduli = sizes["point_rounds"] * len(ROUND)
        deadline = time.perf_counter() + seconds
        with Pace() as pace:
            while not cycles or time.perf_counter() < deadline:
                start = pace.mark()
                for _ in range(moduli):
                    _query_pair(next(mix), pace, times, results)
                cycles.append(pace.ms(start) / (2 * moduli))
                raw.append(pace.work_s(start) / (2 * moduli))
        outcome.metrics["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
        outcome.metrics["norm_ms_per_item"] = statistics.median(cycles)
        outcome.report["cpu_ms_per_item"] = statistics.median(raw) * 1e3
        both = times["fib"] + times["lucas"]
        outcome.report["queries_per_s"] = len(both) / sum(both)
        outcome.report["cycles"] = len(cycles)
        for kind in ("fib", "lucas"):
            tail = p90(times[kind])
            outcome.report[f"{kind}_ms_p50"] = statistics.median(times[kind]) * 1e3
            outcome.report[f"{kind}_ms_p90"] = None if tail is None else tail * 1e3
            outcome.report[f"{kind}_queries"] = len(times[kind])
        gate_point(results, outcome)
        return outcome

    block = [next(mix) for _ in ROUND]
    results = []
    tracers: list[Tracer] = []

    def untraced():
        times = {"fib": [], "lucas": []}
        return sum(_query_pair(m, Pace(), times, results) for m in block)

    plain, seen = alternate(seconds, untraced, lambda: traced_block(tracers, untraced))
    layers = median_layers([t.metrics() for t in tracers])
    layers["trace.overhead_ratio"] = statistics.median(seen) / statistics.median(plain)
    outcome.metrics = layers
    tracers[-1].write_spans(OUT / "spans-point.jsonl")
    gate_point(results, outcome)
    return outcome


# ---------------------------------------------------------------------------
# scan: one in-process ratio_scan(N) from cold caches, summary only

def _scan_once(limit: int, summaries: list) -> None:
    import pisano
    try:
        summaries.append(pisano.ratio_scan(limit))
    except Exception:  # a scan that raises counts as failed
        traceback.print_exc()
        summaries.append(None)


def gate_scan(limit: int, seed: int, sample: int, summaries: list, outcome: Outcome) -> None:
    """Each summary's maximum and equality set, then a seeded sample of
    h(m) against the brute-force oracle."""
    import pisano
    for summary in summaries:
        outcome.attempted += 1
        reason = ("ratio_scan raised" if summary is None
                  else gate.check_ratio_summary(limit, summary))
        if reason is not None:
            outcome.fail(reason)
    rng = random.Random(seed)
    for m in rng.sample(range(2, limit + 1), min(sample, limit - 1)):
        outcome.attempted += 1
        fast, brute = pisano.pisano_period(m).period, pisano.brute_period(m).period
        if fast != brute:
            outcome.fail(f"h({m}) = {fast} but brute_period gives {brute}")


def scan_probes(limit: int) -> dict[str, float]:
    """Time the public entry points on the scan's own inputs, untraced."""
    import pisano
    primes = pisano.primes_up_to(limit)
    powers = [(p, e) for p in primes for e in range(2, int(math.log(limit, p)) + 2)
              if p**e <= limit]
    probes = {
        "numth.factorize.probe_s": lambda: [pisano.factorize(m) for m in range(2, limit + 1)],
        "periods.prime_period.probe_s": lambda: [pisano.prime_period(p) for p in primes],
        "periods.prime_power_period.probe_s":
            lambda: [pisano.prime_power_period(p, e) for p, e in powers],
    }
    out = {}
    clear_caches()  # prime periods run cold; the lifts then reuse them
    for name, probe in probes.items():
        start = time.thread_time()
        probe()
        out[name] = time.thread_time() - start
    return out


def run_scan(seed: int, seconds: float, trace: bool, sizes: dict) -> Outcome:
    outcome = Outcome()
    limit = sizes["scan_limit"]
    summaries: list = []
    if not trace:
        durations, normalized = [], []
        deadline = time.perf_counter() + seconds
        with Pace() as pace:
            while not durations or time.perf_counter() < deadline:
                clear_caches()
                start = pace.mark()
                _scan_once(limit, summaries)
                durations.append(pace.work_s(start))
                normalized.append(pace.ms(start) / limit)
        outcome.metrics["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
        outcome.metrics["norm_ms_per_item"] = statistics.median(normalized)
        outcome.report["cpu_ms_per_item"] = statistics.median(durations) / limit * 1e3
        outcome.report["moduli_per_s"] = limit / statistics.median(durations)
        outcome.report["scans"] = len(durations)
    else:
        tracers: list[Tracer] = []

        def untraced():
            clear_caches()
            start = time.thread_time()
            _scan_once(limit, summaries)
            return time.thread_time() - start

        plain, seen = alternate(seconds, untraced, lambda: traced_block(tracers, untraced))
        outcome.metrics = median_layers([t.metrics() for t in tracers])
        outcome.metrics["trace.overhead_ratio"] = statistics.median(seen) / statistics.median(plain)
        outcome.metrics.update(scan_probes(limit))
        tracers[-1].write_spans(OUT / "spans-scan.jsonl")
    gate_scan(limit, seed, sizes["brute_sample"], summaries, outcome)
    return outcome


# ---------------------------------------------------------------------------
# cli-scan: python -m pisano scan --suite all --limit N --out DIR --seed K

def _pins(limit: int) -> dict | None:
    with open(BENCH / "pins.json", encoding="utf-8") as fh:
        return json.load(fh).get(str(limit))


def _cli_run(prefix: list[str], args: list[str], timeout: float) -> tuple[float, float, int, str]:
    """One CLI run; (wall seconds, CPU seconds of the CLI and its pool
    workers, exit code, stdout)."""
    start, cpu = time.perf_counter(), child_cpu_s()
    code, out, err = run_child([sys.executable, *prefix, *args], timeout)
    elapsed, cpu = time.perf_counter() - start, child_cpu_s() - cpu
    if code != 0:
        sys.stderr.write(err)
    return elapsed, cpu, code, out


def run_cli_scan(seed: int, seconds: float, trace: bool, sizes: dict) -> Outcome:
    outcome = Outcome()
    limit, timeout = sizes["cli_limit"], sizes["child_timeout_s"]
    reports = OUT / "reports"
    args = ["scan", "--suite", "all", "--limit", str(limit),
            "--out", str(reports), "--seed", str(seed)]
    pins = _pins(limit)

    walls: list[float] = []

    def checked(elapsed: float, cpu: float, code: int, out: str) -> float:
        outcome.attempted += 1
        failures = gate.check_cli_scan(limit, code, out, reports, pins)
        if failures:
            outcome.fail("; ".join(failures))
        walls.append(elapsed)
        return cpu

    def untraced() -> float:
        shutil.rmtree(reports, ignore_errors=True)
        return checked(*_cli_run(["-m", "pisano"], args, timeout))

    def paced() -> tuple[float, float | None]:
        """A CLI run under cli_paced.py: (CPU seconds of the CLI and its
        workers less the reference loops, the same as normalized ms)."""
        pace_path = OUT / "cli-pace.json"
        pace_path.unlink(missing_ok=True)
        shutil.rmtree(reports, ignore_errors=True)
        cpu = checked(*_cli_run([str(BENCH / "cli_paced.py"), str(pace_path)], args, timeout))
        if not pace_path.is_file():
            outcome.fail("the paced CLI run wrote no reference timings")
            return cpu, None
        ref = json.loads(pace_path.read_text(encoding="utf-8"))
        work = cpu - ref["ref_s"]
        return work, scale_ms(work, ref["ref_s"], ref["refs"])

    if not trace:
        cpus, normalized = [], []
        deadline = time.perf_counter() + seconds
        while not cpus or time.perf_counter() < deadline:
            work, ms = paced()
            cpus.append(work)
            if ms is not None:
                normalized.append(ms / limit)
        if not normalized:
            raise RuntimeError("no paced CLI run completed")
        outcome.metrics["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
        outcome.metrics["norm_ms_per_item"] = statistics.median(normalized)
        outcome.report["cpu_ms_per_item"] = statistics.median(cpus) / limit * 1e3
        outcome.report["wall_s"] = statistics.median(walls)
        outcome.report["cpu_s"] = statistics.median(cpus)
        outcome.report["cli_runs"] = len(cpus)
        return outcome

    blocks: list[dict[str, float]] = []

    def traced() -> float:
        layers_path = OUT / "cli-layers.json"
        layers_path.unlink(missing_ok=True)
        shutil.rmtree(reports, ignore_errors=True)
        launcher = [str(BENCH / "cli_traced.py"), str(layers_path),
                    str(OUT / "spans-cli-scan.jsonl"), str(now_ns())]
        cpu = checked(*_cli_run(launcher, args, timeout))
        if layers_path.is_file():
            layers = json.loads(layers_path.read_text(encoding="utf-8"))
            layers["cli.cpu_s"] = cpu
            blocks.append(layers)
        else:
            outcome.fail("the traced CLI run wrote no per-layer metrics")
        return cpu

    plain, seen = alternate(seconds, untraced, traced)
    if not blocks:
        raise RuntimeError("no traced CLI run completed")
    outcome.metrics = median_layers(blocks)
    outcome.metrics["trace.overhead_ratio"] = statistics.median(seen) / statistics.median(plain)
    return outcome


# ---------------------------------------------------------------------------

RUNNERS = {"point": run_point, "scan": run_scan, "cli-scan": run_cli_scan}


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sizes = SIZES if sizes is None else sizes

    if not (SRC / "pisano" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'pisano'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    env = environment()
    setup = measure_setup(sizes["setup_imports"], sizes["child_timeout_s"])
    outcome = RUNNERS[args.workload](args.seed, args.seconds, bool(args.trace), sizes)
    for reason in outcome.failures[:20]:
        print(f"failed: {reason}", file=sys.stderr)

    if args.trace:
        units = LAYER_METRICS
    else:
        # a second batch a run's length later, so one slow spell weighs less
        setup += measure_setup(sizes["setup_imports"], sizes["child_timeout_s"])
        outcome.metrics["setup_s"] = statistics.median(setup)
        units = END_TO_END
    metrics = {name: {"value": outcome.metrics[name], "unit": unit}
               for name, unit in units.items()}
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples": len(setup),
              "error_rate": outcome.failed / max(outcome.attempted, 1),
              **outcome.report, **{name: m["value"] for name, m in metrics.items()}}
    print(json.dumps({"env": env}))
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
