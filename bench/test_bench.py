"""Tests of the benchmark itself: tiny smoke runs of every workload that
check the output schema, and the correctness gate's rejections.

    python3 -m pytest bench
"""

import json
import shutil
import signal
import subprocess
import sys

import pytest

import gate
import run
from pace import Pace, reference_s, scale_ms
from tracer import LAYER_METRICS

TINY = {"setup_imports": 2, "point_rounds": 1, "scan_limit": 2_000, "brute_sample": 3,
        "cli_limit": 300, "child_timeout_s": 60}


def _result(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.3",
                     "--trace", str(trace)], sizes=TINY)
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert set(json.loads(lines[0])["env"]) == {"nproc", "python", "git_sha",
                                                "cpu_model", "loadavg"}
    assert "error_rate" in json.loads(lines[1])["report"]
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_schema(capsys, workload, trace):
    result = _result(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = LAYER_METRICS if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_restores_the_package(capsys):
    import pisano
    from pisano import numth, periods
    _result(capsys, "point", 1)
    assert periods.factorize is numth.factorize
    assert pisano.pisano_period is periods.pisano_period


def test_pace_samples_then_restores_the_signal():
    handler = signal.getsignal(signal.SIGPROF)
    with Pace() as pace:
        start = pace.mark()
        while pace.refs < 5:
            reference_s()
        work, ms = pace.work_s(start), pace.ms(start)
    assert signal.getsignal(signal.SIGPROF) is handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert work > 0 and ms > 0
    with pytest.raises(ValueError):
        scale_ms(1.0, 0.0, 0)


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS


def _fib(n, m):
    import pisano
    return pisano.fib_pair(n, m).as_tuple()


def test_gate_rejects_wrong_and_non_minimal_periods():
    assert gate.check_least_period(10, 60, _fib, (0, 1)) is None
    assert "is not a period" in gate.check_least_period(10, 59, _fib, (0, 1))
    assert "not the least" in gate.check_least_period(10, 120, _fib, (0, 1))


def test_point_gate_counts_planted_failures():
    planted = [("fib", 10, 60), ("lucas", 10, 12),     # correct
               ("fib", 11, 20), ("lucas", 11, 10),     # h(11) = 10: not minimal
               ("fib", 7, 15), ("lucas", 7, 16)]       # h(7) = 16: wrong
    outcome = run.Outcome()
    run.gate_point(planted, outcome)
    assert outcome.attempted == 6
    # h(11) = 20 is not minimal and h(7) = 15 is wrong; both Lucas answers
    # are right alone but disagree with the planted Fibonacci ones.
    assert outcome.failed == 4


def test_vinson_cross_check():
    periods = {2: 3, 11: 10}  # h(k) for the k = m / 5^a below
    assert gate.check_vinson(10, 60, 12, periods.get) is None
    assert gate.check_vinson(55, 20, 20, periods.get) is None   # not h(55) / 5
    assert gate.check_vinson(55, 20, 4, periods.get) is not None
    assert gate.check_vinson(11, 10, 5, periods.get) is not None


def test_prime_factors_against_trial_division():
    for n in list(range(1, 3000)) + [2**61 - 2, 1_000_000_007 * 1_000_000_009]:
        got = gate.prime_factors(n)
        assert all(gate.is_prime(p) and n % p == 0 for p in got)
        rest = n
        for p in got:
            while rest % p == 0:
                rest //= p
        assert rest == 1


def test_cli_gate_rejects_changed_bytes(tmp_path):
    limit = TINY["cli_limit"]
    args = ["scan", "--suite", "all", "--limit", str(limit), "--out", str(tmp_path)]
    code, out, _ = run.run_child([sys.executable, "-m", "pisano", *args], 60)
    pins = run._pins(limit)
    assert gate.check_cli_scan(limit, code, out, tmp_path, pins) == []
    with open(tmp_path / "lucas.csv", "a", encoding="utf-8") as fh:
        fh.write("301,1,1,301,BruteForce,\n")
    failures = gate.check_cli_scan(limit, code, out, tmp_path, pins)
    assert any("lucas.csv" in f for f in failures)
    assert gate.check_cli_scan(limit, 3, out, tmp_path, pins) == ["exit code 3"]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "point",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
