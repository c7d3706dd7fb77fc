import csv
import hashlib
import io
import json
import multiprocessing.process
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from pisano import analysis, cli, numth, periods, theorems
from pisano.cli import main

PINS = Path(__file__).resolve().parents[1] / "bench" / "pins.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_period_basic(capsys):
    code, out, _ = run(capsys, "period", "10")
    assert code == 0
    assert "h(10) = 60" in out
    assert "LcmComposition" in out
    assert "2 * 5" in out


def test_period_five(capsys):
    code, out, _ = run(capsys, "period", "5")
    assert code == 0
    assert "h(5) = 20" in out


def test_period_lucas(capsys):
    code, out, _ = run(capsys, "period", "6", "--lucas")
    assert code == 0
    assert "h_L(6) = 24" in out


def test_period_json(capsys):
    code, out, _ = run(capsys, "period", "10", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"m": 10, "period": 60, "ratio_num": 60, "ratio_den": 10,
                   "method": "LcmComposition", "flags": "RatioSix"}


def test_period_zero_is_usage_error(capsys):
    code, out, err = run(capsys, "period", "0")
    assert code == 2
    assert out == ""
    assert "usage" in err


def test_period_overflow_is_domain_error(capsys):
    code, out, err = run(capsys, "period", str(2**63))
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_period_beyond_64_bits_is_an_error(capsys):
    # m = 10 p lies in the domain, but h(m) = lcm(60, 2p + 2) > 2^64 - 1
    code, out, err = run(capsys, "period", "9223372036854772630")
    assert code == 1
    assert out == ""
    assert "exceeds the 64-bit range" in err
    # h_L(m) = lcm(3, 4, h_L(p)) fits, so the Lucas query answers
    code, out, err = run(capsys, "period", "9223372036854772630", "--lucas")
    assert (code, err) == (0, "")
    assert out.startswith("h_L(9223372036854772630) = 5534023222112863584\n")


def test_period_lucas_of_five_to_the_27th(capsys):
    # h(5^27) = 4 * 5^27 overflows, h_L(5^27) = 4 * 5^26 does not
    code, out, err = run(capsys, "period", str(5**27), "--lucas")
    assert (code, err) == (0, "")
    assert out.startswith("h_L(7450580596923828125) = 5960464477539062500\n")
    code, out, err = run(capsys, "period", str(5**27))
    assert (code, out) == (1, "")
    assert "exceeds the 64-bit range" in err


def test_period_factors_the_modulus_once(capsys, monkeypatch):
    m = 2147483629 * 2147483647
    real, split = numth._brent_rho, []

    def brent_rho(n, rng):
        split.append(n)
        return real(n, rng)

    monkeypatch.setattr(numth, "_brent_rho", brent_rho)
    for flags in (("--lucas",), ("--json",), ()):
        split.clear()
        code, out, _ = run(capsys, "period", str(m), *flags)
        assert code == 0
        assert split == [m], flags
    assert out.endswith(f"factors: {m} = 2147483629 * 2147483647\n")


def test_period_json_error_object(capsys):
    code, out, err = run(capsys, "period", str(2**63), "--json")
    assert code == 1
    obj = json.loads(out)
    assert obj["exit_code"] == 1
    assert "error" in obj


def test_fib(capsys):
    assert run(capsys, "fib", "10", "--mod", "1000") == (0, "55 89\n", "")
    assert run(capsys, "fib", "0", "--mod", "7") == (0, "0 1\n", "")


def test_fib_requires_mod(capsys):
    code, out, err = run(capsys, "fib", "10")
    assert code == 2
    assert out == ""


def test_fib_large_matches_independent_power(capsys):
    def matrix_fib(n, m):
        def mul(x, y):
            return (
                (x[0] * y[0] + x[1] * y[2]) % m,
                (x[0] * y[1] + x[1] * y[3]) % m,
                (x[2] * y[0] + x[3] * y[2]) % m,
                (x[2] * y[1] + x[3] * y[3]) % m,
            )
        result, base = (1, 0, 0, 1), (1, 1, 1, 0)
        while n:
            if n & 1:
                result = mul(result, base)
            base = mul(base, base)
            n >>= 1
        return result[1], result[0]

    code, out, _ = run(capsys, "fib", str(10**12), "--mod", "9973")
    assert code == 0
    assert tuple(int(v) for v in out.split()) == matrix_fib(10**12, 9973)


def test_classify(capsys):
    assert run(capsys, "classify", "7")[1] == "irreducible (h | 2p+2 = 16)\n"
    assert run(capsys, "classify", "11")[1] == "split (h | p-1 = 10)\n"
    assert "special2" in run(capsys, "classify", "2")[1]
    assert "special5" in run(capsys, "classify", "5")[1]


def test_classify_composite(capsys):
    code, out, err = run(capsys, "classify", "6")
    assert code == 1
    assert out == ""
    assert "not prime" in err


def test_fpr(capsys):
    code, out, _ = run(capsys, "fpr", "11")
    assert code == 0
    assert "roots: 8, 4" in out
    assert "order(8) = 10" in out
    assert "order(4) = 5" in out
    assert "has_fpr: true" in out
    assert "h(11) = 10" in out


def test_fpr_wrong_class(capsys):
    code, _, err = run(capsys, "fpr", "7")
    assert code == 1


def test_fib_index_ok(capsys):
    code, out, _ = run(capsys, "fib-index", "6")
    assert code == 0
    assert "predicted: 12" in out
    assert "computed: 12" in out
    assert "OK" in out


def test_fib_index_domain(capsys):
    code, _, err = run(capsys, "fib-index", "3")
    assert code == 1


@pytest.mark.parametrize("m", ["93", "100000", "1000000000"])
def test_fib_index_beyond_f92_exits_one_at_once(m):
    # F_m is never built, so neither its digits nor its time are a problem
    proc = subprocess.run([sys.executable, "-m", "pisano", "fib-index", m],
                          capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: F_{m} exceeds the modulus domain 2^63 - 1 (index {m} > 92)\n"


# a strong pseudoprime to the twelve primes up to 37, and 2^89 - 1
@pytest.mark.parametrize("p", ["3317044064679887385961981", str(2**89 - 1)])
@pytest.mark.parametrize("command", ["classify", "fpr"])
def test_a_prime_beyond_the_domain_is_a_domain_error(capsys, command, p):
    code, out, err = run(capsys, command, p)
    assert (code, out) == (1, "")
    assert err == f"error: prime {p} exceeds the supported domain 2^63 - 1\n"


def test_scan_ratio_summary(capsys):
    code, out, _ = run(capsys, "scan", "--limit", "1000", "--suite", "ratio")
    assert code == 0
    assert "max ratio 6 at {10,50,250}" in out


def test_scan_limit_zero_usage(capsys):
    code, out, _ = run(capsys, "scan", "--limit", "0")
    assert code == 2
    assert out == ""


def test_scan_all_summaries(capsys):
    code, out, _ = run(capsys, "scan", "--limit", "100", "--suite", "all")
    assert code == 0
    for label in ("ratio:", "irreducible:", "lucas:", "filters:", "wall:"):
        assert label in out


def test_scan_emit_csv_to_stdout(capsys):
    code, out, err = run(capsys, "scan", "--limit", "30", "--suite", "ratio",
                         "--emit", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "period", "ratio_num", "ratio_den", "method", "flags"]
    assert len(rows) == 31
    assert "max ratio" in err  # summary moves aside when records use stdout


def test_scan_emit_json_file(tmp_path, capsys):
    out_file = tmp_path / "ratio.json"
    code, out, _ = run(capsys, "scan", "--limit", "25", "--suite", "ratio",
                       "--emit", "json", "--out", str(out_file))
    assert code == 0
    assert "max ratio" in out  # summary stays on stdout
    data = json.loads(out_file.read_text(encoding="utf-8"))
    assert len(data) == 25
    assert data[9]["period"] == 60


def test_scan_filters_report(tmp_path, capsys):
    out_file = tmp_path / "filters.json"
    code, out, _ = run(capsys, "scan", "--limit", "100", "--suite", "filters",
                       "--emit", "json", "--out", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text(encoding="utf-8"))
    assert [d["prime"] for d in data][:3] == [3, 7, 11]
    assert all(d["true_period"] in d["all_divisors"] for d in data)
    assert "agree" in out


def test_scan_all_writes_directory(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code, out, _ = run(capsys, "scan", "--limit", "50", "--suite", "all",
                       "--emit", "csv", "--out", str(out_dir))
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["filters.csv", "irreducible.csv", "lucas.csv", "ratio.csv"]
    text = (out_dir / "ratio.csv").read_text(encoding="utf-8")
    assert text.startswith("m,period,")
    assert "\r" not in text


def test_scan_unwritable_out(capsys):
    code, out, err = run(capsys, "scan", "--limit", "10", "--suite", "ratio",
                         "--emit", "csv", "--out", "/nonexistent/dir/r.csv")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_scan_deterministic_across_threads(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "scan", "--limit", "300", "--suite", "ratio", "--emit", "csv",
        "--out", str(a), "--threads", "1")
    run(capsys, "scan", "--limit", "300", "--suite", "ratio", "--emit", "csv",
        "--out", str(b), "--threads", "2", "--seed", "42")
    assert a.read_bytes() == b.read_bytes()


def test_scan_starts_no_process(tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("pisano scan started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    code, _, _ = run(capsys, "scan", "--suite", "all", "--limit", "300",
                     "--threads", "4", "--out", str(tmp_path))
    assert code == 0
    code, _, _ = run(capsys, "scan", "--limit", "10", "--threads", "0")
    assert code == 2


@pytest.mark.parametrize("limit", ["300", "20000"])
def test_scan_all_matches_the_pinned_digests(limit, tmp_path, capsys):
    pins = json.loads(PINS.read_text(encoding="utf-8"))[limit]
    code, out, _ = run(capsys, "scan", "--suite", "all", "--limit", limit,
                       "--out", str(tmp_path))
    assert code == 0
    digests = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
    digests.update((p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                   for p in tmp_path.iterdir())
    assert digests == pins


def test_each_suite_alone_matches_the_all_run(tmp_path, capsys):
    code, out, _ = run(capsys, "scan", "--suite", "all", "--limit", "2000",
                       "--out", str(tmp_path / "all"))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(cli._SUITES)
    for suite, line in zip(cli._SUITES, lines):
        alone = tmp_path / f"{suite}.csv"
        code, out, _ = run(capsys, "scan", "--suite", suite, "--limit", "2000",
                           "--out", str(alone))
        assert code == 0
        assert out == line + "\n", suite
        shared = tmp_path / "all" / f"{suite}.csv"
        if suite == "wall":  # assertion-only: no report either way
            assert not alone.exists() and not shared.exists()
        else:
            assert alone.read_bytes() == shared.read_bytes(), suite


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_violation_leaves_the_earlier_rows_in_the_report(fmt, capsys, monkeypatch):
    code, clean, _ = run(capsys, "scan", "--suite", "ratio", "--emit", fmt,
                         "--limit", "36")
    assert code == 0

    def table_breaking_37(limit):
        table = periods.period_table(limit)
        table.period[37] = 6 * 37 + 1
        return table

    monkeypatch.setattr(cli, "period_table", table_breaking_37)
    code, out, err = run(capsys, "scan", "--suite", "ratio", "--emit", fmt,
                         "--limit", "100")
    assert code == 3
    assert err == "error: 6m bound violated: h(37) = 223 > 222\n"
    # the header and the rows of 1..36, closed as a clean run closes them
    assert out == clean


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("limit", [1, 2, 3, 300, 20000])
def test_scan_filters_streams_the_collected_report_bytes(limit, fmt, tmp_path, capsys):
    writer = {"csv": analysis.write_filter_reports_csv,
              "json": analysis.write_filter_reports_json}[fmt]
    summary = analysis.filter_agreement_scan(limit)
    expected = io.StringIO()
    writer(summary.reports, expected)
    line = f"filters: {summary.agreements}/{summary.total} agree with h(p)"
    if summary.disagreements:
        line += "; disagreements at {" + ",".join(
            str(r.prime) for r in summary.disagreements) + "}"
    code, out, err = run(capsys, "scan", "--suite", "filters", "--limit", str(limit),
                         "--emit", fmt)
    assert (code, out, err) == (0, expected.getvalue(), line + "\n")
    path = tmp_path / f"filters.{fmt}"
    code, out, err = run(capsys, "scan", "--suite", "filters", "--limit", str(limit),
                         "--emit", fmt, "--out", str(path))
    assert (code, out, err) == (0, line + "\n", "")
    assert path.read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_filter_violation_leaves_the_earlier_rows_in_the_report(fmt, capsys,
                                                                   monkeypatch):
    code, clean, _ = run(capsys, "scan", "--suite", "filters", "--emit", fmt,
                         "--limit", "28")
    assert code == 0

    def table_breaking_29(limit):
        table = periods.period_table(limit)
        table.period[29] = 4  # picks d = 4, and F_5 = 5 (mod 29)
        return table

    monkeypatch.setattr(cli, "period_table", table_breaking_29)
    code, out, err = run(capsys, "scan", "--suite", "filters", "--emit", fmt,
                         "--limit", "100")
    assert code == 3
    assert err == ("error: filter answer 4 for p = 29 fails F_{d+1} = 1 (mod p)"
                   " although h(29) = 4 divides d or d + 2\n")
    # the rows of 3..23, closed as a clean run closes them
    assert out == clean


def test_scan_all_builds_each_table_once(tmp_path, capsys, monkeypatch):
    calls = {"period_table": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # patch every module that binds the name, so no builder is missed
    for name in calls:
        wrapped = counted(name, getattr(periods, name))
        for module in (periods, analysis, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    code, _, _ = run(capsys, "scan", "--suite", "all", "--limit", "500",
                     "--out", str(tmp_path))
    assert code == 0
    assert calls == {"period_table": 1}


def test_a_summary_only_filter_run_keeps_no_report(capsys, monkeypatch):
    summaries = []

    def recorded(*args, **kwargs):
        summaries.append(analysis.filter_agreement_scan(*args, **kwargs))
        return summaries[-1]

    monkeypatch.setattr(cli, "filter_agreement_scan", recorded)
    code, out, _ = run(capsys, "scan", "--suite", "filters", "--limit", "300")
    assert code == 0 and out.startswith("filters: ")
    assert len(summaries) == 1 and summaries[0].total > 0
    assert summaries[0].reports is None  # drained as counted, never kept


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pisano", "period", "10"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "h(10) = 60" in proc.stdout


def test_import_leaves_the_process_pool_stack_unloaded():
    # a fresh interpreter: this one may have loaded concurrent.futures and csv
    # already; the report sinks format rows with % templates, not csv
    code = (
        "import sys, pisano\n"
        "assert 'concurrent.futures' not in sys.modules, 'loaded on import'\n"
        "assert 'csv' not in sys.modules, 'csv loaded on import'\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "assert pisano.analysis.ProcessPoolExecutor is ProcessPoolExecutor\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "pisano", "period", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, message", [
    (("period", "x"), "argument m: 'x' is not an integer"),
    (("fib", "x", "--mod", "5"), "argument n: 'x' is not an integer"),
    (("fib", "-1", "--mod", "5"), "argument n: '-1' must be >= 0"),
    (("period", "0"), "argument m: '0' must be a positive integer"),
])
def test_an_integer_argument_out_of_its_rule_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f": error: {message}\n")


def test_fib_index_mismatch_exits_three(capsys, monkeypatch):
    real = theorems.pisano_period
    monkeypatch.setattr(theorems, "pisano_period",
                        lambda m: replace(real(m), period=2 * real(m).period))
    code, out, err = run(capsys, "fib-index", "10")
    assert code == 3
    assert out == "F_10 = 55\npredicted: 20\ncomputed: 40 (FibIndexLaw)\nMISMATCH\n"
    assert err == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emitted_records_alone_reach_stdout(fmt, tmp_path, capsys):
    # every summary, the wall suite's included, goes to stderr
    code, summaries, _ = run(capsys, "scan", "--suite", "all", "--limit", "300",
                             "--emit", fmt, "--out", str(tmp_path))
    assert code == 0
    reports = "".join((tmp_path / f"{suite}.{fmt}").read_text(encoding="utf-8")
                      for suite in cli._SUITES if suite != "wall")
    code, out, err = run(capsys, "scan", "--suite", "all", "--limit", "300",
                         "--emit", fmt)
    assert (code, out, err) == (0, reports, summaries)
