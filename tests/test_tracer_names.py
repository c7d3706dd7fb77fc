"""bench/tracer.py wraps package functions by the names other modules look
them up under; this fails when a refactor deletes one of those names."""

import importlib.util
from pathlib import Path

from pisano import cli, periods

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_every_name():
    tracer = load_tracer().Tracer()
    before = (periods.factorize, periods.lcm, cli.pisano_period, cli.main)
    try:
        tracer.install()  # getattr on every wrapped name; undone even if one is gone
        assert periods.factorize is not before[0]
        assert cli.main is not before[3]
    finally:
        tracer.uninstall()
    assert (periods.factorize, periods.lcm, cli.pisano_period, cli.main) == before


def test_traced_filter_writer_counts_the_streamed_reports(tmp_path, capsys):
    # the tracer's writer wrapper takes len() of the reports after the
    # write, so the streamed reports must still have one
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["scan", "--suite", "filters", "--limit", "300",
                         "--out", str(tmp_path / "filters.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert capsys.readouterr().out == "filters: 60/60 agree with h(p)\n"
    rows = (tmp_path / "filters.csv").read_text(encoding="utf-8").splitlines()
    assert tracer.counters["analysis.sink.records"] == len(rows) - 1 == 60
