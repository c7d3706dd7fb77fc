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
