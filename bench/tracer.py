"""Span recording around the package's layer boundaries, for traced runs only.

``Tracer.install`` replaces each public function in the module namespaces
where other modules look it up (``periods.factorize`` rather than
``numth.factorize`` alone), so calls between layers are recorded without
touching the package.  Spans stay in memory as (name, start, end, parent,
items) and are written out once, when the run ends.  ``uninstall`` puts the
originals back.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

SCANS = ("ratio_scan", "irreducible_product_scan", "lucas_ratio_scan",
         "filter_agreement_scan", "wall_property_scan")

# (span name, function name, modules that look it up by that name)
FUNCTIONS = (
    ("numth.factorize", "factorize", ("periods", "theorems", "cli")),
    ("numth.divisors", "divisors", ("periods", "theorems")),
    ("numth.is_prime", "is_prime", ("numth", "periods")),
    ("numth.lcm", "lcm", ("periods",)),
    ("numth.primes_up_to", "primes_up_to", ("analysis",)),
    ("periods.pisano_period", "pisano_period", ("periods", "theorems", "cli", "")),
    ("periods.lucas_period", "lucas_period", ("analysis", "cli", "")),
    ("periods.lucas_fallback", "lucas_brute_period", ("periods",)),
    ("periods.prime_period", "prime_period", ("theorems", "cli", "")),
    ("theorems.filter", "theorem1_period", ("analysis",)),
    ("theorems.filter", "theorem2_period", ("analysis",)),
    ("cli.main", "main", ("cli",)),
) + tuple((f"analysis.{s}", s, ("cli", "")) for s in SCANS)

SINK_CLASSES = ("CsvRecordSink", "JsonRecordSink")
SINK_WRITERS = ("write_filter_reports_csv", "write_filter_reports_json")

# Per-layer metrics a traced run reports, with their units.
LAYER_METRICS = {
    "numth.factorize.calls": "count", "numth.factorize.self_s": "s",
    "numth.divisors.calls": "count", "numth.divisors.items": "count",
    "numth.divisors.self_s": "s",
    "numth.is_prime.calls": "count", "numth.is_prime.self_s": "s",
    "numth.lcm.calls": "count", "numth.lcm.self_s": "s",
    "numth.primes_up_to.self_s": "s",
    "periods.pisano_period.calls": "count", "periods.pisano_period.self_s": "s",
    "periods.lucas_period.calls": "count", "periods.lucas_period.self_s": "s",
    "periods.lucas_fallback.calls": "count",
    "periods.prime_period.calls": "count", "periods.prime_period.self_s": "s",
    "theorems.filter.calls": "count", "theorems.filter.self_s": "s",
    **{f"analysis.{s}.{k}": "s" for s in SCANS for k in ("s", "self_s")},
    "analysis.sink.records": "count", "analysis.sink.bytes": "B",
    "analysis.sink.self_s": "s",
    "analysis.pool.starts": "count", "analysis.pool.workers": "count",
    "analysis.pool.child_cpu_s": "s",
    "cli.startup_s": "s", "cli.main.self_s": "s", "cli.cpu_s": "s",
    "numth.factorize.probe_s": "s", "periods.prime_period.probe_s": "s",
    "periods.prime_power_period.probe_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _tell(fileobj) -> int:
    try:
        return fileobj.tell()
    except OSError:  # a pipe has no position
        return 0


class Tracer:
    """Records spans and counters; one instance per traced block."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, items=None):
        """``fn`` wrapped to record one span per call; ``items(result)``
        fills the span's item count."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if items is not None:
                record[4] = items(result)
            return result

        return traced

    def _replace(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        import pisano
        from pisano import analysis, cli, numth, periods, theorems

        modules = {"": pisano, "numth": numth, "periods": periods,
                   "theorems": theorems, "analysis": analysis, "cli": cli}
        for name, attr, where in FUNCTIONS:
            for key in where:
                module = modules[key]
                items = len if attr == "divisors" else None
                self._replace(module, attr, self.span(name, getattr(module, attr), items))
        for cls_name in SINK_CLASSES:
            self._replace(cli, cls_name, self._traced_sink(getattr(cli, cls_name)))
        for fn_name in SINK_WRITERS:
            self._replace(cli, fn_name, self._traced_writer(getattr(cli, fn_name)))
        self._replace(analysis, "ProcessPoolExecutor",
                      self._counted_pool(analysis.ProcessPoolExecutor))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def _traced_sink(self, base):
        tracer = self
        counters = self.counters

        class TracedSink(base):
            def __init__(self, fileobj):
                self._start = _tell(fileobj)
                self._fileobj = fileobj
                tracer.span("analysis.sink", super().__init__)(fileobj)

            def __call__(self, record):
                counters["analysis.sink.records"] += 1
                tracer.span("analysis.sink", super().__call__)(record)

            def close(self):
                tracer.span("analysis.sink", super().close)()
                counters["analysis.sink.bytes"] += _tell(self._fileobj) - self._start

        TracedSink.__name__ = base.__name__
        return TracedSink

    def _traced_writer(self, fn):
        traced = self.span("analysis.sink", fn)
        counters = self.counters

        def write(reports, fileobj):
            start = _tell(fileobj)
            traced(reports, fileobj)
            counters["analysis.sink.records"] += len(reports)
            counters["analysis.sink.bytes"] += _tell(fileobj) - start

        return write

    def _counted_pool(self, base):
        counters = self.counters

        class CountedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                counters["analysis.pool.starts"] += 1
                counters["analysis.pool.workers"] += max_workers or os.cpu_count() or 1
                super().__init__(max_workers, *args, **kwargs)

        return CountedPool

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, items, total seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "items": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _, items), child in zip(self.spans, covered):
            t = totals[name]
            t["calls"] += 1
            t["items"] += items
            t["s"] += end - start
            t["self_s"] += end - start - child
        return totals

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric this tracer can fill; probes, CLI timings
        and the overhead ratio are added by the workload."""
        totals = self.layer_totals()
        out = {name: 0.0 for name in LAYER_METRICS}
        for name in out:
            layer, _, kind = name.rpartition(".")
            if layer in totals and kind in ("calls", "items", "s", "self_s"):
                out[name] = totals[layer][kind]
        out.update(self.counters)
        return out

    def write_spans(self, path) -> None:
        """Write the recorded spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
