"""Run the pisano CLI with span recording, for traced cli-scan runs.

    python3 bench/cli_traced.py LAYERS_JSON SPANS_JSONL SPAWN_NS CLI-ARGS...

SPAWN_NS is CLOCK_MONOTONIC in nanoseconds just before this process was
started, so ``cli.startup_s`` covers interpreter start-up and the imports up
to ``main``.  The per-layer metrics go to LAYERS_JSON and the spans to
SPANS_JSONL when the CLI returns; the exit code is the CLI's.
"""

import json
import resource
import sys
import time

from pisano import cli

from tracer import Tracer


def main() -> int:
    layers_path, spans_path, spawn_ns = sys.argv[1:4]
    startup = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - int(spawn_ns)) / 1e9
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[4:])
    finally:
        tracer.uninstall()
        layers = tracer.metrics()
        layers["cli.startup_s"] = startup
        workers = resource.getrusage(resource.RUSAGE_CHILDREN)  # the pool's processes
        layers["analysis.pool.child_cpu_s"] = workers.ru_utime + workers.ru_stime
        with open(layers_path, "w", encoding="utf-8") as fh:
            json.dump(layers, fh)
        tracer.write_spans(spans_path)


if __name__ == "__main__":
    sys.exit(main())
