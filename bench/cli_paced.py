"""Run the pisano CLI as ``python -m pisano`` does, under a Pace sampler,
for untraced cli-scan runs.

    python3 bench/cli_paced.py PACE_JSON CLI-ARGS...

The reference loops' total seconds and count go to PACE_JSON when the CLI
returns; the exit code is the CLI's.  The pool's workers run no reference
loops: the benchmark scales their CPU time by the speed the CLI process saw.
"""

import json
import sys

from pisano import cli

from pace import Pace


def main() -> int:
    pace = Pace()
    try:
        with pace:
            return cli.main(sys.argv[2:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump({"ref_s": pace.ref_s, "refs": pace.refs}, fh)


if __name__ == "__main__":
    sys.exit(main())
