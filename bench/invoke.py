"""Run one ``pairsens`` CLI call and record how long ``cli.main`` took.

    python3 bench/invoke.py --times OUT.json -- changepoint --input s.csv --tau 0

Interpreter start-up and ``import pairsens.cli`` happen before the clock
starts; ``setup_s`` measures them on their own.  Argument parsing, CSV
ingestion, the computation and the JSON on stdout are timed.  Stdout is the
program's own, byte for byte; the times go to ``OUT.json`` as
``{"wall_s": ..., "cpu_s": ...}``, CPU being user + system of the process.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    if "--" not in argv or argv[:1] != ["--times"]:
        print("usage: invoke.py --times OUT.json -- PAIRSENS-ARGS...", file=sys.stderr)
        return 2
    split = argv.index("--")
    import pairsens.cli as cli

    wall, cpu = time.perf_counter(), time.process_time()
    try:
        return cli.main(argv[split + 1:])
    finally:
        sys.stdout.flush()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        with open(argv[1], "w") as fh:
            json.dump({"wall_s": wall, "cpu_s": cpu}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
