"""Run one botmeterd command in a fresh interpreter, under probes.

Usage: ``python3 perfbench/launch.py STATS_JSON plain|trace CLI_ARGS...``

Times ``import repro.cli``, installs the probes, runs the CLI exactly as
``python -m repro.cli CLI_ARGS...`` would, and writes the probe numbers
to ``STATS_JSON`` (forked partitions write ``part-<pid>.json`` beside
it).
"""

import sys
import time
from pathlib import Path


def main() -> int:
    stats_path = Path(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter_ns()
    import repro.cli

    import_ns = time.perf_counter_ns() - t0
    from probes import Probe

    probe = Probe(stats_path, trace=sys.argv[2] == "trace")
    probe.install()
    code = repro.cli.main(sys.argv[3:])
    probe.dump(stats_path, import_ns=import_ns)
    return code


if __name__ == "__main__":
    sys.exit(main())
