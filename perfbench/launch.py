"""Run the ``repro-pmu`` CLI with the benchmark's tracing installed.

    python3 perfbench/launch.py TRACE_DIR serve --port 0 ...

Wraps each layer's public calls (see ``tracing.install``) and the serve
daemon's queue and job boundaries, runs ``repro.core.cli.main`` with the
remaining arguments, and writes the spans and the program's counters to
``TRACE_DIR`` when the command returns (the daemon returns after a
SIGTERM drain).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    from repro.core import cli
    from repro.obs import Collector, install

    tracer = tracing.Tracer(argv[0], role="daemon")
    tracing.install(tracer)
    tracing.install_serve(tracer)
    # The daemon installs this same default collector itself when none is
    # present; installing it here only lets the counters outlive main().
    collector = Collector()
    install(collector)
    try:
        return cli.main(argv[1:])
    finally:
        install(None)
        tracer.unpatch()
        tracer.dump(collector.metrics.counters())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
