"""Run ``diagcalc.cli.main`` with span recording, for the traced cli workload.

    PERFBENCH_SPANS=<file> PYTHONPATH=src python3 perfbench/clichild.py <diagcalc arguments>

Exits with the command's own exit code and writes the spans to the file.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import tracing


def main() -> int:
    import diagcalc.cli

    tracer = tracing.Tracer()
    tracer.install()
    tracer.job_id = 0
    try:
        return diagcalc.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracer.dump(Path(os.environ["PERFBENCH_SPANS"]))


if __name__ == "__main__":
    raise SystemExit(main())
