"""``repro serve`` with the benchmark's span wrappers installed.

Usage: python bench/traced_serve.py TRACE_DIR serve [repro serve flags]

Tracing starts switched off. SIGUSR1 switches it on and SIGUSR2 off, in
the server and in the pool workers it forks. Workers append their spans
to TRACE_DIR as they go; the server process writes its own when it exits
(pass ``--allow-shutdown`` and send the ``shutdown`` op).
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    # The checkout root replaces bench/ on the path, where trace.py would
    # shadow the standard library's trace module.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    from bench.trace import repro_tracer

    import repro.cli

    tracer = repro_tracer(argv[0])
    tracer.enabled = False

    def switch(signum: int, frame: object) -> None:
        tracer.enabled = signum == signal.SIGUSR1

    signal.signal(signal.SIGUSR1, switch)
    signal.signal(signal.SIGUSR2, switch)
    try:
        return repro.cli.main(argv[1:])
    finally:
        tracer.write()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
