"""Run one ``kgframes`` command the way the installed console script does.

Usage: ``python3 perfbench/launch.py <kgframes arguments>``. When the
environment names a span file in ``PERFBENCH_SPANS``, the launcher wraps the
library's public functions before calling ``kgframes.cli.main`` and, when
the command returns, writes there the time ``kgframes.cli`` finished
importing (``time.monotonic_ns``, taken before the wrappers are installed)
followed by the spans.
"""

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import kgframes.cli  # noqa: E402

IMPORTED_NS = time.monotonic_ns()


def main() -> int:
    spans_path = os.environ.get("PERFBENCH_SPANS")
    if not spans_path:
        return kgframes.cli.main()
    sys.path.insert(0, str(HERE))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return kgframes.cli.main()
    finally:
        tracer.dump(spans_path, header=[IMPORTED_NS])


if __name__ == "__main__":
    sys.exit(main())
