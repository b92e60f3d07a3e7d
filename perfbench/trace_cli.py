"""Traced CLI child: install the tracer, then run ``stepwell.cli.main``.

    python3 perfbench/trace_cli.py SUMMARY.json <stepwell arguments...>

Writes the import time, the time inside ``main`` and the span profile to
SUMMARY.json and exits with ``main``'s return code.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

t0 = perf_counter()
import stepwell.cli  # noqa: E402

import_s = perf_counter() - t0

from tracer import Tracer  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        t1 = perf_counter()
        rc = stepwell.cli.main(argv)
        main_s = perf_counter() - t1
    finally:
        tracer.uninstall()
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "main_s": main_s, "profile": tracer.profile()}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
