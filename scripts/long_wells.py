#!/usr/bin/env python3
"""Scan a long random well under tracemalloc: levels in bounded memory.

The wells have N + 1 intervals with widths U(0.2, 1) and heights U(0, 20),
drawn in turn from numpy.random.default_rng(1) for N = 4, 16, 64, 256 and
1024.  The scan covers (0, 40).  Prints the level count, sturm_count's
count over the window, the time and the peak traced memory, and exits 1 if
the peak exceeds --max-mib or the two counts differ:

    PYTHONPATH=src python scripts/long_wells.py --n 1024 --max-mib 200
"""

import argparse
import sys
import time
import tracemalloc

import numpy as np

from stepwell import PotentialSpec, find_eigenvalues, sturm_count

SIZES = (4, 16, 64, 256, 1024)
WINDOW = (0.0, 40.0)


def long_well(n: int) -> PotentialSpec:
    """The well with n interior breakpoints, n one of SIZES."""
    rng = np.random.default_rng(1)
    for size in SIZES:
        widths = rng.uniform(0.2, 1.0, size + 1)
        heights = rng.uniform(0.0, 20.0, size + 1)
        if size == n:
            breakpoints = np.concatenate([[0.0], np.cumsum(widths)])
            return PotentialSpec(tuple(breakpoints.tolist()), tuple(heights.tolist()))
    raise ValueError(f"n must be one of {SIZES}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n", type=int, choices=SIZES, default=1024)
    ap.add_argument("--max-mib", type=float, default=200.0, help="bound on the traced peak")
    args = ap.parse_args(argv)
    spec = long_well(args.n)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        scan = find_eigenvalues(spec, *WINDOW)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    # a near-degenerate entry stands for two levels
    levels = len(scan.energies) + len(scan.near_degenerate)
    counted = int(sturm_count(spec, WINDOW[1]) - sturm_count(spec, WINDOW[0]))
    print(f"N={args.n} levels={levels} sturm_count={counted} seconds={seconds:.2f} peak_mib={peak:.1f}")
    return 0 if peak <= args.max_mib and levels == counted else 1


if __name__ == "__main__":
    sys.exit(main())
