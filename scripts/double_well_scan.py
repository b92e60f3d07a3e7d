#!/usr/bin/env python3
"""Scan the double-well secular determinant for a family of barrier heights.

Writes one CSV per barrier height (columns k, determinant) plus a summary of
the lowest doublet per height.  Plot the CSVs with any external tool; the
sign changes of each curve mark the bound-state momenta.
"""

import argparse
import math
import pathlib

import numpy as np

from stepwell import PotentialSpec, find_eigenvalues, secular_determinant


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="scan_out", help="directory for CSV files")
    ap.add_argument("--p", type=float, default=1.0)
    ap.add_argument("--q", type=float, default=2.0)
    ap.add_argument("--r", type=float, default=math.pi)
    ap.add_argument(
        "--barriers", type=float, nargs="+", default=[10.0, 15.0, 20.0, 25.0]
    )
    ap.add_argument("--k-lo", type=float, default=1.8)
    ap.add_argument("--k-hi", type=float, default=2.6)
    ap.add_argument("--points", type=int, default=800)
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ks = np.linspace(args.k_lo, args.k_hi, args.points)

    print(f"{'H1':>6}  {'E1':>12}  {'E2':>12}  {'splitting':>12}")
    for h1 in args.barriers:
        spec = PotentialSpec((0.0, args.p, args.q, args.r), (0.0, h1, 0.0))
        path = out_dir / f"doublewell_h{h1:g}.csv"
        with path.open("w") as fh:
            fh.write("k,determinant\n")
            for k, det in zip(ks, secular_determinant(spec, ks * ks)):
                fh.write(f"{k:.17g},{det:.17g}\n")
        scan = find_eigenvalues(spec, 0.05, h1, count=2)
        e1, e2 = scan.energies
        print(f"{h1:6g}  {e1:12.8f}  {e2:12.8f}  {e2 - e1:12.8f}")
    print(f"curves written to {out_dir}/")


if __name__ == "__main__":
    main()
