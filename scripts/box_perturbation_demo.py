#!/usr/bin/env python3
"""Perturbation-series demonstration on two solvable cases.

A constant shift of a box reproduces itself exactly at first order (all
higher corrections vanish), and a linear tilt of a step potential is
compared order by order against the exactly solved tilted problem.
"""

import argparse
import math

from stepwell import (
    PerturbationSpec,
    PotentialSpec,
    exact_perturbed_energy,
    run_series,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--orders", type=int, default=4)
    ap.add_argument("--shift", type=float, default=0.3)
    args = ap.parse_args()

    box = PotentialSpec((0.0, math.pi), (0.0,))
    pert = PerturbationSpec(((args.shift,),))
    series = run_series(box, pert, (0.2, 2.0), args.orders, max_states=1).states[0]
    print(f"box ({0}, pi) with constant shift {args.shift}:")
    for k, e in enumerate(series.energies):
        print(f"  E({k}) = {e: .15e}")

    step = PotentialSpec((0.0, 1.0, 2.0), (0.0, 5.0))
    tilt = PerturbationSpec(((0.0, 1.0), (0.0, 1.0)))
    series = run_series(step, tilt, (0.05, 10.0), args.orders, max_states=1).states[0]
    print("\nstep potential (0,1,2)/(0,5) with linear tilt, ground state:")
    for k, e in enumerate(series.energies):
        print(f"  E({k}) = {e: .15e}")
    print(f"\n{'lambda':>8}  {'series sum':>22}  {'exact':>22}  {'remainder':>10}")
    for lam in (1e-1, 1e-2, 1e-3):
        partial = series.energy_at(lam)
        exact = exact_perturbed_energy(step, tilt, lam, partial)
        print(f"{lam:8g}  {partial:22.15f}  {exact:22.15f}  {abs(partial - exact):10.2e}")


if __name__ == "__main__":
    main()
