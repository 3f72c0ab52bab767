#!/usr/bin/env python3
"""Print the diagnostics behind the blow-up trichotomy classification.

Three sweeps on the unit disk (n=2, k=1):
  concentration    exact bubble solutions with growing concentration
  divergence       constant data with boundary values marching to +inf
  bounded          one fixed problem repeated

For each sweep the table shows the central value, the minimum over the
annulus window, and the local mass in a small ball at the origin; the
final line gives the classifier's verdict.  Everything is closed-form
or deterministic, so the output doubles as a regression reference.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

import hessianlab.liouville as liu
from hessianlab.core import HessianDim


def show(title: str, pairs, atom_r: float) -> None:
    # the per-member mass column needs every member, so keep them all
    pairs = list(pairs)
    report = liu.classify_alternative(pairs)
    near0 = report.diagnostics["near0"]
    ann = report.diagnostics["annulus_min"]
    masses = [liu.local_mass(u, prob.V, atom_r) for prob, u in pairs]
    print(f"\n== {title} ==")
    print(f"{'member':>8s} {'u(0+)':>12s} {'annulus min':>12s} {'mass(B_%.2f)' % atom_r:>14s}")
    for i, (prob, _) in enumerate(pairs):
        print(f"{prob.label or i!s:>8s} {near0[i]:12.4f} {ann[i]:12.4f} {masses[i]:14.6f}")
    print(f"verdict: {report.classification}  (threshold {report.threshold:.6f})")
    if report.atom_masses:
        print(f"limit atom mass: {report.atom_masses[0]:.6f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid-n", type=int, default=2048)
    parser.add_argument("--atom-radius", type=float, default=0.05)
    args = parser.parse_args(argv)
    gn = args.grid_n

    lams = [2.0**j for j in range(1, 9)]
    conc = [(liu.bubble_problem(lam, grid_n=gn), liu.bubble_profile(lam, grid_n=gn)) for lam in lams]
    show("concentration (bubbles, lambda = 2..256)", conc, args.atom_radius)

    lifted = tuple(
        liu.LiouvilleProblem(
            dim=HessianDim(2, 1),
            V=(lambda r, c=np.exp(-j): np.full_like(r, c)),
            boundary=float(j),
            grid_n=gn,
            label=f"b={j}",
        )
        for j in (5, 10, 15, 20)
    )
    show("uniform divergence (boundary lift)", liu.solve_sequence(lifted), args.atom_radius)

    fixed = tuple(
        liu.LiouvilleProblem(
            dim=HessianDim(2, 1),
            V=(lambda r: np.full_like(r, 1.0)),
            boundary=0.0,
            grid_n=gn,
            label=f"rep{j}",
        )
        for j in range(4)
    )
    show("bounded (fixed problem)", liu.solve_sequence(fixed), args.atom_radius)
    return 0


if __name__ == "__main__":
    sys.exit(main())
