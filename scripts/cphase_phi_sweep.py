#!/usr/bin/env python3
"""Per-arm success of the four-photon controlled-phase gate as the
target phase varies.

Each row solves the two-constraint phase problem from scratch at the
given restart budget: the 5-point example below takes about 0.8 s on
two cores, a 25-point sweep about 4 s, and the time grows with
--restarts.  The last column compares two extractions of the two-mode
operator: the whole 6-mode network's, against the two lifted splitters
around the tensor product of the two extracted arm operators; it should
sit at rounding noise whenever the optimizer converged.

Example:
    python3 scripts/cphase_phi_sweep.py --points 5 --restarts 12
"""

import argparse
import math
import sys

from fockforge.gates import FOUR_PHOTON, cphase_gate
from fockforge.optimizer import InfeasibleAtBudgetError


def fmt(x: float) -> str:
    return f"{x:.12g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--phi-min", type=float, default=math.pi / 4.0)
    ap.add_argument("--phi-max", type=float, default=math.pi)
    ap.add_argument("--points", type=int, default=5)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--restarts", type=int, default=12)
    args = ap.parse_args(argv)

    cols = "phi arm_probability success_probability residual route_deviation".split()
    sys.stdout.write("\t".join(cols) + "\n")

    for i in range(args.points):
        phi = args.phi_min + (args.phi_max - args.phi_min) * i / max(args.points - 1, 1)
        try:
            _, rep = cphase_gate(
                phi, variant=FOUR_PHOTON, seed=args.seed, restarts=args.restarts
            )
        except InfeasibleAtBudgetError:
            sys.stdout.write(f"{fmt(phi)}\tinfeasible\t-\t-\t-\n")
            continue
        row = [
            fmt(phi),
            fmt(rep.extras["arm_probability"]),
            fmt(rep.success_probability),
            fmt(rep.residual),
            fmt(rep.extras["route_deviation"]),
        ]
        sys.stdout.write("\t".join(row) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
