#!/usr/bin/env python3
"""Sweep the absorbing sign-flip element over absorption and detector
efficiency, printing branch weights and coefficients alongside their
closed forms.

The wanted branch applies sqrt(eta) * diag(t, -t) up to the heralded
rescale; the detector branch collects the one-photon events the
inefficient detector missed, the absorption branch the photons the slab
ate.  Output is TSV on stdout, one row per grid point.  The three branch
weights must sum to the output's trace within 1e-12; a grid point where
they do not stops the sweep with exit code 1 and names the point on
stderr.

Example:
    python3 scripts/sigma_z_loss_sweep.py --a-steps 6 --eta-steps 5
"""

import argparse
import math
import sys

from fockforge.lossy import noisy_sigma_z_experiment


def fmt(x: float) -> str:
    return f"{x:.12g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a-max", type=float, default=0.6, help="largest |A| in the sweep")
    ap.add_argument("--a-steps", type=int, default=7)
    ap.add_argument("--eta-min", type=float, default=0.4)
    ap.add_argument("--eta-steps", type=int, default=4)
    ap.add_argument("--c0", type=float, default=1.0 / math.sqrt(2.0))
    ap.add_argument("--c1", type=float, default=1.0 / math.sqrt(2.0))
    args = ap.parse_args(argv)

    cols = (
        "abs_a eta transmission wanted_weight detector_weight absorption_weight "
        "detector_coeff detector_closed absorption_coeff absorption_closed"
    ).split()
    sys.stdout.write("\t".join(cols) + "\n")

    for i in range(args.a_steps):
        a = args.a_max * i / max(args.a_steps - 1, 1)
        for j in range(args.eta_steps):
            eta = args.eta_min + (1.0 - args.eta_min) * j / max(args.eta_steps - 1, 1)
            rep = noisy_sigma_z_experiment(a, eta, args.c0, args.c1)
            gap = abs(rep.wanted_weight + rep.detector_weight + rep.absorption_weight - rep.output.trace())
            if gap > 1e-12:
                sys.stderr.write(f"branch weights miss the trace by {gap:.3g} at abs_a {fmt(a)}, eta {fmt(eta)}\n")
                return 1
            row = [
                fmt(a),
                fmt(eta),
                fmt(rep.transmission),
                fmt(rep.wanted_weight),
                fmt(rep.detector_weight),
                fmt(rep.absorption_weight),
                fmt(rep.detector_coefficient),
                fmt(rep.detector_closed_form),
                fmt(rep.absorption_coefficient),
                fmt(rep.absorption_closed_form),
            ]
            sys.stdout.write("\t".join(row) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
