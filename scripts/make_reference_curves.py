#!/usr/bin/env python3
"""Write the analytic reference curves for the phase-scanned correlation.

Produces, on one x grid: the pair of envelope-degraded output intensities,
their pointwise product (the noise-free coincidence curve), and the blended
intensity correlation that swings over [0, 1] at the coherent center and
settles at the classical 0.5 beyond the walk-off envelope.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from pstream import analytic_fig4, export_fig4_csv
from pstream.cli import exit_code, finite_float, int_at_least, positive_float


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--v", type=finite_float, default=1.0, help="intrinsic visibility")
    parser.add_argument("--leff", type=positive_float, default=2e-6, help="envelope FWHM, meters")
    parser.add_argument("--span", type=positive_float, default=4e-6, help="half-range of x, meters")
    parser.add_argument("--points", type=int_at_least(2), default=8001)
    parser.add_argument("--out", default="out/reference_curves.csv")
    args = parser.parse_args()

    x = np.linspace(-args.span, args.span, args.points)
    curves = analytic_fig4(args.v, args.leff, x)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    export_fig4_csv(curves, args.out)
    print(f"wrote {args.out}")
    print(f"g2 range: {curves.g2.min():.6f} .. {curves.g2.max():.6f}")
    edge = np.abs(np.abs(x) - args.span) < 1e-12
    print(f"g2 at |x| = {args.span*1e6:.1f} um: {curves.g2[edge].mean():.6f}")


if __name__ == "__main__":
    sys.exit(exit_code(main))
