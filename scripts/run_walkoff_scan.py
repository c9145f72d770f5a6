#!/usr/bin/env python3
"""Run the asymmetric-scan (walk-off) measurement.

Single-axis piezo scanning walks the beam overlap off across the output
splitter, shrinking the effective coherence length to ~2 um.  Fringes survive
only near the zero-path center; both scan ends flatten toward the incoherent
50/50 split, exposing the classical g2 = 0.5 baseline.  Writes the scan CSV
plus the phase-resolved g2 curve built from the measured fringes.
"""

import argparse
import sys
from pathlib import Path

from pstream import averaged_g2, load_config, run_scan, scan_series
from pstream.cli import exit_code, int_at_least
from pstream.runner import _write_table, export_scan_csv

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=HERE.parent / "configs" / "walkoff_scan.json")
    parser.add_argument("--out", default="out/walkoff")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int_at_least(1), default=2)
    args = parser.parse_args()

    cfg = load_config(args.config, seed_override=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    result = run_scan(cfg, workers=args.workers)
    export_scan_csv(result, out / "scan.csv")

    series_a, series_b, series_c, gains = scan_series(result)
    g2 = averaged_g2((series_a, series_b), series_c, gains)
    rows = zip(g2.positions.tolist(), gains.tolist(), g2.values.tolist())
    _write_table(out / "g2.csv", ["x_m", "envelope", "g2"], rows)

    center = g2.values[abs(g2.positions) < 1e-6]
    edges = g2.values[abs(g2.positions) > 3e-6]
    print(f"wrote {out / 'scan.csv'} and {out / 'g2.csv'}")
    print(f"g2 swing near center: {center.min():.3f} .. {center.max():.3f}")
    print(f"g2 at the walked-off ends: {edges.mean():.3f} (classical baseline 0.5)")


if __name__ == "__main__":
    sys.exit(exit_code(main))
