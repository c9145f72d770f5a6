"""Command-line interface.

Subcommands:
    simulate  run a configured scan and write scan.csv + config.json
    analyze   read a simulate run back: write its report.csv and g2.csv
    fig4      write the analytic reference curves as CSV
    stats     print occupancy statistics for a mean photon number
    ingest    extract events from an oscilloscope trace file

Exit codes: 0 success, 2 configuration error, 3 data or parse error,
4 numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, source, traces
from .analysis import averaged_g2
from .config import MAX_POINTS, config_to_dict, load_config, seed_override
from .errors import ConfigError, DataError, DomainError, NumericalError
from .runner import (
    analytic_fig4,
    build_report,
    export_fig4_csv,
    export_g2_csv,
    export_report_csv,
    export_scan_csv,
    read_scan_csv,
    run_scan,
    scan_series,
    ScanResult,
)
from .source import mean_photon_number, poisson_pmf, poisson_tail

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, seed_override=seed_override(args.seed))
    out_dir = Path(args.out)
    # an --out that cannot be a directory is refused before the scan runs
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_scan(cfg, workers=args.workers)
    export_scan_csv(result, out_dir / "scan.csv")
    (out_dir / "config.json").write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")
    print(f"wrote {out_dir / 'scan.csv'} ({len(result.points)} points, seed {cfg.scan.seed})")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    run = Path(args.run)
    cfg = load_config(run / "config.json")
    points = read_scan_csv(run / "scan.csv")
    if len(points) != cfg.scan.n_points:
        raise DataError(f"{run / 'scan.csv'}: {len(points)} rows, the run has {cfg.scan.n_points}")
    result = ScanResult(points=points, config=cfg)
    # both outputs are computed, and so every bad input refused, before either is written
    report = build_report(result, dead_time=cfg.source.dead_time)
    series_a, series_b, series_c, gains = scan_series(result)
    g2 = averaged_g2((series_a, series_b), series_c, gains)
    export_report_csv(report, run / "report.csv")
    export_g2_csv(g2, gains, run / "g2.csv")
    for key, value in report.as_items():
        print(f"{key}: {value}")
    print(f"wrote {run / 'report.csv'} and {run / 'g2.csv'}")
    return EXIT_OK


def _cmd_fig4(args: argparse.Namespace) -> int:
    # past half the largest double, span - (-span) overflows; pzt_phase then
    # refuses the grid's non-finite points
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.linspace(-args.span, args.span, args.points)
    curves = analytic_fig4(args.v, args.leff, x, wavelength=args.wavelength)
    export_fig4_csv(curves, args.out)
    print(f"wrote {args.out} ({args.points} grid points)")
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    mean = args.mean
    slots = 1.0 / args.dead_time
    # every value is computed, and so every bad input refused, before the first line prints
    lines = [
        f"mean photons per slot: {mean}",
        "n  P(n)",
        *(f"{n}  {poisson_pmf(n, mean):.6e}" for n in range(6)),
        f">=3  {poisson_tail(3, mean):.6e}",
        f"pair/single ratio P(2)/P(1) = mean/2 = {mean / 2:.6g}",
        f"slots per second at {args.dead_time*1e9:.0f} ns dead time: {slots:.6g}",
        f"expected singles per second: {slots * poisson_pmf(1, mean):.6g}",
        f"expected pairs per second:   {slots * poisson_pmf(2, mean):.6g}",
        "mean recovered from those singles: "
        f"{mean_photon_number(slots * poisson_pmf(1, mean), 1.0, args.dead_time):.6g}",
    ]
    print("\n".join(lines))
    return EXIT_OK


def _cmd_ingest(args: argparse.Namespace) -> int:
    path = Path(args.trace)
    fmt = args.format or ("csv" if path.suffix.lower() == ".csv" else "raw")
    if fmt == "csv":
        trace = traces.read_trace_csv(path)
    else:
        trace = traces.read_trace_raw(path, sampling_period=args.sampling_period)
    events1, events2 = traces.ingest_trace(trace, args.threshold)
    with open(args.out, "w", newline="") as fh:
        fh.write("channel,time_s\n")
        fh.write("".join(map("1,{!r}\n".format, events1.tolist())))
        fh.write("".join(map("2,{!r}\n".format, events2.tolist())))
    print(f"channel 1: {events1.size} events; channel 2: {events2.size} events")
    return EXIT_OK


def finite_float(text: str) -> float:
    """argparse type: a finite real number (not nan or inf)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def positive_float(text: str) -> float:
    """argparse type: a finite real number > 0."""
    value = finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not > 0")
    return value


def normal_positive_float(text: str) -> float:
    """argparse type: a finite normal double > 0, as ``TraceFile`` takes for its period;
    its reciprocal is finite too."""
    value = positive_float(text)
    if value < sys.float_info.min:
        raise argparse.ArgumentTypeError(f"{text!r} is subnormal, below {sys.float_info.min!r}")
    return value


def int_in_range(low: int, high: int | None = None):
    """argparse type: an integer >= ``low`` and, when ``high`` is given, <= ``high``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not >= {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"{text!r} is not <= {high}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pstream", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"pstream {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a configured scan")
    p.add_argument("--config", required=True, help="JSON experiment configuration")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed, in [0, 2**64)")
    p.add_argument(
        "--workers",
        type=int_in_range(1),
        default=1,
        help="processes that share the scan points, this one included; at most one per CPU runs",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="summarize a simulate run")
    p.add_argument(
        "--run", required=True, help="directory holding the scan.csv and config.json of simulate"
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("fig4", help="write analytic reference curves")
    p.add_argument("--v", type=finite_float, required=True, help="intrinsic visibility")
    p.add_argument("--leff", type=positive_float, required=True, help="envelope FWHM in meters")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--span", type=positive_float, default=4e-6, help="half-range of the x grid, meters"
    )
    p.add_argument("--points", type=int_in_range(2, MAX_POINTS), default=2001)
    p.add_argument("--wavelength", type=positive_float, default=source.DEFAULT_WAVELENGTH)
    p.set_defaults(func=_cmd_fig4)

    p = sub.add_parser("stats", help="occupancy statistics for a mean photon number")
    p.add_argument("--mean", type=finite_float, required=True)
    p.add_argument("--dead-time", type=normal_positive_float, default=source.DEFAULT_DEAD_TIME)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("ingest", help="extract events from a trace file")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True, help="events CSV path")
    p.add_argument("--format", choices=["csv", "raw"], default=None)
    p.add_argument(
        "--sampling-period", type=normal_positive_float, default=traces.DEFAULT_SAMPLING_PERIOD
    )
    p.add_argument("--threshold", type=finite_float, default=traces.DEFAULT_THRESHOLD)
    p.set_defaults(func=_cmd_ingest)
    return parser


def exit_code(fn, *args):
    """Call ``fn(*args)`` and return its result; if it raises a configuration,
    data, numerical or OS error, print it as one stderr line and return its exit code."""
    try:
        return fn(*args)
    except (ConfigError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return exit_code(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
