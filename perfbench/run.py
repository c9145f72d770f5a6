"""pstream benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload coherent_scan --seed 1 --seconds 30 --trace 0

Run from the root of a pstream checkout; the package is imported from its
``src/``.  The run sets up the workload, repeats its operation for
``--seconds`` seconds, checks every output, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A result file (and, traced, a span file) goes to ``perfbench/results/``.
See README.md for the workloads, the metrics and their bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def machine_facts() -> dict:
    import numpy
    import pstream

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pstream": pstream.__version__,
    }


def git_commit() -> str:
    """The checkout's commit, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(args) -> list[float]:
    """Interpreter start to the first timed operation, in fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0"] + (["--small"] if args.small else [])
        start = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]) - start)
    return samples


def timed_phase(workload, seconds: float, tracer, tmp: Path) -> list[dict]:
    """Whole operations until ``seconds`` have passed; each one checked after its timing."""
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        k = len(ops)
        if tracer is not None:
            tracer.op = k
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            output = workload.op(k, tmp)
            error = None
        except Exception:
            error = traceback.format_exc(limit=4)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if tracer is not None:
            tracer.op = -1
        problems = [error] if error else workload.check(k, output)
        ops.append({"wall_s": wall, "cpu_s": cpu, "workers": workload.workers, "problems": problems})
    for k, problems in workload.post_check().items():
        ops[k]["problems"] += problems
    return ops


def end_to_end(ops: list[dict], record_s: float, setup: list[float]) -> dict:
    walls = [o["wall_s"] for o in ops]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "record_s_per_s": {"value": record_s * len(ops) / sum(walls), "unit": "s/s"},
        "op_s_p50": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(o["cpu_s"] for o in ops), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


UNITS = {"_ms": "ms", "_per_step": "count", "_ratio": "ratio", "_mb_per_s": "MB/s", "_mb": "MB",
         "_efficiency": "ratio"}


def unit_of(name: str) -> str:
    return next(unit for suffix, unit in UNITS.items() if name.endswith(suffix))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pstream" / "__init__.py").is_file():
        print(f"perfbench: no pstream sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import pstream

    if Path(pstream.__file__).resolve().parent != ROOT / "src" / "pstream":
        print(f"perfbench: imported pstream from {pstream.__file__}, not this checkout", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.make(args.workload, args.seed, ROOT, args.small)
        print(time.monotonic())
        return 0

    setup = [] if args.trace else setup_seconds(args)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = workloads.make(args.workload, args.seed, ROOT, args.small)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=HERE) as tmp:
        ops = timed_phase(workload, args.seconds, tracer, Path(tmp))
    failed = sum(1 for o in ops if o["problems"])
    wrapped = tracing.installed_wrappers()
    if tracer is not None:
        tracer.uninstall()
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in tracing.layer_metrics(tracer.spans, ops).items()}
        tracer.write(results / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(ops, workload.record_s, setup)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "small": args.small, "commit": git_commit(), "machine": machine_facts(),
        "attempted": len(ops), "failed": failed, "metrics": metrics,
        "op_wall_s": [o["wall_s"] for o in ops], "op_cpu_s": [o["cpu_s"] for o in ops],
        "setup_samples_s": setup,
        "problems": [p for o in ops for p in o["problems"]][:20],
    }
    if tracer is not None:
        cost = tracing.wrapper_cost_s()
        record["wrapper_cost_s"] = cost
        record["trace_overhead_share"] = cost * len(tracer.spans) / sum(record["op_wall_s"])
        record["wrapped_in_traced_run"] = wrapped
    elif wrapped:
        record["problems"].append(f"untraced run found wrappers on {wrapped}")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for problem in record["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = failed == 0 and not (wrapped and not args.trace)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
