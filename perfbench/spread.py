"""Run-to-run spread of the end-to-end metrics, from interleaved sets of runs.

    python3 perfbench/spread.py --runs 10 --sets 2 [--workloads coherent_scan,...]

Set ``s`` uses seeds ``s*runs + 1 .. (s+1)*runs``.  Runs alternate between
sets and workloads, so that a slow stretch of the machine falls on every set
alike.  For each workload, set and metric it prints the median, the quartiles
and their distance as a share of the median, then how far each set's median
lies from the first set's, against the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=str(HERE / "results" / "spread.json"))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {(w, s): [] for w in workloads for s in range(args.sets)}
    for i in range(args.runs):
        for j in range(args.sets):
            s = (i + j) % args.sets
            for w in workloads[i % len(workloads):] + workloads[: i % len(workloads)]:
                result = run_once(w, s * args.runs + i + 1, args.seconds)
                runs[(w, s)].append(result)
                print(w, s, json.dumps(result), flush=True)

    summary = {}
    for w in workloads:
        print(f"\n{w}")
        first = None
        for s in range(args.sets):
            results = runs[(w, s)]
            share = sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
            medians = {}
            for name in bounds:
                values = [r["metrics"][name]["value"] for r in results]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                medians[name] = q2
                shift = q2 / first[name] - 1 if first else 0.0
                spread = (q3 - q1) / q2
                summary[f"{w}/{s}/{name}"] = {"q1": q1, "median": q2, "q3": q3, "spread": spread, "shift": shift}
                print(f"  set {s} {name:15s} median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {spread:.4f}  shift {shift:+.4f}  bound {bounds[name]}")
            print(f"  set {s} failed share {share}")
            first = first or medians
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps({"runs": {f"{w}/{s}": r for (w, s), r in runs.items()},
                                          "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
