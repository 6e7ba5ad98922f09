"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads sweep cli-session --seeds 1-10 [--out FILE]

Runs ``bench/run.py`` once per (workload, seed) at BENCHMARK.json's
``run_seconds`` with ``--trace 0``, sequentially, and prints per metric the
median, the quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median and the metric's bound.  The aim is a spread below a
third of the bound on every metric but ``setup_s``.  ``--out`` keeps every
run's result line as JSON, for a later comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    runs, status = {}, 0
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[workload].append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)

    print(f"\n{'workload':12s} {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for workload, results in runs.items():
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  > bound/3"
            print(f"{workload:12s} {m['name']:12s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.2%} {m['bound']:6.2f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
