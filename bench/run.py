"""cavitykit benchmark: four workloads, end-to-end metrics or a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``workloads.py``): ``sweep`` (dynamics), ``fit-batch``
(fitting), ``field-map`` (coupling) and ``cli-session`` (one cavitykit
process per op).  Inputs come from the seed alone.

Set-up time is measured in fresh interpreters, from spawn to the line
each prints just before its first timed op: ``SETUP_SAMPLES`` set-up-only
processes plus the measuring process itself, median reported.  The
measuring process runs whole cycles of its workload's ops for ``--seconds``
and checks every op's output.  Every time reported, set-up included, is
scaled by a speed factor from a fixed reference computation timed next to
it (``worker.speed_reference``), so that the machine's drifting speed
cancels; the unscaled figures are printed too.  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and the metrics (end-to-end with
``--trace 0``, per-layer with ``--trace 1``).  At most two processes run
at once: this one and one worker (plus, for cli-session, the worker's
current cavitykit child).

``--self-check`` runs every workload at tiny sizes for a few ops, in both
modes and on two seeds, and validates the output schema against
BENCHMARK.json and the output checks; it has no timing gate.  It then
prints the report of ``known_defects.py``: program defects that fit-batch's
inputs are drawn to avoid, and whether each still reproduces.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "fit-batch", "field-map", "cli-session")
SETUP_SAMPLES = 2
DEADLINE_S = 170.0   # the whole run, set-up samples included


class WorkerError(RuntimeError):
    pass


class Worker:
    """A worker process, killed if the run's deadline passes."""

    def __init__(self, argv, deadline):
        self.t0 = perf_counter()
        # own process group, so a kill also stops a cavitykit child of the worker
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                                     start_new_session=True)
        self.timer = threading.Timer(max(deadline - perf_counter(), 0.0), self.kill)
        self.timer.start()

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def expect(self, tag):
        """Read stdout up to the line starting with ``tag``; return its JSON
        and the seconds since spawn."""
        for line in self.proc.stdout:
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:]), perf_counter() - self.t0
            sys.stdout.write(line)
        raise WorkerError(f"worker ended without a {tag} line")

    def close(self):
        self.proc.stdout.close()
        code = self.proc.wait()
        self.timer.cancel()
        if code != 0:
            raise WorkerError(f"worker exited with code {code}")


def worker_argv(args, role, workdir):
    argv = [sys.executable, str(BENCH / "worker.py"), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed), "--dir", str(workdir),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return argv + (["--tiny"] if args.tiny else [])


def measure(args):
    """Set-up samples, then the measuring worker; returns the result line's
    object and the human-readable lines to print before it."""
    deadline = perf_counter() + DEADLINE_S
    base = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    samples, speeds, digests, warm_failures = [], [], [], []
    try:
        n_probes = SETUP_SAMPLES if args.trace == 0 else 0
        for k in range(n_probes + 1):
            workdir = base / str(k)
            workdir.mkdir(parents=True)
            role = "setup" if k < n_probes else "run"
            w = Worker(worker_argv(args, role, workdir), deadline)
            try:
                ready, secs = w.expect("READY")
                samples.append(secs)
                speeds.append(w.expect("SPEED")[0])
                digests.append(ready["digest"])
                warm_failures += ready["warmup_failures"]
                if role == "run":
                    result, _ = w.expect("RESULT")
            finally:
                w.close()
            shutil.rmtree(workdir)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    metrics = dict(result["metrics"])
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}",
             f"inputs digest {digests[-1]}"]
    same_inputs = len(set(digests)) == 1
    if not same_inputs:
        lines.append(f"inputs differ between processes of one seed: {digests}")
    if args.trace == 0:
        scaled = [secs * factor for secs, factor in zip(samples, speeds)]
        metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
        lines.append("setup_s samples (unscaled s, speed factor): " + ", ".join(
            f"{secs:.4f} x {factor:.3f}" for secs, factor in zip(samples, speeds)))
    else:
        for key, value in ready["setup"].items():
            metrics["setup." + key] = {"value": value, "unit": "ms"}
    lines += result["notes"]
    lines.append("machine " + json.dumps(result["machine"], sort_keys=True))
    for name in sorted(metrics):
        lines.append(f"  {name:36s} {metrics[name]['value']:>16.6f} {metrics[name]['unit']}")
    lines.append(f"  {'ops_attempted':36s} {result['attempted']:>16d}")
    lines.append(f"  {'ops_failed':36s} {result['failed']:>16d}")
    for cause, count in result["failures"].items():
        lines.append(f"  failed x{count}: {cause}")
    summary = {"correct": result["failed"] == 0 and same_inputs and not warm_failures,
               "attempted": result["attempted"], "failed": result["failed"],
               "metrics": metrics}
    return summary, lines


def check_schema(summary, spec, trace):
    """Problems with one result against BENCHMARK.json (empty when valid)."""
    problems = []
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(summary)}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = summary["metrics"]
    if set(got) != set(want):
        problems.append(f"metrics missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != want.get(name, m["unit"]):
            problems.append(f"{name}: {m}")
        elif not math.isfinite(m["value"]):
            problems.append(f"{name}: not finite")
    if not summary["correct"] or summary["failed"] or summary["attempted"] < 1:
        problems.append(f"correct={summary['correct']} failed={summary['failed']} "
                        f"attempted={summary['attempted']}")
    return problems


def self_check() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for workload in WORKLOADS:
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            args = argparse.Namespace(workload=workload, seed=seed, seconds=0.5,
                                      trace=trace, tiny=True)
            t0 = perf_counter()
            try:
                summary, lines = measure(args)
                problems = check_schema(summary, spec, trace)
            except WorkerError as exc:
                problems = [str(exc)]
            bad += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload:12s} seed {seed} trace {trace} "
                  f"({perf_counter() - t0:.1f} s) {'; '.join(problems)}", flush=True)
    # informational: defects of the program that fit-batch's inputs avoid
    subprocess.run([sys.executable, str(BENCH / "known_defects.py")], cwd=ROOT, timeout=120)
    print(f"self-check: {'FAILED' if bad else 'passed'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    args.tiny = False
    if not (ROOT / "src" / "cavitykit" / "__init__.py").is_file():
        sys.stderr.write(f"error: no cavitykit sources under {ROOT / 'src'}; "
                         "run from the root of a cavitykit checkout\n")
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        summary, lines = measure(args)
    except WorkerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    print("\n".join(lines))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
