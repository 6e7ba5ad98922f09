"""One benchmark process: set up a workload, then (role "run") measure it.

    python3 bench/worker.py --role setup|run --workload NAME --seed N --dir DIR
                            [--seconds S] [--trace 0|1] [--tiny]

``run.py`` starts this in a fresh interpreter and times it from spawn to
the ``READY`` line, which is printed just before the first timed op
(import, input generation and warm-up done).  A "setup" worker exits
there; a "run" worker goes on and prints one ``RESULT`` line.

Trace 0 measures the end-to-end metrics.  Trace 1 runs whole cycles
untraced for half the time, then the same number of cycles with the trace
hooks installed, and reports the per-layer metrics and the difference as
tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

T_START = perf_counter()
ROOT = Path(__file__).resolve().parents[1]

# One CPU for the worker and its children, chosen before numpy starts its
# BLAS threads.  Unpinned, the scheduler moves the worker between CPUs whose
# speeds differed by up to 1.6x on the reference machine, and run-to-run
# spread doubled; the highest-numbered CPU is the one least likely to
# carry the machine's interrupt and housekeeping load.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import numpy as np  # noqa: E402

from tracing import SpanStats, Tracer, install_hooks, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CliSession, Digest  # noqa: E402

PROBE_RUNS = 5   # fresh interpreters per cli cold-start probe
MAIN_REPS = 3    # in-process cli.main repetitions per argv

# The speed reference: a fixed piece of work that no change to the program
# touches, timed in short chunks between blocks of ops.  On the reference
# machine the speed flipped between two states 1.5x apart every 0.1-0.5 s,
# and drifted by more over minutes: medians of stretches of one process
# minutes apart spread (IQR over median) by 6-47%, and by 5-7% once divided
# by the reference timed next to them (sweep, fit-batch, cli-session).  An
# interpreter loop plus small numpy calls tracked those workloads better
# than either part alone.  Reported times are scaled to the speed at which one
# chunk takes REF_NOMINAL_S.
REF_NOMINAL_S = 0.004
REF_SHARE = 0.1      # reference time per second of ops
REF_WINDOW_S = 1.0   # chunks within half this of a block set its speed factor
BLOCK_S = 0.05       # op time between two references (a longer op is a block alone)
SETUP_REF_S = 0.3    # reference time after a set-up
REPEAT_MIN_OPS = 200   # cycle length from which percentiles use each op's median
_REF_X, _REF_A, _REF_B = np.linspace(0.0, 1.0, 200), np.eye(3) + 0.1, np.ones(3)


def speed_reference() -> float:
    """Seconds one chunk of the reference work takes now."""
    t0 = perf_counter()
    acc = 0
    for i in range(25_000):
        acc += i * i % 7
    for _ in range(175):
        y = np.exp(-3.0 * _REF_X)
        acc += y @ y + np.linalg.solve(_REF_A, _REF_B)[0]
    return perf_counter() - t0


class Loop:
    """Latencies (s) and failure causes of the ops of whole cycles, the
    blocks they ran in and the reference chunks timed between blocks."""

    def __init__(self):
        self.lat, self.failures, self.cycles = [], [], 0
        self.blocks = []   # (first op, end op, start time, end time)
        self.refs = []     # (mid time, seconds) of each reference chunk

    @property
    def busy(self):
        return sum(self.lat)

    def reference(self, seconds):
        """Reference chunks for about ``seconds``, at least one."""
        end = perf_counter() + seconds
        while True:
            t0 = perf_counter()
            took = speed_reference()
            self.refs.append((t0 + took / 2, took))
            if perf_counter() >= end:
                return

    @property
    def speed(self):
        """Each op's speed factor: REF_NOMINAL_S over the mean chunk time
        within REF_WINDOW_S around its block."""
        mid = np.array([r[0] for r in self.refs])
        took = np.array([r[1] for r in self.refs])
        out = np.empty(len(self.lat))
        for i, j, t0, t1 in self.blocks:
            lo, hi = np.searchsorted(mid, [t0 - REF_WINDOW_S / 2, t1 + REF_WINDOW_S / 2])
            out[i:j] = REF_NOMINAL_S / took[lo:hi].mean()
        return out


def run_ops(ops, loop, tracer=None):
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # the op failed; keep its cause and go on
            loop.lat.append(perf_counter() - t0)
            cause = f"raised {type(exc).__name__}: {exc}"
        else:
            loop.lat.append(perf_counter() - t0)
            try:
                cause = op.check(out)
            except Exception as exc:  # a check that cannot read the output fails the op
                cause = f"check raised {type(exc).__name__}: {exc}"
        if cause:
            loop.failures.append(f"{op.kind}: {cause}")


def run_cycles(cycle, seconds=None, n_cycles=None, tracer=None) -> Loop:
    """Whole cycles until ``seconds`` have passed, or exactly ``n_cycles``,
    with reference chunks between blocks of ops."""
    loop, t0 = Loop(), perf_counter()
    loop.reference(REF_SHARE * BLOCK_S)
    while True:
        start, t_block = len(loop.lat), perf_counter()
        for k, op in enumerate(cycle):
            run_ops([op], loop, tracer)
            if perf_counter() - t_block >= BLOCK_S or k == len(cycle) - 1:
                t_end = perf_counter()
                loop.blocks.append((start, len(loop.lat), t_block, t_end))
                loop.reference(REF_SHARE * (t_end - t_block))
                start, t_block = len(loop.lat), perf_counter()
        loop.cycles += 1
        if n_cycles is not None:
            if loop.cycles >= n_cycles:
                return loop
        elif perf_counter() - t0 >= seconds:
            return loop


def tail(lat_ms):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(lat_ms)
    q = math.floor(100 * (n - 10) / n) if n >= 20 else 50
    value = float(np.percentile(lat_ms, q))
    beyond = sum(1 for v in lat_ms if v > value)
    note = f"op_ms_tail is p{q} of {n} ops, {beyond} beyond it"
    if n < 20:
        note += " (fewer than 20 ops: no percentile has ten beyond, p50 shown)"
    return value, note


def blas_threads():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return getattr(lib, fn)()
    return "unknown"


def machine_facts():
    import scipy
    src = sorted((ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(), "pinned_cpu": max(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas_threads": blas_threads(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
    }


def end_to_end(loop, peak_rss_kib):
    """End-to-end metrics over every op of the run, each op's time scaled
    by its speed factor; the unscaled figures are printed beside them.

    A cycle of at least REPEAT_MIN_OPS distinct ops (fit-batch's datasets)
    has enough ops for a tail of its own, and its percentiles are taken over
    each op's median across the run's cycles: its top percent is then the
    program's slowest ops, where over single runs of an op it was mostly
    the ones a short stall of the machine happened to hit."""
    raw = 1e3 * np.array(loop.lat)
    factor = loop.speed
    scaled = raw * factor
    completed = len(loop.lat) - len(loop.failures)
    per_op = scaled
    if len(scaled) // loop.cycles >= REPEAT_MIN_OPS and loop.cycles >= 3:
        per_op = np.median(scaled.reshape(loop.cycles, -1), axis=0)
    tail_ms, note = tail(per_op)
    if per_op is not scaled:
        note += f" (each op's median over {loop.cycles} cycles)"
    notes = [note, f"cycles: {loop.cycles}; speed factor median {np.median(factor):.3f}, "
                   f"range {factor.min():.3f}-{factor.max():.3f}; unscaled: op_ms_p50 "
                   f"{np.median(raw):.4f}, ops_per_s {1e3 * completed / raw.sum():.4f}"]
    return {
        "ops_per_s": {"value": 1e3 * completed / scaled.sum(), "unit": "1/s"},
        "op_ms_p50": {"value": float(np.median(per_op)), "unit": "ms"},
        "op_ms_tail": {"value": tail_ms, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_kib * 1024 / 1e6, "unit": "MB"},
    }, notes


def _fresh_ms(code, env):
    times = []
    for _ in range(PROBE_RUNS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        times.append(1e3 * (perf_counter() - t0))
    return statistics.median(times)


def cli_layer(wl: CliSession, loop: Loop, tracer: Tracer, ck):
    """cli.* metrics plus an in-process traced pass over the session's argv.

    Returns (metrics, traced seconds, untraced seconds, traced calls)."""
    interp = _fresh_ms("pass", wl.env)
    imp = _fresh_ms("import cavitykit", wl.env) - interp
    argvs = [argv for _, argv, _ in wl.commands]

    def in_process_pass():
        times = {}
        for i, argv in enumerate(argvs):
            times[i] = []
            for _ in range(MAIN_REPS):
                t0 = perf_counter()
                wl.in_process(argv)
                times[i].append(perf_counter() - t0)
        return times

    plain = in_process_pass()
    install_hooks(tracer, ck)
    try:
        traced = in_process_pass()
    finally:
        tracer.uninstall()
    main_ms = {i: 1e3 * statistics.median(t) for i, t in plain.items()}
    n = len(argvs)
    cold = [1e3 * t - main_ms[k % n] for k, t in enumerate(loop.lat)]
    metrics = {
        "cli.interpreter_ms": {"value": interp, "unit": "ms"},
        "cli.import_ms": {"value": imp, "unit": "ms"},
        "cli.main_ms": {"value": statistics.median(main_ms.values()), "unit": "ms"},
        "cli.cold_overhead_ms": {"value": statistics.median(cold), "unit": "ms"},
    }
    return (metrics, sum(map(sum, traced.values())), sum(map(sum, plain.values())),
            n * MAIN_REPS)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "run"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import cavitykit
    import cavitykit.cli  # noqa: F401  (not imported by the package itself)
    import cavitykit.synthetic  # noqa: F401
    t_import = perf_counter()
    wl = WORKLOADS[args.workload](cavitykit, args.seed, args.dir, args.tiny)
    digest = Digest()
    wl.setup(digest)
    t_inputs = perf_counter()
    warm = Loop()
    run_ops(wl.warmup(), warm)
    t_ready = perf_counter()
    print("READY " + json.dumps({
        "digest": digest.hexdigest(), "warmup_failures": warm.failures,
        "setup": {"import_ms": 1e3 * (t_import - t0), "inputs_ms": 1e3 * (t_inputs - t_import),
                  "warmup_ms": 1e3 * (t_ready - t_inputs),
                  "numpy_ms": 1e3 * (t0 - T_START)}}), flush=True)
    ref = Loop()
    ref.reference(SETUP_REF_S)
    print("SPEED " + json.dumps(REF_NOMINAL_S / statistics.mean(t for _, t in ref.refs)),
          flush=True)
    if args.role == "setup":
        return 0

    cycle = wl.cycle()
    notes = [f"cycle: {len(cycle)} ops ({', '.join(sorted(set(op.kind for op in cycle)))})"]
    notes += wl.describe() if hasattr(wl, "describe") else []
    if args.trace == 0:
        loop = run_cycles(cycle, seconds=args.seconds)
        who = resource.RUSAGE_CHILDREN if isinstance(wl, CliSession) else resource.RUSAGE_SELF
        metrics, more = end_to_end(loop, resource.getrusage(who).ru_maxrss)
        notes += more
        attempted, failures = len(loop.lat), loop.failures
    else:
        tracer = Tracer()
        untraced = run_cycles(cycle, seconds=args.seconds / 2)
        if isinstance(wl, CliSession):
            cli_metrics, t_traced, t_plain, n_traced = cli_layer(wl, untraced, tracer, cavitykit)
            attempted, failures = len(untraced.lat), untraced.failures
        else:
            install_hooks(tracer, cavitykit)
            try:
                traced = run_cycles(cycle, n_cycles=untraced.cycles, tracer=tracer)
            finally:
                tracer.uninstall()
            t_traced, t_plain, n_traced = traced.busy, untraced.busy, len(traced.lat)
            cli_metrics = {k: {"value": 0.0, "unit": "ms"} for k in (
                "cli.interpreter_ms", "cli.import_ms", "cli.main_ms", "cli.cold_overhead_ms")}
            notes.append("absent: cli.*: measured on cli-session only (reported as 0)")
            attempted = len(untraced.lat) + len(traced.lat)
            failures = untraced.failures + traced.failures
        stats = SpanStats(tracer.spans)
        metrics, more = layer_metrics(stats, n_traced, tracer.absent)
        metrics.update(cli_metrics)
        metrics["trace.overhead_ms"] = {"value": 1e3 * (t_traced - t_plain) / n_traced,
                                        "unit": "ms/op"}
        metrics["trace.spans"] = {"value": len(tracer.spans) / n_traced, "unit": "spans/op"}
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(out))
        notes += more + [f"traced {n_traced} ops; {len(tracer.spans)} spans written to "
                         f"{out.relative_to(ROOT)}"] + stats.table()

    print("RESULT " + json.dumps({
        "attempted": attempted + len(warm.lat), "failed": len(failures) + len(warm.failures),
        "failures": Counter(warm.failures + failures), "metrics": metrics, "notes": notes,
        "machine": machine_facts()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
