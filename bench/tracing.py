"""Span tracing from the benchmark's own files, around calls into each module.

A hook replaces a module attribute with a wrapper that records a span: name,
start, end, parent span and op id.  Hooking the attributes the program
calls through (``cavitykit.dynamics.expm``, ``cavitykit.fitting.
least_squares_fit``, ...) also catches the calls the program makes
internally.  Spans stay in memory and are written out when the run ends.
A hooked attribute that no longer exists is reported as absent, with the
reason, instead of failing the run.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

FIT_ENTRY_POINTS = ("fit_decay_trace", "fit_tau_detuning", "fit_spectrum")


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id, note]
        self.op = -1
        self.absent = {}       # span name -> reason
        self._stack = []
        self._patched = []

    def hook(self, owner, attr, name, note=None):
        """Wrap ``owner.attr``; ``name`` is a string or a function of
        (args, kwargs), ``note(args, kwargs, result)`` adds counters."""
        orig = getattr(owner, attr, None)
        label = name if isinstance(name, str) else attr
        if orig is None:
            self.absent[label] = f"{owner.__name__}.{attr} does not exist"
            return
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name if isinstance(name, str) else name(args, kwargs),
                   0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def write(self, path):
        """One JSON list per line: name, start_s, end_s, parent, op."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:5]) + "\n")


def _arg(args, kwargs, pos, key):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else None


def install_hooks(tracer, ck):
    """Hook the public functions each layer's metrics are built from."""
    dyn, fit, cp = ck.dynamics, ck.fitting, ck.coupling

    def evolve_note(args, kwargs, result):
        t_grid = _arg(args, kwargs, 2, "t_grid")
        return {"steps": 250 if t_grid is None else len(t_grid) - 1}

    tracer.hook(dyn, "evolve_master_equation", "dynamics.evolve", evolve_note)
    tracer.hook(dyn, "liouvillian", "dynamics.liouvillian")
    tracer.hook(dyn, "expm", "dynamics.expm")
    tracer.hook(dyn, "extract_decay_rate", "dynamics.extract")

    for fn in FIT_ENTRY_POINTS:
        tracer.hook(fit, fn, "fitting." + fn)

    def lsq_note(args, kwargs, result):
        model = _arg(args, kwargs, 0, "model")
        if isinstance(model, str):
            model = fit.get_model(model)
        return {"iterations": getattr(result, "n_iterations", 0),
                "converged": bool(getattr(result, "converged", False)),
                "fd": getattr(model, "jacobian", None) is None}

    tracer.hook(fit, "least_squares_fit", "fitting.lsq", lsq_note)

    def load_name(args, kwargs):
        with open(_arg(args, kwargs, 0, "path"), "rb") as fh:
            enc = json.loads(fh.readline()).get("encoding")
        return "coupling.load_csv" if enc == "csv" else "coupling.load_f64"

    def grid_bytes(args, kwargs, result):
        grid = _arg(args, kwargs, 0, "grid")
        return {"bytes": grid.e_field.nbytes + grid.eps_rel.nbytes}

    tracer.hook(cp, "load_field_grid", load_name,
                lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))})
    tracer.hook(cp, "mode_volume", "coupling.mode_volume", grid_bytes)
    tracer.hook(cp, "ensemble_weighting_factor", "coupling.weighting", grid_bytes)

    for fn in ("synthetic_decay_trace", "synthetic_tau_detuning",
               "synthetic_spectrum", "synthetic_field_grid"):
        tracer.hook(ck.synthetic, fn, "synthetic.gen")
    tracer.hook(ck.cli, "main", "cli.main")


class SpanStats:
    """Per span name: calls, busy seconds, self seconds, summed notes."""

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.notes = defaultdict(lambda: defaultdict(float))
        self.lsq_fd_s = 0.0
        self.direct_lsq = [0, 0.0]
        self.layer_busy = defaultdict(float)   # time in a layer, nesting counted once
        entry = {"fitting." + fn for fn in FIT_ENTRY_POINTS}
        for i, (name, t0, t1, parent, _op, note) in enumerate(spans):
            dur = t1 - t0
            self.calls[name] += 1
            self.busy[name] += dur
            self.self_s[name] += dur - child[i]
            layer = name.split(".")[0]
            if parent < 0 or spans[parent][0].split(".")[0] != layer:
                self.layer_busy[layer] += dur
            for key, val in (note or {}).items():
                self.notes[name][key] += float(val)
            if name == "fitting.lsq":
                if note and note["fd"]:
                    self.lsq_fd_s += dur
                if parent < 0 or spans[parent][0] not in entry:
                    self.direct_lsq[0] += 1
                    self.direct_lsq[1] += dur

    def table(self):
        """Per-layer and per-span lines: calls, busy and self time."""
        lines = [f"  {'span':28s} {'calls':>9s} {'busy ms':>11s} {'self ms':>11s}"]
        layers = defaultdict(lambda: [0, 0.0])
        for name in sorted(self.calls):
            lines.append(f"  {name:28s} {self.calls[name]:9d} "
                         f"{1e3 * self.busy[name]:11.3f} {1e3 * self.self_s[name]:11.3f}")
            layer = layers[name.split(".")[0]]
            layer[0] += self.calls[name]
            layer[1] += self.self_s[name]
        for name, (calls, self_s) in sorted(layers.items()):
            lines.append(f"  layer {name:22s} {calls:9d} "
                         f"{1e3 * self.layer_busy[name]:11.3f} {1e3 * self_s:11.3f}")
        return lines


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(stats: SpanStats, n_ops: int, absent: dict):
    """The per-layer metrics, per op of the traced window, plus notes for
    metrics that are absent (hook missing or layer not exercised)."""
    per_op = 1.0 / max(n_ops, 1)
    m, notes = {}, []

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    def calls(span):
        return stats.calls.get(span, 0)

    def ms(span):
        return 1e3 * stats.busy.get(span, 0.0) * per_op

    # dynamics
    put("dynamics.evolve.calls", calls("dynamics.evolve") * per_op, "calls/op")
    put("dynamics.evolve.self_ms", 1e3 * stats.self_s.get("dynamics.evolve", 0.0) * per_op, "ms/op")
    put("dynamics.liouvillian.ms", ms("dynamics.liouvillian"), "ms/op")
    put("dynamics.expm.calls", calls("dynamics.expm") * per_op, "calls/op")
    put("dynamics.expm.ms", ms("dynamics.expm"), "ms/op")
    steps = stats.notes["dynamics.evolve"].get("steps", 0.0)
    known = steps and "dynamics.expm" not in absent
    put("dynamics.propagator_reuse",
        1.0 - calls("dynamics.expm") / steps if known else 0.0, "ratio")
    put("dynamics.extract.ms", ms("dynamics.extract"), "ms/op")

    # fitting
    fits = stats.direct_lsq[0]
    for fn in FIT_ENTRY_POINTS:
        put(f"fitting.{fn}.calls", calls("fitting." + fn) * per_op, "calls/op")
        put(f"fitting.{fn}.ms", ms("fitting." + fn), "ms/op")
        fits += calls("fitting." + fn)
    put("fitting.least_squares_fit.calls", stats.direct_lsq[0] * per_op, "calls/op")
    put("fitting.least_squares_fit.ms", 1e3 * stats.direct_lsq[1] * per_op, "ms/op")
    lsq = calls("fitting.lsq")
    iters = stats.notes["fitting.lsq"].get("iterations", 0.0)
    put("fitting.lsq.calls", lsq * per_op, "calls/op")
    put("fitting.lsq.ms", ms("fitting.lsq"), "ms/op")
    put("fitting.lsq_per_fit", _ratio(lsq, fits), "ratio")
    put("fitting.iterations", iters * per_op, "iters/op")
    put("fitting.iterations_per_lsq", _ratio(iters, lsq), "ratio")
    put("fitting.converged_frac", _ratio(stats.notes["fitting.lsq"].get("converged", 0.0), lsq),
        "ratio")
    put("fitting.fd_jacobian_share", _ratio(stats.lsq_fd_s, stats.busy.get("fitting.lsq", 0.0)),
        "ratio")

    # coupling; bytes are computed from array sizes, not measured traffic
    for enc in ("f64", "csv"):
        span = "coupling.load_" + enc
        put(span + ".ms", ms(span), "ms/op")
        put(span + ".mb_per_s", _ratio(1e-6 * stats.notes[span].get("bytes", 0.0),
                                       stats.busy.get(span, 0.0)), "MB/s")
    put("coupling.mode_volume.ms", ms("coupling.mode_volume"), "ms/op")
    put("coupling.weighting.calls", calls("coupling.weighting") * per_op, "calls/op")
    put("coupling.weighting.ms", ms("coupling.weighting"), "ms/op")
    computed = sum(stats.notes[s].get("bytes", 0.0)
                   for s in ("coupling.mode_volume", "coupling.weighting"))
    busy = sum(stats.busy.get(s, 0.0) for s in ("coupling.mode_volume", "coupling.weighting"))
    put("coupling.bytes_computed", 1e-6 * computed * per_op, "MB/op")
    put("coupling.gb_per_s_computed", _ratio(1e-9 * computed, busy), "GB/s")

    put("synthetic.gen_ms", ms("synthetic.gen"), "ms/op")

    for name, reason in absent.items():
        notes.append(f"absent: {name}: {reason}")
    for prefix in ("dynamics.", "fitting.", "coupling.", "synthetic."):
        if not any(k.startswith(prefix) for k in stats.calls):
            notes.append(f"absent: {prefix[:-1]}.*: layer not exercised by this "
                         "workload (reported as 0)")
    return m, notes
