"""The four benchmark workloads: seeded inputs, one cycle of ops, output checks.

Every input is generated here from the seed with numpy, never through
``cavitykit.synthetic``, so a parent commit and a change run identical data;
the digest printed at set-up shows it.  Files (decay-trace CSV, tables,
``.fgrid`` field maps, chain JSON) are written from their documented formats.

A workload builds one *cycle*: a fixed list of ops in fixed shares.  The
timed loop runs whole cycles, so every run measures the same mix whatever
the number of cycles that fit in ``--seconds``.

Calls go through the submodule attributes (``cavitykit.dynamics.X``, not the
package-level ``cavitykit.X``) so that the trace hooks in ``tracing.py``
see them.  Only the public API that the roadmap keeps is used: no
``method=``, ``return_states``, ``DensityState``, ``cavitykit.ode``,
quantity types or ``LinkChain.__add__``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from typing import Callable, NamedTuple

import numpy as np

# CODATA 2018, for the hand-computed g0 oracle
HBAR = 1.054571817e-34
EPS0 = 8.8541878128e-12
C0 = 299792458.0

#: Last-level cache of the machine the baseline was recorded on (BASELINE.md).
REFERENCE_LLC_MIB = 105

#: Paper point: g0/2pi and kappa/2pi in Hz, tau1 in s (kappa/gamma1 ~ 1e5).
PAPER_POINT = (0.57e9, 940e9, 15.9e-9)
DETUNING_STEPS = (-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0)  # x kappa


class Op(NamedTuple):
    kind: str
    run: Callable[[], object]              # timed
    check: Callable[[object], str | None]  # untimed; returns a failure cause


class Digest:
    """blake2b over every generated input, in generation order."""

    def __init__(self):
        self._h = hashlib.blake2b(digest_size=16)

    def add(self, data):
        if isinstance(data, np.ndarray):
            data = np.ascontiguousarray(data).tobytes()
        elif isinstance(data, str):
            data = data.encode()
        self._h.update(data)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _write(path: str, text: str, digest: Digest):
    digest.add(text)
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# sweep: detuning sweeps through dynamics, then a tau(Delta) fit
# ---------------------------------------------------------------------------

class Sweep:
    """One op is one detuning sweep: evolve + extract at each of nine
    detunings on 251-point grids, then ``fit_tau_detuning``.

    Shares per 20-op cycle: 14 uniform grids at n_max=1, 3 log-spaced grids
    (every step needs a new propagator), 3 uniform grids at n_max=2 (the
    path the roadmap keeps on expm).
    """

    MIX = {"uniform": 14, "log": 3, "nmax2": 3}
    TINY_MIX = {"uniform": 2, "log": 1, "nmax2": 1}
    RATE_TOL = 0.02     # extracted vs adiabatic-elimination rate
    FIT_TOL = 0.02      # fitted C and kappa vs truth
    NMAX_TOL = 1e-8     # n_max=2 vs n_max=1 populations (default rel_tol)

    def __init__(self, ck, seed, workdir, tiny):
        self.dyn, self.fit = ck.dynamics, ck.fitting
        self.seed, self.tiny = seed, tiny
        self.specs = []

    def setup(self, digest: Digest):
        rng = np.random.default_rng([self.seed, 1])
        mix = self.TINY_MIX if self.tiny else self.MIX
        kinds = rng.permutation([k for k, n in mix.items() for _ in range(n)])
        steps = np.array(DETUNING_STEPS)
        for i, kind in enumerate(kinds):
            if i == 0:
                g0, kappa, tau1 = PAPER_POINT
            else:
                g0 = PAPER_POINT[0] * rng.uniform(0.8, 1.25)
                kappa = PAPER_POINT[1] * rng.uniform(0.8, 1.25)
                tau1 = PAPER_POINT[2] * rng.uniform(0.85, 1.15)
            if kind == "log":
                t_grid = np.concatenate(
                    ([0.0], np.geomspace(1e-3 * tau1, 5.0 * tau1, 250)))
            else:
                t_grid = np.linspace(0.0, 5.0 * tau1, 251)
            deltas = kappa * steps
            digest.add(np.array([g0, kappa, tau1]))
            digest.add(kind)
            digest.add(t_grid)
            # adiabatic-elimination oracle, angular rates throughout
            g, k, d = 2 * np.pi * g0, 2 * np.pi * kappa, 2 * np.pi * deltas
            spec = {
                "kind": str(kind), "t_grid": t_grid, "deltas": deltas,
                "n_max": 2 if kind == "nmax2" else 1,
                "params": [self.dyn.AtomCavityParams(
                    g0_hz=g0, kappa_hz=kappa, gamma1=1.0 / tau1,
                    delta_hz=float(dd)) for dd in deltas],
                "rate_truth": 1.0 / tau1 + g * g * k / ((0.5 * k) ** 2 + d ** 2),
                "c_truth": 4.0 * g * g * tau1 / k, "kappa_truth": kappa,
            }
            if spec["n_max"] == 2:
                spec["n1_values"] = [
                    self.dyn.evolve_master_equation(p, n_max=1, t_grid=t_grid).values
                    for p in spec["params"]]
            self.specs.append(spec)

    def _run(self, spec):
        rates, values = [], []
        for p in spec["params"]:
            trace = self.dyn.evolve_master_equation(
                p, n_max=spec["n_max"], t_grid=spec["t_grid"])
            rates.append(self.dyn.extract_decay_rate(trace).rate)
            values.append(trace.values)
        rates = np.array(rates)
        fit = self.fit.fit_tau_detuning(np.column_stack([spec["deltas"], 1.0 / rates]))
        return rates, values, fit

    def _check(self, spec, out):
        rates, values, fit = out
        dev = np.abs(rates / spec["rate_truth"] - 1.0)
        if not np.all(dev <= self.RATE_TOL):
            k = int(np.argmax(dev))
            return (f"rate off the adiabatic rate by {dev[k]:.3%} at "
                    f"delta={spec['deltas'][k]:.4g} Hz")
        if spec["n_max"] == 2:
            worst = max(float(np.max(np.abs(v - r)))
                        for v, r in zip(values, spec["n1_values"]))
            if worst > self.NMAX_TOL:
                return f"n_max=2 differs from n_max=1 by {worst:.3e}"
        if not fit.converged:
            return "tau(Delta) fit did not converge"
        for name, truth in (("c", spec["c_truth"]), ("kappa", spec["kappa_truth"])):
            if _rel(fit.params[name], truth) > self.FIT_TOL:
                return f"fitted {name}={fit.params[name]:.6g}, truth {truth:.6g}"
        return None

    def cycle(self):
        return [Op(s["kind"], lambda s=s: self._run(s),
                   lambda out, s=s: self._check(s, out)) for s in self.specs]

    def warmup(self):
        return _first_of_each_kind(self.cycle())


def _first_of_each_kind(ops):
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())


# ---------------------------------------------------------------------------
# fit-batch: one public fit call per op, on seeded noisy datasets
# ---------------------------------------------------------------------------

def fisher_se(fn, x, truth: dict, var) -> dict:
    """Standard errors an efficient fit reaches on data with variance var:
    sqrt(diag(F^-1)), F = J^T diag(1/var) J, J of fn at the truth by central
    differences.  fn is the benchmark's own model, not the program's."""
    names = list(truth)
    cols = []
    for name in names:
        h = 1e-6 * (abs(truth[name]) or 1.0)
        hi, lo = dict(truth), dict(truth)
        hi[name] += h
        lo[name] -= h
        cols.append((fn(x, hi) - fn(x, lo)) / (2.0 * h))
    jw = np.column_stack(cols) / np.sqrt(var)[:, None]
    cov = np.linalg.inv(jw.T @ jw)
    return dict(zip(names, np.sqrt(np.diag(cov))))


def _decay_fn(t, p):
    return p["amplitude"] * np.exp(-t / p["tau"]) + p.get("background", 0.0)


def _tau_fn(delta, p):
    return p["tau1"] / (1.0 + p["c"] / (1.0 + 4.0 * (delta / p["kappa"]) ** 2))


def _spectrum_fn(x, p):
    return (p["a_cav"] / (1.0 + ((x - p["x_cav"]) / p["w_cav"]) ** 2)
            + p["a_zpl"] * np.exp(-0.5 * ((x - p["x_zpl"]) / p["sigma_zpl"]) ** 2)
            + p["base_offset"] + p["base_slope"] * x)


def _tanh_fn(x, p):
    return p["t0"] * 0.5 * (1.0 - np.tanh((np.abs(x) - p["x0"]) / p["s"]))


def _saturation_fn(x, p):
    return p["t_inf"] * (1.0 - np.exp(-x / p["l0"]))


def _asym_lorentzian_fn(x, p):
    w = np.where(x < p["center"], p["w_left"], p["w_right"])
    return p["amplitude"] / (1.0 + ((x - p["center"]) / w) ** 2)


class FitBatch:
    """One op is one public fit call on one seeded noisy dataset.

    Analytic-Jacobian kinds (exponential, tau-detuning) sit beside
    finite-difference kinds (spectrum, transmission models), so a Jacobian
    or LM change exercises one half and bypasses the other.  A fit passes
    when it converged, reports finite standard errors, and every parameter
    lies within SE_MULT standard errors of the truth.  Those standard errors
    are the oracle's (``fisher_se`` at the truth, with the noise model the
    data were drawn from), not the ones the fit reports.
    """

    # 800 datasets per cycle: spectrum fits now and then take hundreds of
    # iterations, and only a large pool makes their share of the time (and
    # the tail) a property of the seeded distribution rather than of one seed
    MIX = {"decay": 160, "decay-bg": 120, "tau-detuning": 160, "spectrum-separated": 80,
           "spectrum-overlapping": 80, "tanh-transmission": 80,
           "exponential-saturation": 60, "asymmetric-lorentzian": 60}
    SE_MULT = 5.0
    BIN_S = 1.28e-9
    WINDOW_TAU = {"decay": 5.0, "decay-bg": 8.0}

    def __init__(self, ck, seed, workdir, tiny):
        self.dyn, self.fit = ck.dynamics, ck.fitting
        self.seed, self.tiny = seed, tiny
        self.datasets = []

    def setup(self, digest: Digest):
        rng = np.random.default_rng([self.seed, 2])
        for kind, n in self.MIX.items():
            for _ in range(1 if self.tiny else n):
                make = getattr(self, "_make_" + kind.split("-")[0])
                call, truth, fn, x, var, arrays = make(rng, kind)
                for a in arrays:
                    digest.add(a)
                self.datasets.append((kind, call, truth, fisher_se(fn, x, truth, var)))

    def _make_decay(self, rng, kind):
        bg = kind == "decay-bg"
        # the program weights Poisson counts by 1/max(y, 1), which biases fits
        # where bins hold few counts (a background of 20-80 comes out ~1 count
        # low, and fits land beyond SE_MULT on every few seeds; see
        # known_defects.py).  So the window ends at WINDOW_TAU lifetimes, and
        # traces with background carry ten times the counts
        counts_scale = 10.0 if bg else 1.0
        truth = {"amplitude": counts_scale * rng.uniform(5e3, 2e4),
                 "tau": rng.uniform(5e-9, 15e-9)}
        if bg:
            truth["background"] = counts_scale * rng.uniform(20.0, 80.0)
        n_bins = int(round(self.WINDOW_TAU[kind] * truth["tau"] / self.BIN_S))
        t = np.arange(n_bins) * self.BIN_S
        mean = _decay_fn(t, truth)
        counts = rng.poisson(mean).astype(float)
        trace = self.dyn.DecayTrace(times=t, values=counts, kind="measured",
                                    bin_width_s=self.BIN_S)
        return (lambda: self.fit.fit_decay_trace(trace, with_background=bg),
                truth, _decay_fn, t, mean, [t, counts])

    def _make_tau(self, rng, kind):
        # C from 0.2: on shallower dips a noisy far point can mislead the
        # program's kappa guess and the fit then raises (see known_defects.py)
        truth = {"c": rng.uniform(0.2, 0.6),
                 "kappa": PAPER_POINT[1] * rng.uniform(0.8, 1.25),
                 "tau1": PAPER_POINT[2] * rng.uniform(0.85, 1.15)}
        delta = truth["kappa"] * np.linspace(-3.0, 3.0, 25)
        tau = _tau_fn(delta, truth)
        sigma = 0.01 * tau
        pts = np.column_stack([delta, tau + rng.normal(0.0, sigma), sigma])
        return (lambda: self.fit.fit_tau_detuning(pts),
                truth, _tau_fn, delta, sigma ** 2, [pts])

    def _make_spectrum(self, rng, kind):
        x = np.linspace(630.0, 645.0, 240)
        a_c, x_c, w_c = rng.uniform(80, 160), 638.2 + rng.uniform(-0.3, 0.3), rng.uniform(0.5, 0.8)
        # overlapping: centers 0.5-0.8 nm apart, inside one cavity FWHM.  Closer
        # peaks (below ~0.45 nm) now and then send the swapped-assignment fit
        # to ~450 iterations (~190 ms), a rare event that would make the
        # workload's throughput depend on the seed more than on the program
        sep = rng.uniform(1.0, 1.4) if kind == "spectrum-separated" else rng.uniform(0.5, 0.8)
        # a ZPL at least 1.25x the cavity peak: overlapping peaks of about equal
        # height make the program's guess merge them, and then both of its
        # starting points now and then end with one peak vanished (see
        # known_defects.py)
        a_z, x_z, s_z = rng.uniform(200, 300), x_c - sep, rng.uniform(0.1, 0.15)
        b0, b1 = rng.uniform(30.0, 50.0), rng.uniform(-0.06, -0.04)
        truth = {"a_cav": a_c, "x_cav": x_c, "w_cav": w_c, "a_zpl": a_z,
                 "x_zpl": x_z, "sigma_zpl": s_z, "base_offset": b0, "base_slope": b1}
        spec = np.column_stack([x, _spectrum_fn(x, truth) + rng.normal(0.0, 2.0, x.size)])
        return (lambda: self.fit.fit_spectrum(spec),
                truth, _spectrum_fn, x, np.full(x.size, 4.0), [spec])

    def _transmission(self, rng, kind, fn, x, truth):
        sigma = np.full(x.size, 0.01)
        y = fn(x, truth) + rng.normal(0.0, sigma)
        return (lambda: self.fit.least_squares_fit(kind, x, y, sigma=sigma),
                truth, fn, x, sigma ** 2, [x, y])

    def _make_tanh(self, rng, kind):
        x = np.linspace(-3.0, 3.0, 121)
        truth = {"t0": rng.uniform(0.6, 0.95), "x0": rng.uniform(0.8, 1.6),
                 "s": rng.uniform(0.15, 0.35)}
        return self._transmission(rng, kind, _tanh_fn, x, truth)

    def _make_exponential(self, rng, kind):
        x = np.linspace(0.0, 10.0, 81)
        truth = {"t_inf": rng.uniform(0.6, 0.95), "l0": rng.uniform(1.0, 3.0)}
        return self._transmission(rng, kind, _saturation_fn, x, truth)

    def _make_asymmetric(self, rng, kind):
        # an even point count keeps x = 0 off the grid: a guessed center of
        # exactly 0 makes the program's finite-difference step ~1e-307 and
        # the fit raise DegenerateFitError (see known_defects.py)
        x = np.linspace(-5.0, 5.0, 150)
        truth = {"amplitude": rng.uniform(0.8, 1.2), "center": rng.uniform(-0.5, 0.5),
                 "w_left": rng.uniform(0.3, 0.8), "w_right": rng.uniform(0.8, 1.5)}
        return self._transmission(rng, kind, _asym_lorentzian_fn, x, truth)

    def _check(self, truth, se, res):
        if not res.converged:
            return f"{res.model}: not converged after {res.n_iterations} iterations"
        for name, value in truth.items():
            if not math.isfinite(res.standard_errors[name]):
                return f"{res.model}: {name} reported unconstrained"
            if abs(res.params[name] - value) > self.SE_MULT * se[name]:
                return (f"{res.model}: {name}={res.params[name]:.6g} is more than "
                        f"{self.SE_MULT:g} SE ({se[name]:.3g}) from truth {value:.6g}")
        return None

    def cycle(self):
        return [Op(kind, call, lambda res, t=truth, se=se: self._check(t, se, res))
                for kind, call, truth, se in self.datasets]

    def warmup(self):
        return _first_of_each_kind(self.cycle())


# ---------------------------------------------------------------------------
# field-map: load a field grid, mode volume, ensemble weighting, g0 chain
# ---------------------------------------------------------------------------

def fgrid_header(dims, spacing, origin, encoding) -> str:
    """The documented .fgrid header line (JSON, sorted keys)."""
    return json.dumps({
        "schema_version": 1, "dims": list(dims), "spacing_m": list(spacing),
        "origin_m": list(origin), "encoding": encoding,
        "columns": ["ex", "ey", "ez", "eps_rel"],
        "units": {"e": "arbitrary", "eps_rel": "dimensionless", "length": "m"},
    }, sort_keys=True) + "\n"


def fgrid_body(rows, encoding) -> bytes:
    """(ex, ey, ez, eps_rel) rows in C order, as little-endian f64 or CSV."""
    if encoding == "f64":
        return rows.astype("<f8").tobytes()
    return "".join(",".join(repr(float(v)) for v in r) + "\n"
                   for r in rows.reshape(-1, 4)).encode()


class FieldProfile:
    """Seeded apodized standing-wave mode in a dielectric slab, with its
    maximum on the sample at the origin (odd point counts).  ``uniform``
    gives E = (0, 1, 0) everywhere, the hand case F = 1/sqrt(3)."""

    def __init__(self, rng, dims, uniform=False):
        self.dims = tuple(dims)
        self.uniform = uniform
        if uniform:
            extent = (4e-7, 4e-7, 4e-7)
            self.eps_slab = 1.0
        else:
            extent = tuple(e * rng.uniform(0.95, 1.05) for e in (1.2e-6, 3.6e-7, 2.4e-7))
            self.period = 4.4e-7 * rng.uniform(0.95, 1.05)
            self.env = tuple(e * rng.uniform(0.9, 1.1) for e in (3.0e-7, 8.0e-8, 6.0e-8))
            self.amp_x, self.amp_z = rng.uniform(0.15, 0.25), rng.uniform(0.05, 0.15)
            self.eps_slab = rng.uniform(5.5, 5.9)
        self.spacing = tuple(extent[i] / (self.dims[i] - 1) for i in range(3))
        self.origin = tuple(-0.5 * extent[i] for i in range(3))

    def axes(self):
        return [self.origin[i] + self.spacing[i] * np.arange(self.dims[i]) for i in range(3)]

    def slab(self, i0, i1):
        """(ex, ey, ez, eps) rows for x indices [i0, i1), shape (k, ny, nz, 4)."""
        ax = self.axes()
        xg, yg, zg = np.meshgrid(ax[0][i0:i1], ax[1], ax[2], indexing="ij")
        out = np.empty(xg.shape + (4,))
        if self.uniform:
            out[..., :] = (0.0, 1.0, 0.0, self.eps_slab)
            return out
        sx, sy, sz = self.env
        env = np.exp(-0.5 * ((xg / sx) ** 2 + (yg / sy) ** 2 + (zg / sz) ** 2))
        phase = 2.0 * np.pi * xg / self.period
        out[..., 1] = np.cos(phase) * env
        out[..., 0] = self.amp_x * np.sin(phase) * (yg / sy) * env
        out[..., 2] = self.amp_z * np.sin(phase) * (zg / sz) * env
        inside = (np.abs(yg) <= 1.5e-7) & (np.abs(zg) <= 1.0e-7)
        out[..., 3] = np.where(inside, self.eps_slab, 1.0)
        return out


class FieldMap:
    """One op is one field-map analysis: ``load_field_grid``, mode volume
    and normalized mode volume, ``ensemble_weighting_factor`` over a
    threshold list, then ``ideal_coupling`` and ``effective_g0``.

    Grids: 161x81x65 f64 (27 MB, inside the 105 MiB LLC of the reference
    machine), 301x151x121 f64 (176 MB, above it), a small CSV-encoded grid
    and a uniform-field hand case.  Ops mix load-once-analyse-once with a
    threshold sweep on one loaded grid, so reuse across calls shows.
    """

    GRIDS = {"mid": ((161, 81, 65), "f64"), "big": ((301, 151, 121), "f64"),
             "small": ((41, 21, 17), "csv"), "uniform": ((9, 9, 9), "f64")}
    TINY_GRIDS = {"mid": ((21, 11, 9), "f64"), "big": ((31, 15, 13), "f64"),
                  "small": ((11, 7, 5), "csv"), "uniform": ((5, 5, 5), "f64")}
    SWEEP = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    # (op kind, grid, thresholds) in cycle order.  Runs hold three or four
    # whole cycles, and the tail percentile (ten ops beyond it) must land
    # inside one class of ops whatever that count: the 4 mid-sweeps a cycle
    # make 12-16 ops above all but the big grid's, so the tail sits among
    # them, and the median sits among the mid-single ops (36-64% of a cycle)
    CYCLE = ([("small-csv", "small", (0.0, 0.3, 0.6)), ("mid-single", "mid", (0.3,)),
              ("mid-sweep", "mid", SWEEP)] * 4
             + [("uniform", "uniform", (0.0, 0.5, 0.9)), ("big-single", "big", (0.3,))])
    REGION = ((-400e-9, 400e-9), (-150e-9, 150e-9), (-100e-9, 100e-9))
    SLAB_BYTES = 16 << 20
    # emitter for the g0 chain: NV-like ZPL at 637 nm
    TAU1_S, LAMBDA_M, ETA_DW = 15.9e-9, 637e-9, 0.025
    REL_TOL = 1e-9

    def __init__(self, ck, seed, workdir, tiny):
        self.cp = ck.coupling
        self.seed, self.tiny = seed, tiny
        self.workdir = workdir
        self.grids = {}

    def setup(self, digest: Digest):
        rng = np.random.default_rng([self.seed, 3])
        thresholds = {}
        for _, grid, ths in self.CYCLE:
            thresholds.setdefault(grid, set()).update(ths)
        for name, (dims, encoding) in (self.TINY_GRIDS if self.tiny else self.GRIDS).items():
            prof = FieldProfile(rng, dims, uniform=name == "uniform")
            path = os.path.join(self.workdir, f"{name}.fgrid")
            oracle = self._write_grid(prof, path, encoding, sorted(thresholds[name]), digest)
            self.grids[name] = {"path": path, "eps": prof.eps_slab, "oracle": oracle,
                                "bytes": os.path.getsize(path), "dims": dims}

    def _write_grid(self, prof, path, encoding, thresholds, digest):
        """Write the grid slab by slab and compute the oracle on the way:
        V by a plain midpoint sum, F over the default region per threshold."""
        nx, ny, nz = prof.dims
        step = max(1, self.SLAB_BYTES // (ny * nz * 32))
        ax = prof.axes()
        sel = [(a >= lo) & (a <= hi) for a, (lo, hi) in zip(ax, self.REGION)]
        w_sum, w_max, reg_e2, reg_w = 0.0, -1.0, [], []
        header = fgrid_header(prof.dims, prof.spacing, prof.origin, encoding)
        digest.add(header)
        with open(path, "wb") as fh:
            fh.write(header.encode())
            for i0 in range(0, nx, step):
                rows = prof.slab(i0, min(nx, i0 + step))
                data = fgrid_body(rows, encoding)
                digest.add(data)
                fh.write(data)
                e2 = np.sum(rows[..., :3] ** 2, axis=-1)
                w = rows[..., 3] * e2
                w_sum += float(np.sum(w))
                w_max = max(w_max, float(np.max(w)))
                sub = np.ix_(sel[0][i0:i0 + step], sel[1], sel[2])
                reg_e2.append(e2[sub].reshape(-1))
                reg_w.append(w[sub].reshape(-1))
        reg_e2 = np.concatenate(reg_e2)
        e_max = math.sqrt(float(reg_e2[int(np.argmax(np.concatenate(reg_w)))]))
        e_mag = np.sqrt(reg_e2)
        f = {}
        for t in thresholds:
            wt = np.maximum(e_mag - t * e_max, 0.0) / e_max
            f[t] = math.sqrt(float(np.sum(wt / np.sum(wt) * (e_mag / e_max) ** 2)) / 3.0)
        return {"v": w_sum * math.prod(prof.spacing) / w_max, "f": f}

    def _run(self, grid, thresholds):
        cp = self.cp
        g = cp.load_field_grid(grid["path"])
        v = cp.mode_volume(g)
        vn = cp.normalized_mode_volume(v, self.LAMBDA_M, math.sqrt(grid["eps"]))
        fs = [cp.ensemble_weighting_factor(g, cp.WeightingConfig(threshold_fraction=t))
              for t in thresholds]
        est = cp.ideal_coupling(self.TAU1_S, C0 / self.LAMBDA_M, self.ETA_DW,
                                v_mode_m3=v, eps_rel_at_max=grid["eps"])
        return v, vn, fs, est.g0_hz, [cp.effective_g0(est.g0_hz, f) for f in fs]

    def _g0_hand(self, v, eps):
        omega = 2.0 * np.pi * C0 / self.LAMBDA_M
        d = math.sqrt(3.0 * math.pi * EPS0 * HBAR * C0 ** 3 / (self.TAU1_S * omega ** 3))
        e_zpf = math.sqrt(HBAR * omega / (2.0 * eps * EPS0 * v))
        return math.sqrt(self.ETA_DW) * d * e_zpf / (2.0 * math.pi * HBAR)

    def _check(self, grid, thresholds, out):
        v, vn, fs, g0, g_eff = out
        o = grid["oracle"]
        if _rel(v, o["v"]) > self.REL_TOL:
            return f"V={v:.10g}, numpy sum gives {o['v']:.10g}"
        if _rel(vn, o["v"] / (self.LAMBDA_M / math.sqrt(grid["eps"])) ** 3) > self.REL_TOL:
            return f"normalized V={vn:.10g} disagrees with V/(lambda/n)^3"
        for t, f, ge in zip(thresholds, fs, g_eff):
            if _rel(f, o["f"][t]) > self.REL_TOL:
                return f"F={f:.10g} at threshold {t}, numpy gives {o['f'][t]:.10g}"
            if grid is self.grids["uniform"] and abs(f - 1.0 / math.sqrt(3.0)) > 1e-12:
                return f"uniform field: F={f:.15g}, hand case 1/sqrt(3)"
            if _rel(ge, g0 * f) > self.REL_TOL:
                return f"effective g0 {ge:.10g} is not g0*F"
        if _rel(g0, self._g0_hand(o["v"], grid["eps"])) > 1e-6:
            return f"g0={g0:.10g} Hz, hand formula {self._g0_hand(o['v'], grid['eps']):.10g}"
        return None

    def describe(self):
        lines = [f"grid {name}: {'x'.join(map(str, g['dims']))}, {g['bytes'] / 1e6:.1f} MB file"
                 for name, g in self.grids.items()]
        return lines + [f"LLC of the reference machine: {REFERENCE_LLC_MIB} MiB; "
                        "coupling.bytes_computed counts the E and eps arrays each "
                        "mode_volume/weighting call reads, computed from array sizes"]

    def cycle(self):
        return [Op(kind, lambda g=self.grids[grid], t=ths: self._run(g, t),
                   lambda out, g=self.grids[grid], t=ths: self._check(g, t, out))
                for kind, grid, ths in self.CYCLE]

    def warmup(self):
        # the big grid is not warmed: each big op maps fresh memory anyway,
        # and one warm-up would add seconds to every set-up sample
        return [op for op in _first_of_each_kind(self.cycle()) if op.kind != "big-single"]


# ---------------------------------------------------------------------------
# cli-session: one cavitykit process per op, closed loop, one client
# ---------------------------------------------------------------------------

class CliSession:
    """One op is one ``cavitykit <subcommand>`` process; the next starts
    only after the previous one exits (closed loop, one client).

    It replays an analysis session on small fixture files; 3 of the 16
    invocations per cycle are malformed inputs that exit 2.  Each op is
    checked for its exit code and for stdout equal to ``cli.main(argv)``
    run in-process at set-up (plus the index file for gen-synthetic).
    """

    def __init__(self, ck, seed, workdir, tiny):
        self.cli = ck.cli
        self.seed, self.tiny = seed, tiny
        self.dir = os.path.join(workdir, "cli")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.commands = []   # (kind, argv, expected exit code)
        self.expected = {}   # index -> (stdout, extra file text)

    def _f(self, name):
        return os.path.join(self.dir, name)

    def setup(self, digest: Digest):
        os.makedirs(self.dir)
        rng = np.random.default_rng([self.seed, 4])
        # decay traces in the documented decay-trace CSV format
        t = np.arange(200) * 1.28e-9
        for name, bg in (("decay.csv", 0.0), ("decay_bg.csv", rng.uniform(20, 80))):
            counts = rng.poisson(rng.uniform(5e3, 2e4)
                                 * np.exp(-t / rng.uniform(5e-9, 15e-9)) + bg)
            lines = ["# decay-trace schema_version=1", "# kind=measured",
                     f"# bin_width_s={1.28e-9!r}", "time_s,value"]
            lines += [f"{float(a)!r},{float(b)!r}" for a, b in zip(t, counts)]
            _write(self._f(name), "\n".join(lines) + "\n", digest)
        kappa, tau1, c = PAPER_POINT[1], PAPER_POINT[2], rng.uniform(0.1, 0.6)
        delta = kappa * np.linspace(-3.0, 3.0, 25)
        tau = tau1 / (1.0 + c / (1.0 + 4.0 * (delta / kappa) ** 2))
        tau_rows = np.column_stack([delta, tau + rng.normal(0.0, 0.01 * tau), 0.01 * tau])
        _write(self._f("tau.csv"), _table("delta_hz,tau_s,sigma_s", tau_rows), digest)
        bad = _table("delta_hz,tau_s,sigma_s", tau_rows).splitlines()
        bad[6] += ",1.0"      # wrong column count in a later row
        _write(self._f("tau_badcols.csv"), "\n".join(bad) + "\n", digest)
        x = np.linspace(630.0, 645.0, 240)
        y = (rng.uniform(80, 160) / (1.0 + ((x - 638.2) / 0.64) ** 2)
             + rng.uniform(150, 300) * np.exp(-0.5 * ((x - 637.0) / 0.12) ** 2)
             + 40.0 - 0.05 * x + rng.normal(0.0, 2.0, x.size))
        spec = _table("wavelength_nm,intensity", np.column_stack([x, y]))
        _write(self._f("spectrum.csv"), spec, digest)
        bad = spec.splitlines()
        bad[7] = bad[7].split(",")[0] + ",abc"   # non-number in a later row
        _write(self._f("spectrum_badnum.csv"), "\n".join(bad) + "\n", digest)
        for name, dims, enc in (("grid_f64.fgrid", (41, 21, 17), "f64"),
                                ("grid_csv.fgrid", (21, 11, 9), "csv")):
            prof = FieldProfile(rng, dims)
            header = fgrid_header(dims, prof.spacing, prof.origin, enc)
            body = fgrid_body(prof.slab(0, dims[0]), enc)
            digest.add(header)
            digest.add(body)
            with open(self._f(name), "wb") as fh:
                fh.write(header.encode() + body)
        chain = [{"name": "taper", "efficiency": round(rng.uniform(0.6, 0.9), 4),
                  "efficiency_err": 0.02},
                 {"name": "waveguide", "loss_db_per_cm": round(rng.uniform(1, 4), 3),
                  "length_cm": 0.3},
                 {"name": "edge coupler", "loss_db": round(rng.uniform(2, 4), 3),
                  "loss_db_err": 0.3}]
        _write(self._f("chain.json"), json.dumps(chain), digest)

        g0, kappa, tau1 = (PAPER_POINT[0] * rng.uniform(0.8, 1.25),
                           PAPER_POINT[1] * rng.uniform(0.8, 1.25), PAPER_POINT[2])
        cmds = [
            ("gen-synthetic", ["--out-dir", self._f("gen"), "--seed", str(self.seed % 2**31)], 0),
            ("fit-decay", [self._f("decay.csv")], 0),
            ("fit-decay", [self._f("decay_bg.csv"), "--background"], 0),
            ("fit-detuning", [self._f("tau.csv")], 0),
            ("fit-spectrum", [self._f("spectrum.csv")], 0),
            ("purcell", ["--c", repr(round(c, 4))], 0),
            ("purcell", ["--tau-on-ns", "13.2", "--tau-off-ns", repr(round(15.9 * (1 + c), 3))], 0),
            ("g0", ["--tau1-ns", "15.9", "--nu-thz", "470.6", "--vmode-normalized",
                    repr(round(rng.uniform(0.5, 1.5), 3)), "--weighting", "0.35"], 0),
            ("simulate-decay", ["--g0-ghz", repr(g0 / 1e9), "--kappa-ghz", repr(kappa / 1e9),
                                "--tau1-ns", repr(tau1 * 1e9)], 0),
            ("mode-volume", [self._f("grid_f64.fgrid"), "--lambda-nm", "637"], 0),
            ("mode-volume", [self._f("grid_csv.fgrid")], 0),
            ("ensemble-weight", [self._f("grid_f64.fgrid"), "--threshold", "0.3"], 0),
            ("link-budget", [self._f("chain.json"), "--quiet", "--measured-total", "0.05"], 0),
            ("bad-columns", ["fit-detuning", self._f("tau_badcols.csv")], 2),
            ("bad-number", ["fit-spectrum", self._f("spectrum_badnum.csv")], 2),
            ("missing-file", ["fit-decay", self._f("absent.csv")], 2),
        ]
        if self.tiny:   # gen-synthetic, purcell, CSV mode-volume, wrong column count
            cmds = [cmds[0], cmds[5], cmds[10], cmds[13]]
        for kind, args, code in cmds:
            argv = args if kind.startswith(("bad-", "missing-")) else [kind] + args
            digest.add(" ".join(a.replace(self.dir, "<fixtures>") for a in argv))
            self.commands.append((kind, argv, code))
        for i, (kind, argv, code) in enumerate(self.commands):
            rc, out = self.in_process(argv)
            if rc != code:
                raise RuntimeError(f"{kind}: in-process exit {rc}, expected {code}")
            self.expected[i] = (out, self._extra(kind))

    def in_process(self, argv):
        """Run ``cli.main(argv)`` in this process with stdout captured."""
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            rc = self.cli.main(list(argv))
        return rc, buf.getvalue()

    def _extra(self, kind):
        if kind != "gen-synthetic":
            return None
        with open(os.path.join(self._f("gen"), "index.json")) as fh:
            return fh.read()

    def _run(self, argv):
        proc = subprocess.run([sys.executable, "-m", "cavitykit.cli"] + argv,
                              env=self.env, cwd=self.dir, capture_output=True,
                              text=True, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    def _check(self, i, out):
        kind, argv, code = self.commands[i]
        rc, stdout, stderr = out
        if rc != code:
            return f"exit {rc}, expected {code}: {stderr.strip()[-200:]}"
        if code == 2:
            return None if stderr.startswith("usage error:") else f"stderr {stderr[:80]!r}"
        want, extra = self.expected[i]
        if stdout != want:
            return "stdout differs from the in-process result"
        if extra is not None and self._extra(kind) != extra:
            return "index.json differs from the in-process result"
        return None

    def cycle(self):
        return [Op(kind, lambda a=argv: self._run(a), lambda out, i=i: self._check(i, out))
                for i, (kind, argv, _) in enumerate(self.commands)]

    def warmup(self):
        return self.cycle()[:1]


def _table(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(repr(float(v)) for v in r) + "\n" for r in rows)


WORKLOADS = {"sweep": Sweep, "fit-batch": FitBatch, "field-map": FieldMap,
             "cli-session": CliSession}
