"""Defects of cavitykit.fitting that the fit-batch inputs stay clear of.

A benchmark run must end without a failed op on every seed, so the
fit-batch workload draws its inputs away from four defects its output
checks found in the program.  This script reproduces each of them on fixed
inputs and says whether it still does, so that a change fixing one shows
here and the workload's inputs can be widened again:

    python3 bench/known_defects.py        # from the root of a checkout

It exits 0 either way; ``run.py --self-check`` prints its report.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import cavitykit as ck  # noqa: E402
import workloads as W  # noqa: E402

CHECK = W.FitBatch(ck, 0, None, True)


def _fails(call, truth, fn, x, var):
    """The fit-batch output check on one dataset; None when it passes."""
    try:
        return CHECK._check(truth, W.fisher_se(fn, x, truth, var), call())
    except Exception as exc:  # the op raised: that is the failure
        return f"{type(exc).__name__}: {exc}"


def centre_on_grid_point_zero():
    """asymmetric-lorentzian on a grid holding x = 0, peak guessed at 0: the
    finite-difference step for the center is 1e-7 * 1e-300, the center's
    Jacobian column is zero and the fit raises DegenerateFitError.  The
    workload's grid has an even point count, so 0 is never a grid point."""
    x = np.linspace(-5.0, 5.0, 151)
    truth = {"amplitude": 1.0, "center": 0.01, "w_left": 0.5, "w_right": 1.0}
    y = W._asym_lorentzian_fn(x, truth)
    call = lambda: ck.fitting.least_squares_fit(  # noqa: E731
        "asymmetric-lorentzian", x, y, sigma=np.full(x.size, 0.01))
    cause = _fails(call, truth, W._asym_lorentzian_fn, x, np.full(x.size, 1e-4))
    return cause is not None, cause or "fit passes"


def poisson_weighting_bias(n=200):
    """Poisson decay traces on a fixed 256 ns window (200 bins of 1.28 ns),
    as TCSPC traces often come: sigma = sqrt(max(y, 1)) weights the
    low-count bins wrongly, which biases the background about one count low
    and sends some fits beyond 5 SE of the truth.  The workload's window
    ends at 5 (8 with background) lifetimes instead, and its traces with
    background carry ten times the counts."""
    rng = np.random.default_rng(0)
    t = np.arange(200) * CHECK.BIN_S
    failed, bg_z = 0, []
    for i in range(n):
        bg = i % 2 == 1
        truth = {"amplitude": rng.uniform(5e3, 2e4), "tau": rng.uniform(5e-9, 15e-9)}
        if bg:
            truth["background"] = rng.uniform(20.0, 80.0)
        mean = W._decay_fn(t, truth)
        trace = ck.dynamics.DecayTrace(times=t, values=rng.poisson(mean).astype(float),
                                       kind="measured", bin_width_s=CHECK.BIN_S)
        res = ck.fitting.fit_decay_trace(trace, with_background=bg)
        se = W.fisher_se(W._decay_fn, t, truth, mean)
        failed += CHECK._check(truth, se, res) is not None
        if bg:
            bg_z.append((res.params["background"] - truth["background"]) / se["background"])
    mean_z = float(np.mean(bg_z))
    return (failed > 0 or mean_z < -1.0,
            f"{failed} of {n} fits fail the check; background off by {mean_z:+.2f} SE on average")


#: Seeds of default_rng whose draw (below) fails; found by a scan of seeds 0-2000.
SPECTRUM_SEEDS = (0, 200, 214)


def overlapping_equal_peaks():
    """Overlapping cavity and ZPL peaks of about equal height (ZPL 1.0-1.2x
    the cavity peak): the guess merges them into one peak and both starting
    points of fit_spectrum now and then end with one peak vanished, at a
    cost ~50x the optimum's.  The workload's ZPL is 1.25-3.75x the cavity
    peak."""
    x = np.linspace(630.0, 645.0, 240)
    causes = []
    for seed in SPECTRUM_SEEDS:
        truth, y = equal_peaks_spectrum(np.random.default_rng(seed), x)
        call = lambda: ck.fitting.fit_spectrum(np.column_stack([x, y]))  # noqa: E731
        cause = _fails(call, truth, W._spectrum_fn, x, np.full(x.size, 4.0))
        if cause:
            causes.append(cause)
    return bool(causes), (f"{len(causes)} of {len(SPECTRUM_SEEDS)} fits fail the check"
                          + (f"; first: {causes[0]}" if causes else ""))


def equal_peaks_spectrum(rng, x):
    a_c = rng.uniform(130.0, 160.0)
    x_c, w_c = 638.2 + rng.uniform(-0.3, 0.3), rng.uniform(0.5, 0.8)
    truth = {"a_cav": a_c, "x_cav": x_c, "w_cav": w_c,
             "a_zpl": a_c * rng.uniform(1.0, 1.2), "x_zpl": x_c - rng.uniform(0.5, 0.8),
             "sigma_zpl": rng.uniform(0.1, 0.15), "base_offset": rng.uniform(30.0, 50.0),
             "base_slope": rng.uniform(-0.06, -0.04)}
    return truth, W._spectrum_fn(x, truth) + rng.normal(0.0, 2.0, x.size)


#: Seeds of default_rng whose draw (below) fails; found by a scan of seeds 0-10000.
TAU_SEEDS = (4794, 8059, 9562)


def shallow_dip():
    """tau(Delta) with a shallow dip (C = 0.10-0.12, 1% noise): a far-detuned
    point that noise pushes below mid-depth makes the guess put kappa at 6x
    its value; the fit then runs off, its covariance holds NaN and
    fit_tau_detuning raises LinAlgError.  The workload draws C from 0.2-0.6."""
    causes = []
    for seed in TAU_SEEDS:
        truth, pts = shallow_dip_points(np.random.default_rng(seed))
        cause = _fails(lambda: ck.fitting.fit_tau_detuning(pts), truth,
                       W._tau_fn, pts[:, 0], pts[:, 2] ** 2)
        if cause:
            causes.append(cause)
    return bool(causes), (f"{len(causes)} of {len(TAU_SEEDS)} fits fail the check"
                          + (f"; first: {causes[0]}" if causes else ""))


def shallow_dip_points(rng):
    truth = {"c": rng.uniform(0.10, 0.12), "kappa": 940e9, "tau1": 15.9e-9}
    delta = truth["kappa"] * np.linspace(-3.0, 3.0, 25)
    tau = W._tau_fn(delta, truth)
    return truth, np.column_stack([delta, tau + rng.normal(0.0, 0.01 * tau), 0.01 * tau])


def main() -> int:
    for probe in (centre_on_grid_point_zero, poisson_weighting_bias,
                  overlapping_equal_peaks, shallow_dip):
        present, detail = probe()
        print(f"known defect {probe.__name__}: "
              f"{'still present' if present else 'NO LONGER REPRODUCES'} ({detail})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
