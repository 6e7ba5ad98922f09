"""Weighted nonlinear least squares and the fit models used in this package.

The optimizer is a damped Gauss-Newton (Levenberg-Marquardt schedule) with
column-normalized Jacobians, which keeps the normal equations well
conditioned even when parameters span twenty orders of magnitude (kappa in
Hz next to tau in seconds).  With unit-norm columns the diagonal of J^T J
is 1, so Marquardt's diagonal scaling is the identity and the damping term
is lam * I.  Every model kind carries an analytic Jacobian; the tests check
each one against central differences.

Steps are clipped to the box bounds; a parameter on a bound that the
gradient pushes outward is held there for that iteration, so the gradient
test sees only the free parameters.  Convergence: relative step below
1e-10 or scaled gradient below 1e-12, capped at 500 iterations; hitting
the cap flags converged=False instead of raising.  The parameter
covariance is the inverse Gauss-Newton normal matrix scaled by the reduced
chi-square.

Model kinds:
    single-exponential[-background]   A exp(-t/tau) [+ b]
    tau-detuning                      tau1 / (1 + C / (1 + 4 Delta^2/kappa^2))
    lorentzian-plus-gaussian          cavity + ZPL peaks on a linear baseline
    tanh-transmission                 plateau with tanh rolloff beyond |x| = x0
    exponential-saturation            T_inf (1 - exp(-L/L0))
    asymmetric-lorentzian             side-dependent widths, continuous at peak

The tanh and asymmetric-Lorentzian forms are phenomenological conventions:
three interpretable parameters (plateau, tolerance half-width, rolloff
scale) for the former; a piecewise-width Lorentzian, continuous at the
peak and reducing to the symmetric form for equal widths, for the latter.
The spectrum's two peak heights are emission peaks and are bounded below
at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "DegenerateFitError", "FitModel", "FitResult", "MODEL_KINDS",
    "get_model", "least_squares_fit", "fit_decay_trace", "fit_tau_detuning",
    "fit_spectrum",
]

MAX_ITERATIONS = 500
STEP_TOL = 1e-10
GRAD_TOL = 1e-12


class DegenerateFitError(ValueError):
    """The data cannot constrain the model (singular normal matrix)."""


@dataclass(frozen=True)
class FitModel:
    """A fittable model: vectorized function, its analytic Jacobian, box
    bounds (may be infinite) and an initial-guess policy."""

    kind: str
    param_names: tuple
    fn: Callable
    guess: Callable
    jacobian: Callable
    lower: tuple = ()
    upper: tuple = ()

    def __post_init__(self):
        p = len(self.param_names)
        lower = self.lower or (-math.inf,) * p
        upper = self.upper or (math.inf,) * p
        if len(lower) != p or len(upper) != p:
            raise ValueError("bounds must match the parameter count")
        object.__setattr__(self, "lower", tuple(lower))
        object.__setattr__(self, "upper", tuple(upper))


@dataclass
class FitResult:
    model: str
    params: dict
    standard_errors: dict
    covariance: np.ndarray
    residual_norm: float      # sqrt of the weighted sum of squared residuals
    n_points: int
    n_iterations: int
    converged: bool
    warnings: tuple = ()
    derived: dict = field(default_factory=dict)

    @property
    def chisq(self) -> float:
        return self.residual_norm ** 2

    @property
    def reduced_chisq(self) -> float:
        dof = max(self.n_points - len(self.params), 1)
        return self.chisq / dof

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "model": self.model,
            "params": {k: float(v) for k, v in self.params.items()},
            "standard_errors": {k: float(v) for k, v in self.standard_errors.items()},
            "covariance": [[float(c) for c in row] for row in self.covariance],
            "residual_norm": float(self.residual_norm),
            "reduced_chisq": float(self.reduced_chisq),
            "n_points": int(self.n_points),
            "n_iterations": int(self.n_iterations),
            "converged": bool(self.converged),
            "warnings": list(self.warnings),
            "derived": {k: float(v) for k, v in self.derived.items()},
        }


# ---------------------------------------------------------------------------
# Model functions
# ---------------------------------------------------------------------------

def _exp_fn(t, th):
    return th[0] * np.exp(-t / th[1])


def _exp_jac(t, th):
    e = np.exp(-t / th[1])
    return np.column_stack([e, th[0] * t * e / th[1] ** 2])


def _exp_bg_fn(t, th):
    return th[0] * np.exp(-t / th[1]) + th[2]


def _exp_bg_jac(t, th):
    e = np.exp(-t / th[1])
    return np.column_stack([e, th[0] * t * e / th[1] ** 2, np.ones_like(t)])


def _guess_exponential(t, y, with_background):
    b0 = 0.99 * float(np.min(y)) if with_background else 0.0
    yy = y - b0
    a0 = float(np.max(yy))
    if a0 <= 0.0:
        a0 = max(float(np.max(np.abs(y))), 1.0)
    pos = yy > 0.02 * a0
    span = float(t[-1] - t[0]) if t[-1] > t[0] else 1.0
    tau0 = span / 3.0
    if pos.sum() >= 3:
        slope = np.polyfit(t[pos], np.log(yy[pos]), 1)[0]
        if slope < 0.0:
            tau0 = -1.0 / slope
    out = [a0, tau0]
    if with_background:
        out.append(b0)
    return np.array(out)


def _tau_detuning_fn(delta, th):
    c, kappa, tau1 = th
    f = 1.0 / (1.0 + 4.0 * (delta / kappa) ** 2)
    return tau1 / (1.0 + c * f)


def _tau_detuning_jac(delta, th):
    c, kappa, tau1 = th
    f = 1.0 / (1.0 + 4.0 * (delta / kappa) ** 2)
    denom = 1.0 + c * f
    df_dkappa = 8.0 * kappa * delta ** 2 / (kappa ** 2 + 4.0 * delta ** 2) ** 2
    return np.column_stack([
        -tau1 * f / denom ** 2,
        -tau1 * c * df_dkappa / denom ** 2,
        1.0 / denom,
    ])


def _guess_tau_detuning(delta, tau):
    tau1 = float(np.max(tau))
    tau_min = float(np.min(tau))
    c0 = max(tau1 / tau_min - 1.0, 0.0) if tau_min > 0.0 else 0.0
    mid = 0.5 * (tau1 + tau_min)
    below = np.abs(delta)[tau < mid]
    if below.size and float(np.max(below)) > 0.0:
        kappa0 = 2.0 * float(np.max(below))  # dip FWHM ~ kappa
    else:
        kappa0 = max(0.25 * (float(np.max(delta)) - float(np.min(delta))),
                     float(np.max(np.abs(delta))) / 2.0, 1.0)
    return np.array([c0, kappa0, tau1])


def _spectrum_fn(x, th):
    a_c, x_c, w_c, a_z, x_z, s_z, b0, b1 = th
    lor = a_c / (1.0 + ((x - x_c) / w_c) ** 2)
    gau = a_z * np.exp(-0.5 * ((x - x_z) / s_z) ** 2)
    return lor + gau + b0 + b1 * x


def _lorentz_cols(x, a, x0, w):
    """d/d(a, x0, w) of a / (1 + ((x - x0)/w)^2)."""
    u = (x - x0) / w
    ell = 1.0 / (1.0 + u * u)
    d = 2.0 * a * u * ell * ell / w
    return ell, d, d * u


def _spectrum_jac(x, th):
    a_c, x_c, w_c, a_z, x_z, s_z, _, _ = th
    v = (x - x_z) / s_z
    gau = np.exp(-0.5 * v * v)
    d = a_z * gau * v / s_z
    return np.column_stack([*_lorentz_cols(x, a_c, x_c, w_c),
                            gau, d, d * v, np.ones_like(x), x])


def _half_width(x, y, i_peak):
    """Half width at half maximum around a local peak, by interpolation."""
    h = y[i_peak]
    span = x[-1] - x[0]
    if h <= 0.0:
        return span / 20.0
    sides = []
    for step in (-1, 1):
        j = i_peak
        while 0 <= j + step < len(y) and y[j + step] > 0.5 * h:
            j += step
        if 0 <= j + step < len(y):
            frac = (y[j] - 0.5 * h) / max(y[j] - y[j + step], 1e-300)
            sides.append(abs(x[j] + frac * (x[j + step] - x[j]) - x[i_peak]))
    if not sides:
        return span / 20.0
    return max(float(np.mean(sides)), span / max(4 * len(x), 40))


def _guess_spectrum(x, y):
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    low = ys <= np.quantile(ys, 0.3)
    if low.sum() >= 2:
        b1, b0 = np.polyfit(xs[low], ys[low], 1)
    else:
        b0, b1 = float(np.min(ys)), 0.0
    resid = ys - (b0 + b1 * xs)
    i1 = int(np.argmax(resid))
    h1, hw1 = float(resid[i1]), _half_width(xs, resid, i1)
    resid2 = resid - h1 / (1.0 + ((xs - xs[i1]) / hw1) ** 2)
    # search the second peak away from the first; the subtraction leaves
    # noise residue right at peak one that would otherwise win the argmax
    away = np.abs(xs - xs[i1]) > 3.0 * hw1
    if away.sum() >= 5:
        idx = np.nonzero(away)[0]
        i2 = int(idx[np.argmax(resid2[idx])])
    else:
        i2 = int(np.argmax(resid2))
    h2, hw2 = float(max(resid2[i2], 0.05 * h1)), _half_width(xs, resid2, i2)
    peaks = [(h1, float(xs[i1]), hw1), (h2, float(xs[i2]), hw2)]
    # the broader peak is taken as the Lorentzian (cavity), the narrower as
    # the Gaussian (ZPL); sigma = HWHM / sqrt(2 ln 2)
    cav, zpl = (peaks[0], peaks[1]) if hw1 >= hw2 else (peaks[1], peaks[0])
    return np.array([cav[0], cav[1], cav[2],
                     zpl[0], zpl[1], zpl[2] / math.sqrt(2.0 * math.log(2.0)),
                     b0, b1])


def _tanh_fn(x, th):
    t0, x0, s = th
    return t0 * 0.5 * (1.0 - np.tanh((np.abs(x) - x0) / s))


def _tanh_jac(x, th):
    t0, x0, s = th
    z = (np.abs(x) - x0) / s
    t = np.tanh(z)
    d = 0.5 * t0 * (1.0 - t) * (1.0 + t) / s  # sech^2 without overflow
    return np.column_stack([0.5 * (1.0 - t), d, d * z])


def _guess_tanh(x, y):
    t0 = float(np.quantile(y, 0.95))
    ax = np.abs(x)
    order = np.argsort(ax)
    axs, yo = ax[order], y[order]
    below = np.nonzero(yo < 0.5 * t0)[0]
    x0 = float(axs[below[0]]) if below.size else float(np.max(axs))
    x0 = max(x0, 1e-3 * float(np.max(axs)) if np.max(axs) > 0 else 1e-3)
    return np.array([t0, x0, x0 / 4.0])


def _satur_fn(x, th):
    return th[0] * (1.0 - np.exp(-x / th[1]))


def _satur_jac(x, th):
    e = np.exp(-x / th[1])
    return np.column_stack([1.0 - e, -th[0] * x * e / th[1] ** 2])


def _guess_satur(x, y):
    t_inf = float(np.max(y))
    level = (1.0 - math.exp(-1.0)) * t_inf
    above = np.nonzero(y >= level)[0]
    l0 = float(x[above[0]]) if above.size else float(np.max(x)) / 3.0
    return np.array([t_inf, max(l0, 1e-6 * float(np.max(x)))])


def _asym_lorentz_fn(x, th):
    a, x0, w_left, w_right = th
    w = np.where(x < x0, w_left, w_right)
    return a / (1.0 + ((x - x0) / w) ** 2)


def _asym_lorentz_jac(x, th):
    a, x0, w_left, w_right = th
    left = x < x0
    ell, d_x0, d_w = _lorentz_cols(x, a, x0, np.where(left, w_left, w_right))
    return np.column_stack([ell, d_x0, np.where(left, d_w, 0.0),
                            np.where(left, 0.0, d_w)])


def _guess_asym_lorentz(x, y):
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    i = int(np.argmax(ys))
    hw = _half_width(xs, ys, i)
    return np.array([float(ys[i]), float(xs[i]), hw, hw])


_TINY = 1e-300

_MODELS = {
    "single-exponential": FitModel(
        kind="single-exponential", param_names=("amplitude", "tau"),
        fn=_exp_fn, jacobian=_exp_jac,
        guess=lambda t, y: _guess_exponential(t, y, False),
        lower=(-math.inf, _TINY), upper=(math.inf, math.inf)),
    "single-exponential-background": FitModel(
        kind="single-exponential-background",
        param_names=("amplitude", "tau", "background"),
        fn=_exp_bg_fn, jacobian=_exp_bg_jac,
        guess=lambda t, y: _guess_exponential(t, y, True),
        lower=(-math.inf, _TINY, -math.inf), upper=(math.inf,) * 3),
    "tau-detuning": FitModel(
        kind="tau-detuning", param_names=("c", "kappa", "tau1"),
        fn=_tau_detuning_fn, jacobian=_tau_detuning_jac,
        guess=_guess_tau_detuning,
        lower=(0.0, _TINY, _TINY), upper=(math.inf,) * 3),
    "lorentzian-plus-gaussian": FitModel(
        kind="lorentzian-plus-gaussian",
        param_names=("a_cav", "x_cav", "w_cav", "a_zpl", "x_zpl", "sigma_zpl",
                     "base_offset", "base_slope"),
        fn=_spectrum_fn, jacobian=_spectrum_jac, guess=_guess_spectrum,
        lower=(0.0, -math.inf, _TINY, 0.0, -math.inf, _TINY,
               -math.inf, -math.inf),
        upper=(math.inf,) * 8),
    "tanh-transmission": FitModel(
        kind="tanh-transmission", param_names=("t0", "x0", "s"),
        fn=_tanh_fn, jacobian=_tanh_jac, guess=_guess_tanh,
        lower=(_TINY, _TINY, _TINY), upper=(math.inf,) * 3),
    "exponential-saturation": FitModel(
        kind="exponential-saturation", param_names=("t_inf", "l0"),
        fn=_satur_fn, jacobian=_satur_jac, guess=_guess_satur,
        lower=(-math.inf, _TINY), upper=(math.inf, math.inf)),
    "asymmetric-lorentzian": FitModel(
        kind="asymmetric-lorentzian",
        param_names=("amplitude", "center", "w_left", "w_right"),
        fn=_asym_lorentz_fn, jacobian=_asym_lorentz_jac,
        guess=_guess_asym_lorentz,
        lower=(-math.inf, -math.inf, _TINY, _TINY), upper=(math.inf,) * 4),
}

MODEL_KINDS = tuple(sorted(_MODELS))


def get_model(kind: str) -> FitModel:
    try:
        return _MODELS[kind]
    except KeyError:
        raise ValueError(f"unknown model kind {kind!r}; "
                         f"known kinds: {', '.join(MODEL_KINDS)}") from None


# ---------------------------------------------------------------------------
# Levenberg-Marquardt engine
# ---------------------------------------------------------------------------

def _require_finite(name: str, arr: np.ndarray):
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{name} must be finite; {name}[{i}] = {float(arr[i])!r}")


def least_squares_fit(model, x, y, sigma=None, init=None,
                      on_singular: str = "raise") -> FitResult:
    """Minimize sum(((y - model(x; theta)) / sigma)^2) over theta.

    sigma, when given, must be positive and supplies absolute weights;
    without it the fit is unweighted and the covariance is scaled by the
    residual variance either way (reduced chi-square scaling).  init
    defaults to the model's guess policy.  on_singular: "raise" turns a
    singular normal matrix into DegenerateFitError, "pinv" falls back to a
    pseudo-inverse covariance with inf standard errors on unconstrained
    parameters plus a warning entry.
    """
    if isinstance(model, str):
        model = get_model(model)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = len(model.param_names)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length 1-D arrays")
    if len(x) < p:
        raise ValueError(f"need at least {p} points to fit {model.kind}")
    _require_finite("x", x)
    _require_finite("y", y)
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != y.shape or np.any(sigma <= 0.0):
            raise ValueError("sigma must be positive and match y in length")
        _require_finite("sigma", sigma)
        inv_sigma = 1.0 / sigma
    else:
        inv_sigma = np.ones_like(y)

    lower = np.array(model.lower)
    upper = np.array(model.upper)
    theta = np.array(model.guess(x, y) if init is None else init, dtype=float)
    if theta.shape != (p,):
        raise ValueError(f"init must supply {p} parameters for {model.kind}")
    if init is not None:
        _require_finite("init", theta)
    theta = np.clip(theta, lower, upper)
    # per-parameter scale of the relative-step test; a parameter starting
    # at (or clipped to) ~0 has no scale of its own, and the span of x
    # stands in
    typical = np.abs(theta)
    unscaled = typical <= _TINY
    if unscaled.any():
        typical[unscaled] = max(float(np.ptp(x)), _TINY)

    def residual(th):
        with np.errstate(all="ignore"):
            return (y - model.fn(x, th)) * inv_sigma

    def jac_at(th):
        with np.errstate(all="ignore"):
            return model.jacobian(x, th)

    r = residual(theta)
    cost = float(r @ r)
    # scale for the gradient test: with unit-norm Jacobian columns the
    # gradient is linear in the weighted residual, so normalizing by the
    # weighted data norm makes the 1e-12 threshold dimensionless
    yw = y * inv_sigma
    grad_scale = max(math.sqrt(float(yw @ yw)), math.sqrt(cost), _TINY)
    # the normalized columns make diag(J^T J) 1 (0 for a dead column, whose
    # gradient entry and so its step are 0 anyway): Marquardt's scaling is I
    eye = np.eye(p)
    lam = 1e-3
    converged = False
    notes = []
    n_iter = 0

    while n_iter < MAX_ITERATIONS:
        n_iter += 1
        jw = jac_at(theta) * inv_sigma[:, None]
        col = np.sqrt(np.sum(jw ** 2, axis=0))
        if not np.any(col > 0.0):
            if on_singular == "raise":
                raise DegenerateFitError(
                    f"{model.kind}: model is flat in every parameter at the "
                    "current point")
            notes.append("model flat in all parameters; fit abandoned")
            break
        # normalize columns to unit norm; parameters of any raw scale then
        # enter the normal equations on an equal footing
        scale = np.where(col > 0.0, col, 1.0)
        js = jw / scale
        g = js.T @ r
        # a parameter on a bound that the gradient pushes out of the box is
        # held there: with its column zeroed its step is 0, like a dead one's
        held = ((theta <= lower) & (g < 0.0)) | ((theta >= upper) & (g > 0.0))
        if held.any():
            js[:, held] = 0.0
            g[held] = 0.0
        a = js.T @ js
        if float(np.max(np.abs(g))) < GRAD_TOL * grad_scale:
            converged = True
            break

        accepted = False
        no_step_left = False
        while lam <= 1e14:
            try:
                delta_s = np.linalg.solve(a + lam * eye, g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            delta = delta_s / scale
            trial = np.clip(theta + delta, lower, upper)
            if np.array_equal(trial, theta):
                # damping has shrunk the proposal below float resolution;
                # nothing representable improves the cost any more
                no_step_left = True
                break
            r_t = residual(trial)
            cost_t = float(r_t @ r_t)
            if np.isfinite(cost_t) and cost_t < cost:
                # per-parameter relative step; an aggregate norm would let
                # the largest-scale parameter mask motion in the others
                rel_step = float(np.max(
                    np.abs(trial - theta) / np.maximum(np.abs(theta), typical)))
                theta, r, cost = trial, r_t, cost_t
                lam = max(lam / 10.0, 1e-14)
                accepted = True
                if rel_step < STEP_TOL:
                    converged = True
                break
            lam *= 10.0
        if no_step_left:
            converged = True
            break
        if not accepted:
            notes.append("stalled: damping exhausted without cost reduction")
            break
        if converged:
            break

    if n_iter >= MAX_ITERATIONS and not converged:
        notes.append(f"iteration cap of {MAX_ITERATIONS} reached before convergence")

    # covariance from the (unscaled) normal matrix at the optimum; a column
    # that is exactly zero marks a structurally unconstrained parameter
    jw = jac_at(theta) * inv_sigma[:, None]
    col = np.sqrt(np.sum(jw ** 2, axis=0))
    dead = col <= 1e-280
    scale = np.where(dead, 1.0, col)
    js = jw / scale
    a = js.T @ js
    if not np.all(np.isfinite(a)):
        at = ", ".join(f"{n}={v:.6g}" for n, v in zip(model.param_names, theta))
        raise DegenerateFitError(
            f"{model.kind}: the normal matrix is not finite at the fitted "
            f"parameters ({at}); the fit ran off to where the model's "
            "derivatives overflow or are undefined")
    dof = max(len(x) - p, 1)
    red_chisq = cost / dof
    try:
        cond = float(np.linalg.cond(a))
    except np.linalg.LinAlgError:
        cond = math.inf
    singular = bool(np.any(dead)) or not math.isfinite(cond) or cond > 1e12
    if singular:
        if on_singular == "raise":
            raise DegenerateFitError(
                f"{model.kind}: singular normal matrix; the data do not "
                "constrain all parameters")
        cov_s = np.linalg.pinv(a)
        notes.append("singular normal matrix; covariance from pseudo-inverse")
    else:
        cov_s = np.linalg.inv(a)
    cov = cov_s / np.outer(scale, scale) * red_chisq
    errs = np.sqrt(np.maximum(np.diag(cov), 0.0))
    for j in np.nonzero(dead)[0]:
        errs[j] = math.inf
        notes.append(f"parameter {model.param_names[j]!r} is unconstrained "
                     "by the data")

    return FitResult(
        model=model.kind,
        params=dict(zip(model.param_names, (float(v) for v in theta))),
        standard_errors=dict(zip(model.param_names, (float(e) for e in errs))),
        covariance=cov, residual_norm=math.sqrt(cost), n_points=len(x),
        n_iterations=n_iter, converged=converged, warnings=tuple(notes))


# ---------------------------------------------------------------------------
# Purpose-built fits
# ---------------------------------------------------------------------------

def fit_decay_trace(trace, with_background: bool = False,
                    skip_bins: int = 0) -> FitResult:
    """Exponential fit of a DecayTrace.

    Measured traces get Poisson-motivated weights sigma_i = sqrt(max(y_i, 1));
    simulated traces are fit unweighted.  skip_bins drops leading bins (for
    instrument fall-time contamination) instead of deconvolving.
    """
    if skip_bins < 0:
        raise ValueError(f"skip_bins must be >= 0, got {skip_bins}")
    t = trace.times[skip_bins:]
    y = trace.values[skip_bins:]
    if len(t) < 10:
        raise ValueError("need at least 10 bins to fit a decay trace")
    if float(np.max(y)) <= 0.0:
        raise ValueError("trace is all zero")
    sigma = np.sqrt(np.maximum(y, 1.0)) if trace.kind == "measured" else None
    kind = "single-exponential-background" if with_background else "single-exponential"
    result = least_squares_fit(kind, t, y, sigma=sigma)
    result.derived["tau_s"] = result.params["tau"]
    result.derived["rate_per_s"] = 1.0 / result.params["tau"]
    return result


def fit_tau_detuning(points) -> FitResult:
    """Fit tau(Delta) = tau1 / (1 + C f(Delta)) to (delta, tau[, sigma]) rows.

    Needs at least 4 points covering near-resonant and far-detuned regions.
    When C comes out consistent with zero, kappa is unidentifiable and the
    result carries a warning instead of an error.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise ValueError("points must be rows of (delta, tau) or (delta, tau, sigma)")
    if len(pts) < 4:
        raise ValueError("need at least 4 detuning points")
    delta, tau = pts[:, 0], pts[:, 1]
    if np.all(delta == delta[0]):
        raise DegenerateFitError("all points share one detuning; "
                                 "tau(Delta) cannot be constrained")
    sigma = pts[:, 2] if pts.shape[1] == 3 else None
    result = least_squares_fit("tau-detuning", delta, tau, sigma=sigma,
                               on_singular="pinv")
    c, kappa = result.params["c"], result.params["kappa"]
    c_err = result.standard_errors["c"]
    kappa_err = result.standard_errors["kappa"]
    if (not math.isfinite(kappa_err) or kappa_err > abs(kappa)
            or c <= 2.0 * c_err):
        result.warnings = result.warnings + (
            "kappa unidentifiable: no resolvable dip (C consistent with 0)",)
    result.derived["tau_min_s"] = result.params["tau1"] / (1.0 + c)
    return result


def fit_spectrum(spectrum) -> FitResult:
    """Cavity Lorentzian + ZPL Gaussian + linear baseline fit.

    ``spectrum`` is rows of (wavelength, intensity) in any consistent
    wavelength unit; at least 20 samples covering both features.  Derived
    outputs: cavity center, FWHM, Q = center/FWHM and background-subtracted
    peak heights.  Strongly overlapping peaks are flagged via the
    correlation of the two center estimates.
    """
    spec = np.asarray(spectrum, dtype=float)
    if spec.ndim != 2 or spec.shape[1] != 2:
        raise ValueError("spectrum must be rows of (wavelength, intensity)")
    if len(spec) < 20:
        raise ValueError("need at least 20 spectral samples")
    lam, inten = spec[:, 0], spec[:, 1]
    # the guess ranks the broader peak as the Lorentzian; with noisy or
    # overlapping peaks that ranking can be wrong, so fit both assignments
    # and keep the better one.  A vanishing peak leaves its center/width
    # unconstrained, which is reported as a warning rather than an error.
    guess = _guess_spectrum(lam, inten)
    root2ln2 = math.sqrt(2.0 * math.log(2.0))
    swapped = np.array([guess[3], guess[4], guess[5] * root2ln2,
                        guess[0], guess[1], guess[2] / root2ln2,
                        guess[6], guess[7]])
    result = None
    for init in (guess, swapped):
        candidate = least_squares_fit("lorentzian-plus-gaussian", lam, inten,
                                      init=init, on_singular="pinv")
        if result is None or candidate.residual_norm < result.residual_norm:
            result = candidate
    names = list(result.params)
    i_c, i_z = names.index("x_cav"), names.index("x_zpl")
    cov = result.covariance
    denom = math.sqrt(abs(cov[i_c, i_c] * cov[i_z, i_z]))
    if denom > 0.0 and abs(cov[i_c, i_z]) / denom > 0.99:
        result.warnings = result.warnings + (
            "peak centers are >99% correlated; the two features may not be "
            "independently resolvable",)
    w_cav = result.params["w_cav"]
    result.derived.update({
        "lambda_cav": result.params["x_cav"],
        "fwhm_cav": 2.0 * w_cav,
        "q_factor": result.params["x_cav"] / (2.0 * w_cav),
        "cavity_peak_height": result.params["a_cav"],
        "zpl_peak_height": result.params["a_zpl"],
    })
    return result

