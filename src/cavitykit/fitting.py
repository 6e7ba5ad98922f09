"""Weighted nonlinear least squares and the fit models used in this package.

The optimizer is a damped Gauss-Newton (Levenberg-Marquardt schedule) with
column-normalized Jacobians, which keeps the normal equations well
conditioned even when parameters span twenty orders of magnitude (kappa in
Hz next to tau in seconds).  With unit-norm columns the diagonal of J^T J
is 1, so Marquardt's diagonal scaling is the identity and the damping term
is lam * I.  Every model kind carries an analytic Jacobian; the tests check
each one against central differences.

Parameters have lower bounds only, and a step is raised to them; a
parameter on its bound that the gradient pushes below it is held there for
that iteration, so the gradient test sees only the free parameters.
Convergence: scaled gradient below 1e-12 or, on a small step (an accepted
step that lowers the sum of squares by less than 1e-4 of it), relative step
below 1e-10 or MINPACK's relative-reduction test (actual and
Gauss-Newton-predicted decreases both at most 1e-10 of the sum, the actual
no more than twice the predicted), which ends the slow linear tail of
large-residual Gauss-Newton; capped at 500 iterations, where hitting the cap
flags converged=False instead of raising.  Where that tail is long, the fit
crawls: once 3 small steps in a row each lower the sum by less than a
quarter of the same prediction, computed once per small step, the damped
normal matrix gains a secant approximation S of the second-order term that
Gauss-Newton leaves out, sum_i r_i Hess r_i for the residuals
r = (y - f)/sigma: the structured update of NL2SOL, with its sizing factor,
starting from S = 0 (Dennis, Gay & Welsch, ACM TOMS 7, 348 (1981)).  Where
S makes a step that does not lower the cost, the iteration goes on with the
Gauss-Newton step.  A fit that does not crawl runs pure Gauss-Newton, bit
for bit.  The covariance comes from a truncated SVD of the column-scaled
Jacobian; a singular one is noted, never raised.

Model kinds:
    single-exponential[-background]   A exp(-t/tau) [+ b]
    tau-detuning                      tau1 / (1 + C / (1 + 4 Delta^2/kappa^2))
    lorentzian-plus-gaussian          cavity + ZPL peaks on a linear baseline
    tanh-transmission                 plateau with tanh rolloff beyond |x| = x0
    exponential-saturation            T_inf (1 - exp(-L/L0))
    asymmetric-lorentzian             side-dependent widths, continuous at peak

Every model guesses its start from the data in closed form: the exponential
log-slope and the spectrum's baseline line from centred sums (the line
np.polyfit fits), the baseline's lowest 30% and the transmission plateau's
95% level from order statistics by np.partition (np.quantile's).  The
built-in Jacobians are column-major, so the loop's column norms, scaling and
products run over contiguous memory.

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

from ._cells import require_int

__all__ = [
    "DegenerateFitError", "FitModel", "FitResult", "MODEL_KINDS",
    "get_model", "least_squares_fit", "fit_decay_trace", "fit_tau_detuning",
    "fit_spectrum",
]

MAX_ITERATIONS = 500
STEP_TOL = 1e-10
GRAD_TOL = 1e-12
FTOL = 1e-10
# a small step lowers the sum of squares by less than _SMALL_DROP of it; the
# FTOL and STEP_TOL tests and the crawl gate run on small steps alone and read
# one Gauss-Newton prediction.  _CRAWL_STEPS in a row, each below _CRAWL_RHO
# of it, switch the secant term on; _CRAWL_RHO = 0 switches it off
_SMALL_DROP = 1e-4
_CRAWL_STEPS = 3
_CRAWL_RHO = 0.25


class DegenerateFitError(ValueError):
    """The Jacobian is not finite at the fit's end, or the data cannot be
    fit (one detuning; one wavelength; no finite start guessed from the
    data; both spectrum starts fail).  Not a singular fit."""


@dataclass(frozen=True)
class FitModel:
    """A fittable model: vectorized function, its analytic Jacobian, an
    initial-guess policy and one lower bound per parameter (may be -inf;
    parameters have no other bound).

    ``jacobian`` returns an (n, p) array of any memory layout; the built-in
    ones are column-major, each column a contiguous row of a (p, n) array
    filled in place.  A fit never writes into the arrays that ``fn`` and
    ``jacobian`` return, so both may hand back cached arrays or views."""

    kind: str
    param_names: tuple
    fn: Callable
    guess: Callable
    jacobian: Callable
    lower: tuple

    def __post_init__(self):
        if len(self.lower) != len(self.param_names):
            raise ValueError("bounds must match the parameter count")
        object.__setattr__(self, "lower", tuple(self.lower))


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


def _exp_cols(t, a, tau, out):
    """exp(-t/tau) and d/d tau of a exp(-t/tau) into out's two rows, with
    u = t/tau: 0, not 0/0 (tau^2 underflows), once tau sits at its 1e-300
    bound."""
    e, d = out
    u = np.divide(t, tau, out=d)
    np.negative(u, out=e)
    np.exp(e, out=e)
    u *= a
    d *= e
    d /= tau


def _exp_jac(t, th):
    jt = np.empty((2, len(t)))
    _exp_cols(t, th[0], th[1], jt)
    return jt.T


def _exp_bg_fn(t, th):
    return th[0] * np.exp(-t / th[1]) + th[2]


def _exp_bg_jac(t, th):
    jt = np.empty((3, len(t)))
    _exp_cols(t, th[0], th[1], jt[:2])
    jt[2] = 1.0
    return jt.T


def _slope(x, y):
    """Least-squares slope and intercept of y on x from centred sums (the
    line np.polyfit(x, y, 1) fits), or None when x has no spread.  x is
    shifted by x[0] before it is centred, so that equal values, whose mean
    need not round to their value, centre to exactly 0."""
    n = len(x)
    xc = x - x[0]
    xm = xc.sum() / n
    xc -= xm
    sxx = float(xc @ xc)
    if sxx == 0.0:
        return None
    ym = float(y.sum()) / n
    slope = float(xc @ (y - ym)) / sxx
    return slope, ym - slope * (xm + float(x[0]))


def _guess_exponential(t, y, with_background):
    b0 = 0.99 * float(y.min()) if with_background else 0.0
    yy = y - b0
    a0 = float(yy.max())
    if a0 <= 0.0:
        a0 = max(float(abs(y).max()), 1.0)
    pos = yy > 0.02 * a0
    span = float(t[-1] - t[0]) if t[-1] > t[0] else 1.0
    tau0 = span / 3.0
    if np.count_nonzero(pos) >= 3:
        line = _slope(t[pos], np.log(yy[pos]))
        if line is not None and line[0] < 0.0:
            tau0 = -1.0 / line[0]
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
    jt = np.empty((3, len(delta)))
    # each row is built in place, in the operation order of
    # f = 1 / (1 + 4 (delta/kappa)^2), denom = 1 + c f and
    # d f / d kappa = 8 kappa delta^2 / (kappa^2 + 4 delta^2)^2
    f, df_dkappa, denom = jt
    np.divide(delta, kappa, out=f)
    np.square(f, out=f)
    f *= 4.0
    f += 1.0
    np.divide(1.0, f, out=f)
    np.multiply(f, c, out=denom)
    denom += 1.0
    d2 = np.square(delta)
    np.multiply(d2, 8.0 * kappa, out=df_dkappa)
    d2 *= 4.0
    d2 += kappa ** 2
    np.square(d2, out=d2)
    df_dkappa /= d2
    # f = 1 at delta = 0 for every kappa, so d f / d kappa is 0 there; the
    # quotient is 0/0 once kappa^4 underflows (kappa at its 1e-300 bound)
    np.copyto(df_dkappa, 0.0, where=delta == 0.0)
    denom2 = np.square(denom)
    f *= -tau1
    f /= denom2
    df_dkappa *= -tau1 * c
    df_dkappa /= denom2
    np.divide(1.0, denom, out=denom)
    return jt.T


def _guess_tau_detuning(delta, tau):
    tau1 = float(tau.max())
    tau_min = float(tau.min())
    c0 = max(tau1 / tau_min - 1.0, 0.0) if tau_min > 0.0 else 0.0
    mid = 0.5 * (tau1 + tau_min)
    below = np.abs(delta)[tau < mid]
    if below.size and float(below.max()) > 0.0:
        kappa0 = 2.0 * float(below.max())  # dip FWHM ~ kappa
    else:
        kappa0 = max(0.25 * (float(delta.max()) - float(delta.min())),
                     float(abs(delta).max()) / 2.0, 1.0)
    return np.array([c0, kappa0, tau1])


def _spectrum_fn(x, th):
    a_c, x_c, w_c, a_z, x_z, s_z, b0, b1 = th
    # in place, in the operation order of
    # a_c / (1 + ((x - x_c)/w_c)^2) + a_z exp(-0.5 ((x - x_z)/s_z)^2) + b0 + b1 x
    out = x - x_c
    out /= w_c
    np.square(out, out=out)
    out += 1.0
    np.divide(a_c, out, out=out)
    gau = x - x_z
    gau /= s_z
    np.square(gau, out=gau)
    gau *= -0.5
    np.exp(gau, out=gau)
    gau *= a_z
    out += gau
    out += b0
    out += np.multiply(x, b1, out=gau)
    return out


def _lorentz_cols(x, a, x0, w, out):
    """d/d(a, x0, w) of a / (1 + ((x - x0)/w)^2) into out's three rows, in
    the operation order of u = (x - x0)/w, ell = 1/(1 + u u),
    d = 2 a u ell ell / w and d u."""
    ell, d, d_w = out
    u = np.subtract(x, x0, out=d_w)
    u /= w
    np.multiply(u, u, out=ell)
    ell += 1.0
    np.divide(1.0, ell, out=ell)
    np.multiply(u, 2.0 * a, out=d)
    d *= ell
    d *= ell
    d /= w
    d_w *= d


def _spectrum_jac(x, th):
    a_c, x_c, w_c, a_z, x_z, s_z, _, _ = th
    jt = np.empty((8, len(x)))
    _lorentz_cols(x, a_c, x_c, w_c, jt[:3])
    # v = (x - x_z)/s_z, gau = exp(-0.5 v v), d = a_z gau v / s_z and d v
    gau, d, v = jt[3:6]
    np.subtract(x, x_z, out=v)
    v /= s_z
    np.multiply(v, -0.5, out=gau)
    gau *= v
    np.exp(gau, out=gau)
    np.multiply(gau, a_z, out=d)
    d *= v
    d /= s_z
    v *= d
    jt[6] = 1.0
    jt[7] = x
    return jt.T


def _half_width(x, y, i_peak):
    """Half width at half maximum around a local peak, by interpolation."""
    x, y = x.tolist(), y.tolist()  # the walk reads single samples
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
    return max(sum(sides) / len(sides), span / max(4 * len(x), 40))


def _guess_spectrum(x, y):
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    # the baseline is the line through the samples at or below the order
    # statistic under np.quantile(ys, 0.3), the lowest 30%
    k = int(0.3 * (len(ys) - 1))
    low = ys <= np.partition(ys, k)[k]
    line = _slope(xs[low], ys[low])
    b1, b0 = (0.0, float(ys.min())) if line is None else line
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
    if hw1 < hw2:
        peaks.reverse()
    # both assignments of the peaks to the Lorentzian (cavity) and the
    # Gaussian (ZPL), the broader peak as the Lorentzian first;
    # sigma = HWHM / sqrt(2 ln 2)
    return [np.array([*cav, h, x0, hw / math.sqrt(2.0 * math.log(2.0)), b0, b1])
            for cav, (h, x0, hw) in (peaks, peaks[::-1])]


def _tanh_fn(x, th):
    t0, x0, s = th
    return t0 * 0.5 * (1.0 - np.tanh((np.abs(x) - x0) / s))


def _tanh_jac(x, th):
    t0, x0, s = th
    z = (np.abs(x) - x0) / s
    t = np.tanh(z)
    one_minus_t = 1.0 - t
    jt = np.empty((3, len(x)))
    jt[0] = 0.5 * one_minus_t
    jt[1] = d = 0.5 * t0 * one_minus_t * (1.0 + t) / s  # sech^2 without overflow
    jt[2] = d * z
    return jt.T


def _guess_tanh(x, y):
    # np.quantile(y, 0.95): its interpolation between order statistics k, k + 1
    v = 0.95 * (len(y) - 1)
    k = int(v)
    lo, hi = np.partition(y, (k, k + 1))[k:k + 2].tolist()
    g = v - k
    t0 = hi - (hi - lo) * (1.0 - g) if g >= 0.5 else lo + (hi - lo) * g
    ax = np.abs(x)
    order = np.argsort(ax)
    axs, yo = ax[order], y[order]
    below = np.nonzero(yo < 0.5 * t0)[0]
    x0 = float(axs[below[0]]) if below.size else float(axs.max())
    x0 = max(x0, 1e-3 * float(axs.max()) if axs.max() > 0 else 1e-3)
    return np.array([t0, x0, x0 / 4.0])


def _satur_fn(x, th):
    return th[0] * (1.0 - np.exp(-x / th[1]))


def _satur_jac(x, th):
    jt = np.empty((2, len(x)))
    _exp_cols(x, th[0], th[1], jt)
    np.subtract(1.0, jt[0], out=jt[0])
    np.negative(jt[1], out=jt[1])
    return jt.T


def _guess_satur(x, y):
    t_inf = float(y.max())
    level = (1.0 - math.exp(-1.0)) * t_inf
    above = np.nonzero(y >= level)[0]
    l0 = float(x[above[0]]) if above.size else float(x.max()) / 3.0
    return np.array([t_inf, max(l0, 1e-6 * float(x.max()))])


def _asym_lorentz_fn(x, th):
    a, x0, w_left, w_right = th
    w = np.where(x < x0, w_left, w_right)
    return a / (1.0 + ((x - x0) / w) ** 2)


def _asym_lorentz_jac(x, th):
    a, x0, w_left, w_right = th
    left = x < x0
    jt = np.empty((4, len(x)))
    _lorentz_cols(x, a, x0, np.where(left, w_left, w_right), jt[:3])
    np.copyto(jt[3], jt[2])
    jt[2][~left] = 0.0
    jt[3][left] = 0.0
    return jt.T


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
        lower=(-math.inf, _TINY)),
    "single-exponential-background": FitModel(
        kind="single-exponential-background",
        param_names=("amplitude", "tau", "background"),
        fn=_exp_bg_fn, jacobian=_exp_bg_jac,
        guess=lambda t, y: _guess_exponential(t, y, True),
        lower=(-math.inf, _TINY, -math.inf)),
    "tau-detuning": FitModel(
        kind="tau-detuning", param_names=("c", "kappa", "tau1"),
        fn=_tau_detuning_fn, jacobian=_tau_detuning_jac,
        guess=_guess_tau_detuning,
        lower=(0.0, _TINY, _TINY)),
    "lorentzian-plus-gaussian": FitModel(
        kind="lorentzian-plus-gaussian",
        param_names=("a_cav", "x_cav", "w_cav", "a_zpl", "x_zpl", "sigma_zpl",
                     "base_offset", "base_slope"),
        fn=_spectrum_fn, jacobian=_spectrum_jac,
        guess=lambda x, y: _guess_spectrum(x, y)[0],
        lower=(0.0, -math.inf, _TINY, 0.0, -math.inf, _TINY,
               -math.inf, -math.inf)),
    "tanh-transmission": FitModel(
        kind="tanh-transmission", param_names=("t0", "x0", "s"),
        fn=_tanh_fn, jacobian=_tanh_jac, guess=_guess_tanh,
        lower=(_TINY, _TINY, _TINY)),
    "exponential-saturation": FitModel(
        kind="exponential-saturation", param_names=("t_inf", "l0"),
        fn=_satur_fn, jacobian=_satur_jac, guess=_guess_satur,
        lower=(-math.inf, _TINY)),
    "asymmetric-lorentzian": FitModel(
        kind="asymmetric-lorentzian",
        param_names=("amplitude", "center", "w_left", "w_right"),
        fn=_asym_lorentz_fn, jacobian=_asym_lorentz_jac,
        guess=_guess_asym_lorentz,
        lower=(-math.inf, -math.inf, _TINY, _TINY)),
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
    # a sum is finite unless a value is nan or inf or the finite values
    # overflow it, and only then are the values looked at one by one
    if math.isfinite(np.add.reduce(arr)):
        return
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{name} must be finite; {name}[{i}] = {float(arr[i])!r}")


def _at(model, theta) -> str:
    return ", ".join(f"{n}={v:.6g}" for n, v in zip(model.param_names, theta))


def _secant_update(secant, scale, g, step, scale_old, jr_old, g_old, held_old):
    """S after the accepted step ``step``, in the column scaling ``scale`` of
    the new point, where g = J^T r; jr_old = J_old^T r_new and g_old, held
    zeroed in ``held_old``, are in the old point's scaling.  The Dennis-Gay-
    Welsch update: S is sized by min(1, |s.y#| / |s.S s|) and then meets the
    secant condition S s = y# = (J_old - J_new)^T r_new with the least change
    weighted by y, the change of the gradient of half the sum of squares.  A
    step with s.y <= 0 only carries S over to the new scaling."""
    ratio = scale_old / scale
    s = step * scale
    y_sharp = jr_old * ratio - g
    y = g_old * ratio - g
    if held_old is not None:
        # a held parameter did not move, and its columns were zeroed
        y_sharp[held_old] = 0.0
        y[held_old] = 0.0
    secant = secant * ratio[:, None] * ratio
    ys = float(y @ s)
    if not ys > 0.0:
        return secant
    s_s = secant @ s
    ss_s = float(s @ s_s)
    if ss_s != 0.0:
        size = min(1.0, abs(float(s @ y_sharp)) / abs(ss_s))
        secant *= size
        s_s *= size
    w = y_sharp - s_s
    wy = np.outer(w, y)
    secant += (wy + wy.T) / ys
    secant -= (float(w @ s) / ys ** 2) * np.outer(y, y)
    return secant


def least_squares_fit(model, x, y, sigma=None, init=None) -> FitResult:
    """Minimize sum(((y - model(x; theta)) / sigma)^2) over theta.

    sigma, when given, must be positive and supplies absolute weights: the
    covariance is that of known noise, unscaled (scipy curve_fit's
    absolute_sigma=True), and reduced_chisq shows a misfit.  Without it the
    fit is unweighted and the covariance is scaled by the residual variance
    (reduced chi-square scaling).  init defaults to the model's guess
    policy.

    The fit has converged once an iteration's scaled gradient is below
    GRAD_TOL, or a small step (an accepted step that decreases the sum of
    squares by less than _SMALL_DROP of it) has a relative step below
    STEP_TOL or passes MINPACK's relative-reduction test: its actual
    decrease and the decrease the Gauss-Newton model predicted for it are
    both at most FTOL times the sum of squares, and the actual is at most
    twice the predicted.

    The step solves the damped normal equations of the column-scaled
    Jacobian.  Once the fit crawls (_CRAWL_STEPS small steps in a row, each
    decreasing the sum of squares by less than _CRAWL_RHO of the same
    prediction; _CRAWL_RHO = 0 never crawls), the normal matrix gains S,
    the Dennis-Gay-Welsch secant approximation of the second-order term
    sum_i r_i Hess r_i (NL2SOL; ACM TOMS 7, 348 (1981)): from S = 0, each
    accepted step sizes S by min(1, |s.y#| / |s.S s|) and updates it to meet
    S s = y# = (J_old - J_new)^T r_new, J the weighted Jacobian of the
    model.  S lives in the loop's column scaling, and a held parameter's row
    and column of S are zeroed like its Jacobian column.  A trial step with
    S that does not lower the cost is tried again without S at the same
    damping, and the rest of that iteration is Gauss-Newton.  Until the
    crawl the fit is pure Gauss-Newton.

    The covariance is V_k diag(1/s_k^2) V_k^T, times the reduced chi-square
    when sigma is not given, from the SVD of the column-scaled Jacobian
    with singular values at or below 1e-6 of the largest truncated (a
    "singular normal matrix" note).  A parameter that is dead, has a
    component above 1e-3 in a truncated singular vector or whose variance
    overflows is noted as unconstrained, with an inf variance and SE.
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
    # an unweighted fit skips its multiplications by unit weights, which are
    # exact: it equals the fit with sigma = 1 bit for bit
    inv_sigma = None
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != y.shape or (sigma <= 0.0).any():
            raise ValueError("sigma must be positive and match y in length")
        _require_finite("sigma", sigma)
        inv_sigma = 1.0 / sigma

    # the model's arrays are never written into: the loop scales in place
    # only arrays it made (the residual, the weighted Jacobian), and divides
    # an unweighted Jacobian into a new array
    def residual(th):
        r = y - model.fn(x, th)
        if inv_sigma is not None:
            r *= inv_sigma
        return r

    # the weighted Jacobian with unit-norm columns (parameters of any raw
    # scale enter on an equal footing), the column norms and the dead
    # columns (norm <= 1e-280, left unscaled).  Weighting and scaling keep
    # the Jacobian's layout, so a column-major one is reduced, scaled and
    # multiplied column by column over contiguous memory
    def scaled_jacobian(th):
        jw = np.asarray(model.jacobian(x, th), dtype=float)
        if inv_sigma is not None:
            jw = jw * inv_sigma[:, None]
        scale = np.sqrt(np.add.reduce(jw * jw, axis=0))
        dead = scale <= 1e-280
        if dead.any():
            scale[dead] = 1.0
        if inv_sigma is None:
            return jw / scale, scale, dead
        jw /= scale
        return jw, scale, dead

    lower = np.array(model.lower)
    # a guess read off degenerate data can divide by zero, models overflow
    # far from the data and a runaway start's variances overflow; the
    # checks below handle all three.  A context, so that an exception
    # cannot leak the setting
    with np.errstate(all="ignore"):
        theta = np.array(model.guess(x, y) if init is None else init, dtype=float)
        if theta.shape != (p,):
            raise ValueError(f"init must supply {p} parameters for {model.kind}")
        if init is not None:
            _require_finite("init", theta)
        elif not np.isfinite(theta).all():
            raise DegenerateFitError(
                f"{model.kind}: the start guessed from the data is not finite "
                f"({_at(model, theta)}); pass init")
        theta = np.maximum(theta, lower)
        # per-parameter scale of the relative-step test; a parameter starting
        # at (or raised to) ~0 has no scale of its own, and the span of x
        # stands in
        typical = abs(theta)
        unscaled = typical <= _TINY
        if unscaled.any():
            typical[unscaled] = max(float(np.ptp(x)), _TINY)

        r = residual(theta)
        cost = float(r @ r)
        # scale for the gradient test: with unit-norm Jacobian columns the
        # gradient is linear in the weighted residual, so normalizing by the
        # weighted data norm makes the 1e-12 threshold dimensionless
        yw = y if inv_sigma is None else y * inv_sigma
        grad_tol = GRAD_TOL * max(math.sqrt(float(yw @ yw)), math.sqrt(cost), _TINY)
        # the normalized columns make diag(J^T J) 1 (0 for a dead column,
        # whose gradient and step are 0 anyway): Marquardt's scaling is I
        eye = np.eye(p)
        lam = 1e-3
        converged = False
        notes = []
        n_iter = 0
        # the count of slow small steps in a row; once the fit crawls, the
        # secant term S (in the column scaling of the last accepted step)
        # and that step's record
        slow, secant, last = 0, None, None

        while n_iter < MAX_ITERATIONS:
            n_iter += 1
            js, scale, dead = scaled_jacobian(theta)
            if dead.all():
                notes.append("model flat in all parameters; fit abandoned")
                break
            g = js.T @ r
            if last is not None:
                secant = _secant_update(secant, scale, g, *last)
            # a parameter on its bound that the gradient pushes below it is
            # held there: its column zeroed, its step is 0, like a dead one's
            held = None
            on_bound = theta <= lower
            if on_bound.any():
                held = on_bound & (g < 0.0)
                js[:, held] = 0.0
                g[held] = 0.0
            a = js.T @ js
            if abs(g).max() < grad_tol:
                converged = True
                break
            normal = a
            if secant is not None:
                normal = a + secant
                if held is not None:
                    normal[held] = 0.0
                    normal[:, held] = 0.0

            while lam <= 1e14:
                try:
                    delta_s = np.linalg.solve(normal + lam * eye, g)
                except np.linalg.LinAlgError:
                    lam *= 10.0
                    continue
                delta = delta_s / scale
                trial = np.maximum(theta + delta, lower)
                if (trial == theta).all():
                    # damping has shrunk the proposal below float
                    # resolution; nothing representable improves the cost
                    converged = True
                    break
                r_t = residual(trial)
                cost_t = float(r_t @ r_t)
                if math.isfinite(cost_t) and cost_t < cost:
                    drop = cost - cost_t
                    if drop < _SMALL_DROP * cost:
                        # a small step: one Gauss-Newton prediction feeds
                        # MINPACK's relative-reduction test and the crawl
                        # count; the relative step is per parameter, lest
                        # the largest mask motion in the others
                        pred = float(delta_s @ (2.0 * g - a @ delta_s))
                        ftol = FTOL * cost
                        converged = (drop <= ftol and pred <= ftol and drop <= 2.0 * pred
                                     or float((abs(trial - theta) / np.maximum(
                                         abs(theta), typical)).max()) < STEP_TOL)
                        slow = slow + 1 if drop < _CRAWL_RHO * pred else 0
                        if slow >= _CRAWL_STEPS and secant is None and not converged:
                            secant = np.zeros((p, p))
                    else:
                        slow = 0
                    if secant is not None:
                        last = (trial - theta, scale, js.T @ r_t, g, held)
                    theta, r, cost = trial, r_t, cost_t
                    lam = max(lam / 10.0, 1e-14)
                    break
                if normal is not a:
                    # the secant step did not lower the cost: the rest of
                    # this iteration, from this damping on, is Gauss-Newton
                    normal = a
                    continue
                lam *= 10.0
            else:
                notes.append("stalled: damping exhausted without cost reduction")
                break
            if converged:
                break

        if n_iter >= MAX_ITERATIONS and not converged:
            notes.append(f"iteration cap of {MAX_ITERATIONS} reached before convergence")

        js, scale, dead = scaled_jacobian(theta)
        if not np.isfinite(js).all():
            raise DegenerateFitError(
                f"{model.kind}: the Jacobian is not finite at the fitted "
                f"parameters ({_at(model, theta)}); the fit ran off to where "
                "the model's derivatives overflow or are undefined")
        _, s, vt = np.linalg.svd(js, full_matrices=False)
        cut = s <= 1e-6 * s[0]
        unconstrained = dead
        if cut.any():
            notes.append("singular normal matrix; covariance from pseudo-inverse")
            unconstrained |= (abs(vt[cut]) > 1e-3).any(axis=0)
            s, vt = s[~cut], vt[~cut]
        cov = (vt.T / s ** 2) @ vt / (scale[:, None] * scale)
        if inv_sigma is None:
            cov *= cost / max(len(x) - p, 1)
        unconstrained |= ~np.isfinite(cov.diagonal())
        for j in np.nonzero(unconstrained)[0]:
            cov[j, j] = math.inf
            notes.append(f"parameter {model.param_names[j]!r} is unconstrained "
                         "by the data")

    return FitResult(
        model=model.kind,
        params=dict(zip(model.param_names, theta.tolist())),
        standard_errors=dict(zip(model.param_names, map(math.sqrt, cov.diagonal().tolist()))),
        covariance=cov, residual_norm=math.sqrt(cost), n_points=len(x),
        n_iterations=n_iter, converged=converged, warnings=tuple(notes))


# ---------------------------------------------------------------------------
# Purpose-built fits
# ---------------------------------------------------------------------------

def fit_decay_trace(trace, with_background: bool = False,
                    skip_bins: int = 0) -> FitResult:
    """Exponential fit of a DecayTrace.

    Measured traces get Poisson-motivated weights sigma_i = sqrt(max(y_i, 1)),
    taken as known noise, so their values must be raw counts: the
    covariance is not rescaled by the reduced chi-square, and a normalized
    or background-subtracted trace gets standard errors off by its scale.
    Simulated traces are fit unweighted.  skip_bins, a non-negative integer,
    drops leading bins (for instrument fall-time contamination) instead of
    deconvolving.
    """
    require_int("skip_bins", skip_bins, 0)
    t = trace.times[skip_bins:]
    y = trace.values[skip_bins:]
    if len(t) < 10:
        raise ValueError("need at least 10 bins to fit a decay trace")
    if float(y.max()) <= 0.0:
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
    sigma = pts[:, 2] if pts.shape[1] == 3 else None
    _require_finite("delta", delta)
    _require_finite("tau", tau)
    if sigma is not None:
        _require_finite("sigma", sigma)
    if (delta == delta[0]).all():
        raise DegenerateFitError("all points share one detuning; "
                                 "tau(Delta) cannot be constrained")
    result = least_squares_fit("tau-detuning", delta, tau, sigma=sigma)
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

    The fit runs from the guess's two assignments of its peaks to the
    Lorentzian and the Gaussian, the broader as the Lorentzian first, and
    keeps the lower residual (the first on a tie; a start that raises
    DegenerateFitError loses).  A fitted width
    below the mean sample spacing, or a centre at or beyond an end of the
    sampled range, is noted.
    """
    spec = np.asarray(spectrum, dtype=float)
    if spec.ndim != 2 or spec.shape[1] != 2:
        raise ValueError("spectrum must be rows of (wavelength, intensity)")
    if len(spec) < 20:
        raise ValueError("need at least 20 spectral samples")
    lam, inten = spec[:, 0], spec[:, 1]
    # checked here, before the guess reads the samples
    _require_finite("wavelength", lam)
    _require_finite("intensity", inten)
    lo, hi = float(lam.min()), float(lam.max())
    if lo == hi:
        raise DegenerateFitError(f"every sample has the wavelength {lo!r}; "
                                 "a spectrum with no span cannot be fit")
    # with noisy or overlapping peaks the guess's ranking of the broader
    # peak as the Lorentzian can be wrong, so fit both of its assignments
    # and keep the better one.  A vanishing peak leaves its center/width
    # unconstrained, which is reported as a warning rather than an error.
    fits, causes = [], []
    for name, init in zip(("guess", "swapped"), _guess_spectrum(lam, inten)):
        try:
            fits.append(least_squares_fit("lorentzian-plus-gaussian", lam, inten,
                                          init=init))
        except DegenerateFitError as exc:
            causes.append(f"{name} start: {exc}")
    if not fits:
        raise DegenerateFitError("both starts failed; " + "; ".join(causes))
    result = min(fits, key=lambda fit: fit.residual_norm)
    par, se = result.params, result.standard_errors
    names = list(par)
    cov_cz = float(result.covariance[names.index("x_cav"), names.index("x_zpl")])
    se_cz = se["x_cav"] * se["x_zpl"]
    notes = []
    if 0.0 < se_cz < math.inf and abs(cov_cz) > 0.99 * se_cz:
        notes.append("peak centers are >99% correlated; the two features may "
                     "not be independently resolvable")
    spacing = (hi - lo) / (len(lam) - 1)
    notes += [f"{n} = {par[n]:.3g} is below the sample spacing {spacing:.3g}; "
              "the peak is not resolved"
              for n in ("w_cav", "sigma_zpl") if par[n] < spacing]
    notes += [f"{n} = {par[n]:.6g} lies at or beyond the edge of the sampled "
              f"range [{lo:.6g}, {hi:.6g}]"
              for n in ("x_cav", "x_zpl") if not lo < par[n] < hi]
    result.warnings += tuple(notes)
    w_cav = result.params["w_cav"]
    result.derived.update({
        "lambda_cav": result.params["x_cav"],
        "fwhm_cav": 2.0 * w_cav,
        "q_factor": result.params["x_cav"] / (2.0 * w_cav),
        "cavity_peak_height": result.params["a_cav"],
        "zpl_peak_height": result.params["a_zpl"],
    })
    return result

