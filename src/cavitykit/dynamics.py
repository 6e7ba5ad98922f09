"""Open-system dynamics of a two-level emitter coupled to a lossy cavity.

The model is the damped Jaynes-Cummings system in the frame rotating at the
cavity frequency,

    H/hbar = -Delta_a s+ s  +  g0 (s+ c + s c+),      Delta_a = w_c - w_a,

with Lindblad dissipators gamma1 D[s] (emitter decay), 2 gamma_phi D[s+ s]
(pure dephasing) and kappa D[c] (cavity loss).  The excited-state
population <s+ s>(t) starting from |e, 0> is the simulated observable.

Frequency conventions: g0, kappa and the detuning are ordinary frequencies
in Hz (the values experiments report as g0/2pi etc.) and are multiplied by
2pi internally; gamma1 and gamma_phi are plain rates in 1/s.  Getting this
wrong changes the cooperativity C = 4 g0^2/(kappa gamma1) by 2pi, so the
conversion lives in the generator builder and nowhere else.

From |e, 0> every jump lowers the excitation number: decay and cavity loss
land in |g, 0>, and dephasing jumps stay inside {|e, 0>, |g, 1>}.  So at any
Fock cutoff n_max only five entries of rho ever fill, the 2x2 block on
{|e, 0>, |g, 1>} and <g, 0|rho|g, 0> (Auffeves et al., PRB 81, 245419
(2010); Buca & Prosen, New J. Phys. 14, 073007 (2012)), and one closed 5x5
generator, written entry by entry, propagates them for every n_max.  The
rest of rho stays exactly 0.

One exact propagator runs it: it diagonalizes the generator once and
evaluates exp(gen (t - t0)) on the whole time grid at once, at the same cost
for uniform and log-spaced grids.  Near the exceptional point
g = |kappa - gamma1|/4 (angular) the eigenvector basis is defective and the
eigen-expansion loses about eps*cond(V) (Moler & Van Loan, SIAM Rev. 45(1),
2003).  cond(V) is taken in the 1-norm, |V|_1 |V^-1|_1, from the one
inverse that also gives the expansion coefficients; it is 3e9 to 5e10
within 1e-9 of the exceptional point and ~3e3 at 1e-3 from it.  When it
exceeds _EIG_COND_LIMIT = 1e5, or V is exactly singular, the matrix
exponentials are taken directly instead, by a scaling-and-squaring Taylor
series in numpy (the same paper's Method 3).
The trace's meta["method"] names the propagation that ran, "eig" or
"expm".  Every propagated state is checked for conjugate coherences, real
non-negative populations, unit trace and P_e(t0) = 1, each to 10*rel_tol.

extract_decay_rate takes the slope and the curvature of log(population)
as projections on polynomials orthogonal over the window's samples
(Forsythe, J. SIAM 5, 74 (1957)), with no matrix factorization.  A valid
DecayTrace passes on reductions alone; the per-sample checks that name the
first failure run only when one fails.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._cells import finite_real, format_rows, read_rows, read_text, require_int
from .units import to_angular

__all__ = [
    "AtomCavityParams", "DensityState", "DecayTrace", "RateEstimate",
    "IntegrationError",
    "evolve_master_equation", "analytic_total_rate", "slow_eigenrate", "tau_of_detuning",
    "extract_decay_rate", "load_decay_trace", "decay_trace_to_csv",
    "decay_trace_from_csv",
]


class IntegrationError(ValueError):
    """Raised when a propagated state fails its validity check.

    ``last_time`` holds the output time at which the check failed.
    """

    def __init__(self, message: str, last_time: float):
        super().__init__(message)
        self.last_time = last_time


@dataclass(frozen=True)
class AtomCavityParams:
    """Emitter-cavity model parameters.

    g0_hz, kappa_hz, delta_hz are ordinary frequencies (Hz); delta_hz is the
    signed cavity-minus-emitter detuning.  gamma1 and gamma_phi are rates in
    1/s.  The transverse decoherence rate gamma2 = gamma1/2 + gamma_phi is
    derived, never stored.
    """

    g0_hz: float
    kappa_hz: float
    gamma1: float
    gamma_phi: float = 0.0
    delta_hz: float = 0.0

    def __post_init__(self):
        for name in ("g0_hz", "kappa_hz", "gamma1", "gamma_phi"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        if not math.isfinite(self.delta_hz):
            raise ValueError(f"delta_hz must be finite, got {self.delta_hz!r}")

    @property
    def gamma2(self) -> float:
        return 0.5 * self.gamma1 + self.gamma_phi

    @property
    def tau1_s(self) -> float:
        if self.gamma1 <= 0.0:
            raise ValueError("gamma1 is zero; lifetime undefined")
        return 1.0 / self.gamma1

    @property
    def cooperativity(self) -> float:
        """C = 4 g0^2 / (kappa gamma1), with g0 and kappa as angular rates."""
        return self._cooperativity(0.0)

    @property
    def effective_cooperativity(self) -> float:
        """C_eff = 4 g0^2 / (K gamma1) with the total linewidth K = kappa +
        2 gamma_phi (angular), so gamma1 (1 + C_eff) is analytic_total_rate on
        resonance and C_eff is the C a tau(Delta) fit reads; it is
        cooperativity at gamma_phi = 0."""
        return self._cooperativity(2.0 * self.gamma_phi)

    def _cooperativity(self, widening: float) -> float:
        if self.kappa_hz <= 0.0 or self.gamma1 <= 0.0:
            raise ValueError("cooperativity requires kappa > 0 and gamma1 > 0")
        g = to_angular(self.g0_hz)
        k = to_angular(self.kappa_hz) + widening
        return 4.0 * g * g / (k * self.gamma1)

    def detuned(self, delta_hz: float) -> "AtomCavityParams":
        return AtomCavityParams(self.g0_hz, self.kappa_hz, self.gamma1,
                                self.gamma_phi, delta_hz)


@dataclass(frozen=True)
class DensityState:
    """Density matrix on (two-level atom) x (Fock space truncated at n_max)."""

    matrix: np.ndarray
    n_max: int

    def trace_deviation(self) -> float:
        return abs(complex(np.trace(self.matrix)) - 1.0)

    def hermiticity_deviation(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))[0])


@dataclass(frozen=True)
class DecayTrace:
    """Time-binned excited-state population (simulated) or counts (measured)."""

    times: np.ndarray
    values: np.ndarray
    kind: str = "simulated"
    bin_width_s: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.array(self.times, dtype=float)  # a copy: the caller's array stays writeable
        v = np.asarray(self.values, dtype=float)
        _check_samples(t, v, self.kind)
        v = np.maximum(v, 0.0)
        if self.bin_width_s is not None and not (finite_real(self.bin_width_s)
                                                 and self.bin_width_s > 0.0):
            raise ValueError("bin_width_s must be a positive finite number, "
                             f"got {self.bin_width_s!r}")
        t.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.times)


def _check_samples(t, v, kind, linenos=None):
    """Raise on the first rule a trace breaks; sample i is on line linenos[i].

    A valid trace passes on reductions alone: the ends of a strictly
    increasing t bound the other times, as the extremes of v bound the
    other values, and each comparison fails on a nan.  The checks that name
    the first failure, in their order of precedence, run only when one of
    those fails.
    """
    if t.ndim != 1 or t.shape != v.shape or len(t) == 0:
        raise ValueError("times and values must be equal-length 1-D arrays")
    lo, hi = float(v.min()), float(v.max())  # a nan propagates to both
    floor = -1e-9 * max(1.0, hi, -lo)  # max(1, max |v|)
    if (-math.inf < t[0] and t[-1] < math.inf and -math.inf < lo and hi < math.inf
            and kind in ("simulated", "measured") and (t[1:] > t[:-1]).all()
            and lo >= floor and (hi <= 1.0 + 1e-6 or kind != "simulated")):
        return
    if not (np.isfinite(t).all() and np.isfinite(v).all()):
        raise ValueError("times and values must be finite")
    if kind not in ("simulated", "measured"):
        raise ValueError(f"kind must be 'simulated' or 'measured', got {kind!r}")
    for bad, message in (
            (np.diff(t, prepend=-np.inf) <= 0.0, "times must be strictly increasing"),
            (v < floor, "values must be >= 0"),
            ((v > 1.0 + 1e-6) & (kind == "simulated"), "simulated populations must be <= 1")):
        if bad.any():
            where = f"line {linenos[bad.argmax()]}: " if linenos else ""
            raise ValueError(where + message)


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

#: |e, 0><e, 0| in the basis (rho_gg, rho_aa, rho_ab, rho_ba, rho_bb).
_RHO0 = np.array([0.0, 1.0, 0.0, 0.0, 0.0], dtype=complex)


def _generator(params: AtomCavityParams) -> np.ndarray:
    """Generator on the five entries of rho that fill from |e, 0>, with
    a = |e, 0>, b = |g, 1>, g = |g, 0>:

    d rho_gg = gamma1 rho_aa + kappa rho_bb
    d rho_aa = -gamma1 rho_aa + i g (rho_ab - rho_ba)
    d rho_ab = i g (rho_aa - rho_bb) + (i Delta - Gamma) rho_ab
    d rho_bb = -kappa rho_bb - i g (rho_ab - rho_ba)
    with Gamma = (gamma1 + kappa)/2 + gamma_phi and rho_ba = rho_ab*.

    rho_gg comes first, so the first column is the zero one: at the paper
    point the eig propagator is then about 5x closer to expm than with
    rho_gg last (6e-12 against 3e-11 in the median of random sets there).
    """
    g = to_angular(params.g0_hz)
    kappa = to_angular(params.kappa_hz)
    delta = to_angular(params.delta_hz)
    half_width = 0.5 * (params.gamma1 + kappa) + params.gamma_phi
    ig = 1j * g
    return np.array([
        [0.0, params.gamma1, 0.0, 0.0, kappa],
        [0.0, -params.gamma1, ig, -ig, 0.0],
        [0.0, ig, 1j * delta - half_width, 0.0, -ig],
        [0.0, -ig, 0.0, -1j * delta - half_width, ig],
        [0.0, 0.0, -ig, ig, -kappa],
    ], dtype=complex)


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

#: cond(V) = |V|_1 |V^-1|_1 of a generator's eigenvectors above which the
#: basis counts as defective.  The eigen-expansion is off by about
#: 1e-17 * cond(V) near the exceptional point, so this keeps it ~1e-12 from
#: expm.  For a 5x5 matrix the 1-norm cond is within a factor 5 of the
#: 2-norm one, and the generator sits decades from this limit on either
#: side: its 1-norm cond(V) is 3e9 to 5e10 within 1e-9 of the exceptional
#: point and ~3e3 at 1e-3 from it.
_EIG_COND_LIMIT = 1e5

#: Largest n_max evolve_master_equation accepts.  n_max only sizes the
#: density matrices return_states=True returns: (2 (n_max + 1))^2 complex
#: entries per output time, 16 KiB at n_max = 15.
_N_MAX_LIMIT = 15


def _propagate(gen: np.ndarray, v0: np.ndarray, t_grid: np.ndarray):
    """exp(gen (t - t0)) v0 for every t in t_grid, one row per time, and
    whether the expm fallback ran.

    One eigendecomposition gives the whole grid at once, at the same cost
    for uniform and log-spaced grids.  When the eigenvectors are too ill
    conditioned to expand in (|V|_1 |V^-1|_1 > _EIG_COND_LIMIT, an
    exceptional point) or exactly singular, _propagate_expm takes the
    matrix exponentials directly instead, on the 5x5 generator.  The one
    inverse serves both the condition number and the expansion
    coefficients.
    """
    lam, vecs = np.linalg.eig(gen)
    try:
        inv = np.linalg.inv(vecs)
    except np.linalg.LinAlgError:  # a zero pivot: V is singular
        return _propagate_expm(gen, v0, t_grid), True
    # the eigenvectors have unit 2-norm, so |V|_1 <= sqrt(n) and the limit
    # divided by it cannot overflow; a nan |V^-1|_1 also falls back
    limit = _EIG_COND_LIMIT / np.abs(vecs).sum(axis=0).max()
    if not np.abs(inv).sum(axis=0).max() <= limit:
        return _propagate_expm(gen, v0, t_grid), True
    return np.exp(np.multiply.outer(t_grid - t_grid[0], lam)) @ (vecs * (inv @ v0)).T, False


def _propagate_expm(gen, v0, t_grid):
    """The fallback: one stacked _expm of gen (t - t0) over the output
    times, each taken from t0, so no error accumulates from step to step."""
    return _expm(gen * (t_grid - t_grid[0])[:, None, None]) @ v0


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix in the stack a (k, n, n), by scaling and squaring.

    Each matrix is scaled by its own 2**-s to a 1-norm below 1, where the
    first term the degree-18 Taylor series leaves out is below 1/19! = 8e-18,
    and is then squared s times (Moler & Van Loan 2003, Method 3).  The
    series is summed in Horner form and carried as exp - I, squared as
    2 R + R R, so a conserved trace keeps an error below 1e-15 where I
    summed in gives 4e-15 to 8e-15.
    """
    _, s = np.frexp(np.abs(a).sum(axis=-2).max(axis=-1))
    s = np.maximum(s, 0)
    a = a * np.exp2(-s)[:, None, None]
    r = a / 18.0
    for j in range(17, 0, -1):
        r = (a + a @ r) / j
    for i in range(int(s.max(initial=0))):
        more = s > i
        r[more] = 2.0 * r[more] + r[more] @ r[more]
    return r + np.eye(a.shape[-1])


def _check_states(states: np.ndarray, t_grid, rel_tol: float):
    """Raise IntegrationError unless the five entries are those of a density
    matrix from |e, 0>, to 10*rel_tol."""
    tol = 10.0 * rel_tol
    gg, aa, bb = states[:, 0], states[:, 1], states[:, 4]  # the populations
    checks = (
        ("rho not Hermitian",
         np.maximum(np.maximum(np.abs(states[:, 2] - states[:, 3].conj()), np.abs(gg.imag)),
                    np.maximum(np.abs(aa.imag), np.abs(bb.imag)))),
        ("negative population", -np.minimum(np.minimum(gg.real, aa.real), bb.real)),
        ("trace not preserved", np.abs(gg.real + aa.real + bb.real - 1.0)),
    )
    for what, dev in checks:
        worst = int(dev.argmax())
        if not dev[worst] <= tol:
            raise IntegrationError(
                f"{what}: deviation {dev[worst]:.3e} at t = {t_grid[worst]:.6e}",
                last_time=float(t_grid[worst]))
    if not abs(states[0, 1] - 1.0) <= tol:
        raise IntegrationError(
            f"P_e(t0) = {states[0, 1].real:.12g}, expected 1",
            last_time=float(t_grid[0]))


def evolve_master_equation(params: AtomCavityParams, n_max: int = 1,
                           t_grid=None, rel_tol: float = 1e-8,
                           return_states: bool = False):
    """Excited-state population <s+ s>(t) from |e, 0> on the given time grid.

    One path for every n_max: the closed 5x5 generator on the entries of rho
    that fill from |e, 0>, one exact eigen-propagator (one
    eigendecomposition, then the whole grid at once), with a numpy
    scaling-and-squaring exponential only as the fallback at an exceptional
    point, where the eigenvectors are ill conditioned.  The states are
    checked for conjugate coherences, real non-negative populations, unit
    trace and P_e(t0) = 1 to 10*rel_tol; a failed check raises
    IntegrationError.  meta["method"] of the returned trace names the
    propagation that ran, "eig" or "expm".

    n_max, the Fock cutoff, only sizes the density matrices that
    return_states=True returns, as DensityState snapshots alongside the
    trace; their other entries are exactly 0.  An n_max that is not an
    integer from 1 to _N_MAX_LIMIT is a ValueError.
    """
    require_int("n_max", n_max, 1)
    if n_max > _N_MAX_LIMIT:
        raise ValueError(f"n_max must be <= {_N_MAX_LIMIT}, got {n_max}")
    if not (0.0 < rel_tol < math.inf):
        raise ValueError(f"rel_tol must be finite and > 0, got {rel_tol!r}")
    if t_grid is None:
        t_grid = np.linspace(0.0, 5.0 * params.tau1_s, 251)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError("t_grid must contain at least two times")
    diffs = t_grid[1:] - t_grid[:-1]
    # finite ends and positive steps make every time finite; the checks
    # run in their order of precedence only when that fails
    if not (-math.inf < t_grid[0] and t_grid[-1] < math.inf and (diffs > 0.0).all()):
        if not np.isfinite(t_grid).all():
            raise ValueError("t_grid must be finite")
        if (diffs <= 0.0).any():
            raise ValueError("t_grid must be strictly increasing")

    states, fell_back = _propagate(_generator(params), _RHO0, t_grid)
    _check_states(states, t_grid, rel_tol)
    values = np.clip(states[:, 1].real, 0.0, 1.0)

    uniform = (np.abs(diffs - diffs[0]) <= 1e-9 * diffs[0]).all()
    bin_width = float(diffs[0]) if uniform else None
    trace = DecayTrace(
        times=t_grid, values=values, kind="simulated", bin_width_s=bin_width,
        meta={"g0_hz": params.g0_hz, "kappa_hz": params.kappa_hz,
              "gamma1_per_s": params.gamma1, "gamma_phi_per_s": params.gamma_phi,
              "delta_hz": params.delta_hz, "n_max": n_max, "rel_tol": rel_tol,
              "method": "expm" if fell_back else "eig"})
    if return_states:
        dim, e0 = 2 * (n_max + 1), n_max + 1
        rhos = np.zeros((len(t_grid), dim, dim), dtype=complex)
        rhos[:, [0, e0, e0, 1, 1], [0, e0, 1, e0, 1]] = states
        return trace, [DensityState(matrix=rho, n_max=n_max) for rho in rhos]
    return trace


def analytic_total_rate(params: AtomCavityParams) -> float:
    """Weak-excitation population decay rate gamma1 + g^2 K / ((K/2)^2 + Delta^2),
    with the total linewidth K = kappa + 2 gamma_phi.

    All frequencies enter as angular rates; the cavity is adiabatically
    eliminated, which is accurate for gamma1 and 4 g^2/K well below kappa.
    The coherence between |e, 0> and |g, 1> decays at K/2 (gamma1/2 left
    out, so K is kappa exactly at gamma_phi = 0): pure dephasing widens the
    Purcell Lorentzian and lowers its peak.
    """
    if params.kappa_hz <= 0.0:
        raise ValueError("analytic rate requires kappa > 0")
    g = to_angular(params.g0_hz)
    k = to_angular(params.kappa_hz) + 2.0 * params.gamma_phi
    d = to_angular(params.delta_hz)
    return params.gamma1 + g * g * k / ((0.5 * k) ** 2 + d ** 2)


def slow_eigenrate(params: AtomCavityParams) -> float:
    """-Re of the generator's least-damped decaying eigenvalue, in 1/s.

    The slowest decay of the population from |e, 0> by the full model,
    with no adiabatic elimination: the rate the trace settles into, which
    analytic_total_rate approximates.  rho_gg's column of the generator is
    zero, so the block without it holds the other four eigenvalues.
    """
    return float(-np.linalg.eigvals(_generator(params)[1:, 1:]).real.max())


def tau_of_detuning(c: float, kappa_hz: float, tau1_s: float, delta_hz):
    """tau(Delta) = tau1 / (C f(Delta) + 1) with f = 1 / (1 + 4 Delta^2/kappa^2).

    delta_hz may be a scalar or an array; kappa and Delta only enter as a
    ratio, so any consistent frequency convention works.  Under pure
    dephasing the dip's width is the total linewidth, kappa + gamma_phi/pi
    in Hz, and its depth AtomCavityParams.effective_cooperativity.  Every
    argument must be finite.
    """
    for name, v in (("C", c), ("kappa", kappa_hz), ("tau1", tau1_s)):
        if not finite_real(v):
            raise ValueError(f"{name} must be a finite number, got {v!r}")
    if c < 0.0:
        raise ValueError(f"C must be >= 0, got {c!r}")
    if kappa_hz <= 0.0:
        raise ValueError(f"kappa must be > 0, got {kappa_hz!r}")
    if tau1_s <= 0.0:
        raise ValueError(f"tau1 must be > 0, got {tau1_s!r}")
    delta = np.asarray(delta_hz, dtype=float)
    bad = ~np.isfinite(delta)
    if bad.any():
        raise ValueError(f"delta_hz must be finite, got {float(delta[bad].flat[0])!r}")
    with np.errstate(over="ignore"):   # |Delta| >> kappa: f -> 0, tau -> tau1
        f = 1.0 / (1.0 + 4.0 * (delta / kappa_hz) ** 2)
    tau = tau1_s / (c * f + 1.0)
    return float(tau) if np.isscalar(delta_hz) else tau


# ---------------------------------------------------------------------------
# Rate extraction from traces
# ---------------------------------------------------------------------------

class RateEstimate(NamedTuple):
    rate: float           # 1/s; no stderr: a simulated trace has no noise
    window: tuple         # (t_start, t_end) actually used
    n_points: int
    curved: bool          # local log-slope varies by > 5%: not one exponential
    warnings: tuple = ()


def _coarse_lifetime(t, y):
    pos = y > 1e-3 * float(y.max())
    n = np.count_nonzero(pos)
    if n < 3:
        pos = y > 0
        n = np.count_nonzero(pos)
    if n < 2:
        return t[-1] - t[0]
    # least-squares slope of log(y) on t, in closed form; sum / n is np.mean
    tp = t[pos]
    tc = tp - tp.sum() / n
    ly = np.log(y[pos])
    slope = float(tc @ (ly - ly.sum() / n)) / float(tc @ tc)
    if slope >= 0.0:
        return t[-1] - t[0]
    return min(-1.0 / slope, (t[-1] - t[0]))


def extract_decay_rate(trace: DecayTrace) -> RateEstimate:
    """Decay rate of a simulated trace from a linear regression of log(values).

    The window is [0.5, 3] times a coarse single-exponential lifetime
    estimate, counted from the first sample.  Non-positive samples inside it
    are dropped with a warning.  ``curved`` is set when the local log-slope
    of a quadratic fit varies by more than 5% across the window: the trace
    is not one exponential there (strong coupling makes it oscillate), and
    ``rate`` is no decay rate.  Both fits are unweighted least squares,
    each read off one projection on an orthogonal polynomial.  No standard
    error is reported, since a simulated trace has no noise.  Measured
    counts need weights and error bars: fitting.fit_decay_trace fits them.
    """
    if trace.kind != "simulated":
        raise ValueError(f"extract_decay_rate reads simulated traces, got kind={trace.kind!r}; "
                         "fit measured counts with fitting.fit_decay_trace")
    t, y = trace.times, trace.values
    tau_est = _coarse_lifetime(t, y)
    t0, t1 = float(t[0] + 0.5 * tau_est), float(t[0] + 3.0 * tau_est)
    sel = (t >= t0) & (t <= t1)
    tt, ys = t[sel], y[sel]
    notes = []
    pos = ys > 0.0
    n = np.count_nonzero(pos)
    if n < len(ys):
        notes.append(f"dropped {len(ys) - n} non-positive samples in window")
        tt, ys = tt[pos], ys[pos]
    if n < 10:
        raise ValueError(f"window [{t0:.4g}, {t1:.4g}] s holds {n} positive "
                         "samples, fewer than 10: sample the decay more finely")
    ly = np.log(ys)

    # center and scale the abscissa: u runs from -1 to 1 over the window,
    # whose n >= 10 increasing times give it a positive span
    t_span = float(tt[-1] - tt[0])
    t_scale = 0.5 * t_span
    u = (tt - 0.5 * (tt[0] + tt[-1])) / t_scale

    # the last coefficient of the least-squares fit of ly on [1, u] and on
    # [1, u, u^2] is the projection of ly on the monic polynomial of that
    # degree orthogonal to the lower ones over the samples (Forsythe, J. SIAM
    # 5, 74 (1957)): p1 = u - mean(u), and p2 = (u - a) p1 - <p1, p1>/n with
    # a = <u p1, p1>/<p1, p1>
    p1 = u - u.sum() / n
    p1p1 = float(p1 @ p1)
    p2 = (u - float((u * p1) @ p1) / p1p1) * p1 - p1p1 / n
    slope = float(p1 @ ly) / p1p1 / t_scale
    c2 = float(p2 @ ly) / float(p2 @ p2) / t_scale ** 2
    curved = abs(2.0 * c2 * t_span) > 0.05 * abs(slope)

    return RateEstimate(rate=-slope, window=(t0, t1), n_points=int(n),
                        curved=curved, warnings=tuple(notes))


# ---------------------------------------------------------------------------
# DecayTrace CSV round-trip
# ---------------------------------------------------------------------------

def decay_trace_to_csv(trace: DecayTrace) -> str:
    lines = ["# decay-trace schema_version=1",
             f"# kind={trace.kind}"]
    if trace.bin_width_s is not None:
        lines.append(f"# bin_width_s={float(trace.bin_width_s)!r}")
    for key in sorted(trace.meta):
        val = trace.meta[key]
        if isinstance(val, (float, np.floating)):
            val = float(val)
        elif isinstance(val, np.integer):
            val = int(val)
        lines.append(f"# {key}={val!r}")
    lines.append("time_s,value")
    return "\n".join(lines) + "\n" + format_rows(zip(trace.times, trace.values))


def decay_trace_from_csv(text: str) -> DecayTrace:
    """The trace decay_trace_to_csv wrote; data rows as in _cells.read_rows."""
    kind = "simulated"
    bin_width = None
    meta, rows = {}, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body and not body.startswith("decay-trace"):
                key, _, val = body.partition("=")
                key = key.strip()
                if key == "kind":
                    kind = val.strip()
                    if kind not in ("simulated", "measured"):
                        raise ValueError(f"line {lineno}: kind must be 'simulated' or "
                                         f"'measured', got {kind!r}")
                elif key == "bin_width_s":
                    try:
                        bin_width = float(val)
                    except ValueError:
                        bin_width = math.nan
                    if not (0.0 < bin_width < math.inf):
                        raise ValueError(f"line {lineno}: bin_width_s must be a positive "
                                         f"finite number, got {val.strip()!r}")
                else:
                    try:
                        meta[key] = ast.literal_eval(val.strip())
                    except (ValueError, TypeError, SyntaxError, RecursionError):
                        meta[key] = val.strip()  # not a literal: kept as text
        elif line and (rows or not line.lower().startswith("time_s")):
            rows.append((lineno, line))  # a header only before the first data row
    data = read_rows(rows, (2,))
    _check_samples(data[:, 0], data[:, 1], kind, [lineno for lineno, _ in rows])
    return DecayTrace(times=data[:, 0], values=data[:, 1],
                      kind=kind, bin_width_s=bin_width, meta=meta)


def load_decay_trace(path) -> DecayTrace:
    return decay_trace_from_csv(read_text(path))
