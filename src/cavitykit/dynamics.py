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
conversion lives in the two generator builders and nowhere else.

The generator is chosen from the inputs alone, and one exact propagator
runs both: it diagonalizes the generator once and evaluates
exp(gen (t - t0)) on the whole time grid at once, at the same cost for
uniform and log-spaced grids.  Near the exceptional point
g = |kappa - gamma1|/4 (angular) the eigenvector basis is defective and the
eigen-expansion loses about eps*cond(V) (Moler & Van Loan, SIAM Rev. 45(1),
2003); when cond(V) exceeds _EIG_COND_LIMIT the matrix exponentials are
taken directly by scipy instead, the only place scipy is imported.  The
path that ran is recorded in the trace's meta["method"], with "-expm"
appended after that fallback:

* n_max=1 without return_states: the single-excitation block ("block").
  From |e, 0> every jump lands in |g, 0>, and dephasing jumps stay inside
  {|e, 0>, |g, 1>}, so the population follows exactly from a closed 4x4
  generator on that 2x2 block of rho (Auffeves et al., PRB 81, 245419
  (2010)).  The block's trace decays, so in place of the trace check its
  states are checked for conjugate coherences, real populations, tr <= 1
  and P_e(t0) = 1, each to 10*rel_tol.
* Every n_max >= 2, and return_states=True: the full Liouvillian on the
  Fock space truncated at n_max ("liouvillian"), built by Kronecker
  products independently of the block.  Its trace is checked to
  10*rel_tol.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._cells import format_rows, read_rows, read_text
from .units import to_angular

__all__ = [
    "AtomCavityParams", "DensityState", "DecayTrace", "RateEstimate",
    "IntegrationError",
    "evolve_master_equation", "analytic_total_rate", "tau_of_detuning",
    "extract_decay_rate", "load_decay_trace", "decay_trace_to_csv",
    "decay_trace_from_csv",
]


class IntegrationError(RuntimeError):
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
        if self.kappa_hz <= 0.0 or self.gamma1 <= 0.0:
            raise ValueError("cooperativity requires kappa > 0 and gamma1 > 0")
        g = to_angular(self.g0_hz)
        k = to_angular(self.kappa_hz)
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
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or len(t) == 0:
            raise ValueError("times and values must be equal-length 1-D arrays")
        if np.any(~np.isfinite(t)) or np.any(~np.isfinite(v)):
            raise ValueError("times and values must be finite")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if self.kind not in ("simulated", "measured"):
            raise ValueError(f"kind must be 'simulated' or 'measured', got {self.kind!r}")
        if np.any(v < -1e-9 * max(1.0, float(np.max(np.abs(v))))):
            raise ValueError("values must be >= 0")
        v = np.maximum(v, 0.0)
        if self.kind == "simulated" and np.any(v > 1.0 + 1e-6):
            raise ValueError("simulated populations must be <= 1")
        if self.bin_width_s is not None and not (self.bin_width_s > 0.0):
            raise ValueError("bin_width_s must be > 0 when given")
        t.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.times)


# ---------------------------------------------------------------------------
# Liouvillian construction
# ---------------------------------------------------------------------------

def _operators(n_max: int):
    """(sigma, sigma+sigma, c) on the product space, atom basis (g, e)."""
    dim_c = n_max + 1
    lower_atom = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
    a = np.diag(np.sqrt(np.arange(1, dim_c)), 1).astype(complex)
    eye_c = np.eye(dim_c, dtype=complex)
    eye_a = np.eye(2, dtype=complex)
    sigma = np.kron(lower_atom, eye_c)
    c = np.kron(eye_a, a)
    return sigma, sigma.conj().T @ sigma, c


def _lindblad_term(op: np.ndarray) -> np.ndarray:
    """Row-stacking superoperator matrix of D[op]."""
    d = op.shape[0]
    eye = np.eye(d, dtype=complex)
    opd_op = op.conj().T @ op
    return (np.kron(op, op.conj())
            - 0.5 * np.kron(opd_op, eye)
            - 0.5 * np.kron(eye, opd_op.T))


def liouvillian(params: AtomCavityParams, n_max: int) -> np.ndarray:
    """Master-equation generator as a matrix acting on row-stacked rho."""
    sigma, proj_e, c = _operators(n_max)
    g = to_angular(params.g0_hz)
    kappa = to_angular(params.kappa_hz)
    delta = to_angular(params.delta_hz)
    h = -delta * proj_e + g * (sigma.conj().T @ c + sigma @ c.conj().T)
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    liou = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    liou += params.gamma1 * _lindblad_term(sigma)
    if params.gamma_phi > 0.0:
        liou += 2.0 * params.gamma_phi * _lindblad_term(proj_e)
    if kappa > 0.0:
        liou += kappa * _lindblad_term(c)
    return liou


def _initial_state(n_max: int) -> np.ndarray:
    """|e, 0><e, 0| as a density matrix."""
    dim = 2 * (n_max + 1)
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[n_max + 1, n_max + 1] = 1.0  # atom excited, cavity vacuum
    return rho0


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

#: cond(V) of a generator's eigenvectors above which the basis counts as
#: defective.  The eigen-expansion is off by about 1e-17 * cond(V) near the
#: exceptional point, so this keeps it ~1e-12 from expm.  It holds for the
#: block and the Liouvillian alike: at n_max=2, cond(V) is ~1e10 within 1e-9
#: of the exceptional point and ~1e4 at 1e-3 from it.
_EIG_COND_LIMIT = 1e5


def _propagate(gen: np.ndarray, v0: np.ndarray, t_grid: np.ndarray):
    """exp(gen (t - t0)) v0 for every t in t_grid, one row per time, and
    whether the expm fallback ran.

    One eigendecomposition gives the whole grid at once, at the same cost
    for uniform and log-spaced grids.  When the eigenvectors are too ill
    conditioned to expand in (cond(V) > _EIG_COND_LIMIT, an exceptional
    point), the matrix exponentials are taken directly instead.
    """
    lam, vecs = np.linalg.eig(gen)
    if np.linalg.cond(vecs) > _EIG_COND_LIMIT:
        return _propagate_expm(gen, v0, t_grid), True
    coeffs = np.linalg.solve(vecs, v0)
    return (np.exp(np.outer(t_grid - t_grid[0], lam)) * coeffs) @ vecs.T, False


def _propagate_expm(gen, v0, t_grid):
    """The fallback: stacked scipy expm over the output times, each taken
    from t0, so no error accumulates from step to step.  The stack is cut
    into chunks of at most 2**19 entries (8 MB), which keeps a large
    Liouvillian's fallback from holding one matrix per output time at once;
    up to n_max=2 on 251 times that is a single call."""
    from scipy.linalg import expm  # here, so that importing cavitykit skips scipy

    dt = (t_grid - t_grid[0])[:, None, None]
    chunk = max(2 ** 19 // gen.size, 1)
    return np.concatenate([expm(gen * dt[i:i + chunk]) @ v0
                           for i in range(0, len(dt), chunk)])


# ---------------------------------------------------------------------------
# Single-excitation block
# ---------------------------------------------------------------------------

#: |e, 0><e, 0| in the block basis (rho_aa, rho_ab, rho_ba, rho_bb).
_BLOCK_START = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)


def _single_excitation_block(params: AtomCavityParams) -> np.ndarray:
    """Generator on the row-stacked {|e,0> = a, |g,1> = b} block of rho.

    d rho_aa = -gamma1 rho_aa + i g (rho_ab - rho_ba)
    d rho_ab = i g (rho_aa - rho_bb) + (i Delta - Gamma) rho_ab
    d rho_bb = -kappa rho_bb - i g (rho_ab - rho_ba)
    with Gamma = (gamma1 + kappa)/2 + gamma_phi and rho_ba = rho_ab*.
    """
    g = to_angular(params.g0_hz)
    kappa = to_angular(params.kappa_hz)
    delta = to_angular(params.delta_hz)
    half_width = 0.5 * (params.gamma1 + kappa) + params.gamma_phi
    ig = 1j * g
    return np.array([
        [-params.gamma1, ig, -ig, 0.0],
        [ig, 1j * delta - half_width, 0.0, -ig],
        [-ig, 0.0, -1j * delta - half_width, ig],
        [0.0, -ig, ig, -kappa],
    ], dtype=complex)


def _check_block(states: np.ndarray, t_grid, rel_tol: float):
    """Raise IntegrationError unless the block states are a valid
    sub-density-matrix from |e, 0> to 10*rel_tol."""
    tol = 10.0 * rel_tol
    pops = states[:, [0, 3]]
    checks = (
        ("block not Hermitian",
         np.maximum(np.abs(states[:, 1] - states[:, 2].conj()),
                    np.max(np.abs(pops.imag), axis=1))),
        ("block trace above 1", pops.real.sum(axis=1) - 1.0),
        ("negative block population", -np.min(pops.real, axis=1)),
    )
    for what, dev in checks:
        worst = int(np.argmax(dev))
        if not dev[worst] <= tol:
            raise IntegrationError(
                f"{what}: deviation {dev[worst]:.3e} at t = {t_grid[worst]:.6e}",
                last_time=float(t_grid[worst]))
    if not abs(states[0, 0] - 1.0) <= tol:
        raise IntegrationError(
            f"P_e(t0) = {states[0, 0].real:.12g}, expected 1",
            last_time=float(t_grid[0]))


def evolve_master_equation(params: AtomCavityParams, n_max: int = 1,
                           t_grid=None, rel_tol: float = 1e-8,
                           return_states: bool = False):
    """Excited-state population <s+ s>(t) from |e, 0> on the given time grid.

    The inputs choose the generator; one exact eigen-propagator runs both
    (one eigendecomposition, then the whole grid at once), with scipy expm
    only as the fallback at an exceptional point, where the eigenvectors
    are ill conditioned:

    * n_max=1 without return_states: the 4x4 single-excitation block, whose
      states are checked for Hermiticity, tr <= 1, non-negative populations
      and P_e(t0) = 1 to 10*rel_tol.
    * Anything else: the full Liouvillian at n_max, with the trace of rho
      checked to 10*rel_tol at every output time.

    A failed check raises IntegrationError.  meta["method"] of the returned
    trace names the path that ran: "block" or "liouvillian", with "-expm"
    appended when the fallback ran.  With return_states=True, also returns
    the list of DensityState snapshots.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not (rel_tol > 0.0):
        raise ValueError("rel_tol must be > 0")
    if t_grid is None:
        t_grid = np.linspace(0.0, 5.0 * params.tau1_s, 251)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise ValueError("t_grid must contain at least two times")
    if np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t_grid must be strictly increasing")

    if n_max == 1 and not return_states:
        method = "block"
        block, fell_back = _propagate(_single_excitation_block(params),
                                      _BLOCK_START, t_grid)
        _check_block(block, t_grid, rel_tol)
        values = block[:, 0].real
    else:
        method = "liouvillian"
        rho0 = _initial_state(n_max)
        vs, fell_back = _propagate(liouvillian(params, n_max),
                                   rho0.reshape(-1), t_grid)

        dim = rho0.shape[0]
        rhos = vs.reshape(len(t_grid), dim, dim)
        traces = np.einsum("kii->k", rhos).real
        if np.max(np.abs(traces - 1.0)) > 10.0 * rel_tol:
            worst = int(np.argmax(np.abs(traces - 1.0)))
            raise IntegrationError(
                f"trace not preserved: |tr rho - 1| = {abs(traces[worst]-1.0):.3e} "
                f"at t = {t_grid[worst]:.6e}", last_time=float(t_grid[worst]))

        excited = np.arange(n_max + 1, dim)
        values = np.einsum("kii->ki", rhos)[:, excited].sum(axis=1).real
    values = np.clip(values, 0.0, None)

    diffs = np.diff(t_grid)
    bin_width = float(diffs[0]) if np.allclose(diffs, diffs[0], rtol=1e-9) else None
    trace = DecayTrace(
        times=t_grid, values=np.minimum(values, 1.0), kind="simulated",
        bin_width_s=bin_width,
        meta={"g0_hz": params.g0_hz, "kappa_hz": params.kappa_hz,
              "gamma1_per_s": params.gamma1, "gamma_phi_per_s": params.gamma_phi,
              "delta_hz": params.delta_hz, "n_max": n_max, "rel_tol": rel_tol,
              "method": (method + "-expm") if fell_back else method})
    if return_states:
        states = [DensityState(matrix=rhos[i], n_max=n_max)
                  for i in range(len(t_grid))]
        return trace, states
    return trace


def analytic_total_rate(params: AtomCavityParams) -> float:
    """Weak-excitation population decay rate gamma1 + g^2 kappa / ((kappa/2)^2 + Delta^2).

    All frequencies enter as angular rates; the cavity is adiabatically
    eliminated, which is accurate for kappa well above g0 and gamma1.
    """
    if params.kappa_hz <= 0.0:
        raise ValueError("analytic rate requires kappa > 0")
    g = to_angular(params.g0_hz)
    k = to_angular(params.kappa_hz)
    d = to_angular(params.delta_hz)
    return params.gamma1 + g * g * k / ((0.5 * k) ** 2 + d ** 2)


def tau_of_detuning(c: float, kappa_hz: float, tau1_s: float, delta_hz):
    """tau(Delta) = tau1 / (C f(Delta) + 1) with f = 1 / (1 + 4 Delta^2/kappa^2).

    delta_hz may be a scalar or an array; kappa and Delta only enter as a
    ratio, so any consistent frequency convention works.
    """
    if not (c >= 0.0):
        raise ValueError(f"C must be >= 0, got {c!r}")
    if not (kappa_hz > 0.0):
        raise ValueError(f"kappa must be > 0, got {kappa_hz!r}")
    if not (tau1_s > 0.0):
        raise ValueError(f"tau1 must be > 0, got {tau1_s!r}")
    delta = np.asarray(delta_hz, dtype=float)
    with np.errstate(over="ignore"):   # |Delta| >> kappa: f -> 0, tau -> tau1
        f = 1.0 / (1.0 + 4.0 * (delta / kappa_hz) ** 2)
    tau = tau1_s / (c * f + 1.0)
    return float(tau) if np.isscalar(delta_hz) else tau


# ---------------------------------------------------------------------------
# Rate extraction from traces
# ---------------------------------------------------------------------------

class RateEstimate(NamedTuple):
    rate: float           # 1/s
    stderr: float         # 1/s
    window: tuple         # (t_start, t_end) actually used
    n_points: int
    curved: bool          # True when log-residual curvature is significant
    warnings: tuple = ()


def _log_fits(u, ly, w):
    """Weighted least-squares fits of ly on [1, u] and on [1, u, u^2].

    Returns the linear fit's slope and the quadratic fit's u^2 coefficient,
    each with its standard error (covariance scaled by chi^2/dof).  One QR
    of sqrt(w) [1, u, u^2] serves both fits, because the first two columns
    of Q span the linear model.  R is triangular, so the last coefficient of
    each fit is (Q^T b)_k / r_kk, and its variance, the kk entry of
    R^-1 R^-T, is 1 / r_kk^2.
    """
    sw = np.sqrt(w)
    q, r = np.linalg.qr(sw[:, None] * np.vander(u, 3, increasing=True))
    b = sw * ly
    qb = q.T @ b
    resid_lin = b - q[:, :2] @ qb[:2]
    resid_quad = resid_lin - q[:, 2] * qb[2]
    n = len(u)
    scale_lin = math.sqrt(float(resid_lin @ resid_lin) / max(n - 2, 1))
    scale_quad = math.sqrt(float(resid_quad @ resid_quad) / max(n - 3, 1))
    return (qb[1] / r[1, 1], scale_lin / abs(r[1, 1]),
            qb[2] / r[2, 2], scale_quad / abs(r[2, 2]))


def _coarse_lifetime(t, y):
    pos = y > max(1e-3 * float(np.max(y)), 0.0)
    if pos.sum() < 3:
        pos = y > 0
    if pos.sum() < 2:
        return t[-1] - t[0]
    # least-squares slope of log(y) on t, in closed form
    tc = t[pos] - np.mean(t[pos])
    ly = np.log(y[pos])
    slope = float(tc @ (ly - np.mean(ly))) / float(tc @ tc)
    if slope >= 0.0:
        return t[-1] - t[0]
    return min(-1.0 / slope, (t[-1] - t[0]))


def extract_decay_rate(trace: DecayTrace, window=None) -> RateEstimate:
    """Decay rate from a weighted linear regression of log(values).

    The default window is [0.5, 3] times a coarse single-exponential
    lifetime estimate.  Measured traces get Poisson-motivated weights
    (w = counts, since var log y ~ 1/y); simulated traces are unweighted.
    Non-positive samples inside the window are dropped with a warning.  A
    significant quadratic term in the log-residuals sets ``curved``
    (single-exponential model inadequate).
    """
    t = trace.times
    y = trace.values
    if window is None:
        tau_est = _coarse_lifetime(t, y)
        window = (t[0] + 0.5 * tau_est, t[0] + 3.0 * tau_est)
    t0, t1 = float(window[0]), float(window[1])
    sel = (t >= t0) & (t <= t1)
    notes = []
    bad = sel & (y <= 0.0)
    if np.any(bad):
        notes.append(f"dropped {int(bad.sum())} non-positive samples in window")
        sel &= y > 0.0
    if int(sel.sum()) < 10:
        raise ValueError("window must contain at least 10 positive samples")

    tt = t[sel]
    ly = np.log(y[sel])
    w = y[sel] if trace.kind == "measured" else np.ones(int(sel.sum()))

    # center and scale the abscissa so the quadratic fit stays conditioned
    t_mid = 0.5 * (tt[0] + tt[-1])
    t_scale = max(0.5 * (tt[-1] - tt[0]), 1e-300)
    u = (tt - t_mid) / t_scale

    slope, slope_err, c2, c2_err = _log_fits(u, ly, w)
    slope, slope_err = slope / t_scale, slope_err / t_scale
    c2, c2_err = c2 / t_scale ** 2, c2_err / t_scale ** 2
    span = tt[-1] - tt[0]
    # flag when the local slope varies by > 5% across the window and the
    # quadratic term is statistically significant
    curved = (abs(2.0 * c2 * span) > 0.05 * abs(slope)
              and abs(c2) > 3.0 * c2_err)

    return RateEstimate(rate=-slope, stderr=slope_err,
                        window=(t0, t1), n_points=int(sel.sum()),
                        curved=bool(curved), warnings=tuple(notes))


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
        elif not line.lower().startswith("time_s"):
            rows.append((lineno, line))
    data = read_rows(rows, (2,))
    return DecayTrace(times=data[:, 0], values=data[:, 1],
                      kind=kind, bin_width_s=bin_width, meta=meta)


def load_decay_trace(path) -> DecayTrace:
    return decay_trace_from_csv(read_text(path))
