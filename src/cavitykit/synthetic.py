"""Synthetic fixture datasets: decay traces, detuning sweeps, spectra, field maps.

These generators stand in for measured data and for the (unavailable)
solver field maps.  Without an rng they are exact model evaluations, so
fits against them are zero-residual round trips; with an rng (a numpy
``Generator``) they add the appropriate noise (Poisson counts for traces,
Gaussian otherwise).  A bad argument (a size that is not an integer >= 2,
a peak that is not three finite numbers with a positive width, a negative
count level or noise fraction) is a ValueError that names it.

The default parameter set matches the device regime this package targets:
g0/2pi = 0.57 GHz, kappa/2pi = 940 GHz, tau1 = 15.9 ns (so C ~ 0.14) and
1.28 ns time bins.  Sweeps sample DEFAULT_DETUNING_STEPS (in units of
kappa) and spectra 630-645 nm.
"""

from __future__ import annotations

import numpy as np

from ._cells import finite_real, require_int
from .dynamics import AtomCavityParams, DecayTrace, analytic_total_rate, tau_of_detuning
from .coupling import FieldGrid

__all__ = [
    "DEFAULT_ATOM_CAVITY", "TIME_BIN_S", "DEFAULT_DETUNING_STEPS",
    "synthetic_decay_trace", "synthetic_tau_detuning", "synthetic_spectrum",
    "synthetic_field_grid",
]

DEFAULT_ATOM_CAVITY = AtomCavityParams(
    g0_hz=0.57e9, kappa_hz=940e9, gamma1=1.0 / 15.9e-9)

#: Photon-counting bin width of the targeted time tagger setup.
TIME_BIN_S = 1.28e-9

#: Detunings for sweep fixtures, in units of kappa.
DEFAULT_DETUNING_STEPS = (-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0)


def _require_non_negative(name: str, v):
    if not (finite_real(v) and v >= 0.0):
        raise ValueError(f"{name} must be finite and >= 0, got {v!r}")


def _peak(name: str, v, width: str) -> tuple:
    """A spectrum peak's (height, center, width), or a ValueError naming name."""
    try:
        height, center, w = v
        ok = finite_real(height) and finite_real(center) and finite_real(w) and w > 0.0
    except (TypeError, ValueError):  # not three items
        ok = False
    if not ok:
        raise ValueError(f"{name} must be finite (height, center, {width}) with "
                         f"{width} > 0, got {v!r}")
    return height, center, w


def synthetic_decay_trace(params: AtomCavityParams = DEFAULT_ATOM_CAVITY,
                          n_bins: int = 200, peak_counts: float = 1e4,
                          background_counts: float = 0.0,
                          rng=None) -> DecayTrace:
    """Measured-like counts trace in TIME_BIN_S bins, decaying at the
    analytic cavity-enhanced rate."""
    require_int("n_bins", n_bins, 2)
    _require_non_negative("peak_counts", peak_counts)
    _require_non_negative("background_counts", background_counts)
    rate = analytic_total_rate(params)
    t = np.arange(n_bins) * TIME_BIN_S
    expected = peak_counts * np.exp(-rate * t) + background_counts
    counts = rng.poisson(expected).astype(float) if rng is not None else expected
    return DecayTrace(
        times=t, values=counts, kind="measured", bin_width_s=TIME_BIN_S,
        meta={"g0_hz": params.g0_hz, "kappa_hz": params.kappa_hz,
              "gamma1_per_s": params.gamma1, "gamma_phi_per_s": params.gamma_phi,
              "delta_hz": params.delta_hz,
              "peak_counts": peak_counts,
              "background_counts": background_counts,
              "rate_per_s": rate})


def synthetic_tau_detuning(c: float = 0.14,
                           kappa_hz: float = DEFAULT_ATOM_CAVITY.kappa_hz,
                           tau1_s: float = DEFAULT_ATOM_CAVITY.tau1_s,
                           sigma_frac: float = 0.02, rng=None) -> np.ndarray:
    """Rows of (delta_hz, tau_s, sigma_s) at DEFAULT_DETUNING_STEPS * kappa.

    sigma_frac sets the quoted error bars relative to tau; noise of that
    size is only added when an rng is supplied.
    """
    _require_non_negative("sigma_frac", sigma_frac)
    delta_hz = kappa_hz * np.asarray(DEFAULT_DETUNING_STEPS)
    tau = tau_of_detuning(c, kappa_hz, tau1_s, delta_hz)
    sigma = sigma_frac * tau
    if rng is not None and sigma_frac > 0.0:
        tau = tau + rng.normal(0.0, sigma)
    return np.column_stack([delta_hz, tau, sigma])


def synthetic_spectrum(n: int = 240, cavity=(120.0, 638.2, 0.64),
                       zpl=(260.0, 637.0, 0.12),
                       noise_frac: float = 0.0, rng=None) -> np.ndarray:
    """Rows of (wavelength_nm, intensity) at n points over 630-645 nm:
    cavity Lorentzian (height, center, half width) + ZPL Gaussian (height,
    center, sigma) + the baseline 40 - 0.05 * wavelength_nm.  noise_frac
    sets the relative per-point noise level (multiplicative intensity
    fluctuations).
    """
    require_int("n", n, 2)
    a_c, x_c, w_c = _peak("cavity", cavity, "half width")
    a_z, x_z, s_z = _peak("zpl", zpl, "sigma")
    _require_non_negative("noise_frac", noise_frac)
    lam = np.linspace(630.0, 645.0, n)
    inten = (a_c / (1.0 + ((lam - x_c) / w_c) ** 2)
             + a_z * np.exp(-0.5 * ((lam - x_z) / s_z) ** 2)
             + 40.0 - 0.05 * lam)
    if rng is not None and noise_frac > 0.0:
        inten = inten * (1.0 + rng.normal(0.0, noise_frac, size=n))
    return np.column_stack([lam, inten])


def synthetic_field_grid(dims=(61, 31, 25), uniform_eps: bool = False) -> FieldGrid:
    """Apodized standing-wave mode profile on a regular grid.

    The grid spans 1.2 x 0.36 x 0.24 um, centred on the origin.  The
    dominant y polarization is a cos standing wave of period 440 nm along
    x under a Gaussian envelope (sigmas 300, 80 and 60 nm), with weaker
    antisymmetric x and z components; the permittivity is 5.7 inside a
    rectangular slab (|y| <= 150 nm, |z| <= 100 nm) and 1 outside, or 5.7
    everywhere when uniform_eps is set (handy for convergence studies).
    Odd point counts put a sample exactly on the field maximum at the
    origin.
    """
    try:
        nx, ny, nz = dims = tuple(dims)
    except (TypeError, ValueError):  # not three items
        raise ValueError(f"dims must be 3 integers, got {dims!r}") from None
    for i, n in enumerate(dims):
        require_int(f"dims[{i}]", n, 2)
    spans = (1.2e-6, 3.6e-7, 2.4e-7)
    spacing = tuple(spans[i] / (dims[i] - 1) for i in range(3))
    origin = tuple(-0.5 * spans[i] for i in range(3))
    x = origin[0] + spacing[0] * np.arange(nx)
    y = origin[1] + spacing[1] * np.arange(ny)
    z = origin[2] + spacing[2] * np.arange(nz)
    xg, yg, zg = np.meshgrid(x, y, z, indexing="ij")

    sx, sy, sz = 3.0e-7, 8.0e-8, 6.0e-8
    env = np.exp(-0.5 * ((xg / sx) ** 2 + (yg / sy) ** 2 + (zg / sz) ** 2))
    phase = 2.0 * np.pi * xg / 4.4e-7
    e = np.zeros(dims + (3,))
    e[..., 1] = np.cos(phase) * env
    e[..., 0] = 0.2 * np.sin(phase) * (yg / sy) * env
    e[..., 2] = 0.1 * np.sin(phase) * (zg / sz) * env

    if uniform_eps:
        eps = np.full(dims, 5.7)
    else:
        eps = np.where((np.abs(yg) <= 1.5e-7) & (np.abs(zg) <= 1.0e-7), 5.7, 1.0)
    e.flags.writeable = eps.flags.writeable = False  # handed over, not copied
    return FieldGrid(e_field=e, eps_rel=eps, spacing_m=spacing, origin_m=origin)
