"""Decay-channel rate algebra: cooperativity and Purcell figures of merit.

A solid-state emitter decays through a zero-phonon line (ZPL), a phonon
sideband (PSB) and nonradiative channels.  A resonant cavity enhances the
ZPL channel only, so the total-lifetime contrast between on- and
off-resonance has to be corrected by the quantum efficiency eta_QE and the
Debye-Waller factor eta_DW before it says anything about ZPL enhancement:

    C_ZPL = (tau_off / tau_on - 1) / (eta_QE * eta_DW)
    F_ZPL = C_ZPL + 1

For NV centers eta_DW is small (2-3%), which is why a modest total-rate
cooperativity C ~ 0.14 corresponds to a ZPL Purcell factor of 5-8.

Note that an intensity-ratio enhancement (peak ZPL intensity on vs off
resonance) and the lifetime-derived F_ZPL here need not coincide for an
emitter ensemble: the two observables weight individual emitters
differently.  Nothing in this module equates them.

The scalar vacuum-coupling chain lives here too: lifetime -> transition
dipole moment, mode volume -> zero-point field, and their product -> the
ideal coupling rate g0, which sets C = 4 g0^2 / (kappa gamma1).
``coupling`` re-exports it next to the field-map steps that feed it a mode
volume and an ensemble weighting.  This module imports no numpy.

C_ZPL, the dipole, the zero-point field and g0 take finite inputs only
and must come out finite: an overflow, or a division by a product that
underflowed to 0, is a ValueError naming the quantity, not an inf in the
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._cells import require_real
from .units import C0, DEBYE, EPS0, HBAR, to_angular

#: Conventional Debye-Waller range for NV centers; used as a reporting
#: default when the caller supplies no value of their own.
NV_DEBYE_WALLER_RANGE = (0.02, 0.03)


@dataclass(frozen=True)
class RateBudget:
    """Decay rates (1/s) split by channel: ZPL, PSB and nonradiative."""

    gamma_zpl: float
    gamma_psb: float
    gamma_nonrad: float = 0.0

    def __post_init__(self):
        rates = (self.gamma_zpl, self.gamma_psb, self.gamma_nonrad)
        for name, g in zip(("gamma_zpl", "gamma_psb", "gamma_nonrad"), rates):
            require_real(name, g, 0.0)
        if not any(g > 0.0 for g in rates):
            raise ValueError("at least one decay channel must be nonzero")

    @property
    def gamma_rad(self) -> float:
        return self.gamma_zpl + self.gamma_psb


@dataclass(frozen=True)
class EfficiencyFactors:
    """Quantum efficiency and Debye-Waller factor, each in [0, 1].

    eta_qe defaults to 1 (a good approximation for the emitters targeted
    here); eta_dw must be supplied.
    """

    eta_dw: float
    eta_qe: float = 1.0

    def __post_init__(self):
        require_real("eta_dw", self.eta_dw, 0.0, 1.0)
        require_real("eta_qe", self.eta_qe, 0.0, 1.0)

    @property
    def product(self) -> float:
        return self.eta_qe * self.eta_dw


@dataclass(frozen=True)
class PurcellResult:
    """Total-rate and ZPL-projected cooperativities, with F = C + 1 for each;
    C < 0 (suppressed) means the decay is inhibited, as near a bandgap."""

    c: float
    c_zpl: float

    @property
    def f_p(self) -> float:
        return self.c + 1.0

    @property
    def f_zpl(self) -> float:
        return self.c_zpl + 1.0

    @property
    def suppressed(self) -> bool:
        return self.c < 0.0


def _finite(name: str, formula) -> float:
    """formula(), which must come out finite; an overflow, or a division by
    a product that underflowed to 0, is a ValueError naming the quantity."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} is out of float64 range")
    return value


def total_decay_rate(budget: RateBudget) -> float:
    """Total excited-state decay rate, the inverse measured lifetime."""
    return budget.gamma_zpl + budget.gamma_psb + budget.gamma_nonrad


def efficiency_factors(budget: RateBudget) -> EfficiencyFactors:
    """eta_QE and eta_DW implied by a channel decomposition.

    eta_QE = gamma_rad / (gamma_rad + gamma_nonrad)
    eta_DW = gamma_zpl / (gamma_zpl + gamma_psb)
    """
    if not (budget.gamma_rad > 0.0):
        raise ValueError("radiative rate is zero; eta_DW undefined")
    eta_qe = budget.gamma_rad / (budget.gamma_rad + budget.gamma_nonrad)
    eta_dw = budget.gamma_zpl / budget.gamma_rad
    return EfficiencyFactors(eta_dw=eta_dw, eta_qe=eta_qe)


def _projected(c: float, eta: EfficiencyFactors, formula: str) -> PurcellResult:
    """C and C_ZPL = C / (eta_QE * eta_DW); formula names C_ZPL if it overflows."""
    if not isinstance(eta, EfficiencyFactors):
        raise ValueError(f"eta must be an EfficiencyFactors, got {eta!r}")
    if not (eta.product > 0.0):
        raise ValueError("eta_QE * eta_DW must be > 0")
    return PurcellResult(c=c, c_zpl=_finite(formula, lambda: c / eta.product))


def czpl_from_lifetimes(tau_on_s: float, tau_off_s: float,
                        eta: EfficiencyFactors) -> PurcellResult:
    """C = tau_off/tau_on - 1 and C_ZPL = C / (eta_QE * eta_DW) from on/off-resonance
    lifetimes; tau_on > tau_off gives suppressed=True, not an error."""
    require_real("tau_on_s", tau_on_s, 0.0, above=True)
    require_real("tau_off_s", tau_off_s, 0.0, above=True)
    return _projected(tau_off_s / tau_on_s - 1.0, eta,
                      "C_ZPL = (tau_off/tau_on - 1) / (eta_QE * eta_DW)")


def zpl_quantities_from_c(c: float, eta: EfficiencyFactors) -> PurcellResult:
    """Expand a total-rate cooperativity C into (C, C_ZPL)."""
    require_real("C", c, 0.0)
    return _projected(c, eta, "C_ZPL = C / (eta_QE * eta_DW)")


# ---------------------------------------------------------------------------
# Vacuum coupling: dipole moment, zero-point field and g0
# ---------------------------------------------------------------------------

def normalized_mode_volume(v_m3: float, wavelength_m: float, n_index: float) -> float:
    """Mode volume in units of (lambda/n)^3."""
    require_real("v_m3", v_m3, 0.0, above=True)
    require_real("wavelength_m", wavelength_m, 0.0, above=True)
    require_real("n_index", n_index, 0.0, above=True)
    try:
        v_norm = v_m3 / (wavelength_m / n_index) ** 3
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"(lambda/n)^3 is out of float64 range for lambda = "
                         f"{wavelength_m!r} m, n = {n_index!r}") from None
    if v_norm == math.inf:
        raise ValueError(f"v_m3 / (lambda/n)^3 is out of float64 range for v_m3 = {v_m3!r} m^3")
    return v_norm


def zero_point_field(nu_c_hz: float, eps_rel_at_max: float, v_mode_m3: float) -> float:
    """E_zpf = sqrt(hbar w_c / (2 eps eps0 V_mode)) in V/m."""
    require_real("nu_c_hz", nu_c_hz, 0.0, above=True)
    require_real("eps_rel_at_max", eps_rel_at_max, 0.0, above=True)
    require_real("v_mode_m3", v_mode_m3, 0.0, above=True)
    omega = to_angular(nu_c_hz)
    return _finite("E_zpf", lambda: math.sqrt(
        HBAR * omega / (2.0 * eps_rel_at_max * EPS0 * v_mode_m3)))


def dipole_from_lifetime(tau1_s: float, nu_hz: float) -> float:
    """Transition dipole moment (C m) from the spontaneous-emission rate.

    d = sqrt(3 pi eps0 hbar c^3 gamma1 / omega^3) with gamma1 = 1/tau1.
    """
    require_real("tau1_s", tau1_s, 0.0, above=True)
    require_real("nu_hz", nu_hz, 0.0, above=True)
    gamma1 = 1.0 / tau1_s
    omega = to_angular(nu_hz)
    return _finite("dipole moment", lambda: math.sqrt(
        3.0 * math.pi * EPS0 * HBAR * C0 ** 3 * gamma1 / omega ** 3))


def to_debye(d_cm: float) -> float:
    """Dipole moment C m -> Debye."""
    require_real("d_cm", d_cm)
    return d_cm / DEBYE


def g0_ideal(d_zpl_cm: float, e_zpf_v_per_m: float) -> float:
    """Ideal vacuum coupling rate as an ordinary frequency: d E / (2 pi hbar)."""
    require_real("d_zpl_cm", d_zpl_cm, 0.0)
    require_real("e_zpf_v_per_m", e_zpf_v_per_m, 0.0)
    return _finite("g0", lambda: d_zpl_cm * e_zpf_v_per_m / (2.0 * math.pi * HBAR))


@dataclass(frozen=True)
class CouplingEstimate:
    """Composed dipole -> E_zpf -> g0 chain for one eta_dw value."""

    d_perp_cm: float
    d_zpl_cm: float
    e_zpf_v_per_m: float
    g0_hz: float
    v_mode_m3: float


def ideal_coupling(tau1_s: float, nu_hz: float, eta_dw: float,
                   v_mode_m3: float | None = None,
                   v_mode_normalized: float | None = None,
                   eps_rel_at_max: float = 5.7) -> CouplingEstimate:
    """Full chain from (lifetime, frequency, eta_dw, mode volume) to g0.

    The mode volume may be given in m^3 or in units of (lambda/n)^3 with
    n = sqrt(eps_rel_at_max); exactly one of the two must be supplied.
    """
    if (v_mode_m3 is None) == (v_mode_normalized is None):
        raise ValueError("give exactly one of v_mode_m3 or v_mode_normalized")
    d_perp = dipole_from_lifetime(tau1_s, nu_hz)
    require_real("eta_dw", eta_dw, 0.0, 1.0, above=True)
    d_zpl = math.sqrt(eta_dw) * d_perp  # the ZPL-projected dipole
    if v_mode_m3 is None:
        require_real("v_mode_normalized", v_mode_normalized, 0.0, above=True)
        require_real("eps_rel_at_max", eps_rel_at_max, 0.0, above=True)
        lam = C0 / nu_hz
        v_mode_m3 = _finite("mode volume", lambda: v_mode_normalized
                            * (lam / math.sqrt(eps_rel_at_max)) ** 3)
    e_zpf = zero_point_field(nu_hz, eps_rel_at_max, v_mode_m3)
    return CouplingEstimate(
        d_perp_cm=d_perp, d_zpl_cm=d_zpl, e_zpf_v_per_m=e_zpf,
        g0_hz=g0_ideal(d_zpl, e_zpf), v_mode_m3=v_mode_m3)


def effective_g0(g0_hz: float, weighting: float) -> float:
    """Ensemble-effective coupling rate g0 * F."""
    require_real("weighting factor", weighting, 0.0, 1.0)
    require_real("g0", g0_hz, 0.0)
    return g0_hz * weighting
