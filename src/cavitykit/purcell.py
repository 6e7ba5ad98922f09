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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
        if any(not (math.isfinite(g) and g >= 0.0) for g in rates):
            raise ValueError(f"rates must be finite and >= 0, got {rates}")
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
        for name, v in (("eta_dw", self.eta_dw), ("eta_qe", self.eta_qe)):
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")

    @property
    def product(self) -> float:
        return self.eta_qe * self.eta_dw


@dataclass(frozen=True)
class PurcellResult:
    """Total-rate and ZPL-projected cooperativity / Purcell factors."""

    c: float
    f_p: float
    c_zpl: float
    f_zpl: float

    def __post_init__(self):
        if abs(self.f_p - (self.c + 1.0)) > 1e-9 * max(1.0, abs(self.f_p)):
            raise ValueError("F_P must equal C + 1")
        if abs(self.f_zpl - (self.c_zpl + 1.0)) > 1e-9 * max(1.0, abs(self.f_zpl)):
            raise ValueError("F_ZPL must equal C_ZPL + 1")


class CzplEstimate(NamedTuple):
    """ZPL cooperativity with a flag marking lifetime lengthening.

    ``suppressed`` is True when tau_on > tau_off, i.e. the environment
    suppresses rather than enhances the decay (physical near a bandgap);
    the value is then negative.
    """

    c_zpl: float
    suppressed: bool


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


def czpl_from_lifetimes(tau_on_s: float, tau_off_s: float,
                        eta: EfficiencyFactors) -> CzplEstimate:
    """ZPL cooperativity from on/off-resonance lifetimes.

    C_ZPL = (tau_off/tau_on - 1) / (eta_QE * eta_DW).  A negative result
    (tau_on > tau_off) is returned with suppressed=True instead of raising.
    """
    if not (tau_on_s > 0.0 and tau_off_s > 0.0):
        raise ValueError("lifetimes must be > 0")
    if not (eta.product > 0.0):
        raise ValueError("eta_QE * eta_DW must be > 0")
    value = (tau_off_s / tau_on_s - 1.0) / eta.product
    return CzplEstimate(c_zpl=value, suppressed=value < 0.0)


def zpl_quantities_from_c(c: float, eta: EfficiencyFactors) -> PurcellResult:
    """Expand a total-rate cooperativity C into (C, F_P, C_ZPL, F_ZPL)."""
    if not (c >= 0.0):
        raise ValueError(f"C must be >= 0, got {c!r}")
    if not (eta.product > 0.0):
        raise ValueError("eta_QE * eta_DW must be > 0")
    c_zpl = c / eta.product
    return PurcellResult(c=c, f_p=c + 1.0, c_zpl=c_zpl, f_zpl=c_zpl + 1.0)

