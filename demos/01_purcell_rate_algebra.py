"""Decay-channel bookkeeping and Purcell figures of merit.

A cavity-coupled color center decays through its zero-phonon line (ZPL),
a phonon sideband and nonradiative channels, but a resonant cavity only
enhances the ZPL.  This script walks from a lifetime contrast measurement
(on vs off resonance) to the ZPL cooperativity, showing why a small total
cooperativity still means a large ZPL enhancement when the Debye-Waller
factor is a few percent.
"""

from cavitykit import (
    EfficiencyFactors, RateBudget, czpl_from_lifetimes, efficiency_factors,
    total_decay_rate, zpl_quantities_from_c, NV_DEBYE_WALLER_RANGE,
)

# an NV-like budget: gamma_rad split 2.5% / 97.5% between ZPL and sideband,
# no nonradiative decay (quantum efficiency ~ 1)
gamma_total = 1.0 / 15.9e-9
budget = RateBudget(gamma_zpl=0.025 * gamma_total,
                    gamma_psb=0.975 * gamma_total,
                    gamma_nonrad=0.0)
eta = efficiency_factors(budget)
print("total decay rate        : %.3e 1/s" % total_decay_rate(budget))
print("quantum efficiency      : %.3f" % eta.eta_qe)
print("Debye-Waller factor     : %.3f" % eta.eta_dw)
print()

# lifetime contrast: 13.95 ns on resonance vs 15.9 ns far detuned
tau_on, tau_off = 13.95e-9, 15.9e-9
print("lifetimes: %.2f ns on resonance, %.2f ns detuned" %
      (tau_on * 1e9, tau_off * 1e9))
for eta_dw in NV_DEBYE_WALLER_RANGE:
    est = czpl_from_lifetimes(tau_on, tau_off, EfficiencyFactors(eta_dw=eta_dw))
    print("  eta_DW = %.2f -> C_ZPL = %.2f, F_ZPL = %.2f" %
          (eta_dw, est.c_zpl, est.f_zpl))
print()

# the same expansion starting from a fitted total cooperativity C = 0.14
print("from a fitted C = 0.14 (F_P = 1.14):")
for eta_dw in NV_DEBYE_WALLER_RANGE:
    res = zpl_quantities_from_c(0.14, EfficiencyFactors(eta_dw=eta_dw))
    print("  eta_DW = %.2f -> C_ZPL = %.2f, F_ZPL = %.2f" %
          (eta_dw, res.c_zpl, res.f_zpl))

# lifetime lengthening (tau_on > tau_off) is reported as suppression,
# not an error: photonic structures can inhibit emission too
est = czpl_from_lifetimes(18e-9, 15.9e-9, EfficiencyFactors(eta_dw=0.03))
print()
print("tau_on = 18 ns > tau_off: C_ZPL = %.2f (suppressed = %s)" %
      (est.c_zpl, est.suppressed))
