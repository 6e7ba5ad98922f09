import math

import numpy as np
import pytest

from cavitykit.purcell import (
    EfficiencyFactors, PurcellResult, RateBudget, czpl_from_lifetimes,
    efficiency_factors, total_decay_rate, zpl_quantities_from_c,
)


def czpl_general(primed: RateBudget, gamma_on: float) -> float:
    """Oracle: C_ZPL = (gamma_on - gamma_off') / gamma_zpl' from the in-cavity
    far-detuned budget, a route independent of czpl_from_lifetimes."""
    return (gamma_on - total_decay_rate(primed)) / primed.gamma_zpl


def _scaled(b: RateBudget, alpha: float) -> RateBudget:
    return RateBudget(alpha * b.gamma_zpl, alpha * b.gamma_psb, alpha * b.gamma_nonrad)


def test_total_decay_rate_is_the_sum():
    assert total_decay_rate(RateBudget(1.0, 2.0, 3.0)) == 6.0
    assert total_decay_rate(RateBudget(5e7, 0.0, 0.0)) == 5e7


def test_total_decay_rate_linearity():
    b = RateBudget(1.3e6, 4.2e7, 8.0e5)
    for alpha in (0.5, 2.0, 17.0):
        assert total_decay_rate(_scaled(b, alpha)) == pytest.approx(
            alpha * total_decay_rate(b), rel=1e-12)


def test_rate_budget_validation():
    with pytest.raises(ValueError):
        RateBudget(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        RateBudget(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        RateBudget(float("inf"), 0.0, 0.0)


def test_efficiency_factors():
    eta = efficiency_factors(RateBudget(1.0, 1.0, 2.0))
    assert eta.eta_qe == pytest.approx(0.5, rel=1e-12)
    assert eta.eta_dw == pytest.approx(0.5, rel=1e-12)
    # no nonradiative decay
    assert efficiency_factors(RateBudget(0.03, 0.97, 0.0)).eta_qe == 1.0
    # a 3% ZPL share of the radiative budget
    assert efficiency_factors(RateBudget(0.03, 0.97, 0.0)).eta_dw == pytest.approx(
        0.03, rel=1e-12)
    with pytest.raises(ValueError):
        efficiency_factors(RateBudget(0.0, 0.0, 1.0))


def test_efficiency_factors_always_in_unit_interval():
    rng = np.random.default_rng(11)
    for _ in range(50):
        b = RateBudget(*rng.uniform(1e-3, 1e9, size=3))
        eta = efficiency_factors(b)
        assert 0.0 <= eta.eta_qe <= 1.0
        assert 0.0 <= eta.eta_dw <= 1.0


def test_efficiency_factor_validation():
    with pytest.raises(ValueError):
        EfficiencyFactors(eta_dw=1.2)
    with pytest.raises(ValueError):
        EfficiencyFactors(eta_dw=0.02, eta_qe=-0.1)


def test_czpl_from_lifetimes_pins():
    # published lifetime contrast: 13.95 ns on resonance vs 15.9 ns detuned
    low = czpl_from_lifetimes(13.95e-9, 15.9e-9, EfficiencyFactors(eta_dw=0.02))
    high = czpl_from_lifetimes(13.95e-9, 15.9e-9, EfficiencyFactors(eta_dw=0.03))
    assert low.c_zpl == pytest.approx(7.0, rel=0.01)
    assert high.c_zpl == pytest.approx(4.66, rel=0.01)
    assert not low.suppressed and not high.suppressed


def test_czpl_equal_lifetimes_gives_zero():
    est = czpl_from_lifetimes(12e-9, 12e-9, EfficiencyFactors(eta_dw=0.5))
    assert est.c_zpl == 0.0
    assert not est.suppressed


def test_czpl_suppression_flag():
    est = czpl_from_lifetimes(20e-9, 15.9e-9, EfficiencyFactors(eta_dw=0.02))
    assert est.c_zpl < 0.0
    assert est.suppressed
    assert isinstance(est, PurcellResult)


def test_czpl_from_lifetimes_validation():
    with pytest.raises(ValueError):
        czpl_from_lifetimes(0.0, 15.9e-9, EfficiencyFactors(eta_dw=0.02))
    with pytest.raises(ValueError):
        czpl_from_lifetimes(14e-9, 15.9e-9, EfficiencyFactors(eta_dw=0.0))


def test_czpl_from_lifetimes_requires_finite_lifetimes_and_result():
    eta = EfficiencyFactors(eta_dw=0.02)
    for tau_on, tau_off, message in (
            (13e-9, math.inf, "^tau_off_s must be finite and > 0, got inf$"),
            (math.inf, 15.9e-9, "^tau_on_s must be finite and > 0, got inf$"),
            (math.nan, 15.9e-9, "^tau_on_s must be finite and > 0, got nan$")):
        with pytest.raises(ValueError, match=message):
            czpl_from_lifetimes(tau_on, tau_off, eta)
    with pytest.raises(ValueError, match=r"C_ZPL = \(tau_off/tau_on - 1\) / "
                                         r"\(eta_QE \* eta_DW\) is out of float64 range"):
        czpl_from_lifetimes(1e-300, 1e300, eta)


def test_zpl_quantities_pins():
    res = zpl_quantities_from_c(0.14, EfficiencyFactors(eta_dw=0.02))
    assert res.f_zpl == pytest.approx(8.0, rel=1e-12)
    assert res.c_zpl == pytest.approx(7.0, rel=1e-12)
    assert res.f_p == pytest.approx(1.14, rel=1e-12)
    res3 = zpl_quantities_from_c(0.14, EfficiencyFactors(eta_dw=0.03))
    assert res3.f_zpl == pytest.approx(5.67, rel=0.01)
    zero = zpl_quantities_from_c(0.0, EfficiencyFactors(eta_dw=0.02))
    assert zero.f_p == 1.0 and zero.f_zpl == 1.0


def test_zpl_quantities_validation():
    with pytest.raises(ValueError):
        zpl_quantities_from_c(-0.1, EfficiencyFactors(eta_dw=0.02))
    with pytest.raises(ValueError):
        zpl_quantities_from_c(0.1, EfficiencyFactors(eta_dw=0.0))


def test_zpl_quantities_require_finite_c_and_result():
    for c in (math.inf, math.nan):
        with pytest.raises(ValueError, match="C must be finite and >= 0"):
            zpl_quantities_from_c(c, EfficiencyFactors(eta_dw=0.02))
    with pytest.raises(ValueError, match=r"C_ZPL = C / \(eta_QE \* eta_DW\) "
                                         "is out of float64 range"):
        zpl_quantities_from_c(1e308, EfficiencyFactors(eta_dw=0.03))


def test_czpl_general_pure_zpl():
    assert czpl_general(RateBudget(1.0, 0.0, 0.0), 3.0) == pytest.approx(2.0)


def test_czpl_general_scaling_invariance():
    # rescaling the in-cavity far-detuned budget while the on-resonance rate
    # keeps the single-channel enhancement structure leaves C_ZPL unchanged
    primed = RateBudget(0.02, 0.78, 0.2)
    f_zpl = 6.5
    reference = None
    for alpha in (0.5, 1.0, 2.0):
        b = _scaled(primed, alpha)
        gamma_on = f_zpl * b.gamma_zpl + b.gamma_psb + b.gamma_nonrad
        c = czpl_general(b, gamma_on)
        if reference is None:
            reference = c
        assert c == pytest.approx(reference, rel=1e-12)
    assert reference == pytest.approx(f_zpl - 1.0, rel=1e-12)


def test_czpl_general_matches_lifetime_route():
    # budget built so that gamma_zpl' = eta_qe * eta_dw * gamma_off
    eta = EfficiencyFactors(eta_dw=0.025, eta_qe=0.9)
    tau_on, tau_off = 13.95e-9, 15.9e-9
    gamma_off = 1.0 / tau_off
    gamma_rad = eta.eta_qe * gamma_off
    gamma_zpl = eta.eta_dw * gamma_rad
    primed = RateBudget(gamma_zpl, gamma_rad - gamma_zpl, gamma_off - gamma_rad)
    via_budget = czpl_general(primed, 1.0 / tau_on)
    via_lifetimes = czpl_from_lifetimes(tau_on, tau_off, eta).c_zpl
    assert via_budget == pytest.approx(via_lifetimes, rel=1e-12)


def test_lifetime_and_c_routes_agree():
    # C = tau_off/tau_on - 1 feeds both paths
    eta = EfficiencyFactors(eta_dw=0.02)
    tau_on, tau_off = 13.95e-9, 15.9e-9
    c = tau_off / tau_on - 1.0
    from_c = zpl_quantities_from_c(c, eta)
    from_tau = czpl_from_lifetimes(tau_on, tau_off, eta)
    assert from_tau == from_c  # the same result, bit for bit
    assert from_tau.f_p == c + 1.0 and from_tau.f_zpl == from_tau.c_zpl + 1.0
