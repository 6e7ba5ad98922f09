import zlib

import numpy as np
import pytest

from cavitykit import fitting
from cavitykit.dynamics import DecayTrace
from cavitykit.fitting import (
    DegenerateFitError, MODEL_KINDS, fit_decay_trace, fit_spectrum,
    fit_tau_detuning, get_model, least_squares_fit,
)
from cavitykit.synthetic import (
    DEFAULT_ATOM_CAVITY, synthetic_decay_trace, synthetic_spectrum,
    synthetic_tau_detuning,
)
from cavitykit.dynamics import analytic_total_rate

# per-kind sampling ranges for round-trip property tests and the x grids the
# synthetic data live on
ROUND_TRIP_CASES = {
    "single-exponential": (
        np.arange(200) * 1.28e-9,
        [(0.5, 2e4), (5e-9, 5e-8)]),
    "single-exponential-background": (
        np.arange(200) * 1.28e-9,
        [(10.0, 2e4), (5e-9, 5e-8), (0.5, 20.0)]),
    "tau-detuning": (
        940e9 * np.array([-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0]),
        [(0.05, 0.5), (4e11, 2e12), (5e-9, 5e-8)]),
    "lorentzian-plus-gaussian": (
        np.linspace(630.0, 645.0, 240),
        [(50.0, 300.0), (637.5, 640.0), (0.3, 1.0),
         (100.0, 400.0), (636.0, 637.2), (0.08, 0.2),
         (5.0, 50.0), (-0.1, 0.1)]),
    "tanh-transmission": (
        np.linspace(-400.0, 400.0, 81),
        [(0.3, 1.0), (60.0, 200.0), (10.0, 40.0)]),
    "exponential-saturation": (
        np.linspace(0.5, 60.0, 50),
        [(0.3, 1.0), (2.0, 15.0)]),
    "asymmetric-lorentzian": (
        np.linspace(1.4, 2.6, 60),
        [(0.5, 2.0), (1.9, 2.1), (0.05, 0.3), (0.02, 0.2)]),
}


# peak centers live on an affine axis where "percent of the coordinate" is
# origin-dependent and can throw the peak off the data window entirely, so
# their 30% perturbation is taken relative to the peak width instead:
# {location index: width index}
LOCATION_PARAMS = {
    "lorentzian-plus-gaussian": {1: 2, 4: 5},
    "asymmetric-lorentzian": {1: 2},
}


def perturbed_init(kind, truth, rng, frac=0.3):
    init = truth * rng.uniform(1.0 - frac, 1.0 + frac, size=len(truth))
    for i, wi in LOCATION_PARAMS.get(kind, {}).items():
        init[i] = truth[i] + truth[wi] * rng.uniform(-frac, frac)
    return init


def test_every_model_kind_has_a_round_trip_case():
    assert set(ROUND_TRIP_CASES) == set(MODEL_KINDS)


@pytest.mark.parametrize("kind", sorted(ROUND_TRIP_CASES))
def test_noiseless_round_trip_from_perturbed_init(kind):
    x, ranges = ROUND_TRIP_CASES[kind]
    model = get_model(kind)
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    for _ in range(4):
        truth = np.array([rng.uniform(lo, hi) for lo, hi in ranges])
        y = model.fn(x, truth)
        init = perturbed_init(kind, truth, rng)
        result = least_squares_fit(model, x, y, init=init)
        fitted = np.array([result.params[n] for n in model.param_names])
        rel = np.abs(fitted - truth) / np.abs(truth)
        assert np.max(rel) < 1e-6, (kind, truth, fitted)
        assert result.converged


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_analytic_jacobian_matches_central_differences(kind):
    # 20 random points inside the round-trip ranges; every column agrees
    # with a central difference to 1e-5 of its largest entry
    x, ranges = ROUND_TRIP_CASES[kind]
    model = get_model(kind)
    rng = np.random.default_rng(zlib.crc32(b"jacobian:" + kind.encode()))
    for _ in range(20):
        theta = np.array([rng.uniform(lo, hi) for lo, hi in ranges])
        jac = model.jacobian(x, theta)
        assert jac.shape == (len(x), len(theta))
        for j, (lo, hi) in enumerate(ranges):
            up, down = theta.copy(), theta.copy()
            up[j] += 1e-6 * (hi - lo)
            down[j] -= 1e-6 * (hi - lo)
            fd = (model.fn(x, up) - model.fn(x, down)) / (up[j] - down[j])
            err = float(np.max(np.abs(jac[:, j] - fd)))
            assert err <= 1e-5 * float(np.max(np.abs(jac[:, j]))), (kind, j, theta)


def test_every_fit_model_needs_a_jacobian():
    with pytest.raises(TypeError):
        fitting.FitModel(kind="line", param_names=("a", "b"),
                         fn=lambda x, th: th[0] + th[1] * x,
                         guess=lambda x, y: np.zeros(2))


def test_exact_init_converges_within_two_iterations():
    x, _ = ROUND_TRIP_CASES["single-exponential"]
    truth = np.array([1e4, 15.9e-9])
    y = get_model("single-exponential").fn(x, truth)
    result = least_squares_fit("single-exponential", x, y, init=truth)
    assert result.n_iterations <= 2
    assert result.converged
    assert result.params["tau"] == pytest.approx(15.9e-9, rel=1e-10)
    assert result.residual_norm == pytest.approx(0.0, abs=1e-9)


def test_monte_carlo_chisq_calibration():
    # known-sigma Gaussian noise: reduced chi-square averages to ~1
    x = np.linspace(0.0, 15.0, 50)
    model = get_model("single-exponential")
    truth = np.array([10.0, 5.0])
    sigma = np.full_like(x, 0.2)
    rng = np.random.default_rng(17)
    chisqs = []
    for _ in range(100):
        y = model.fn(x, truth) + rng.normal(0.0, 0.2, size=len(x))
        res = least_squares_fit(model, x, y, sigma=sigma)
        chisqs.append(res.reduced_chisq)
    mean = float(np.mean(chisqs))
    assert 0.5 < mean < 1.5
    # individual realizations stay in a sane band
    assert np.quantile(chisqs, 0.99) < 3.0


def test_tau_recovery_at_1e4_counts():
    truth_tau = 1.0 / analytic_total_rate(DEFAULT_ATOM_CAVITY)
    rng = np.random.default_rng(29)
    errs = []
    for _ in range(100):
        trace = synthetic_decay_trace(rng=rng)
        res = fit_decay_trace(trace)
        errs.append(abs(res.params["tau"] / truth_tau - 1.0))
    assert float(np.quantile(errs, 0.95)) < 0.02


def test_fit_results_scale_with_y_and_sigma():
    x = np.arange(120) * 1.28e-9
    truth = np.array([1000.0, 12e-9, 40.0])
    model = get_model("single-exponential-background")
    rng = np.random.default_rng(31)
    y = model.fn(x, truth) + rng.normal(0.0, 5.0, size=len(x))
    sigma = np.full_like(x, 5.0)
    base = least_squares_fit(model, x, y, sigma=sigma)
    scaled = least_squares_fit(model, x, 1e3 * y, sigma=1e3 * sigma)
    assert scaled.params["tau"] == pytest.approx(base.params["tau"], rel=1e-9)
    assert scaled.params["amplitude"] == pytest.approx(
        1e3 * base.params["amplitude"], rel=1e-9)
    assert scaled.params["background"] == pytest.approx(
        1e3 * base.params["background"], rel=1e-9)
    assert scaled.reduced_chisq == pytest.approx(base.reduced_chisq, rel=1e-9)


def test_standard_errors_scale_as_inverse_sqrt_n():
    model = get_model("single-exponential")
    truth = np.array([10.0, 5.0])
    rng = np.random.default_rng(37)
    ratios = []
    for _ in range(8):
        errs = {}
        for n in (100, 400):
            x = np.linspace(0.0, 15.0, n)
            y = model.fn(x, truth) + rng.normal(0.0, 0.2, size=n)
            res = least_squares_fit(model, x, y, sigma=np.full(n, 0.2))
            errs[n] = res.standard_errors["tau"]
        ratios.append(errs[100] / errs[400])
    mean_ratio = float(np.mean(ratios))
    assert 2.0 * 0.8 < mean_ratio < 2.0 * 1.2


def test_tau_detuning_reflection_invariance():
    pts = synthetic_tau_detuning(rng=11)
    reflected = pts.copy()
    reflected[:, 0] = -reflected[:, 0]
    a = fit_tau_detuning(pts)
    b = fit_tau_detuning(reflected)
    for name in ("c", "kappa", "tau1"):
        assert a.params[name] == pytest.approx(b.params[name], rel=1e-12)


def test_tau_detuning_degenerate_data():
    same = np.column_stack([np.full(6, 2e11), np.linspace(14e-9, 16e-9, 6)])
    with pytest.raises(DegenerateFitError):
        fit_tau_detuning(same)
    with pytest.raises(ValueError):
        fit_tau_detuning(np.array([[0.0, 1.0], [1.0, 2.0]]))  # < 4 points


def test_non_finite_normal_matrix_is_a_degenerate_fit():
    # a shallow dip (C ~ 0.11, 1% noise) whose far-detuned points noise
    # pushes below mid-depth: from the guess (kappa 3.5x its value) the first
    # step drives kappa to its lower bound, where the Jacobian's kappa column
    # is 0/0.  The covariance stage handed that to pinv, which raised
    # LinAlgError; the guess is passed as init so a better guess later does
    # not hide the case
    rng = np.random.default_rng(4794)
    c = rng.uniform(0.10, 0.12)
    delta = 940e9 * np.linspace(-3.0, 3.0, 25)
    tau = 15.9e-9 / (1.0 + c / (1.0 + 4.0 * (delta / 940e9) ** 2))
    noisy = tau + rng.normal(0.0, 0.01 * tau)
    init = get_model("tau-detuning").guess(delta, noisy)
    for on_singular in ("raise", "pinv"):
        with pytest.raises(DegenerateFitError, match="not finite"):
            least_squares_fit("tau-detuning", delta, noisy, sigma=0.01 * tau,
                              init=init, on_singular=on_singular)


def test_tau_detuning_flat_data_flags_kappa():
    flat = np.column_stack([np.linspace(-2e12, 2e12, 9),
                            np.full(9, 15.9e-9), np.full(9, 0.2e-9)])
    res = fit_tau_detuning(flat)
    assert res.params["c"] == pytest.approx(0.0, abs=1e-6)
    assert any("kappa unidentifiable" in w for w in res.warnings)


def test_tau_detuning_noiseless_is_exact():
    # noiseless sweep at nine detunings: recovery to better than 1e-8
    res = fit_tau_detuning(synthetic_tau_detuning())
    assert res.params["c"] == pytest.approx(0.14, rel=1e-8)
    assert res.params["kappa"] == pytest.approx(940e9, rel=1e-8)
    assert res.params["tau1"] == pytest.approx(15.9e-9, rel=1e-8)
    assert res.derived["tau_min_s"] == pytest.approx(15.9e-9 / 1.14, rel=1e-6)


def test_fit_decay_trace_background_bias():
    t = np.arange(220) * 1.28e-9
    tau = 15.9e-9
    y = 1e4 * np.exp(-t / tau) + 500.0
    trace = DecayTrace(times=t, values=y, kind="measured")
    plain = fit_decay_trace(trace, with_background=False)
    assert plain.params["tau"] > 1.05 * tau  # flat background drags tau up
    with_bg = fit_decay_trace(trace, with_background=True)
    assert with_bg.params["tau"] == pytest.approx(tau, rel=1e-6)
    assert with_bg.params["background"] == pytest.approx(500.0, rel=1e-4)


def test_fit_decay_trace_validation():
    t = np.arange(12) * 1e-9
    with pytest.raises(ValueError):
        fit_decay_trace(DecayTrace(times=t[:5], values=np.ones(5)))
    zero = DecayTrace(times=t, values=np.zeros(12), kind="measured")
    with pytest.raises(ValueError):
        fit_decay_trace(zero)


def test_fit_spectrum_two_peaks():
    spec = synthetic_spectrum()
    res = fit_spectrum(spec)
    assert res.params["x_cav"] == pytest.approx(638.2, abs=1e-6)
    assert res.params["x_zpl"] == pytest.approx(637.0, abs=1e-6)
    assert res.derived["q_factor"] == pytest.approx(638.2 / (2 * 0.64), rel=1e-6)
    assert res.derived["cavity_peak_height"] == pytest.approx(120.0, rel=1e-6)


def test_fit_spectrum_pure_lorentzian():
    lam = np.linspace(630.0, 645.0, 240)
    inten = 200.0 / (1.0 + ((lam - 637.0) / 0.64) ** 2)
    res = fit_spectrum(np.column_stack([lam, inten]))
    assert abs(res.params["a_zpl"]) < 1e-3
    assert res.params["x_cav"] == pytest.approx(637.0, abs=1e-6)


def test_fit_spectrum_q_recovery():
    # cavity at 637 nm with FWHM set for Q = 500
    w = 637.0 / 500.0 / 2.0
    spec = synthetic_spectrum(cavity=(150.0, 637.0, w), zpl=(80.0, 634.5, 0.1))
    res = fit_spectrum(spec)
    assert res.derived["q_factor"] == pytest.approx(500.0, rel=0.01)


def test_fit_spectrum_monte_carlo_centers():
    rng = np.random.default_rng(41)
    errs_cav, errs_zpl = [], []
    for _ in range(100):
        spec = synthetic_spectrum(noise_frac=0.10, rng=rng)
        res = fit_spectrum(spec)
        errs_cav.append(abs(res.params["x_cav"] - 638.2))
        errs_zpl.append(abs(res.params["x_zpl"] - 637.0))
    assert float(np.max(errs_cav)) < 0.05
    assert float(np.max(errs_zpl)) < 0.05


def test_fit_spectrum_flags_unresolvable_overlap():
    # one blended feature observed only over its core: the two line shapes
    # are not independently resolvable and the fit must say so, either via
    # the >99% center-correlation warning or via unconstrained parameters
    lam = np.linspace(636.2, 637.8, 80)
    core = (150.0 / (1.0 + ((lam - 637.0) / 0.55) ** 2)
            + 140.0 * np.exp(-0.5 * ((lam - 637.0) / 0.50) ** 2) + 5.0)
    res = fit_spectrum(np.column_stack([lam, core]))
    assert any("correlated" in w or "unconstrained" in w for w in res.warnings)


def test_peak_height_held_at_its_bound_converges():
    # the blended core above, from one start: the ZPL height is pushed below
    # its bound 0 and is held there, so the fit converges in a few
    # iterations instead of zigzagging against the bound to the cap
    lam = np.linspace(636.2, 637.8, 80)
    core = (150.0 / (1.0 + ((lam - 637.0) / 0.55) ** 2)
            + 140.0 * np.exp(-0.5 * ((lam - 637.0) / 0.50) ** 2) + 5.0)
    res = least_squares_fit("lorentzian-plus-gaussian", lam, core,
                            init=fitting._guess_spectrum(lam, core),
                            on_singular="pinv")
    assert res.params["a_zpl"] == 0.0
    assert res.converged
    assert res.n_iterations < 50
    assert any("'x_zpl' is unconstrained" in w for w in res.warnings)


def test_tau_detuning_noisy_band_recovery():
    # sweep with 2% error bars: C comes back inside the 0.14 +/- 0.03 band
    pts = synthetic_tau_detuning(sigma_frac=0.02, rng=np.random.default_rng(77))
    res = fit_tau_detuning(pts)
    assert abs(res.params["c"] - 0.14) <= 0.03
    assert res.standard_errors["c"] > 0.0
    assert res.params["tau1"] == pytest.approx(15.9e-9, rel=0.05)


def test_fit_spectrum_validation():
    with pytest.raises(ValueError):
        fit_spectrum(np.zeros((10, 2)))  # too few samples


def _eval_model(kind, x, params):
    model = get_model(kind)
    return model.fn(np.asarray(x, dtype=float),
                    np.array([params[n] for n in model.param_names]))


def test_eval_transmission_models():
    # plateau: far inside the tolerance window the tanh factor is ~1
    t0 = _eval_model("tanh-transmission", 0.0, {"t0": 0.8, "x0": 160.0, "s": 20.0})
    assert float(t0) == pytest.approx(0.8, rel=1e-6)
    # saturation limit
    sat = _eval_model("exponential-saturation", 1e4, {"t_inf": 0.9, "l0": 10.0})
    assert float(sat) == pytest.approx(0.9, rel=1e-12)
    # equal widths reduce to the symmetric Lorentzian everywhere
    x = np.linspace(1.0, 3.0, 101)
    asym = _eval_model(
        "asymmetric-lorentzian", x,
        {"amplitude": 1.2, "center": 2.0, "w_left": 0.2, "w_right": 0.2})
    sym = 1.2 / (1.0 + ((x - 2.0) / 0.2) ** 2)
    assert np.max(np.abs(asym - sym)) < 1e-12


def test_iteration_cap_flags_instead_of_raising(monkeypatch):
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 2)
    x, _ = ROUND_TRIP_CASES["lorentzian-plus-gaussian"]
    model = get_model("lorentzian-plus-gaussian")
    rng = np.random.default_rng(43)
    truth = np.array([150.0, 638.0, 0.6, 250.0, 636.8, 0.12, 20.0, 0.0])
    y = model.fn(x, truth) + rng.normal(0.0, 5.0, size=len(x))
    res = least_squares_fit(model, x, y)
    assert not res.converged
    assert any("iteration cap" in w for w in res.warnings)


def test_least_squares_fit_api_validation():
    x = np.linspace(0.0, 1.0, 10)
    y = np.ones(10)
    with pytest.raises(ValueError):
        least_squares_fit("no-such-model", x, y)
    with pytest.raises(ValueError):
        least_squares_fit("single-exponential", x, y[:5])
    with pytest.raises(ValueError):
        least_squares_fit("single-exponential", x, y, sigma=np.zeros(10))
    with pytest.raises(ValueError):
        least_squares_fit("single-exponential", x[:1], y[:1])  # n < p
    with pytest.raises(ValueError):
        least_squares_fit("single-exponential", x, y, init=np.ones(5))


@pytest.mark.parametrize("name", ["x", "y", "sigma", "init"])
def test_least_squares_fit_rejects_non_finite_inputs(name):
    args = {"x": np.linspace(0.0, 1.0, 10), "y": np.exp(-np.linspace(0.0, 1.0, 10)),
            "sigma": np.full(10, 0.1), "init": np.array([1.0, 1.0])}
    args[name] = args[name].copy()
    args[name][1] = np.nan if name != "sigma" else np.inf
    with pytest.raises(ValueError, match=rf"{name}\[1\]"):
        least_squares_fit("single-exponential", **args)


def test_zero_valued_guess_gets_a_usable_fd_step():
    # the grid holds x = 0, so the guessed center is exactly 0: a start with
    # no scale of its own must still converge
    model = get_model("asymmetric-lorentzian")
    x = np.linspace(-5.0, 5.0, 151)
    truth = np.array([1.0, 0.01, 0.5, 1.0])
    y = model.fn(x, truth)
    assert model.guess(x, y)[1] == 0.0
    res = least_squares_fit(model, x, y, sigma=np.full(x.size, 0.01))
    assert res.converged
    assert np.allclose(list(res.params.values()), truth, rtol=1e-6, atol=1e-9)


def test_fit_result_json_dict_is_self_describing():
    res = fit_tau_detuning(synthetic_tau_detuning())
    doc = res.to_json_dict()
    assert doc["schema_version"] == 1
    assert doc["model"] == "tau-detuning"
    assert set(doc["params"]) == {"c", "kappa", "tau1"}
    assert len(doc["covariance"]) == 3
    assert isinstance(doc["converged"], bool)
