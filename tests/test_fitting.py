import dataclasses
import warnings
import zlib

import numpy as np
import pytest

from cavitykit import cli, fitting
from cavitykit.dynamics import AtomCavityParams, DecayTrace, decay_trace_to_csv
from cavitykit.fitting import (
    DegenerateFitError, MODEL_KINDS, fit_decay_trace, fit_spectrum,
    fit_tau_detuning, get_model, least_squares_fit,
)
from cavitykit.synthetic import (
    DEFAULT_ATOM_CAVITY, synthetic_decay_trace, synthetic_field_grid,
    synthetic_spectrum, synthetic_tau_detuning,
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


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_covariance_matches_the_inverse_normal_matrix(kind):
    # a well-conditioned noisy fit: with sigma given, the covariance equals
    # inv(J^T J), unscaled, with J the model's weighted Jacobian at the
    # fitted parameters in raw units
    x, ranges = ROUND_TRIP_CASES[kind]
    model = get_model(kind)
    rng = np.random.default_rng(zlib.crc32(b"covariance:" + kind.encode()))
    truth = np.array([rng.uniform(lo, hi) for lo, hi in ranges])
    sigma = np.full(x.size, 0.01 * np.max(np.abs(model.fn(x, truth))))
    y = model.fn(x, truth) + rng.normal(0.0, sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = least_squares_fit(model, x, y, sigma=sigma, init=truth)
    assert res.converged and res.warnings == ()
    jac = model.jacobian(x, np.array(list(res.params.values()))) / sigma[:, None]
    oracle = np.linalg.inv(jac.T @ jac)
    np.testing.assert_allclose(res.covariance, oracle, rtol=1e-9, atol=0.0)
    assert list(res.standard_errors.values()) == list(np.sqrt(np.diag(res.covariance)))


# Reference kernels: each built-in model's value and Jacobian written as
# plain whole-array expressions.  The package builds the same numbers in the
# same operation order, the spectrum and Lorentzian ones in place, row by row
# of a column-major Jacobian.
def _ref_exp_cols(t, a, tau):
    u = t / tau
    e = np.exp(-u)
    return [e, a * u * e / tau]


def _ref_lorentz_cols(x, a, x0, w):
    u = (x - x0) / w
    ell = 1.0 / (1.0 + u * u)
    d = 2.0 * a * u * ell * ell / w
    return [ell, d, d * u]


def _ref_fn(kind, x, th):
    if kind == "single-exponential":
        return th[0] * np.exp(-x / th[1])
    if kind == "single-exponential-background":
        return th[0] * np.exp(-x / th[1]) + th[2]
    if kind == "tau-detuning":
        c, kappa, tau1 = th
        return tau1 / (1.0 + c * (1.0 / (1.0 + 4.0 * (x / kappa) ** 2)))
    if kind == "lorentzian-plus-gaussian":
        a_c, x_c, w_c, a_z, x_z, s_z, b0, b1 = th
        lor = a_c / (1.0 + ((x - x_c) / w_c) ** 2)
        gau = a_z * np.exp(-0.5 * ((x - x_z) / s_z) ** 2)
        return lor + gau + b0 + b1 * x
    if kind == "tanh-transmission":
        return th[0] * 0.5 * (1.0 - np.tanh((np.abs(x) - th[1]) / th[2]))
    if kind == "exponential-saturation":
        return th[0] * (1.0 - np.exp(-x / th[1]))
    a, x0, w_left, w_right = th
    return a / (1.0 + ((x - x0) / np.where(x < x0, w_left, w_right)) ** 2)


def _ref_jacobian(kind, x, th):
    if kind.startswith("single-exponential"):
        cols = _ref_exp_cols(x, th[0], th[1]) + [np.ones_like(x)] * (len(th) - 2)
    elif kind == "tau-detuning":
        c, kappa, tau1 = th
        f = 1.0 / (1.0 + 4.0 * (x / kappa) ** 2)
        denom = 1.0 + c * f
        df_dkappa = np.where(x == 0.0, 0.0, 8.0 * kappa * x ** 2
                             / (kappa ** 2 + 4.0 * x ** 2) ** 2)
        cols = [-tau1 * f / denom ** 2, -tau1 * c * df_dkappa / denom ** 2, 1.0 / denom]
    elif kind == "lorentzian-plus-gaussian":
        a_c, x_c, w_c, a_z, x_z, s_z, _, _ = th
        v = (x - x_z) / s_z
        gau = np.exp(-0.5 * v * v)
        d = a_z * gau * v / s_z
        cols = _ref_lorentz_cols(x, a_c, x_c, w_c) + [gau, d, d * v, np.ones_like(x), x]
    elif kind == "tanh-transmission":
        t0, x0, s_ = th
        z = (np.abs(x) - x0) / s_
        t = np.tanh(z)
        d = 0.5 * t0 * (1.0 - t) * (1.0 + t) / s_
        cols = [0.5 * (1.0 - t), d, d * z]
    elif kind == "exponential-saturation":
        e, d = _ref_exp_cols(x, th[0], th[1])
        cols = [1.0 - e, -d]
    else:
        a, x0, w_left, w_right = th
        left = x < x0
        ell, d, d_w = _ref_lorentz_cols(x, a, x0, np.where(left, w_left, w_right))
        cols = [ell, d, np.where(left, d_w, 0.0), np.where(left, 0.0, d_w)]
    return np.column_stack(cols)


def _kernel_corpus(kind):
    """Parameter sets for one kind: draws inside the round-trip ranges,
    draws over twenty decades, and both with every parameter bounded at
    1e-300 put on its bound; the x grids hold 0 (delta = 0 for tau)."""
    x, ranges = ROUND_TRIP_CASES[kind]
    model = get_model(kind)
    rng = np.random.default_rng(zlib.crc32(b"kernel bits:" + kind.encode()))
    at_tiny = np.array(model.lower) == 1e-300
    sets = []
    for _ in range(100):
        inside = np.array([rng.uniform(lo, hi) for lo, hi in ranges])
        wide = inside * 10.0 ** rng.uniform(-10.0, 10.0, size=inside.size)
        for theta in (inside, wide):
            sets += [theta, np.where(at_tiny, 1e-300, theta)]
    grids = [x, np.concatenate([x, -x, [0.0]]), rng.normal(0.0, 1.0, 33) * np.abs(x).max()]
    return grids, sets


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_built_in_kernels_equal_their_plain_expressions_bit_for_bit(kind):
    model = get_model(kind)
    grids, sets = _kernel_corpus(kind)
    with np.errstate(all="ignore"):
        for x in grids:
            for theta in sets:
                jac = model.jacobian(x, theta)
                assert jac.shape == (x.size, theta.size) and jac.flags.f_contiguous
                assert jac.tobytes(order="F") == _ref_jacobian(kind, x, theta).tobytes(order="F"), \
                    (kind, theta)
                assert model.fn(x, theta).tobytes() == _ref_fn(kind, x, theta).tobytes(), \
                    (kind, theta)


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


def test_sigma_weighted_standard_errors_match_the_scatter():
    # a known 2% sigma column is absolute: z = (estimate - truth) / SE has
    # sd 1.  A chi-square-scaled SE from 9 points and 3 parameters gave z
    # the sd of a Student t with 6 degrees of freedom, 1.22 (1.21, 1.31 and
    # 1.19 here).  C = 0.5 puts the dip where the fit is close to linear: at
    # C = 0.14 the 12% dip leaves kappa's estimate skewed, and its z has sd
    # 1.20 and mean -0.25 even with these SEs
    rng = np.random.default_rng(12)
    truth = {"c": 0.5, "kappa": DEFAULT_ATOM_CAVITY.kappa_hz,
             "tau1": DEFAULT_ATOM_CAVITY.tau1_s}
    z = {name: [] for name in truth}
    for _ in range(1000):
        res = fit_tau_detuning(synthetic_tau_detuning(c=0.5, rng=rng))
        for name, value in truth.items():
            z[name].append((res.params[name] - value) / res.standard_errors[name])
    for name, zs in z.items():
        assert abs(np.std(zs) - 1.0) <= 0.1, name
        assert abs(np.mean(zs)) <= 0.2, name


@pytest.mark.parametrize("peak_counts", [1e4, 300.0])
def test_poisson_weighted_tau_error_matches_the_scatter(peak_counts):
    # the sqrt(max(y, 1)) weights of raw counts are known noise: the sd of
    # the fitted tau is within 10% of the median reported SE (0.96 and 1.07
    # of it here).  Scaled by the reduced chi-square, which the zero- and
    # one-count tail bins pull to 0.58 and 0.36, the SE fell to 1/1.27 and
    # 1/1.81 of the scatter.  The Neyman weights also bias tau low, by about
    # one SE at 1e4 counts, which no covariance describes
    rng = np.random.default_rng(11)
    taus, ses = [], []
    for _ in range(400):
        res = fit_decay_trace(synthetic_decay_trace(peak_counts=peak_counts, rng=rng))
        taus.append(res.params["tau"])
        ses.append(res.standard_errors["tau"])
    assert abs(np.std(taus) / np.median(ses) - 1.0) <= 0.1


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
    pts = synthetic_tau_detuning(rng=np.random.default_rng(11))
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


def _shallow_dip():
    """A shallow dip (C ~ 0.11, 1% noise) whose far-detuned points noise
    pushes below mid-depth: from the guess (kappa 3.5x its value) the first
    step drives kappa to its lower bound, 1e-300.  Returns (delta, tau,
    noisy tau, guess); the guess is the init, so a better guess later does
    not hide the case."""
    rng = np.random.default_rng(4794)
    c = rng.uniform(0.10, 0.12)
    delta = 940e9 * np.linspace(-3.0, 3.0, 25)
    tau = 15.9e-9 / (1.0 + c / (1.0 + 4.0 * (delta / 940e9) ** 2))
    noisy = tau + rng.normal(0.0, 0.01 * tau)
    return delta, tau, noisy, get_model("tau-detuning").guess(delta, noisy)


def _tau_detuning_jac_0_over_0(delta, th):
    """tau(Delta)'s Jacobian with d f / d kappa written as
    8 kappa delta^2 / (kappa^2 + 4 delta^2)^2: 0/0 at kappa = 1e-300 and
    delta = 0, a model whose derivatives are undefined where the fit ends."""
    c, kappa, tau1 = th
    f = 1.0 / (1.0 + 4.0 * (delta / kappa) ** 2)
    denom = 1.0 + c * f
    df_dkappa = 8.0 * kappa * delta ** 2 / (kappa ** 2 + 4.0 * delta ** 2) ** 2
    return np.column_stack([-tau1 * f / denom ** 2,
                            -tau1 * c * df_dkappa / denom ** 2, 1.0 / denom])


def test_non_finite_normal_matrix_is_a_degenerate_fit():
    # the shallow dip's first step puts kappa where this model's kappa
    # column is 0/0, and no covariance can be formed there
    delta, tau, noisy, init = _shallow_dip()
    model = dataclasses.replace(get_model("tau-detuning"),
                                jacobian=_tau_detuning_jac_0_over_0)
    with pytest.raises(DegenerateFitError, match="not finite"):
        least_squares_fit(model, delta, noisy, sigma=0.01 * tau, init=init)


def test_a_fit_leaves_numpy_error_state_as_it_found_it():
    before = np.geterr()
    res = fit_tau_detuning(synthetic_tau_detuning())
    assert res.converged
    assert np.geterr() == before
    delta, tau, noisy, init = _shallow_dip()
    model = dataclasses.replace(get_model("tau-detuning"),
                                jacobian=_tau_detuning_jac_0_over_0)
    with pytest.raises(DegenerateFitError):
        least_squares_fit(model, delta, noisy, sigma=0.01 * tau, init=init)
    assert np.geterr() == before


def test_tau_detuning_jacobian_is_finite_at_the_kappa_bound():
    # d f / d kappa is 0 at delta = 0, where the quotient is 0/0 at this
    # kappa, and the shallow dip's fit ends on a dead kappa column (a
    # singular normal matrix, reported), not on NaN.  The model is evaluated as
    # least_squares_fit does, with numpy's warnings off: delta / kappa
    # overflows at 1e11 / 1e-300, which makes f 0 there
    with np.errstate(all="ignore"):
        jac = get_model("tau-detuning").jacobian(
            np.array([0.0, 1e11]), np.array([0.14, 1e-300, 15.9e-9]))
    assert np.all(np.isfinite(jac))
    assert jac[0, 1] == 0.0
    delta, tau, noisy, init = _shallow_dip()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = least_squares_fit("tau-detuning", delta, noisy, sigma=0.01 * tau,
                                init=init)
    assert any(w.startswith("singular normal matrix") for w in res.warnings)
    assert res.standard_errors["kappa"] == np.inf
    assert "parameter 'kappa' is unconstrained by the data" in res.warnings


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


@pytest.mark.parametrize("skip", [2.5, "3", True, np.float64(3.0)])
def test_skip_bins_takes_only_an_integer(skip):
    trace = synthetic_decay_trace()
    with pytest.raises(ValueError, match="skip_bins must be an integer, got "):
        fit_decay_trace(trace, skip_bins=skip)


def test_skip_bins_takes_a_numpy_integer():
    trace = synthetic_decay_trace()
    assert _bits(fit_decay_trace(trace, skip_bins=np.int64(3))) == \
        _bits(fit_decay_trace(trace, skip_bins=3))
    with pytest.raises(ValueError, match="skip_bins must be >= 0, got -1"):
        fit_decay_trace(trace, skip_bins=np.int64(-1))


@pytest.mark.parametrize("make, message", [
    (lambda: synthetic_decay_trace(n_bins=2.5), "n_bins must be an integer, got 2.5"),
    (lambda: synthetic_decay_trace(n_bins=True), "n_bins must be an integer, got True"),
    (lambda: synthetic_decay_trace(n_bins=1), "n_bins must be >= 2, got 1"),
    (lambda: synthetic_spectrum(n=20.5), "n must be an integer, got 20.5"),
    (lambda: synthetic_spectrum(n=1), "n must be >= 2, got 1"),
    (lambda: synthetic_field_grid(dims=(5.5, 5, 5)), r"dims\[0\] must be an integer, got 5.5"),
    (lambda: synthetic_field_grid(dims=(5, 1, 5)), r"dims\[1\] must be >= 2, got 1"),
    (lambda: synthetic_field_grid(dims=(5, 5, np.int64(0))), r"dims\[2\] must be >= 2, got 0"),
])
def test_synthetic_sizes_take_only_integers_in_range(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_synthetic_trace_meta_records_gamma_phi():
    # rate_per_s depends on gamma_phi, so the meta says which one it used
    bare = synthetic_decay_trace().meta
    p = DEFAULT_ATOM_CAVITY
    dephased = synthetic_decay_trace(
        AtomCavityParams(p.g0_hz, p.kappa_hz, p.gamma1, gamma_phi=3e12)).meta
    assert {k for k in bare if bare[k] != dephased[k]} == {"gamma_phi_per_s", "rate_per_s"}
    assert (bare["gamma_phi_per_s"], dephased["gamma_phi_per_s"]) == (0.0, 3e12)
    assert dephased["rate_per_s"] == pytest.approx(6.720e7, rel=1e-3)
    assert bare["rate_per_s"] == pytest.approx(7.158e7, rel=1e-3)


@pytest.mark.parametrize("make, message", [
    (lambda: synthetic_field_grid(dims=(5, 5)), r"dims must be 3 integers, got \(5, 5\)"),
    (lambda: synthetic_field_grid(dims=5), "dims must be 3 integers, got 5"),
    (lambda: synthetic_spectrum(cavity=(1.0, 638.0)), r"cavity must be finite \(height, "),
    (lambda: synthetic_spectrum(cavity=5), "cavity must be .* got 5$"),
    (lambda: synthetic_spectrum(cavity=(1.0, 638.0, 0.0)), "half width > 0, got"),
    (lambda: synthetic_spectrum(zpl=(1.0, 637.0, -0.1)), "zpl must be .* sigma > 0"),
    (lambda: synthetic_spectrum(zpl=(np.nan, 637.0, 0.1)), "zpl must be finite"),
    (lambda: synthetic_spectrum(noise_frac=-0.02, rng=np.random.default_rng(0)),
     "noise_frac must be finite and >= 0, got -0.02"),
    (lambda: synthetic_decay_trace(peak_counts=-1.0, rng=np.random.default_rng(0)),
     "peak_counts must be finite and >= 0, got -1.0"),
    (lambda: synthetic_decay_trace(background_counts=-5.0, rng=np.random.default_rng(0)),
     "background_counts must be finite and >= 0, got -5.0"),
    (lambda: synthetic_tau_detuning(sigma_frac=-0.02), "sigma_frac must be finite and >= 0"),
])
def test_synthetic_generators_name_a_bad_argument(make, message):
    # checked before any numpy work: a zero width would divide by zero, and
    # the warnings filter makes such a warning fail here
    with pytest.raises(ValueError, match=message):
        make()


def test_synthetic_sizes_take_numpy_integers():
    assert len(synthetic_decay_trace(n_bins=np.int64(40)).times) == 40
    assert synthetic_spectrum(n=np.int32(24)).shape == (24, 2)
    assert synthetic_field_grid(dims=(np.int64(3), 3, 3)).e_field.shape == (3, 3, 3, 3)


@pytest.mark.parametrize("peak_counts, background, with_background", [
    (1e4, 0.0, False), (300.0, 0.0, False), (1e3, 5.0, True), (1e4, 50.0, True)])
def test_the_exponential_start_is_the_polyfit_log_slope(peak_counts, background,
                                                        with_background):
    # the closed-form log-linear slope is np.polyfit's to 1e-12 relative
    rng = np.random.default_rng(zlib.crc32(f"start:{peak_counts}:{background}".encode()))
    for _ in range(20):
        trace = synthetic_decay_trace(peak_counts=peak_counts,
                                      background_counts=background, rng=rng)
        t, y = trace.times, trace.values
        b0 = 0.99 * y.min() if with_background else 0.0
        pos = y - b0 > 0.02 * (y - b0).max()
        slope = np.polyfit(t[pos], np.log(y[pos] - b0), 1)[0]
        assert slope < 0.0
        tau0 = fitting._guess_exponential(t, y, with_background)[1]
        assert tau0 == pytest.approx(-1.0 / slope, rel=1e-12)


def test_the_transmission_start_level_is_the_95th_percentile():
    model = get_model("tanh-transmission")
    rng = np.random.default_rng(95)
    for n in (3, 4, 20, 21, 81, 200):
        x = np.linspace(-400.0, 400.0, n)
        y = model.fn(x, np.array([0.8, 150.0, 20.0])) + rng.normal(0.0, 0.02, n)
        assert fitting._guess_tanh(x, y)[0] == np.quantile(y, 0.95)


@pytest.mark.parametrize("value", [637.0, 0.1])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_a_fit_on_one_repeated_x_warns_about_nothing(kind, value):
    # 0.1 repeated has no exact mean, so a closed-form start that centred it
    # would see a spread of rounding errors
    y = 10.0 + np.random.default_rng(3).normal(0.0, 1.0, 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if kind == "lorentzian-plus-gaussian":
            with pytest.raises(DegenerateFitError,
                               match="the start guessed from the data is not finite"):
                least_squares_fit(kind, np.full(40, value), y)
        else:
            res = least_squares_fit(kind, np.full(40, value), y)
            assert res.warnings
    if kind.startswith("single-exponential"):
        # no slope to read: the lifetime starts at a third of a unit span
        assert get_model(kind).guess(np.full(40, value), y)[1] == 1.0 / 3.0


# trace 92 of 1000 low-count Poisson traces (40 1-ns bins, amplitude
# 0.5-20 counts, tau 0.1-30 ns, background 0-3, numpy seed 5): the fit runs
# tau down to its 1e-300 bound, with and without a background
LOW_COUNT_TRACE = [0, 3, 0, 1, 1, 1, 0, 2, 2, 5, 4, 2, 1, 2, 3, 1, 1, 2, 1, 4,
                   3, 1, 3, 3, 3, 1, 3, 1, 1, 1, 3, 0, 2, 1, 0, 2, 0, 4, 1, 3]


@pytest.mark.parametrize("kind", ["single-exponential", "single-exponential-background",
                                  "exponential-saturation"])
def test_exponential_jacobians_are_finite_at_the_decay_length_bound(kind):
    # t exp(-t/tau) / tau^2 is 0/0 once tau^2 underflows
    model = get_model(kind)
    theta = np.array([2.0, 1e-300, 1.0])[:len(model.param_names)]
    jac = model.jacobian(np.arange(40) * 1e-9, theta)
    assert np.all(jac[:, 1] == 0.0)


@pytest.mark.parametrize("with_background", [False, True])
def test_a_decay_fit_on_the_tau_bound_is_unconstrained_in_tau(with_background, tmp_path):
    trace = DecayTrace(times=np.arange(40) * 1e-9, values=np.array(LOW_COUNT_TRACE, float),
                       kind="measured", bin_width_s=1e-9)
    res = fit_decay_trace(trace, with_background=with_background)
    assert res.params["tau"] == 1e-300
    assert res.standard_errors["tau"] == np.inf
    assert "parameter 'tau' is unconstrained by the data" in res.warnings
    path = tmp_path / "trace.csv"
    path.write_text(decay_trace_to_csv(trace))
    assert cli.main(["fit-decay", str(path)] + ["--background"] * with_background) == 0


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
                            init=fitting._guess_spectrum(lam, core)[0])
    assert res.params["a_zpl"] == 0.0
    assert res.converged
    assert res.n_iterations < 50
    assert any("'x_zpl' is unconstrained" in w for w in res.warnings)


SPECTRUM_X = np.linspace(630.0, 645.0, 240)


def _noisy_spectrum(rng, w_cav, sep, sigma_zpl):
    """A cavity Lorentzian (half width w_cav) over a ZPL Gaussian sep nm to
    its blue, on a sloped baseline, with noise of 2 counts."""
    x_c = 638.2 + rng.uniform(-0.3, 0.3)
    truth = np.array([rng.uniform(80, 160), x_c, w_cav,
                      rng.uniform(200, 300), x_c - sep, sigma_zpl,
                      rng.uniform(30.0, 50.0), rng.uniform(-0.06, -0.04)])
    y = get_model("lorentzian-plus-gaussian").fn(SPECTRUM_X, truth)
    return np.column_stack([SPECTRUM_X, y + rng.normal(0.0, 2.0, SPECTRUM_X.size)])


def _fit_batch_like_spectra(seed, n):
    """A broad cavity next to a narrow ZPL, 1.0-1.4 nm apart or overlapping
    at 0.5-0.8 nm, as in the fit-batch benchmark."""
    rng = np.random.default_rng(seed)
    return [_noisy_spectrum(rng, rng.uniform(0.5, 0.8),
                            rng.uniform(*(1.0, 1.4) if i % 2 else (0.5, 0.8)),
                            rng.uniform(0.1, 0.15))
            for i in range(n)]


def _high_q_spectra(seed, n):
    """A high-Q cavity (half width 0.1-0.2 nm) over a broad room-temperature
    ZPL (sigma 0.8-1.5 nm)."""
    rng = np.random.default_rng(seed)
    return [_noisy_spectrum(rng, rng.uniform(0.1, 0.2), rng.uniform(0.3, 1.4),
                            rng.uniform(0.8, 1.5))
            for _ in range(n)]


def test_the_spectrum_baseline_is_the_polyfit_line_through_the_lowest_30_percent(monkeypatch):
    # the baseline set is ys <= np.quantile(ys, 0.3), and the closed-form
    # line through it is np.polyfit's to 1e-12 relative
    seen = []
    slope = fitting._slope

    def spy(x, y):
        seen.append((x.copy(), y.copy()))
        return slope(x, y)

    monkeypatch.setattr(fitting, "_slope", spy)
    for spec in _fit_batch_like_spectra(1401, 20) + _high_q_spectra(1402, 20):
        seen.clear()
        starts = fitting._guess_spectrum(spec[:, 0], spec[:, 1])
        xs, ys = spec[np.argsort(spec[:, 0])].T
        low = ys <= np.quantile(ys, 0.3)
        assert len(seen) == 1
        assert np.array_equal(seen[0][0], xs[low]) and np.array_equal(seen[0][1], ys[low])
        b1, b0 = np.polyfit(xs[low], ys[low], 1)
        for start in starts:
            assert start[6] == pytest.approx(b0, rel=1e-12)
            assert start[7] == pytest.approx(b1, rel=1e-12)


def _both_starts(spec):
    """fit_spectrum's two starts, each run on its own, and whether the
    swapped one wins (a lower residual; a tie keeps the first)."""
    lam, inten = spec[:, 0], spec[:, 1]
    kept, other = (least_squares_fit("lorentzian-plus-gaussian", lam, inten,
                                     init=init)
                   for init in fitting._guess_spectrum(lam, inten))
    won = other.residual_norm < kept.residual_norm
    return (other if won else kept), won


def _assert_same_fit(res, ref):
    assert res.params == ref.params
    assert np.array_equal(res.covariance, ref.covariance)
    assert res.residual_norm == ref.residual_norm
    assert res.n_iterations == ref.n_iterations
    assert res.converged == ref.converged
    # fit_spectrum may add its own notes after the fit's: the centers'
    # correlation, a width below the sample spacing, a center at an edge
    assert res.warnings[:len(ref.warnings)] == ref.warnings
    assert all(any(k in w for k in ("correlated", "sample spacing", "sampled range"))
               for w in res.warnings[len(ref.warnings):])


def _fit_spectrum_at_ftol(monkeypatch, spec, ftol):
    """fit_spectrum's fit with fitting.FTOL set to ftol, and whether the
    swapped start won; fails unless fit_spectrum ran exactly two starts."""
    starts = []
    lsq = fitting.least_squares_fit

    def spy(*args, **kwargs):
        starts.append(lsq(*args, **kwargs))
        return starts[-1]

    with monkeypatch.context() as m:
        m.setattr(fitting, "FTOL", ftol)
        m.setattr(fitting, "least_squares_fit", spy)
        res = fit_spectrum(spec)
    assert len(starts) == 2
    return res, res is starts[1]


def test_fit_spectrum_keeps_the_lower_of_its_two_starts(monkeypatch):
    # the swapped start loses on every one of these
    specs = _fit_batch_like_spectra(1401, 20)
    refs = [_both_starts(spec) for spec in specs]
    assert not any(won for _, won in refs)
    for spec, (ref, _) in zip(specs, refs):
        res, won = _fit_spectrum_at_ftol(monkeypatch, spec, fitting.FTOL)
        assert not won
        _assert_same_fit(res, ref)


def test_a_losing_start_that_ends_on_its_own_still_loses(monkeypatch):
    # a swapped start that ends above the first fit's cost, however it ends,
    # loses the residual comparison
    spec = _noisy_spectrum(np.random.default_rng(1403), 0.6, 1.2, 0.12)
    lam, inten = spec[:, 0], spec[:, 1]
    fits = [least_squares_fit("lorentzian-plus-gaussian", lam, inten, init=init)
            for init in fitting._guess_spectrum(lam, inten)]
    assert fits[1].residual_norm > fits[0].residual_norm
    calls = iter(fits)
    monkeypatch.setattr(fitting, "least_squares_fit", lambda *args, **kwargs: next(calls))
    assert fit_spectrum(spec) is fits[0]


def _wide_family_spectrum(seed, index):
    """The index-th spectrum drawn from numpy seed `seed` over a wide family:
    heights 50-300, cavity half width and ZPL sigma 0.05-1.5 nm, centers
    within 2 nm of each other, baseline 0-50 with slope up to 0.1/nm, noise
    0.5-10 counts."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        a_c, x_c, w_c = rng.uniform(50, 300), 638.2 + rng.uniform(-1, 1), rng.uniform(0.05, 1.5)
        a_z, x_z, s_z = rng.uniform(50, 300), x_c - rng.uniform(-2, 2), rng.uniform(0.05, 1.5)
        truth = np.array([a_c, x_c, w_c, a_z, x_z, s_z,
                          rng.uniform(0.0, 50.0), rng.uniform(-0.1, 0.1)])
        y = get_model("lorentzian-plus-gaussian").fn(SPECTRUM_X, truth)
        y = y + rng.normal(0.0, rng.uniform(0.5, 10.0), SPECTRUM_X.size)
    return np.column_stack([SPECTRUM_X, y])


# (seed, index) of wide-family spectra whose swapped start slows down far
# above the first fit's cost and then goes on to win: a test that ends a
# start on slow progress too early returns the first fit on these
SLOW_THEN_WINNING = [
    (10, 404), (11, 21), (11, 265), (11, 518), (12, 94), (12, 150), (12, 228),
    (12, 239), (12, 411), (13, 83), (13, 416), (13, 548), (20, 142), (21, 196),
    (21, 348), (22, 184), (23, 26), (23, 457), (23, 582), (24, 85), (24, 256),
    (24, 305), (24, 364), (26, 101), (27, 214), (27, 524),
]


def test_a_swapped_start_that_slows_down_and_then_wins_is_kept():
    for seed, index in SLOW_THEN_WINNING:
        spec = _wide_family_spectrum(seed, index)
        ref, won = _both_starts(spec)
        assert won, (seed, index)
        _assert_same_fit(fit_spectrum(spec), ref)


def test_swapped_start_still_wins_where_it_should():
    # the guess takes the broad ZPL for the cavity, and the swapped start
    # wins on most of these
    wins = 0
    for spec in _high_q_spectra(1402, 20):
        ref, won = _both_starts(spec)
        _assert_same_fit(fit_spectrum(spec), ref)
        wins += won
    assert wins >= 5


def test_peak_centers_below_the_sample_spacing_are_noted_as_correlated():
    # a cavity (half width 0.15 nm) and a ZPL (sigma 0.25 nm) 0.4 nm apart on
    # 47 samples, 0.326 nm apart: the noiseless fit recovers both, yet their
    # centres trade against each other
    cavity, zpl = (60.0, 638.35, 0.15), (210.0, 637.95, 0.25)
    res = fit_spectrum(synthetic_spectrum(n=47, cavity=cavity, zpl=zpl))
    truth = dict(zip(res.params, cavity + zpl + (40.0, -0.05)))
    assert res.converged
    for name, value in truth.items():
        assert res.params[name] == pytest.approx(value, rel=1e-8, abs=1e-8), name
    i, j = list(res.params).index("x_cav"), list(res.params).index("x_zpl")
    cov = res.covariance
    assert abs(cov[i, j]) > 0.99 * np.sqrt(cov[i, i] * cov[j, j])
    assert "peak centers are >99% correlated; the two features may not be " \
        "independently resolvable" in res.warnings


def test_the_relative_reduction_test_changes_no_fit(monkeypatch):
    # FTOL = 0 turns the test off, and each start runs on to the step or
    # gradient test or the cap.  The 1e-3 SE bound is not met on every
    # spectrum of these families: a few high-Q fits with a tail of 150 or
    # more iterations move by up to ~6e-3 SE
    specs = (_fit_batch_like_spectra(1401, 20) + _high_q_spectra(1402, 20)
             + [_wide_family_spectrum(seed, index) for seed, index in SLOW_THEN_WINNING])
    for spec in specs:
        ref, ref_won = _fit_spectrum_at_ftol(monkeypatch, spec, 0.0)
        res, won = _fit_spectrum_at_ftol(monkeypatch, spec, fitting.FTOL)
        assert won == ref_won
        assert res.residual_norm == pytest.approx(ref.residual_norm, rel=1e-8, abs=0.0)
        if not any("singular" in w for w in ref.warnings):
            for name, se in ref.standard_errors.items():
                assert abs(res.params[name] - ref.params[name]) <= 1e-3 * se, name


def _without_secant(monkeypatch, fit, *args, **kwargs):
    """fit(*args, **kwargs) with the secant term switched off: pure
    Gauss-Newton however the fit crawls."""
    with monkeypatch.context() as m:
        m.setattr(fitting, "_CRAWL_RHO", 0.0)
        return fit(*args, **kwargs)


def test_a_fit_that_does_not_crawl_is_pure_gauss_newton(monkeypatch):
    # the secant term switches on only once a fit crawls: every round-trip
    # fit and the first start of every fit-batch-like spectrum keeps every
    # bit with the switch off
    for kind, (x, ranges) in ROUND_TRIP_CASES.items():
        model = get_model(kind)
        rng = np.random.default_rng(zlib.crc32(b"secant:" + kind.encode()))
        for _ in range(4):
            truth = np.array([rng.uniform(lo, hi) for lo, hi in ranges])
            clean = model.fn(x, truth)
            y = clean + rng.normal(0.0, 0.01 * np.max(np.abs(clean)), size=x.size)
            init = perturbed_init(kind, truth, rng)
            for data in (clean, y):
                ref = _without_secant(monkeypatch, least_squares_fit, model, x, data, init=init)
                assert _bits(least_squares_fit(model, x, data, init=init)) == _bits(ref), kind
    for spec in _fit_batch_like_spectra(1401, 20):
        lam, inten = spec[:, 0], spec[:, 1]
        init = fitting._guess_spectrum(lam, inten)[0]
        ref = _without_secant(monkeypatch, least_squares_fit, "lorentzian-plus-gaussian",
                              lam, inten, init=init)
        res = least_squares_fit("lorentzian-plus-gaussian", lam, inten, init=init)
        assert _bits(res) == _bits(ref)


def test_a_crawling_start_ends_within_60_iterations(monkeypatch):
    # the swapped starts of overlapping peaks settle into a large-residual
    # minimum, where Gauss-Newton alone takes up to 500 iterations; with the
    # secant term each ends within 60, at the Gauss-Newton endpoint's
    # residual where that run converges
    longest = 0
    for spec in _fit_batch_like_spectra(1401, 400)[::2]:
        lam, inten = spec[:, 0], spec[:, 1]
        init = fitting._guess_spectrum(lam, inten)[1]
        ref = _without_secant(monkeypatch, least_squares_fit, "lorentzian-plus-gaussian",
                              lam, inten, init=init)
        res = least_squares_fit("lorentzian-plus-gaussian", lam, inten, init=init)
        longest = max(longest, ref.n_iterations)
        assert res.converged and res.n_iterations <= 60
        if ref.converged:
            assert res.residual_norm == pytest.approx(ref.residual_norm, rel=1e-8, abs=0.0)
    assert longest == fitting.MAX_ITERATIONS


def test_a_secant_step_that_raises_the_cost_is_taken_by_gauss_newton(monkeypatch):
    # the swapped start of wide-family spectrum (14, 21) runs its cavity off
    # the window along a valley where J^T J is singular; there S makes the
    # damped matrix indefinite.  Retried as Gauss-Newton steps, the failed
    # secant steps do not stop the start from converging where Gauss-Newton
    # alone converges (316 iterations), at its residual
    spec = _wide_family_spectrum(14, 21)
    lam, inten = spec[:, 0], spec[:, 1]
    init = fitting._guess_spectrum(lam, inten)[1]
    ref = _without_secant(monkeypatch, least_squares_fit, "lorentzian-plus-gaussian",
                          lam, inten, init=init)
    res = least_squares_fit("lorentzian-plus-gaussian", lam, inten, init=init)
    assert ref.converged and res.converged
    assert res.n_iterations < ref.n_iterations
    assert res.residual_norm == pytest.approx(ref.residual_norm, rel=1e-7, abs=0.0)


@pytest.mark.parametrize("spec, residual, other", [
    (lambda: _wide_family_spectrum(10, 101), 159.26, 169.83),
    (lambda: _high_q_spectra(60, 100)[47], 169.40, 170.56),
    (lambda: _high_q_spectra(60, 100)[64], 161.13, 163.20),
], ids=["wide-10-101", "high-q-47", "high-q-64"])
def test_a_start_that_hit_the_cap_converges_below_the_other(spec, residual, other):
    # Gauss-Newton alone ran the first start to the iteration cap above the
    # swapped start's residual, and fit_spectrum returned the swapped one;
    # with the secant term the first start converges below it
    spec = spec()
    lam, inten = spec[:, 0], spec[:, 1]
    first, swapped = (least_squares_fit("lorentzian-plus-gaussian", lam, inten, init=init)
                      for init in fitting._guess_spectrum(lam, inten))
    assert first.converged and first.n_iterations < fitting.MAX_ITERATIONS
    assert first.residual_norm == pytest.approx(residual, abs=0.005)
    assert swapped.residual_norm == pytest.approx(other, abs=0.005)
    res = fit_spectrum(spec)
    _assert_same_fit(res, first)


# a high-Q spectrum whose swapped start runs off to |x_zpl| > 1e140 on many
def _dgw_update(secant, step, j_old, j_new, r_old, r_new, held):
    """The Dennis-Gay-Welsch update of NL2SOL, transcribed in the raw
    parameters: secant approximates sum_i r_i Hess r_i, j_old and j_new are
    the weighted Jacobians at the old and new points, the held parameters
    did not move, and the update is skipped when y.s <= 0."""
    y_sharp = (j_old - j_new).T @ r_new
    y = j_old.T @ r_old - j_new.T @ r_new
    y_sharp[held] = 0.0
    y[held] = 0.0
    ys = y @ step
    if ys <= 0.0:
        return secant, None
    s_s = secant @ step
    size = min(1.0, abs(step @ y_sharp) / abs(step @ s_s)) if step @ s_s else 1.0
    w = y_sharp - size * s_s
    return (size * secant + (np.outer(w, y) + np.outer(y, w)) / ys
            - (w @ step) / ys ** 2 * np.outer(y, y)), size


@pytest.mark.parametrize("case", ["sized", "from zero", "held", "carried over"])
def test_the_secant_update_is_the_dgw_update_in_the_loop_scaling(case):
    # _secant_update takes and returns S in the column scaling of a point
    # (S_raw / (scale scale^T)), carries it from the old point's scaling to
    # the new one's, zeroes the held parameters' rows of y# and y, sizes S
    # and meets the secant condition S s = y#; with y.s <= 0 it only
    # carries S over.  Column scales far apart make a wrong rescale show
    rng = np.random.default_rng(zlib.crc32(b"dgw:" + case.encode()))
    n, p = 30, 4
    col = np.array([1e3, 1.0, 1e-3, 10.0])
    j_old = rng.normal(size=(n, p)) * col
    j_new = j_old + 0.2 * rng.normal(size=(n, p)) * col
    r_old, r_new = rng.normal(size=n), rng.normal(size=n)
    scale_old, scale = np.linalg.norm(j_old, axis=0), np.linalg.norm(j_new, axis=0)
    a = rng.normal(size=(p, p))
    secant = (0.0 if case == "from zero" else 50.0) * (a + a.T) * np.outer(scale_old, scale_old)
    held = np.zeros(p, dtype=bool)
    held[2] = case == "held"
    step = rng.normal(size=p) / scale
    step[held] = 0.0
    y = j_old.T @ r_old - j_new.T @ r_new
    y[held] = 0.0
    if (y @ step > 0.0) == (case == "carried over"):
        step = -step
    expected, size = _dgw_update(secant, step, j_old, j_new, r_old, r_new, held)
    assert (size is None) == (case == "carried over")
    if case == "sized":
        assert size < 0.5
    # the loop's inputs: the scaled Jacobian at the old point, its held
    # columns zeroed, and the scaled gradient at the new one
    js_old = j_old / scale_old
    js_old[:, held] = 0.0
    got = fitting._secant_update(
        secant / np.outer(scale_old, scale_old), scale, (j_new / scale).T @ r_new, step,
        scale_old, js_old.T @ r_new, js_old.T @ r_old, held if held.any() else None)
    expected = expected / np.outer(scale, scale)
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12 * abs(expected).max())
    np.testing.assert_allclose(got, got.T, rtol=1e-12, atol=0.0)
    if size is not None:
        y_sharp = ((j_old - j_new).T @ r_new) / scale
        y_sharp[held] = 0.0
        np.testing.assert_allclose(got @ (step * scale), y_sharp, rtol=1e-9,
                                   atol=1e-12 * abs(y_sharp).max())


# noise seeds, where the covariance overflows float64
RUNAWAY_TRUTH = np.array([149.28, 637.9348, 0.1306, 213.64, 637.0493, 1.4909, 33.38, -0.049])


@pytest.mark.parametrize("seed", [87, 15])
def test_an_overflowing_variance_is_unconstrained(seed):
    y = (get_model("lorentzian-plus-gaussian").fn(SPECTRUM_X, RUNAWAY_TRUTH)
         + np.random.default_rng(seed).normal(0.0, 2.0, SPECTRUM_X.size))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runaway = least_squares_fit("lorentzian-plus-gaussian", SPECTRUM_X, y,
                                    init=fitting._guess_spectrum(SPECTRUM_X, y)[1])
        res = fit_spectrum(np.column_stack([SPECTRUM_X, y]))
    # x_zpl's column is tiny but not zero, and its variance overflows.  Out
    # there the Gaussian is a constant, so the a_zpl and base_offset columns
    # coincide and only their sum is known: each is unconstrained, where the
    # pseudo-inverse gave such a runaway variances of -2.6e13 and SEs of 0
    assert abs(runaway.params["x_zpl"]) > 1e140
    for name in ("a_zpl", "x_zpl", "sigma_zpl", "base_offset"):
        assert runaway.standard_errors[name] == np.inf
        assert f"parameter {name!r} is unconstrained by the data" in runaway.warnings
    for name in ("a_cav", "x_cav", "w_cav", "base_slope"):
        assert 0.0 < runaway.standard_errors[name] < np.inf
    assert res.residual_norm < runaway.residual_norm


def test_a_fit_with_no_cavity_left_is_unconstrained_in_it():
    # the first high-Q spectrum ends with its cavity run off far below the
    # window; the pseudo-inverse gave it finite SEs of up to 2.6e7
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fit_spectrum(_high_q_spectra(1402, 1)[0])
    assert res.params["x_cav"] < SPECTRUM_X[0]
    for name in ("a_cav", "x_cav", "w_cav", "base_offset", "base_slope"):
        assert res.standard_errors[name] == np.inf
        assert f"parameter {name!r} is unconstrained by the data" in res.warnings
    assert any(w.startswith("x_cav = ") and "edge of the sampled range" in w
               for w in res.warnings)


@pytest.mark.parametrize("index, residual", [(36, 109.2), (93, 124.5), (99, 150.6),
                                             (173, 143.4)])
def test_a_start_that_raises_loses(index, residual):
    # the first start runs off to where the Jacobian is not finite; the
    # swapped start's fit is returned
    spec = _wide_family_spectrum(61, index)
    guess = fitting._guess_spectrum(spec[:, 0], spec[:, 1])[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateFitError, match="not finite"):
            least_squares_fit("lorentzian-plus-gaussian", spec[:, 0], spec[:, 1],
                              init=guess)
        res = fit_spectrum(spec)
    assert res.residual_norm == pytest.approx(residual, abs=0.05)


def test_two_starts_that_raise_name_both_causes(monkeypatch):
    def fail(*args, init, **kwargs):
        raise DegenerateFitError(f"start at a_cav={init[0]:.6g}")

    monkeypatch.setattr(fitting, "least_squares_fit", fail)
    spec = synthetic_spectrum()
    guess, swapped = fitting._guess_spectrum(spec[:, 0], spec[:, 1])
    with pytest.raises(DegenerateFitError) as err:
        fit_spectrum(spec)
    assert str(err.value) == (f"both starts failed; guess start: start at a_cav={guess[0]:.6g}; "
                              f"swapped start: start at a_cav={swapped[0]:.6g}")


def test_a_peak_narrower_than_the_sample_spacing_is_noted():
    # high-Q spectrum 63 ends converged with its cavity on one sample at
    # the window's edge: w_cav 0.0021 nm against a spacing of 0.063 nm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fit_spectrum(_high_q_spectra(60, 64)[63])
    assert res.converged
    assert res.params["w_cav"] < 0.01
    assert "w_cav = 0.00209 is below the sample spacing 0.0628; the peak is not resolved" \
        in res.warnings


def test_tau_detuning_noisy_band_recovery():
    # sweep with 2% error bars: C comes back inside the 0.14 +/- 0.03 band
    pts = synthetic_tau_detuning(sigma_frac=0.02, rng=np.random.default_rng(77))
    res = fit_tau_detuning(pts)
    assert abs(res.params["c"] - 0.14) <= 0.03
    assert res.standard_errors["c"] > 0.0
    assert res.params["tau1"] == pytest.approx(15.9e-9, rel=0.05)


def test_a_spectrum_with_one_wavelength_is_degenerate():
    inten = 10.0 + np.random.default_rng(4).normal(0.0, 1.0, 30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateFitError,
                           match=r"^every sample has the wavelength 637.0; a spectrum with no span"):
            fit_spectrum(np.column_stack([np.full(30, 637.0), inten]))


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


@pytest.mark.parametrize("fit, column, name", [
    ("spectrum", 0, "wavelength"), ("spectrum", 1, "intensity"),
    ("detuning", 0, "delta"), ("detuning", 1, "tau"), ("detuning", 2, "sigma")])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_purpose_built_fits_name_the_non_finite_column(fit, column, name, bad):
    # checked before any guess reads the samples: no warning on the way
    table = synthetic_spectrum() if fit == "spectrum" else synthetic_tau_detuning()
    table[5, column] = bad
    call = fit_spectrum if fit == "spectrum" else fit_tau_detuning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} must be finite; {name}\[5\] = "):
            call(table)


def test_a_sigma_whose_inverse_overflows_is_named_before_any_weighting():
    # 1/1e-320 is past float64: the input is at fault, not the fit, and no
    # overflow warning escapes on the way
    table = synthetic_tau_detuning()
    table[:, 2] = 1e-320
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^1/sigma must be finite; 1/sigma\[0\] = inf$"):
            fit_tau_detuning(table)


def _bits(res):
    """Every numeric field of a least-squares result, bit for bit."""
    return ([v.hex() for v in res.params.values()],
            [v.hex() for v in res.standard_errors.values()],
            res.covariance.tobytes(), res.residual_norm.hex(),
            res.n_iterations, res.converged, res.warnings)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_an_unweighted_fit_equals_a_unit_sigma_fit_bit_for_bit(kind):
    x, ranges = ROUND_TRIP_CASES[kind]
    model = get_model(kind)
    rng = np.random.default_rng(zlib.crc32(b"unit sigma:" + kind.encode()))
    truth = np.array([rng.uniform(lo, hi) for lo, hi in ranges])
    clean = model.fn(x, truth)
    y = clean + rng.normal(0.0, 0.01 * np.max(np.abs(clean)), size=x.size)
    unweighted = least_squares_fit(model, x, y)
    unit = least_squares_fit(model, x, y, sigma=np.ones_like(y))
    # the same fit; only the covariance differs: unit sigma is a known noise
    # level, no sigma an unknown one estimated from the residual
    same = (0, 3, 4, 5, 6)  # params, residual, iterations, converged, warnings
    assert [_bits(unweighted)[i] for i in same] == [_bits(unit)[i] for i in same]
    r = y - model.fn(x, np.array(list(unit.params.values())))
    scaled = unit.covariance * (float(r @ r) / (x.size - len(truth)))
    assert unweighted.covariance.tobytes() == scaled.tobytes()


def _cached_line_model(fresh):
    """y = a + b x on x in [0, 1], a >= 0, whose fn and jacobian hand back
    cached arrays: the constant Jacobian is one view into a captured array,
    and fn returns the same array whenever it sees the same parameters.
    With fresh=True both return copies.  Every array handed out is kept
    with a snapshot of its content and writeable flag."""
    x = np.linspace(0.0, 1.0, 30)
    captured = np.column_stack([x * x, np.ones_like(x), x, -x])
    jac_view = captured[:, 1:3]
    values, handed_out = {}, []

    def hand_out(arr):
        if fresh:
            return arr.copy()
        handed_out.append((arr, arr.copy(), arr.flags.writeable))
        return arr

    def fn(x_, th):
        key = np.asarray(th, dtype=float).tobytes()
        if key not in values:
            values[key] = th[0] + th[1] * x_
        return hand_out(values[key])

    model = fitting.FitModel(kind="cached-line", param_names=("a", "b"), fn=fn,
                             jacobian=lambda x_, th: hand_out(jac_view),
                             guess=lambda x_, y_: np.array([1.0, 1.0]),
                             lower=(0.0, -np.inf))
    return model, x, handed_out


@pytest.mark.parametrize("weighted", [False, True])
def test_a_fit_writes_into_no_array_it_did_not_allocate(weighted):
    # the data's offset is below a's bound, so a ends held there
    model, x, handed_out = _cached_line_model(fresh=False)
    rng = np.random.default_rng(7)
    y = -0.5 + 2.0 * x + rng.normal(0.0, 0.05, size=x.size)
    y.setflags(write=False)
    sigma = np.full(x.size, 0.05) if weighted else None
    init = np.array([0.3, 1.0])
    inputs = [a for a in (x, y, sigma, init) if a is not None]
    before = [(a.copy(), a.flags.writeable) for a in inputs]
    res = least_squares_fit(model, x, y, sigma=sigma, init=init)
    assert res.params["a"] == 0.0
    assert len(handed_out) > 4
    for arr, content, writeable in handed_out:
        assert arr.tobytes() == content.tobytes() and arr.flags.writeable == writeable
    for arr, (content, writeable) in zip(inputs, before):
        assert arr.tobytes() == content.tobytes() and arr.flags.writeable == writeable
    fresh_model, _, _ = _cached_line_model(fresh=True)
    assert _bits(res) == _bits(least_squares_fit(fresh_model, x, y, sigma=sigma, init=init))


def test_a_start_at_exactly_zero_converges():
    # the grid holds x = 0, so the guessed center is exactly 0: a start with
    # no scale of its own must still converge.  The center once had a zero
    # Jacobian column there and the fit raised DegenerateFitError; the fit
    # must land within 5 of the standard errors an efficient fit reaches
    # (the Fisher matrix of the analytic Jacobian at the truth)
    model = get_model("asymmetric-lorentzian")
    x = np.linspace(-5.0, 5.0, 151)
    truth = np.array([1.0, 0.01, 0.5, 1.0])
    y = model.fn(x, truth)
    assert model.guess(x, y)[1] == 0.0
    res = least_squares_fit(model, x, y, sigma=np.full(x.size, 0.01))
    assert res.converged
    assert np.allclose(list(res.params.values()), truth, rtol=1e-6, atol=1e-9)
    jw = model.jacobian(x, truth) / 0.01
    fisher_se = np.sqrt(np.diag(np.linalg.inv(jw.T @ jw)))
    assert np.all(np.abs(np.array(list(res.params.values())) - truth) <= 5.0 * fisher_se)


def test_fit_result_json_dict_is_self_describing():
    res = fit_tau_detuning(synthetic_tau_detuning())
    doc = res.to_json_dict()
    assert doc["schema_version"] == 1
    assert doc["model"] == "tau-detuning"
    assert set(doc["params"]) == {"c", "kappa", "tau1"}
    assert len(doc["covariance"]) == 3
    assert isinstance(doc["converged"], bool)
