import math

import numpy as np
import pytest

from cavitykit import dynamics
from cavitykit.dynamics import (
    AtomCavityParams, DecayTrace, IntegrationError, analytic_total_rate,
    decay_trace_from_csv, decay_trace_to_csv, evolve_master_equation,
    extract_decay_rate, tau_of_detuning,
)

# device-regime reference parameters used throughout
P_REF = AtomCavityParams(g0_hz=0.57e9, kappa_hz=940e9, gamma1=1.0 / 15.9e-9)


def test_params_derived_quantities():
    p = AtomCavityParams(g0_hz=1e9, kappa_hz=1e12, gamma1=5e7, gamma_phi=2e7)
    assert p.gamma2 == pytest.approx(0.5 * 5e7 + 2e7, rel=1e-15)
    assert p.tau1_s == pytest.approx(2e-8, rel=1e-15)
    assert p.detuned(3e9).delta_hz == 3e9
    assert p.detuned(3e9).g0_hz == p.g0_hz


def test_params_validation():
    with pytest.raises(ValueError):
        AtomCavityParams(g0_hz=-1.0, kappa_hz=1e9, gamma1=1e7)
    with pytest.raises(ValueError):
        AtomCavityParams(g0_hz=1e9, kappa_hz=1e9, gamma1=-1e7)
    with pytest.raises(ValueError):
        AtomCavityParams(g0_hz=1e9, kappa_hz=1e9, gamma1=1e7,
                         delta_hz=float("nan"))


def test_cooperativity_uses_angular_convention():
    # C = 4 (2 pi g0)^2 / ((2 pi kappa) gamma1), written out independently
    g_ang = 2.0 * math.pi * P_REF.g0_hz
    k_ang = 2.0 * math.pi * P_REF.kappa_hz
    expected = 4.0 * g_ang ** 2 / (k_ang * P_REF.gamma1)
    assert P_REF.cooperativity == pytest.approx(expected, rel=1e-14)
    assert P_REF.cooperativity == pytest.approx(0.14, rel=0.02)


def test_uncoupled_atom_decays_exponentially():
    p = AtomCavityParams(g0_hz=0.0, kappa_hz=940e9, gamma1=1.0 / 15.9e-9)
    t = np.linspace(0.0, 5 * 15.9e-9, 128)
    trace = evolve_master_equation(p, t_grid=t, rel_tol=1e-9)
    assert np.max(np.abs(trace.values - np.exp(-p.gamma1 * t))) < 1e-8


def test_single_excitation_closure():
    # the initial state holds one excitation and nothing pumps the system,
    # so truncating the Fock space at 1 or 2 photons cannot differ
    t = np.linspace(0.0, 4 * P_REF.tau1_s, 64)
    tr1 = evolve_master_equation(P_REF.detuned(200e9), n_max=1, t_grid=t)
    tr2 = evolve_master_equation(P_REF.detuned(200e9), n_max=2, t_grid=t)
    assert np.max(np.abs(tr1.values - tr2.values)) < 1e-8


def _oracle_sets():
    """The 20 random sets of acceptance criterion 6, then the paper point at
    Delta/kappa in {0, +-0.25, +-0.5, +-1, +-2}."""
    rng = np.random.default_rng(101)
    sets = [AtomCavityParams(
        g0_hz=rng.uniform(0.0, 1e8), kappa_hz=rng.uniform(1e8, 1e10),
        gamma1=rng.uniform(1e6, 1e8), gamma_phi=rng.uniform(0.0, 5e7),
        delta_hz=rng.uniform(-2e9, 2e9)) for _ in range(20)]
    return sets + [P_REF.detuned(r * P_REF.kappa_hz)
                   for r in (0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)]


def _grids(tau1):
    return {"uniform": np.linspace(0.0, 5.0 * tau1, 251),
            "log": np.concatenate(([0.0], np.geomspace(1e-3 * tau1, 5.0 * tau1, 64)))}


def _liouvillian_at_n_max_1(p, t):
    """The n_max=1 Liouvillian: return_states=True takes that path."""
    trace, _ = evolve_master_equation(p, t_grid=t, return_states=True)
    assert trace.meta["method"] == "liouvillian"
    return trace


def _expm_stepping(gen, v0, t):
    """Test-only reference: scipy expm of each grid step, applied in turn.
    The steps of a uniform grid agree to rounding and share one expm."""
    from scipy.linalg import expm

    steps = np.diff(t)
    if np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
        props = [expm(gen * steps[0])] * len(steps)
    else:
        props = expm(gen * steps[:, None, None])
    out = np.empty((len(t), len(v0)), dtype=complex)
    out[0] = v = v0
    for i, prop in enumerate(props):
        out[i + 1] = v = prop @ v
    return out


def _generator(p, n_max, block):
    """(generator, start vector): the 4x4 block, or the Liouvillian at n_max."""
    if block:
        return dynamics._single_excitation_block(p), dynamics._BLOCK_START
    return dynamics.liouvillian(p, n_max), dynamics._initial_state(n_max).reshape(-1)


def _stepped_population(p, n_max, t):
    """Excited-state population from the Liouvillian, by expm stepping."""
    dim = 2 * (n_max + 1)
    rhos = _expm_stepping(*_generator(p, n_max, False), t).reshape(len(t), dim, dim)
    return np.einsum("kii->ki", rhos)[:, n_max + 1:].sum(axis=1).real


def _at_exceptional_point(kappa_hz, gamma1, rel):
    """g = |kappa - gamma1| / 4 (angular) times (1 + rel): at rel = 0 the
    eigenvector basis of both generators is defective."""
    g_ang = abs(2.0 * math.pi * kappa_hz - gamma1) / 4.0 * (1.0 + rel)
    return AtomCavityParams(g0_hz=g_ang / (2.0 * math.pi), kappa_hz=kappa_hz,
                            gamma1=gamma1)


@pytest.mark.parametrize("grid", ["uniform", "log"])
def test_block_path_matches_liouvillian(grid):
    # the default n_max=1 path propagates the single-excitation block; the
    # full Liouvillian (at n_max=1, and at n_max=2) is the oracle
    for k, p in enumerate(_oracle_sets()):
        t = _grids(p.tau1_s)[grid]
        block = evolve_master_equation(p, t_grid=t)
        assert block.meta["method"] == "block", k
        at_2 = evolve_master_equation(p, n_max=2, t_grid=t)
        assert at_2.meta["method"] == "liouvillian"
        for n_max, ref in ((1, _liouvillian_at_n_max_1(p, t)), (2, at_2)):
            assert np.max(np.abs(block.values - ref.values)) < 1e-10, (k, n_max)


@pytest.mark.parametrize("rel", [0.0, 1e-9, -1e-9])
def test_block_path_at_exceptional_point(rel, monkeypatch):
    # g = |kappa - gamma1| / 4 (angular) makes the block's eigenvector
    # basis defective; the eig expansion alone is off by ~1e-7 there
    fallbacks = []
    original = dynamics._propagate_expm

    def spy(liou, v0, t_grid):
        fallbacks.append(liou.shape)
        return original(liou, v0, t_grid)

    monkeypatch.setattr(dynamics, "_propagate_expm", spy)
    for kappa_hz, gamma1 in ((1e9, 1e7), (2e8, 5e7)):
        p = _at_exceptional_point(kappa_hz, gamma1, rel)
        for t in _grids(p.tau1_s).values():
            fallbacks.clear()
            block = evolve_master_equation(p, t_grid=t)
            assert fallbacks == [(4, 4)]
            assert block.meta["method"] == "block-expm"
            ref = _stepped_population(p, 1, t)
            assert np.max(np.abs(block.values - ref)) < 1e-10


@pytest.mark.parametrize("rel", [0.0, 1e-9, -1e-9, 1e-3, -1e-3])
def test_liouvillian_path_at_exceptional_point(rel):
    # the Liouvillian shares the block's exceptional point: cond(V) is
    # ~1e10 within 1e-9 of it, where the eig expansion is off by 1e-7 to
    # 2e-6, so expm must take over; at 1e-3 from it cond(V) is ~1e4, the
    # expansion is within ~2e-13 and the eig path must stay
    fallback = abs(rel) < 1e-6
    for kappa_hz, gamma1 in ((1e9, 1e7), (2e8, 5e7)):
        p = _at_exceptional_point(kappa_hz, gamma1, rel)
        _, vecs = np.linalg.eig(dynamics.liouvillian(p, 2))
        assert (np.linalg.cond(vecs) > dynamics._EIG_COND_LIMIT) == fallback
        for t in _grids(p.tau1_s).values():
            trace = evolve_master_equation(p, n_max=2, t_grid=t)
            assert trace.meta["method"] == ("liouvillian-expm" if fallback
                                            else "liouvillian")
            ref = _stepped_population(p, 2, t)
            assert np.max(np.abs(trace.values - ref)) < 1e-10


@pytest.mark.parametrize("grid", ["uniform", "log"])
@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_propagate_matches_expm_stepping(n_max, grid):
    # the eig path of the shared propagator against one expm per step, on
    # every state entry; at n_max=1 both the block and the Liouvillian.
    # One expm of the 64x64 n_max=3 generator takes 10-40 ms with threaded
    # BLAS on a 2-core machine, so its log grid (64 distinct steps) runs on
    # three of the sets, the paper point among them
    sets = list(enumerate(_oracle_sets()))
    for k, p in sets[::14] if (n_max, grid) == (3, "log") else sets:
        t = _grids(p.tau1_s)[grid]
        for block in (True, False) if n_max == 1 else (False,):
            gen, v0 = _generator(p, n_max, block)
            states, fell_back = dynamics._propagate(gen, v0, t)
            assert not fell_back, (k, block)
            ref = _expm_stepping(gen, v0, t)
            assert np.max(np.abs(states - ref)) < 1e-10, (k, block)


def _entry(n_max, atom_row, n_row, atom_col, n_col):
    """Index of |atom_row, n_row><atom_col, n_col| in row-stacked rho, atom
    basis (g, e) = (0, 1)."""
    dim_c = n_max + 1
    return (atom_row * dim_c + n_row) * 2 * dim_c + atom_col * dim_c + n_col


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5, 6])
def test_reachable_part_is_the_block_and_the_ground_state(n_max):
    # every jump lowers the excitation number, so from |e,0><e,0| only the
    # {|e,0>, |g,1>} block and <g,0|rho|g,0> can fill, whatever n_max is;
    # without coupling nothing leaves |e,0> but the decay to |g,0>
    v0 = dynamics._initial_state(n_max).reshape(-1)
    p = AtomCavityParams(g0_hz=0.57e9, kappa_hz=940e9, gamma1=1.0 / 15.9e-9,
                         gamma_phi=3e7, delta_hz=2e11)
    e0, g1, g0 = (1, 0), (0, 1), (0, 0)
    block = [_entry(n_max, *r, *c) for r in (e0, g1) for c in (e0, g1)]
    reach = dynamics._reachable(dynamics.liouvillian(p, n_max), v0)
    assert sorted(reach) == sorted(block + [_entry(n_max, *g0, *g0)])
    uncoupled = AtomCavityParams(g0_hz=0.0, kappa_hz=940e9, gamma1=1.0 / 15.9e-9)
    reach = dynamics._reachable(dynamics.liouvillian(uncoupled, n_max), v0)
    assert sorted(reach) == [_entry(n_max, *g0, *g0), _entry(n_max, *e0, *e0)]


@pytest.mark.parametrize("n_max", [2, 3, 4, 5, 6])
def test_reachable_part_matches_the_full_liouvillian(n_max):
    # evolve_master_equation propagates the reachable part and zero-fills
    # the rest.  Its populations against the eig propagator on the whole
    # Liouvillian, whose own error grows with ||gen|| t to 5e-11 at n_max=6;
    # every entry of rho against scipy expm of the whole Liouvillian at three
    # times.  The paper point with dephasing and detuning on the log grid,
    # and two of the random sets on the uniform one
    from scipy.linalg import expm

    cases = [(AtomCavityParams(g0_hz=0.57e9, kappa_hz=940e9,
                               gamma1=1.0 / 15.9e-9, gamma_phi=3e7,
                               delta_hz=2e11), "log")]
    cases += [(p, "uniform") for p in _oracle_sets()[:20:10]]
    for p, grid in cases:
        t = _grids(p.tau1_s)[grid]
        trace, states = evolve_master_equation(p, n_max=n_max, t_grid=t,
                                               return_states=True)
        assert trace.meta["method"] == "liouvillian"
        gen, v0 = _generator(p, n_max, False)
        full, fell_back = dynamics._propagate(gen, v0, t)
        assert not fell_back
        dim = 2 * (n_max + 1)
        pops = np.einsum("kii->ki", full.reshape(len(t), dim, dim))[:, n_max + 1:]
        assert np.max(np.abs(trace.values - pops.sum(axis=1).real)) < 1e-10, (p, grid)
        for k in (1, len(t) // 2, len(t) - 1):
            ref = expm(gen * (t[k] - t[0])) @ v0
            assert np.max(np.abs(states[k].matrix.reshape(-1) - ref)) < 1e-11, (p, k)


def _exceptional_point_generators():
    """Every generator the suite sends to the expm fallback: the block and
    the reachable part of the n_max=2 Liouvillian at both exceptional points
    and 1e-9 either side of them, plus one at the paper's kappa, whose
    stiffness takes ~18 squarings."""
    points = [_at_exceptional_point(kappa_hz, gamma1, rel)
              for kappa_hz, gamma1 in ((1e9, 1e7), (2e8, 5e7))
              for rel in (0.0, 1e-9, -1e-9)]
    points.append(_at_exceptional_point(940e9, 1.0 / 15.9e-9, 0.0))
    for p in points:
        gen, v0 = _generator(p, 2, False)
        reach = dynamics._reachable(gen, v0)
        yield p, dynamics._single_excitation_block(p)
        yield p, gen[np.ix_(reach, reach)]


def test_numpy_expm_matches_scipy_at_exceptional_points():
    # scipy's expm is the oracle, on the whole output grid from t0; the
    # entries are populations and coherences of at most 1, and agree to
    # 4e-15.  The Pade quotient taken as (V - U)^-1 (V + U) misses this
    # bound by 2^s eps: 2e-13 at kappa = 1 GHz, 3e-11 at 940 GHz
    from scipy.linalg import expm

    for p, gen in _exceptional_point_generators():
        for t in _grids(p.tau1_s).values():
            stack = gen * (t - t[0])[:, None, None]
            dev = np.max(np.abs(dynamics._expm(stack) - expm(stack)))
            assert dev < 1e-13, (p, gen.shape, dev)


def test_block_check_rejects_corrupted_states():
    t = np.linspace(0.0, 3.0 * P_REF.tau1_s, 32)
    good, fell_back = dynamics._propagate(
        dynamics._single_excitation_block(P_REF.detuned(2e11)),
        dynamics._BLOCK_START, t)
    assert not fell_back
    dynamics._check_block(good, t, 1e-8)

    for row, col, shift in ((5, 1, 1e-6j),      # coherences not conjugate
                            (5, 0, 1e-6j),      # complex population
                            (5, 3, 1.0),        # trace above 1
                            (5, 3, -1e-3 - good[5, 3].real),  # negative population
                            (0, 0, -1e-6)):     # P_e(t0) != 1
        bad = good.copy()
        bad[row, col] += shift
        with pytest.raises(IntegrationError) as err:
            dynamics._check_block(bad, t, 1e-8)
        assert err.value.last_time == t[row]  # where the check failed


def test_structural_invariants_on_random_parameters():
    rng = np.random.default_rng(3)
    rel_tol = 1e-8
    for _ in range(6):
        p = AtomCavityParams(
            g0_hz=rng.uniform(0.0, 5e7),
            kappa_hz=rng.uniform(1e8, 5e9),
            gamma1=rng.uniform(1e6, 5e7),
            gamma_phi=rng.uniform(0.0, 2e7),
            delta_hz=rng.uniform(-1e9, 1e9))
        t = np.linspace(0.0, 3.0 * p.tau1_s, 24)
        _, states = evolve_master_equation(p, n_max=2, t_grid=t,
                                           rel_tol=rel_tol, return_states=True)
        for state in states:
            assert state.trace_deviation() < 10 * rel_tol
            assert state.hermiticity_deviation() < 10 * rel_tol
            assert state.min_eigenvalue() > -100 * rel_tol


def test_analytic_rate_on_resonance():
    # gamma1 + 4 g^2/kappa in angular units, written out independently
    g_ang = 2.0 * math.pi * P_REF.g0_hz
    k_ang = 2.0 * math.pi * P_REF.kappa_hz
    expected = P_REF.gamma1 + 4.0 * g_ang ** 2 / k_ang
    assert analytic_total_rate(P_REF) == pytest.approx(expected, rel=1e-14)


def test_analytic_rate_limits():
    assert analytic_total_rate(
        AtomCavityParams(g0_hz=0.0, kappa_hz=1e12, gamma1=5e7)) == 5e7
    far = P_REF.detuned(100.0 * P_REF.kappa_hz)
    c = P_REF.cooperativity
    assert analytic_total_rate(far) == pytest.approx(
        P_REF.gamma1 * (1.0 + c / 40001.0), rel=1e-12)
    with pytest.raises(ValueError):
        analytic_total_rate(AtomCavityParams(g0_hz=1e9, kappa_hz=0.0, gamma1=5e7))


def test_master_equation_matches_analytic_rate_across_detunings():
    c = P_REF.cooperativity
    for ratio in (0.0, 0.25, 0.5, 1.0, 2.0):
        p = P_REF.detuned(ratio * P_REF.kappa_hz)
        trace = evolve_master_equation(p, t_grid=np.linspace(0, 5 * P_REF.tau1_s, 256))
        rate = extract_decay_rate(trace).rate
        assert rate == pytest.approx(analytic_total_rate(p), rel=0.02), ratio
    assert c < 0.5  # the regime where the adiabatic elimination is validated


def test_tau_of_detuning_pins():
    tau = tau_of_detuning(0.14, 940e9, 15.9e-9, 0.0)
    assert tau == pytest.approx(15.9e-9 / 1.14, rel=1e-12)
    assert tau == pytest.approx(13.95e-9, rel=1e-3)
    # half width: f(kappa/2) = 1/2
    half = tau_of_detuning(0.14, 940e9, 15.9e-9, 470e9)
    assert half == pytest.approx(15.9e-9 / 1.07, rel=1e-12)
    assert half == pytest.approx(14.86e-9, rel=1e-3)
    assert tau_of_detuning(0.14, 940e9, 15.9e-9, 1e18) == pytest.approx(
        15.9e-9, rel=1e-9)


def test_tau_of_detuning_even_and_monotone():
    deltas = np.linspace(0.0, 5 * 940e9, 40)
    taus = tau_of_detuning(0.14, 940e9, 15.9e-9, deltas)
    taus_neg = tau_of_detuning(0.14, 940e9, 15.9e-9, -deltas)
    assert np.array_equal(taus, taus_neg)
    assert np.all(np.diff(taus) >= 0.0)
    assert taus[0] == pytest.approx(15.9e-9 / 1.14, rel=1e-12)


def test_tau_of_detuning_validation():
    with pytest.raises(ValueError):
        tau_of_detuning(-0.1, 940e9, 15.9e-9, 0.0)
    with pytest.raises(ValueError):
        tau_of_detuning(0.1, 0.0, 15.9e-9, 0.0)
    with pytest.raises(ValueError):
        tau_of_detuning(0.1, 940e9, 0.0, 0.0)


def test_extract_rate_from_pure_exponential():
    tau = 16e-9
    t = np.arange(200) * 1.28e-9
    trace = DecayTrace(times=t, values=np.exp(-t / tau))
    est = extract_decay_rate(trace)
    assert est.rate == pytest.approx(1.0 / tau, rel=1e-9)
    assert not est.curved
    assert est.stderr < 1e-3 * est.rate


def test_extract_rate_flags_background_curvature():
    tau = 16e-9
    t = np.arange(200) * 1.28e-9
    trace = DecayTrace(times=t, values=0.9 * np.exp(-t / tau) + 0.05)
    est = extract_decay_rate(trace)
    assert est.curved
    assert est.rate < 0.98 / tau  # biased slow by the flat background


def test_extract_rate_window_handling():
    t = np.arange(40) * 1e-9
    vals = np.exp(-t / 8e-9)
    vals[25:] = 0.0  # dead tail
    trace = DecayTrace(times=t, values=vals, kind="measured")
    est = extract_decay_rate(trace, window=(0.0, 39e-9))
    assert est.warnings and "non-positive" in est.warnings[0]
    with pytest.raises(ValueError):
        extract_decay_rate(trace, window=(26e-9, 39e-9))  # < 10 usable samples


def test_extract_rate_poisson_counts():
    rng = np.random.default_rng(5)
    tau = 14e-9
    t = np.arange(220) * 1.28e-9
    counts = rng.poisson(2e4 * np.exp(-t / tau)).astype(float)
    trace = DecayTrace(times=t, values=counts, kind="measured")
    est = extract_decay_rate(trace)
    assert est.rate == pytest.approx(1.0 / tau, rel=0.03)


def _reference_extract(trace):
    """The rate extraction before it shared one QR between its two fits:
    lstsq per fit, pinv for the covariance, np.polyfit for the coarse
    lifetime.  Kept as the reference for extract_decay_rate's default call."""
    def weighted_polyfit(u, ly, w, order):
        x = np.vander(u, order + 1, increasing=True)
        sw = np.sqrt(w)
        coeffs, *_ = np.linalg.lstsq(sw[:, None] * x, sw * ly, rcond=None)
        resid = ly - x @ coeffs
        chisq = float(np.sum(w * resid ** 2))
        dof = max(len(u) - (order + 1), 1)
        cov = np.linalg.pinv(x.T @ (w[:, None] * x)) * (chisq / dof)
        return coeffs, np.sqrt(np.maximum(np.diag(cov), 0.0))

    t, y = trace.times, trace.values
    pos = y > max(1e-3 * float(np.max(y)), 0.0)
    if pos.sum() < 3:
        pos = y > 0
    slope = np.polyfit(t[pos], np.log(y[pos]), 1)[0]
    tau_est = t[-1] - t[0] if slope >= 0.0 else min(-1.0 / slope, t[-1] - t[0])
    window = (t[0] + 0.5 * tau_est, t[0] + 3.0 * tau_est)
    sel = (t >= window[0]) & (t <= window[1]) & (y > 0.0)
    tt, ly = t[sel], np.log(y[sel])
    w = y[sel].copy() if trace.kind == "measured" else np.ones(int(sel.sum()))
    t_scale = max(0.5 * (tt[-1] - tt[0]), 1e-300)
    u = (tt - 0.5 * (tt[0] + tt[-1])) / t_scale
    lin, lin_err = weighted_polyfit(u, ly, w, order=1)
    quad, quad_err = weighted_polyfit(u, ly, w, order=2)
    slope, c2, c2_err = lin[1] / t_scale, quad[2] / t_scale ** 2, quad_err[2] / t_scale ** 2
    curved = (abs(2.0 * c2 * (tt[-1] - tt[0])) > 0.05 * abs(slope)
              and abs(c2) > 3.0 * c2_err)
    return -slope, lin_err[1] / t_scale, window, int(sel.sum()), bool(curved)


def _sweep_style_traces():
    """Populations as detuning sweeps produce them: the paper point and two
    draws around it, nine detunings each, on uniform and log-spaced grids,
    at n_max=1 and 2."""
    rng = np.random.default_rng(7)
    points = [(0.57e9, 940e9, 15.9e-9)] + [
        (0.57e9 * rng.uniform(0.8, 1.25), 940e9 * rng.uniform(0.8, 1.25),
         15.9e-9 * rng.uniform(0.85, 1.15)) for _ in range(2)]
    for g0, kappa, tau1 in points:
        grids = (np.linspace(0.0, 5.0 * tau1, 251),
                 np.concatenate(([0.0], np.geomspace(1e-3 * tau1, 5.0 * tau1, 250))))
        for t in grids:
            for n_max in (1, 2):
                for step in (-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0):
                    p = AtomCavityParams(g0_hz=g0, kappa_hz=kappa,
                                         gamma1=1.0 / tau1, delta_hz=step * kappa)
                    yield evolve_master_equation(p, n_max=n_max, t_grid=t)


def _poisson_traces(n=300):
    rng = np.random.default_rng(31)
    t = np.arange(200) * 1.28e-9
    for _ in range(n):
        mean = (10.0 ** rng.uniform(2.0, 5.0) * np.exp(-t / rng.uniform(5e-9, 30e-9))
                + rng.uniform(0.0, 20.0))
        yield DecayTrace(times=t, values=rng.poisson(mean).astype(float),
                         kind="measured")


def test_rate_extraction_matches_lstsq_pinv_reference():
    # one QR serves both nested fits; rate, window and, on counted traces,
    # stderr agree to 1e-12 relative.  A simulated trace's stderr sits at
    # roundoff (~2e-16 of the rate), so there it is bounded absolutely
    n_sim = 0
    for trace in [*_sweep_style_traces(), *_poisson_traces()]:
        est = extract_decay_rate(trace)
        rate, stderr, window, n_points, curved = _reference_extract(trace)
        assert est.rate == pytest.approx(rate, rel=1e-12, abs=0.0)
        assert est.window == pytest.approx(window, rel=1e-12, abs=0.0)
        assert (est.n_points, est.curved) == (n_points, curved)
        if trace.kind == "measured":
            assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)
        else:
            n_sim += 1
            assert abs(est.stderr - stderr) <= 1e-12 * rate
    assert n_sim == 108


def test_default_grid_runs_five_lifetimes():
    trace = evolve_master_equation(P_REF)
    assert len(trace) == 251
    assert trace.times[-1] == pytest.approx(5 * P_REF.tau1_s, rel=1e-12)
    assert trace.bin_width_s == pytest.approx(trace.times[1] - trace.times[0])
    assert trace.kind == "simulated"
    assert trace.values[0] == pytest.approx(1.0, abs=1e-12)


def test_decay_trace_validation():
    t = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        DecayTrace(times=np.array([0.0, 1.0, 1.0]), values=np.ones(3))
    with pytest.raises(ValueError):
        DecayTrace(times=t, values=np.array([1.0, -0.5, 0.0]))
    with pytest.raises(ValueError):
        DecayTrace(times=t, values=np.array([1.0, 1.5, 0.5]))  # simulated > 1
    with pytest.raises(ValueError):
        DecayTrace(times=t, values=np.ones(3), kind="other")
    # measured counts above 1 are fine
    DecayTrace(times=t, values=np.array([100.0, 30.0, 7.0]), kind="measured")


def test_decay_trace_csv_round_trip():
    trace = evolve_master_equation(P_REF, t_grid=np.linspace(0, 2e-8, 16))
    text = decay_trace_to_csv(trace)
    back = decay_trace_from_csv(text)
    assert np.array_equal(back.times, trace.times)
    assert np.array_equal(back.values, trace.values)
    assert back.kind == trace.kind
    assert back.bin_width_s == pytest.approx(trace.bin_width_s, rel=1e-15)
    assert back.meta["g0_hz"] == trace.meta["g0_hz"]
    assert back.meta["n_max"] == 1


def test_decay_trace_csv_reports_bad_line():
    with pytest.raises(ValueError, match="line 3"):
        decay_trace_from_csv("# kind=measured\ntime_s,value\n0.0,oops\n")
