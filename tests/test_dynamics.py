import inspect
import math
import re

import numpy as np
import pytest

from cavitykit import dynamics
from cavitykit.dynamics import (
    AtomCavityParams, DecayTrace, IntegrationError, analytic_total_rate,
    decay_trace_from_csv, decay_trace_to_csv, evolve_master_equation,
    extract_decay_rate, slow_eigenrate, tau_of_detuning,
)
from cavitykit.units import to_angular

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


def test_effective_cooperativity_takes_the_total_linewidth():
    # C_eff = 4 g^2 / (K gamma1) with K = kappa + 2 gamma_phi: the bare C at
    # gamma_phi = 0, and on resonance gamma1 (1 + C_eff) is the analytic rate
    assert P_REF.effective_cooperativity == P_REF.cooperativity
    rng = np.random.default_rng(35)
    for gamma_phi in [3e12] + list(10 ** rng.uniform(6, 13, 50)):
        p = AtomCavityParams(P_REF.g0_hz, P_REF.kappa_hz, P_REF.gamma1, gamma_phi)
        assert p.gamma1 * (1.0 + p.effective_cooperativity) == pytest.approx(
            analytic_total_rate(p), rel=1e-15, abs=0.0)
        assert p.cooperativity == P_REF.cooperativity
    dephased = AtomCavityParams(P_REF.g0_hz, P_REF.kappa_hz, P_REF.gamma1, 3e12)
    assert dephased.effective_cooperativity == pytest.approx(0.0685, abs=5e-5)
    assert P_REF.cooperativity == pytest.approx(0.138, abs=5e-4)


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


# ---------------------------------------------------------------------------
# Oracle: the generator on the whole Fock space truncated at n_max, built by
# Kronecker products independently of dynamics._generator
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


def _reachable(gen: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """Indices of the entries exp(gen t) v0 can make nonzero: the support of
    v0, closed under gen's nonzero pattern.  Every other entry has an exact
    zero derivative while these evolve, so it stays 0."""
    linked = gen != 0
    reach = v0 != 0
    while True:
        grown = reach | linked[:, reach].any(axis=1)
        if np.array_equal(grown, reach):
            return np.flatnonzero(reach)
        reach = grown


def _entry(n_max, atom_row, n_row, atom_col, n_col):
    """Index of |atom_row, n_row><atom_col, n_col| in row-stacked rho, atom
    basis (g, e) = (0, 1)."""
    dim_c = n_max + 1
    return (atom_row * dim_c + n_row) * 2 * dim_c + atom_col * dim_c + n_col


E0, G1, G0 = (1, 0), (0, 1), (0, 0)


def _five_entries(n_max):
    """Indices of the generator's entries (rho_gg, rho_aa, rho_ab, rho_ba,
    rho_bb), a = |e,0>, b = |g,1>, g = |g,0>, in row-stacked rho."""
    return [_entry(n_max, *r, *c)
            for r, c in ((G0, G0), (E0, E0), (E0, G1), (G1, E0), (G1, G1))]


def _generator(p, n_max, kron):
    """(generator, start vector): the 5x5 one of dynamics, or the oracle's
    Liouvillian at n_max."""
    if not kron:
        return dynamics._generator(p), dynamics._RHO0
    return liouvillian(p, n_max), _initial_state(n_max).reshape(-1)


def _excited_population(states, n_max):
    """<s+ s> of row-stacked density matrices, one per row."""
    dim = 2 * (n_max + 1)
    rhos = states.reshape(len(states), dim, dim)
    return np.einsum("kii->ki", rhos)[:, n_max + 1:].sum(axis=1).real


def _stepped_population(p, n_max, t):
    """Excited-state population from the Liouvillian, by expm stepping."""
    return _excited_population(_expm_stepping(*_generator(p, n_max, True), t), n_max)


def _at_exceptional_point(kappa_hz, gamma1, rel):
    """g = |kappa - gamma1| / 4 (angular) times (1 + rel): at rel = 0 the
    eigenvector basis of both generators is defective."""
    g_ang = abs(2.0 * math.pi * kappa_hz - gamma1) / 4.0 * (1.0 + rel)
    return AtomCavityParams(g0_hz=g_ang / (2.0 * math.pi), kappa_hz=kappa_hz,
                            gamma1=gamma1)


#: the paper point with dephasing and detuning, so every term is nonzero
P_DEPHASED = AtomCavityParams(g0_hz=0.57e9, kappa_hz=940e9, gamma1=1.0 / 15.9e-9,
                              gamma_phi=3e7, delta_hz=2e11)


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5, 6])
def test_generator_is_the_reachable_part_of_the_liouvillian(n_max):
    # dynamics._generator, written entry by entry, against the oracle's
    # Liouvillian on the five entries that fill from |e,0><e,0|, entry for
    # entry; zeros must be exact
    order = _five_entries(n_max)
    for p in [*_oracle_sets(), P_DEPHASED]:
        ref = liouvillian(p, n_max)[np.ix_(order, order)]
        dev = np.abs(dynamics._generator(p) - ref)
        assert np.all(dev <= 1e-15 * np.abs(ref)), (p, dev)


@pytest.mark.parametrize("grid", ["uniform", "log"])
def test_block_path_matches_liouvillian(grid):
    # populations at n_max=1 and 2, with and without return_states, against
    # the eig propagator on the oracle's whole Liouvillian at that n_max;
    # every n_max runs the one 5x5 generator, so all four agree to the bit
    for k, p in enumerate(_oracle_sets()):
        t = _grids(p.tau1_s)[grid]
        trace = evolve_master_equation(p, t_grid=t)
        assert trace.meta["method"] == "eig", k
        for n_max in (1, 2):
            at_n = evolve_master_equation(p, n_max=n_max, t_grid=t)
            with_states, _ = evolve_master_equation(p, n_max=n_max, t_grid=t,
                                                    return_states=True)
            assert np.array_equal(at_n.values, trace.values), (k, n_max)
            assert np.array_equal(with_states.values, trace.values), (k, n_max)
            full, _ = dynamics._propagate(*_generator(p, n_max, True), t)
            ref = _excited_population(full, n_max)
            assert np.max(np.abs(trace.values - ref)) < 1e-10, (k, n_max)


@pytest.mark.parametrize("rel", [0.0, 1e-9, -1e-9])
def test_block_path_at_exceptional_point(rel, monkeypatch):
    # g = |kappa - gamma1| / 4 (angular) makes the generator's eigenvector
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
            trace = evolve_master_equation(p, t_grid=t)
            assert fallbacks == [(5, 5)]
            assert trace.meta["method"] == "expm"
            ref = _stepped_population(p, 1, t)
            assert np.max(np.abs(trace.values - ref)) < 1e-10


@pytest.mark.parametrize("rel", [0.0, 1e-9, -1e-9, 1e-3, -1e-3])
def test_liouvillian_path_at_exceptional_point(rel):
    # the oracle's Liouvillian shares the generator's exceptional point:
    # cond(V) is ~1e10 within 1e-9 of it, where the eig expansion is off by
    # 1e-7 to 2e-6, so expm must take over; at 1e-3 from it cond(V) is
    # ~1e4, the expansion is within ~2e-13 and the eig path must stay
    fallback = abs(rel) < 1e-6
    for kappa_hz, gamma1 in ((1e9, 1e7), (2e8, 5e7)):
        p = _at_exceptional_point(kappa_hz, gamma1, rel)
        _, vecs = np.linalg.eig(liouvillian(p, 2))
        assert (np.linalg.cond(vecs) > dynamics._EIG_COND_LIMIT) == fallback
        for t in _grids(p.tau1_s).values():
            trace = evolve_master_equation(p, n_max=2, t_grid=t)
            assert trace.meta["method"] == ("expm" if fallback else "eig")
            ref = _stepped_population(p, 2, t)
            assert np.max(np.abs(trace.values - ref)) < 1e-10


@pytest.mark.parametrize("grid", ["uniform", "log"])
@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_propagate_matches_expm_stepping(n_max, grid):
    # the eig path of the shared propagator against one expm per step, on
    # every state entry; at n_max=1 both the 5x5 generator and the oracle's
    # Liouvillian.  One expm of the 64x64 n_max=3 generator takes 10-40 ms
    # with threaded BLAS on a 2-core machine, so its log grid (64 distinct
    # steps) runs on three of the sets, the paper point among them
    sets = list(enumerate(_oracle_sets()))
    for k, p in sets[::14] if (n_max, grid) == (3, "log") else sets:
        t = _grids(p.tau1_s)[grid]
        for kron in (False, True) if n_max == 1 else (True,):
            gen, v0 = _generator(p, n_max, kron)
            states, fell_back = dynamics._propagate(gen, v0, t)
            assert not fell_back, (k, kron)
            ref = _expm_stepping(gen, v0, t)
            assert np.max(np.abs(states - ref)) < 1e-10, (k, kron)


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 5, 6])
def test_reachable_part_is_the_block_and_the_ground_state(n_max):
    # every jump lowers the excitation number, so from |e,0><e,0| only the
    # {|e,0>, |g,1>} block and <g,0|rho|g,0> can fill, whatever n_max is;
    # without coupling nothing leaves |e,0> but the decay to |g,0>
    v0 = _initial_state(n_max).reshape(-1)
    reach = _reachable(liouvillian(P_DEPHASED, n_max), v0)
    assert sorted(reach) == sorted(_five_entries(n_max))
    uncoupled = AtomCavityParams(g0_hz=0.0, kappa_hz=940e9, gamma1=1.0 / 15.9e-9)
    reach = _reachable(liouvillian(uncoupled, n_max), v0)
    assert sorted(reach) == [_entry(n_max, *G0, *G0), _entry(n_max, *E0, *E0)]


@pytest.mark.parametrize("n_max", [2, 3, 4, 5, 6])
def test_reachable_part_matches_the_full_liouvillian(n_max):
    # evolve_master_equation propagates the five entries and zero-fills the
    # rest.  Its populations against the eig propagator on the oracle's
    # whole Liouvillian, whose own error grows with ||gen|| t to 5e-11 at
    # n_max=6; every entry of rho against scipy expm of the whole
    # Liouvillian at three times.  The paper point with dephasing and
    # detuning on the log grid, and two of the random sets on the uniform one
    from scipy.linalg import expm

    cases = [(P_DEPHASED, "log")]
    cases += [(p, "uniform") for p in _oracle_sets()[:20:10]]
    for p, grid in cases:
        t = _grids(p.tau1_s)[grid]
        trace, states = evolve_master_equation(p, n_max=n_max, t_grid=t,
                                               return_states=True)
        assert trace.meta["method"] == "eig"
        gen, v0 = _generator(p, n_max, True)
        full, fell_back = dynamics._propagate(gen, v0, t)
        assert not fell_back
        pops = _excited_population(full, n_max)
        assert np.max(np.abs(trace.values - pops)) < 1e-10, (p, grid)
        for k in (1, len(t) // 2, len(t) - 1):
            ref = expm(gen * (t[k] - t[0])) @ v0
            assert np.max(np.abs(states[k].matrix.reshape(-1) - ref)) < 1e-11, (p, k)


def _exceptional_point_generators():
    """Every generator the suite sends to the expm fallback: the 5x5 one at
    both exceptional points and 1e-9 either side of them, plus one at the
    paper's kappa, whose stiffness takes ~18 squarings."""
    points = [_at_exceptional_point(kappa_hz, gamma1, rel)
              for kappa_hz, gamma1 in ((1e9, 1e7), (2e8, 5e7))
              for rel in (0.0, 1e-9, -1e-9)]
    points.append(_at_exceptional_point(940e9, 1.0 / 15.9e-9, 0.0))
    for p in points:
        yield p, dynamics._generator(p)


def test_numpy_expm_matches_scipy_at_exceptional_points():
    # scipy's expm is the oracle, on the whole output grid from t0; the
    # entries are populations and coherences of at most 1, and agree to
    # 4e-15.  Off the exceptional point, a zero stack must give I exactly,
    # and a generator with dyadic rates, whose 1-norm of exactly 1 is scaled
    # to 2^-3 .. 2^23, sits on every step of the frexp scaling
    from scipy.linalg import expm

    for p, gen in _exceptional_point_generators():
        for t in _grids(p.tau1_s).values():
            stack = gen * (t - t[0])[:, None, None]
            dev = np.max(np.abs(dynamics._expm(stack) - expm(stack)))
            assert dev < 1e-13, (p, gen.shape, dev)

    assert np.array_equal(dynamics._expm(np.zeros((2, 5, 5), dtype=complex)),
                          np.broadcast_to(np.eye(5), (2, 5, 5)))
    # gamma1 = 1/4, kappa = 3/8, g = 1/8 and Gamma = 1/2, in _generator's layout
    unit = np.array([[0, 2, 0, 0, 3], [0, -2, 1j, -1j, 0], [0, 1j, -4, 0, -1j],
                     [0, -1j, 0, -4, 1j], [0, 0, -1j, 1j, -3]]) / 8
    norms = np.exp2(np.arange(-3, 24))
    stack = unit * norms[:, None, None]
    assert np.array_equal(np.abs(stack).sum(axis=-2).max(axis=-1), norms)
    dev = np.max(np.abs(dynamics._expm(stack) - expm(stack)))
    assert dev < 1e-13, dev


def test_state_check_rejects_corrupted_states():
    t = np.linspace(0.0, 3.0 * P_REF.tau1_s, 32)
    good, fell_back = dynamics._propagate(
        dynamics._generator(P_REF.detuned(2e11)), dynamics._RHO0, t)
    assert not fell_back
    dynamics._check_states(good, t, 1e-8)

    # (row, {column: shift}, the check that must fail); columns are
    # (rho_gg, rho_aa, rho_ab, rho_ba, rho_bb), and the shifts of the last
    # two cases keep the trace, so only the named check fails
    neg_bb = -1e-3 - good[5, 4].real
    for row, shifts, what in (
            (5, {2: 1e-6j}, "not Hermitian"),          # coherences not conjugate
            (5, {1: 1e-6j}, "not Hermitian"),          # complex population
            (5, {0: 1e-6j}, "not Hermitian"),          # complex ground population
            (5, {4: 1.0}, "trace not preserved"),      # trace above 1
            (5, {0: 1e-3}, "trace not preserved"),     # rho_gg: trace above 1
            (5, {0: -1e-3}, "trace not preserved"),    # rho_gg: trace below 1
            (5, {4: neg_bb, 0: -neg_bb}, "negative population"),
            (0, {1: -1e-6, 0: 1e-6}, "P_e\\(t0\\)")):    # P_e(t0) != 1
        bad = good.copy()
        for col, shift in shifts.items():
            bad[row, col] += shift
        with pytest.raises(IntegrationError, match=what) as err:
            dynamics._check_states(bad, t, 1e-8)
        assert err.value.last_time == t[row]  # where the check failed


def test_evolve_builds_no_kronecker_product(monkeypatch):
    # one 5x5 generator serves every n_max: no Kronecker product is built,
    # not even at n_max=15 or for the density matrices of return_states
    def no_kron(*args):
        raise AssertionError("np.kron called")

    t = np.linspace(0.0, 3.0 * P_REF.tau1_s, 32)
    monkeypatch.setattr(np, "kron", no_kron)
    ref = evolve_master_equation(P_DEPHASED, t_grid=t)
    for n_max in (1, 2, 15):
        trace = evolve_master_equation(P_DEPHASED, n_max=n_max, t_grid=t)
        assert np.array_equal(trace.values, ref.values)
        trace, states = evolve_master_equation(P_DEPHASED, n_max=n_max,
                                               t_grid=t, return_states=True)
        assert np.array_equal(trace.values, ref.values)
        dim = 2 * (n_max + 1)
        assert [s.matrix.shape for s in states] == [(dim, dim)] * len(t)
        assert max(s.trace_deviation() for s in states) < 1e-7


def test_evolve_rejects_bad_arguments(monkeypatch):
    # each is refused before anything is propagated
    def no_propagate(*args):
        raise AssertionError("_propagate called")

    monkeypatch.setattr(dynamics, "_propagate", no_propagate)
    t = np.linspace(0.0, 1e-8, 8)
    cases = [({"n_max": 0}, "n_max must be >= 1"),
             ({"n_max": 16}, "n_max must be <= 15, got 16"),
             ({"n_max": 1.5}, "n_max must be an integer, got 1.5"),
             ({"n_max": 1.5, "return_states": True}, "n_max must be an integer, got 1.5"),
             ({"n_max": True}, "n_max must be an integer, got True"),
             ({"n_max": "2"}, "n_max must be an integer, got '2'")]
    cases += [({"rel_tol": tol}, "rel_tol must be finite and > 0")
              for tol in (0.0, -1e-8, math.nan, math.inf)]
    for bad in (math.nan, math.inf, -math.inf):
        cases.append(({"t_grid": np.append(t, bad)}, "t_grid must be finite"))
    cases += [({"t_grid": [0.0]}, "at least two times"),
              ({"t_grid": t[::-1]}, "strictly increasing")]
    for kwargs, message in cases:
        with pytest.raises(ValueError, match=message):
            evolve_master_equation(P_REF, **{"t_grid": t, **kwargs})


_T3 = np.array([0.0, 1.0, 2.0])


@pytest.mark.parametrize("make, message", [
    # each input breaks two rules; the first in the order of the checks names it
    (lambda: DecayTrace(times=[0.0, math.nan, 2.0], values=np.ones(3), kind="other"),
     "times and values must be finite"),
    (lambda: DecayTrace(times=_T3, values=[1.0, math.inf, 0.5], kind="other"),
     "times and values must be finite"),
    (lambda: DecayTrace(times=_T3, values=[1.0, -math.inf, 0.5]),
     "times and values must be finite"),
    (lambda: DecayTrace(times=_T3, values=[1.0, -math.inf, 0.5], kind="measured"),
     "times and values must be finite"),
    (lambda: DecayTrace(times=[-math.inf, 1.0, 2.0], values=[1.5, 1.0, 0.5]),
     "times and values must be finite"),
    (lambda: DecayTrace(times=[[0.0, 1.0, 2.0]], values=[[math.nan] * 3]),
     "times and values must be equal-length 1-D arrays"),
    (lambda: DecayTrace(times=_T3, values=[0.5, 1.5], kind="other"),
     "times and values must be equal-length 1-D arrays"),
    (lambda: DecayTrace(times=[0.0, 2.0, 1.0], values=[1.0, 1.5, 0.5]),
     "times must be strictly increasing"),
    (lambda: DecayTrace(times=_T3, values=[1.5, -0.5, 0.5]),
     "values must be >= 0"),
    (lambda: DecayTrace(times=_T3, values=[1.0, -0.5, 0.5], bin_width_s=-1.0),
     "values must be >= 0"),
    (lambda: DecayTrace(times=_T3, values=[1.5, 1.0, 0.5], kind="other"),
     "kind must be 'simulated' or 'measured', got 'other'"),
    (lambda: evolve_master_equation(P_REF, t_grid=[0.0, 2e-9, 1e-9, math.inf]),
     "t_grid must be finite"),
    (lambda: evolve_master_equation(P_REF, t_grid=[math.nan, 1e-9, 1e-9]),
     "t_grid must be finite"),
    (lambda: evolve_master_equation(P_REF, t_grid=[-math.inf, 0.0, 1e-9]),
     "t_grid must be finite"),
    (lambda: evolve_master_equation(P_REF, t_grid=[0.0, 1e-9, 1e-9], rel_tol=0.0),
     "rel_tol must be finite and > 0, got 0.0"),
    (lambda: evolve_master_equation(P_REF, t_grid=[1e-9, 0.0, 2e-9, 2e-9]),
     "t_grid must be strictly increasing"),
    (lambda: decay_trace_from_csv("# kind=counts\ntime_s,value\n0.0,nan\n"),
     "line 1: kind must be 'simulated' or 'measured', got 'counts'"),
    (lambda: decay_trace_from_csv("time_s,value\n0.0,1.0\n2e-9,1.5\n1e-9,-0.5\n"),
     "line 4: times must be strictly increasing"),
    (lambda: decay_trace_from_csv("time_s,value\n0.0,1.5\n1e-9,-0.5\n"),
     "line 3: values must be >= 0"),
    (lambda: decay_trace_from_csv("# kind=measured\ntime_s,value\n0.0,1.5\n1e-9,-0.5\n"),
     "line 4: values must be >= 0"),
], ids=["nan-time-bad-kind", "inf-value-bad-kind", "minus-inf-value-negative",
        "minus-inf-count-negative", "minus-inf-time-above-1", "2d-nan", "length-bad-kind",
        "unsorted-above-1", "above-1-negative", "negative-bad-width",
        "above-1-bad-kind", "inf-unsorted", "nan-repeated", "minus-inf",
        "tol-repeated", "unsorted-repeated", "csv-kind-nan",
        "csv-unsorted-negative", "csv-above-1-negative", "csv-measured-negative"])
def test_a_trace_breaking_two_rules_gets_the_first_message(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


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


def test_analytic_rate_with_dephasing_matches_the_slow_eigenrate():
    # with K = kappa + 2 gamma_phi in place of kappa, the total rate is
    # within 1% of the full model's slowest decay on log-uniform draws in the
    # adiabatic regime, gamma1 and 4 g^2/K below 1% of kappa (0.8% at worst,
    # 4e-7 in the median); at gamma_phi = 0 it is the expression without
    # dephasing to the bit
    rng = np.random.default_rng(3)
    adiabatic = 0
    for _ in range(4000):
        kappa_hz = 10 ** rng.uniform(8, 12)
        p = AtomCavityParams(g0_hz=10 ** rng.uniform(6, 10), kappa_hz=kappa_hz,
                             gamma1=1.0 / 10 ** rng.uniform(-9, -6),
                             gamma_phi=10 ** rng.uniform(6, 13),
                             delta_hz=rng.uniform(-2, 2) * kappa_hz)
        g, k, d = (2.0 * math.pi * f for f in (p.g0_hz, p.kappa_hz, p.delta_hz))
        if max(p.gamma1, 4.0 * g * g / (k + 2.0 * p.gamma_phi)) < 0.01 * k:
            adiabatic += 1
            assert analytic_total_rate(p) == pytest.approx(slow_eigenrate(p), rel=0.01), p
        bare = AtomCavityParams(p.g0_hz, p.kappa_hz, p.gamma1, 0.0, p.delta_hz)
        assert analytic_total_rate(bare) == p.gamma1 + g * g * k / ((0.5 * k) ** 2 + d ** 2)
    assert adiabatic > 2000


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


def test_extract_rate_flags_background_curvature():
    tau = 16e-9
    t = np.arange(200) * 1.28e-9
    trace = DecayTrace(times=t, values=0.9 * np.exp(-t / tau) + 0.05)
    est = extract_decay_rate(trace)
    assert est.curved
    assert est.rate < 0.98 / tau  # biased slow by the flat background


def test_extract_rate_window_handling():
    # exp(-t/8 ns) on 40 1-ns bins: the window is [4, 24] ns
    t = np.arange(40) * 1e-9
    vals = np.exp(-t / 8e-9)
    vals[20:] = 0.0  # a dead tail inside the window is dropped with a warning
    est = extract_decay_rate(DecayTrace(times=t, values=vals))
    assert (est.n_points, est.warnings) == (16, ("dropped 5 non-positive samples in window",))
    assert est.rate == pytest.approx(1.0 / 8e-9, rel=1e-9)
    vals[12:] = 0.0  # 8 positive samples left in the window
    with pytest.raises(ValueError, match="holds 8 positive samples, fewer than 10: sample the"):
        extract_decay_rate(DecayTrace(times=t, values=vals))


def test_extract_rate_reads_simulated_traces_only():
    assert list(inspect.signature(extract_decay_rate).parameters) == ["trace"]
    t = np.arange(200) * 1.28e-9
    counts = DecayTrace(times=t, values=np.round(1e4 * np.exp(-t / 14e-9)), kind="measured")
    with pytest.raises(ValueError, match="fitting.fit_decay_trace"):
        extract_decay_rate(counts)


def _reference_extract(trace):
    """The rate extraction by lstsq per fit and np.polyfit for the coarse
    lifetime.  Kept as the reference for extract_decay_rate."""
    def polyfit(u, ly, order):
        x = np.vander(u, order + 1, increasing=True)
        return np.linalg.lstsq(x, ly, rcond=None)[0]

    t, y = trace.times, trace.values
    pos = y > max(1e-3 * float(np.max(y)), 0.0)
    if pos.sum() < 3:
        pos = y > 0
    slope = np.polyfit(t[pos], np.log(y[pos]), 1)[0]
    tau_est = t[-1] - t[0] if slope >= 0.0 else min(-1.0 / slope, t[-1] - t[0])
    window = (t[0] + 0.5 * tau_est, t[0] + 3.0 * tau_est)
    sel = (t >= window[0]) & (t <= window[1]) & (y > 0.0)
    tt, ly = t[sel], np.log(y[sel])
    t_scale = max(0.5 * (tt[-1] - tt[0]), 1e-300)
    u = (tt - 0.5 * (tt[0] + tt[-1])) / t_scale
    slope = polyfit(u, ly, order=1)[1] / t_scale
    c2 = polyfit(u, ly, order=2)[2] / t_scale ** 2
    curved = abs(2.0 * c2 * (tt[-1] - tt[0])) > 0.05 * abs(slope)
    return -slope, window, int(sel.sum()), bool(curved)


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


def test_rate_extraction_matches_lstsq_pinv_reference():
    # the orthogonal-polynomial projections against lstsq on the Vandermonde
    # columns; rate and window agree to 1e-12 relative
    traces = list(_sweep_style_traces())
    for trace in traces:
        est = extract_decay_rate(trace)
        rate, window, n_points, curved = _reference_extract(trace)
        assert est.rate == pytest.approx(rate, rel=1e-12, abs=0.0)
        assert est.window == pytest.approx(window, rel=1e-12, abs=0.0)
        assert (est.n_points, est.curved) == (n_points, curved)
    assert len(traces) == 108


def test_no_unflagged_strong_coupling_rate_is_off():
    # 400 log-uniform draws over every regime; under strong coupling the
    # population oscillates, so a rate more than 2% off the adiabatic one
    # must carry the curved flag.  Draws whose decay ends within a few
    # samples of the default grid raise the window error and are skipped.
    rng = np.random.default_rng(5)
    lo, hi = np.log([1e6, 1e8, 1e-9]), np.log([1e10, 1e12, 1e-6])
    n_rates, unflagged = 0, []
    for g0, kappa, tau1 in np.exp(rng.uniform(lo, hi, size=(400, 3))):
        p = AtomCavityParams(g0_hz=g0, kappa_hz=kappa, gamma1=1.0 / tau1)
        try:
            est = extract_decay_rate(evolve_master_equation(p))
        except ValueError as exc:
            assert "fewer than 10" in str(exc)
            continue
        n_rates += 1
        strong = to_angular(g0) > abs(to_angular(kappa) - p.gamma1) / 4.0
        if strong and not est.curved and abs(est.rate / analytic_total_rate(p) - 1.0) > 0.02:
            unflagged.append((g0, kappa, tau1, est.rate))
    assert n_rates >= 273  # the scan is not vacuous: 127 draws raise today
    assert unflagged == []


def test_propagation_is_the_plain_eigen_expansion_bit_for_bit():
    # every exponential of the expansion is taken, the ones that underflow
    # to 0 too: skipping them leaves a 0 whose sign differs from the
    # (0 cos y, 0 sin y) of exp(x + iy), which can reach a state entry that
    # is exactly 0.  The 400-draw scan, resonant and detuned, on uniform and
    # log grids; the raw bits of every entry, signed zeros included
    rng = np.random.default_rng(5)
    lo, hi = np.log([1e6, 1e8, 1e-9]), np.log([1e10, 1e12, 1e-6])
    n_eig = 0
    for g0, kappa, tau1 in np.exp(rng.uniform(lo, hi, size=(400, 3))):
        for delta in (0.0, 0.7 * kappa):
            gen = dynamics._generator(AtomCavityParams(
                g0_hz=g0, kappa_hz=kappa, gamma1=1.0 / tau1, delta_hz=delta))
            lam, vecs = np.linalg.eig(gen)
            coef = vecs * (np.linalg.inv(vecs) @ dynamics._RHO0)
            for t in (np.linspace(0.0, 5.0 * tau1, 251),
                      np.concatenate(([0.0], np.geomspace(1e-3 * tau1, 5.0 * tau1, 250)))):
                states, fell_back = dynamics._propagate(gen, dynamics._RHO0, t)
                if fell_back:
                    continue
                n_eig += 1
                plain = np.exp(np.multiply.outer(t - t[0], lam)) @ coef.T
                assert states.tobytes() == plain.tobytes(), (g0, kappa, tau1, delta)
    assert n_eig >= 1500


def test_rate_estimate_fields_have_their_declared_types():
    est = extract_decay_rate(evolve_master_equation(P_REF))
    assert [type(v) for v in est] == [float, tuple, int, bool, tuple]
    assert [type(v) for v in est.window] == [float, float]


def test_default_grid_runs_five_lifetimes():
    trace = evolve_master_equation(P_REF)
    assert len(trace) == 251
    assert trace.times[-1] == pytest.approx(5 * P_REF.tau1_s, rel=1e-12)
    assert trace.bin_width_s == pytest.approx(trace.times[1] - trace.times[0])
    assert trace.kind == "simulated"
    assert trace.values[0] == pytest.approx(1.0, abs=1e-12)
    # a log-spaced grid has no bin width, however short its steps
    t = np.concatenate(([0.0], np.geomspace(1e-12, 5e-9, 64)))
    assert evolve_master_equation(P_REF, t_grid=t).bin_width_s is None


def test_decay_trace_validation():
    t = np.array([0.0, 1.0, 2.0])
    for times, values, kind, message in (
            ([0.0, 1.0, 1.0], np.ones(3), "simulated", "^times must be strictly increasing$"),
            (t, [1.0, -0.5, 0.0], "simulated", "^values must be >= 0$"),
            (t, [1.0, 1.5, 0.5], "simulated", "^simulated populations must be <= 1$"),
            (t, np.ones(3), "other", "^kind must be 'simulated' or 'measured'")):
        with pytest.raises(ValueError, match=message):
            DecayTrace(times=times, values=values, kind=kind)
    # measured counts above 1 are fine, and roundoff below 0 is clipped
    DecayTrace(times=t, values=np.array([100.0, 30.0, 7.0]), kind="measured")
    assert DecayTrace(times=t, values=[1.0, -1e-10, 0.0]).values[1] == 0.0


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
    with pytest.raises(ValueError, match="^line 4: simulated populations must be <= 1$"):
        decay_trace_from_csv("time_s,value\n0.0,1.0\n\n1e-9,1.5\n")


def test_decay_trace_leaves_the_callers_times_writeable():
    # the trace freezes a copy of its times, never the caller's array
    t = np.linspace(0.0, 3.0 * P_REF.tau1_s, 32)
    tt = np.arange(3) * 1e-9
    values = np.array([1.0, 0.5, 0.25])
    for caller, make in ((t, lambda: evolve_master_equation(P_REF, t_grid=t)),
                         (tt, lambda: DecayTrace(times=tt, values=values))):
        before = caller.copy()
        trace = make()
        assert caller.flags.writeable and np.array_equal(caller, before)
        assert not (trace.times.flags.writeable or trace.values.flags.writeable)
        caller[0] = -1.0  # the trace keeps its own times
        assert trace.times[0] == 0.0
    assert values.flags.writeable


def test_bin_width_must_be_a_positive_finite_number():
    t = np.arange(3) * 1e-9
    for bad in (math.inf, -math.inf, math.nan, 0.0, -1e-9, True, "1e-9", 10 ** 400):
        with pytest.raises(ValueError, match="^bin_width_s must be a positive finite "
                                             f"number, got {re.escape(repr(bad))}$"):
            DecayTrace(times=t, values=np.ones(3), bin_width_s=bad)
    # every bin width a trace accepts is one the CSV reader reads back
    for width in (1e-9, np.float64(1.28e-9), 2, 5e-324):
        trace = DecayTrace(times=t, values=np.ones(3), bin_width_s=width)
        assert decay_trace_from_csv(decay_trace_to_csv(trace)).bin_width_s == float(width)


def test_decay_trace_csv_names_the_line_of_a_bad_kind():
    text = decay_trace_to_csv(evolve_master_equation(P_REF, t_grid=np.linspace(0, 2e-8, 16)))
    assert text.splitlines()[1] == "# kind=simulated"
    bad = text.replace("# kind=simulated", "# kind=counts")
    with pytest.raises(ValueError, match="^line 2: kind must be 'simulated' or 'measured', "
                                         "got 'counts'$"):
        decay_trace_from_csv(bad)


def test_decay_trace_csv_names_the_line_of_an_injected_defect():
    # one defect at a random row of a valid trace: the error names its line,
    # whichever row it is on
    t = np.linspace(0.0, 3.0 * P_REF.tau1_s, 40)
    lines = decay_trace_to_csv(evolve_master_equation(P_REF, t_grid=t)).splitlines()
    first = lines.index("time_s,value") + 1  # index of the first data row
    rng = np.random.default_rng(22)
    for defect, message in (("order", "times must be strictly increasing"),
                            ("negative", "values must be >= 0"),
                            ("above 1", "simulated populations must be <= 1")):
        for row in rng.integers(1, len(t), size=8):
            body = list(lines)
            time, value = body[first + row].split(",")
            if defect == "order":
                time = body[first + row - 1].split(",")[0]
            else:
                value = "-0.5" if defect == "negative" else "1.5"
            body[first + row] = f"{time},{value}"
            with pytest.raises(ValueError, match=f"^line {first + row + 1}: {message}$"):
                decay_trace_from_csv("\n".join(body) + "\n")


def test_one_norm_condition_makes_the_two_norm_decision():
    # the propagator tests |V|_1 |V^-1|_1, within a factor 5 of the 2-norm
    # cond(V) for the 5x5 generator; on the exceptional-point sets (cond
    # ~1e10 within 1e-9 of it, ~3e3 at 1e-3) and on random sets, all decades
    # from the limit, both take the same path
    points = [_at_exceptional_point(kappa_hz, gamma1, rel)
              for kappa_hz, gamma1 in ((1e9, 1e7), (2e8, 5e7), (940e9, 1.0 / 15.9e-9))
              for rel in (0.0, 1e-9, -1e-9, 1e-3, -1e-3)]
    rng = np.random.default_rng(23)
    for _ in range(200):
        kappa_hz = 10 ** rng.uniform(8, 12)
        points.append(AtomCavityParams(
            g0_hz=10 ** rng.uniform(6, 10), kappa_hz=kappa_hz,
            gamma1=10 ** rng.uniform(6, 9), delta_hz=rng.uniform(-2, 2) * kappa_hz))
    points += _oracle_sets() + [P_DEPHASED]
    fallbacks = 0
    for p in points:
        t = _grids(p.tau1_s)["log"]
        gen = dynamics._generator(p)
        _, fell_back = dynamics._propagate(gen, dynamics._RHO0, t)
        _, vecs = np.linalg.eig(gen)
        assert fell_back == (np.linalg.cond(vecs) > dynamics._EIG_COND_LIMIT), p
        fallbacks += fell_back
    assert fallbacks == 9  # rel 0 and +-1e-9 at each of the three exceptional points


def test_singular_eigenvectors_take_the_expm_fallback(monkeypatch):
    # an exactly singular V (a zero pivot in its inverse) falls back to
    # expm instead of raising
    t = np.linspace(0.0, 3.0 * P_REF.tau1_s, 32)
    ref = evolve_master_equation(P_REF, t_grid=t)
    assert ref.meta["method"] == "eig"

    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    trace = evolve_master_equation(P_REF, t_grid=t)
    assert trace.meta["method"] == "expm"
    assert np.max(np.abs(trace.values - ref.values)) < 1e-10
