import importlib
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cavitykit


def test_every_exported_name_resolves():
    # a stale __all__ entry (a moved or deleted name) fails here, not at a
    # user's star import
    checked = 0
    for info in pkgutil.iter_modules(cavitykit.__path__, "cavitykit."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.__all__ names missing {name!r}"
            checked += 1
    assert checked > 0



# The public names of the package, by the module that defines or re-exports
# them; `from cavitykit import *` gives exactly these.
PUBLIC = {
    "units": {"CONSTANTS", "PhysicalConstants", "to_angular", "linear_to_db",
              "db_to_linear"},
    "purcell": {"RateBudget", "EfficiencyFactors", "PurcellResult",
                "total_decay_rate", "efficiency_factors", "czpl_from_lifetimes",
                "zpl_quantities_from_c", "NV_DEBYE_WALLER_RANGE"},
    "dynamics": {"AtomCavityParams", "DensityState", "DecayTrace", "RateEstimate",
                 "IntegrationError", "evolve_master_equation", "analytic_total_rate",
                 "tau_of_detuning", "extract_decay_rate", "load_decay_trace"},
    "coupling": {"FieldGrid", "WeightingConfig", "CouplingEstimate", "mode_volume",
                 "normalized_mode_volume", "zero_point_field", "dipole_from_lifetime",
                 "to_debye", "g0_ideal", "ideal_coupling", "ensemble_weighting_factor",
                 "effective_g0", "save_field_grid", "load_field_grid"},
    "fitting": {"DegenerateFitError", "FitModel", "FitResult", "MODEL_KINDS",
                "get_model", "least_squares_fit", "fit_decay_trace",
                "fit_tau_detuning", "fit_spectrum"},
    "linkbudget": {"LinkElement", "LinkChain", "propagation_efficiency",
                   "chain_efficiency", "budget_report", "format_budget_table"},
}


def test_bare_import_loads_no_numpy_and_resolves_submodules():
    script = (
        "import sys, cavitykit as ck\n"
        "print('numpy' in sys.modules)\n"
        "print(ck.to_angular(1.0) > 0, ck.ideal_coupling.__name__)\n"
        "print('numpy' in sys.modules)\n"
        "for name in ('dynamics', 'fitting', 'coupling', 'cli', 'synthetic'):\n"
        "    print(getattr(ck, name).__name__)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == [
        "False", "True", "ideal_coupling", "False", "cavitykit.dynamics",
        "cavitykit.fitting", "cavitykit.coupling", "cavitykit.cli", "cavitykit.synthetic"]


def test_every_public_name_is_its_modules_object():
    assert set(cavitykit.__all__) == set().union(*PUBLIC.values())
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"cavitykit.{module}")
        for name in names:
            assert getattr(cavitykit, name) is getattr(mod, name), name
    namespace = {}
    exec("from cavitykit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cavitykit.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'cavitykit' has no attribute 'expm'"):
        cavitykit.expm
    assert not hasattr(cavitykit, "liouvillian")
    assert {"dynamics", "cli", "fit_spectrum"} <= set(dir(cavitykit))


_ETA = cavitykit.EfficiencyFactors(eta_dw=0.02)
_PAPER = cavitykit.AtomCavityParams(g0_hz=0.57e9, kappa_hz=940e9, gamma1=1.0 / 15.9e-9)
_CHAIN = cavitykit.LinkChain((cavitykit.LinkElement(name="a", efficiency=0.5),))


def _grid(**kw):
    kw.setdefault("spacing_m", (1e-9, 1e-9, 1e-9))
    return cavitykit.FieldGrid(np.ones((2, 2, 2, 3)), np.ones((2, 2, 2)), **kw)


@pytest.mark.parametrize("call, message", [
    (lambda: cavitykit.tau_of_detuning(0.1, 1e9, math.inf, 0.0), "tau1 must be finite and > 0, got inf"),
    (lambda: cavitykit.tau_of_detuning(math.inf, 1e9, 1e-9, 0.0), "C must be finite and >= 0, got inf"),
    (lambda: cavitykit.tau_of_detuning(0.1, math.nan, 1e-9, 0.0), "kappa must be finite and > 0, got nan"),
    (lambda: cavitykit.tau_of_detuning("0.1", 1e9, 1e-9, 0.0), "C must be finite and >= 0, got '0.1'"),
    (lambda: cavitykit.tau_of_detuning(0.1, 1e9, 1e-9, math.nan), "delta_hz must be finite, got nan"),
    (lambda: cavitykit.tau_of_detuning(0.1, 1e9, 1e-9, [0.0, -math.inf]),
     "delta_hz must be finite; delta_hz[1] = -inf"),
    (lambda: cavitykit.propagation_efficiency(math.nan, 1.0), "loss_db_per_cm must be finite and >= 0, got nan"),
    (lambda: cavitykit.propagation_efficiency(math.inf, 0.0), "loss_db_per_cm must be finite and >= 0, got inf"),
    (lambda: cavitykit.propagation_efficiency(1.0, -2.0), "length_cm must be finite and >= 0, got -2.0"),
    (lambda: cavitykit.normalized_mode_volume(math.nan, 637e-9, 2.4), "v_m3 must be finite and > 0, got nan"),
    (lambda: cavitykit.normalized_mode_volume(1e-19, "637e-9", 2.4),
     "wavelength_m must be finite and > 0, got '637e-9'"),
    (lambda: cavitykit.normalized_mode_volume(1e300, 637e-9, 2.4),
     "v_m3 / (lambda/n)^3 is out of float64 range for v_m3 = 1e+300 m^3"),
    (lambda: cavitykit.LinkElement(name=5, efficiency=0.5), "element name must be a string, got 5"),
    (lambda: cavitykit.LinkChain(("a",)), "elements[0] must be a LinkElement, got 'a'"),
    (lambda: cavitykit.LinkChain(5), "elements must be a sequence of LinkElement, got 5"),
    (lambda: cavitykit.czpl_from_lifetimes(None, 1e-9, _ETA), "tau_on_s must be finite and > 0, got None"),
    (lambda: cavitykit.zpl_quantities_from_c("0.1", _ETA), "C must be finite and >= 0, got '0.1'"),
    (lambda: cavitykit.tau_of_detuning(0.1, 1e9, None, 0.0), "tau1 must be finite and > 0, got None"),
    (lambda: cavitykit.normalized_mode_volume(1e-19, 637e-9, None), "n_index must be finite and > 0, got None"),
    (lambda: cavitykit.czpl_from_lifetimes(1e-9, True, _ETA), "tau_off_s must be finite and > 0, got True"),
    (lambda: cavitykit.czpl_from_lifetimes(1e-9, 2e-9, None), "eta must be an EfficiencyFactors, got None"),
    (lambda: cavitykit.zpl_quantities_from_c(0.14, None), "eta must be an EfficiencyFactors, got None"),
    (lambda: cavitykit.AtomCavityParams("1", 1e9, 1e7), "g0_hz must be finite and >= 0, got '1'"),
    (lambda: cavitykit.AtomCavityParams(1e9, None, 1e7), "kappa_hz must be finite and >= 0, got None"),
    (lambda: cavitykit.AtomCavityParams(True, 1e9, 1e7), "g0_hz must be finite and >= 0, got True"),
    (lambda: cavitykit.AtomCavityParams(1e9, 1e9, 1e7, delta_hz="0"), "delta_hz must be finite, got '0'"),
    (lambda: cavitykit.RateBudget("1", 1.0), "gamma_zpl must be finite and >= 0, got '1'"),
    (lambda: cavitykit.RateBudget(1.0, None), "gamma_psb must be finite and >= 0, got None"),
    (lambda: cavitykit.RateBudget(True, 1.0), "gamma_zpl must be finite and >= 0, got True"),
    (lambda: cavitykit.RateBudget(1.0, 1.0, math.nan), "gamma_nonrad must be finite and >= 0, got nan"),
    (lambda: cavitykit.EfficiencyFactors(eta_dw=None), "eta_dw must lie in [0, 1], got None"),
    (lambda: cavitykit.EfficiencyFactors(eta_dw=True), "eta_dw must lie in [0, 1], got True"),
    (lambda: cavitykit.EfficiencyFactors(0.02, eta_qe="1"), "eta_qe must lie in [0, 1], got '1'"),
    (lambda: cavitykit.evolve_master_equation(_PAPER, rel_tol="1e-8"),
     "rel_tol must be finite and > 0, got '1e-8'"),
    (lambda: cavitykit.evolve_master_equation(_PAPER, rel_tol=None), "rel_tol must be finite and > 0, got None"),
    (lambda: cavitykit.evolve_master_equation(_PAPER, rel_tol=True), "rel_tol must be finite and > 0, got True"),
    (lambda: cavitykit.zero_point_field("4e14", 5.7, 1e-19), "nu_c_hz must be finite and > 0, got '4e14'"),
    (lambda: cavitykit.zero_point_field(4e14, None, 1e-19), "eps_rel_at_max must be finite and > 0, got None"),
    (lambda: cavitykit.zero_point_field(4e14, 5.7, True), "v_mode_m3 must be finite and > 0, got True"),
    (lambda: cavitykit.dipole_from_lifetime("1e-8", 4.7e14), "tau1_s must be finite and > 0, got '1e-8'"),
    (lambda: cavitykit.dipole_from_lifetime(1e-8, None), "nu_hz must be finite and > 0, got None"),
    (lambda: cavitykit.dipole_from_lifetime(True, 4.7e14), "tau1_s must be finite and > 0, got True"),
    (lambda: cavitykit.g0_ideal(None, 1e5), "d_zpl_cm must be finite and >= 0, got None"),
    (lambda: cavitykit.g0_ideal(1e-30, "1e5"), "e_zpf_v_per_m must be finite and >= 0, got '1e5'"),
    (lambda: cavitykit.g0_ideal(1e-30, math.nan), "e_zpf_v_per_m must be finite and >= 0, got nan"),
    (lambda: cavitykit.ideal_coupling(1.6e-8, 4.7e14, "0.02", v_mode_normalized=1.0),
     "eta_dw must lie in (0, 1], got '0.02'"),
    (lambda: cavitykit.ideal_coupling(1.6e-8, 4.7e14, True, v_mode_normalized=1.0),
     "eta_dw must lie in (0, 1], got True"),
    (lambda: cavitykit.ideal_coupling(1.6e-8, 4.7e14, 0.02, v_mode_normalized="1"),
     "v_mode_normalized must be finite and > 0, got '1'"),
    (lambda: cavitykit.ideal_coupling(1.6e-8, 4.7e14, 0.02, v_mode_normalized=1.0, eps_rel_at_max=None),
     "eps_rel_at_max must be finite and > 0, got None"),
    (lambda: cavitykit.effective_g0(1e9, None), "weighting factor must lie in [0, 1], got None"),
    (lambda: cavitykit.effective_g0(1e9, True), "weighting factor must lie in [0, 1], got True"),
    (lambda: cavitykit.effective_g0("1e9", 0.5), "g0 must be finite and >= 0, got '1e9'"),
    (lambda: cavitykit.effective_g0(True, 0.5), "g0 must be finite and >= 0, got True"),
    (lambda: _grid(spacing_m=(1e-9, "1e-9", 1e-9)), "spacing_m[1] must be finite and > 0, got '1e-9'"),
    (lambda: _grid(spacing_m=(1e-9, 1e-9, None)), "spacing_m[2] must be finite and > 0, got None"),
    (lambda: _grid(spacing_m=(True, 1e-9, 1e-9)), "spacing_m[0] must be finite and > 0, got True"),
    (lambda: _grid(spacing_m=(math.nan, 1e-9, 1e-9)), "spacing_m[0] must be finite and > 0, got nan"),
    (lambda: _grid(spacing_m=1e-9), "spacing_m must hold three numbers, got 1e-09"),
    (lambda: _grid(origin_m=(0.0, 0.0)), "origin_m must hold three numbers, got (0.0, 0.0)"),
    (lambda: _grid(origin_m=(0.0, math.nan, 0.0)), "origin_m[1] must be finite, got nan"),
    (lambda: _grid(origin_m=(0.0, 0.0, "0")), "origin_m[2] must be finite, got '0'"),
    (lambda: _grid(origin_m=(math.inf, 0.0, 0.0)), "origin_m[0] must be finite, got inf"),
    (lambda: cavitykit.budget_report(_CHAIN, measured_total="0.5"),
     "measured_total must lie in (0, 1], got '0.5'"),
    (lambda: cavitykit.budget_report(_CHAIN, measured_total=True),
     "measured_total must lie in (0, 1], got True"),
    (lambda: cavitykit.budget_report(_CHAIN, measured_total=math.nan),
     "measured_total must lie in (0, 1], got nan"),
    (lambda: cavitykit.linear_to_db("1"), "linear must be finite and > 0, got '1'"),
    (lambda: cavitykit.linear_to_db(None), "linear must be finite and > 0, got None"),
    (lambda: cavitykit.linear_to_db(True), "linear must be finite and > 0, got True"),
    (lambda: cavitykit.linear_to_db(math.inf), "linear must be finite and > 0, got inf"),
    (lambda: cavitykit.db_to_linear("3"), "db must be finite, got '3'"),
    (lambda: cavitykit.db_to_linear(None), "db must be finite, got None"),
    (lambda: cavitykit.db_to_linear(True), "db must be finite, got True"),
    (lambda: cavitykit.db_to_linear(math.nan), "db must be finite, got nan"),
    (lambda: cavitykit.db_to_linear(math.inf), "db must be finite, got inf"),
    (lambda: cavitykit.db_to_linear(4000.0), "db = 4000.0 puts 10^(db/10) out of float64 range"),
    (lambda: cavitykit.to_angular("1"), "nu_hz must be finite, got '1'"),
    (lambda: cavitykit.to_angular(None), "nu_hz must be finite, got None"),
    (lambda: cavitykit.to_angular(True), "nu_hz must be finite, got True"),
    (lambda: cavitykit.to_angular(math.nan), "nu_hz must be finite, got nan"),
    (lambda: cavitykit.to_angular(math.inf), "nu_hz must be finite, got inf"),
    (lambda: cavitykit.to_debye("1e-29"), "d_cm must be finite, got '1e-29'"),
    (lambda: cavitykit.to_debye(None), "d_cm must be finite, got None"),
    (lambda: cavitykit.to_debye(True), "d_cm must be finite, got True"),
    (lambda: cavitykit.to_debye(math.nan), "d_cm must be finite, got nan"),
    (lambda: cavitykit.to_debye(-math.inf), "d_cm must be finite, got -inf"),
], ids=["tau-tau1-inf", "tau-c-inf", "tau-kappa-nan", "tau-c-str", "tau-delta-nan",
        "tau-delta-array", "prop-nan", "prop-inf", "prop-length", "vmode-nan", "vmode-str", "vmode-inf",
        "element-name", "chain-item", "chain-int", "czpl-none", "czpl-str",
        "tau-tau1-none", "vmode-index-none", "czpl-true", "czpl-eta-none", "zpl-eta-none",
        "params-str", "params-none", "params-true", "params-delta-str",
        "rates-str", "rates-none", "rates-true", "rates-nan",
        "eta-none", "eta-true", "eta-qe-str",
        "rel-tol-str", "rel-tol-none", "rel-tol-true",
        "zpf-str", "zpf-none", "zpf-true", "dipole-str", "dipole-none", "dipole-true",
        "g0-none", "g0-str", "g0-nan",
        "coupling-eta-str", "coupling-eta-true", "coupling-vmode-str", "coupling-eps-none",
        "weighting-none", "weighting-true", "effective-g0-str", "effective-g0-true",
        "spacing-str", "spacing-none", "spacing-true", "spacing-nan", "spacing-scalar",
        "origin-two", "origin-nan", "origin-str", "origin-inf",
        "measured-str", "measured-true", "measured-nan",
        "to-db-str", "to-db-none", "to-db-true", "to-db-inf",
        "from-db-str", "from-db-none", "from-db-true", "from-db-nan", "from-db-inf",
        "from-db-overflow",
        "angular-str", "angular-none", "angular-true", "angular-nan", "angular-inf",
        "debye-str", "debye-none", "debye-true", "debye-nan", "debye-inf"])
def test_library_scalar_arguments_are_value_errors_naming_them(call, message):
    # no silent nan or inf, and no TypeError from a comparison deep inside
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value).startswith(message), str(exc.value)


def _planted(a, index, value):
    """A float copy of a with value at index."""
    a = np.array(a, dtype=float)
    a[index] = value
    return a


_T = np.linspace(0.0, 7.0, 8)
_TAU_ROWS = cavitykit.synthetic.synthetic_tau_detuning()
_SPECTRUM = cavitykit.synthetic.synthetic_spectrum()
_E, _EPS = np.ones((3, 3, 3, 3)), np.ones((3, 3, 3))

# a call with value planted at a known index of one array argument, and its
# message, {} standing for the value
_ARRAY_ARGUMENTS = {
    "lsq-x": (lambda v: cavitykit.least_squares_fit("single-exponential", _planted(_T, 3, v),
                                                    np.exp(-_T)),
              "x must be finite; x[3] = {!r}"),
    "lsq-y": (lambda v: cavitykit.least_squares_fit("single-exponential", _T,
                                                    _planted(np.exp(-_T), 5, v)),
              "y must be finite; y[5] = {!r}"),
    "lsq-sigma": (lambda v: cavitykit.least_squares_fit("single-exponential", _T, np.exp(-_T),
                                                        sigma=_planted(np.ones(8), 2, v)),
                  "sigma must be finite; sigma[2] = {!r}"),
    "lsq-init": (lambda v: cavitykit.least_squares_fit("single-exponential", _T, np.exp(-_T),
                                                       init=[1.0, v]),
                 "init must be finite; init[1] = {!r}"),
    "detuning-delta": (lambda v: cavitykit.fit_tau_detuning(_planted(_TAU_ROWS, (4, 0), v)),
                       "delta must be finite; delta[4] = {!r}"),
    "detuning-tau": (lambda v: cavitykit.fit_tau_detuning(_planted(_TAU_ROWS, (6, 1), v)),
                     "tau must be finite; tau[6] = {!r}"),
    "detuning-sigma": (lambda v: cavitykit.fit_tau_detuning(_planted(_TAU_ROWS, (2, 2), v)),
                       "sigma must be finite; sigma[2] = {!r}"),
    "spectrum-wavelength": (lambda v: cavitykit.fit_spectrum(_planted(_SPECTRUM, (7, 0), v)),
                            "wavelength must be finite; wavelength[7] = {!r}"),
    "spectrum-intensity": (lambda v: cavitykit.fit_spectrum(_planted(_SPECTRUM, (11, 1), v)),
                           "intensity must be finite; intensity[11] = {!r}"),
    "trace-times": (lambda v: cavitykit.DecayTrace(times=_planted(_T, 2, v), values=np.exp(-_T)),
                    "times must be finite; times[2] = {!r}"),
    "trace-values": (lambda v: cavitykit.DecayTrace(times=_T, values=_planted(np.exp(-_T), 4, v)),
                     "values must be finite; values[4] = {!r}"),
    "t-grid": (lambda v: cavitykit.evolve_master_equation(_PAPER, t_grid=_planted(_T * 1e-9, 5, v)),
               "t_grid must be finite; t_grid[5] = {!r}"),
    "tau-delta-scalar": (lambda v: cavitykit.tau_of_detuning(0.1, 1e9, 1e-9, v),
                         "delta_hz must be finite, got {!r}"),
    "tau-delta-list": (lambda v: cavitykit.tau_of_detuning(0.1, 1e9, 1e-9, [0.0, 1e9, v]),
                       "delta_hz must be finite; delta_hz[2] = {!r}"),
    "grid-eps": (lambda v: cavitykit.FieldGrid(_E, _planted(_EPS, (1, 2, 0), v),
                                               spacing_m=(1e-9,) * 3),
                 "eps_rel must be finite; eps_rel[1, 2, 0] = {!r}"),
    "grid-field": (lambda v: cavitykit.FieldGrid(_planted(_E, (2, 0, 1, 2), v), _EPS,
                                                 spacing_m=(1e-9,) * 3),
                   "e_field must be finite; e_field[2, 0, 1, 2] = {!r}"),
}


def _array_argument_cases():
    for case, (call, message) in _ARRAY_ARGUMENTS.items():
        for value in (math.nan, math.inf, -math.inf):
            expected = message.format(value)
            if case == "lsq-sigma" and value < 0.0:   # the positivity check comes first
                expected = "sigma must be positive and match y in length"
            yield pytest.param(call, value, expected, id=f"{case}-{value!r}")


@pytest.mark.parametrize("call, value, message", _array_argument_cases())
def test_library_array_arguments_are_value_errors_naming_the_entry(call, value, message):
    # the first nan or inf in C order, named with its index; no numpy warning
    # on the way (the suite makes one an error)
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == message
