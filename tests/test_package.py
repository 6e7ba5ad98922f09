import importlib
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


@pytest.mark.parametrize("call, message", [
    (lambda: cavitykit.tau_of_detuning(0.1, 1e9, math.inf, 0.0), "tau1 must be a finite number, got inf"),
    (lambda: cavitykit.tau_of_detuning(math.inf, 1e9, 1e-9, 0.0), "C must be a finite number, got inf"),
    (lambda: cavitykit.tau_of_detuning(0.1, math.nan, 1e-9, 0.0), "kappa must be a finite number, got nan"),
    (lambda: cavitykit.tau_of_detuning("0.1", 1e9, 1e-9, 0.0), "C must be a finite number, got '0.1'"),
    (lambda: cavitykit.tau_of_detuning(0.1, 1e9, 1e-9, math.nan), "delta_hz must be finite, got nan"),
    (lambda: cavitykit.tau_of_detuning(0.1, 1e9, 1e-9, [0.0, -math.inf]),
     "delta_hz must be finite, got -inf"),
    (lambda: cavitykit.propagation_efficiency(math.nan, 1.0), "loss_db_per_cm must be finite and >= 0, got nan"),
    (lambda: cavitykit.propagation_efficiency(math.inf, 0.0), "loss_db_per_cm must be finite and >= 0, got inf"),
    (lambda: cavitykit.propagation_efficiency(1.0, -2.0), "length_cm must be finite and >= 0, got -2.0"),
    (lambda: cavitykit.normalized_mode_volume(math.nan, 637e-9, 2.4), "v_m3 must be finite and > 0, got nan"),
    (lambda: cavitykit.normalized_mode_volume(1e-19, "637e-9", 2.4),
     "wavelength and index must be finite and > 0"),
    (lambda: cavitykit.normalized_mode_volume(1e300, 637e-9, 2.4),
     "v_m3 / (lambda/n)^3 is out of float64 range for v_m3 = 1e+300 m^3"),
    (lambda: cavitykit.LinkElement(name=5, efficiency=0.5), "element name must be a string, got 5"),
    (lambda: cavitykit.LinkChain(("a",)), "elements[0] must be a LinkElement, got 'a'"),
    (lambda: cavitykit.LinkChain(5), "elements must be a sequence of LinkElement, got 5"),
    (lambda: cavitykit.czpl_from_lifetimes(None, 1e-9, _ETA), "lifetimes must be finite and > 0, got tau_on = None"),
    (lambda: cavitykit.zpl_quantities_from_c("0.1", _ETA), "C must be finite and >= 0, got '0.1'"),
], ids=["tau-tau1-inf", "tau-c-inf", "tau-kappa-nan", "tau-c-str", "tau-delta-nan",
        "tau-delta-array", "prop-nan", "prop-inf", "prop-length", "vmode-nan", "vmode-str", "vmode-inf",
        "element-name", "chain-item", "chain-int", "czpl-none", "czpl-str"])
def test_library_scalar_arguments_are_value_errors_naming_them(call, message):
    # no silent nan or inf, and no TypeError from a comparison deep inside
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value).startswith(message), str(exc.value)
