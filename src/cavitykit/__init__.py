"""cavitykit: quantitative analysis of cavity-coupled solid-state emitters.

Relaxation dynamics of an emitter-cavity system, Purcell/cooperativity
figures of merit with Debye-Waller and quantum-efficiency corrections,
vacuum coupling rates from mode-volume and dipole data (including ensemble
averaging over a field map), weighted nonlinear least-squares fitting of
decay traces, detuning sweeps and spectra, and photonic link-loss budgets.

Every name below, and every submodule, is imported on first access
(PEP 562), so ``import cavitykit`` loads no numpy, and a process loads
only the modules it uses: ``cavitykit purcell`` and ``cavitykit
link-budget`` run on ``math`` alone.
"""

import importlib

__version__ = "0.1.0"

# the module each public name comes from
_EXPORTS = {
    "units": (
        "CONSTANTS", "PhysicalConstants", "to_angular", "linear_to_db", "db_to_linear",
    ),
    "purcell": (
        "RateBudget", "EfficiencyFactors", "PurcellResult",
        "total_decay_rate", "efficiency_factors", "czpl_from_lifetimes",
        "zpl_quantities_from_c", "NV_DEBYE_WALLER_RANGE",
        # the scalar coupling chain, also re-exported by coupling
        "CouplingEstimate", "normalized_mode_volume", "zero_point_field",
        "dipole_from_lifetime", "to_debye", "g0_ideal", "ideal_coupling",
        "effective_g0",
    ),
    "dynamics": (
        "AtomCavityParams", "DensityState", "DecayTrace", "RateEstimate",
        "IntegrationError", "evolve_master_equation", "analytic_total_rate",
        "tau_of_detuning", "extract_decay_rate", "load_decay_trace",
    ),
    "coupling": (
        "FieldGrid", "WeightingConfig", "mode_volume",
        "ensemble_weighting_factor", "save_field_grid", "load_field_grid",
    ),
    "fitting": (
        "DegenerateFitError", "FitModel", "FitResult", "MODEL_KINDS", "get_model",
        "least_squares_fit", "fit_decay_trace", "fit_tau_detuning", "fit_spectrum",
    ),
    "linkbudget": (
        "LinkElement", "LinkChain", "propagation_efficiency", "chain_efficiency",
        "budget_report", "format_budget_table",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "synthetic"}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
