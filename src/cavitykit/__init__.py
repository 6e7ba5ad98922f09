"""cavitykit: quantitative analysis of cavity-coupled solid-state emitters.

Relaxation dynamics of an emitter-cavity system, Purcell/cooperativity
figures of merit with Debye-Waller and quantum-efficiency corrections,
vacuum coupling rates from mode-volume and dipole data (including ensemble
averaging over a field map), weighted nonlinear least-squares fitting of
decay traces, detuning sweeps and spectra, and photonic link-loss budgets.
"""

from .units import (
    CONSTANTS, PhysicalConstants, to_angular, linear_to_db, db_to_linear,
)
from .purcell import (
    RateBudget, EfficiencyFactors, PurcellResult, CzplEstimate,
    total_decay_rate, efficiency_factors, czpl_from_lifetimes,
    zpl_quantities_from_c, NV_DEBYE_WALLER_RANGE,
)
from .dynamics import (
    AtomCavityParams, DensityState, DecayTrace, RateEstimate,
    IntegrationError, evolve_master_equation, analytic_total_rate, tau_of_detuning,
    extract_decay_rate, load_decay_trace,
)
from .coupling import (
    FieldGrid, WeightingConfig, CouplingEstimate,
    mode_volume, normalized_mode_volume, zero_point_field,
    dipole_from_lifetime, to_debye, g0_ideal, ideal_coupling,
    ensemble_weighting_factor, effective_g0, save_field_grid,
    load_field_grid,
)
from .fitting import (
    DegenerateFitError, FitModel, FitResult, MODEL_KINDS, get_model,
    least_squares_fit, fit_decay_trace, fit_tau_detuning, fit_spectrum,
)
from .linkbudget import (
    LinkElement, LinkChain, propagation_efficiency, chain_efficiency,
    budget_report, format_budget_table,
)

__version__ = "0.1.0"
