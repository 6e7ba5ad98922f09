"""Command-line interface: one subcommand per analysis step.

Exit codes: 0 success, 1 domain error (bad physics inputs, degenerate
fits), 2 usage error (unknown flags, malformed input files, an output or a
stdout that cannot be written).  All file outputs are written atomically
(write-then-rename), carry a schema_version field and serialize numbers at
full precision, so repeated runs with the same inputs and seed are byte
identical.  A process enters through run(), which ends it without
interpreter teardown once stdout and stderr are flushed; main(argv) in
process returns the exit code.

This module imports no other cavitykit module but ``_cells`` when it
loads.  Each subcommand imports the modules it runs when it runs, and the
numeric ones (and with them numpy) only after it has read and parsed its
input file: so ``purcell`` and ``g0`` load ``purcell`` and ``units``,
``link-budget`` loads ``linkbudget`` and ``units``, and a missing input
file, or a table with a wrong cell count or a cell that is not a number, is
reported with ``_cells`` alone, without numpy or ``dataclasses``.  Measured
on a 2-vCPU Xeon with no ``__pycache__`` and PYTHONDONTWRITEBYTECODE=1, so
that each process compiles every module it imports, one process of
``purcell --c 0.14`` takes about 68 ms, a missing file 56 ms and
``fit-decay`` 156 ms (medians), against 52 ms for Python with the standard
modules imported here and 131 ms with numpy (both with teardown); the
README lists every subcommand, cold and with a warm ``__pycache__``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import warnings

from ._cells import (finite_real, format_rows, read_rows, read_text, require_int, require_real,
                     write_atomic)

SCHEMA_VERSION = 1


class InputFormatError(Exception):
    """Malformed input file; reported as a usage error (exit 2)."""


# ---------------------------------------------------------------------------
# I/O helpers
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if hasattr(obj, "tolist"):  # a numpy array or scalar, known without numpy
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        # keep the JSON strictly standard
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _json_text(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


@contextlib.contextmanager
def _writing(path: str):
    """A path that cannot be written (a missing directory, say) is a usage
    error naming it."""
    try:
        yield
    except OSError as exc:
        raise InputFormatError(f"{path}: cannot write: {exc.strerror or exc}") from None


def _write(path: str, data):
    with _writing(path):
        write_atomic(path, data)


def _print(text: str):
    """text on stdout; a write that fails (a full disk, a closed pipe) is a
    usage error, as an unwritable --out is."""
    with _writing("<stdout>"):
        sys.stdout.write(text)


def _emit(args, command: str, inputs: dict, result: dict) -> int:
    payload = _json_text({"schema_version": SCHEMA_VERSION, "command": command,
                          "inputs": inputs, "result": result})
    if getattr(args, "out", None):
        _write(args.out, payload)
    else:
        _print(payload)
    return 0


@contextlib.contextmanager
def _reading(path: str):
    """A file that cannot be opened, or is malformed, is a usage error naming it."""
    try:
        yield
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (TypeError, ValueError, RecursionError) as exc:  # deep JSON nesting
        raise InputFormatError(f"{path}: {exc}") from None


def _read_table(path: str, columns: tuple):
    """CSV reader: optional '#' comments and one optional header line.

    Accepts rows with len(columns) values, or len(columns)-1 when the last
    column is marked optional with a trailing '?'.  A header is the first
    non-comment line when it names the columns (case-insensitive, '?'
    stripped); any other line is a data row (see _cells.read_rows), and an
    error on a first line that is not a header shows what a header reads.
    """
    required = [c.rstrip("?") for c in columns]
    widths = range(len(required) - sum(c.endswith("?") for c in columns),
                   len(required) + 1)
    with _reading(path):
        text = read_text(path)
    lines = [(lineno, line) for lineno, line in enumerate(text.splitlines(), start=1)
             if line.strip() and not line.lstrip().startswith("#")]
    top = lines[0][0] if lines else None
    names = [c.lower() for c in required]
    if lines and [p.strip().lower().rstrip("?")
                  for p in lines[0][1].split(",")] in [names[:w] for w in widths]:
        lines, top = lines[1:], None
    try:
        return read_rows(lines, widths)
    except ValueError as exc:
        hint = (f" (a header line reads {','.join(required)})"
                if str(exc).startswith((f"line {top}:", f"line {top},")) else "")
        raise InputFormatError(f"{path}: {exc}{hint}") from None


def _table_text(header: tuple, rows) -> str:
    return ",".join(header) + "\n" + format_rows(rows)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_simulate_decay(args) -> int:
    require_real("--tau1-ns", args.tau1_ns, 0.0, above=True)
    require_real("--kappa-ghz", args.kappa_ghz, 0.0, above=True)
    require_int("--points", args.points, 2)
    if args.t_max_ns is not None:
        require_real("--t-max-ns", args.t_max_ns, 0.0, above=True)
    require_real("--tol", args.tol, 0.0, above=True)
    import numpy as np

    from . import dynamics

    params = dynamics.AtomCavityParams(
        g0_hz=args.g0_ghz * 1e9, kappa_hz=args.kappa_ghz * 1e9,
        gamma1=1.0 / (args.tau1_ns * 1e-9), gamma_phi=args.gamma_phi_per_s,
        delta_hz=args.delta_ghz * 1e9)
    t_max = (args.t_max_ns * 1e-9) if args.t_max_ns is not None else 5.0 * params.tau1_s
    t_grid = np.linspace(0.0, t_max, args.points)
    trace = dynamics.evolve_master_equation(params, t_grid=t_grid, rel_tol=args.tol)
    estimate = dynamics.extract_decay_rate(trace)
    result = {
        "analytic_rate_per_s": dynamics.analytic_total_rate(params),
        "extracted_rate_per_s": estimate.rate,
        "extracted_rate_curved": estimate.curved,
        "slow_eigenrate_per_s": dynamics.slow_eigenrate(params),
        "cooperativity": params.cooperativity,
        "effective_cooperativity": params.effective_cooperativity,
        "n_points": len(trace),
    }
    if args.trace_csv:
        _write(args.trace_csv, dynamics.decay_trace_to_csv(trace))
        result["trace_csv"] = args.trace_csv
    inputs = {"g0_hz": params.g0_hz, "kappa_hz": params.kappa_hz,
              "gamma1_per_s": params.gamma1, "gamma_phi_per_s": params.gamma_phi,
              "delta_hz": params.delta_hz, "rel_tol": args.tol,
              "t_max_s": t_max, "points": args.points}
    return _emit(args, "simulate-decay", inputs, result)


def _cmd_fit_decay(args) -> int:
    with _reading(args.data):
        text = read_text(args.data)
    from . import dynamics, fitting

    with _reading(args.data):
        trace = dynamics.decay_trace_from_csv(text)
    result = fitting.fit_decay_trace(trace, with_background=args.background,
                                     skip_bins=args.skip_bins)
    return _emit(args, "fit-decay",
                 {"data": args.data, "with_background": args.background,
                  "skip_bins": args.skip_bins},
                 result.to_json_dict())


def _cmd_fit_detuning(args) -> int:
    table = _read_table(args.data, ("delta_hz", "tau_s", "sigma_s?"))
    from . import fitting

    result = fitting.fit_tau_detuning(table)
    return _emit(args, "fit-detuning", {"data": args.data},
                 result.to_json_dict())


def _cmd_fit_spectrum(args) -> int:
    table = _read_table(args.data, ("wavelength_nm", "intensity"))
    from . import fitting

    result = fitting.fit_spectrum(table)
    return _emit(args, "fit-spectrum", {"data": args.data},
                 result.to_json_dict())


def _cmd_purcell(args) -> int:
    from . import purcell

    from_c = args.cooperativity is not None
    if from_c == (args.tau_on_ns is not None or args.tau_off_ns is not None):
        raise InputFormatError(
            "give either --c or the pair --tau-on-ns/--tau-off-ns")
    if not from_c and args.tau_off_ns is None:
        raise InputFormatError("--tau-on-ns requires --tau-off-ns")
    if not from_c and args.tau_on_ns is None:
        raise InputFormatError("--tau-off-ns requires --tau-on-ns")
    eta_dws = args.eta_dw or list(purcell.NV_DEBYE_WALLER_RANGE)
    entries = []
    for eta_dw in eta_dws:
        eta = purcell.EfficiencyFactors(eta_dw=eta_dw, eta_qe=args.eta_qe)
        if from_c:
            res = purcell.zpl_quantities_from_c(args.cooperativity, eta)
        else:
            res = purcell.czpl_from_lifetimes(
                args.tau_on_ns * 1e-9, args.tau_off_ns * 1e-9, eta)
        entry = {"eta_dw": eta_dw, "eta_qe": args.eta_qe, "c": res.c,
                 "f_p": res.f_p, "c_zpl": res.c_zpl, "f_zpl": res.f_zpl}
        if not from_c:
            entry["suppressed"] = res.suppressed
        entries.append(entry)
    inputs = {"cooperativity": args.cooperativity,
              "tau_on_ns": args.tau_on_ns, "tau_off_ns": args.tau_off_ns,
              "eta_dw": eta_dws, "eta_qe": args.eta_qe}
    return _emit(args, "purcell", inputs, {"entries": entries})


def _cmd_g0(args) -> int:
    from . import purcell

    eta_dws = args.eta_dw or list(purcell.NV_DEBYE_WALLER_RANGE)
    entries = []
    for eta_dw in eta_dws:
        est = purcell.ideal_coupling(
            tau1_s=args.tau1_ns * 1e-9, nu_hz=args.nu_thz * 1e12,
            eta_dw=eta_dw,
            v_mode_m3=args.vmode_m3,
            v_mode_normalized=args.vmode_normalized,
            eps_rel_at_max=args.eps)
        entries.append({
            "eta_dw": eta_dw,
            "d_perp_cm": est.d_perp_cm,
            "d_perp_debye": purcell.to_debye(est.d_perp_cm),
            "d_zpl_cm": est.d_zpl_cm,
            "d_zpl_debye": purcell.to_debye(est.d_zpl_cm),
            "e_zpf_v_per_m": est.e_zpf_v_per_m,
            "v_mode_m3": est.v_mode_m3,
            "g0_hz": est.g0_hz,
            "g0_effective_hz": purcell.effective_g0(est.g0_hz, args.weighting),
        })
    inputs = {"tau1_s": args.tau1_ns * 1e-9, "nu_hz": args.nu_thz * 1e12,
              "eta_dw": eta_dws, "eps_rel": args.eps,
              "v_mode_m3": args.vmode_m3,
              "v_mode_normalized": args.vmode_normalized,
              "weighting": args.weighting}
    return _emit(args, "g0", inputs, {"entries": entries})


def _load_grid(path: str):
    """The grid at path; a warning about it goes to stderr as one line naming the file."""
    from . import coupling

    with _reading(path), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        grid = coupling.load_field_grid(path)
    for w in caught:
        sys.stderr.write(f"warning: {path}: {w.message}\n")
    return grid


def _cmd_ensemble_weight(args) -> int:
    from . import coupling

    if args.region_nm:
        r = [v * 1e-9 for v in args.region_nm]
        region = ((r[0], r[1]), (r[2], r[3]), (r[4], r[5]))
    else:
        region = coupling.DEFAULT_REGION_M
    # a bad flag exits 1 before the grid is read
    cfg = coupling.WeightingConfig(threshold_fraction=args.threshold,
                                   region_m=region)
    grid = _load_grid(args.grid)
    factor = coupling.ensemble_weighting_factor(grid, cfg)
    return _emit(args, "ensemble-weight",
                 {"grid": args.grid, "threshold_fraction": args.threshold,
                  "region_m": [list(b) for b in region]},
                 {"weighting_factor": factor})


def _cmd_mode_volume(args) -> int:
    if args.n_index is not None and args.lambda_nm is None:
        raise InputFormatError("--n-index requires --lambda-nm")
    # a bad flag exits 1 before the grid is read
    if args.lambda_nm is not None:
        require_real("--lambda-nm", args.lambda_nm, 0.0, above=True)
    if args.n_index is not None:
        require_real("--n-index", args.n_index, 0.0, above=True)
    grid = _load_grid(args.grid)
    from . import coupling

    v = coupling.mode_volume(grid)
    result = {"v_mode_m3": v}
    eps_at_max = float(grid.eps_rel[grid.argmax_energy()])
    result["eps_rel_at_max"] = eps_at_max
    if args.lambda_nm is not None:
        n_index = args.n_index if args.n_index is not None else math.sqrt(eps_at_max)
        result["n_index"] = n_index
        result["v_mode_normalized"] = coupling.normalized_mode_volume(
            v, args.lambda_nm * 1e-9, n_index)
    return _emit(args, "mode-volume", {"grid": args.grid}, result)


def _cmd_link_budget(args) -> int:
    from . import linkbudget

    if bool(args.chain) == (args.db_per_cm is not None or args.length_cm is not None):
        raise InputFormatError("give a chain JSON file or --db-per-cm/--length-cm")
    if args.chain:
        with _reading(args.chain):
            chain = linkbudget.chain_from_json_obj(json.loads(read_text(args.chain)))
    else:
        if args.length_cm is None:
            raise InputFormatError("--db-per-cm requires --length-cm")
        if args.db_per_cm is None:
            raise InputFormatError("--length-cm requires --db-per-cm")
        chain = linkbudget.LinkChain((linkbudget.LinkElement(
            name="propagation", loss_db_per_cm=args.db_per_cm,
            length_cm=args.length_cm),))
    report = linkbudget.budget_report(chain, measured_total=args.measured_total)
    if not args.quiet:
        _print(linkbudget.format_budget_table(report) + "\n")
    return _emit(args, "link-budget",
                 {"chain": args.chain, "db_per_cm": args.db_per_cm,
                  "length_cm": args.length_cm,
                  "measured_total": args.measured_total},
                 report)


def _replayed_params(path: str, defaults: dict) -> list:
    """The defaults, each replaced by its key in a fit result's "params"."""
    with _reading(path):
        doc = json.loads(read_text(path))
    result = doc.get("result", doc) if isinstance(doc, dict) else None
    params = result.get("params", {}) if isinstance(result, dict) else None
    if not isinstance(params, dict):
        raise InputFormatError(f"{path}: expected a JSON object with a 'params' "
                               "object, at the top or under 'result'")
    values = []
    for key, default in defaults.items():
        v = params.get(key, default)
        if not finite_real(v):
            raise InputFormatError(
                f"{path}: params[{key!r}] must be a finite number, got {v!r}")
        values.append(float(v))
    return values


def _cmd_gen_synthetic(args) -> int:
    if args.seed is not None:
        require_int("--seed", args.seed, 0)
    what = args.what
    c, kappa_hz, tau1_s = 0.14, 940e9, 15.9e-9
    if args.params_json:
        c, kappa_hz, tau1_s = _replayed_params(
            args.params_json, {"c": c, "kappa": kappa_hz, "tau1": tau1_s})
    import numpy as np

    from . import coupling, dynamics, synthetic

    with _reading(args.params_json):  # replayed values fail here, before any write
        dynamics.tau_of_detuning(c, kappa_hz, tau1_s, 0.0)
    with _writing(args.out_dir):
        os.makedirs(args.out_dir, exist_ok=True)
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    files = {}
    base = synthetic.DEFAULT_ATOM_CAVITY

    if what in ("decay-traces", "all"):
        names = []
        for i, step in enumerate(synthetic.DEFAULT_DETUNING_STEPS):
            trace = synthetic.synthetic_decay_trace(
                base.detuned(step * base.kappa_hz), rng=rng)
            name = f"decay_trace_{i:02d}.csv"
            _write(os.path.join(args.out_dir, name),
                   dynamics.decay_trace_to_csv(trace))
            names.append({"file": name, "delta_hz": step * base.kappa_hz})
        files["decay_traces"] = names
    if what in ("tau-detuning", "all"):
        table = synthetic.synthetic_tau_detuning(
            c=c, kappa_hz=kappa_hz, tau1_s=tau1_s, rng=rng)
        name = "tau_detuning.csv"
        _write(os.path.join(args.out_dir, name),
               _table_text(("delta_hz", "tau_s", "sigma_s"), table))
        files["tau_detuning"] = name
    if what in ("spectrum", "all"):
        spec = synthetic.synthetic_spectrum(
            noise_frac=0.02 if rng is not None else 0.0, rng=rng)
        name = "spectrum.csv"
        _write(os.path.join(args.out_dir, name),
               _table_text(("wavelength_nm", "intensity"), spec))
        files["spectrum"] = name
    if what in ("field-grid", "all"):
        grid = synthetic.synthetic_field_grid()
        name = "field_grid.fgrid"
        path = os.path.join(args.out_dir, name)
        with _writing(path):
            coupling.save_field_grid(grid, path)
        files["field_grid"] = name

    index = _json_text({
        "schema_version": SCHEMA_VERSION,
        "command": "gen-synthetic",
        "seed": args.seed,
        "parameters": {"g0_hz": base.g0_hz, "kappa_hz": base.kappa_hz,
                       "gamma1_per_s": base.gamma1,
                       "tau_detuning": {"c": c, "kappa_hz": kappa_hz,
                                        "tau1_s": tau1_s}},
        "files": files,
    })
    _write(os.path.join(args.out_dir, "index.json"), index)
    _print(f"wrote {args.out_dir}/index.json\n")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        """Help on stdout through _print, so that a failed write is a usage
        error (argparse drops it); add_subparsers gives subcommands this class."""
        _print(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cavitykit",
        description="Emitter-cavity analysis: simulate, fit, compute, budget.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate-decay",
                       help="integrate the master equation and extract the decay rate")
    p.add_argument("--g0-ghz", type=float, required=True)
    p.add_argument("--kappa-ghz", type=float, required=True)
    p.add_argument("--tau1-ns", type=float, required=True)
    p.add_argument("--gamma-phi-per-s", type=float, default=0.0)
    p.add_argument("--delta-ghz", type=float, default=0.0)
    p.add_argument("--t-max-ns", type=float, default=None)
    p.add_argument("--points", type=int, default=251)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--trace-csv", default=None,
                   help="also write the simulated trace as CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate_decay)

    p = sub.add_parser("fit-decay", help="exponential fit of a decay-trace CSV")
    p.add_argument("data")
    p.add_argument("--background", action="store_true")
    p.add_argument("--skip-bins", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_decay)

    p = sub.add_parser("fit-detuning",
                       help="fit tau(Delta) to a (delta_hz, tau_s[, sigma_s]) CSV")
    p.add_argument("data")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_detuning)

    p = sub.add_parser("fit-spectrum",
                       help="Lorentzian+Gaussian+baseline fit of a spectrum CSV")
    p.add_argument("data")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit_spectrum)

    p = sub.add_parser("purcell",
                       help="cooperativity / Purcell figures with DW and QE corrections")
    p.add_argument("--c", "--C", "--cooperativity", dest="cooperativity",
                   type=float, default=None)
    p.add_argument("--tau-on-ns", type=float, default=None)
    p.add_argument("--tau-off-ns", type=float, default=None)
    p.add_argument("--eta-dw", type=float, nargs="+", default=None)
    p.add_argument("--eta-qe", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_purcell)

    p = sub.add_parser("g0", help="dipole, zero-point field and ideal g0 chain")
    p.add_argument("--tau1-ns", type=float, required=True)
    p.add_argument("--nu-thz", type=float, required=True)
    p.add_argument("--eta-dw", type=float, nargs="+", default=None)
    p.add_argument("--eps", type=float, default=5.7)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--vmode-normalized", type=float, default=None,
                       help="mode volume in units of (lambda/n)^3")
    group.add_argument("--vmode-m3", type=float, default=None)
    p.add_argument("--weighting", type=float, default=1.0,
                   help="ensemble weighting factor applied to g0")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_g0)

    p = sub.add_parser("ensemble-weight",
                       help="spatially averaged coupling reduction from a field map")
    p.add_argument("grid")
    p.add_argument("--threshold", type=float, default=0.0,
                   help="|E_threshold| / |E_max|")
    p.add_argument("--region-nm", type=float, nargs=6, default=None,
                   metavar=("X0", "X1", "Y0", "Y1", "Z0", "Z1"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ensemble_weight)

    p = sub.add_parser("mode-volume", help="mode volume of a field map")
    p.add_argument("grid")
    p.add_argument("--lambda-nm", type=float, default=None)
    p.add_argument("--n-index", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mode_volume)

    p = sub.add_parser("link-budget", help="cascaded transmission budget")
    p.add_argument("chain", nargs="?", default=None,
                   help="JSON list of link elements")
    p.add_argument("--db-per-cm", type=float, default=None)
    p.add_argument("--length-cm", type=float, default=None)
    p.add_argument("--measured-total", type=float, default=None)
    p.add_argument("--quiet", action="store_true",
                   help="suppress the text table on stdout")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_link_budget)

    p = sub.add_parser("gen-synthetic",
                       help="write the synthetic fixture datasets")
    p.add_argument("--what", choices=("decay-traces", "tau-detuning",
                                      "spectrum", "field-grid", "all"),
                   default="all")
    p.add_argument("--seed", type=int, default=None,
                   help="noise seed; omit for noiseless datasets")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--params-json", default=None,
                   help="replay a fit-detuning JSON result as generator input")
    p.set_defaults(func=_cmd_gen_synthetic)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except InputFormatError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def run():
    """The process entry of the ``cavitykit`` script and ``python -m
    cavitykit.cli``: main(), then the process ends with os._exit once stdout
    and stderr are flushed, which skips the interpreter's teardown (module
    cleanup and a last garbage collection, about 20 ms once numpy is loaded).

    Every output is complete by then: main closes and renames each file it
    writes, and cavitykit registers no atexit callback and starts no thread.
    An exception that escapes main takes Python's normal path.  A stdout
    that cannot take the buffered output is a usage error, unless main has
    already reported one.
    """
    rc = main()
    try:
        with _writing("<stdout>"):
            if sys.stdout is not None:  # None when started with fd 1 closed
                sys.stdout.flush()
    except InputFormatError as exc:
        if rc == 0:
            sys.stderr.write(f"usage error: {exc}\n")
            rc = 2
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            sys.stderr.flush()
    os._exit(rc)


if __name__ == "__main__":
    run()
