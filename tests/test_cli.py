import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cavitykit import _cells, cli, coupling, dynamics, purcell
from cavitykit.cli import main
from cavitykit.coupling import FieldGrid, save_field_grid
from cavitykit.dynamics import DecayTrace, decay_trace_to_csv, load_decay_trace
from cavitykit.fitting import fit_decay_trace
from cavitykit.synthetic import synthetic_field_grid


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    assert run_cli("gen-synthetic", "--out-dir", str(out)) == 0
    return out


def test_gen_synthetic_writes_index(fixtures):
    index = read_json(fixtures / "index.json")
    assert index["schema_version"] == 1
    assert index["files"]["tau_detuning"] == "tau_detuning.csv"
    assert len(index["files"]["decay_traces"]) == 9
    assert (fixtures / "field_grid.fgrid").exists()


def test_fit_detuning_on_fixture(fixtures, tmp_path):
    out = tmp_path / "fit.json"
    code = run_cli("fit-detuning", str(fixtures / "tau_detuning.csv"),
                   "--out", str(out))
    assert code == 0
    doc = read_json(out)
    assert doc["schema_version"] == 1
    assert doc["result"]["params"]["c"] == pytest.approx(0.14, abs=1e-6)
    assert doc["result"]["params"]["tau1"] == pytest.approx(15.9e-9, rel=1e-6)


def test_fit_decay_on_fixture(fixtures, tmp_path):
    out = tmp_path / "fit.json"
    code = run_cli("fit-decay", str(fixtures / "decay_trace_04.csv"),
                   "--out", str(out))
    assert code == 0
    doc = read_json(out)
    # index 04 is the on-resonance trace of the sweep
    assert doc["result"]["params"]["tau"] == pytest.approx(13.97e-9, rel=1e-3)


def test_fit_spectrum_on_fixture(fixtures, tmp_path):
    out = tmp_path / "fit.json"
    assert run_cli("fit-spectrum", str(fixtures / "spectrum.csv"),
                   "--out", str(out)) == 0
    doc = read_json(out)
    assert doc["result"]["derived"]["lambda_cav"] == pytest.approx(638.2, abs=1e-3)


def test_simulate_decay(tmp_path):
    out = tmp_path / "sim.json"
    trace_csv = tmp_path / "trace.csv"
    code = run_cli("simulate-decay", "--g0-ghz", "0.57", "--kappa-ghz", "940",
                   "--tau1-ns", "15.9", "--points", "64",
                   "--trace-csv", str(trace_csv), "--out", str(out))
    assert code == 0
    doc = read_json(out)
    ana = doc["result"]["analytic_rate_per_s"]
    ext = doc["result"]["extracted_rate_per_s"]
    assert abs(ext - ana) / ana < 0.02
    assert trace_csv.exists()
    # a detuning and pure dephasing reach the model
    assert run_cli("simulate-decay", "--g0-ghz", "0.57", "--kappa-ghz", "940",
                   "--tau1-ns", "15.9", "--points", "64", "--delta-ghz", "300",
                   "--gamma-phi-per-s", "1e9", "--out", str(out)) == 0
    doc = read_json(out)
    params = dynamics.AtomCavityParams(
        g0_hz=0.57 * 1e9, kappa_hz=940 * 1e9, gamma1=1.0 / (15.9 * 1e-9),
        gamma_phi=1e9, delta_hz=300 * 1e9)
    trace = dynamics.evolve_master_equation(
        params, t_grid=np.linspace(0.0, 5.0 * params.tau1_s, 64))
    assert doc["inputs"]["delta_hz"] == 300e9
    assert doc["inputs"]["gamma_phi_per_s"] == 1e9
    assert doc["result"]["analytic_rate_per_s"] == dynamics.analytic_total_rate(params)
    assert doc["result"]["extracted_rate_per_s"] == dynamics.extract_decay_rate(trace).rate
    assert doc["result"]["cooperativity"] == params.cooperativity
    assert doc["result"]["effective_cooperativity"] == params.effective_cooperativity
    assert doc["result"]["effective_cooperativity"] < params.cooperativity


@pytest.mark.parametrize("argv, curved", [
    (["--g0-ghz", "0.57", "--kappa-ghz", "940", "--tau1-ns", "15.9"], False),
    # strong coupling: the population oscillates, and the log-linear rate
    # (2.9e8/s) is nowhere near the adiabatic 1.1e11/s
    (["--g0-ghz", "0.676", "--kappa-ghz", "0.101", "--tau1-ns", "32.4"], True),
], ids=["paper-point", "strong-coupling"])
def test_simulate_decay_reports_curved(argv, curved, tmp_path):
    out = tmp_path / "sim.json"
    assert run_cli("simulate-decay", *argv, "--out", str(out)) == 0
    result = read_json(out)["result"]
    assert result["extracted_rate_curved"] is curved
    assert "extracted_rate_stderr" not in result


def test_simulate_decay_reports_the_slow_eigenrate(tmp_path):
    # at the paper point the trace is one exponential by the window, and
    # its rate is the generator's slowest eigenrate; the adiabatic formula
    # is 1.5e-6 below both
    out = tmp_path / "sim.json"
    assert run_cli("simulate-decay", "--g0-ghz", "0.57", "--kappa-ghz", "940",
                   "--tau1-ns", "15.9", "--out", str(out)) == 0
    result = read_json(out)["result"]
    assert result["extracted_rate_per_s"] == pytest.approx(
        result["slow_eigenrate_per_s"], rel=1e-9, abs=0.0)
    assert result["slow_eigenrate_per_s"] == dynamics.slow_eigenrate(
        dynamics.AtomCavityParams(g0_hz=0.57e9, kappa_hz=940e9, gamma1=1.0 / 15.9e-9))


def test_purcell_subcommand(tmp_path):
    out = tmp_path / "p.json"
    assert run_cli("purcell", "--c", "0.14", "--eta-dw", "0.02",
                   "--out", str(out)) == 0
    doc = read_json(out)
    assert doc["result"]["entries"][0]["f_zpl"] == pytest.approx(8.0, rel=1e-9)
    # lifetime form with suppression
    assert run_cli("purcell", "--tau-on-ns", "20", "--tau-off-ns", "15.9",
                   "--eta-dw", "0.02", "--out", str(out)) == 0
    doc = read_json(out)
    assert doc["result"]["entries"][0]["suppressed"] is True
    # --eta-qe, and the --C and --cooperativity spellings of --c
    eta = purcell.EfficiencyFactors(eta_dw=0.02, eta_qe=0.5)
    res = purcell.zpl_quantities_from_c(0.14, eta)
    for spelling in ("--C", "--cooperativity"):
        assert run_cli("purcell", spelling, "0.14", "--eta-dw", "0.02",
                       "--eta-qe", "0.5", "--out", str(out)) == 0
        entry = read_json(out)["result"]["entries"][0]
        assert (entry["eta_qe"], entry["c_zpl"], entry["f_zpl"]) == (0.5, res.c_zpl, res.f_zpl)
    assert run_cli("purcell", "--tau-on-ns", "15", "--tau-off-ns", "15.9",
                   "--eta-dw", "0.02", "--eta-qe", "0.5", "--out", str(out)) == 0
    est = purcell.czpl_from_lifetimes(15 * 1e-9, 15.9 * 1e-9, eta)
    entry = read_json(out)["result"]["entries"][0]
    assert entry["c_zpl"] == est.c_zpl
    # C is the lifetime contrast itself, and F_P = C + 1
    assert entry["c"] == 15.9 * 1e-9 / (15 * 1e-9) - 1.0
    assert entry["f_p"] == entry["c"] + 1.0


def test_g0_subcommand(tmp_path):
    out = tmp_path / "g0.json"
    assert run_cli("g0", "--tau1-ns", "16", "--nu-thz", "475",
                   "--vmode-normalized", "0.5", "--out", str(out)) == 0
    doc = read_json(out)
    lo, hi = doc["result"]["entries"]
    assert lo["g0_hz"] == pytest.approx(2.9e9, rel=0.05)
    assert hi["g0_hz"] == pytest.approx(3.5e9, rel=0.05)
    # --eps sets the permittivity at the field maximum
    assert run_cli("g0", "--tau1-ns", "16", "--nu-thz", "475", "--eta-dw", "0.03",
                   "--vmode-normalized", "0.5", "--eps", "2.0", "--out", str(out)) == 0
    doc = read_json(out)
    est = purcell.ideal_coupling(tau1_s=16 * 1e-9, nu_hz=475 * 1e12, eta_dw=0.03,
                                 v_mode_normalized=0.5, eps_rel_at_max=2.0)
    assert doc["inputs"]["eps_rel"] == 2.0
    assert doc["result"]["entries"][0]["g0_hz"] == est.g0_hz


def test_mode_volume_and_ensemble_weight(fixtures, tmp_path):
    grid = str(fixtures / "field_grid.fgrid")
    out = tmp_path / "mv.json"
    assert run_cli("mode-volume", grid, "--lambda-nm", "637",
                   "--out", str(out)) == 0
    doc = read_json(out)
    assert doc["result"]["v_mode_m3"] > 0
    assert doc["result"]["v_mode_normalized"] > 0
    out2 = tmp_path / "ew.json"
    assert run_cli("ensemble-weight", grid, "--threshold", "0.2",
                   "--out", str(out2)) == 0
    doc2 = read_json(out2)
    assert 0.0 < doc2["result"]["weighting_factor"] <= 1.0 / np.sqrt(3.0) + 1e-12
    # --region-nm replaces the default averaging box
    assert run_cli("ensemble-weight", grid, "--threshold", "0.2", "--region-nm",
                   "-200", "200", "-50", "50", "-40", "40", "--out", str(out2)) == 0
    region = ((-200 * 1e-9, 200 * 1e-9), (-50 * 1e-9, 50 * 1e-9), (-40 * 1e-9, 40 * 1e-9))
    factor = coupling.ensemble_weighting_factor(
        coupling.load_field_grid(grid),
        coupling.WeightingConfig(threshold_fraction=0.2, region_m=region))
    doc3 = read_json(out2)
    assert doc3["inputs"]["region_m"] == [list(b) for b in region]
    assert doc3["result"]["weighting_factor"] == factor != doc2["result"]["weighting_factor"]


def test_link_budget_quick_form(tmp_path, capsys):
    out = tmp_path / "lb.json"
    assert run_cli("link-budget", "--db-per-cm", "1.9", "--length-cm", "0",
                   "--out", str(out)) == 0
    assert read_json(out)["result"]["total_efficiency"] == 1.0
    assert "element" in capsys.readouterr().out


def test_link_budget_chain_file(tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([
        {"name": "taper", "efficiency": 0.8},
        {"name": "wg", "loss_db_per_cm": 1.9, "length_cm": 0.35},
        {"name": "edge", "efficiency": 0.197, "efficiency_err": 0.045},
    ]))
    out = tmp_path / "lb.json"
    assert run_cli("link-budget", str(chain), "--measured-total", "0.10",
                   "--quiet", "--out", str(out)) == 0
    doc = read_json(out)
    assert doc["result"]["total_efficiency"] == pytest.approx(0.1352, abs=5e-4)
    assert "residual_db" in doc["result"]


def test_every_subcommand_is_deterministic(fixtures, tmp_path):
    grid = str(fixtures / "field_grid.fgrid")
    detuning_csv = str(fixtures / "tau_detuning.csv")
    decay_csv = str(fixtures / "decay_trace_00.csv")
    spectrum_csv = str(fixtures / "spectrum.csv")
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{"name": "a", "efficiency": 0.5}]))
    invocations = {
        "simulate-decay": ["simulate-decay", "--g0-ghz", "0.57", "--kappa-ghz",
                           "940", "--tau1-ns", "15.9", "--points", "32"],
        "fit-decay": ["fit-decay", decay_csv],
        "fit-detuning": ["fit-detuning", detuning_csv],
        "fit-spectrum": ["fit-spectrum", spectrum_csv],
        "purcell": ["purcell", "--c", "0.14"],
        "g0": ["g0", "--tau1-ns", "16", "--nu-thz", "475",
               "--vmode-normalized", "0.5"],
        "ensemble-weight": ["ensemble-weight", grid, "--threshold", "0.2"],
        "mode-volume": ["mode-volume", grid, "--lambda-nm", "637"],
        "link-budget": ["link-budget", str(chain), "--quiet"],
    }
    for name, argv in invocations.items():
        pair = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}.json"
            assert run_cli(*argv, "--out", str(out)) == 0, name
            pair.append(out.read_bytes())
        assert pair[0] == pair[1], f"{name} output not byte-identical"
    # gen-synthetic with a fixed seed
    dirs = []
    for tag in ("a", "b"):
        d = tmp_path / f"gen-{tag}"
        assert run_cli("gen-synthetic", "--seed", "42", "--what", "tau-detuning",
                       "--out-dir", str(d)) == 0
        dirs.append((d / "tau_detuning.csv").read_bytes()
                    + (d / "index.json").read_bytes())
    assert dirs[0] == dirs[1]


def test_output_into_a_missing_directory_is_a_usage_error(fixtures, tmp_path, capsys):
    # --out (through _emit) and --trace-csv each name the path they could
    # not write, and nothing is left behind
    missing = tmp_path / "missing"
    out = missing / "fit.json"
    assert run_cli("fit-decay", str(fixtures / "decay_trace_04.csv"),
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"usage error: {out}: cannot write: No such file or directory\n")
    trace_csv = missing / "trace.csv"
    assert run_cli("simulate-decay", "--g0-ghz", "0.57", "--kappa-ghz", "940",
                   "--tau1-ns", "15.9", "--points", "32",
                   "--trace-csv", str(trace_csv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage error: {trace_csv}: cannot write: No such file or directory\n"
    # an --out-dir that is a file
    not_dir = tmp_path / "file"
    not_dir.write_text("")
    assert run_cli("gen-synthetic", "--what", "spectrum", "--out-dir", str(not_dir)) == 2
    assert capsys.readouterr().err.startswith(f"usage error: {not_dir}: cannot write: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    # the field grid goes through its own writer; a directory in the way of
    # its file is reported the same way
    blocked = tmp_path / "blocked"
    (blocked / "field_grid.fgrid").mkdir(parents=True)
    assert run_cli("gen-synthetic", "--what", "field-grid", "--out-dir", str(blocked)) == 2
    assert capsys.readouterr().err.startswith(
        f"usage error: {blocked / 'field_grid.fgrid'}: cannot write: ")
    assert sorted(p.name for p in blocked.iterdir()) == ["field_grid.fgrid"]


def test_mode_volume_zero_is_not_a_missing_flag(fixtures, tmp_path, capsys):
    # a 0 is refused like any other index or wavelength that is not > 0,
    # not read as "flag not given"; a bad flag exits 1 before the grid is
    # read, so an absent grid is never opened
    for grid in (str(fixtures / "field_grid.fgrid"), str(tmp_path / "absent.fgrid")):
        for argv, message in (
                (["--lambda-nm", "637", "--n-index", "0"], "--n-index must be finite and > 0, got 0.0"),
                (["--lambda-nm", "637", "--n-index", "nan"], "--n-index must be finite and > 0, got nan"),
                (["--lambda-nm", "0"], "--lambda-nm must be finite and > 0, got 0.0"),
                (["--lambda-nm", "-637"], "--lambda-nm must be finite and > 0, got -637.0")):
            assert run_cli("mode-volume", grid, *argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"error: {message}\n"


@pytest.mark.parametrize("flags, message", [
    (["--threshold", "1.5"], "error: threshold_fraction must lie in [0, 1), got 1.5\n"),
    (["--region-nm", "100", "-100", "-50", "50", "-40", "40"], "error: region_m must be "),
], ids=["threshold", "region"])
def test_ensemble_weight_flags_are_checked_before_the_grid_is_read(
        flags, message, tmp_path, capsys):
    # a bad flag exits 1 before any work: a missing grid is never opened
    assert run_cli("ensemble-weight", str(tmp_path / "absent.fgrid"), *flags) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(message)


def test_mode_volume_n_index_requires_lambda(fixtures, capsys):
    grid = str(fixtures / "field_grid.fgrid")
    assert run_cli("mode-volume", grid, "--n-index", "2.4") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "usage error: --n-index requires --lambda-nm\n"


def test_fit_replay_round_trip(fixtures, tmp_path):
    fit1 = tmp_path / "fit1.json"
    assert run_cli("fit-detuning", str(fixtures / "tau_detuning.csv"),
                   "--out", str(fit1)) == 0
    replay_dir = tmp_path / "replay"
    assert run_cli("gen-synthetic", "--what", "tau-detuning",
                   "--params-json", str(fit1), "--out-dir", str(replay_dir)) == 0
    fit2 = tmp_path / "fit2.json"
    assert run_cli("fit-detuning", str(replay_dir / "tau_detuning.csv"),
                   "--out", str(fit2)) == 0
    p1 = read_json(fit1)["result"]["params"]
    p2 = read_json(fit2)["result"]["params"]
    for key in ("c", "kappa", "tau1"):
        assert p2[key] == pytest.approx(p1[key], rel=1e-9)


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run_cli("no-such-command") == 2
    assert run_cli("fit-detuning", str(tmp_path / "missing.csv")) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("delta_hz,tau_s\n1.0,2.0,3.0,4.0\n")
    assert run_cli("fit-detuning", str(bad)) == 2
    err = capsys.readouterr().err
    assert "usage error" in err
    assert run_cli("purcell") == 2  # neither --c nor lifetimes
    assert run_cli("link-budget") == 2
    # conflicting flags
    for flag in ("--tau-on-ns", "--tau-off-ns"):
        assert run_cli("purcell", "--c", "0.14", flag, "15") == 2
        assert "usage error: give either --c or the pair" in capsys.readouterr().err
    chain = tmp_path / "one.json"
    chain.write_text('[{"name": "a", "efficiency": 0.5}]')
    for flag in ("--db-per-cm", "--length-cm"):
        assert run_cli("link-budget", str(chain), flag, "3") == 2
        assert "usage error: give a chain JSON file or" in capsys.readouterr().err
    assert run_cli("link-budget", "--length-cm", "1") == 2
    assert "usage error: --length-cm requires --db-per-cm" in capsys.readouterr().err
    assert run_cli("purcell", "--tau-off-ns", "15") == 2
    assert "usage error: --tau-off-ns requires --tau-on-ns" in capsys.readouterr().err
    # a byte that is not UTF-8 is reported with the file and its line
    rows = "".join(f"{d}e11,{15e-9 - d * 1e-10!r}\n" for d in range(-3, 4))
    for cmd, name, text in (
            ("fit-detuning", "table.csv", "delta_hz,tau_s\n" + rows),
            ("fit-spectrum", "spectrum.csv", "wavelength_nm,intensity\n" + rows * 3),
            ("link-budget", "chain.json", '[{"name": "a",\n"efficiency": 0.5}]')):
        path = tmp_path / name
        data = text.encode()
        cut = data.index(b"\n") + 1  # the start of line 2
        path.write_bytes(data[:cut] + b"\xff" + data[cut:])
        assert run_cli(cmd, str(path)) == 2
        assert f"{path}: line 2: not UTF-8: byte 0xff" in capsys.readouterr().err


@pytest.mark.parametrize("doc, code, message", [
    ("[1, 2]", 2, "expected a JSON object with a 'params' object"),
    ('{"result": 5}', 2, "expected a JSON object with a 'params' object"),
    ('{"params": [0.14]}', 2, "expected a JSON object with a 'params' object"),
    ('{"params": {"c": "abc"}}', 2, "params['c'] must be a finite number, got 'abc'"),
    ('{"result": {"params": {"kappa": NaN}}}', 2, "params['kappa'] must be a finite number"),
    ('{"params": {"tau1": null}}', 2, "params['tau1'] must be a finite number"),
    # out of the generator's range
    ('{"params": {"c": -1}}', 2, "C must be finite and >= 0, got -1.0"),
    ('{"result": {"params": {"kappa": 0}}}', 2, "kappa must be finite and > 0, got 0.0"),
])
def test_params_json_must_hold_finite_params(doc, code, message, tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(doc)
    assert run_cli("gen-synthetic", "--params-json", str(params),
                   "--out-dir", str(tmp_path / "out")) == code
    assert f"usage error: {params}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_link_budget_non_finite_values(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    for entry in ('{"name": "a", "loss_db": NaN}', '{"name": "a", "efficiency": "x"}',
                  '{"name": "a", "loss_db_per_cm": 1.0, "length_cm": NaN}',
                  '{"name": "a", "loss_db": 1.0, "loss_db_err": NaN}'):
        chain.write_text(f"[{entry}]")
        assert run_cli("link-budget", str(chain), "--quiet") == 2
        assert "usage error" in capsys.readouterr().err
    assert run_cli("link-budget", "--db-per-cm", "nan", "--length-cm", "1") == 1
    assert "loss_db_per_cm must be a finite number" in capsys.readouterr().err


def test_deep_nesting_is_a_usage_error(fixtures, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    assert run_cli("link-budget", str(deep)) == 2
    assert run_cli("gen-synthetic", "--params-json", str(deep),
                   "--out-dir", str(tmp_path / "out")) == 2
    assert run_cli("mode-volume", str(deep)) == 2
    assert capsys.readouterr().err.count("usage error") == 3
    # a trace comment that is not a Python literal is kept as text
    trace = tmp_path / "trace.csv"
    for note in ("-" * 5000 + "1", "{[1]: 2}"):
        trace.write_text(f"# note={note}\n"
                         + (fixtures / "decay_trace_04.csv").read_text())
        assert run_cli("fit-decay", str(trace), "--out", str(tmp_path / "f.json")) == 0


def test_table_header_must_name_the_columns(tmp_path, capsys):
    rows = "".join(f"{d}e11,{15e-9 - d * 1e-10!r},1e-10\n" for d in range(-3, 4))
    bad_first_row = tmp_path / "bad_first_row.csv"
    bad_first_row.write_text("1.0,abc,0.1\n" + rows)
    assert run_cli("fit-detuning", str(bad_first_row)) == 2
    hint = " (a header line reads delta_hz,tau_s,sigma_s)\n"
    assert capsys.readouterr().err.endswith("line 1, column 2: not a number: 'abc'" + hint)
    wrong_names = tmp_path / "wrong_names.csv"
    wrong_names.write_text("# comment\ndelta,tau,sigma\n" + rows)
    assert run_cli("fit-detuning", str(wrong_names)) == 2
    assert capsys.readouterr().err.endswith("line 2, column 1: not a number: 'delta'" + hint)
    case_and_mark = tmp_path / "case_and_mark.csv"
    case_and_mark.write_text("Delta_Hz,TAU_S,sigma_s?\n" + rows)
    assert run_cli("fit-detuning", str(case_and_mark), "--out",
                   str(tmp_path / "fit.json")) == 0


def _with_cell(path, lineno, col, cell):
    """Copy of a CSV file with the cell at (lineno, col), 1-based, replaced."""
    lines = Path(path).read_text().splitlines()
    parts = lines[lineno - 1].split(",")
    parts[col - 1] = cell
    lines[lineno - 1] = ",".join(parts)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["table", "trace", "fgrid"])
def test_non_finite_cells_are_usage_errors(fmt, fixtures, tmp_path, capsys):
    # each reader parses nan and inf like any float, then rejects them in
    # one finiteness check that names the cell
    if fmt == "table":
        cmd, src, at, cell = "fit-detuning", fixtures / "tau_detuning.csv", (3, 2), "nan"
    elif fmt == "trace":
        cmd, src, at, cell = "fit-decay", fixtures / "decay_trace_04.csv", (30, 2), "inf"
    else:
        cmd, src, at, cell = "mode-volume", tmp_path / "grid.fgrid", (4, 3), "-inf"
        save_field_grid(synthetic_field_grid(dims=(3, 2, 2)), src, encoding="csv")
    bad = tmp_path / f"bad_{src.name}"
    bad.write_text(_with_cell(src, *at, cell))
    assert run_cli(cmd, str(bad)) == 2
    err = capsys.readouterr().err
    assert "usage error" in err
    assert f"line {at[0]}, column {at[1]}: not a finite number: {float(cell)!r}" in err


def _csv_source(fmt, fixtures, tmp_path):
    """(subcommand, a valid file of that CSV format, a later data line in it)."""
    if fmt == "table":
        return "fit-detuning", fixtures / "tau_detuning.csv", 5
    if fmt == "trace":
        return "fit-decay", fixtures / "decay_trace_04.csv", 30
    src = tmp_path / "grid.fgrid"
    save_field_grid(synthetic_field_grid(dims=(3, 2, 2)), src, encoding="csv")
    return "mode-volume", src, 4


@pytest.mark.parametrize("fault", ["count", "number", "nan"])
@pytest.mark.parametrize("fmt", ["table", "trace", "fgrid"])
def test_csv_readers_reject_a_bad_row_alike(fmt, fault, fixtures, tmp_path, capsys):
    # one row codec: the same fault in a later row of any of the three
    # formats is a usage error worded the same way
    cmd, src, lineno = _csv_source(fmt, fixtures, tmp_path)
    lines = src.read_text().splitlines()
    width = len(lines[lineno - 1].split(","))
    if fault == "count":
        text = "\n".join(lines[:lineno - 1] + [lines[lineno - 1] + ",1.0"]
                         + lines[lineno:]) + "\n"
        message = f"line {lineno}: expected {width} comma-separated values, got {width + 1}"
    elif fault == "number":
        text = _with_cell(src, lineno, 2, "abc")
        message = f"line {lineno}, column 2: not a number: 'abc'"
    else:
        text = _with_cell(src, lineno, 2, "nan")
        message = f"line {lineno}, column 2: not a finite number: nan"
    bad = tmp_path / f"bad_{src.name}"
    bad.write_text(text)
    assert run_cli(cmd, str(bad)) == 2
    assert capsys.readouterr().err == f"usage error: {bad}: {message}\n"


def test_a_leading_byte_order_mark_is_dropped(fixtures, tmp_path, capsys):
    # spreadsheet "CSV UTF-8" exports start their files with one
    bom = b"\xef\xbb\xbf"
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{"name": "taper", "efficiency": 0.85},
                                 {"name": "wg", "loss_db_per_cm": 1.9, "length_cm": 0.35}]))
    for command, plain, *flags in (
            ("fit-detuning", fixtures / "tau_detuning.csv"),
            ("fit-spectrum", fixtures / "spectrum.csv"),
            ("fit-decay", fixtures / "decay_trace_04.csv", "--background"),
            ("link-budget", chain, "--quiet")):
        marked = tmp_path / f"bom_{plain.name}"
        marked.write_bytes(bom + plain.read_bytes())
        results = []
        for path in (plain, marked):
            out = tmp_path / "out.json"
            assert run_cli(command, str(path), *flags, "--out", str(out)) == 0, command
            results.append(read_json(out)["result"])
        assert results[0] == results[1], command
    # a fit result replayed through --params-json
    fit = tmp_path / "fit.json"
    assert run_cli("fit-detuning", str(fixtures / "tau_detuning.csv"), "--out", str(fit)) == 0
    marked = tmp_path / "bom_fit.json"
    marked.write_bytes(bom + fit.read_bytes())
    for path, out_dir in ((fit, "plain"), (marked, "marked")):
        assert run_cli("gen-synthetic", "--what", "tau-detuning", "--params-json",
                       str(path), "--out-dir", str(tmp_path / out_dir)) == 0
    for name in ("index.json", "tau_detuning.csv"):
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "marked" / name).read_bytes()), name
    # a .fgrid file is read as it stands
    grid = tmp_path / "bom.fgrid"
    grid.write_bytes(bom + (fixtures / "field_grid.fgrid").read_bytes())
    capsys.readouterr()
    assert run_cli("mode-volume", str(grid)) == 2
    assert "Unexpected UTF-8 BOM" in capsys.readouterr().err


def test_csv_writers_keep_their_bytes(tmp_path):
    rows = np.array([[-2.5e11, 1.59e-08, 1.0 / 3.0], [0.0, -0.0, 5e-324]])
    assert cli._table_text(("delta_hz", "tau_s", "sigma_s"), rows) == (
        "delta_hz,tau_s,sigma_s\n-250000000000.0,1.59e-08,0.3333333333333333\n"
        "0.0,-0.0,5e-324\n")
    assert cli._table_text(("wavelength_nm", "intensity"), [[637, 0.1], [638.5, 1e300]]) == (
        "wavelength_nm,intensity\n637.0,0.1\n638.5,1e+300\n")
    trace = DecayTrace(times=np.array([0.0, 1.28e-09, 2.56e-09]),
                       values=np.array([1.0, 0.7, 1e-17]), kind="measured",
                       bin_width_s=1.28e-09, meta={"seed": 7, "note": "x", "g": np.float64(0.1)})
    assert decay_trace_to_csv(trace) == (
        "# decay-trace schema_version=1\n# kind=measured\n# bin_width_s=1.28e-09\n"
        "# g=0.1\n# note='x'\n# seed=7\ntime_s,value\n"
        "0.0,1.0\n1.28e-09,0.7\n2.56e-09,1e-17\n")
    grid = FieldGrid(e_field=np.arange(24.0).reshape(2, 2, 2, 3) / 7.0,
                     eps_rel=np.full((2, 2, 2), 5.7), spacing_m=(1e-9, 2e-9, 3e-9),
                     origin_m=(-1e-9, 0.0, 0.5e-9))
    path = tmp_path / "grid.fgrid"
    save_field_grid(grid, path, encoding="csv")
    assert path.read_bytes() == (
        b'{"columns": ["ex", "ey", "ez", "eps_rel"], "dims": [2, 2, 2], "encoding": "csv", '
        b'"origin_m": [-1e-09, 0.0, 5e-10], "schema_version": 1, "spacing_m": [1e-09, 2e-09, '
        b'3e-09], "units": {"e": "arbitrary", "eps_rel": "dimensionless", "length": "m"}}\n'
        b"0.0,0.14285714285714285,0.2857142857142857,5.7\n"
        b"0.42857142857142855,0.5714285714285714,0.7142857142857143,5.7\n"
        b"0.8571428571428571,1.0,1.1428571428571428,5.7\n"
        b"1.2857142857142858,1.4285714285714286,1.5714285714285714,5.7\n"
        b"1.7142857142857142,1.8571428571428572,2.0,5.7\n"
        b"2.142857142857143,2.2857142857142856,2.4285714285714284,5.7\n"
        b"2.5714285714285716,2.7142857142857144,2.857142857142857,5.7\n"
        b"3.0,3.142857142857143,3.2857142857142856,5.7\n")


def test_skip_bins_drops_exactly_the_leading_bins(fixtures, tmp_path, capsys):
    path = fixtures / "decay_trace_04.csv"
    trace = load_decay_trace(path)
    for k in (0, 7):
        assert fit_decay_trace(trace, skip_bins=k).n_points == len(trace) - k
    out = tmp_path / "fit.json"
    assert run_cli("fit-decay", str(path), "--skip-bins", "7", "--out", str(out)) == 0
    doc = read_json(out)
    assert doc["inputs"]["skip_bins"] == 7
    assert doc["result"]["n_points"] == len(trace) - 7
    # a negative count is an error, not a tail slice
    assert run_cli("fit-decay", str(path), "--skip-bins", "-150") == 1
    assert "skip_bins must be >= 0, got -150" in capsys.readouterr().err


def test_decay_trace_content_errors_name_their_line(fixtures, tmp_path, capsys):
    text = (fixtures / "decay_trace_04.csv").read_text()
    lines = text.splitlines(keepends=True)
    h = lines.index("time_s,value\n") + 1  # the header's line number
    swapped = lines[:h + 2] + [lines[h + 3], lines[h + 2]] + lines[h + 4:]
    negative = lines[:h + 4] + [lines[h + 4].split(",")[0] + ",-3\n"] + lines[h + 5:]
    for body, message in (
            ("".join(swapped), f"line {h + 4}: times must be strictly increasing"),
            ("".join(negative), f"line {h + 5}: values must be >= 0"),
            # a header after the first data row is a data row
            (text + text, f"line {len(lines) + h}, column 1: not a number: 'time_s'")):
        path = tmp_path / "trace.csv"
        path.write_text(body)
        assert run_cli("fit-decay", str(path)) == 2
        assert capsys.readouterr().err == f"usage error: {path}: {message}\n"


GOOD_FGRID_HEADER = {"dims": [2, 2, 2], "spacing_m": [1e-9, 1e-9, 1e-9],
                     "origin_m": [0.0, 0.0, 0.0], "encoding": "f64"}


@pytest.mark.parametrize("key, value, message", [
    pytest.param("dims", [2, 2], "dims must be three integers >= 2", id="dims-two"),
    pytest.param("dims", [2, 2, -2], "dims must be three integers >= 2", id="dims-negative"),
    pytest.param("dims", [2, 2, 1], "dims must be three integers >= 2", id="dims-one"),
    pytest.param("dims", "abc", "dims must be three integers >= 2", id="dims-string"),
    pytest.param("dims", [2, 2, 2.0], "dims must be three integers >= 2", id="dims-float"),
    pytest.param("spacing_m", [1e-9, 1e-9], "spacing_m must be three finite positive numbers",
                 id="spacing-two"),
    pytest.param("spacing_m", [1e-9, 0.0, 1e-9],
                 "spacing_m must be three finite positive numbers", id="spacing-zero"),
    pytest.param("spacing_m", [1e-9, float("inf"), 1e-9],
                 "spacing_m must be three finite positive numbers", id="spacing-inf"),
    pytest.param("origin_m", [0.0, float("nan"), 0.0], "origin_m must be three finite numbers",
                 id="origin-nan"),
    pytest.param("origin_m", ["0", 0.0, 0.0], "origin_m must be three finite numbers",
                 id="origin-string"),
    pytest.param(None, [GOOD_FGRID_HEADER], "header must be a JSON object", id="not-an-object"),
])
def test_bad_fgrid_header_is_a_line_1_usage_error(key, value, message, tmp_path, capsys):
    header = value if key is None else dict(GOOD_FGRID_HEADER, **{key: value})
    path = tmp_path / "grid.fgrid"
    # a body that would suit a valid 2x2x2 header
    path.write_bytes(json.dumps(header).encode() + b"\n" + np.ones(32).tobytes())
    assert run_cli("mode-volume", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:")
    assert f"line 1: {message}" in err


def test_overflowing_field_map_is_a_usage_error(tmp_path, capsys):
    # a CSV field map of 1e160 everywhere: |E|^2 overflows float64, a
    # usage error naming the file, with no numpy warning
    path = tmp_path / "huge.fgrid"
    header = dict(GOOD_FGRID_HEADER, encoding="csv")
    path.write_text(json.dumps(header) + "\n" + "1e160,1e160,1e160,1.0\n" * 8)
    assert run_cli("mode-volume", str(path)) == 2
    assert capsys.readouterr().err.startswith(
        f"usage error: {path}: |E|^2 overflows float64 at grid index (0, 0, 0)")


@pytest.mark.parametrize("spacing, v", [(1e-120, "0.0"), (1e120, "inf")],
                         ids=["underflow", "overflow"])
def test_mode_volume_outside_float64_range_is_a_domain_error(spacing, v, tmp_path, capsys):
    path = tmp_path / "grid.fgrid"
    save_field_grid(FieldGrid(e_field=np.ones((3, 3, 3, 3)), eps_rel=np.ones((3, 3, 3)),
                              spacing_m=(spacing,) * 3), path)
    assert run_cli("mode-volume", str(path)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: the mode volume {v} m^3 is out of float64 range; rescale the spacing\n"


def test_grid_warning_is_one_line_naming_the_file(tmp_path, capsys):
    # |E| peaks at a vacuum point, eps*|E|^2 at the eps = 2 point beside it
    e = np.zeros((2, 2, 2, 3))
    e[0, 0, 0, 1], e[1, 0, 0, 1] = 1.0, 0.8
    eps = np.ones((2, 2, 2))
    eps[1, 0, 0] = 2.0
    path = tmp_path / "grid.fgrid"
    with pytest.warns(UserWarning):
        save_field_grid(FieldGrid(e_field=e, eps_rel=eps, spacing_m=(1e-9,) * 3), path)
    for argv in (["mode-volume", str(path)], ["ensemble-weight", str(path)]):
        assert run_cli(*argv) == 0
        err = capsys.readouterr().err
        assert err == (f"warning: {path}: maximum of eps*|E|^2 and maximum of |E| sit at "
                       "different grid points; the zero-point normalization assumes "
                       "they coincide\n")
        assert "<string>" not in err


@pytest.mark.parametrize("value", ["abc", "0", "inf"])
def test_bad_bin_width_names_its_line(value, fixtures, tmp_path, capsys):
    lines = (fixtures / "decay_trace_04.csv").read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1)
                  if line.startswith("# bin_width_s="))
    lines[lineno - 1] = f"# bin_width_s={value}"
    bad = tmp_path / "bad_bin_width.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert run_cli("fit-decay", str(bad)) == 2
    err = capsys.readouterr().err
    assert (f"line {lineno}: bin_width_s must be a positive finite number, "
            f"got {value!r}") in err


def test_bad_kind_names_its_line(fixtures, tmp_path, capsys):
    lines = (fixtures / "decay_trace_04.csv").read_text().splitlines()
    lineno = lines.index("# kind=measured") + 1
    lines[lineno - 1] = "# kind=counts"
    bad = tmp_path / "kind.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert run_cli("fit-decay", str(bad)) == 2
    assert capsys.readouterr().err == (f"usage error: {bad}: line {lineno}: kind must be "
                                       "'simulated' or 'measured', got 'counts'\n")


def test_write_atomic_failure_leaves_target_and_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    target.write_text("old\n")
    grid_path = tmp_path / "grid.fgrid"
    grid_path.write_bytes(b"old grid\n")
    grid = synthetic_field_grid(dims=(3, 2, 2))

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(_cells.os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        _cells.write_atomic(str(target), "new\n")
    for encoding in ("f64", "csv"):
        with pytest.raises(OSError, match="replace failed"):
            save_field_grid(grid, grid_path, encoding=encoding)
    assert target.read_text() == "old\n"
    assert grid_path.read_bytes() == b"old grid\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.fgrid", "out.json"]
    monkeypatch.undo()
    # the mode open() would give under the umask at write time
    umask = os.umask(0o077)
    try:
        _cells.write_atomic(str(target), "new\n")
        save_field_grid(grid, grid_path)
    finally:
        os.umask(umask)
    assert target.read_text() == "new\n"
    assert os.stat(target).st_mode & 0o777 == 0o600
    assert os.stat(grid_path).st_mode & 0o777 == 0o600


def test_cold_start_does_not_import_scipy(tmp_path):
    # a default run of these subcommands imports no scipy; and with scipy
    # blocked, the exceptional point (g = |kappa - gamma1|/4, angular),
    # where the numpy expm fallback runs, still works
    trace = tmp_path / "ep.csv"
    script = (
        "import sys, cavitykit\n"
        "print('scipy' in sys.modules)\n"
        "from cavitykit.cli import main\n"
        "main(['purcell', '--c', '0.14', '--out', sys.argv[1]])\n"
        "print('scipy' in sys.modules)\n"
        "main(['simulate-decay', '--g0-ghz', '0.57', '--kappa-ghz', '940',\n"
        "      '--tau1-ns', '15.9', '--out', sys.argv[1]])\n"
        "print('scipy' in sys.modules)\n"
        "sys.modules['scipy'] = None\n"
        "print(main(['simulate-decay', '--g0-ghz', '0.24960211264227028',\n"
        "            '--kappa-ghz', '1', '--tau1-ns', '100', '--t-max-ns', '10',\n"
        "            '--out', sys.argv[1], '--trace-csv', sys.argv[2]]))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script, os.devnull, str(trace)],
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    assert out.stdout.split() == ["False"] * 3 + ["0"]
    assert "# method='expm'\n" in trace.read_text()


def test_scalar_commands_and_rejected_inputs_do_not_import_numpy(tmp_path, capsys):
    # purcell, g0 and link-budget are pure math, and a missing file or a
    # table with a wrong cell count or a non-number cell is rejected before
    # any numeric module loads; each gives the stdout, stderr and exit code
    # it gives with numpy loaded
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([
        {"name": "taper", "efficiency": 0.85, "efficiency_err": 0.02},
        {"name": "wg", "loss_db_per_cm": 1.9, "length_cm": 0.35},
        {"name": "edge", "loss_db": 7.06, "loss_db_err": 0.3}]))
    bad_cols = tmp_path / "bad_cols.csv"
    bad_cols.write_text("delta_hz,tau_s,sigma_s\n0,1e-8,1e-10\n1e11,1.2e-8,1e-10,1.0\n")
    bad_num = tmp_path / "bad_num.csv"
    bad_num.write_text("wavelength_nm,intensity\n630,1.0\n631,abc\n")
    invocations = [
        (["purcell", "--c", "0.14"], 0),
        (["purcell", "--tau-on-ns", "13.2", "--tau-off-ns", "15.9"], 0),
        (["g0", "--tau1-ns", "15.9", "--nu-thz", "470.6",
          "--vmode-normalized", "0.9", "--weighting", "0.35"], 0),
        (["link-budget", str(chain), "--measured-total", "0.05"], 0),
        (["link-budget", "--db-per-cm", "1.9", "--length-cm", "0.35"], 0),
        (["fit-detuning", str(bad_cols)], 2),
        (["fit-spectrum", str(bad_num)], 2),
        (["fit-decay", str(tmp_path / "absent.csv")], 2),
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from cavitykit.cli import main\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        rc = main(argv)\n"
        "    runs.append([rc, out.getvalue(), err.getvalue(), 'numpy' in sys.modules])\n"
        "print(json.dumps(runs))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps([argv for argv, _ in invocations])],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    runs = json.loads(proc.stdout)
    assert len(runs) == len(invocations)
    for (argv, code), (rc, out, err, numpy_loaded) in zip(invocations, runs):
        assert not numpy_loaded, argv
        assert rc == code, (argv, err)
        run_cli(*argv)  # in this process, where numpy is loaded
        assert (out, err) == capsys.readouterr(), argv
    assert runs[5][2].startswith(f"usage error: {bad_cols}: line 3: expected 3")
    assert runs[6][2].startswith(f"usage error: {bad_num}: line 3, column 2: not a number")
    assert "No such file or directory" in runs[7][2]


BASE_MODULES = ["cavitykit", "cavitykit._cells", "cavitykit.cli"]


@pytest.mark.parametrize("argv, code, modules", [
    (["fit-detuning", "{fx}/tau_detuning.csv"], 0, ["fitting"]),
    (["ensemble-weight", "{fx}/field_grid.fgrid", "--threshold", "0.3"], 0, ["coupling"]),
    (["mode-volume", "{fx}/field_grid.fgrid"], 0, ["coupling"]),
    (["mode-volume", "{fx}/field_grid.fgrid", "--lambda-nm", "637"], 0,
     ["coupling", "purcell", "units"]),
    (["gen-synthetic", "--what", "field-grid", "--out-dir", "{tmp}/gen"], 0,
     ["coupling", "dynamics", "synthetic", "units"]),
    (["purcell", "--c", "0.14"], 0, ["purcell", "units"]),
    (["link-budget", "--db-per-cm", "1.9", "--length-cm", "0.35"], 0,
     ["linkbudget", "units"]),
    (["fit-detuning", "{tmp}/bad_cols.csv"], 2, []),
])
def test_each_subcommand_loads_only_the_modules_it_runs(argv, code, modules,
                                                        fixtures, tmp_path):
    # one fresh interpreter per invocation, as a console-script run has
    (tmp_path / "bad_cols.csv").write_text("delta_hz,tau_s\n0,1e-8\n1e11,1.2e-8,1.0\n")
    argv = [a.format(fx=fixtures, tmp=tmp_path) for a in argv]
    script = (
        "import contextlib, io, sys\n"
        "from cavitykit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(sys.argv[1:])\n"
        "print(rc, *sorted(m for m in sys.modules if m.startswith('cavitykit')))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.split() == [str(code)] + sorted(
        BASE_MODULES + [f"cavitykit.{m}" for m in modules])


def _cli_process(argv, stdout=subprocess.PIPE, unbuffered=False):
    """``python -m cavitykit.cli argv``, which ends through cli.run(); its
    stdout is block-buffered, as a console script's is, unless unbuffered."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(src), COLUMNS="80")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "cavitykit.cli", *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120)


@pytest.mark.parametrize("argv, code", [
    (["purcell", "--c", "0.14"], 0),
    (["fit-decay", "{fx}/decay_trace_04.csv", "--background", "--out", "{tmp}/{side}.json"], 0),
    (["purcell", "--c", "inf"], 1),
    (["fit-decay", "{tmp}/absent.csv"], 2),
    (["bogus"], 2),
    (["--help"], 0),
], ids=["purcell", "fit-decay-out", "domain-error", "missing-file", "bad-subcommand", "help"])
def test_a_process_gives_what_main_gives_in_process(argv, code, fixtures, tmp_path,
                                                    capsys, monkeypatch):
    # run() skips the interpreter's teardown, and loses no byte of stdout,
    # stderr or an --out file, nor the exit code, on the way out
    monkeypatch.setenv("COLUMNS", "80")  # argparse's help width, as in the process
    proc = _cli_process([a.format(fx=fixtures, tmp=tmp_path, side="process") for a in argv])
    rc = run_cli(*[a.format(fx=fixtures, tmp=tmp_path, side="in_process") for a in argv])
    out, err = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out.encode(), err.encode())
    assert rc == code
    if "--out" in argv:
        written = (tmp_path / "process.json").read_bytes()
        assert written == (tmp_path / "in_process.json").read_bytes()
        assert json.loads(written)["command"] == "fit-decay"


def test_run_ends_the_process_before_atexit_callbacks(capsys, tmp_path):
    # the control: the same callback fires when main() returns normally
    script = ("import atexit, os, sys\n"
              "atexit.register(os.mkdir, sys.argv.pop(1))\n"
              "from cavitykit import cli\n"
              "entry = getattr(cli, sys.argv.pop(1))\n"
              "sys.exit(entry())  # each reads sys.argv[1:]\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["purcell", "--c", "0.14"]
    assert run_cli(*argv) == 0
    expected = capsys.readouterr().out
    for entry, fired in (("run", False), ("main", True)):
        marker = tmp_path / entry
        proc = subprocess.run([sys.executable, "-c", script, str(marker), entry, *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, ""), entry
        assert marker.exists() == fired, entry


def test_run_with_stdout_and_stderr_closed(tmp_path):
    # started with fds 1 and 2 closed, Python has no sys.stdout or sys.stderr
    # to flush; an --out run still succeeds
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "p.json"
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m cavitykit.cli purcell --c 0.14 --out "$1" >&- 2>&-',
         sys.executable, str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["command"] == "purcell"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["write-fails", "flush-fails"])
@pytest.mark.parametrize("argv", [
    ["purcell", "--c", "0.14"],
    ["link-budget", "--db-per-cm", "1.9", "--length-cm", "0.35"],
    ["gen-synthetic", "--what", "spectrum", "--out-dir", "{tmp}"],
    ["--help"],
    ["fit-decay", "-h"],
], ids=["purcell", "link-budget", "gen-synthetic", "help", "subcommand-help"])
def test_stdout_that_cannot_be_written_is_a_usage_error(argv, unbuffered, tmp_path):
    # unbuffered, the write inside main fails; buffered, run()'s last flush
    # does; each is reported once, as an unwritable --out is
    with open("/dev/full", "w") as full:
        proc = _cli_process([a.format(tmp=tmp_path) for a in argv], stdout=full,
                            unbuffered=unbuffered)
    assert proc.returncode == 2
    assert proc.stderr == b"usage error: <stdout>: cannot write: No space left on device\n"


@pytest.mark.parametrize("argv, message", [
    (["purcell", "--c", "inf"], "C must be finite and >= 0, got inf"),
    (["purcell", "--tau-on-ns", "13", "--tau-off-ns", "inf"],
     "tau_off_s must be finite and > 0, got inf"),
    (["purcell", "--c", "1e308", "--eta-dw", "0.03"],
     "C_ZPL = C / (eta_QE * eta_DW) is out of float64 range"),
])
def test_purcell_rejects_non_finite_figures(argv, message, capsys):
    assert run_cli(*argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err


G0_ARGS = ["g0", "--tau1-ns", "15.9", "--nu-thz", "470.6"]


@pytest.mark.parametrize("flag, message", [
    ("--tau1-ns", "tau1_s must be finite and > 0, got inf"),
    ("--nu-thz", "nu_hz must be finite and > 0, got inf"),
])
def test_g0_rejects_an_infinite_lifetime_or_frequency(flag, message, capsys):
    argv = G0_ARGS + ["--vmode-normalized", "0.9"]
    argv[argv.index(flag) + 1] = "inf"
    assert run_cli(*argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_g0_rejects_an_infinite_mode_volume(capsys):
    assert run_cli(*G0_ARGS, "--vmode-m3", "inf") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: v_mode_m3 must be finite and > 0, got inf\n"


def test_json_text_of_numpy_values_is_pinned():
    # numpy arrays and scalars are told apart by their tolist() without
    # importing numpy; the text is the one isinstance checks on numpy types gave
    doc = {"f": np.float64(0.1), "i": np.int64(-3), "n": float("nan"),
           "a": np.array([[1.5, np.nan], [np.inf, -np.inf]]),
           "p": float("inf"), "t": (np.float32(0.25), 2)}
    assert cli._json_text(doc) == (
        '{\n  "a": [\n    [\n      1.5,\n      "nan"\n    ],\n    [\n      "inf",\n'
        '      "-inf"\n    ]\n  ],\n  "f": 0.1,\n  "i": -3,\n  "n": "nan",\n'
        '  "p": "inf",\n  "t": [\n    0.25,\n    2\n  ]\n}\n')


def test_a_spectrum_with_one_wavelength_exits_1_without_a_warning(tmp_path, capsys):
    table = tmp_path / "one.csv"
    table.write_text("wavelength_nm,intensity\n" + "".join(
        f"637.0,{10.0 + (i % 7) * 0.3!r}\n" for i in range(30)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("fit-spectrum", str(table)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: every sample has the wavelength 637.0; a spectrum "
                   "with no span cannot be fit\n")


def test_domain_errors_exit_1(tmp_path, capsys):
    same = tmp_path / "same.csv"
    same.write_text("delta_hz,tau_s\n" + "".join(
        f"1e11,{15e-9 + i * 1e-10!r}\n" for i in range(6)))
    assert run_cli("fit-detuning", str(same)) == 1
    assert "error" in capsys.readouterr().err
    assert run_cli("purcell", "--c", "-1.0") == 1
    # simulate-decay: a time span or a tolerance that is not a finite
    # number > 0 (a zero span is not taken as "use the default") is named by
    # its flag before anything runs, so numpy warns about nothing
    sim = ["simulate-decay", "--g0-ghz", "0.57", "--kappa-ghz", "940", "--tau1-ns", "15.9"]
    for flag, values, message in (
            ("--t-max-ns", ("0", "-3", "nan", "inf", "-inf"),
             "--t-max-ns must be finite and > 0"),
            ("--tol", ("0", "-1", "nan", "inf"), "--tol must be finite and > 0"),
            ("--kappa-ghz", ("0", "-1", "nan", "inf"),
             "--kappa-ghz must be finite and > 0")):
        for value in values:
            assert run_cli(*sim, f"{flag}={value}") == 1
            out, err = capsys.readouterr()
            assert out == "" and message in err and "Warning" not in err
    # a tolerance below what double precision can hold fails the state
    # check during the propagation
    assert run_cli(*sim, "--tol", "1e-300") == 1
    assert "error: rho not Hermitian: deviation " in capsys.readouterr().err
    # a lifetime that is not a positive finite number, and fewer than two
    # output times, are named by their flags
    for tau1 in ("0", "-1", "nan", "inf"):
        assert run_cli(*sim[:-2], "--tau1-ns", tau1) == 1
        assert "--tau1-ns must be finite and > 0" in capsys.readouterr().err
    for points in ("1", "0", "-1"):
        assert run_cli(*sim, "--points", points) == 1
        assert f"--points must be >= 2, got {points}" in capsys.readouterr().err
    # a negative seed is named by its flag, before the output directory is made
    out_dir = tmp_path / "neg-seed"
    assert run_cli("gen-synthetic", "--seed", "-1", "--out-dir", str(out_dir)) == 1
    assert "error: --seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out_dir.exists()
