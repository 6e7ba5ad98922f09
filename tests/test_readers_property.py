"""Property tests for the input readers, driven through ``cli.main``.

Each case starts from a valid input file and mutates it: cells replaced by
awkward tokens, lines dropped, repeated or inserted, stray bytes added; a
binary ``.fgrid`` body is truncated, extended or has float64 words
overwritten.  It then runs the subcommand that reads the file.  Whatever
the input, the command exits 0, 1 or 2 and no exception escapes, and every
file that the reader itself rejects exits 2.  The trace and ``.fgrid``
writers round-trip bit for bit.  tau(Delta), which the detuning fits model,
is even, non-decreasing in |Delta| and bounded by tau1.
"""

import contextlib
import io
import json
import math
import string
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitykit import cli, dynamics, linkbudget
from cavitykit._cells import read_text
from cavitykit.coupling import FieldGrid, load_field_grid, save_field_grid
from cavitykit.dynamics import (
    DecayTrace, decay_trace_from_csv, decay_trace_to_csv, tau_of_detuning,
)
from cavitykit.synthetic import (
    synthetic_decay_trace, synthetic_field_grid, synthetic_spectrum,
    synthetic_tau_detuning,
)

#: a fixed alphabet keeps hypothesis from building its Unicode tables (~3 s);
#: it holds a non-ASCII digit, line separators and a NUL
TEXT = st.text(alphabet=string.printable + "\x00\x85\u2028\u0663é", max_size=12)
FEW = settings(derandomize=True, database=None, max_examples=25, deadline=None)

TOKENS = ["nan", "inf", "-inf", "", " ", "abc", "1e999", "1e-400", "-1", "0",
          "-0", "1_0", "٣", "0x10", "+", "NaN", "Infinity", "1;2", "#"]
#: lines that a reader gives a meaning to, per file kind
TABLE_LINES = ["delta_hz,tau_s,sigma_s", "wavelength_nm,intensity", "# comment",
               "1,2,3,4"]
TRACE_LINES = [
    "# kind=measured", "# kind=other", "# bin_width_s=-1", "# bin_width_s=nan",
    "# bin_width_s=1e-9", "# note={[1]: 2}", "# deep=" + "-" * 3000 + "1",
    "time_s,value"]
FGRID_LINES = [
    '{"dims": [3, 2, 2], "spacing_m": [1e-9, 1e-9, 1e-9], "encoding": "csv"}',
    '{"dims": [3, 2, 2], "spacing_m": [1e-9, 1e-9, 1e-9], "encoding": "f64"}',
    '{"dims": [3, 2, 2], "spacing_m": [0, 1, 1], "encoding": "csv"}',
    '{"dims": [3, 2, 2], "spacing_m": [1, 1, 1], "origin_m": [1e999, 0, 0], '
    '"encoding": "csv"}',
    "[" * 5000]
CHAIN_LINES = ['{"name": 5, "efficiency": 0.5},', '{"name": "x", "loss_db": NaN},',
               "[" * 5000]


def _table(header, rows):
    return header + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def _fgrid_bytes(encoding):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.fgrid"
        save_field_grid(synthetic_field_grid(dims=(3, 2, 2)), path, encoding=encoding)
        return path.read_bytes()


DETUNING = _table("delta_hz,tau_s,sigma_s", synthetic_tau_detuning())
SPECTRUM = _table("wavelength_nm,intensity", synthetic_spectrum(n=24))
TRACE = decay_trace_to_csv(synthetic_decay_trace(n_bins=40))
FGRID = _fgrid_bytes("csv").decode()
FGRID_F64 = _fgrid_bytes("f64")
CHAIN = json.dumps([{"name": "taper", "efficiency": 0.8},
                    {"name": "wg", "loss_db_per_cm": 1.9, "length_cm": 0.35},
                    {"name": "edge", "efficiency": 0.197, "efficiency_err": 0.045}],
                   indent=1)


@st.composite
def mutated(draw, text, extra_lines):
    """text with one to three line edits, then maybe a few stray bytes."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["cell", "cell", "drop", "repeat", "extra", "text"]))
        if op == "cell":
            cells = lines[i].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = ",".join(cells)
        elif op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        else:
            lines.insert(i, draw(st.sampled_from(extra_lines) if op == "extra" else TEXT))
    data = ("\n".join(lines) + "\n").encode()
    if draw(st.booleans()):
        pos = draw(st.integers(0, len(data)))
        data = data[:pos] + draw(st.binary(min_size=1, max_size=3)) + data[pos:]
    return data


#: float64 words written over an f64 body: non-finite, huge enough to
#: overflow |E|^2 or eps*|E|^2, zero (a permittivity below 1), subnormal
WORDS = [struct.pack("<d", v) for v in (0.0, -0.0, 5e-324, 1e154, 1e160, 1e300,
                                        -1e300, math.nan, math.inf, -math.inf)]


@st.composite
def mutated_f64(draw):
    """A valid f64 .fgrid with one to three edits to its binary body."""
    head, _, body = FGRID_F64.partition(b"\n")
    body = bytearray(body)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["word", "word", "truncate", "extend"]))
        if op == "word" and len(body) >= 8:
            i = 8 * draw(st.integers(0, len(body) // 8 - 1))
            body[i:i + 8] = draw(st.sampled_from(WORDS))
        elif op == "truncate":
            del body[draw(st.integers(0, len(body))):]
        elif op == "extend":
            body += draw(st.sampled_from(WORDS) | st.binary(min_size=1, max_size=9))
    return head + b"\n" + bytes(body)


#: JSON values of every type, for the fields of a chain element
VALUES = (st.none() | st.booleans() | st.integers() | st.floats() | TEXT
          | st.lists(st.integers(), max_size=2))
FIELDS = ["name", "efficiency", "loss_db", "loss_db_per_cm", "length_cm",
          "efficiency_err", "loss_db_err", "other"]
ELEMENTS = (st.dictionaries(st.sampled_from(FIELDS), VALUES, max_size=4)
            | st.fixed_dictionaries({"name": TEXT, "efficiency": st.floats(0.0, 1.0)}))
#: a list of elements, or any other JSON value
CHAINS = (st.lists(ELEMENTS, max_size=3) | VALUES
          | st.dictionaries(TEXT, VALUES, max_size=2))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


def _quiet(fn, *args):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
            warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        return fn(*args)


def _rejects(read, path) -> bool:
    try:
        _quiet(read, path)
    except (cli.InputFormatError, ValueError, TypeError, RecursionError):
        return True
    return False


def _check(work, data, name, argv, read):
    path = work / name
    path.write_bytes(data)
    code = _quiet(cli.main, [argv[0], str(path)] + argv[1:])
    assert code in (0, 1, 2)
    if _rejects(read, str(path)):
        assert code == 2


@FEW
@given(data=mutated(DETUNING, TABLE_LINES))
def test_detuning_table(work, data):
    _check(work, data, "detuning.csv", ["fit-detuning"],
           lambda p: cli._read_table(p, ("delta_hz", "tau_s", "sigma_s?")))


@FEW
@given(data=mutated(SPECTRUM, TABLE_LINES))
def test_spectrum_table(work, data):
    _check(work, data, "spectrum.csv", ["fit-spectrum"],
           lambda p: cli._read_table(p, ("wavelength_nm", "intensity")))


@FEW
@given(data=mutated(TRACE, TRACE_LINES))
def test_decay_trace_csv(work, data):
    _check(work, data, "trace.csv", ["fit-decay"], dynamics.load_decay_trace)


@FEW
@given(data=mutated(FGRID, FGRID_LINES))
def test_fgrid_csv(work, data):
    _check(work, data, "grid.fgrid", ["mode-volume", "--lambda-nm", "637"],
           load_field_grid)


@settings(FEW, max_examples=100)
@given(data=mutated_f64())
def test_fgrid_f64(work, data):
    _check(work, data, "grid_f64.fgrid", ["mode-volume", "--lambda-nm", "637"],
           load_field_grid)


@FEW
@given(data=st.builds(lambda doc: json.dumps(doc).encode(), CHAINS) | mutated(CHAIN, CHAIN_LINES))
def test_chain_json(work, data):
    _check(work, data, "chain.json", ["link-budget"],
           lambda p: linkbudget.chain_from_json_obj(json.loads(read_text(p))))


#: meta keys cannot spell "kind" or "bin_width_s", which the format reserves
META = st.dictionaries(
    st.text(alphabet="abcxyz_019", min_size=1, max_size=8),
    st.none() | st.booleans() | st.integers() | TEXT
    | st.floats(allow_nan=False, allow_infinity=False),
    max_size=3)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def traces(draw):
    kind = draw(st.sampled_from(["simulated", "measured"]))
    times = sorted(draw(st.lists(FINITE, min_size=1, max_size=20, unique=True)))
    top = 1.0 if kind == "simulated" else 1e300
    values = draw(st.lists(st.floats(0.0, top), min_size=len(times),
                           max_size=len(times)))
    return DecayTrace(
        times=np.array(times), values=np.array(values), kind=kind,
        bin_width_s=draw(st.none() | st.floats(0.0, 1e300, exclude_min=True)),
        meta=draw(META))


def _bits(meta: dict) -> list:
    return sorted((k, type(v).__name__, repr(v)) for k, v in meta.items())


@FEW
@given(trace=traces())
def test_decay_trace_round_trip(trace):
    back = decay_trace_from_csv(decay_trace_to_csv(trace))
    assert back.times.tobytes() == trace.times.tobytes()
    assert back.values.tobytes() == trace.values.tobytes()
    assert (back.kind, repr(back.bin_width_s)) == (trace.kind, repr(trace.bin_width_s))
    assert _bits(back.meta) == _bits(trace.meta)


@st.composite
def grids(draw):
    dims = tuple(draw(st.integers(2, 3)) for _ in range(3))
    n = int(np.prod(dims))
    e = draw(st.lists(st.floats(-1e100, 1e100), min_size=3 * n, max_size=3 * n))
    eps = draw(st.lists(st.floats(1.0, 1e100), min_size=n, max_size=n))
    spacing = draw(st.tuples(*[st.floats(0.0, 1e300, exclude_min=True)] * 3))
    origin = draw(st.tuples(FINITE, FINITE, FINITE))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return FieldGrid(e_field=np.reshape(e, dims + (3,)),
                         eps_rel=np.reshape(eps, dims), spacing_m=spacing,
                         origin_m=origin)


@FEW
@given(grid=grids(), encoding=st.sampled_from(["f64", "csv"]))
def test_field_grid_round_trip(work, grid, encoding):
    path = work / f"round_trip.{encoding}.fgrid"
    save_field_grid(grid, path, encoding=encoding)
    back = _quiet(load_field_grid, path)
    assert back.e_field.tobytes() == grid.e_field.tobytes()
    assert back.eps_rel.tobytes() == grid.eps_rel.tobytes()
    assert repr((back.spacing_m, back.origin_m)) == repr((grid.spacing_m, grid.origin_m))


POSITIVE = st.floats(0.0, exclude_min=True, allow_infinity=False)


@FEW
@given(c=st.floats(0.0, allow_infinity=False), kappa=POSITIVE, tau1=POSITIVE,
       deltas=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=20))
def test_tau_of_detuning_is_an_even_dip_below_tau1(c, kappa, tau1, deltas):
    delta = np.array(deltas)
    tau = tau_of_detuning(c, kappa, tau1, delta)
    assert np.array_equal(tau, tau_of_detuning(c, kappa, tau1, -delta))
    assert np.all(np.diff(tau[np.argsort(np.abs(delta))]) >= 0.0)
    assert tau_of_detuning(c, kappa, tau1, 0.0) == tau1 / (1.0 + c)
    assert np.all(tau <= tau1)
