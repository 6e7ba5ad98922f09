"""Numbers read from input files: CSV cells (tables, decay traces, ``.fgrid``
bodies) and JSON values (chains, ``.fgrid`` headers, replayed fit results).

A cell that is not a number, or parses to nan or inf, is a ValueError that
names its line and column.  Finiteness is checked once on the parsed array,
so a well-formed file pays no per-cell cost for it.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def finite_real(v) -> bool:
    """True for a real number, not a bool, that is finite as a float."""
    try:
        return (isinstance(v, numbers.Real) and not isinstance(v, bool)
                and math.isfinite(v))
    except OverflowError:  # an int too large for a float
        return False


def parse_row(parts, lineno: int) -> list:
    """The cells of one CSV row as floats."""
    try:
        return [float(p) for p in parts]
    except ValueError:
        pass
    for col, p in enumerate(parts, start=1):
        try:
            float(p)
        except ValueError:
            raise ValueError(
                f"line {lineno}, column {col}: not a number: {p!r}") from None


def check_finite(data: np.ndarray, linenos) -> np.ndarray:
    """data unchanged when every cell is finite; row i came from line linenos[i]."""
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"line {linenos[row]}, column {col + 1}: "
                         f"not a finite number: {float(data[row, col])!r}")
    return data


def decode(data: bytes, first_line: int = 1) -> str:
    """data as UTF-8 text; a byte that is not UTF-8 is a ValueError naming its
    line, counted from first_line."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        # the text before the bad byte decodes, and "?" stands in for the byte
        line = len((data[:exc.start].decode() + "?").splitlines()) + first_line - 1
        raise ValueError(f"line {line}: not UTF-8: byte 0x{data[exc.start]:02x}") from None


def read_text(path) -> str:
    """A file's contents as UTF-8 text (see decode)."""
    with open(path, "rb") as fh:
        return decode(fh.read())
