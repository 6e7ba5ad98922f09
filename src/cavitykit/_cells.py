"""Numeric cells of the CSV inputs (tables, decay traces, ``.fgrid`` bodies).

A cell that is not a number, or parses to nan or inf, is a ValueError that
names its line and column.  Finiteness is checked once on the parsed array,
so a well-formed file pays no per-cell cost for it.
"""

from __future__ import annotations

import numpy as np


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
