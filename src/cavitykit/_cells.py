"""The CSV row format of tables, decay traces and ``.fgrid`` bodies, read and
written here only; numbers read from JSON values; text reads, atomic writes.

A data row is comma-separated cells; blank lines are skipped.  The first row
holds one of the widths its reader accepts, every later row as many cells as
the first.  A non-number, nan or inf cell is a ValueError naming its line and
column, a wrong cell count one naming its line; finiteness is checked once,
on the parsed array, so a well-formed file pays no per-cell cost for it.
Cells are written as ``repr`` floats, which read back bit for bit.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import tempfile

import numpy as np

_UMASK = os.umask(0o022)
os.umask(_UMASK)


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


def read_rows(numbered_lines, widths) -> np.ndarray:
    """The data rows among (line number, text) pairs as a 2-D float array; the
    first row holds one of widths (given in increasing order) cells."""
    rows, linenos, width = [], [], None
    for lineno, text in numbered_lines:
        if not text.strip():
            continue
        parts = text.split(",")
        if len(parts) != width:  # the first row, or a wrong count
            expected = widths if width is None else (width,)
            if len(parts) not in expected:
                raise ValueError(f"line {lineno}: expected {' or '.join(map(str, expected))} "
                                 f"comma-separated values, got {len(parts)}")
            width = len(parts)
        rows.append(parse_row(parts, lineno))
        linenos.append(lineno)
    if not rows:
        raise ValueError("no data rows found")
    return check_finite(np.array(rows), linenos)


def format_rows(rows) -> str:
    """rows as CSV text, one line per row, each cell a full-precision float."""
    return "".join(",".join([repr(float(v)) for v in row]) + "\n" for row in rows)


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


def write_atomic(path, data):
    """Write through a unique temp file in the target's directory, so that
    concurrent writers never share one and a failed write leaves none."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.chmod(tmp, 0o666 & ~_UMASK)  # mkstemp creates 0600
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
