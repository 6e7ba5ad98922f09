"""The CSV row format of tables, decay traces and ``.fgrid`` bodies, read and
written here only; numbers read from JSON values; text reads, atomic writes.

A data row is comma-separated cells; blank lines are skipped.  The first row
holds one of the widths its reader accepts, every later row as many cells as
the first.  A non-number, nan or inf cell is a ValueError naming its line and
column, a wrong cell count one naming its line; finiteness is checked once,
on the parsed array, so a well-formed file pays no per-cell cost for it.
Cells are written as ``repr`` floats, which read back bit for bit.

Rows are read in two stages.  When numpy is already imported, one
``np.loadtxt`` call parses every line, and its array is kept when it has a
row, an accepted width and only finite cells: loadtxt reads a cell with the
same C routine as ``float``, so the bits are the same.  Anything else (an
error, a warning, a failed check) goes to the row loop, which names the line
and column of a bad cell and also takes what only ``float`` reads (``1_0``,
non-ASCII digits, whitespace-only lines).  numpy is never imported just to
parse, so a malformed row is reported without it.

Text files (tables, decay traces, JSON) may start with a UTF-8 byte order
mark, which is dropped; a ``.fgrid`` body is decoded as it stands.
"""

from __future__ import annotations

import codecs
import contextlib
import math
import numbers
import os
import sys
import warnings


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


def check_finite(data, linenos):
    """data, a 2-D float array, unchanged when every cell is finite; row i
    came from line linenos[i]."""
    import numpy as np

    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"line {linenos[row]}, column {col + 1}: "
                         f"not a finite number: {float(data[row, col])!r}")
    return data


def read_rows(numbered_lines, widths):
    """The data rows among (line number, text) pairs as a 2-D float array; the
    first row holds one of widths (given in increasing order) cells.  Stage
    one, when numpy is already imported, is one loadtxt call; stage two, when
    numpy is not imported or stage one fails or is refused, the row loop,
    which imports numpy only after the last row (see the module docstring)."""
    numbered_lines = list(numbered_lines)
    np = sys.modules.get("numpy")
    if np is not None:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # "input contained no data"
                data = np.loadtxt([text for _, text in numbered_lines], delimiter=",",
                                  comments=None, ndmin=2, dtype=float)
        except Exception:
            pass
        else:
            if len(data) and data.shape[1] in widths and np.isfinite(data).all():
                return data
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
    import numpy as np

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
    """A file's contents as UTF-8 text (see decode), less one leading byte
    order mark, which spreadsheet "CSV UTF-8" exports write."""
    with open(path, "rb") as fh:
        return decode(fh.read().removeprefix(codecs.BOM_UTF8))


def write_atomic(path, data):
    """Write through a new temp file under a random name in the target's
    directory, so that concurrent writers never share one and a failed write
    leaves none; the file gets the mode open() would give under the umask."""
    tmp = f"{path}.{os.urandom(8).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
