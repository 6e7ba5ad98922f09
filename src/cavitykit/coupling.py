"""Vacuum coupling-rate estimation from sampled cavity field maps.

The chain goes: field map -> mode volume -> zero-point field amplitude,
lifetime -> transition dipole moment, and their product -> ideal vacuum
coupling rate g0.  For an emitter ensemble distributed over the cavity, a
spatially averaged weighting factor F in (0, 1/sqrt(3)] rescales the ideal
g0.  The field-map steps are here; the scalar steps, from the mode volume
on, are pure ``math`` in ``purcell`` and re-exported here on first access,
so loading and weighing a field map never imports ``purcell``.

Field maps are real-valued amplitude snapshots on a regular grid with an
arbitrary linear scale; every output is built scale invariant, so the
normalization convention of whatever solver produced the map is
irrelevant.  All sums are cell-centered midpoint sums with no
interpolation, matching the usual FDTD export convention.

A FieldGrid computes |E|^2 and eps*|E|^2 once, when it is built, in one
pass over blocks of whole x-planes that fit in cache, and keeps them as
read-only arrays: 16 extra bytes per grid point, so a loaded grid peaks at
48 bytes per point (1.5x its f64 file), with no temporary beyond a block.
The same pass finds the maximum of each, block by block while the block is
in cache, with np.argmax's rule (first nan, else first maximum).  The
finiteness check rides on the argmax of eps*|E|^2, which lands on any nan
or inf.  The grid keeps the index of the eps*|E|^2 maximum: the mode
volume, argmax_energy and the ensemble weighting read it and never search
the grid again.  The mode volume sums the derived arrays whole; the
ensemble weighting reads a basic slice of them (the averaging box), so a
threshold sweep over one grid never recomputes them.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._cells import (decode, finite_real, format_rows, read_rows, require_finite,
                     require_real, write_atomic)

__all__ = [
    "FieldGrid", "WeightingConfig", "CouplingEstimate",
    "mode_volume", "normalized_mode_volume", "zero_point_field",
    "dipole_from_lifetime", "to_debye", "g0_ideal", "ideal_coupling",
    "ensemble_weighting_factor", "effective_g0",
    "save_field_grid", "load_field_grid", "DEFAULT_REGION_M",
]

#: Default averaging region (m): a box around the cavity center.
DEFAULT_REGION_M = ((-400e-9, 400e-9), (-150e-9, 150e-9), (-100e-9, 100e-9))

#: Grid points per block when a FieldGrid derives |E|^2 and eps*|E|^2: about
#: 1 MB of (ex, ey, ez, eps) input, taken as whole x-planes, so every pass
#: over a block after the first reads it from cache.
_BLOCK_POINTS = 1 << 15

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep

#: The names of the scalar chain, re-exported from ``purcell`` on first access.
_SCALAR_CHAIN = frozenset({
    "CouplingEstimate", "dipole_from_lifetime", "effective_g0", "g0_ideal",
    "ideal_coupling", "normalized_mode_volume", "to_debye", "zero_point_field",
})


def __getattr__(name):
    if name not in _SCALAR_CHAIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import purcell

    value = getattr(purcell, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | _SCALAR_CHAIN)


def _owned_read_only(arr) -> np.ndarray:
    """arr as a read-only float64 array that no writable array can alias.

    Copies, unless arr is already read-only and its memory belongs to a
    read-only array: so a caller's array stays writable, and writing to it
    later cannot change a grid whose derived arrays were computed from it.
    load_field_grid hands over its own buffer that way, without a copy.
    """
    a = np.asarray(arr, dtype=float)
    owner = a if a.base is None else a.base
    if (a.flags.writeable or not isinstance(owner, np.ndarray)
            or not owner.flags.owndata or owner.flags.writeable):
        a = a.copy()
        a.flags.writeable = False
    return a


def _check_inputs(e: np.ndarray, eps: np.ndarray):
    """The whole-grid input checks, in the order their messages take precedence."""
    require_finite("e_field", e)
    require_finite("eps_rel", eps)
    if np.any(eps < 1.0):
        raise ValueError("relative permittivity must be >= 1 everywhere")


def _fold_argmax(arr, i_best: int, block: np.ndarray, offset: int) -> int:
    """Flat index into arr of np.argmax over the blocks taken so far: i_best
    is the one for the earlier blocks, and block is the next run of arr,
    starting at flat index offset.

    np.argmax's rule: the first nan, else the first strictly greater value,
    so a tie keeps the earlier block's index.
    """
    i = offset + int(np.argmax(block))
    best, new = arr.flat[i_best], arr.flat[i]
    return i if new > best or (new != new and best == best) else i_best


def _outside_stacklevel() -> int:
    """warnings.warn stacklevel of the nearest caller outside this package
    (the dataclass-generated __init__, file "<string>", counts as inside)."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and (
            frame.f_code.co_filename.startswith(_PACKAGE_DIR)
            or frame.f_code.co_filename == "<string>"):
        frame, level = frame.f_back, level + 1
    return level


@dataclass(frozen=True)
class FieldGrid:
    """Sampled cavity mode: E field (nx, ny, nz, 3) and relative permittivity.

    Sample points sit at origin + index * spacing on each axis and own one
    cell of volume dx*dy*dz each (cell-centered convention).

    The field and permittivity are stored as read-only copies, unless they
    arrive read-only already, with read-only memory of their own.
    ``e_mag2`` (|E|^2) and ``energy_density`` (eps*|E|^2) are computed once
    at construction, in one pass over cache-sized blocks of whole x-planes,
    and stored read-only, like the inputs; they cost 16 bytes per grid point
    on top of the 32 the field and permittivity take, and building them
    allocates nothing else.  The same pass takes the maximum of each per
    block and keeps the index of the eps*|E|^2 one, which argmax_energy
    returns.  A nan or inf input makes eps*|E|^2 non-finite where its
    argmax lands, so the finite check there finds it; a field so large that
    either derived array overflows float64 is a ValueError too.
    """

    e_field: np.ndarray
    eps_rel: np.ndarray
    spacing_m: tuple
    origin_m: tuple = (0.0, 0.0, 0.0)
    e_mag2: np.ndarray = field(init=False, repr=False, compare=False)
    energy_density: np.ndarray = field(init=False, repr=False, compare=False)
    #: flat C-order index of the first maximum of energy_density
    _i_max: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        e = _owned_read_only(self.e_field)
        eps = _owned_read_only(self.eps_rel)
        if e.ndim != 4 or e.shape[-1] != 3:
            raise ValueError(f"e_field must have shape (nx, ny, nz, 3), got {e.shape}")
        if eps.shape != e.shape[:3]:
            raise ValueError("eps_rel shape must match the grid dims")
        if any(n < 2 for n in e.shape[:3]):
            raise ValueError(f"grid must have >= 2 points per axis, got {e.shape[:3]}")
        for name, lo, above in (("spacing_m", 0.0, True), ("origin_m", -math.inf, False)):
            val = getattr(self, name)
            if not (hasattr(val, "__len__") and len(val) == 3):
                raise ValueError(f"{name} must hold three numbers, got {val!r}")
            for i, v in enumerate(val):
                require_real(f"{name}[{i}]", v, lo, above=above)
        # |E|^2 block by block, with the same additions in the same order
        # as np.sum(e**2, axis=-1); the energy block holds each square first
        nx, ny, nz = e.shape[:3]
        step = max(1, _BLOCK_POINTS // (ny * nz))
        e_mag2, energy = np.empty((nx, ny, nz)), np.empty((nx, ny, nz))
        i_e2 = i_w = 0
        # an overflow is an inf and inf*0 a nan, both caught where the argmax lands
        with np.errstate(over="ignore", invalid="ignore"):
            for i0 in range(0, nx, step):
                rows = slice(i0, i0 + step)
                eb, m2, w = e[rows], e_mag2[rows], energy[rows]
                np.multiply(eb[..., 0], eb[..., 0], out=m2)
                m2 += np.multiply(eb[..., 1], eb[..., 1], out=w)
                m2 += np.multiply(eb[..., 2], eb[..., 2], out=w)
                np.multiply(eps[rows], m2, out=w)
                if np.min(eps[rows]) < 1.0:   # a nan passes here, and is caught below
                    _check_inputs(e, eps)
                # both maxima while the block is in cache
                i_e2 = _fold_argmax(e_mag2, i_e2, m2, i0 * ny * nz)
                i_w = _fold_argmax(energy, i_w, w, i0 * ny * nz)
        for name, arr, i in (("|E|^2", e_mag2, i_e2), ("eps*|E|^2", energy, i_w)):
            if not math.isfinite(arr.flat[i]):
                _check_inputs(e, eps)   # a nan or inf input lands here too
                raise ValueError(
                    f"{name} overflows float64 at grid index "
                    f"{tuple(int(k) for k in np.unravel_index(i, e.shape[:3]))}; "
                    "rescale the field")
        e_mag2.flags.writeable = energy.flags.writeable = False
        for name, arr in (("e_field", e), ("eps_rel", eps),
                          ("e_mag2", e_mag2), ("energy_density", energy)):
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_i_max", i_w)
        object.__setattr__(self, "spacing_m", tuple(float(s) for s in self.spacing_m))
        object.__setattr__(self, "origin_m", tuple(float(o) for o in self.origin_m))
        if e_mag2.flat[i_e2] > 0.0 and i_w != i_e2:
            warnings.warn(
                "maximum of eps*|E|^2 and maximum of |E| sit at different grid "
                "points; the zero-point normalization assumes they coincide",
                stacklevel=_outside_stacklevel())

    @property
    def dims(self) -> tuple:
        return self.e_field.shape[:3]

    @property
    def cell_volume_m3(self) -> float:
        dx, dy, dz = self.spacing_m
        return dx * dy * dz

    def axes(self):
        return tuple(self.origin_m[i] + self.spacing_m[i] * np.arange(self.dims[i])
                     for i in range(3))

    def argmax_energy(self) -> tuple:
        """Grid index of max eps*|E|^2; ties break at the lowest linear index."""
        return np.unravel_index(self._i_max, self.dims)


def _real(v) -> bool:
    """True for a real number that is not a bool or nan; +-inf pass."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and v == v


def _is_box(region) -> bool:
    """True for three (lo, hi) pairs of real numbers with lo < hi."""
    try:
        return len(region) == 3 and all(
            len(b) == 2 and _real(b[0]) and _real(b[1]) and b[0] < b[1] for b in region)
    except TypeError:   # not a sequence of pairs
        return False


@dataclass(frozen=True)
class WeightingConfig:
    """Threshold model for the ensemble average: emitters below
    threshold_fraction * |E_max| get zero weight; the average runs over an
    axis-aligned box (region_m) around the cavity center."""

    threshold_fraction: float = 0.0
    region_m: tuple = DEFAULT_REGION_M

    def __post_init__(self):
        if not (_real(self.threshold_fraction) and 0.0 <= self.threshold_fraction < 1.0):
            raise ValueError(
                f"threshold_fraction must lie in [0, 1), got {self.threshold_fraction!r}")
        if not _is_box(self.region_m):
            raise ValueError("region_m must be ((x0,x1),(y0,y1),(z0,z1)) of real "
                             f"numbers with lo < hi, got {self.region_m!r}")


def mode_volume(grid: FieldGrid) -> float:
    """V = sum(eps |E|^2 dV) / max(eps |E|^2), midpoint sum over all cells."""
    w = grid.energy_density
    w_max = float(w.flat[grid._i_max])
    if w_max <= 0.0:
        raise ValueError("field is identically zero; mode volume undefined")
    with np.errstate(over="ignore"):
        total = float(np.sum(w))
    if not math.isfinite(total):
        raise ValueError("the sum of eps*|E|^2 overflows float64; rescale the field")
    v = total * grid.cell_volume_m3 / w_max
    if not 0.0 < v < math.inf:
        raise ValueError(f"the mode volume {v!r} m^3 is out of float64 range; rescale the spacing")
    return v


def ensemble_weighting_factor(grid: FieldGrid, cfg: WeightingConfig) -> float:
    """Spatially averaged coupling reduction F in (0, 1/sqrt(3)].

    With f_i = E(r_i)/E_max componentwise, weights
    w_i = max(|E_i| - threshold*E_max, 0)/E_max and p_i = w_i/sum(w), the
    factor is sqrt(sum_i p_i (f_x^2 + f_y^2 + f_z^2)/3).  The 1/3 comes from
    an isotropic dipole-orientation average, which caps F at 1/sqrt(3).
    """
    # the axes increase, so each axis' lo <= x <= hi is one run of samples
    box = tuple(slice(int(np.searchsorted(ax, lo, "left")),
                      int(np.searchsorted(ax, hi, "right")))
                for ax, (lo, hi) in zip(grid.axes(), cfg.region_m))
    if any(s.start >= s.stop for s in box):
        raise ValueError("averaging region does not intersect the grid")
    sub_e2 = grid.e_mag2[box]
    # E_max is read at the box's energy-density maximum (first index on ties).
    # The box's C order is the grid's restricted to the box, so a grid
    # maximum inside the box is the box's first maximum; otherwise the box
    # is searched, and the copy that argmax takes becomes the weight array
    if all(s.start <= k < s.stop for s, k in zip(box, grid.argmax_energy())):
        w = np.empty(sub_e2.size)
        e_max = math.sqrt(float(grid.e_mag2.flat[grid._i_max]))
    else:
        w = grid.energy_density[box].flatten()
        e_max = math.sqrt(float(sub_e2.flat[int(np.argmax(w))]))
    if e_max <= 0.0:
        raise ValueError("field is zero everywhere in the region")
    # |E| over the box in flat C order, the order every sum below adds in;
    # the weights, then p * f^2, are built in place in one second array
    e_mag = np.sqrt(sub_e2).ravel()
    np.subtract(e_mag, cfg.threshold_fraction * e_max, out=w)
    np.maximum(w, 0.0, out=w)
    w /= e_max
    w_sum = float(np.sum(w))
    if w_sum <= 0.0:
        raise ValueError("threshold excludes all emitters in the region")
    w /= w_sum
    e_mag /= e_max
    w *= np.square(e_mag, out=e_mag)
    return float(math.sqrt(float(np.sum(w)) / 3.0))


# ---------------------------------------------------------------------------
# Field-map file format: one JSON header line, then (ex, ey, ez, eps_rel)
# per grid point in C order, as CSV text or raw little-endian float64.
# ---------------------------------------------------------------------------

def save_field_grid(grid: FieldGrid, path, encoding: str = "f64"):
    if encoding not in ("f64", "csv"):
        raise ValueError(f"encoding must be 'f64' or 'csv', got {encoding!r}")
    header = {
        "schema_version": 1,
        "dims": list(grid.dims),
        "spacing_m": list(grid.spacing_m),
        "origin_m": list(grid.origin_m),
        "encoding": encoding,
        "columns": ["ex", "ey", "ez", "eps_rel"],
        "units": {"e": "arbitrary", "eps_rel": "dimensionless", "length": "m"},
    }
    body = np.concatenate(
        [grid.e_field.reshape(-1, 3), grid.eps_rel.reshape(-1, 1)], axis=1)
    write_atomic(path, (json.dumps(header, sort_keys=True) + "\n").encode()
                 + (body.astype("<f8").tobytes() if encoding == "f64"
                    else format_rows(body).encode()))


def _header_triple(header: dict, key: str, is_valid, want: str) -> tuple:
    """header[key] as a 3-tuple of finite reals passing is_valid, else a line-1 error."""
    val = header[key]
    if not (isinstance(val, list) and len(val) == 3
            and all(finite_real(v) and is_valid(v) for v in val)):
        raise ValueError(f"line 1: {key} must be {want}, got {val!r}")
    return tuple(val)


def load_field_grid(path) -> FieldGrid:
    with open(path, "rb") as fh:
        head = fh.readline()
        if not head.endswith(b"\n"):
            raise ValueError("missing header line")
        try:
            header = json.loads(head.decode())
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
            raise ValueError(f"line 1: malformed JSON header ({exc})") from None
        if not isinstance(header, dict):
            raise ValueError("line 1: header must be a JSON object")
        for key in ("dims", "spacing_m", "encoding"):
            if key not in header:
                raise ValueError(f"line 1: header missing required key {key!r}")
        # checked before the body is sized or read: the f64 path allocates
        # from dims alone
        nx, ny, nz = _header_triple(
            header, "dims", lambda v: isinstance(v, int) and v >= 2,
            "three integers >= 2")
        spacing = _header_triple(header, "spacing_m", lambda v: v > 0.0,
                                 "three finite positive numbers")
        origin = (0.0, 0.0, 0.0)
        if "origin_m" in header:
            origin = _header_triple(header, "origin_m", lambda v: True,
                                    "three finite numbers")
        n_points = nx * ny * nz
        if header["encoding"] == "f64":
            expected = n_points * 4 * 8
            size = os.fstat(fh.fileno()).st_size - len(head)
            if size != expected:
                raise ValueError(
                    f"body holds {size} bytes, expected exactly {expected} "
                    f"({n_points} points x 4 float64 columns)")
            data = np.empty((n_points, 4), dtype="<f8")
            got = fh.readinto(data)
            if got != expected:   # the file shrank after the size check
                raise ValueError(f"body holds {got} bytes, expected exactly {expected}")
        elif header["encoding"] == "csv":
            data = read_rows(enumerate(decode(fh.read(), 2).splitlines(), start=2), (4,))
            if len(data) != n_points:
                raise ValueError(f"body holds {len(data)} rows, expected exactly {n_points}")
        else:
            raise ValueError(f"line 1: unknown encoding {header['encoding']!r}")
    data.flags.writeable = False  # handed to the grid without a copy
    return FieldGrid(
        e_field=data[:, :3].reshape(nx, ny, nz, 3),
        eps_rel=data[:, 3].reshape(nx, ny, nz),
        spacing_m=spacing, origin_m=origin)
