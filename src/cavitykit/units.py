"""Physical constants and unit conversions.

Lightweight module, safe to import from anywhere. Two conventions are used
throughout the package and are worth stating once:

* Ordinary frequencies (Hz): every user-facing linewidth, coupling rate or
  detuning is an ordinary frequency, i.e. the "omega / 2pi" value that
  experiments report (kappa/2pi, g0/2pi, ...).  Angular frequencies (rad/s)
  appear only inside formulas that need them, converted there with
  :func:`to_angular`.
* dB values are power dB throughout: dB = 10 log10(linear).

Constants (CODATA 2018):

    hbar    1.054571817e-34   J s
    eps0    8.8541878128e-12  F / m
    c       299792458         m / s   (exact)
    debye   3.335640951981e-30 C m    (1 D = 1e-21 / c)

Note on NV transition frequencies: the ZPL wavelength 637 nm corresponds to
c / lambda = 470.6 THz, while 475 THz (= 631.1 nm) is also in common use for
the optical transition frequency.  The two differ by about 1%.  Nothing in
this package hardcodes either value; pass whichever frequency your analysis
uses and be consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018 values, SI units. Immutable."""

    hbar: float = 1.054571817e-34     # J s
    eps0: float = 8.8541878128e-12    # F / m
    c: float = 299792458.0            # m / s
    debye: float = 3.335640951981e-30  # C m per Debye


CONSTANTS = PhysicalConstants()

HBAR = CONSTANTS.hbar
EPS0 = CONSTANTS.eps0
C0 = CONSTANTS.c
DEBYE = CONSTANTS.debye

def to_angular(nu_hz: float) -> float:
    """Ordinary frequency (Hz) -> angular frequency (rad/s)."""
    return 2.0 * math.pi * nu_hz


def linear_to_db(linear: float) -> float:
    """Linear power ratio -> power dB. Requires linear > 0."""
    if not (linear > 0.0):
        raise ValueError(f"linear ratio must be > 0 to convert to dB, got {linear!r}")
    return 10.0 * math.log10(linear)


def db_to_linear(db: float) -> float:
    """Power dB -> linear power ratio."""
    return 10.0 ** (db / 10.0)

