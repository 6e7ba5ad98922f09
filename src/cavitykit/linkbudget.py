"""Cascaded photonic transmission-efficiency accounting.

A link chain is an ordered list of elements (taper, waveguide propagation,
edge coupler, ...), each specified in exactly one of three equivalent ways:
a linear efficiency, a dB loss, or a per-length dB loss with a length.
Totals multiply in linear space and add in dB, and optional 1-sigma
uncertainties propagate as a first-order sum of dB variances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from ._cells import finite_real
from .units import db_to_linear

__all__ = [
    "LinkElement", "LinkChain", "propagation_efficiency", "chain_efficiency",
    "budget_report", "format_budget_table", "chain_from_json_obj",
]

_DB_PER_NEPER = 10.0 / math.log(10.0)


@dataclass(frozen=True)
class LinkElement:
    """One transmission element, specified exactly one way.

    Either ``efficiency`` (linear, in [0, 1]), or ``loss_db`` (>= 0), or the
    pair (``loss_db_per_cm``, ``length_cm``).  ``efficiency_err`` or
    ``loss_db_err`` optionally carries a 1-sigma uncertainty in the matching
    representation.
    """

    name: str
    efficiency: Optional[float] = None
    loss_db: Optional[float] = None
    loss_db_per_cm: Optional[float] = None
    length_cm: Optional[float] = None
    efficiency_err: Optional[float] = None
    loss_db_err: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"element name must be a string, got {self.name!r}")
        for f in fields(self)[1:]:  # every field after name is a number
            v = getattr(self, f.name)
            if not (v is None or finite_real(v)):
                raise ValueError(f"element {self.name!r}: {f.name} must be a "
                                 f"finite number, got {v!r}")
        ways = (self.efficiency is not None, self.loss_db is not None,
                self.loss_db_per_cm is not None or self.length_cm is not None)
        if sum(ways) != 1:
            raise ValueError(
                f"element {self.name!r}: give exactly one of efficiency, "
                "loss_db, or (loss_db_per_cm, length_cm)")
        if ways[2] and (self.loss_db_per_cm is None or self.length_cm is None):
            raise ValueError(
                f"element {self.name!r}: loss_db_per_cm and length_cm "
                "must be given together")
        if self.efficiency is not None and not (0.0 <= self.efficiency <= 1.0):
            raise ValueError(
                f"element {self.name!r}: efficiency must lie in [0, 1], "
                f"got {self.efficiency!r}")
        if self.loss_db is not None and self.loss_db < 0.0:
            raise ValueError(
                f"element {self.name!r}: loss_db must be >= 0, got {self.loss_db!r}")
        if self.loss_db_per_cm is not None:
            if self.loss_db_per_cm < 0.0 or self.length_cm < 0.0:
                raise ValueError(
                    f"element {self.name!r}: per-length loss and length must be >= 0")
        if self.efficiency_err is not None and self.loss_db_err is not None:
            raise ValueError(
                f"element {self.name!r}: give at most one uncertainty field")
        for err in (self.efficiency_err, self.loss_db_err):
            if err is not None and err < 0.0:
                raise ValueError(f"element {self.name!r}: uncertainties must be >= 0")

    @property
    def resolved_efficiency(self) -> float:
        if self.efficiency is not None:
            return float(self.efficiency)
        if self.loss_db is not None:
            return db_to_linear(-self.loss_db)
        return propagation_efficiency(self.loss_db_per_cm, self.length_cm)

    @property
    def resolved_db(self) -> float:
        """Signed dB transmission (<= 0); -inf for a dead element."""
        eta = self.resolved_efficiency
        return -math.inf if eta == 0.0 else 10.0 * math.log10(eta)

    @property
    def resolved_db_err(self) -> float:
        """1-sigma uncertainty of the dB transmission (0 when unspecified)."""
        if self.loss_db_err is not None:
            return float(self.loss_db_err)
        if self.efficiency_err is not None:
            eta = self.resolved_efficiency
            if eta == 0.0:
                return math.inf
            return _DB_PER_NEPER * self.efficiency_err / eta
        return 0.0


@dataclass(frozen=True)
class LinkChain:
    elements: tuple

    def __post_init__(self):
        try:
            elements = tuple(self.elements)
        except TypeError:
            raise ValueError(f"elements must be a sequence of LinkElement, "
                             f"got {self.elements!r}") from None
        if not elements:
            raise ValueError("chain must contain at least one element")
        for i, el in enumerate(elements):
            if not isinstance(el, LinkElement):
                raise ValueError(f"elements[{i}] must be a LinkElement, got {el!r}")
        object.__setattr__(self, "elements", elements)

    @property
    def total_efficiency(self) -> float:
        eta = 1.0
        for el in self.elements:
            eta *= el.resolved_efficiency
        return eta

    @property
    def total_db(self) -> float:
        return sum(el.resolved_db for el in self.elements)

    @property
    def total_db_err(self) -> float:
        return math.sqrt(sum(el.resolved_db_err ** 2 for el in self.elements))


def propagation_efficiency(loss_db_per_cm: float, length_cm: float) -> float:
    """eta = 10^(-loss * length / 10)."""
    for name, v in (("loss_db_per_cm", loss_db_per_cm), ("length_cm", length_cm)):
        if not (finite_real(v) and v >= 0.0):
            raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
    return 10.0 ** (-loss_db_per_cm * length_cm / 10.0)


def chain_efficiency(chain: LinkChain) -> tuple:
    """(total linear efficiency, total dB); dB is -inf for a dead chain."""
    return chain.total_efficiency, chain.total_db


def budget_report(chain: LinkChain, measured_total: Optional[float] = None) -> dict:
    """Per-element breakdown plus totals, as a plain JSON-ready dict.

    With a measured total efficiency supplied, a residual/unexplained row
    reports the part of the measured loss the modeled chain does not cover.
    """
    rows = []
    flags = []
    for el in chain.elements:
        eta = el.resolved_efficiency
        if eta == 0.0:
            flags.append(f"element {el.name!r} has zero efficiency")
        rows.append({
            "name": el.name,
            "efficiency": eta,
            "db": el.resolved_db,
            "db_err": el.resolved_db_err,
        })
    report = {
        "schema_version": 1,
        "elements": rows,
        "total_efficiency": chain.total_efficiency,
        "total_db": chain.total_db,
        "total_db_err": chain.total_db_err,
        "flags": flags,
    }
    if measured_total is not None:
        if not (0.0 < measured_total <= 1.0):
            raise ValueError("measured total must lie in (0, 1]")
        measured_db = 10.0 * math.log10(measured_total)
        report["measured_total_efficiency"] = measured_total
        report["measured_total_db"] = measured_db
        report["residual_db"] = measured_db - chain.total_db
    return report


def format_budget_table(report: dict) -> str:
    """Aligned-text rendering of a budget_report dict."""
    rows = [("element", "efficiency", "dB", "+/- dB")]
    for el in report["elements"]:
        rows.append((el["name"], f"{el['efficiency']:.4f}",
                     f"{el['db']:+.2f}", f"{el['db_err']:.2f}"))
    rows.append(("total", f"{report['total_efficiency']:.4f}",
                 f"{report['total_db']:+.2f}", f"{report['total_db_err']:.2f}"))
    if "residual_db" in report:
        rows.append(("measured", f"{report['measured_total_efficiency']:.4f}",
                     f"{report['measured_total_db']:+.2f}", ""))
        rows.append(("residual/unexplained", "",
                     f"{report['residual_db']:+.2f}", ""))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    out = "\n".join(lines)
    for flag in report["flags"]:
        out += f"\n! {flag}"
    return out


def chain_from_json_obj(obj) -> LinkChain:
    """Build a chain from a JSON list of element dicts."""
    if not isinstance(obj, list):
        raise ValueError("chain spec must be a JSON list of element objects")
    allowed = {f.name for f in fields(LinkElement)}
    elements = []
    for i, entry in enumerate(obj):
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)):
            raise ValueError(f"chain entry {i}: must be an object with a string 'name'")
        unknown = set(entry) - allowed
        if unknown:
            raise ValueError(f"chain entry {i}: unknown keys {sorted(unknown)}")
        elements.append(LinkElement(**entry))
    return LinkChain(tuple(elements))
