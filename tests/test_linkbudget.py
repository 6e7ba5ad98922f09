import itertools
import math

import numpy as np
import pytest

from cavitykit.linkbudget import (
    LinkChain, LinkElement, budget_report, chain_efficiency,
    chain_from_json_obj, format_budget_table, propagation_efficiency,
)
from cavitykit.units import db_to_linear, linear_to_db


def _chain(*etas):
    return LinkChain(tuple(LinkElement(name=f"e{i}", efficiency=eta)
                           for i, eta in enumerate(etas)))


def test_propagation_efficiency_pins():
    # 1.9 dB/cm over the 0.35 cm waveguide gives the quoted ~85%
    assert propagation_efficiency(1.9, 0.35) == pytest.approx(0.858, abs=0.001)
    assert propagation_efficiency(7.3, 0.0) == 1.0
    assert propagation_efficiency(1.9, 1.0) == pytest.approx(
        10.0 ** (-0.19), rel=1e-12)
    with pytest.raises(ValueError):
        propagation_efficiency(-1.0, 1.0)


def test_three_element_chain_pin():
    # taper ~80%, propagation ~85.8%, edge coupler 19.7%
    chain = _chain(0.80, 0.858, 0.197)
    eta, db = chain_efficiency(chain)
    assert eta == pytest.approx(0.1352, abs=0.0005)
    assert db == pytest.approx(-8.69, abs=0.01)


def test_edge_coupler_sub_budget():
    # SSC-length ~60%, index-mismatch ~60%, misalignment ~70%
    eta, db = chain_efficiency(_chain(0.6, 0.6, 0.7))
    assert eta == pytest.approx(0.252, rel=1e-12)
    assert db == pytest.approx(-5.99, abs=0.01)


def test_single_unit_element():
    eta, db = chain_efficiency(_chain(1.0))
    assert eta == 1.0 and db == 0.0


def test_unit_element_never_changes_totals():
    base = _chain(0.8, 0.5)
    padded = LinkChain(base.elements + (LinkElement("unit", efficiency=1.0),))
    assert padded.total_efficiency == pytest.approx(
        base.total_efficiency, rel=1e-15)
    assert padded.total_db == pytest.approx(base.total_db, rel=1e-15)


def test_permutation_invariance_and_concatenation():
    rng = np.random.default_rng(13)
    etas = rng.uniform(0.05, 1.0, size=5)
    reference = _chain(*etas).total_efficiency
    for perm in itertools.permutations(etas):
        assert _chain(*perm).total_efficiency == pytest.approx(
            reference, rel=1e-12)
    left, right = _chain(*etas[:2]), _chain(*etas[2:])
    combined = LinkChain(left.elements + right.elements)
    assert combined.total_efficiency == pytest.approx(reference, rel=1e-12)
    assert combined.total_db == pytest.approx(
        left.total_db + right.total_db, rel=1e-12)


def test_db_and_linear_representations_agree():
    rng = np.random.default_rng(19)
    for _ in range(20):
        etas = rng.uniform(0.01, 1.0, size=4)
        mixed = LinkChain(tuple(
            LinkElement(name=f"m{i}", efficiency=float(eta)) if i % 2 == 0
            else LinkElement(name=f"m{i}", loss_db=-linear_to_db(float(eta)))
            for i, eta in enumerate(etas)))
        assert mixed.total_efficiency == pytest.approx(
            float(np.prod(etas)), rel=1e-12)
        assert db_to_linear(mixed.total_db) == pytest.approx(
            mixed.total_efficiency, rel=1e-12)


def test_element_representation_is_exclusive():
    with pytest.raises(ValueError):
        LinkElement(name="x", efficiency=0.5, loss_db=3.0)
    with pytest.raises(ValueError):
        LinkElement(name="x")
    with pytest.raises(ValueError):
        LinkElement(name="x", loss_db_per_cm=1.9)  # missing length
    with pytest.raises(ValueError):
        LinkElement(name="x", efficiency=1.5)
    with pytest.raises(ValueError):
        LinkElement(name="x", loss_db=-2.0)
    with pytest.raises(ValueError):
        LinkElement(name="x", efficiency=0.5, efficiency_err=0.1, loss_db_err=0.1)
    # every given number must be a finite real, and the error names the field
    for field, spec in (
            ("loss_db", {"loss_db": math.nan}),
            ("length_cm", {"loss_db_per_cm": 1.0, "length_cm": math.nan}),
            ("loss_db_err", {"loss_db": 1.0, "loss_db_err": math.nan}),
            ("efficiency", {"efficiency": "x"}),
            ("efficiency", {"efficiency": True}),
            ("loss_db", {"loss_db": math.inf}),
            ("loss_db", {"loss_db": 10 ** 400})):  # no float can hold it
        with pytest.raises(ValueError, match=f"element 'x': {field} must be a finite"):
            LinkElement(name="x", **spec)
    assert LinkElement(name="x", efficiency=0).resolved_efficiency == 0.0


def test_zero_efficiency_element_is_flagged():
    chain = LinkChain((LinkElement("dead", efficiency=0.0),
                       LinkElement("fine", efficiency=0.9)))
    eta, db = chain_efficiency(chain)
    assert eta == 0.0
    assert db == -math.inf
    report = budget_report(chain)
    assert any("zero efficiency" in f for f in report["flags"])


def test_uncertainty_propagation():
    # 1-sigma on the linear efficiency converts to dB via 10/ln(10)/eta
    el = LinkElement("edge", efficiency=0.197, efficiency_err=0.045)
    expected_db_err = 10.0 / math.log(10.0) * 0.045 / 0.197
    assert el.resolved_db_err == pytest.approx(expected_db_err, rel=1e-12)
    chain = LinkChain((el, LinkElement("taper", loss_db=1.0, loss_db_err=0.3)))
    assert chain.total_db_err == pytest.approx(
        math.sqrt(expected_db_err ** 2 + 0.3 ** 2), rel=1e-12)


def test_budget_report_residual_row():
    chain = _chain(0.80, 0.858, 0.197)
    report = budget_report(chain, measured_total=0.10)
    assert report["measured_total_db"] == pytest.approx(-10.0, rel=1e-12)
    assert report["residual_db"] == pytest.approx(
        -10.0 - chain.total_db, rel=1e-9)
    table = format_budget_table(report)
    assert "residual/unexplained" in table
    assert "total" in table
    with pytest.raises(ValueError):
        budget_report(chain, measured_total=1.5)


def test_chain_from_json_obj():
    chain = chain_from_json_obj([
        {"name": "taper", "efficiency": 0.8},
        {"name": "wg", "loss_db_per_cm": 1.9, "length_cm": 0.35},
        {"name": "edge", "efficiency": 0.197, "efficiency_err": 0.045},
    ])
    assert chain.total_efficiency == pytest.approx(0.1352, abs=0.0005)
    with pytest.raises(ValueError):
        chain_from_json_obj([{"name": "x", "bogus_key": 1.0}])
    with pytest.raises(ValueError):
        chain_from_json_obj({"name": "not-a-list"})
    with pytest.raises(ValueError):
        LinkChain(())
