import math

import numpy as np
import pytest

from cavitykit.units import C0, CONSTANTS, db_to_linear, linear_to_db, to_angular


def test_db_pins():
    # 19.7% edge-coupler transmission is the -7 dB figure
    assert linear_to_db(0.197) == pytest.approx(-7.06, abs=0.01)
    assert linear_to_db(1.0) == 0.0
    # 10^(-3.0103/10) evaluated directly
    assert db_to_linear(-3.0103) == pytest.approx(0.5, abs=1e-7)


def test_db_requires_positive_input():
    with pytest.raises(ValueError):
        linear_to_db(0.0)
    with pytest.raises(ValueError):
        linear_to_db(-0.1)


def test_db_round_trip_property():
    for x in np.logspace(-6, 0, 61):
        back = db_to_linear(linear_to_db(float(x)))
        assert abs(back - x) / x < 1e-12


def test_chained_db_equals_multiplied_linear():
    rng = np.random.default_rng(7)
    for _ in range(25):
        etas = rng.uniform(0.05, 1.0, size=rng.integers(2, 6))
        db_sum = sum(linear_to_db(float(e)) for e in etas)
        product = float(np.prod(etas))
        assert db_to_linear(db_sum) == pytest.approx(product, rel=1e-12)


def test_angular_ordinary_is_exactly_two_pi():
    for nu in (1.0, 940e9, 4.75e14):
        assert to_angular(nu) == 2.0 * math.pi * nu


def test_constants_are_codata_2018():
    assert CONSTANTS.c == 299792458.0
    assert CONSTANTS.hbar == pytest.approx(1.054571817e-34, rel=1e-9)
    assert CONSTANTS.eps0 == pytest.approx(8.8541878128e-12, rel=1e-10)
    # 1 Debye = 1e-21 / c in C m
    assert CONSTANTS.debye == pytest.approx(1e-21 / C0, rel=1e-9)
    with pytest.raises(Exception):
        CONSTANTS.c = 1.0  # frozen
