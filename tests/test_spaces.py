import numpy as np
import pytest

from tfnorm.evaluate import _local_spec
from tfnorm.identify.ast import nu_exponent, omega_exponent
from tfnorm.identify.parser import parse_space
from tfnorm.spaces import (
    C0Spec,
    FLpSpec,
    LpSpec,
    operator_norm_translation,
    weight_exponent,
)
from tfnorm.weights import ProductWeight, make_power_weight


def test_unweighted_translation_invariance(grid):
    spec = LpSpec(2.0, make_power_weight(0.0))
    for x0 in (0.5, 1.0, 4.0):
        assert operator_norm_translation(spec, x0, grid) == 1.0


def test_weighted_translation_growth(grid):
    # dense-grid oracle: sup of (1+|t+1|)/(1+|t|) over t is 2, attained at 0
    t = np.linspace(-16, 16, 200001)
    oracle = np.max((1 + np.abs(t + 1.0)) / (1 + np.abs(t)))
    spec = LpSpec(2.0, make_power_weight(1.0))
    assert operator_norm_translation(spec, 1.0, grid) == pytest.approx(oracle, abs=1e-6)
    assert operator_norm_translation(spec, 1.0, grid) == pytest.approx(2.0, abs=1e-6)


def test_reciprocal_weight_growth(grid):
    spec = LpSpec(1.0, make_power_weight(-1.0))
    assert operator_norm_translation(spec, 1.0, grid) == pytest.approx(2.0, abs=1e-6)


def test_closed_form_omega_matches_measurement(grid):
    # the AST's growth exponent is the measured one: translations on the
    # atom's spec grow like (1+|x0|)^|omega| on the grid, within 1%
    for text in ("L2", "L2[1]", "L2[-1]", "L2[2]", "C0[1]", "C0[-2]", "FL2[3]"):
        atom = parse_space(text)
        for x0 in (1.0, 2.0, 7.0):
            measured = operator_norm_translation(_local_spec(atom), x0, grid)
            expected = (1.0 + x0) ** abs(omega_exponent(atom))
            assert measured == pytest.approx(expected, rel=0.01), (text, x0)
    assert operator_norm_translation(_local_spec(parse_space("L2")), 7.0, grid) == 1.0


def test_fourier_side_translation_is_isometric(grid):
    spec = FLpSpec(2.0, make_power_weight(3.0))
    assert operator_norm_translation(spec, 2.0, grid) == 1.0
    # the growth moved to the modulation side: (1+1)^nu = 8 for FL2[3]
    assert (1.0 + 1.0) ** nu_exponent(parse_space("FL2[3]")) == pytest.approx(8.0)
    assert nu_exponent(parse_space("L2[3]")) == 0.0 == nu_exponent(parse_space("C0[3]"))


def test_c0_spec_growth(grid):
    spec = C0Spec(make_power_weight(1.0))
    assert operator_norm_translation(spec, 1.0, grid) == pytest.approx(2.0, abs=1e-6)


def test_weight_exponent_of_products():
    w = ProductWeight((make_power_weight(1.0), make_power_weight(-0.5)))
    assert weight_exponent(w) == pytest.approx(0.5)
    assert weight_exponent(None) == 0.0
