import numpy as np
import pytest

from tfnorm.grid import (
    GridSpec,
    SampledFunction,
    boundary_mass,
    modulate,
    shifted_out_mass,
    translate,
)
from tfnorm.transforms import fourier
from tfnorm.windows import gaussian


def test_grid_derived_quantities(grid):
    assert grid.spacing * grid.n == 2 * grid.half_width
    assert grid.spacing == 1 / 32
    x = grid.axis_points()
    assert x[0] == -16.0
    assert x[-1] == 16.0 - grid.spacing


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 16.0, 1023)  # odd
    with pytest.raises(ValueError):
        GridSpec(3, 16.0, 64)
    with pytest.raises(ValueError):
        GridSpec(1, -1.0, 64)
    for width in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            GridSpec(1, width, 64)


def test_dual_grid_roundtrip(grid):
    dual = grid.dual()
    assert dual.spacing == pytest.approx(1 / (2 * grid.half_width))
    assert dual.dual() == grid
    assert dual.spacing * dual.n == pytest.approx(1 / grid.spacing)


def test_quadrature_consistency(grid):
    # L2 norm via quadrature equals h^(1/2) times the l2 norm of values, exactly
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    f = SampledFunction(grid, vals)
    assert f.norm2() == np.sqrt(grid.spacing) * np.linalg.norm(vals)


def test_sampled_function_immutable(grid):
    f = gaussian(grid)
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    with pytest.raises(AttributeError):
        f.values = None


def test_sampled_function_rejects_bad_values(grid):
    with pytest.raises(ValueError):
        SampledFunction(grid, np.ones(grid.n - 1))
    bad = np.ones(grid.n)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        SampledFunction(grid, bad)


def test_translate_identity_and_spike(grid):
    f = gaussian(grid)
    assert np.array_equal(translate(f, 0.0).values, f.values)

    spike = np.zeros(grid.n)
    spike[grid.n // 2] = 1.0  # at x = 0
    s = SampledFunction(grid, spike)
    moved = translate(s, grid.spacing)
    assert moved.values[grid.n // 2 + 1] == 1.0
    assert moved.values[grid.n // 2] == 0.0


def test_translate_preserves_l2_up_to_boundary_loss(grid):
    f = gaussian(grid)
    assert shifted_out_mass(f, 1.0) < 1e-12
    g = translate(f, 1.0)
    assert g.norm2() == pytest.approx(f.norm2(), rel=1e-8)


def test_translate_rejects_fractional_shift(grid):
    with pytest.raises(ValueError, match="not grid-aligned"):
        translate(gaussian(grid), grid.spacing / 3)


def test_translate_warns_on_boundary_loss(grid):
    f = gaussian(grid, a=2.0, center=14.0)
    with pytest.warns(UserWarning, match="discards relative L2 mass"):
        translate(f, 4.0)


@pytest.mark.parametrize("offset", [32.0, 40.0, -40.0, 64.0, 80.0])
def test_translate_beyond_the_domain_is_zero(offset):
    # a shift of N to 2N samples (40.0 is 320 of 256) moves every sample out
    f = gaussian(GridSpec(1, 16.0, 256))
    with pytest.warns(UserWarning, match="discards relative L2 mass"):
        moved = translate(f, offset)
    assert not np.any(moved.values)


def test_modulate_identity_and_modulus(grid):
    f = gaussian(grid)
    assert np.array_equal(modulate(f, 0.0).values, f.values)
    m = modulate(f, 2.0)
    assert np.allclose(np.abs(m.values), np.abs(f.values))


def test_modulate_rejects_off_grid_frequency(grid):
    with pytest.raises(ValueError, match="not aligned"):
        modulate(gaussian(grid), 0.7 * grid.dual().spacing)


def test_modulate_is_translation_after_fourier(grid):
    f = gaussian(grid)
    lhs = fourier(modulate(f, 2.0))
    rhs = translate(fourier(f), 2.0)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


def test_boundary_mass(grid):
    assert boundary_mass(gaussian(grid)) < 1e-12
    wide = gaussian(grid, a=2.0, center=15.0)
    assert boundary_mass(wide) > 0.1


def test_d2_grid_and_shifts():
    g2 = GridSpec(2, 8.0, 64)
    f = gaussian(g2, a=1.0)
    assert f.values.shape == (64, 64)
    t = translate(f, (1.0, -2.0))
    assert t.norm2() == pytest.approx(f.norm2(), rel=1e-10)
    m = modulate(f, (1.0, 0.5))
    assert np.allclose(np.abs(m.values), np.abs(f.values))
