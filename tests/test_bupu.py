import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfnorm.bupu import Bupu, fl1_nu_norm, make_integer_bupu, validate_bupu
from tfnorm.grid import GridSpec, SampledFunction, translate
from tfnorm.weights import make_power_weight
from tfnorm.windows import bump


def test_partition_sums_to_one(bupu):
    interior = bupu.interior_mask()
    defect = np.abs(bupu.partition_sum() - 1.0)[interior]
    assert defect.max() <= 1e-12


def test_base_window_range_and_support(grid, bupu):
    vals = bupu.base.values.real
    assert vals.min() >= 0.0
    assert vals.max() <= 1.0
    outside = np.abs(grid.axis_points()) >= 1.0
    assert np.all(vals[outside] == 0.0)


def test_window_values_at_integers(grid, bupu):
    # phi(0) + phi_{+-1}(0) = 1 and phi(+-1) = 0
    i0 = grid.n // 2
    step = int(round(1.0 / grid.spacing))
    base = bupu.base.values.real
    total = base[i0] + bupu.window((1,)).values.real[i0] + bupu.window((-1,)).values.real[i0]
    assert total == pytest.approx(1.0, abs=1e-12)
    assert base[i0 + step] == 0.0 and base[i0 - step] == 0.0


def test_overlap_bound(bupu):
    rep = validate_bupu(bupu)
    assert rep.overlap_bound <= 2


def test_rejects_incompatible_spacing():
    with pytest.raises(ValueError, match="does not divide 1"):
        make_integer_bupu(GridSpec(1, 10.0, 1024))  # spacing 5/256


def test_validation_passes_canonical(bupu):
    rep = validate_bupu(bupu, make_power_weight(0.0))
    assert rep.passed
    assert rep.max_partition_defect <= 1e-12
    assert rep.support_violation_count == 0
    assert np.isfinite(rep.norm_bound)


def test_validation_fails_scaled_partition(grid, bupu):
    halved = Bupu(grid, bupu.base * 0.5, bupu.lattice_radius)
    rep = validate_bupu(halved)
    assert not rep.passed
    assert rep.max_partition_defect == pytest.approx(0.5, abs=1e-12)


def test_validation_fails_widened_support(grid, bupu):
    wide = bump(grid, radius=2.0, normalize="peak") * 0.5
    rep = validate_bupu(Bupu(grid, wide, bupu.lattice_radius))
    assert not rep.passed
    assert rep.support_violation_count > 0


def test_fl1_norm_zero(grid):
    z = SampledFunction(grid, np.zeros(grid.n))
    assert fl1_nu_norm(z) == 0.0


def test_fl1_norm_peak_lower_bound(bupu):
    # ||F^-1 phi||_1 >= |phi(0)| = peak value of the window
    m = fl1_nu_norm(bupu.base)
    assert m >= np.max(np.abs(bupu.base.values)) - 1e-12


def test_fl1_norm_translation_invariant(grid, bupu):
    m0 = fl1_nu_norm(bupu.base)
    mk = fl1_nu_norm(translate(bupu.base, 3.0))
    assert mk == pytest.approx(m0, rel=1e-9)


def test_fl1_norm_constant_over_lattice(bupu):
    vals = [fl1_nu_norm(bupu.window((k,))) for k in (-8, -1, 0, 5)]
    assert max(vals) / min(vals) <= 1.0 + 1e-9


def test_aliasing_guard_warns_on_rough_window(grid):
    # a sharp cutoff has slowly decaying spectrum: the guard must fire
    vals = (np.abs(grid.axis_points()) < 1.0).astype(float)
    with pytest.warns(UserWarning, match="spectral tail"):
        fl1_nu_norm(SampledFunction(grid, vals))


def test_spectral_decay_proxy(grid, bupu):
    # the smooth bump has superpolynomial decay: |F^-1 phi|(1+|xi|)^4 bounded
    from tfnorm.transforms import inverse_fourier

    spec = inverse_fourier(bupu.base)
    r = spec.grid.radii()
    weighted = np.abs(spec.values) * (1.0 + r) ** 4
    assert weighted.max() <= 10.0 * np.abs(spec.values).max()


def test_d2_partition():
    g2 = GridSpec(2, 8.0, 128)
    b2 = make_integer_bupu(g2)
    interior = b2.interior_mask()
    assert np.abs(b2.partition_sum() - 1.0)[interior].max() <= 1e-12
    rep = validate_bupu(b2)
    assert rep.overlap_bound <= 4
    assert rep.passed


@st.composite
def _grids_with_integer_lattice(draw):
    """Grids whose spacing 1/m divides 1: N = 2 L m samples per axis."""
    dim = draw(st.sampled_from((1, 2)))
    half_width = draw(st.sampled_from((2.5, 3.0, 4.0, 6.0, 8.0) if dim == 1 else (2.5, 3.0, 4.0)))
    per_unit = draw(st.sampled_from(tuple(m for m in (2, 4, 6, 8) if 2 * half_width * m <= 128)))
    return GridSpec(dim, half_width, int(2 * half_width * per_unit))


@settings(max_examples=25, deadline=None)
@given(_grids_with_integer_lattice())
def test_window_stack_is_a_partition_of_unity_in_lattice_order(grid):
    b = make_integer_bupu(grid)
    stack = b.windows
    assert stack.shape == (len(b.lattice),) + grid.shape
    assert stack.dtype == np.float64 and not stack.flags.writeable
    assert np.max(np.abs(stack.sum(axis=0) - 1.0)[b.interior_mask()], initial=0.0) <= 1e-12
    for i, k in enumerate(b.lattice):
        assert np.array_equal(stack[i], b.window(k).values)


def test_window_outside_the_lattice_is_zero():
    b = make_integer_bupu(GridSpec(2, 4.0, 32))
    r = b.lattice_radius
    assert b.window((0, 0)).values.shape == (32, 32)
    assert not np.any(b.window((r + 1, 0)).values)
    assert not np.any(b.window((-r, -r - 3)).values)
    with pytest.raises(ValueError, match="2 component"):
        b.window((0,))
