import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfnorm.grid import GridSpec, SampledFunction, translate
from tfnorm.transforms import (
    approx_identity_gn,
    convolve,
    flp_norm,
    fourier,
    hermite_projector,
    inverse_fourier,
    transform_axes,
)
from tfnorm.norms import lp_norm
from tfnorm.weights import make_power_weight
from tfnorm.windows import bump, bump_profile, gaussian, hermite_basis_matrix, hermite_function

from oracles import direct_convolve, direct_fourier


def test_gaussian_self_duality(grid):
    # closed form: F(exp(-pi t^2)) = exp(-pi xi^2)
    f = gaussian(grid)
    ff = fourier(f)
    xi = ff.grid.axis_points()
    assert np.max(np.abs(ff.values - np.exp(-np.pi * xi**2))) <= 1e-8


def test_fourier_zero(grid):
    z = SampledFunction(grid, np.zeros(grid.n))
    assert np.all(fourier(z).values == 0)


def test_fourier_matches_direct_quadrature():
    g = GridSpec(1, 16.0, 256)
    f = gaussian(g, a=0.7, center=1.0, freq=1.0)
    fast = fourier(f)
    slow = direct_fourier(f)
    rel = np.max(np.abs(fast.values - slow.values)) / np.max(np.abs(slow.values))
    assert rel < 1e-9


def test_translation_covariance_via_oracle():
    g = GridSpec(1, 16.0, 256)
    f = gaussian(g, a=1.0)
    lhs = fourier(translate(f, 1.0))
    xi = g.dual().axis_points()
    rhs = direct_fourier(f).values * np.exp(-2j * np.pi * xi * 1.0)
    assert np.max(np.abs(lhs.values - rhs)) < 1e-9


def test_parseval_exact(grid, family):
    for _, f in family:
        assert abs(fourier(f).norm2() - f.norm2()) <= 1e-10 * f.norm2()


def test_roundtrip(grid, family):
    for _, f in family:
        back = inverse_fourier(fourier(f))
        assert (back - f).norm2() <= 1e-10 * f.norm2()


def test_inverse_fourier_linearity(grid):
    # linear to rounding: the FFT evaluates the same sums in another order
    f = fourier(gaussian(grid, a=1.0))
    g = fourier(gaussian(grid, a=2.0, center=1.0))
    lhs = inverse_fourier(SampledFunction(f.grid, 2.0 * f.values + 3j * g.values))
    rhs = 2.0 * inverse_fourier(f) + 3j * inverse_fourier(g)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-13


def test_convolve_with_unit_mass_spike(grid):
    f = gaussian(grid)
    spike = np.zeros(grid.n)
    spike[grid.n // 2] = 1.0 / grid.spacing  # unit quadrature mass at 0
    conv = convolve(f, SampledFunction(grid, spike))
    assert (conv - f).norm2() / f.norm2() < 1e-12


def test_convolution_of_gaussians_closed_form(grid):
    a, b = 1.0, 2.0
    conv = convolve(gaussian(grid, a=a), gaussian(grid, a=b))
    x = grid.axis_points()
    closed = np.sqrt(a * b / (a + b)) * np.exp(-np.pi * x**2 / (a + b))
    assert np.max(np.abs(conv.values - closed)) < 1e-12


def test_convolve_matches_direct():
    g = GridSpec(1, 16.0, 256)
    f1 = gaussian(g, a=0.5, center=-1.0)
    f2 = bump(g, radius=2.0)
    fast = convolve(f1, f2)
    slow = direct_convolve(f1, f2)
    rel = np.max(np.abs(fast.values - slow.values)) / np.max(np.abs(slow.values))
    assert rel < 1e-9


def test_young_inequality_l1(grid):
    f = gaussian(grid, a=0.5, center=1.0)
    g = bump(grid, radius=1.0)
    lhs = lp_norm(convolve(f, g), 1.0)
    assert lhs <= lp_norm(f, 1.0) * lp_norm(g, 1.0) + 1e-9


def test_convolution_theorem(grid):
    f = gaussian(grid, a=1.0)
    g = gaussian(grid, a=2.0, center=0.5)
    lhs = fourier(convolve(f, g))
    rhs = fourier(f).values * fourier(g).values
    assert np.max(np.abs(lhs.values - rhs)) / np.max(np.abs(rhs)) < 1e-8


def test_flp_norm_roundtrip(grid):
    f = gaussian(grid, a=1.5, center=0.5)
    w = make_power_weight(1.0)
    assert flp_norm(fourier(f), 2.0, w) == pytest.approx(lp_norm(f, 2.0, w), rel=1e-9)


def test_flp_norm_zero_and_gaussian(grid):
    z = SampledFunction(grid, np.zeros(grid.n))
    assert flp_norm(z, 1.0) == 0.0
    # self-dual Gaussian: FL^1 norm equals the L^1 norm
    g = gaussian(grid)
    assert flp_norm(g, 1.0) == pytest.approx(lp_norm(g, 1.0), rel=1e-8)


def test_smoothing_pair_normalization(grid):
    chi = bump(grid, radius=0.5, normalize="mass")
    assert chi.values.real.sum() * grid.spacing == pytest.approx(1.0, abs=1e-10)
    phi = gaussian(grid)
    assert phi.values[grid.n // 2] == pytest.approx(1.0, abs=1e-10)


def test_approx_identity_converges(grid):
    f = gaussian(grid, a=1.0)
    errs = [
        (approx_identity_gn(f, n) - f).norm2() / f.norm2() for n in (1, 2, 4, 8)
    ]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert errs[-1] < 1e-2


def test_approx_identity_zero(grid):
    z = SampledFunction(grid, np.zeros(grid.n))
    assert approx_identity_gn(z, 4).norm2() == 0.0


def test_approx_identity_rejects_bad_n(grid):
    with pytest.raises(ValueError):
        approx_identity_gn(gaussian(grid), 0)


def test_hermite_orthonormal(grid):
    basis = hermite_basis_matrix(grid, 64)
    gram = basis @ basis.T * grid.spacing
    assert np.max(np.abs(gram - np.eye(64))) < 1e-10


def test_hermite_fourier_eigenfunctions(grid):
    # under this convention h_n is an eigenfunction with eigenvalue (-i)^n
    for n in range(5):
        h = hermite_function(grid, n)
        fh = fourier(h)
        assert np.max(np.abs(fh.values - (-1j) ** n * h.values)) < 1e-10


def test_projector_reproduces_basis_vector(grid):
    h0 = hermite_function(grid, 0)
    assert (hermite_projector(h0, 1) - h0).norm2() < 1e-8


def test_projector_annihilates_higher_modes(grid):
    h5 = hermite_function(grid, 5)
    assert hermite_projector(h5, 3).norm2() < 1e-8


def test_projector_error_decreases(grid):
    mix = gaussian(grid, a=0.5) + 0.5 * gaussian(grid, a=2.0, center=1.0)
    errs = [(hermite_projector(mix, n) - mix).norm2() for n in (4, 16, 64)]
    assert errs[0] > errs[1] > errs[2]


def test_projector_rejects_d2():
    g2 = GridSpec(2, 8.0, 32)
    with pytest.raises(ValueError):
        hermite_projector(gaussian(g2), 4)


def test_diagonal_schedule_decreases(grid, family_small):
    for name, f in family_small:
        errs = []
        for n, m in ((4, 1), (16, 2), (64, 4)):
            approx = hermite_projector(approx_identity_gn(f, m), n)
            errs.append((approx - f).norm2() / f.norm2())
        assert errs[0] + 1e-12 >= errs[1] >= errs[2] - 1e-12, (name, errs)


def test_fourier_d2_roundtrip_and_parseval():
    # N = 128 keeps the dual half-width at 4, below the Gaussian alias floor
    g2 = GridSpec(2, 8.0, 128)
    f = gaussian(g2, a=1.0, center=(0.5, -1.0))
    ff = fourier(f)
    assert abs(ff.norm2() - f.norm2()) <= 1e-12
    assert (inverse_fourier(ff) - f).norm2() <= 1e-12
    # separable closed form
    xi = ff.grid.axis_points()
    closed = np.exp(-np.pi * (xi[:, None] ** 2 + xi[None, :] ** 2)) * np.exp(
        -2j * np.pi * (0.5 * xi[:, None] - 1.0 * xi[None, :])
    )
    assert np.max(np.abs(ff.values - closed)) < 1e-10


@st.composite
def _stacks(draw):
    """A random (B, N) or (B, N, N) stack with the grid its rows live on."""
    dim = draw(st.sampled_from((1, 2)))
    n = 2 * draw(st.integers(1, 64 if dim == 1 else 16))
    grid = GridSpec(dim, draw(st.sampled_from((0.5, 3.0, 8.0, 16.0))), n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 4)),) + grid.shape
    return grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=40, deadline=None)
@given(_stacks())
def test_transform_axes_equals_the_transform_of_each_row(case):
    grid, stack = case
    for sign, one in ((-1, fourier), (+1, inverse_fourier)):
        batch = transform_axes(stack, grid.spacing, sign, grid.dim)
        for row, values in zip(batch, stack):
            assert np.array_equal(row, one(SampledFunction(grid, values)).values)


@settings(max_examples=40, deadline=None)
@given(_stacks())
def test_transform_axes_inverse_after_forward_is_identity(case):
    grid, stack = case
    spec = transform_axes(stack, grid.spacing, -1, grid.dim)
    back = transform_axes(spec, grid.dual().spacing, +1, grid.dim)
    assert np.max(np.abs(back - stack)) <= 1e-12 * np.max(np.abs(stack))
