import numpy as np
import pytest

from tfnorm.grid import GridSpec, SampledFunction, modulate, translate
from tfnorm.norms import mixed_norm
from tfnorm.stft import (
    MAX_TF_BYTES,
    IllConditionedWindowError,
    TimeFrequencyArray,
    TimeFrequencySizeError,
    adjoint_stft,
    check_inversion,
    rank_one_tf,
    stft,
    stft_factorization_residual,
)
from tfnorm.transforms import convolve, fourier, inverse_fourier
from tfnorm.windows import bump, gaussian, hermite_function, normalized_gaussian, plateau

from oracles import direct_adjoint_stft, direct_stft


def test_gaussian_stft_closed_form(grid, gauss_window):
    # |V_g g| = exp(-pi (x^2 + xi^2)/2) for the L2-normalized Gaussian
    v = stft(gauss_window, gauss_window)
    x = grid.axis_points()
    xi = grid.dual().axis_points()
    closed = np.exp(-np.pi * (x[:, None] ** 2 + xi[None, :] ** 2) / 2.0)
    assert np.max(np.abs(np.abs(v.values) - closed)) <= 1e-6


def test_stft_zero_function(grid, gauss_window):
    z = SampledFunction(grid, np.zeros(grid.n))
    assert np.all(stft(z, gauss_window).values == 0)


def test_stft_rejects_zero_window(grid):
    z = SampledFunction(grid, np.zeros(grid.n))
    with pytest.raises(ValueError):
        stft(gaussian(grid), z)


def test_stft_covariance(grid, gauss_window):
    # |V_g(M_b T_a f)| is |V_g f| shifted by (a, b) on the TF grid
    f = gauss_window
    v0 = np.abs(stft(f, gauss_window).values)
    va = np.abs(stft(modulate(translate(f, 1.0), 2.0), gauss_window).values)
    sx = int(round(1.0 / grid.spacing))
    sxi = int(round(2.0 / grid.dual().spacing))
    shifted = np.zeros_like(v0)
    shifted[sx:, sxi:] = v0[:-sx, :-sxi]
    assert np.max(np.abs(va - shifted)) < 1e-10


def test_stft_matches_direct_quadrature():
    g = GridSpec(1, 16.0, 128)
    f = gaussian(g, a=0.8, center=0.5)
    w = normalized_gaussian(g)
    fast = stft(f, w)
    slow = direct_stft(f, w)
    rel = np.max(np.abs(fast.values - slow.values)) / np.max(np.abs(slow.values))
    assert rel < 1e-9


def test_adjoint_matches_direct_quadrature():
    g = GridSpec(1, 16.0, 128)
    w = normalized_gaussian(g)
    phi = rank_one_tf(gaussian(g, a=1.5), fourier(gaussian(g, a=0.5)))
    fast = adjoint_stft(phi, w)
    slow = direct_adjoint_stft(phi, w)
    assert (fast - slow).norm2() / slow.norm2() < 1e-9


def test_adjoint_zero(grid, gauss_window):
    z = TimeFrequencyArray(grid, grid.dual(), np.zeros((grid.n, grid.n)))
    assert adjoint_stft(z, gauss_window).norm2() == 0.0


def test_adjoint_rank_one_identity(grid, gauss_window):
    # V_g^*(phi ox psi) = (F^(-1) psi) . (phi * g), two independent paths
    phi = gaussian(grid, a=1.5, center=0.5)
    psi = fourier(gaussian(grid, a=0.7, center=-0.25))
    lhs = adjoint_stft(rank_one_tf(phi, psi), gauss_window)
    rhs = SampledFunction(
        grid, inverse_fourier(psi).values * convolve(phi, gauss_window).values
    )
    assert (lhs - rhs).norm2() / rhs.norm2() <= 1e-7


def test_inversion_residual(grid, gauss_window, family_small):
    for name, f in family_small:
        assert check_inversion(f, gauss_window, gauss_window) <= 1e-6, name


def test_inversion_two_windows(grid, gauss_window):
    g2 = bump(grid, radius=2.0, normalize="peak")
    f = gaussian(grid, a=2.0, center=1.0)
    assert check_inversion(f, gauss_window, g2) <= 1e-6


def test_inversion_zero_function(grid, gauss_window):
    z = SampledFunction(grid, np.zeros(grid.n))
    assert check_inversion(z, gauss_window, gauss_window) == 0.0


def test_inversion_flags_orthogonal_windows(grid, gauss_window):
    h1 = hermite_function(grid, 1)  # odd, orthogonal to the Gaussian by parity
    with pytest.raises(IllConditionedWindowError):
        check_inversion(gaussian(grid), gauss_window, h1)


def test_moyal_orthogonality(grid, gauss_window, family_small):
    for name, f in family_small:
        v = stft(f, gauss_window)
        target = f.norm2() * gauss_window.norm2()
        assert abs(v.norm2() - target) <= 1e-8 * target, name


def test_factorization_residual_gaussian(grid):
    phi = fourier(normalized_gaussian(grid))
    assert stft_factorization_residual(gaussian(grid), phi) <= 1e-7


def test_factorization_residual_chirp(grid):
    x = grid.axis_points()
    env = plateau(grid, 6.0, 8.0)
    chirp = SampledFunction(grid, np.exp(1j * np.pi * 0.25 * x**2) * env.values)
    phi = fourier(normalized_gaussian(grid))
    assert stft_factorization_residual(chirp, phi) <= 1e-6


def test_factorization_zero(grid):
    z = SampledFunction(grid, np.zeros(grid.n))
    phi = fourier(normalized_gaussian(grid))
    assert stft_factorization_residual(z, phi) == 0.0


def test_window_independence_of_norms(grid, family_small):
    # two admissible windows give comparable TF norms across the family
    g1 = normalized_gaussian(grid)
    g2 = bump(grid, radius=2.0, normalize="peak")
    g2 = g2 * (1.0 / g2.norm2())
    ratios = []
    for _, f in family_small:
        n1 = mixed_norm(stft(f, g1), 1.0, 1.0)
        n2 = mixed_norm(stft(f, g2), 1.0, 1.0)
        ratios.append(n1 / n2)
    assert max(ratios) / min(ratios) <= 10.0


def test_stft_refuses_an_oversized_grid_before_allocating(no_array_above_limit):
    g2 = GridSpec(2, 8.0, 128)  # 128^4 complex samples: 4 GiB
    f = gaussian(g2)
    with pytest.raises(TimeFrequencySizeError, match="4.0 GiB"):
        stft(f, f)


def test_adjoint_stft_refuses_an_oversized_grid(no_array_above_limit):
    g2 = GridSpec(2, 8.0, 128)
    phi = object.__new__(TimeFrequencyArray)  # stands in for an array never built
    for name, value in (("xgrid", g2), ("xigrid", g2.dual()), ("values", np.zeros((1, 1)))):
        object.__setattr__(phi, name, value)
    with pytest.raises(TimeFrequencySizeError):
        adjoint_stft(phi, gaussian(g2))


def test_d2_stft_inverts_and_keeps_the_norm():
    # the d=2 per-shift paths of stft and adjoint_stft, below the size limit
    g2 = GridSpec(2, 4.0, 24)
    f = gaussian(g2, a=1.0, center=(0.5, -0.5))
    g = normalized_gaussian(g2)
    assert check_inversion(f, g, g) <= 1e-10
    assert mixed_norm(stft(f, g), 2.0, 2.0) == pytest.approx(f.norm2(), rel=1e-12)
