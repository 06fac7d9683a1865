"""Fourier transform, convolution, FL^p norms and finite-rank smoothing.

The transform convention is F f(xi) = integral exp(-2 pi i x.xi) f(x) dx.
On a grid with points x_j = -L + j h the transform is sampled at the dual
points xi_k = k/(2L), k = -N/2 .. N/2-1. Substituting the points gives, per
axis and with array index i = k + N/2,

    F f(xi_k) = h (-1)^(i - N/2) FFT[(-1)^j f_j](i),

so the whole transform is two diagonal phase multiplications around one FFT.
That kernel is ``transform_axes``; it acts on the last d axes of any array,
so a stack of functions is transformed in one call, bit for bit as one
function at a time. Parseval then holds exactly in exact arithmetic (h N dxi = 1), and both
``fourier`` and ``inverse_fourier`` map a grid to its dual; since the dual of
the dual is the original grid, inverse_fourier(fourier(f)) lands back on f's
grid and equals f to machine precision.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, SampledFunction
from .weights import Weight
from .windows import bump_profile, gaussian, hermite_basis_matrix

__all__ = [
    "transform_axes",
    "fourier",
    "inverse_fourier",
    "convolve",
    "flp_norm",
    "approx_identity_gn",
    "hermite_projector",
]


def transform_axes(values: np.ndarray, spacing: float, sign: int, ndim: int) -> np.ndarray:
    """Phase-corrected FFT over the last ``ndim`` axes; leading axes are a batch.

    ``sign`` -1 is the forward transform, +1 the inverse; ``spacing`` is the
    sample spacing of the input grid. Returns a fresh array.
    """
    n = values.shape[-1]
    axes = tuple(range(-ndim, 0))
    phase_in = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)  # (-1)^j
    if ndim == 2:
        phase_in = np.outer(phase_in, phase_in)
    phase_out = phase_in * (1.0 if (n // 2) % 2 == 0 else -1.0) ** ndim  # (-1)^(i - N/2)
    if sign < 0:
        spec = np.fft.fftn(values * phase_in, axes=axes)
    else:
        spec = np.fft.ifftn(values * phase_in, axes=axes)
        spec *= n**ndim
    spec *= phase_out
    spec *= spacing**ndim
    return spec


def fourier(f: SampledFunction) -> SampledFunction:
    """Forward transform sampled on the dual grid."""
    g = f.grid
    return SampledFunction(g.dual(), transform_axes(f.values, g.spacing, -1, g.dim))


def inverse_fourier(f: SampledFunction) -> SampledFunction:
    """Inverse transform sampled on the dual grid (round trips to identity)."""
    g = f.grid
    return SampledFunction(g.dual(), transform_axes(f.values, g.spacing, +1, g.dim))


def convolve(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Linear (zero-padded, non-circular) convolution scaled by h^d.

    Both inputs live on the same grid; the result is truncated back to it.
    Mass of the product that would land outside [-L, L)^d is discarded,
    consistent with the zero-fill translation semantics.
    """
    if f.grid != g.grid:
        raise ValueError("convolve requires a common grid")
    n = f.grid.n
    d = f.grid.dim
    shape = (2 * n,) * d
    axes = tuple(range(d))
    spec = np.fft.fftn(f.values, s=shape, axes=axes) * np.fft.fftn(
        g.values, s=shape, axes=axes
    )
    full = np.fft.ifftn(spec, axes=axes)
    # full[m] = sum_j f_j g_{m-j}; the output point x_i needs m = i + N/2
    sl = tuple(slice(n // 2, n // 2 + n) for _ in range(d))
    return SampledFunction(f.grid, full[sl] * f.grid.cell_volume)


def flp_norm(u: SampledFunction, p: float, w: Weight | None = None) -> float:
    """FL^p_w norm: weighted L^p norm of the inverse transform of u,
    computed with the dual grid's quadrature."""
    from .norms import lp_norm

    return lp_norm(inverse_fourier(u), p, w)


def _mollifier(grid: GridSpec, n: int) -> SampledFunction:
    """chi_n(x) = n^d chi(n x) for the unit-mass bump chi on (-1/2, 1/2)^d.

    Each scale is renormalized to unit quadrature mass on the grid so that
    the smoothing operator reproduces constants exactly at every n.
    """
    x = grid.axis_points()
    prof = bump_profile(2.0 * n * x)
    if grid.dim == 2:
        vals = prof[:, None] * prof[None, :]
    else:
        vals = prof
    mass = vals.sum() * grid.cell_volume
    if mass <= 0:
        raise ValueError(f"mollifier scale n={n} is below grid resolution")
    return SampledFunction(grid, vals / mass)


def approx_identity_gn(f: SampledFunction, n: int) -> SampledFunction:
    """Smoothing operator chi_n * (phi_n . f).

    chi is the unit-mass bump supported in (-1/2, 1/2)^d and phi the standard
    Gaussian exp(-pi |x|^2), so phi(0) = 1; chi_n(x) = n^d chi(nx)
    concentrates while phi_n(x) = phi(x/n) flattens, and the output converges
    to f as n grows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    grid = f.grid
    chi_n = _mollifier(grid, n)
    if grid.dim == 1:
        r2 = grid.axis_points() ** 2
    else:
        r2 = np.sum(grid.points() ** 2, axis=-1)
    phi_n = np.exp(-np.pi * r2 / float(n) ** 2)
    return convolve(chi_n, SampledFunction(grid, phi_n * f.values))


def hermite_projector(f: SampledFunction, n: int) -> SampledFunction:
    """Orthogonal projection onto the span of the first n Hermite functions.

    Coefficients are L2 inner products by grid quadrature; d=1 only.
    """
    if f.grid.dim != 1:
        raise ValueError("hermite_projector supports d=1 only")
    if n < 1:
        raise ValueError("n must be >= 1")
    basis = hermite_basis_matrix(f.grid, n)
    coeff = basis @ f.values * f.grid.cell_volume
    return SampledFunction(f.grid, coeff @ basis)
