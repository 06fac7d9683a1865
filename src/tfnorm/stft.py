"""Short-time Fourier transform, its adjoint, inversion and factorization checks.

The time-frequency grid is the (x-grid) x (dual-grid) product with no
oversampling, so the adjoint is the exact discrete transpose of the analysis
map up to the quadrature weights. For d=1 the analysis runs as one batched
FFT over all N window positions; d=2 transforms one shift at a time into the
one N^4-sample array and is only intended for small N. Both directions raise
:class:`TimeFrequencySizeError` before allocating an array above
``MAX_TF_BYTES`` (1 GiB; d=2 reaches it at N=128).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, SampledFunction, _shift_values
from .transforms import fourier, inverse_fourier, transform_axes

__all__ = [
    "TimeFrequencyArray",
    "stft",
    "adjoint_stft",
    "rank_one_tf",
    "check_inversion",
    "stft_factorization_residual",
    "IllConditionedWindowError",
    "TimeFrequencySizeError",
]


class IllConditionedWindowError(ValueError):
    """Raised when a window pair has a vanishing inner product."""


class TimeFrequencySizeError(ValueError):
    """The time-frequency array of the grid would exceed ``MAX_TF_BYTES``."""


#: largest time-frequency array (complex128, grid.size**2 samples) built
MAX_TF_BYTES = 2**30


def _check_tf_size(grid: GridSpec):
    nbytes = grid.size**2 * 16
    if nbytes > MAX_TF_BYTES:
        raise TimeFrequencySizeError(
            f"the time-frequency array of a {grid.dim}-D grid with N={grid.n} "
            f"needs {nbytes / 2**30:.1f} GiB, above the 1 GiB limit"
        )


def _shifts_2d(n: int):
    """Sample shifts of the d=2 time positions, in row order of the array."""
    return itertools.product(range(-(n // 2), n // 2), repeat=2)


@dataclass(frozen=True)
class TimeFrequencyArray:
    """Samples of V_g f on the product grid; values[x index, xi index]."""

    xgrid: GridSpec
    xigrid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        expected = (self.xgrid.size, self.xigrid.size)
        if vals.shape != expected:
            raise ValueError(f"values shape {vals.shape}, expected {expected}")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def norm2(self) -> float:
        """Quadrature L2 norm over the time-frequency plane."""
        w = (self.xgrid.cell_volume * self.xigrid.cell_volume) ** 0.5
        return float(np.linalg.norm(self.values) * w)

    def __mul__(self, c):
        return TimeFrequencyArray(self.xgrid, self.xigrid, self.values * c)

    __rmul__ = __mul__


def _window_matrix(window: np.ndarray) -> np.ndarray:
    """Rows m = 0..N-1 hold the window shifted to position x_m, zero filled.

    out[m, j] = window[j - (m - N/2)] where the index is in range, else 0.
    """
    n = len(window)
    gpad = np.zeros(2 * n, dtype=window.dtype)
    gpad[n // 2 : n // 2 + n] = window
    sw = np.lib.stride_tricks.sliding_window_view(gpad, n)
    # G[m, j] = gpad[j - m + n] -> row a = n - m of the sliding view
    return sw[1:][::-1]


def stft(f: SampledFunction, g: SampledFunction) -> TimeFrequencyArray:
    """V_g f(x, xi) = F[f . conj(T_x g)](xi) for every grid position x."""
    if f.grid != g.grid:
        raise ValueError("stft requires a common grid")
    if g.norm2() == 0.0:
        raise ValueError("stft window must be nonzero")
    grid = f.grid
    _check_tf_size(grid)
    if grid.dim == 1:
        frames = _window_matrix(np.conj(g.values)) * f.values[None, :]
        vals = transform_axes(frames, grid.spacing, -1, 1)
        return TimeFrequencyArray(grid, grid.dual(), vals)
    # d = 2: one transform per lattice shift, written into the one output array
    out = np.empty((grid.size, grid.size), dtype=np.complex128)
    gconj = np.conj(g.values)
    for row, counts in enumerate(_shifts_2d(grid.n)):
        frame = f.values * _shift_values(gconj, counts)
        out[row] = transform_axes(frame, grid.spacing, -1, 2).ravel()
    return TimeFrequencyArray(grid, grid.dual(), out)


def adjoint_stft(phi: TimeFrequencyArray, g: SampledFunction) -> SampledFunction:
    """V_g^* Phi(t): inverse transform in xi, then x-integration against g(t-x)."""
    if g.norm2() == 0.0:
        raise ValueError("adjoint window must be nonzero")
    if g.grid != phi.xgrid:
        raise ValueError("window must live on the time grid of the array")
    grid = phi.xgrid
    _check_tf_size(grid)
    spacing = phi.xigrid.spacing
    if grid.dim == 1:
        inner = transform_axes(phi.values, spacing, +1, 1)
        gm = _window_matrix(g.values)
        vals = grid.spacing * np.einsum("mj,mj->j", inner, gm)
        return SampledFunction(grid, vals)
    acc = np.zeros(grid.shape, dtype=np.complex128)
    for row, counts in enumerate(_shifts_2d(grid.n)):
        spec = transform_axes(phi.values[row].reshape(grid.shape), spacing, +1, 2)
        acc += spec * _shift_values(g.values, counts)
    return SampledFunction(grid, acc * grid.cell_volume)


def rank_one_tf(phi: SampledFunction, psi: SampledFunction) -> TimeFrequencyArray:
    """The elementary tensor phi (x) psi as a time-frequency array."""
    return TimeFrequencyArray(
        phi.grid, psi.grid, np.outer(phi.values.ravel(), psi.values.ravel())
    )


def check_inversion(
    f: SampledFunction, g1: SampledFunction, g2: SampledFunction
) -> float:
    """Relative L2 residual of V_{g1}^* V_{g2} f = (g1, g2) f.

    Raises :class:`IllConditionedWindowError` when (g1, g2) is numerically
    zero relative to the window norms.
    """
    ip = g1.inner(g2)
    scale = g1.norm2() * g2.norm2()
    if scale == 0.0 or abs(ip) < 1e-6 * scale:
        raise IllConditionedWindowError(
            f"window inner product {ip:.3e} is too small relative to norms"
        )
    nf = f.norm2()
    if nf == 0.0:
        return 0.0
    recon = adjoint_stft(stft(f, g2), g1)
    return (recon - ip * f).norm2() / nf


def stft_factorization_residual(f: SampledFunction, phi: SampledFunction) -> float:
    """Residual of the window-on-the-Fourier-side factorization of the STFT.

    With g = F^(-1) phi, compares V_g f(x, xi) against
    exp(-2 pi i x xi) F[Ff . T_xi phi](-x), both sides computed by
    independent FFT paths; returns max abs difference over the TF grid
    normalized by max |V_g f|.
    """
    if phi.grid != f.grid.dual():
        raise ValueError("phi must live on the dual grid of f")
    if phi.norm2() == 0.0:
        raise ValueError("phi must be nonzero")
    if f.grid.dim != 1:
        raise ValueError("implemented for d=1")
    g = inverse_fourier(phi)
    lhs = stft(f, g).values
    peak = np.max(np.abs(lhs))
    if peak == 0.0:
        return 0.0

    ff = fourier(f)
    frames = _window_matrix(phi.values) * ff.values[None, :]
    b = transform_axes(frames, ff.grid.spacing, -1, 1)  # b[k, i] = F[Ff.T_{xi_k}phi](x_i)
    n = f.grid.n
    refl = (n - np.arange(n)) % n  # index of -x_m (periodic alias at m = 0)
    x = f.grid.axis_points()
    xi = f.grid.dual().axis_points()
    rhs = np.exp(-2j * np.pi * np.outer(x, xi)) * b[:, refl].T
    return float(np.max(np.abs(lhs - rhs)) / peak)
