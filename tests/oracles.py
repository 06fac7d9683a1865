"""Slow reference implementations used as independent oracles.

Everything here evaluates the defining sums directly (dense matrices,
O(N^2) convolution, O(N^3) analysis), with no FFT shortcuts, so the fast
paths in the package can be checked against them.
"""

import math

import numpy as np

from tfnorm.bupu import make_integer_bupu
from tfnorm.grid import GridSpec, SampledFunction
from tfnorm.norms import INF0, AmalgamSpec
from tfnorm.spaces import C0Spec, FLpSpec
from tfnorm.stft import TimeFrequencyArray


def direct_fourier(f: SampledFunction) -> SampledFunction:
    g = f.grid
    assert g.dim == 1
    x = g.axis_points()
    xi = g.dual().axis_points()
    mat = np.exp(-2j * np.pi * np.outer(xi, x)) * g.spacing
    return SampledFunction(g.dual(), mat @ f.values)


def direct_inverse_fourier(f: SampledFunction) -> SampledFunction:
    g = f.grid
    assert g.dim == 1
    x = g.axis_points()
    xi = g.dual().axis_points()
    mat = np.exp(2j * np.pi * np.outer(xi, x)) * g.spacing
    return SampledFunction(g.dual(), mat @ f.values)


def direct_convolve(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    grid = f.grid
    assert grid.dim == 1
    n = grid.n
    out = np.zeros(n, dtype=complex)
    fv, gv = f.values, g.values
    for i in range(n):
        # out(x_i) = h * sum_m f(x_m) g(x_i - x_m); x_i - x_m needs index
        # i - m + N/2 inside [0, N)
        lo = max(0, i - n + n // 2 + 1)
        hi = min(n, i + n // 2 + 1)
        m = np.arange(lo, hi)
        out[i] = np.sum(fv[m] * gv[i - m + n // 2])
    return SampledFunction(grid, out * grid.spacing)


def direct_stft(f: SampledFunction, g: SampledFunction) -> TimeFrequencyArray:
    grid = f.grid
    assert grid.dim == 1
    n = grid.n
    x = grid.axis_points()
    xi = grid.dual().axis_points()
    vals = np.zeros((n, n), dtype=complex)
    gv = g.values
    kernel = np.exp(-2j * np.pi * np.outer(x, xi))  # kernel[t, xi]
    for m in range(n):
        shift = m - n // 2
        win = np.zeros(n, dtype=complex)
        if shift >= 0:
            win[shift:] = gv[: n - shift]
        else:
            win[:shift] = gv[-shift:]
        frame = f.values * np.conj(win)
        vals[m, :] = frame @ kernel * grid.spacing
    return TimeFrequencyArray(grid, grid.dual(), vals)


def direct_adjoint_stft(phi: TimeFrequencyArray, g: SampledFunction) -> SampledFunction:
    grid = phi.xgrid
    assert grid.dim == 1
    n = grid.n
    x = grid.axis_points()
    xi = phi.xigrid.axis_points()
    gv = g.values
    out = np.zeros(n, dtype=complex)
    kernel = np.exp(2j * np.pi * np.outer(xi, x))  # kernel[xi, t]
    dxi = phi.xigrid.spacing
    for m in range(n):
        shift = m - n // 2
        win = np.zeros(n, dtype=complex)
        if shift >= 0:
            win[shift:] = gv[: n - shift]
        else:
            win[:shift] = gv[-shift:]
        inner = phi.values[m, :] @ kernel * dxi  # function of t
        out += inner * win
    return SampledFunction(grid, out * grid.spacing)


def _direct_inverse_transform(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """F^(-1) onto the dual grid by the defining sum, one axis at a time."""
    x = grid.axis_points()
    xi = grid.dual().axis_points()
    mat = np.exp(2j * np.pi * np.outer(xi, x)) * grid.spacing
    return mat @ values if grid.dim == 1 else mat @ values @ mat.T


def direct_amalgam_discrete(f: SampledFunction, a: AmalgamSpec) -> float:
    """Lattice amalgam norm by a plain loop over the partition's windows:
    the local norm of f times each full-grid window of ``Bupu.windows``,
    weighted at its lattice point, then the global l^p sum or sup."""
    grid = f.grid
    b = make_integer_bupu(grid)
    local = a.local
    p = math.inf if isinstance(local, C0Spec) else local.p
    coeffs = []
    for k, window in zip(b.lattice, b.windows):
        prod, carrier = f.values * window, grid
        if isinstance(local, FLpSpec):
            prod, carrier = _direct_inverse_transform(prod, grid), grid.dual()
        vals = np.abs(prod) * local.weight.eval_radius(carrier.radii())
        if p == math.inf:
            norm = float(vals.max())
        else:
            norm = float((vals**p).sum() * carrier.cell_volume) ** (1.0 / p)
        radius = np.hypot(*k) if len(k) == 2 else abs(k[0])
        coeffs.append(norm * float(a.glob.weight.eval_radius(radius)))
    if a.glob.p in (math.inf, INF0):
        return max(coeffs)
    return sum(c**a.glob.p for c in coeffs) ** (1.0 / a.glob.p)
