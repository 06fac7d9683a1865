"""Deterministic families of well-behaved test functions.

Every member is smooth, L2-normalized, and carries less than 1e-12 of its
mass within distance 2 of the domain boundary, so norm comparisons are not
polluted by truncation. Frequencies are kept within a unit-level band so the
same family works on the coarser dual grids that appear in grid-convergence
sweeps. Generators are deterministic given the seed.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import GridSpec, SampledFunction
from .windows import bump, gaussian, hermite_basis_matrix, plateau

__all__ = ["test_family", "random_smooth", "random_band_limited", "FAMILY_NAMES"]


def _normalized(f: SampledFunction) -> SampledFunction:
    n = f.norm2()
    return f * (1.0 / n)


@functools.lru_cache(maxsize=16)
def _band_basis(grid: GridSpec, n_freq: int) -> np.ndarray:
    """Read-only (N, n_freq) basis exp(2 pi i x k dxi) of the lowest frequencies."""
    x = grid.axis_points()
    dxi = grid.dual().spacing
    ks = np.arange(-(n_freq // 2), n_freq // 2)
    basis = np.exp(2j * np.pi * dxi * np.outer(x, ks))
    basis.flags.writeable = False
    return basis


def _band_limited_values(grid: GridSpec, rng: np.random.Generator, n_freq: int = 32) -> np.ndarray:
    """Sample values of :func:`random_band_limited`, drawn in the same order."""
    basis = _band_basis(grid, n_freq)
    k = basis.shape[1]
    vals = basis @ (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    if grid.dim == 2:
        vals = np.outer(vals, basis @ (rng.standard_normal(k) + 1j * rng.standard_normal(k)))
    return vals


def random_band_limited(grid: GridSpec, rng: np.random.Generator, n_freq: int = 32) -> SampledFunction:
    """Random complex coefficients on the lowest ``n_freq`` frequencies of the
    grid, drawn from ``rng`` (a tensor product of two such sums for d=2)."""
    return SampledFunction(grid, _band_limited_values(grid, rng, n_freq))


def random_smooth(grid: GridSpec, seed: int, n_freq: int = 32) -> SampledFunction:
    """Seeded random band-limited function under a wide plateau envelope."""
    f = random_band_limited(grid, np.random.default_rng(seed), n_freq)
    env = plateau(grid, 0.375 * grid.half_width, 0.5 * grid.half_width)
    return _normalized(f * env)


def test_family(grid: GridSpec, seed: int = 0, small: bool = False) -> list:
    """Named (name, function) pairs; ``small`` keeps one member per kind."""
    if grid.dim != 1:
        raise ValueError("the standard family is one-dimensional")
    x = grid.axis_points()
    out = []

    dilations = (1.0,) if small else (0.25, 0.5, 1.0, 2.0, 4.0)
    for a in dilations:
        out.append((f"gauss_a{a:g}", _normalized(gaussian(grid, a=a))))

    shifts = ((1.0, None), (2.0, None), (0.0, 1.0), (2.0, 1.0)) if not small else ((2.0, 1.0),)
    for x0, xi0 in shifts:
        name = f"gauss_t{x0:g}" + (f"m{xi0:g}" if xi0 else "")
        out.append((name, _normalized(gaussian(grid, a=1.0, center=x0, freq=xi0))))

    widths = (2.0,) if small else (1.0, 2.0, 4.0)
    for w in widths:
        out.append((f"bump_w{w:g}", _normalized(bump(grid, radius=w))))

    n_herm = 2 if small else 8
    basis = hermite_basis_matrix(grid, n_herm)
    for n in range(n_herm):
        out.append((f"hermite_{n}", SampledFunction(grid, basis[n])))

    env = plateau(grid, 0.375 * grid.half_width, 0.5 * grid.half_width)
    slopes = (0.25,) if small else (0.125, 0.25)
    for c in slopes:
        chirp = np.exp(1j * np.pi * c * x**2) * env.values
        out.append((f"chirp_c{c:g}", _normalized(SampledFunction(grid, chirp))))

    n_rand = 1 if small else 3
    for i in range(n_rand):
        out.append((f"randbl_{i}", random_smooth(grid, seed * 1000 + i)))
    return out


# The name starts with ``test_``; keep pytest from collecting it when imported.
test_family.__test__ = False


FAMILY_NAMES = [name for name, _ in test_family(GridSpec(1, 16.0, 64))]
