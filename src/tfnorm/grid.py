"""Uniform grids on [-L, L)^d and complex sampled functions living on them.

Every norm and transform in the package runs on these carriers. A grid is
fixed by (dim, half_width, n); the spacing is h = 2L/N and the sample points
are x_j = -L + j*h per axis. Quadrature is the plain Riemann sum with weight
h^d, so the discrete L2 norm is exactly h^(d/2) times the l2 norm of the
sample values. Translation uses zero fill (linear, not circular, semantics)
and fractional shifts are rejected rather than interpolated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "SampledFunction",
    "translate",
    "modulate",
    "boundary_mass",
    "shifted_out_mass",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid over [-half_width, half_width)^dim with n samples per axis."""

    dim: int
    half_width: float
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not 0 < self.half_width < float("inf"):  # also refuses NaN
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")
        if self.n <= 0 or self.n % 2 != 0:
            raise ValueError(f"n must be a positive even integer, got {self.n}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.n

    @property
    def size(self) -> int:
        return self.n**self.dim

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        """Quadrature weight h^dim."""
        return self.spacing**self.dim

    def axis_points(self) -> np.ndarray:
        """Sample points along one axis: x_j = -L + j*h."""
        return -self.half_width + self.spacing * np.arange(self.n)

    def points(self) -> np.ndarray:
        """All sample points; shape (n,) for d=1, (n, n, 2) for d=2."""
        x = self.axis_points()
        if self.dim == 1:
            return x
        xx, yy = np.meshgrid(x, x, indexing="ij")
        return np.stack([xx, yy], axis=-1)

    def radii(self) -> np.ndarray:
        """Euclidean distance from the origin at every sample point."""
        if self.dim == 1:
            return np.abs(self.axis_points())
        p = self.points()
        return np.sqrt(p[..., 0] ** 2 + p[..., 1] ** 2)

    def dual(self) -> "GridSpec":
        """Frequency grid of the transform: spacing 1/(2L), n points per axis.

        The dual of the dual is the original grid.
        """
        return GridSpec(self.dim, self.n / (4.0 * self.half_width), self.n)


class SampledFunction:
    """Complex samples of a function on a :class:`GridSpec`.

    Values are stored as a read-only complex array of shape grid.shape.
    Arithmetic returns new instances; instances are safe to share.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: GridSpec, values):
        values = np.asarray(values, dtype=np.complex128)
        if values.size != grid.size:
            raise ValueError(
                f"values size {values.size} does not match grid size {grid.size}"
            )
        values = values.reshape(grid.shape).copy()
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("SampledFunction is immutable")

    def __add__(self, other: "SampledFunction") -> "SampledFunction":
        _check_same_grid(self, other)
        return SampledFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "SampledFunction") -> "SampledFunction":
        _check_same_grid(self, other)
        return SampledFunction(self.grid, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, SampledFunction):
            _check_same_grid(self, other)
            return SampledFunction(self.grid, self.values * other.values)
        return SampledFunction(self.grid, self.values * other)

    __rmul__ = __mul__

    def conj(self) -> "SampledFunction":
        return SampledFunction(self.grid, np.conj(self.values))

    def norm2(self) -> float:
        """Quadrature L2 norm: h^(d/2) * l2 norm of the values, exactly."""
        return float(np.linalg.norm(self.values.ravel()) * self.grid.cell_volume**0.5)

    def inner(self, other: "SampledFunction") -> complex:
        """Sesquilinear L2 inner product (f, g) = integral of f * conj(g)."""
        _check_same_grid(self, other)
        return complex(
            np.vdot(other.values.ravel(), self.values.ravel()) * self.grid.cell_volume
        )

    def pair(self, other: "SampledFunction") -> complex:
        """Bilinear distributional pairing <f, g> = integral of f * g."""
        _check_same_grid(self, other)
        return complex(
            np.sum(self.values.ravel() * other.values.ravel()) * self.grid.cell_volume
        )


def _check_same_grid(a: SampledFunction, b: SampledFunction):
    if a.grid != b.grid:
        raise ValueError(f"grid mismatch: {a.grid} vs {b.grid}")


def _shift_counts(grid: GridSpec, offset) -> tuple:
    """Integer sample counts of a grid-aligned offset; rejects fractional ones."""
    off = np.atleast_1d(np.asarray(offset, dtype=float))
    if off.size != grid.dim:
        raise ValueError(f"offset must have {grid.dim} component(s)")
    steps = off / grid.spacing
    rounded = np.round(steps)
    if np.max(np.abs(steps - rounded)) > 1e-9:
        raise ValueError(
            f"offset {offset} is not grid-aligned (spacing {grid.spacing}); "
            "fractional shifts are not supported"
        )
    return tuple(int(s) for s in rounded)


def _shift_values(values: np.ndarray, counts: tuple) -> np.ndarray:
    """Index shift with zero fill: out[j] = in[j - count] where defined."""
    return _shift_stack(values, np.asarray([counts]))[0]


def _shift_stack(values: np.ndarray, counts) -> np.ndarray:
    """Zero-filled shifts of ``values`` by every row of the (S, d) integer
    ``counts``, as one (S, *values.shape) gather."""
    n = values.shape[0]
    src = np.arange(n) - np.asarray(counts)[:, :, None]  # (S, d, n) source index
    src[(src < 0) | (src >= n)] = n  # the appended zero sample
    padded = np.zeros(tuple(m + 1 for m in values.shape), values.dtype)
    padded[(slice(n),) * values.ndim] = values
    if values.ndim == 1:
        return padded[src[:, 0]]
    return padded[src[:, 0, :, None], src[:, 1, None, :]]


def shifted_out_mass(f: SampledFunction, offset) -> float:
    """L2 mass that a grid-aligned translation would push out of the domain."""
    counts = _shift_counts(f.grid, offset)
    lost = 0.0
    vals = np.abs(f.values) ** 2
    for axis, c in enumerate(counts):
        if c == 0:
            continue
        sl = [slice(None)] * vals.ndim
        sl[axis] = slice(max(f.grid.n - c, 0), None) if c > 0 else slice(0, min(-c, f.grid.n))
        lost += float(vals[tuple(sl)].sum())
    return float(np.sqrt(lost * f.grid.cell_volume))


def translate(f: SampledFunction, offset, warn_mass: float = 1e-12) -> SampledFunction:
    """T_x f sampled: values shifted by x/h samples with zero fill.

    Emits a warning when the discarded boundary L2 mass exceeds ``warn_mass``
    relative to the norm of f (the loss is what makes the discrete operator
    differ from the continuum translation).
    """
    counts = _shift_counts(f.grid, offset)
    if warn_mass is not None and any(counts):
        lost = shifted_out_mass(f, offset)
        ref = f.norm2()
        if ref > 0 and lost > warn_mass * ref:
            warnings.warn(
                f"translate by {offset} discards relative L2 mass {lost / ref:.3e}",
                stacklevel=2,
            )
    return SampledFunction(f.grid, _shift_values(f.values, counts))


def modulate(f: SampledFunction, freq) -> SampledFunction:
    """M_xi f: pointwise multiplication by exp(2*pi*i x.xi).

    xi must be a multiple of the dual-grid spacing 1/(2L) per axis, so the
    modulation maps dual-grid-sampled transforms onto themselves.
    """
    fr = np.atleast_1d(np.asarray(freq, dtype=float))
    if fr.size != f.grid.dim:
        raise ValueError(f"freq must have {f.grid.dim} component(s)")
    dxi = f.grid.dual().spacing
    steps = fr / dxi
    if np.max(np.abs(steps - np.round(steps))) > 1e-9:
        raise ValueError(
            f"freq {freq} is not aligned with the dual grid (spacing {dxi})"
        )
    x = f.grid.axis_points()
    if f.grid.dim == 1:
        phase = np.exp(2j * np.pi * x * fr[0])
    else:
        phase = np.exp(2j * np.pi * x * fr[0])[:, None] * np.exp(
            2j * np.pi * x * fr[1]
        )[None, :]
    return SampledFunction(f.grid, f.values * phase)


def boundary_mass(f: SampledFunction, margin: float = 2.0) -> float:
    """L2 mass within ``margin`` of the domain boundary (truncation proxy)."""
    r = np.max(np.abs(f.grid.points()), axis=-1) if f.grid.dim == 2 else np.abs(
        f.grid.axis_points()
    )
    band = r >= f.grid.half_width - margin
    vals = np.abs(f.values) ** 2
    return float(np.sqrt(vals[band].sum() * f.grid.cell_volume))
