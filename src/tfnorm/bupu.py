"""Integer-lattice bounded uniform partitions of unity.

The canonical partition divides the bump b(x) = exp(-1/(1-x^2)) by the sum
of its integer translates; the quotient is smooth, supported exactly in
(-1, 1)^d, takes values in [0, 1], and its translates sum to 1 at every
interior grid point by construction. The lattice is Z^d intersected with
[-K, K]^d for K = ceil(L) + 1, beyond which every window misses the domain.

Amalgam norms do not depend on the partition up to equivalence, so the
package measures every function with the one canonical partition of its own
grid: ``make_integer_bupu(f.grid)``, built once per grid and cached. Every
window is the base window moved by an integer sample shift
(``Bupu.shifts``), so L^p norms and decompositions need only the base
and the shifts. The full read-only (K, *grid.shape) stack ``Bupu.windows``
is built on first use, for FL^p local norms (full-grid transforms) and for
sums and counts over the whole partition.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, SampledFunction, _shift_stack
from .transforms import inverse_fourier
from .weights import PowerWeight, Weight
from .windows import bump_profile

__all__ = [
    "Bupu",
    "SpacingError",
    "make_integer_bupu",
    "fl1_nu_norm",
    "validate_bupu",
    "BupuValidationReport",
]


class SpacingError(ValueError):
    """The grid spacing does not divide 1, so no integer-lattice partition
    of unity exists on the grid."""


@dataclass(frozen=True)
class Bupu:
    """Lattice partition of unity: base window plus its integer translates."""

    grid: GridSpec
    base: SampledFunction
    lattice_radius: int

    @property
    def lattice(self) -> list:
        """Lattice points as d-tuples of ints, in fixed lexicographic order."""
        rng = range(-self.lattice_radius, self.lattice_radius + 1)
        if self.grid.dim == 1:
            return [(k,) for k in rng]
        return list(itertools.product(rng, rng))

    @functools.cached_property
    def shifts(self) -> np.ndarray:
        """Read-only (K, d) integer sample shift of every translate, in
        ``lattice`` order."""
        steps = int(round(1.0 / self.grid.spacing))
        shifts = np.asarray(self.lattice) * steps
        shifts.flags.writeable = False
        return shifts

    @functools.cached_property
    def windows(self) -> np.ndarray:
        """Read-only real stack of every translate, shape (K, *grid.shape):
        row i is the base window moved by ``shifts[i]`` (zero filled)."""
        stack = _shift_stack(self.base.values.real, self.shifts)
        stack.flags.writeable = False
        return stack

    def window(self, k) -> SampledFunction:
        """Row of ``windows`` for the lattice point k, as a function; a point
        outside the lattice gets the all-zero window."""
        k = np.atleast_1d(np.asarray(k, dtype=int))
        if k.size != self.grid.dim:
            raise ValueError(f"lattice point {tuple(k)} must have {self.grid.dim} component(s)")
        r = self.lattice_radius
        if np.any(np.abs(k) > r):
            return SampledFunction(self.grid, np.zeros(self.grid.shape))
        row = int(np.ravel_multi_index(tuple(k + r), (2 * r + 1,) * self.grid.dim))
        return SampledFunction(self.grid, self.windows[row])

    def partition_sum(self) -> np.ndarray:
        """Sum of all windows at every grid point."""
        return self.windows.sum(axis=0)

    def interior_mask(self, margin: float = 2.0) -> np.ndarray:
        """Points with sup-norm distance at least ``margin`` from the boundary."""
        if self.grid.dim == 1:
            r = np.abs(self.grid.axis_points())
        else:
            r = np.max(np.abs(self.grid.points()), axis=-1)
        return r <= self.grid.half_width - margin


@functools.lru_cache(maxsize=16)
def make_integer_bupu(grid: GridSpec) -> Bupu:
    """Canonical bump partition of unity on the integer lattice of ``grid``.

    Requires the grid spacing to divide 1 so that integer translates are
    exact sample shifts. Cached per grid, so every caller measuring a
    function on ``grid`` shares one partition and its window translates.
    """
    steps = 1.0 / grid.spacing
    if abs(steps - round(steps)) > 1e-9:
        raise SpacingError(
            f"grid spacing {grid.spacing} does not divide 1; "
            "integer-lattice windows would need interpolation"
        )
    x = grid.axis_points()
    prof = bump_profile(x)
    # sum of integer translates of the bump along one axis; 1-periodic away
    # from the lattice truncation, so dividing gives a partition of unity
    radius = int(np.ceil(grid.half_width)) + 1
    shifts = np.arange(-radius, radius + 1)[:, None] * int(round(steps))
    total1 = _shift_stack(prof, shifts).sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        base1 = np.where(prof > 0.0, prof / np.where(total1 > 0, total1, 1.0), 0.0)
    if grid.dim == 1:
        base = base1
    else:
        base = base1[:, None] * base1[None, :]
    return Bupu(grid, SampledFunction(grid, base), radius)


def fl1_nu_norm(phi: SampledFunction, nu: Weight | None = None) -> float:
    """FL^1_nu norm of a window: the weighted L^1 norm of F^(-1) phi.

    Warns when the extrapolated spectral tail beyond the dual grid exceeds
    1e-6 of the total mass (aliasing guard: the quadrature only sees the
    dual domain, so the reported value undercounts by roughly that tail).
    """
    if nu is None:
        nu = PowerWeight(0.0)
    spec = inverse_fourier(phi)
    g = spec.grid
    integrand = np.abs(spec.values) * nu.eval_radius(g.radii())
    total = float(integrand.sum() * g.cell_volume)
    if total > 0.0:
        r = g.radii()
        hw = g.half_width
        band1 = float(integrand[(r >= 0.5 * hw) & (r < 0.75 * hw)].sum() * g.cell_volume)
        band2 = float(integrand[r >= 0.75 * hw].sum() * g.cell_volume)
        if band2 > 0.0 and band1 > band2:
            est_tail = band2 * band2 / (band1 - band2)
        else:
            est_tail = band2
        if est_tail > 1e-6 * total:
            warnings.warn(
                f"spectral tail beyond the dual grid estimated at "
                f"{est_tail / total:.2e} of the FL^1 mass; norm is aliased",
                stacklevel=2,
            )
    return total


@dataclass(frozen=True)
class BupuValidationReport:
    max_partition_defect: float
    support_violation_count: int
    overlap_bound: int
    norm_bound: float
    passed: bool


def validate_bupu(b: Bupu, nu: Weight | None = None) -> BupuValidationReport:
    """Check the partition properties on the grid.

    Reported: max |sum_k phi_k - 1| over interior points, count of samples
    violating the support/range constraints (phi outside [0, 1] or nonzero
    outside (-1, 1)^d), the max number of overlapping windows, and the
    uniform FL^1_nu bound of the base window. Passes iff the defect is at
    most 1e-10 with zero violations.
    """
    interior = b.interior_mask()
    defect = float(np.max(np.abs(b.partition_sum() - 1.0)[interior]))

    vals = b.base.values.real
    if b.grid.dim == 1:
        outside = np.abs(b.grid.axis_points()) >= 1.0
    else:
        outside = np.max(np.abs(b.grid.points()), axis=-1) >= 1.0
    violations = int(np.count_nonzero(np.abs(b.base.values[outside]) > 1e-14))
    violations += int(np.count_nonzero(vals < -1e-14))
    violations += int(np.count_nonzero(vals > 1.0 + 1e-12))

    counts = np.count_nonzero(np.abs(b.windows) > 1e-14, axis=0)
    overlap = int(np.max(counts[interior]))

    m = fl1_nu_norm(b.base, nu)
    passed = bool(defect <= 1e-10 and violations == 0 and np.isfinite(m))
    return BupuValidationReport(defect, violations, overlap, m, passed)
