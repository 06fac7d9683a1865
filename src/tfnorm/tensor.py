"""Finite-rank tensors, projective upper and injective lower bounds, and the
constructive decompositions that drive the norm-identification checks.

A finite tensor sum_j lam_j phi_j (x) psi_j keeps its first factors on the
time grid and its second factors on the frequency grid. The projective
(pi) norm of the represented element is never computed exactly; the toolkit
reports the bound attached to the given representation, measuring each
side's factors as one stack. The injective (eps) norm is lower-bounded by
sampling normalized dual functionals; the bound is taken over blocks of
samples as two matrix products per block, each block holding at most
``norms._BLOCK_SAMPLES`` dual values. Dual samples are drawn one at a time
and normalized per block of the same size, with a certified safety factor,
so the reported eps lower bound never exceeds the pi upper bound computed
with the matching norms:
the pairing estimate

    |<f', phi>| <= sum_{|r|<=1} |<f' phi_k, phi phi_{k+r}>|
               <= dual_amalgam(f') * overlap_factor * amalgam(phi)

is exact on the grid (cell Hoelder plus sequence Hoelder), with
overlap_factor = sum_{|r|<=1} max_k eta(k)/eta(k+r).

Every amalgam norm, decomposition and overlap factor uses the canonical
partition of the grid the measured function lives on. Tensors and dual
samples are stacks of rows, one stack per side; dual samples are normalized
by stack dual norms ``(rows, grid) -> norms`` (``evaluate.stack_dual_norm``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bupu import make_integer_bupu
from .family import _band_limited_values
from .grid import GridSpec, SampledFunction, _shift_stack
from .norms import (
    _BLOCK_SAMPLES,
    AmalgamSpec,
    GlobalSpec,
    INF0,
    _partition_local_norms,
)
from .spaces import C0Spec, FLpSpec, LpSpec, weight_exponent
from .transforms import convolve, transform_axes
from .weights import PowerWeight, Weight
from .windows import plateau, bump

__all__ = [
    "FiniteTensor",
    "DualSamples",
    "pi_upper_bound",
    "eps_lower_bound",
    "synthesize",
    "decompose_splitting",
    "decompose_mollified",
    "make_dual_samples",
    "aligned_dual_sample",
    "dual_amalgam_spec",
]


def _freeze_stacks(obj, **row_shapes) -> None:
    """Replace the named fields of ``obj`` by read-only complex128 views of
    stacks of finite rows of the given shapes, all of one length; every
    stack of tensor terms and dual samples is made here."""
    for name, shape in row_shapes.items():
        stack = np.asarray(getattr(obj, name), dtype=np.complex128).view()
        if stack.ndim != 1 + len(shape) or stack.shape[1:] != shape:
            raise ValueError(f"{name} needs rows of shape {shape}, got shape {stack.shape}")
        if not np.all(np.isfinite(stack)):
            raise ValueError(f"{name} values must be finite")
        stack.flags.writeable = False
        object.__setattr__(obj, name, stack)
    lengths = {name: len(getattr(obj, name)) for name in row_shapes}
    if len(set(lengths.values())) != 1:
        raise ValueError(f"stacks of different lengths: {lengths}")


@dataclass(frozen=True, eq=False)
class FiniteTensor:
    """sum_j lam_j phi_j (x) psi_j as three read-only stacks: ``lam`` (J,),
    ``phi`` (J, *xgrid.shape) on the time grid and ``psi``
    (J, *xigrid.shape) on the frequency grid."""

    lam: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    xgrid: GridSpec
    xigrid: GridSpec

    def __post_init__(self):
        _freeze_stacks(self, lam=(), phi=self.xgrid.shape, psi=self.xigrid.shape)

    @property
    def rank(self) -> int:
        return len(self.lam)


@dataclass(frozen=True, eq=False)
class DualSamples:
    """Normalized functional pairs as two read-only stacks: row i of ``fa``
    (S, *xgrid.shape) acts on first factors and row i of ``fb``
    (S, *xigrid.shape) on second factors, both by the bilinear grid
    pairing."""

    fa: np.ndarray
    fb: np.ndarray
    xgrid: GridSpec
    xigrid: GridSpec

    def __post_init__(self):
        _freeze_stacks(self, fa=self.xgrid.shape, fb=self.xigrid.shape)

    def __len__(self) -> int:
        return len(self.fa)


def pi_upper_bound(t: FiniteTensor, norm_a, norm_b) -> float:
    """sum_j |lam_j| norm_a(phi_j) norm_b(psi_j): an upper bound for the
    projective norm of the element this representation denotes.

    Each side is measured with one call: ``norm_a(t.phi, t.xgrid)`` returns
    the J norms of the first factors, ``norm_b(t.psi, t.xigrid)`` those of
    the second factors.
    """
    if t.rank == 0:
        return 0.0
    na = norm_a(t.phi, t.xgrid)
    nb = norm_b(t.psi, t.xigrid)
    return float(sum(abs(c) * a * b for c, a, b in zip(t.lam, na, nb, strict=True)))


def eps_lower_bound(t: FiniteTensor, duals: DualSamples) -> float:
    """max over samples of |sum_j lam_j <fa, phi_j> <fb, psi_j>|.

    Each block of at most ``_BLOCK_SAMPLES`` dual values per side gives
    |((FA Phi^T) h_x o (FB Psi^T) h_xi) lam| for its rows at once, FA and FB
    being row slices of the dual stacks and Phi, Psi the factor stacks.
    """
    if t.rank == 0:
        return 0.0
    for got, want in ((duals.xgrid, t.xgrid), (duals.xigrid, t.xigrid)):
        if got != want:
            raise ValueError(f"grid mismatch: {got} vs {want}")
    phi, psi = t.phi.reshape(t.rank, -1), t.psi.reshape(t.rank, -1)
    fa, fb = duals.fa.reshape(len(duals), -1), duals.fb.reshape(len(duals), -1)
    step = max(1, _BLOCK_SAMPLES // max(phi.shape[1], psi.shape[1]))
    best = 0.0
    for i in range(0, len(duals), step):
        pa = (fa[i : i + step] @ phi.T) * t.xgrid.cell_volume
        pb = (fb[i : i + step] @ psi.T) * t.xigrid.cell_volume
        best = max(best, float(np.max(np.abs((pa * pb) @ t.lam))))
    return best


def synthesize(t: FiniteTensor, g: SampledFunction) -> SampledFunction:
    """sum_j lam_j (F^(-1) psi_j) . (phi_j * g): the adjoint-transform image
    of the tensor, computed term by term."""
    if g.norm2() == 0.0:
        raise ValueError("synthesis window must be nonzero")
    out = np.zeros(g.grid.shape, dtype=np.complex128)
    for lam, phi, psi in zip(t.lam, t.phi, t.psi):
        spectrum = transform_axes(psi, t.xigrid.spacing, +1, t.xigrid.dim)
        out = out + lam * spectrum * convolve(SampledFunction(t.xgrid, phi), g).values
    return SampledFunction(g.grid, out)


def _active_pieces(f: SampledFunction, rel_tol: float = 1e-14) -> tuple:
    """Sample shifts of the partition windows phi_k whose piece f phi_k
    carries non-negligible L2 mass, and those pieces as one stack."""
    b = make_integer_bupu(f.grid)
    masses = _partition_local_norms(f.values[None], f.grid, LpSpec(2.0))[0]
    shifts = b.shifts[np.flatnonzero(masses > rel_tol * masses.max())]
    return shifts, f.values * _shift_stack(b.base.values.real, shifts)


def _transformed_terms(grid: GridSpec, firsts: np.ndarray, pieces: np.ndarray) -> FiniteTensor:
    """Terms (1, first_j, F(piece_j)), every piece transformed in one call."""
    spectra = transform_axes(pieces, grid.spacing, -1, grid.dim)
    return FiniteTensor(np.ones(len(firsts), np.complex128), firsts, spectra, grid, grid.dual())


def decompose_splitting(f: SampledFunction) -> tuple:
    """Split every windowed piece of f through a plateau pair.

    Uses g smooth with 0 <= g <= 1 and g = 1 on [-2, 2]^d, and nonnegative
    psi with psi = 1/(g*g) on [-1, 1]^d, so that
    f phi_k = (f phi_k T_k psi) . ((T_k g) * g). The returned tensor has
    terms (1, T_k g, F(f phi_k T_k psi)) and synthesizes back to f against
    the returned window g.
    """
    grid = f.grid
    g = plateau(grid, 2.0, 3.0)
    c = convolve(g, g)
    ones_region = (
        np.abs(grid.axis_points()) <= 1.0
        if grid.dim == 1
        else np.max(np.abs(grid.points()), axis=-1) <= 1.0
    )
    if np.min(c.values.real[ones_region]) < 1.0 - 1e-9:
        raise RuntimeError("window autocorrelation dropped below 1 on the unit cell")
    cutoff = plateau(grid, 1.0, 1.5)
    with np.errstate(divide="ignore", invalid="ignore"):
        psi_vals = np.where(
            cutoff.values.real > 0.0,
            cutoff.values.real / np.where(c.values.real > 0.5, c.values.real, 1.0),
            0.0,
        )
    psi = SampledFunction(grid, psi_vals)
    shifts, pieces = _active_pieces(f)
    pieces *= _shift_stack(psi.values, shifts)
    return _transformed_terms(grid, _shift_stack(g.values, shifts), pieces), g


def decompose_mollified(f: SampledFunction) -> tuple:
    """Mollifier-translate decomposition: terms (1, T_k m, F(f phi_k)) for the
    unit-mass bump m, with synthesis window g such that m * g = 1 on
    [-1, 1]^d (hence on every window support)."""
    grid = f.grid
    moll = bump(grid, radius=1.0, normalize="mass")
    g = plateau(grid, 2.0, 3.0)
    shifts, pieces = _active_pieces(f)
    return _transformed_terms(grid, _shift_stack(moll.values, shifts), pieces), g


# ---------------------------------------------------------------------------
# dual spaces and dual samples


def dual_amalgam_spec(spec: AmalgamSpec) -> AmalgamSpec:
    """Discrete dual model W(E', l^q_{1/eta}) of W(E, l^p_eta).

    The vanishing sup global dualizes to l^1 with the reciprocal weight; the
    C_0 local is modelled by the weighted L^1 atom on the grid.
    """
    local = spec.local
    if isinstance(local, LpSpec):
        dual_local = LpSpec(_conjugate(local.p), _invert(local.weight))
    elif isinstance(local, FLpSpec):
        dual_local = FLpSpec(_conjugate(local.p), _invert(local.weight))
    elif isinstance(local, C0Spec):
        dual_local = LpSpec(1.0, _invert(local.weight))
    else:
        raise TypeError(f"no dual model for local {local!r}")
    gp = spec.glob.p
    dual_p = 1.0 if gp == INF0 or gp == math.inf else _conjugate(gp)
    return AmalgamSpec(dual_local, GlobalSpec(dual_p, _invert(spec.glob.weight)))


def _conjugate(p: float) -> float:
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def _invert(w: Weight | None) -> Weight:
    return PowerWeight(-weight_exponent(w))


@functools.lru_cache(maxsize=16)
def overlap_factor(spec: AmalgamSpec, grid: GridSpec) -> float:
    """Certified pairing constant: sum over |r|_inf <= 1 of the supremum of
    eta(k)/eta(k+r) over the partition lattice of ``grid``."""
    w = spec.glob.weight or PowerWeight(0.0)
    lattice = np.asarray(make_integer_bupu(grid).lattice, dtype=float)
    r_norm = np.sqrt((lattice**2).sum(axis=1))
    total = 0.0
    for r in itertools.product((-1, 0, 1), repeat=grid.dim):
        shifted = lattice + np.asarray(r, dtype=float)
        s_norm = np.sqrt((shifted**2).sum(axis=1))
        total += float(np.max(w.eval_radius(r_norm) / w.eval_radius(s_norm)))
    return total


def _normalize(rows: np.ndarray, grid: GridSpec, dual_norm) -> None:
    """Scale every row of a (B, *grid.shape) stack in place to unit
    ``dual_norm``, so the certified pairing bound uses constant 1."""
    n = np.asarray(dual_norm(rows, grid), dtype=float)
    if np.any(n == 0.0):
        raise ValueError("degenerate dual sample")
    rows *= (1.0 / n).reshape((-1,) + (1,) * grid.dim)


def make_dual_samples(
    count: int,
    seed: int,
    dual_norms: tuple,
    xgrid: GridSpec,
    xigrid: GridSpec,
) -> DualSamples:
    """Deterministic random dual functionals of unit dual norm.

    ``dual_norms`` is a pair of stack norms ``(rows, grid) -> norms``: the
    first normalizes the functionals on first factors (time grid), the
    second those on second factors (frequency grid). The samples are drawn
    one pair at a time and normalized in blocks of at most
    ``_BLOCK_SAMPLES`` values per side.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    fa = np.empty((count, *xgrid.shape), dtype=np.complex128)
    fb = np.empty((count, *xigrid.shape), dtype=np.complex128)
    step = max(1, _BLOCK_SAMPLES // max(xgrid.size, xigrid.size))
    for start in range(0, count, step):
        stop = min(start + step, count)
        for i in range(start, stop):
            fa[i] = _band_limited_values(xgrid, rng)
            fb[i] = _band_limited_values(xigrid, rng)
        _normalize(fa[start:stop], xgrid, dual_norms[0])
        _normalize(fb[start:stop], xigrid, dual_norms[1])
    return DualSamples(fa, fb, xgrid, xigrid)


def aligned_dual_sample(t: FiniteTensor, dual_norms: tuple) -> DualSamples:
    """The dual pair aligned with the dominant term of the tensor,
    normalized with the same dual norms (hence still a certified
    lower-bound functional)."""
    if t.rank == 0:
        raise ValueError("cannot align with an empty tensor")
    cell_a, cell_b = t.xgrid.cell_volume**0.5, t.xigrid.cell_volume**0.5
    j = int(np.argmax([
        abs(c) * float(np.linalg.norm(a.ravel()) * cell_a) * float(np.linalg.norm(b.ravel()) * cell_b)
        for c, a, b in zip(t.lam, t.phi, t.psi)
    ]))
    fa, fb = np.conj(t.phi[j : j + 1]), np.conj(t.psi[j : j + 1])
    _normalize(fa, t.xgrid, dual_norms[0])
    _normalize(fb, t.xigrid, dual_norms[1])
    return DualSamples(fa, fb, t.xgrid, t.xigrid)
