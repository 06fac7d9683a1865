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
partition of the grid the measured function lives on, so a dual model is
the pair (kind, AmalgamSpec).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .bupu import make_integer_bupu
from .family import _band_limited_values
from .grid import GridSpec, SampledFunction, _check_same_grid, _share_rows, _shift_stack
from .norms import (
    _BLOCK_SAMPLES,
    AmalgamSpec,
    GlobalSpec,
    INF0,
    _partition_local_norms,
    amalgam_norms,
    lp_norms,
)
from .spaces import C0Spec, FLpSpec, LpSpec, weight_exponent
from .transforms import convolve, inverse_fourier, transform_axes
from .weights import PowerWeight, Weight
from .windows import plateau, bump

__all__ = [
    "FiniteTensor",
    "DualSample",
    "pi_upper_bound",
    "eps_lower_bound",
    "synthesize",
    "decompose_splitting",
    "decompose_mollified",
    "make_dual_samples",
    "aligned_dual_sample",
    "dual_amalgam_spec",
]


@dataclass(frozen=True)
class FiniteTensor:
    """Ordered terms (lam_j, phi_j, psi_j); phi on the time grid, psi on the
    frequency grid."""

    terms: tuple

    def __post_init__(self):
        for lam, phi, psi in self.terms:
            first = self.terms[0]
            if phi.grid != first[1].grid or psi.grid != first[2].grid:
                raise ValueError("all terms must share one pair of grids")

    @property
    def rank(self) -> int:
        return len(self.terms)

    def __add__(self, other: "FiniteTensor") -> "FiniteTensor":
        return FiniteTensor(self.terms + other.terms)

    def scale(self, c: complex) -> "FiniteTensor":
        return FiniteTensor(tuple((lam * c, phi, psi) for lam, phi, psi in self.terms))


def pi_upper_bound(t: FiniteTensor, norm_a, norm_b) -> float:
    """sum_j |lam_j| norm_a(phi_j) norm_b(psi_j): an upper bound for the
    projective norm of the element this representation denotes.

    Each side is measured with one call: ``norm_a(stack, grid)`` gets the
    (J, *grid.shape) stack of the first factors and their grid and returns
    their J norms; ``norm_b`` likewise for the second factors.
    """
    if t.rank == 0:
        return 0.0
    lam, phi, psi = zip(*t.terms)
    na = norm_a(_rows(phi), phi[0].grid)
    nb = norm_b(_rows(psi), psi[0].grid)
    return float(sum(abs(c) * a * b for c, a, b in zip(lam, na, nb, strict=True)))


@dataclass(frozen=True)
class DualSample:
    """Normalized functional pair; ``fa`` acts on first factors by the
    bilinear grid pairing, ``fb`` on second factors."""

    fa: SampledFunction
    fb: SampledFunction
    norm_a: float
    norm_b: float


def eps_lower_bound(t: FiniteTensor, duals) -> float:
    """max over samples of |sum_j lam_j <fa, phi_j> <fb, psi_j>|.

    The factors are stacked once as Phi, Psi (J x N) and lam (J); each block
    of at most ``_BLOCK_SAMPLES`` dual values per side gives
    |((FA Phi^T) h_x o (FB Psi^T) h_xi) lam| for its rows at once.
    """
    if t.rank == 0:
        return 0.0
    lam, phi, psi = zip(*t.terms)
    for d in duals:
        _check_same_grid(d.fa, phi[0])
        _check_same_grid(d.fb, psi[0])
    lam = np.asarray(lam, dtype=np.complex128)
    phi_rows, psi_rows = _flat(phi), _flat(psi)
    step = max(1, _BLOCK_SAMPLES // max(phi_rows.shape[1], psi_rows.shape[1]))
    best = 0.0
    for i in range(0, len(duals), step):
        block = duals[i : i + step]
        pa = (_flat([d.fa for d in block]) @ phi_rows.T) * phi[0].grid.cell_volume
        pb = (_flat([d.fb for d in block]) @ psi_rows.T) * psi[0].grid.cell_volume
        best = max(best, float(np.max(np.abs((pa * pb) @ lam))))
    return best


def _rows(fs) -> np.ndarray:
    """(J, *grid.shape) stack of the sample values of functions on one grid."""
    return np.stack([f.values for f in fs])


def _flat(fs) -> np.ndarray:
    """Flattened sample values of functions on one grid, one row each."""
    return _rows(fs).reshape(len(fs), -1)


def synthesize(t: FiniteTensor, g: SampledFunction) -> SampledFunction:
    """sum_j lam_j (F^(-1) psi_j) . (phi_j * g): the adjoint-transform image
    of the tensor, computed term by term."""
    if g.norm2() == 0.0:
        raise ValueError("synthesis window must be nonzero")
    out = np.zeros(g.grid.shape, dtype=np.complex128)
    for lam, phi, psi in t.terms:
        out = out + lam * inverse_fourier(psi).values * convolve(phi, g).values
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
    pairs = zip(_share_rows(grid, firsts), _share_rows(grid.dual(), spectra))
    return FiniteTensor(tuple((1.0 + 0.0j, u, v) for u, v in pairs))


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
# norm evaluators and dual models


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


class _DualModel:
    """Normalization recipe for one tensor factor.

    Kinds: "l2" (plain Cauchy-Schwarz pairing), "lp" with the primal
    exponent p (plain Hoelder pairing with the conjugate norm), "amalgam"
    and "fourier_amalgam" (certified discrete amalgam duality, the latter
    for functionals acting through the transform on F^(-1)-factors). The
    dual amalgam and its overlap factor are measured on the grid of the
    function they act on (of its transform for "fourier_amalgam").
    """

    def __init__(self, kind: str, spec=None):
        if kind not in ("l2", "lp", "amalgam", "fourier_amalgam"):
            raise ValueError(f"unknown dual model kind {kind!r}")
        self.kind = kind
        self.spec = spec
        if kind == "lp":
            self.q = _conjugate(float(spec))
        elif kind != "l2":
            if spec is None:
                raise ValueError("amalgam dual models need a spec")
            self.dual_spec = dual_amalgam_spec(spec)

    def _measure(self, rows: np.ndarray, grid: GridSpec) -> np.ndarray:
        """Dual norm of every row of a (B, *grid.shape) stack."""
        if self.kind == "l2":
            return np.array([np.linalg.norm(r.ravel()) for r in rows]) * grid.cell_volume**0.5
        if self.kind == "lp":
            return lp_norms(rows, grid, self.q)
        if self.kind == "fourier_amalgam":
            rows, grid = transform_axes(rows, grid.spacing, -1, grid.dim), grid.dual()
        values = np.array([r.value for r in amalgam_norms(rows, grid, self.dual_spec)])
        return values * overlap_factor(self.spec, grid)

    def normalize(self, rows: np.ndarray, grid: GridSpec) -> list:
        """Scale every row of the stack in place so the certified pairing
        bound uses constant 1, and make the stack read-only; returns the
        rows as functions with their reported dual norms after scaling."""
        n = self._measure(rows, grid)
        if np.any(n == 0.0):
            raise ValueError("degenerate dual sample")
        rows *= (1.0 / n).reshape((-1,) + (1,) * grid.dim)
        return list(zip(_share_rows(grid, rows), self._measure(rows, grid).tolist()))


def make_dual_samples(
    count: int,
    seed: int,
    dual_model: tuple,
    xgrid: GridSpec,
    xigrid: GridSpec,
) -> list:
    """Deterministic random dual functionals, unit norm in the dual model.

    ``dual_model`` is a pair of :class:`_DualModel`-compatible descriptors:
    the string "l2", a pair ("lp", p) or a pair ("amalgam" |
    "fourier_amalgam", AmalgamSpec). The first entry normalizes functionals
    on first factors (time grid), the second on second factors (frequency
    grid). The samples are drawn one pair at a time and normalized in
    blocks of at most ``_BLOCK_SAMPLES`` values per side; a sample's values
    are read-only rows of its block.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    model_a = _as_model(dual_model[0])
    model_b = _as_model(dual_model[1])
    rng = np.random.default_rng(seed)
    step = max(1, _BLOCK_SAMPLES // max(xgrid.size, xigrid.size))
    out = []
    for start in range(0, count, step):
        size = min(step, count - start)
        raw_a = np.empty((size, *xgrid.shape), dtype=np.complex128)
        raw_b = np.empty((size, *xigrid.shape), dtype=np.complex128)
        for i in range(size):
            raw_a[i] = _band_limited_values(xgrid, rng)
            raw_b[i] = _band_limited_values(xigrid, rng)
        pairs = zip(model_a.normalize(raw_a, xgrid), model_b.normalize(raw_b, xigrid))
        out += [DualSample(fa, fb, na, nb) for (fa, na), (fb, nb) in pairs]
    return out


def aligned_dual_sample(t: FiniteTensor, dual_model: tuple) -> DualSample:
    """Dual pair aligned with the dominant term of the tensor (normalized in
    the same model, hence still a certified lower-bound functional)."""
    if t.rank == 0:
        raise ValueError("cannot align with an empty tensor")
    model_a = _as_model(dual_model[0])
    model_b = _as_model(dual_model[1])
    j = int(
        np.argmax([abs(lam) * phi.norm2() * psi.norm2() for lam, phi, psi in t.terms])
    )
    _, phi, psi = t.terms[j]
    (fa, na), = model_a.normalize(np.conj(phi.values)[None], phi.grid)
    (fb, nb), = model_b.normalize(np.conj(psi.values)[None], psi.grid)
    return DualSample(fa, fb, na, nb)


def _as_model(desc) -> _DualModel:
    if isinstance(desc, _DualModel):
        return desc
    if desc == "l2":
        return _DualModel("l2")
    return _DualModel(*desc)
