"""Norm calculators: weighted L^p, mixed L^{p,q}, local, amalgam, modulation
and Shubin-Sobolev norms.

Amalgam norms come in the lattice form (weighted l^p of windowed local
norms) and the continuous form (quadrature over a subgrid of window shifts);
the two are equivalent norms and the harness measures their ratio. The
lattice form measures a whole (B, *grid.shape) stack of functions in one
call (``amalgam_norms``). Every window is a base window (the partition's
``Bupu.base`` or chi) moved by an integer sample shift, so L^p and C_0
local norms are reduced on the base's support box at each shift, and FL^p
local norms transform the full-grid products, B*K rows per block of at most
``_BLOCK_SAMPLES`` samples. The mixed norm integrates the first (time)
variable innermost, which is the order that makes the
modulation-space/amalgam identification hold.

Exponents: any p in [1, inf) as a float, ``math.inf`` for the sup norm, and
the string marker "inf0" for the vanishing-at-infinity sup norm, whose
membership on a truncated grid is necessarily a diagnostic (tail decay
factor 1e-3) rather than a boolean fact; every such result carries the
diagnostic in ``NormResult.diagnostics``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .bupu import make_integer_bupu
from .grid import GridSpec, SampledFunction, _check_same_grid, _shift_stack, boundary_mass
from .spaces import C0Spec, FLpSpec, LpSpec, SpaceSpec
from .stft import TimeFrequencyArray, stft
from .transforms import fourier, transform_axes
from .weights import PowerWeight, RadialWeight2D, TensorWeight, Weight
from .windows import normalized_gaussian

__all__ = [
    "INF0",
    "NormResult",
    "GlobalSpec",
    "AmalgamSpec",
    "lp_norm",
    "lp_norms",
    "c0_tail_profile",
    "TailProfile",
    "mixed_norm",
    "local_norm",
    "amalgam_norms",
    "amalgam_norm_discrete",
    "amalgam_norm_continuous",
    "modulation_norm",
    "modulation_norm_via_amalgam",
    "shubin_norm",
]

#: marker for the vanishing-at-infinity l^inf / L^inf global component
INF0 = "inf0"

#: samples per block of a window stack; bounds the temporaries of one block
_BLOCK_SAMPLES = 2**16

#: gathered support-box samples per block of the L^p path: its temporaries
#: stay small enough to be reused from the heap instead of mapped per block
_BOX_BLOCK_SAMPLES = 2**14


@dataclass(frozen=True)
class NormResult:
    value: float
    truncation_error_estimate: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class GlobalSpec:
    """Global component of an amalgam: l^p_w, l^inf_w or the vanishing l^inf0_w."""

    p: float | str
    weight: Weight = field(default_factory=lambda: PowerWeight(0.0))

    def __post_init__(self):
        if self.p == INF0 or self.p == math.inf:
            return
        if not (isinstance(self.p, (int, float)) and 1.0 <= self.p < math.inf):
            raise ValueError(f"global exponent must be in [1, inf] or 'inf0', got {self.p}")


@dataclass(frozen=True)
class AmalgamSpec:
    local: SpaceSpec
    glob: GlobalSpec


def _weight_on_grid(w: Weight | None, grid: GridSpec) -> np.ndarray:
    if w is None:
        return np.ones(grid.shape)
    return w.eval_radius(grid.radii())


def _lp_reduce(vals: np.ndarray, p: float, cell_volume: float) -> np.ndarray:
    """Quadrature p-norm of every row of the nonnegative (R, M) temporary
    ``vals``, which it overwrites; p = inf is the row maximum."""
    if p == math.inf or p == INF0:
        return vals.max(axis=1)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be in [1, inf], got {p}")
    vals **= p
    sums = vals.sum(axis=1) * cell_volume
    # roots in Python floats: numpy's vectorized power can differ in the last bit
    return np.array([s ** (1.0 / p) for s in sums.tolist()])


def lp_norms(values: np.ndarray, grid: GridSpec, p: float, w: Weight | None = None) -> np.ndarray:
    """Quadrature norm ||v w||_p of every row v of a (B, *grid.shape) stack;
    p = inf is the sup."""
    vals = np.abs(values).astype(np.float64, copy=False)
    vals *= _weight_on_grid(w, grid)
    return _lp_reduce(vals.reshape(len(values), -1), p, grid.cell_volume)


def lp_norm(f: SampledFunction, p: float, w: Weight | None = None) -> float:
    """Quadrature norm of f against the weight: ||f w||_p; p = inf is the sup."""
    return float(lp_norms(f.values[None], f.grid, p, w)[0])


@dataclass(frozen=True)
class TailProfile:
    radii: np.ndarray
    values: np.ndarray

    @property
    def vanishing_ok(self) -> bool:
        """Grid-scale proxy for vanishing at infinity with the weight."""
        if self.values[0] == 0.0:
            return True
        return bool(self.values[-1] <= 1e-3 * self.values[0])


def c0_tail_profile(f: SampledFunction, w: Weight | None = None) -> TailProfile:
    """sup_{|x| >= r} |f(x)| w(x) over r in {0, L/8, ..., 7L/8}."""
    r = f.grid.radii()
    vals = np.abs(f.values) * _weight_on_grid(w, f.grid)
    radii = f.grid.half_width / 8.0 * np.arange(8)
    profile = np.array([vals[r >= rr].max() if np.any(r >= rr) else 0.0 for rr in radii])
    return TailProfile(radii, profile)


def mixed_norm(
    phi: TimeFrequencyArray,
    p: float,
    q: float,
    w2d: TensorWeight | RadialWeight2D | None = None,
) -> float:
    """Weighted L^{p,q} norm of a TF array: inner L^p over x, outer L^q over xi."""
    vals = np.abs(phi.values)
    if w2d is not None:
        vals = vals * w2d.eval_tf(phi.xgrid.radii(), phi.xigrid.radii())
    hx = phi.xgrid.cell_volume
    hxi = phi.xigrid.cell_volume
    if p == math.inf:
        inner = vals.max(axis=0)
    else:
        inner = ((vals**p).sum(axis=0) * hx) ** (1.0 / p)
    if q == math.inf:
        return float(inner.max())
    return float(((inner**q).sum() * hxi) ** (1.0 / q))


def _support_box(base: np.ndarray) -> tuple:
    """(start, length) per axis of the smallest block of ``base`` holding
    every nonzero sample; one zero sample for an all-zero window."""
    nonzero = np.nonzero(base)
    if len(nonzero[0]) == 0:
        return ((0, 1),) * base.ndim
    return tuple((int(ax.min()), int(ax.max() - ax.min()) + 1) for ax in nonzero)


def _box_local_norms(values, grid: GridSpec, base, shifts, p, w) -> np.ndarray:
    """L^p_w norm of v . T_s base for every row v and shift s, reduced on the
    base's support box moved by s; box samples off the grid weigh zero."""
    box = _support_box(base)
    index, inside = [], []
    for axis, (start, length) in enumerate(box):
        idx = shifts[:, axis, None] + start + np.arange(length)  # (K, length)
        ok = (idx >= 0) & (idx < grid.n)
        index.append(np.where(ok, idx, 0))
        inside.append(ok)
    if grid.dim == 1:
        sel, mask = (index[0],), inside[0]
    else:
        sel = (index[0][:, :, None], index[1][:, None, :])
        mask = inside[0][:, :, None] & inside[1][:, None, :]
    base_box = base[tuple(slice(s, s + m) for s, m in box)]
    weight_box = np.where(mask, _weight_on_grid(w, grid)[sel], 0.0)  # (K, *box)
    step = max(1, _BOX_BLOCK_SAMPLES // weight_box.size)
    out = np.empty((len(values), len(shifts)))
    for i in range(0, len(values), step):
        prods = values[(slice(i, i + step),) + sel]
        prods *= base_box
        vals = np.abs(prods)
        del prods
        vals *= weight_box
        norms = _lp_reduce(vals.reshape(-1, base_box.size), p, grid.cell_volume)
        out[i : i + step] = norms.reshape(-1, len(shifts))
    return out


def _transformed_local_norms(values, grid: GridSpec, base, shifts, spec: FLpSpec, windows):
    """FL^p norm of v . T_s base for every row v and shift s. The full-grid
    products are transformed in blocks of at most ``_BLOCK_SAMPLES``
    samples: whole rows times every shift while they fit, else one row
    times a slice of the shifts. The shifted windows are read from
    ``windows`` when it holds them already, else shifted per block."""
    k = len(shifts)
    wins = max(1, _BLOCK_SAMPLES // grid.size)
    rows = max(1, wins // k)
    out = np.empty((len(values), k))
    for i in range(0, len(values), rows):
        for j in range(0, k, wins):
            if windows is None:
                prods = values[i : i + rows, None] * _shift_stack(base, shifts[j : j + wins])
            else:
                prods = values[i : i + rows, None] * windows[j : j + wins]
            spectra = transform_axes(prods, grid.spacing, +1, grid.dim).reshape(-1, *grid.shape)
            norms = lp_norms(spectra, grid.dual(), spec.p, spec.weight)
            out[i : i + rows, j : j + wins] = norms.reshape(prods.shape[:2])
    return out


def _local_norms(values: np.ndarray, grid: GridSpec, base: np.ndarray, shifts, spec, windows=None):
    """(B, K) norms in the local atom of v . T_s base for every row v of a
    (B, *grid.shape) stack and every integer sample shift s of the (K, d)
    ``shifts`` (zero-filled shifts, as ``grid._shift_stack``). ``windows``
    is that shift stack when the caller keeps it built (the partition's
    ``Bupu.windows``); only FL^p locals read it."""
    if isinstance(spec, FLpSpec):
        return _transformed_local_norms(values, grid, base, shifts, spec, windows)
    if isinstance(spec, (LpSpec, C0Spec)):
        p = math.inf if isinstance(spec, C0Spec) else spec.p
        return _box_local_norms(values, grid, base, shifts, p, spec.weight)
    raise TypeError(f"unsupported local component {spec!r}")


def _partition_local_norms(values: np.ndarray, grid: GridSpec, spec: SpaceSpec) -> np.ndarray:
    """(B, K) local norms of every row against every window of the
    canonical partition of ``grid``, in lattice order."""
    b = make_integer_bupu(grid)
    windows = b.windows if isinstance(spec, FLpSpec) else None
    return _local_norms(values, grid, b.base.values.real, b.shifts, spec, windows)


def local_norm(f: SampledFunction, window: SampledFunction, spec: SpaceSpec) -> float:
    """Norm of f . window in the local atom."""
    _check_same_grid(f, window)
    no_shift = np.zeros((1, f.grid.dim), dtype=int)
    return float(_local_norms(f.values[None], f.grid, window.values, no_shift, spec)[0, 0])


def _weight_at_lattice(w: Weight | None, lattice) -> np.ndarray:
    pts = np.asarray(lattice, dtype=float)
    r = np.abs(pts[:, 0]) if pts.shape[1] == 1 else np.sqrt((pts**2).sum(axis=1))
    return np.ones(len(pts)) if w is None else w.eval_radius(r)


def _sequence_norm(coeffs: np.ndarray, p, diagnostics: dict) -> float:
    if p == INF0:
        peak = coeffs.max() if len(coeffs) else 0.0
        tail = coeffs[-max(2, len(coeffs) // 4) :].max() if len(coeffs) else 0.0
        diagnostics["linf0_proxy"] = True
        diagnostics["tail_ratio"] = float(tail / peak) if peak > 0 else 0.0
        diagnostics["vanishing_tail_ok"] = bool(peak == 0.0 or tail <= 1e-3 * peak)
        return float(peak)
    if p == math.inf:
        return float(coeffs.max()) if len(coeffs) else 0.0
    return float((coeffs**p).sum() ** (1.0 / p))


def amalgam_norms(values: np.ndarray, grid: GridSpec, a: AmalgamSpec) -> list:
    """Lattice amalgam norm of every row of a (B, *grid.shape) stack: the
    weighted l^p of its windowed local norms, one NormResult per row.

    The windows are the canonical partition of ``grid``. For the vanishing
    sup global the value is the plain sup and the vanishing property is
    reported as a diagnostic (grid truncation cannot witness behaviour at
    infinity). The truncation error estimate is the contribution of lattice
    cells within distance 2 of the boundary.
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.shape[1:] != grid.shape:
        raise ValueError(f"stack of shape {values.shape} does not hold rows of shape {grid.shape}")
    lattice = make_integer_bupu(grid).lattice
    coeffs = _partition_local_norms(values, grid, a.local)
    coeffs = coeffs * _weight_at_lattice(a.glob.weight, lattice)
    # order the sup-tail diagnostic by lattice radius
    radii = np.max(np.abs(np.asarray(lattice)), axis=1)
    order = np.argsort(radii, kind="stable")
    edge = radii >= grid.half_width - 2.0
    edge_p = a.glob.p if a.glob.p != INF0 else math.inf
    out = []
    for row in coeffs:
        diagnostics: dict = {}
        value = _sequence_norm(row[order], a.glob.p, diagnostics)
        trunc = _sequence_norm(row[edge], edge_p, {})
        out.append(NormResult(value, trunc, "discrete", diagnostics))
    return out


def amalgam_norm_discrete(f: SampledFunction, a: AmalgamSpec) -> NormResult:
    """Lattice amalgam norm of f: the one-row case of :func:`amalgam_norms`."""
    return amalgam_norms(f.values[None], f.grid, a)[0]


def amalgam_norm_continuous(
    f: SampledFunction,
    a: AmalgamSpec,
    chi: SampledFunction,
    samples_per_cell: int = 4,
) -> NormResult:
    """Quadrature amalgam norm over a stride subgrid of window shifts.

    Integrates local_norm(f, T_x chi, local)^p w(x)^p over x with
    ``samples_per_cell`` shift samples per unit cell.
    """
    _check_same_grid(f, chi)
    if (
        isinstance(samples_per_cell, bool)
        or not isinstance(samples_per_cell, numbers.Integral)
        or samples_per_cell < 1
    ):
        raise ValueError(f"samples_per_cell must be a positive integer, got {samples_per_cell!r}")
    if chi.norm2() == 0.0:
        raise ValueError("chi must be nonzero")
    grid = f.grid
    per_cell = int(round(1.0 / grid.spacing))
    if per_cell % samples_per_cell != 0:
        raise ValueError(
            f"samples_per_cell={samples_per_cell} must divide the {per_cell} samples per unit cell"
        )
    stride = per_cell // samples_per_cell
    offsets = np.arange(0, grid.n, stride) - grid.n // 2
    if grid.dim == 1:
        shifts = offsets[:, None]
    else:
        shifts = np.stack(np.meshgrid(offsets, offsets, indexing="ij"), axis=-1).reshape(-1, 2)
    coeffs = _local_norms(f.values[None], grid, chi.values, shifts, a.local)[0]
    pts = np.asarray(shifts, dtype=float) * grid.spacing
    r = np.abs(pts[:, 0]) if grid.dim == 1 else np.sqrt((pts**2).sum(axis=1))
    if a.glob.weight is not None:
        coeffs = coeffs * a.glob.weight.eval_radius(r)
    diagnostics: dict = {}
    p = a.glob.p
    dx = (stride * grid.spacing) ** grid.dim
    if p == INF0 or p == math.inf:
        order = np.argsort(r, kind="stable")
        value = _sequence_norm(coeffs[order], p, diagnostics)
    else:
        value = float(((coeffs**p).sum() * dx) ** (1.0 / p))
    edge = r >= grid.half_width - 2.0
    trunc = float(((coeffs[edge] ** p).sum() * dx) ** (1.0 / p)) if p not in (INF0, math.inf) else (
        float(coeffs[edge].max()) if np.any(edge) else 0.0
    )
    return NormResult(value, trunc, "continuous", diagnostics)


def modulation_norm(
    f: SampledFunction,
    g: SampledFunction,
    p: float,
    q: float,
    w2d: TensorWeight | RadialWeight2D | None = None,
) -> NormResult:
    """Modulation norm through the STFT: the mixed norm of V_g f."""
    value = mixed_norm(stft(f, g), p, q, w2d)
    return NormResult(value, boundary_mass(f), "direct")


def modulation_norm_via_amalgam(
    f: SampledFunction,
    p1: float,
    p2: float,
    eta1: Weight | None = None,
    eta2: Weight | None = None,
) -> NormResult:
    """Window-free modulation norm: amalgam norm of Ff with FL^{p1}_{eta1}
    local component and l^{p2}_{eta2} global component."""
    for p in (p1, p2):
        if not (isinstance(p, (int, float)) and 1.0 <= p < math.inf):
            raise ValueError("exponents must lie in [1, inf)")
    spec = AmalgamSpec(FLpSpec(p1, eta1 or PowerWeight(0.0)), GlobalSpec(p2, eta2 or PowerWeight(0.0)))
    inner = amalgam_norm_discrete(fourier(f), spec)
    return NormResult(inner.value, inner.truncation_error_estimate, "via_amalgam", inner.diagnostics)


def shubin_norm(f: SampledFunction, s: float) -> NormResult:
    """Shubin-Sobolev norm: M^{2,2} norm with the radial TF weight (1+|(x,xi)|)^s."""
    g = normalized_gaussian(f.grid)
    res = modulation_norm(f, g, 2.0, 2.0, RadialWeight2D(float(s)))
    return NormResult(res.value, res.truncation_error_estimate, "direct")
