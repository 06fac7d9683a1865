"""Norm calculators: weighted L^p, mixed L^{p,q}, local, amalgam, modulation
and Shubin-Sobolev norms.

Amalgam norms come in the lattice form (weighted l^p of windowed local
norms) and the continuous form (quadrature over a subgrid of window shifts);
the two are equivalent norms and the harness measures their ratio. Both take
their local norms from a window stack (``Bupu.windows`` or shifts of chi) by
one product, batched transform and row reduction per block of windows. The
mixed norm integrates the first (time) variable innermost, which is the
order that makes the modulation-space/amalgam identification hold.

Exponents: any p in [1, inf) as a float, ``math.inf`` for the sup norm, and
the string marker "inf0" for the vanishing-at-infinity sup norm, whose
membership on a truncated grid is necessarily a diagnostic (tail decay
factor 1e-3) rather than a boolean fact; every such result carries the
diagnostic in ``NormResult.diagnostics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bupu import make_integer_bupu
from .grid import GridSpec, SampledFunction, boundary_mass, _shift_stack
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
    "c0_tail_profile",
    "TailProfile",
    "mixed_norm",
    "local_norm",
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


def _lp_rows(values: np.ndarray, grid: GridSpec, p: float, w: Weight | None = None) -> np.ndarray:
    """Quadrature norm ||v w||_p of every row v of a (B, *grid.shape) stack;
    p = inf is the sup."""
    vals = (np.abs(values) * _weight_on_grid(w, grid)).reshape(len(values), -1)
    if p == math.inf or p == INF0:
        return vals.max(axis=1)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be in [1, inf], got {p}")
    sums = (vals**p).sum(axis=1) * grid.cell_volume
    # roots in Python floats: numpy's vectorized power can differ in the last bit
    return np.array([s ** (1.0 / p) for s in sums.tolist()])


def lp_norm(f: SampledFunction, p: float, w: Weight | None = None) -> float:
    """Quadrature norm of f against the weight: ||f w||_p; p = inf is the sup."""
    return float(_lp_rows(f.values[None], f.grid, p, w)[0])


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


def _blocks(count: int, grid: GridSpec) -> list:
    """Slices of a window stack holding at most ``_BLOCK_SAMPLES`` samples."""
    step = max(1, _BLOCK_SAMPLES // grid.size)
    return [slice(i, i + step) for i in range(0, count, step)]


def _local_norms(f: SampledFunction, windows: np.ndarray, spec: SpaceSpec) -> np.ndarray:
    """Norm of f . w in the local atom for every window w of a
    (K, *grid.shape) stack, one block of windows at a time.

    The products stay on the full grid (zero outside the window support), so
    FL^p locals keep the full frequency resolution.
    """
    if not isinstance(spec, (LpSpec, FLpSpec, C0Spec)):
        raise TypeError(f"unsupported local component {spec!r}")
    grid = f.grid
    on_dual = isinstance(spec, FLpSpec)
    p = math.inf if isinstance(spec, C0Spec) else spec.p
    out = []
    for rows in _blocks(len(windows), grid):
        prods = f.values * windows[rows]
        if on_dual:
            prods = transform_axes(prods, grid.spacing, +1, grid.dim)
        out.append(_lp_rows(prods, grid.dual() if on_dual else grid, p, spec.weight))
    return np.concatenate(out)


def local_norm(f: SampledFunction, window: SampledFunction, spec: SpaceSpec) -> float:
    """Norm of f . window in the local atom."""
    return float(_local_norms(f, window.values[None], spec)[0])


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


def amalgam_norm_discrete(f: SampledFunction, a: AmalgamSpec) -> NormResult:
    """Lattice amalgam norm: weighted l^p of the windowed local norms.

    The windows are the canonical partition of ``f.grid``. For the vanishing
    sup global the value is the plain sup and the vanishing property is
    reported as a diagnostic (grid truncation cannot witness behaviour at
    infinity). The truncation error estimate is the contribution of lattice
    cells within distance 2 of the boundary.
    """
    b = make_integer_bupu(f.grid)
    lattice = b.lattice
    coeffs = _local_norms(f, b.windows, a.local)
    coeffs = coeffs * _weight_at_lattice(a.glob.weight, lattice)
    diagnostics: dict = {}
    # order the sup-tail diagnostic by lattice radius
    radii = np.max(np.abs(np.asarray(lattice)), axis=1)
    order = np.argsort(radii, kind="stable")
    value = _sequence_norm(coeffs[order], a.glob.p, diagnostics)
    edge = radii >= f.grid.half_width - 2.0
    trunc = _sequence_norm(coeffs[edge], a.glob.p if a.glob.p != INF0 else math.inf, {})
    return NormResult(value, trunc, "discrete", diagnostics)


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
    coeffs = np.concatenate([
        _local_norms(f, _shift_stack(chi.values, shifts[rows]), a.local)
        for rows in _blocks(len(shifts), grid)
    ])
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
