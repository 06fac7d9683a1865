"""Concrete space atoms: weighted L^p, FL^p and weighted C_0.

The closed-form growth of an atom's translation and modulation operator
norms lives on the space-expression AST, as ``identify.ast.omega_exponent``
and ``nu_exponent``: translations on L^p_{v_s} grow like (1+|x|)^|s| (for
either sign of s), modulations are isometries, and the Fourier image swaps
the two roles. ``operator_norm_translation`` measures the translation growth
on a grid, the check of those exponents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec
from .weights import PowerWeight, ProductWeight, Weight

__all__ = [
    "LpSpec",
    "FLpSpec",
    "C0Spec",
    "SpaceSpec",
    "weight_exponent",
    "operator_norm_translation",
]


def weight_exponent(w: Weight | None) -> float:
    """Total power of a weight built from v_s factors."""
    if w is None:
        return 0.0
    if isinstance(w, PowerWeight):
        return w.s
    if isinstance(w, ProductWeight):
        return float(sum(weight_exponent(f) for f in w.factors))
    raise TypeError(f"no power exponent for weight {w!r}")


@dataclass(frozen=True)
class LpSpec:
    """Weighted Lebesgue space L^p_w; p = inf gives the weighted sup norm."""

    p: float
    weight: Weight = field(default_factory=lambda: PowerWeight(0.0))


@dataclass(frozen=True)
class FLpSpec:
    """Fourier image of L^p_w; translation and modulation growths swap."""

    p: float
    weight: Weight = field(default_factory=lambda: PowerWeight(0.0))


@dataclass(frozen=True)
class C0Spec:
    """Continuous functions vanishing at infinity against the weight w."""

    weight: Weight = field(default_factory=lambda: PowerWeight(0.0))


SpaceSpec = LpSpec | FLpSpec | C0Spec


def operator_norm_translation(spec: SpaceSpec, x0: float, grid: GridSpec) -> float:
    """Measured operator norm of T_{x0} on the atom.

    For L^p_w and C_{w,0} this is the supremum over grid points t of
    w(t + x0)/w(t); for FL^p_w the translation growth equals the reflected
    modulation growth of L^p_w, which is identically 1.
    """
    if isinstance(spec, FLpSpec):
        return 1.0
    if not isinstance(spec, (LpSpec, C0Spec)):
        raise TypeError(f"unsupported atom {spec!r}")
    t = grid.axis_points() if grid.dim == 1 else grid.points().reshape(-1, grid.dim)
    ratio = spec.weight.eval(t + np.asarray(x0, dtype=float)) / spec.weight.eval(t)
    return float(np.max(ratio))
