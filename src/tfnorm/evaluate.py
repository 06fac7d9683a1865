"""Numeric evaluation of space expressions on sampled functions.

Atoms and amalgams of atoms evaluate directly; composite expressions (Mod
of tensors, duals, Shubin atoms) are normalized first and the normal form
is evaluated when it is concrete. Fourier wrappers change the carrier:
||f||_{F(X)} = ||F^(-1) f||_X and conversely.

The numeric specs of every expression are built here, also for stacks of
rows: ``stack_evaluator`` gives the norm of a space, ``stack_dual_norm`` the
norm that normalizes dual samples acting on it.
"""

from __future__ import annotations

import math

from .grid import SampledFunction
from .identify import ast as A
from .identify.engine import normalize
from .norms import (
    AmalgamSpec,
    GlobalSpec,
    INF0,
    NormResult,
    amalgam_norm_discrete,
    amalgam_norms,
    c0_tail_profile,
    lp_norm,
    lp_norms,
    modulation_norm,
    shubin_norm,
)
from .spaces import C0Spec, FLpSpec, LpSpec
from .tensor import _conjugate, dual_amalgam_spec, overlap_factor
from .transforms import fourier, inverse_fourier, transform_axes
from .weights import PowerWeight, RadialWeight2D, TensorWeight
from .windows import normalized_gaussian

__all__ = ["eval_space_norm", "stack_evaluator", "stack_dual_norm", "UnsupportedSpaceError"]


class UnsupportedSpaceError(ValueError):
    """The expression has no concrete evaluation on a single function."""


def _exponent(p):
    if p == A.INF:
        return math.inf
    if p == A.INF0:
        return INF0
    return float(p)


def _local_spec(e):
    if isinstance(e, A.Lp):
        return LpSpec(math.inf if e.p == A.INF0 else _exponent(e.p), PowerWeight(e.s))
    if isinstance(e, A.FL) and isinstance(e.inner, A.Lp):
        return FLpSpec(_exponent(e.inner.p), PowerWeight(e.inner.s))
    if isinstance(e, A.C0):
        return C0Spec(PowerWeight(e.s))
    return None


def _amalgam_spec(e: A.Amalgam) -> AmalgamSpec:
    local = _local_spec(e.local)
    if local is None:
        raise UnsupportedSpaceError(f"amalgam local component {A.render(e.local)} is not an atom")
    return AmalgamSpec(local, GlobalSpec(_exponent(e.gp), PowerWeight(e.gs)))


def _eval(e, f: SampledFunction) -> NormResult:
    if isinstance(e, A.Lp):
        w = PowerWeight(e.s)
        if e.p == A.INF0:
            prof = c0_tail_profile(f, w)
            return NormResult(
                lp_norm(f, math.inf, w),
                0.0,
                "direct",
                {"linf0_proxy": True, "vanishing_tail_ok": prof.vanishing_ok},
            )
        return NormResult(lp_norm(f, _exponent(e.p), w), 0.0, "direct")
    if isinstance(e, A.C0):
        w = PowerWeight(e.s)
        prof = c0_tail_profile(f, w)
        return NormResult(
            lp_norm(f, math.inf, w),
            0.0,
            "direct",
            {"vanishing_tail_ok": prof.vanishing_ok},
        )
    if isinstance(e, A.FL):
        return _eval(e.inner, inverse_fourier(f))
    if isinstance(e, A.FLinv):
        return _eval(e.inner, fourier(f))
    if isinstance(e, A.Amalgam):
        return amalgam_norm_discrete(f, _amalgam_spec(e))
    if isinstance(e, A.Mpq):
        if isinstance(e.p, str) or isinstance(e.q, str):
            raise UnsupportedSpaceError("modulation atom needs finite or inf exponents")
        if e.w[0] == "radial":
            w2d = RadialWeight2D(e.w[1])
        else:
            w2d = TensorWeight(PowerWeight(e.w[1]), PowerWeight(e.w[2]))
        g = normalized_gaussian(f.grid)
        return modulation_norm(f, g, _exponent(e.p), _exponent(e.q), w2d)
    if isinstance(e, A.Qs):
        return shubin_norm(f, e.s)
    raise UnsupportedSpaceError(f"no concrete norm for {A.render(e)}")


def stack_evaluator(e):
    """(rows, grid) -> the norm in ``e`` of every row of a (B, *grid.shape)
    stack, for L^p atoms, amalgams of atoms and F(X) of those, measured as
    ||F^(-1) row||_X on the dual grid; specs are built once, here."""
    if isinstance(e, A.Lp):
        p, w = _exponent(e.p), PowerWeight(e.s)
        return lambda rows, grid: lp_norms(rows, grid, p, w)
    if isinstance(e, A.FL):
        inner = stack_evaluator(e.inner)
        return lambda rows, g: inner(transform_axes(rows, g.spacing, +1, g.dim), g.dual())
    if isinstance(e, A.Amalgam):
        spec = _amalgam_spec(e)
        return lambda rows, grid: [r.value for r in amalgam_norms(rows, grid, spec)]
    raise UnsupportedSpaceError(f"no stack norm for {A.render(e)}")


def stack_dual_norm(e):
    """(rows, grid) -> dual(u) of every row u of a stack, so that the grid
    pairing obeys |<u, f>| <= dual(u) ||f||_e: L^q for an unweighted L^p, the
    dual amalgam times the overlap factor for an amalgam, and X's dual norm
    of the forward transform for F(X)."""
    if isinstance(e, A.Lp) and e.s == 0.0:
        q = _conjugate(_exponent(e.p))
        return lambda rows, grid: lp_norms(rows, grid, q)
    if isinstance(e, A.FL):
        inner = stack_dual_norm(e.inner)
        return lambda rows, g: inner(transform_axes(rows, g.spacing, -1, g.dim), g.dual())
    if isinstance(e, A.Amalgam):
        spec = _amalgam_spec(e)
        dual = dual_amalgam_spec(spec)
        return lambda rows, grid: [
            r.value * overlap_factor(spec, grid) for r in amalgam_norms(rows, grid, dual)
        ]
    raise UnsupportedSpaceError(f"no dual norm for {A.render(e)}")


def eval_space_norm(expr, f: SampledFunction) -> tuple:
    """Evaluate the norm of f in the space ``expr`` denotes.

    Returns (NormResult, normal_form, trace); composite expressions are
    normalized first and the normal form is the one evaluated.
    """
    try:
        return _eval(expr, f), expr, []
    except UnsupportedSpaceError:
        pass
    nf, trace = normalize(expr)
    if nf == expr:
        raise UnsupportedSpaceError(
            f"{A.render(expr)} does not reduce to an evaluable space"
        )
    res = _eval(nf, f)
    return res, nf, trace
