"""Space-expression AST.

Nodes are frozen dataclasses, so expressions hash and compare structurally.
Weights are power exponents: a 1d weight is the float s of v_s(x) = (1+|x|)^s;
a 2d (time-frequency) weight is either ("tensor", s1, s2) or ("radial", s).
The radial weight with s = 0 is the constant weight and is canonicalized to
tensor form.

Every node carries derived translation/modulation growth exponents. The
convention follows the rewrite-engine design: an exponent <= 0 counts as
"translation bounded" for theorem side conditions, and exactly 0 as flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "INF",
    "INF0",
    "SpaceExpr",
    "Lp",
    "C0",
    "FL",
    "FLinv",
    "Amalgam",
    "TensorPi",
    "TensorEps",
    "Mod",
    "Dual",
    "Mpq",
    "Qs",
    "tensor_weight",
    "radial_weight",
    "omega_exponent",
    "nu_exponent",
    "omega_flat",
    "omega_bounded",
    "children",
    "rebuild",
    "render",
    "exponent_key",
]

INF = math.inf
#: marker for the vanishing-at-infinity variant of the sup exponent
INF0 = "inf0"


def _check_exponent(p):
    if p == INF or p == INF0:
        return
    if not (isinstance(p, (int, float)) and 1.0 <= p < INF):
        raise ValueError(f"exponent must be in [1, inf] or 'inf0', got {p!r}")


def tensor_weight(s1: float, s2: float) -> tuple:
    return ("tensor", float(s1), float(s2))


def radial_weight(s: float) -> tuple:
    if s == 0.0:
        return tensor_weight(0.0, 0.0)
    return ("radial", float(s))


@dataclass(frozen=True)
class Lp:
    """L^p_{v_s}; p may be INF (sup norm) or INF0 (vanishing variant)."""

    p: object
    s: float = 0.0

    def __post_init__(self):
        _check_exponent(self.p)
        object.__setattr__(self, "p", self.p if isinstance(self.p, str) else float(self.p))
        object.__setattr__(self, "s", float(self.s))


@dataclass(frozen=True)
class C0:
    """Continuous functions vanishing at infinity against v_s."""

    s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "s", float(self.s))


@dataclass(frozen=True)
class FL:
    inner: object


@dataclass(frozen=True)
class FLinv:
    inner: object


@dataclass(frozen=True)
class Amalgam:
    """W(local, l^p_{v_s}); global exponent may be INF or INF0."""

    local: object
    gp: object
    gs: float = 0.0

    def __post_init__(self):
        _check_exponent(self.gp)
        object.__setattr__(self, "gp", self.gp if isinstance(self.gp, str) else float(self.gp))
        object.__setattr__(self, "gs", float(self.gs))


@dataclass(frozen=True)
class TensorPi:
    a: object
    b: object


@dataclass(frozen=True)
class TensorEps:
    a: object
    b: object


@dataclass(frozen=True)
class Mod:
    inner: object


@dataclass(frozen=True)
class Dual:
    inner: object


@dataclass(frozen=True)
class Mpq:
    """Classical modulation-space atom M^{p,q} with a 2d weight."""

    p: float
    q: float
    w: tuple = ("tensor", 0.0, 0.0)

    def __post_init__(self):
        _check_exponent(self.p)
        _check_exponent(self.q)
        kind = self.w[0]
        if kind not in ("tensor", "radial"):
            raise ValueError(f"unknown 2d weight {self.w!r}")
        if kind == "radial" and self.w[1] == 0.0:
            object.__setattr__(self, "w", tensor_weight(0.0, 0.0))


@dataclass(frozen=True)
class Qs:
    """Shubin-Sobolev atom of order s."""

    s: float

    def __post_init__(self):
        object.__setattr__(self, "s", float(self.s))


SpaceExpr = (Lp, C0, FL, FLinv, Amalgam, TensorPi, TensorEps, Mod, Dual, Mpq, Qs)


def children(e) -> tuple:
    if isinstance(e, (FL, FLinv, Mod, Dual)):
        return (e.inner,)
    if isinstance(e, Amalgam):
        return (e.local,)
    if isinstance(e, (TensorPi, TensorEps)):
        return (e.a, e.b)
    return ()


def rebuild(e, kids: tuple):
    if isinstance(e, (FL, FLinv, Mod, Dual)):
        return type(e)(kids[0])
    if isinstance(e, Amalgam):
        return Amalgam(kids[0], e.gp, e.gs)
    if isinstance(e, (TensorPi, TensorEps)):
        return type(e)(kids[0], kids[1])
    return e


def omega_exponent(e) -> float:
    """Signed translation-growth exponent of the node's power weights."""
    if isinstance(e, (Lp, C0)):
        return e.s
    if isinstance(e, (FL, FLinv)):
        return nu_exponent(e.inner)
    if isinstance(e, Amalgam):
        return omega_exponent(e.local) + e.gs
    if isinstance(e, (TensorPi, TensorEps)):
        return omega_exponent(e.a) + omega_exponent(e.b)
    if isinstance(e, (Mod, Dual)):
        return omega_exponent(e.inner)
    if isinstance(e, Mpq):
        return e.w[1]
    if isinstance(e, Qs):
        return e.s
    raise TypeError(f"not a space expression: {e!r}")


def nu_exponent(e) -> float:
    """Signed modulation-growth exponent; swaps with omega under F."""
    if isinstance(e, (Lp, C0)):
        return 0.0
    if isinstance(e, (FL, FLinv)):
        return omega_exponent(e.inner)
    if isinstance(e, Amalgam):
        return nu_exponent(e.local)
    if isinstance(e, (TensorPi, TensorEps)):
        return nu_exponent(e.a) + nu_exponent(e.b)
    if isinstance(e, (Mod, Dual)):
        return nu_exponent(e.inner)
    if isinstance(e, Mpq):
        return e.w[2] if e.w[0] == "tensor" else e.w[1]
    if isinstance(e, Qs):
        return e.s
    raise TypeError(f"not a space expression: {e!r}")


def omega_flat(e) -> bool:
    return omega_exponent(e) == 0.0


def omega_bounded(e) -> bool:
    """Side-condition predicate: flat, or nonpositive weight exponent."""
    return omega_exponent(e) <= 0.0


def exponent_key(p) -> tuple:
    """Order on exponents: 1 <= ... < inf0 < inf."""
    if p == INF:
        return (2, 0.0)
    if p == INF0:
        return (1, 0.0)
    return (0, float(p))


def _fmt_num(x: float) -> str:
    if x == int(x):
        return str(int(x))
    return repr(float(x))


def _fmt_exponent(p) -> str:
    if p == INF:
        return "inf"
    if p == INF0:
        return "inf0"
    return _fmt_num(p)


def _bracket(s: float) -> str:
    return "" if s == 0.0 else f"[{_fmt_num(s)}]"


def render(e) -> str:
    """Canonical text in the parser's grammar (round trips through parse)."""
    if isinstance(e, Lp):
        if e.p == INF:
            return "Linf" + _bracket(e.s)
        if e.p == INF0:
            return "Linf0" + _bracket(e.s)
        return f"L{_fmt_num(e.p)}" + _bracket(e.s)
    if isinstance(e, C0):
        return "C0" + _bracket(e.s)
    if isinstance(e, FL):
        if isinstance(e.inner, Lp) and not isinstance(e.inner.p, str):
            return f"FL{_fmt_exponent(e.inner.p)}" + _bracket(e.inner.s)
        return f"F({render(e.inner)})"
    if isinstance(e, FLinv):
        return f"Finv({render(e.inner)})"
    if isinstance(e, Amalgam):
        if e.gp == INF:
            glob = "linf" + _bracket(e.gs)
        elif e.gp == INF0:
            glob = "linf0" + _bracket(e.gs)
        else:
            glob = f"l{_fmt_num(e.gp)}" + _bracket(e.gs)
        return f"W({render(e.local)}, {glob})"
    if isinstance(e, TensorPi):
        return f"({render(e.a)} opi {render(e.b)})"
    if isinstance(e, TensorEps):
        return f"({render(e.a)} oeps {render(e.b)})"
    if isinstance(e, Mod):
        return f"Mod({render(e.inner)})"
    if isinstance(e, Dual):
        return f"Dual({render(e.inner)})"
    if isinstance(e, Mpq):
        head = f"M{_fmt_exponent(e.p)},{_fmt_exponent(e.q)}"
        if e.w[0] == "radial":
            return head + f"[rad {_fmt_num(e.w[1])}]"
        s1, s2 = e.w[1], e.w[2]
        if s1 == 0.0 and s2 == 0.0:
            return head
        return head + f"[{_fmt_num(s1)},{_fmt_num(s2)}]"
    if isinstance(e, Qs):
        return f"Q{_fmt_num(e.s)}"
    raise TypeError(f"not a space expression: {e!r}")
