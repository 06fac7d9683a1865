"""Rewrite rules encoding the norm-identification theorems.

Each rule carries an id, a location label in the identity catalog (the same
numbering the verification suites use), a formula-style statement, and a
matcher returning the replacement for a node or None. Side conditions
(exponent constraints, translation-boundedness of the first tensor factor)
live inside the matchers; a rule fires only when they hold.

Rules are listed in priority order: eager atom expansions, then structural
cancellations, then the specific corollaries, then the general theorems,
then structural identities. Conditions quantifying over auxiliary spaces
("there exists a space E1 with W(E1, l1_eta) inside F^(-1)E inside
W(E1, l^q_eta)") are not mechanizable as local rewrites and are not encoded;
their concrete instances are covered by the numeric suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ast import (
    Amalgam,
    C0,
    Dual,
    FL,
    FLinv,
    INF,
    INF0,
    Lp,
    Mod,
    Mpq,
    Qs,
    TensorEps,
    TensorPi,
    omega_bounded,
    tensor_weight,
    radial_weight,
)

__all__ = ["RewriteRule", "RULES", "RULE_TABLE", "RULE_NUMERIC_SUITE"]


@dataclass(frozen=True)
class RewriteRule:
    id: str
    location: str
    statement: str
    matcher: object

    def apply(self, expr):
        return self.matcher(expr)


def _finite(p) -> bool:
    return not isinstance(p, str) and p != INF


def _conj(p: float) -> float:
    return INF if p == 1.0 else p / (p - 1.0)


# -- matchers ---------------------------------------------------------------


def _m_q(e):
    if isinstance(e, Qs):
        if e.s == 0.0:
            return Lp(2.0, 0.0)
        return Mpq(2.0, 2.0, radial_weight(e.s))
    return None


def _m_ffinv(e):
    if isinstance(e, FL) and isinstance(e.inner, FLinv):
        return e.inner.inner
    if isinstance(e, FLinv) and isinstance(e.inner, FL):
        return e.inner.inner
    return None


def _m_c61a(e):
    if not (isinstance(e, Mod) and isinstance(e.inner, TensorPi)):
        return None
    a, b = e.inner.a, e.inner.b
    if (
        isinstance(a, Lp)
        and isinstance(b, Lp)
        and a.s == 0.0
        and b.s == 0.0
        and _finite(a.p)
        and _finite(b.p)
        and 1.0 <= a.p <= b.p <= 2.0
    ):
        return Amalgam(FL(Lp(b.p, 0.0)), 1.0, 0.0)
    return None


def _m_c61b(e):
    if not (isinstance(e, Mod) and isinstance(e.inner, TensorEps)):
        return None
    a, b = e.inner.a, e.inner.b
    if not (isinstance(b, Lp) and b.s == 0.0 and _finite(b.p) and b.p >= 2.0):
        return None
    first_ok = isinstance(a, C0) and a.s == 0.0
    first_ok = first_ok or (
        isinstance(a, Lp) and a.s == 0.0 and _finite(a.p) and a.p >= b.p
    )
    if first_ok:
        return Amalgam(FL(Lp(b.p, 0.0)), INF0, 0.0)
    return None


def _m_c61c(e):
    if not (isinstance(e, Mod) and isinstance(e.inner, TensorEps)):
        return None
    a, b = e.inner.a, e.inner.b
    if isinstance(a, C0) and isinstance(b, C0):
        # reflected weights coincide with the weights for even powers
        return Amalgam(FL(C0(b.s)), INF0, a.s)
    return None


def _m_r62(e):
    if isinstance(e, FL) and isinstance(e.inner, Mpq):
        m = e.inner
        if m.w[0] == "tensor" and m.q == 1.0 and _finite(m.p):
            return Amalgam(FL(Lp(m.p, m.w[1])), 1.0, m.w[2])
    return None


def _m_r69i(e):
    if not (isinstance(e, Mod) and isinstance(e.inner, TensorPi)):
        return None
    a, b = e.inner.a, e.inner.b
    if isinstance(a, Lp) and a.p == 1.0:
        return Amalgam(FLinv(b), 1.0, a.s)
    return None


def _second_fourier_factor(b):
    """Unwrap F(...) or Finv(...); both act the same on even-weight spaces."""
    if isinstance(b, (FL, FLinv)):
        return b.inner
    return None


def _m_r69ii(e):
    if not isinstance(e, Mod):
        return None
    t = e.inner
    if isinstance(t, TensorPi):
        inner = _second_fourier_factor(t.b)
        if not omega_bounded(t.a):
            return None
        if isinstance(inner, Lp) and inner.p == 1.0:
            return Lp(1.0, inner.s)
        if isinstance(inner, Amalgam) and inner.gp == 1.0:
            return inner
    if isinstance(t, TensorEps):
        inner = _second_fourier_factor(t.b)
        if not omega_bounded(t.a):
            return None
        if isinstance(inner, C0):
            return inner
        if isinstance(inner, Amalgam) and inner.gp == INF0:
            return inner
    return None


def _m_r69iii(e):
    if not isinstance(e, Mod):
        return None
    t = e.inner
    if not isinstance(t, (TensorPi, TensorEps)):
        return None
    a = t.a
    inner = _second_fourier_factor(t.b)
    if not (isinstance(a, Lp) and isinstance(inner, Lp)):
        return None
    if not (_finite(a.p) and _finite(inner.p)):
        return None
    p1, p2 = a.p, inner.p
    if isinstance(t, TensorPi) and 1.0 / p1 + 1.0 / p2 >= 1.0:
        return Amalgam(Lp(p2, 0.0), 1.0, a.s + inner.s)
    if (
        isinstance(t, TensorEps)
        and p1 > 1.0
        and p2 > 1.0
        and 1.0 / p1 + 1.0 / p2 <= 1.0
    ):
        return Amalgam(Lp(p2, 0.0), INF0, a.s + inner.s)
    return None


def _amalgam_pair(t):
    """(F-amalgam, E-amalgam) factors of a tensor node, or None."""
    if not isinstance(t.a, Amalgam):
        return None
    inner = _second_fourier_factor(t.b)
    if not isinstance(inner, Amalgam):
        return None
    return t.a, inner


def _m_t42(e):
    if not (isinstance(e, Mod) and isinstance(e.inner, TensorPi)):
        return None
    pair = _amalgam_pair(e.inner)
    if pair is None:
        return None
    wf, we = pair
    if not omega_bounded(wf.local):
        return None
    p1, p2 = wf.gp, we.gp
    case_i = _finite(p1) and _finite(p2) and 1.0 / p1 + 1.0 / p2 >= 1.0
    case_ii = p1 == INF0 and p2 == 1.0
    case_iii = p1 == 1.0 and p2 == INF0
    if case_i or case_ii or case_iii:
        return Amalgam(we.local, 1.0, wf.gs + we.gs)
    return None


def _m_t51(e):
    if not (isinstance(e, Mod) and isinstance(e.inner, TensorEps)):
        return None
    pair = _amalgam_pair(e.inner)
    if pair is None:
        return None
    wf, we = pair
    if not omega_bounded(wf.local):
        return None
    p1, p2 = wf.gp, we.gp
    case_i = (
        _finite(p1)
        and _finite(p2)
        and p1 > 1.0
        and p2 > 1.0
        and 1.0 / p1 + 1.0 / p2 <= 1.0
    )
    case_ii = p1 == INF0 and _finite(p2)
    case_iii = _finite(p1) and p2 == INF0
    case_iv = p1 == INF0 and p2 == INF0
    if case_i or case_ii or case_iii or case_iv:
        return Amalgam(we.local, INF0, wf.gs + we.gs)
    return None


def _m_l34(e):
    if isinstance(e, Mpq) and e.w[0] == "tensor" and _finite(e.p) and _finite(e.q):
        return FLinv(Amalgam(FL(Lp(e.p, e.w[1])), e.q, e.w[2]))
    return None


def _m_boch(e):
    if not (isinstance(e, Mod) and isinstance(e.inner, TensorPi)):
        return None
    a, b = e.inner.a, e.inner.b
    if isinstance(a, Lp) and isinstance(b, Lp) and _finite(a.p) and b.p == 1.0:
        return Mpq(a.p, 1.0, tensor_weight(a.s, b.s))
    return None


def _m_dual(e):
    if not (isinstance(e, Dual) and isinstance(e.inner, Amalgam)):
        return None
    w = e.inner
    if w.gp == INF0:
        return Amalgam(Dual(w.local), 1.0, -w.gs)
    if _finite(w.gp):
        return Amalgam(Dual(w.local), _conj(w.gp), -w.gs)
    return None


def _m_dual_lp(e):
    if not (isinstance(e, Dual) and isinstance(e.inner, Lp)):
        return None
    atom = e.inner
    if atom.p == INF0:
        return Lp(1.0, -atom.s)
    if _finite(atom.p):
        return Lp(_conj(atom.p), -atom.s)
    return None


RULES = [
    RewriteRule(
        "R_Q",
        "Corollary 6.7",
        "Q_s = M^{2,2} with radial weight v_s; Q_0 = L^2",
        _m_q,
    ),
    RewriteRule(
        "R_FFinv",
        "Fourier inversion",
        "F(Finv(X)) = X and Finv(F(X)) = X",
        _m_ffinv,
    ),
    RewriteRule(
        "R_C61a",
        "Corollary 6.1(a)",
        "Mod(L^p1 opi L^p2) = W(FL^p2, l1) for 1 <= p1 <= p2 <= 2",
        _m_c61a,
    ),
    RewriteRule(
        "R_C61b",
        "Corollary 6.1(b)",
        "Mod(L^p1 oeps L^p2) = Mod(C0 oeps L^p2) = W(FL^p2, linf0) for 2 <= p2 <= p1 < inf",
        _m_c61b,
    ),
    RewriteRule(
        "R_C61c",
        "Corollary 6.1(c)",
        "Mod(C0[s1] oeps C0[s2]) = W(F(C0[s2]), linf0[s1])",
        _m_c61c,
    ),
    RewriteRule(
        "R_R62",
        "Remark 6.2",
        "F(M^{p,1}[s1,s2]) = W(FL^p[s1], l1[s2])",
        _m_r62,
    ),
    RewriteRule(
        "R_R69i",
        "Remark 6.9(i)",
        "Mod(L1[s] opi E) = W(Finv(E), l1[s])",
        _m_r69i,
    ),
    RewriteRule(
        "R_R69ii",
        "Remark 6.9(ii)",
        "Mod(F opi F(W(E, l1[s]))) = W(E, l1[s]) and the eps/linf0 twin, "
        "for translation-bounded F; collapses W(L1, l1[s]) to L1[s]",
        _m_r69ii,
    ),
    RewriteRule(
        "R_R69iii",
        "Remark 6.9(iii)",
        "Mod(L^p1[s1] opi FL^p2[s2]) = W(L^p2, l1[s1+s2]) for 1/p1 + 1/p2 >= 1; "
        "eps twin with linf0 for 1/p1 + 1/p2 <= 1",
        _m_r69iii,
    ),
    RewriteRule(
        "R_T42",
        "Theorem 4.2",
        "Mod(W(F, l^p1[s1]) opi F(W(E, l^p2[s2]))) = W(E, l1[s1+s2]) for "
        "1/p1 + 1/p2 >= 1 (or the 1/inf0 pairs), translation-bounded F",
        _m_t42,
    ),
    RewriteRule(
        "R_T51",
        "Theorem 5.1",
        "Mod(W(F, l^p1[s1]) oeps F(W(E, l^p2[s2]))) = W(E, linf0[s1+s2]) for "
        "1/p1 + 1/p2 <= 1 (or the inf0 pairs), translation-bounded F",
        _m_t51,
    ),
    RewriteRule(
        "R_L34",
        "Lemma 3.4",
        "M^{p1,p2}[s1,s2] = Finv(W(FL^p1[s1], l^p2[s2]))",
        _m_l34,
    ),
    RewriteRule(
        "R_Boch",
        "Remark 6.9(i)",
        "Mod(L^p[s1] opi L1[s2]) = M^{p,1}[s1,s2] (Bochner identification)",
        _m_boch,
    ),
    RewriteRule(
        "R_Dual",
        "Lemma 3.1(iii)",
        "Dual(W(E, l^p[s])) = W(Dual(E), l^q[-s]); Dual(W(E, linf0[s])) = W(Dual(E), l1[-s])",
        _m_dual,
    ),
    RewriteRule(
        "R_DualLp",
        "standard duality",
        "Dual(L^p[s]) = L^q[-s]; Dual(Linf0[s]) = L1[-s]",
        _m_dual_lp,
    ),
]

RULE_TABLE = {r.id: r for r in RULES}

#: soundness hooks, the one rule -> suite map (one suite per rule): the suite
#: verifies the rule's content; sandwich suites take their hypotheses from it
RULE_NUMERIC_SUITE = {
    "R_L34": "lemma3.4",
    "R_T42": "thm4.2",
    "R_T51": "thm5.1",
    "R_C61a": "cor6.1a",
    "R_C61b": "cor6.1b",
    "R_R62": "rem6.2",
    "R_Q": "cor6.7",
}
