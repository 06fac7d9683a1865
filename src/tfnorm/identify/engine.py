"""Normalization and inclusion queries over space expressions.

Strategy: rules are tried in table (priority) order; the first rule that
matches anywhere fires at its innermost match, and the scan restarts. The
priority-primary order is what makes the specific corollaries produce the
canonical forms the numeric fixtures expect; within one rule, innermost
matches keep reduction deterministic. Every rule strictly decreases a
weighted node count (with a subterm-size tiebreaker for the inward-moving
duality rule), so normalization terminates on all inputs; irreducible
expressions are their own normal form.

``includes`` searches the directed embedding edges (amalgam global-exponent
monotonicity, the unweighted amalgam/space sandwich, and pi into eps),
closed under congruence in monotone positions and under normalize-equality.
Every node it keeps has, after ``normalize``, at most four nodes more than
the goal (or no more than the start, if that is larger); without this bound
the sandwich's growth edge E -> W(E, linf0) nests W(W(...W(E, linf0)...))
without end. Absence of a derivation is reported as "no-evidence", never as
a non-inclusion; the result's ``exhausted`` flag says whether the search
visited every node within the bound or stopped at its node budget.
"""

from __future__ import annotations

import numbers
from collections import deque
from dataclasses import dataclass

from .ast import (
    Amalgam,
    Dual,
    INF,
    INF0,
    TensorEps,
    TensorPi,
    children,
    exponent_key,
    rebuild,
    render,
)
from .rules import RULES

__all__ = ["RuleFiring", "normalize", "explain", "trace_to_json", "includes", "InclusionResult"]

_MAX_STEPS = 10_000


@dataclass(frozen=True)
class RuleFiring:
    rule_id: str
    location: str
    before: object
    after: object


def _find_innermost(rule, expr):
    """Path (tuple of child indices) of the innermost match, or None."""
    for i, kid in enumerate(children(expr)):
        sub = _find_innermost(rule, kid)
        if sub is not None:
            return (i,) + sub
    if rule.apply(expr) is not None:
        return ()
    return None


def _rewrite_at(expr, path, rule):
    if path == ():
        return rule.apply(expr)
    kids = list(children(expr))
    kids[path[0]] = _rewrite_at(kids[path[0]], path[1:], rule)
    return rebuild(expr, tuple(kids))


def normalize(expr) -> tuple:
    """Reduce to a normal form; returns (normal_form, trace of firings)."""
    trace = []
    current = expr
    for _ in range(_MAX_STEPS):
        fired = False
        for rule in RULES:
            path = _find_innermost(rule, current)
            if path is not None:
                after = _rewrite_at(current, path, rule)
                trace.append(RuleFiring(rule.id, rule.location, current, after))
                current = after
                fired = True
                break
        if not fired:
            return current, trace
    raise RuntimeError("rewrite did not terminate (rule table bug)")


def explain(trace) -> str:
    """Human-readable derivation: one line per firing."""
    if not trace:
        return "already normal"
    lines = []
    for i, f in enumerate(trace, 1):
        lines.append(
            f"{i}. {f.rule_id} [{f.location}]: {render(f.before)} -> {render(f.after)}"
        )
    return "\n".join(lines)


def trace_to_json(trace) -> list:
    """Serializable firings with the documented field set."""
    return [
        {
            "rule_id": f.rule_id,
            "paper_location": f.location,
            "before": render(f.before),
            "after": render(f.after),
        }
        for f in trace
    ]


# ---------------------------------------------------------------------------
# inclusion closure


@dataclass(frozen=True)
class InclusionResult:
    """Outcome of ``includes``.

    ``nodes`` is the number of distinct normal forms the search kept and
    ``exhausted`` is True when its queue emptied before the budget ran out:
    a no-evidence answer with ``exhausted`` True means no chain of the edges
    exists through nodes within the size bound, with ``exhausted`` False
    only that the budget was too small to tell.
    """

    status: str  # "established" | "no-evidence"
    chain: tuple = ()
    nodes: int = 0
    exhausted: bool = False

    @property
    def established(self) -> bool:
        return self.status == "established"


def _edge_targets(e, candidate_ps):
    """Single embedding steps available at this node, with edge labels."""
    out = []
    if isinstance(e, Amalgam):
        key = exponent_key(e.gp)
        for p in candidate_ps:
            if exponent_key(p) > key:
                out.append((Amalgam(e.local, p, e.gs), "Lemma 3.1(i): global exponent grows"))
        if e.gp == 1.0 and e.gs == 0.0:
            out.append((e.local, "Eq. (3.4): W(E, l1) into E"))
    if isinstance(e, (TensorPi,)):
        out.append((TensorEps(e.a, e.b), "pi tensor into eps tensor"))
    return out


def _wrap_targets(e, goal_size):
    """Growth edge E -> W(E, linf0), for a subexpression within ``goal_size``.

    This only limits which subexpressions are wrapped. What bounds the
    search is the size check ``includes`` applies to every whole node after
    ``normalize``: a bound on the subexpression alone lets a search nest
    W(W(...W(E, linf0)...)) without end.
    """
    if _size(e) + 1 <= goal_size:
        return [(Amalgam(e, INF0, 0.0), "Eq. (3.4): E into W(E, linf0)")]
    return []


def _size(e) -> int:
    return 1 + sum(_size(k) for k in children(e))


def _positions(e):
    """All monotone positions: congruence stops below Dual (contravariant)."""
    yield (), e
    if isinstance(e, Dual):
        return
    for i, kid in enumerate(children(e)):
        for path, sub in _positions(kid):
            yield (i,) + path, sub


def _replace(e, path, new):
    if path == ():
        return new
    kids = list(children(e))
    kids[path[0]] = _replace(kids[path[0]], path[1:], new)
    return rebuild(e, tuple(kids))


def _global_exponents(e, acc):
    if isinstance(e, Amalgam):
        acc.add(e.gp)
    for k in children(e):
        _global_exponents(k, acc)


def _chain_to(parents, node) -> list:
    """Rendered (label, before, after) steps from the search's start to node."""
    steps = []
    while parents[node] is not None:
        prev, label = parents[node]
        steps.append((label, render(prev), render(node)))
        node = prev
    return steps[::-1]


def includes(a, b, max_nodes: int = 4000) -> InclusionResult:
    """Breadth-first search for an embedding chain from a into b.

    Nodes are canonicalized by ``normalize`` (equal spaces, recorded as
    chain steps when they change the expression). The edges are amalgam
    global-exponent growth (Lemma 3.1(i)), the sandwich W(E, l1) into E into
    W(E, linf0) (Eq. (3.4)) and pi into eps, at every monotone position. A
    node is kept only if, after ``normalize``, it has at most
    max(size of the start, size of the goal + 4) nodes. The bound is checked
    after ``normalize`` because a step can overshoot it and a rule then
    collapse the whole node (wrapping a factor in W(E, linf0) can let a Mod
    rule reduce the node to the goal).

    Returns the chain of edges, or no-evidence; the rule set only provides
    inclusions, so a negative answer is never asserted. ``nodes`` counts the
    distinct nodes kept; ``exhausted`` tells a no-evidence answer whose
    search visited every node within the bound from one that stopped at
    ``max_nodes`` (the search stops expanding once it has kept that many).
    Raises ``ValueError`` if ``max_nodes`` is not an integer >= 1.
    """
    if isinstance(max_nodes, bool) or not isinstance(max_nodes, numbers.Integral) or max_nodes < 1:
        raise ValueError(f"max_nodes must be an integer >= 1, got {max_nodes!r}")
    start, trace_a = normalize(a)
    goal, trace_b = normalize(b)
    prologue = [("normalize", render(a), render(start))] if trace_a else []
    epilogue = [("normalize (reversed)", render(goal), render(b))] if trace_b else []
    if start == goal:
        return InclusionResult("established", tuple(prologue + epilogue), nodes=1)

    candidates = {1.0, 2.0, INF0, INF}
    _global_exponents(start, candidates)
    _global_exponents(goal, candidates)
    goal_size = _size(goal) + 4
    max_size = max(_size(start), goal_size)

    parents = {start: None}  # node -> (node it was reached from, edge label)
    queue = deque([start])
    while queue and len(parents) < max_nodes:
        node = queue.popleft()
        for path, sub in _positions(node):
            steps = _edge_targets(sub, candidates) + _wrap_targets(sub, goal_size)
            for new_sub, label in steps:
                cand, _ = normalize(_replace(node, path, new_sub))
                if cand in parents or _size(cand) > max_size:
                    continue
                parents[cand] = (node, label)
                if cand == goal:
                    chain = prologue + _chain_to(parents, cand) + epilogue
                    return InclusionResult("established", tuple(chain), nodes=len(parents))
                queue.append(cand)
    return InclusionResult("no-evidence", nodes=len(parents), exhausted=not queue)
