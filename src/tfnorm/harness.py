"""Verification suites: run one identity check over the test family and
report the empirical constants.

The identities hold with unspecified equivalence constants, so a suite
never asserts a numeric value. It computes per-function ratios of two
independently evaluated norms; a case passes when their spread (max/min)
stays under the configured bound (default 10, or 100 for sampled
lower-bound suites), or, for ``ordering`` and residual cases, when the
largest ratio stays under 1.

Theorems 4.2 (pi) and 5.1 (eps) and their L^p instances, Corollary
6.1(a)/(b), are the rows of one table, ``SANDWICHES``. A row builds the
factor spaces A and B from the config; the suite's rule in
``RULE_NUMERIC_SUITE``, applied once per run to Mod(A op B), is the
hypothesis check and gives the target X. The pi sandwich compares the pi
bound of each member's decomposition with ||f||_X (``lower``) and
||synthesis||_X of seeded smooth tensors with their pi bound (``upper``);
the eps sandwich compares the eps lower bound from seeded dual samples
with the pi bound (``ordering``: eps <= pi) and with ||f||_X (``lower``).

Reports are deterministic given (seed, config) and serialize
byte-identically; the runtime field stays in memory only.
"""

from __future__ import annotations

import io
import json
import math
import numbers
import time
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .bupu import SpacingError, make_integer_bupu, validate_bupu
from .evaluate import _amalgam_spec, _local_spec, eval_space_norm, stack_dual_norm, stack_evaluator
from .family import test_family
from .grid import GridSpec
from .identify import ast as A
from .identify.engine import normalize, trace_to_json
from .identify.parser import parse_space
from .identify.rules import RULE_NUMERIC_SUITE, RULE_TABLE
from .norms import (
    INF0,
    amalgam_norm_discrete,
    amalgam_norm_continuous,
    lp_norm,
    mixed_norm,
)
from .stft import stft, check_inversion
from .tensor import (
    FiniteTensor,
    aligned_dual_sample,
    decompose_mollified,
    decompose_splitting,
    eps_lower_bound,
    make_dual_samples,
    pi_upper_bound,
    synthesize,
)
from .transforms import approx_identity_gn, fourier, hermite_projector
from .weights import PowerWeight, RadialWeight2D
from .windows import gaussian, normalized_gaussian, plateau

__all__ = [
    "ConfigError",
    "VerificationReport",
    "run_verification",
    "emit_report",
    "registered_suites",
    "SUITE_LOCATIONS",
]


class ConfigError(ValueError):
    """Configuration violates a suite hypothesis; the message cites it."""


@dataclass
class VerificationReport:
    theorem_id: str
    location: str
    config: dict
    rows: list  # dicts: {case, name, lhs, rhs, ratio}
    stats: dict  # per case: {min, max, spread}
    bounds: dict  # per case: {kind: "spread"|"max", value: float}
    passed: bool
    grid: dict
    seed: int
    verifies_rule: str | None
    runtime_s: float = 0.0  # in-memory only; excluded from serialization

    def to_dict(self) -> dict:
        keys = ("theorem_id", "location", "config", "grid", "seed", "verifies_rule",
                "rows", "stats", "bounds", "passed")
        return {k: getattr(self, k) for k in keys}


def emit_report(report: VerificationReport, format: str = "json") -> bytes:
    """Serialize with stable field ordering; byte-identical across runs."""
    if format == "json":
        return (json.dumps(report.to_dict(), indent=2) + "\n").encode()
    if format == "csv":
        buf = io.StringIO()
        buf.write("case,name,lhs,rhs,ratio\n")
        for r in report.rows:
            ratio = "" if r["ratio"] is None else repr(r["ratio"])
            buf.write(f"{r['case']},{r['name']},{r['lhs']!r},{r['rhs']!r},{ratio}\n")
        for case in report.stats:
            st = report.stats[case]
            buf.write(
                f"summary:{case},spread,{st['min']!r},{st['max']!r},{st['spread']!r}\n"
            )
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {format!r}")


# ---------------------------------------------------------------------------
# shared helpers


def _grid_from_config(cfg: dict) -> GridSpec:
    try:
        return GridSpec(1, float(cfg.get("L", 16.0)), int(cfg.get("N", 1024)))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid grid: {e}") from None


def _check_integer_cfg(cfg: dict) -> None:
    """``seed`` (>= 0), ``dual_count`` (>= 1) and ``N`` (>= 2) are integers."""
    for key, least in (("seed", 0), ("dual_count", 1), ("N", 2)):
        v = cfg.get(key, least)
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < least:
            raise ConfigError(f"{key} must be an integer >= {least}, got {v!r}")


def _stats(ratios) -> dict:
    vals = [r for r in ratios if r is not None]
    lo = min(vals) if vals else 0.0
    hi = max(vals) if vals else 0.0
    spread = hi / lo if lo > 0 else math.inf
    return {"min": lo, "max": hi, "spread": spread}


def _spread_case(rows, case: str, bound: float):
    st = _stats([r["ratio"] for r in rows if r["case"] == case])
    ok = st["spread"] <= bound and st["min"] > 0
    return st, {"kind": "spread", "value": bound}, ok


def _max_case(rows, case: str, bound: float):
    st = _stats([r["ratio"] for r in rows if r["case"] == case])
    ok = st["max"] <= bound
    return st, {"kind": "max", "value": bound}, ok


def _row(case, name, lhs, rhs):
    ratio = None if rhs in (None, 0.0) else float(lhs / rhs)
    rhs = None if rhs is None else float(rhs)
    return {"case": case, "name": name, "lhs": float(lhs), "rhs": rhs, "ratio": ratio}


def _exponent_cfg(value):
    """Parse an exponent config entry: number, 'inf' or 'inf0'."""
    if value == "inf":
        return math.inf
    if value == INF0:
        return INF0
    try:
        p = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"exponent {value!r} must be a number, 'inf' or 'inf0'") from None
    if not 1.0 <= p:
        raise ConfigError(f"exponent {value!r} must be at least 1")
    return p


def _float_cfg(cfg: dict, key: str, default: float) -> float:
    try:
        value = float(cfg.get(key, default))
    except (TypeError, ValueError):
        value = math.nan  # refused below, as a NaN entry is
    if math.isnan(value):
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}")
    return value


def _local_cfg(cfg: dict, key: str):
    """The local-component atom that ``cfg[key]`` names (default L2), parsed."""
    text = str(cfg.get(key, "L2"))
    try:
        atom = parse_space(text)
        if _local_spec(atom) is None:
            raise ValueError("not a local atom (Lp, FLp or C0, weighted or not)")
    except ValueError as e:
        raise ConfigError(f"{key}={text!r}: {e}") from None
    return atom


def _summarize(rows, checks: dict) -> tuple:
    """(rows, stats, bounds, passed) of a suite whose ``checks`` map each
    case, in report order, to its (check, bound)."""
    stats, bounds, ok = {}, {}, True
    for case, (check, bound) in checks.items():
        stats[case], bounds[case], good = check(rows, case, bound)
        ok = ok and good
    return rows, stats, bounds, ok


def _smooth_tensors(grid: GridSpec, seed: int, count: int = 8) -> list:
    """Seeded finite tensors with smooth nonnegative-type factors (no
    cancellation between terms), for upper-direction checks."""
    rng = np.random.default_rng(seed)

    def draw_gaussian():
        a = float(rng.uniform(0.5, 3.0))
        return gaussian(grid, a=a, center=float(rng.uniform(-2.0, 2.0)))

    out = []
    for i in range(count):
        rank = 1 + int(rng.integers(0, 3))
        lam, phi, psi = [], [], []
        for _ in range(rank):
            phi.append(draw_gaussian().values)
            psi.append(fourier(draw_gaussian()).values)
            lam.append(float(rng.uniform(0.5, 1.5)) / rank)
        out.append((f"tensor_{i}", FiniteTensor(lam, phi, psi, grid, grid.dual())))
    return out


# ---------------------------------------------------------------------------
# suites


def _suite_stft_inversion(cfg):
    grid = _grid_from_config(cfg)
    tol = _float_cfg(cfg, "tol", 1e-6)
    g = normalized_gaussian(grid)
    rows = []
    for name, f in test_family(grid, seed=int(cfg.get("seed", 0))):
        rows.append(_row("residual", name, check_inversion(f, g, g), tol))
    return _summarize(rows, {"residual": (_max_case, 1.0)})


def _suite_lemma21(cfg):
    grid = _grid_from_config(cfg)
    schedule = ((4, 1), (16, 2), (64, 4))
    rows = []
    ok = True
    for name, f in test_family(grid, seed=int(cfg.get("seed", 0))):
        errs = []
        for n_h, m_g in schedule:
            approx = hermite_projector(approx_identity_gn(f, m_g), n_h)
            errs.append((approx - f).norm2() / f.norm2())
        monotone = all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))
        ok = ok and monotone
        rows.append(_row("schedule", name, errs[0], errs[-1]))
    st = _stats([r["ratio"] for r in rows])
    return rows, {"schedule": st}, {"schedule": {"kind": "monotone", "value": 0.0}}, ok


def _suite_bupu(cfg):
    grid = _grid_from_config(cfg)
    rep = validate_bupu(make_integer_bupu(grid), PowerWeight(_float_cfg(cfg, "s", 0.0)))
    rows = [
        _row("axiom", "partition_defect", rep.max_partition_defect, 1e-12),
        _row("axiom", "support_violations", float(rep.support_violation_count), 1.0),
        _row("axiom", "overlap", float(rep.overlap_bound), 2.0 ** grid.dim),
        _row("axiom", "norm_bound", rep.norm_bound, rep.norm_bound if np.isfinite(rep.norm_bound) else 0.0),
    ]
    ok = (
        rep.passed
        and rep.max_partition_defect <= 1e-12
        and rep.overlap_bound <= 2**grid.dim
        and np.isfinite(rep.norm_bound)
    )
    st = _stats([r["ratio"] for r in rows])
    return rows, {"axiom": st}, {"axiom": {"kind": "axioms", "value": 0.0}}, ok


def _suite_lemma33(cfg):
    grid = _grid_from_config(cfg)
    gp = _exponent_cfg(cfg.get("p", 1.0))
    bound = _float_cfg(cfg, "spread_bound", 10.0)
    spec = _amalgam_spec(A.Amalgam(_local_cfg(cfg, "local"), gp, _float_cfg(cfg, "s", 0.0)))
    chi = make_integer_bupu(grid).base
    rows = []
    for name, f in test_family(grid, seed=int(cfg.get("seed", 0))):
        disc = amalgam_norm_discrete(f, spec).value
        cont = amalgam_norm_continuous(f, spec, chi).value
        rows.append(_row("ratio", name, disc, cont))
    return _summarize(rows, {"ratio": (_spread_case, bound)})


def _suite_lemma34(cfg):
    grid = _grid_from_config(cfg)
    p1, p2 = (_exponent_cfg(cfg.get(k, 2.0)) for k in ("p1", "p2"))
    m = A.Mpq(p1, p2, A.tensor_weight(_float_cfg(cfg, "s1", 0.0), _float_cfg(cfg, "s2", 0.0)))
    target = _apply_rule("lemma3.4", m, "hypothesis: p1, p2 in [1, inf) (Lemma 3.4)")
    bound = _float_cfg(cfg, "spread_bound", 10.0)
    rows = [
        _row("ratio", name, _space_norm(m, f), _space_norm(target, f))
        for name, f in test_family(grid, seed=int(cfg.get("seed", 0)))
    ]
    return _summarize(rows, {"ratio": (_spread_case, bound)})


def _amalgam_factors(cfg, p1, p2):
    """W(L2, l^p1[s1]) and F(W(E, l^p2[s2])): the factors of Theorems 4.2 and 5.1."""
    a = A.Amalgam(A.Lp(2.0), p1, _float_cfg(cfg, "s1", 0.0))
    return a, A.FL(A.Amalgam(_local_cfg(cfg, "E"), p2, _float_cfg(cfg, "s2", 0.0)))


class _Sandwich(NamedTuple):
    factors: object  # (cfg, p1, p2) -> the factor spaces (A, B)
    op: type  # A.TensorPi or A.TensorEps
    decompose: str  # "mollified" or "splitting"; named, so a patched module function applies
    seed_offset: int  # of the smooth tensors (pi) or the dual samples (eps)
    exponents: tuple  # default (p1, p2)
    spread_bound: float  # default
    hypothesis: str  # ConfigError text for configs the suite's rule does not match


SANDWICHES = {
    "thm4.2": _Sandwich(
        _amalgam_factors, A.TensorPi, "mollified", 1, (1.0, 1.0), 10.0,
        "hypothesis violated: p1^{-1} + p2^{-1} >= 1 with finite exponents, or the "
        "vanishing pair (1, inf0)/(inf0, 1) (Theorem 4.2)",
    ),
    "thm5.1": _Sandwich(
        _amalgam_factors, A.TensorEps, "mollified", 17, (2.0, 2.0), 100.0,
        "hypothesis violated: p1, p2 in (1, inf) with p1^{-1} + p2^{-1} <= 1 "
        "(Theorem 5.1(i)), or vanishing globals",
    ),
    "cor6.1a": _Sandwich(
        lambda cfg, p1, p2: (A.Lp(p1), A.Lp(p2)), A.TensorPi, "splitting", 3, (1.0, 2.0), 10.0,
        "hypothesis violated: 1 <= p1 <= p2 <= 2 (Corollary 6.1(a))",
    ),
    "cor6.1b": _Sandwich(
        lambda cfg, p1, p2: (A.Lp(p1), A.Lp(p2)), A.TensorEps, "splitting", 29, (2.0, 2.0), 100.0,
        "hypothesis violated: 2 <= p2 <= p1 < inf (Corollary 6.1(b))",
    ),
}

#: the rule each suite verifies: RULE_NUMERIC_SUITE read backwards
_SUITE_RULE = {suite: rule for rule, suite in RULE_NUMERIC_SUITE.items()}


def _apply_rule(suite: str, expr, hypothesis: str):
    """Hypothesis step of a suite: the rewrite of ``expr`` by the suite's
    rule; ConfigError(hypothesis) when the rule does not match it."""
    target = RULE_TABLE[_SUITE_RULE[suite]].apply(expr)
    if target is None:
        raise ConfigError(hypothesis)
    return target


def _space_norm(expr, f) -> float:
    return eval_space_norm(expr, f)[0].value


def _rule_instance(suite: str, cfg: dict) -> tuple:
    """Hypothesis step of a sandwich: the factors (A, B) the config names and
    the target X of the suite's rule Mod(A op B) = X."""
    row = SANDWICHES[suite]
    p1, p2 = (_exponent_cfg(cfg.get(k, d)) for k, d in zip(("p1", "p2"), row.exponents))
    a, b = row.factors(cfg, p1, p2)
    return a, b, _apply_rule(suite, A.Mod(row.op(a, b)), row.hypothesis)


def _start(suite: str, cfg: dict) -> tuple:
    """A sandwich run past its hypothesis step: (row, grid, seed, spread
    bound, factors (A, B), decomposition of a member, pi bound of a tensor
    with factors measured in A and B, norm in X of a function)."""
    row = SANDWICHES[suite]
    a, b, target = _rule_instance(suite, cfg)
    norms = (stack_evaluator(a), stack_evaluator(b))
    spec_x = _amalgam_spec(target)
    decompose = decompose_mollified if row.decompose == "mollified" else decompose_splitting
    return (
        row, _grid_from_config(cfg), int(cfg.get("seed", 0)),
        _float_cfg(cfg, "spread_bound", row.spread_bound), (a, b),
        lambda f: decompose(f)[0],
        lambda tensor: pi_upper_bound(tensor, *norms),
        lambda f: amalgam_norm_discrete(f, spec_x).value,
    )


def _pi_sandwich(suite: str, cfg: dict):
    row, grid, seed, bound, _, decompose, pi, norm_x = _start(suite, cfg)
    family = test_family(grid, seed=seed)
    rows = [_row("lower", name, pi(decompose(f)), norm_x(f)) for name, f in family]
    g_syn = plateau(grid, 2.0, 3.0)
    for name, tensor in _smooth_tensors(grid, seed + row.seed_offset):
        rows.append(_row("upper", name, norm_x(synthesize(tensor, g_syn)), pi(tensor)))
    return _summarize(rows, {"lower": (_spread_case, bound), "upper": (_spread_case, bound)})


def _eps_sandwich(suite: str, cfg: dict):
    row, grid, seed, bound, factors, decompose, pi, norm_x = _start(suite, cfg)
    dual_norms = tuple(stack_dual_norm(e) for e in factors)
    count = int(cfg.get("dual_count", 256))
    duals = make_dual_samples(count, seed + row.seed_offset, dual_norms, grid, grid.dual())
    rows = []
    for name, f in test_family(grid, seed=seed):
        tensor = decompose(f)
        aligned = aligned_dual_sample(tensor, dual_norms)
        eps = max(eps_lower_bound(tensor, d) for d in (duals, aligned))
        rows.append(_row("ordering", name, eps, pi(tensor)))
        rows.append(_row("lower", name, eps, norm_x(f)))
    return _summarize(rows, {"ordering": (_max_case, 1.0), "lower": (_spread_case, bound)})


_SANDWICH_RUNS = {A.TensorPi: _pi_sandwich, A.TensorEps: _eps_sandwich}


def _suite_rem62(cfg):
    grid = _grid_from_config(cfg)
    p = _exponent_cfg(cfg.get("p1", cfg.get("p", 2.0)))
    expr = A.FL(A.Mpq(p, 1.0))
    target = _apply_rule("rem6.2", expr, "hypothesis: p in [1, inf) (Remark 6.2)")
    bound = _float_cfg(cfg, "spread_bound", 10.0)
    rows = [
        _row("ratio", name, _space_norm(target, f), _space_norm(expr, f))
        for name, f in test_family(grid, seed=int(cfg.get("seed", 0)))
    ]
    return _summarize(rows, {"ratio": (_spread_case, bound)})


def _suite_cor67(cfg):
    grid = _grid_from_config(cfg)
    s = _float_cfg(cfg, "s", 0.0)
    if s < 0:
        raise ConfigError("hypothesis violated: s >= 0 (Corollary 6.7 intersection form)")
    bound = _float_cfg(cfg, "spread_bound", 10.0)
    tol = _float_cfg(cfg, "tol", 1e-6)
    w = PowerWeight(s)
    g = normalized_gaussian(grid)
    rows = []
    for name, f in test_family(grid, seed=int(cfg.get("seed", 0))):
        v = stft(f, g)
        shubin = mixed_norm(v, 2.0, 2.0, RadialWeight2D(s))
        split = lp_norm(f, 2.0, w) + lp_norm(fourier(f), 2.0, w)
        rows.append(_row("ratio", name, shubin, split))
        if s == 0.0:
            moyal = mixed_norm(v, 2.0, 2.0, None)
            rows.append(_row("moyal", name, abs(moyal - f.norm2()) / f.norm2(), tol))
    checks = {"ratio": (_spread_case, bound)}
    if s == 0.0:
        checks["moyal"] = (_max_case, 1.0)
    return _summarize(rows, checks)


#: golden fixtures: (expression, expected normal form, expected rule ids)
GOLDEN_FIXTURES = [
    ("Mod((L1 opi L2))", "W(FL2, l1)", ["R_C61a"]),
    ("Mod((C0 oeps L3))", "W(FL3, linf0)", ["R_C61b"]),
    ("Mod((L4 oeps L2))", "W(FL2, linf0)", ["R_C61b"]),
    ("Mod((C0[1] oeps C0[2]))", "W(F(C0[2]), linf0[1])", ["R_C61c"]),
    ("Mod((L3 opi L2))", "Mod((L3 opi L2))", []),
    ("F(M2,1)", "W(FL2, l1)", ["R_R62"]),
    ("M2,1[1,1]", "Finv(W(FL2[1], l1[1]))", ["R_L34"]),
    ("Mod((L1[1] opi L2))", "W(Finv(L2), l1[1])", ["R_R69i"]),
    ("Mod((L2 opi F(L1[1])))", "L1[1]", ["R_R69ii"]),
    ("Mod((L2[1] opi F(L2[1])))", "W(L2, l1[2])", ["R_R69iii"]),
    ("Mod((W(L2, l2) opi F(W(L2, l2[1]))))", "W(L2, l1[1])", ["R_T42"]),
    ("Mod((W(L2, l3) opi F(W(L2, l2))))", "Mod((W(L2, l3) opi F(W(L2, l2))))", []),
    ("Mod((W(L2, linf0) oeps F(W(FL2, l2))))", "W(FL2, linf0)", ["R_T51"]),
    ("Mod((Q0 opi L2))", "W(FL2, l1)", ["R_Q", "R_C61a"]),
    ("Mod((L2 opi L1))", "Finv(W(FL2, l1))", ["R_Boch", "R_L34"]),
]


def _suite_identify_golden(cfg):
    from .identify.ast import render

    rows = []
    ok = True
    for text, expected_nf, expected_rules in GOLDEN_FIXTURES:
        expr = parse_space(text)
        nf1, trace1 = normalize(expr)
        nf2, trace2 = normalize(parse_space(text))
        bytes1 = json.dumps(trace_to_json(trace1)).encode()
        bytes2 = json.dumps(trace_to_json(trace2)).encode()
        good = (
            render(nf1) == expected_nf
            and [f.rule_id for f in trace1] == expected_rules
            and bytes1 == bytes2
            and render(nf1) == render(nf2)
        )
        ok = ok and good
        rows.append(_row("golden", text, 1.0 if good else 0.0, 1.0))
    st = _stats([r["ratio"] for r in rows])
    return rows, {"golden": st}, {"golden": {"kind": "exact", "value": 1.0}}, ok


SUITES = {
    "stft.inversion": ("§2 (inversion identity)", _suite_stft_inversion),
    "lemma2.1": ("Lemma 2.1", _suite_lemma21),
    "bupu": ("§3 (partition axioms)", _suite_bupu),
    "lemma3.3": ("Lemma 3.3", _suite_lemma33),
    "lemma3.4": ("Lemma 3.4", _suite_lemma34),
    **{  # located at their rule's statement
        suite: (RULE_TABLE[_SUITE_RULE[suite]].location, partial(_SANDWICH_RUNS[row.op], suite))
        for suite, row in SANDWICHES.items()
    },
    "rem6.2": ("Remark 6.2", _suite_rem62),
    "cor6.7": ("Corollary 6.7", _suite_cor67),
    "identify.golden": ("§6 (rule table)", _suite_identify_golden),
}

SUITE_LOCATIONS = {k: v[0] for k, v in SUITES.items()}


def registered_suites() -> list:
    return sorted(SUITES)


def run_verification(theorem_id: str, **config) -> VerificationReport:
    """Run one registered suite; deterministic given (seed, config)."""
    if theorem_id not in SUITES:
        raise ConfigError(
            f"unknown theorem id {theorem_id!r}; registered: {', '.join(registered_suites())}"
        )
    location, runner = SUITES[theorem_id]
    grid = _grid_from_config(config)
    _check_integer_cfg(config)
    t0 = time.perf_counter()
    try:
        rows, stats, bounds, passed = runner(config)
    except SpacingError as e:
        raise ConfigError(
            f"hypothesis: the partition of unity needs integer lattice shifts; {e}"
        ) from None
    runtime = time.perf_counter() - t0
    return VerificationReport(
        theorem_id=theorem_id,
        location=location,
        config={k: config[k] for k in sorted(config)},
        rows=rows,
        stats=stats,
        bounds=bounds,
        passed=bool(passed),
        grid={"dim": grid.dim, "L": grid.half_width, "N": grid.n},
        seed=int(config.get("seed", 0)),
        verifies_rule=_SUITE_RULE.get(theorem_id),
        runtime_s=runtime,
    )


def rule_verification_summary(reports) -> dict:
    """Soundness hooks: a rule is verified when its paired numeric suite
    passed in this batch of reports."""
    passed_suites = {r.theorem_id for r in reports if r.passed}
    return {
        rule: (suite in passed_suites)
        for rule, suite in sorted(RULE_NUMERIC_SUITE.items())
    }


def run_grid_sweep(theorem_id: str, ns=(256, 512, 1024), slack: float = 1.1, **config):
    """Re-run a suite over grid refinements; spreads must not grow (within
    ``slack``) as N increases. Returns (reports, passed)."""
    reports = [run_verification(theorem_id, **{**config, "N": n}) for n in ns]
    ok = all(r.passed for r in reports)
    for case in reports[0].stats:
        spreads = [r.stats[case]["spread"] for r in reports]
        for a, b in zip(spreads, spreads[1:]):
            if math.isfinite(a) and b > a * slack:
                ok = False
    return reports, ok
