"""Verification suites: run one identity check over the test family and
report the empirical two-sided constants.

The identities hold with unspecified equivalence constants, so a suite
never asserts a numeric value; it computes the per-function ratio between
two independently evaluated norms and passes when the ratio spread
(max/min) stays under the configured bound (default 10, or 100 for
sampled lower-bound suites), or, for identity-type suites, when residuals
stay under a stated tolerance. Reports are deterministic given (seed,
config) and serialize byte-identically; the runtime field stays in memory
only.
"""

from __future__ import annotations

import io
import json
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .bupu import SpacingError, make_integer_bupu, validate_bupu
from .family import test_family, random_smooth
from .grid import GridSpec
from .identify.engine import normalize, trace_to_json
from .identify.parser import parse_space
from .identify.rules import RULE_NUMERIC_SUITE
from .norms import (
    AmalgamSpec,
    GlobalSpec,
    INF0,
    amalgam_norm_discrete,
    amalgam_norm_continuous,
    amalgam_norms,
    lp_norm,
    lp_norms,
    mixed_norm,
    modulation_norm_via_amalgam,
)
from .spaces import C0Spec, FLpSpec, LpSpec
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
from .transforms import (
    approx_identity_gn,
    fourier,
    hermite_projector,
    inverse_fourier,
    transform_axes,
)
from .weights import PowerWeight, RadialWeight2D, TensorWeight
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
        return {
            "theorem_id": self.theorem_id,
            "location": self.location,
            "config": self.config,
            "grid": self.grid,
            "seed": self.seed,
            "verifies_rule": self.verifies_rule,
            "rows": self.rows,
            "stats": self.stats,
            "bounds": self.bounds,
            "passed": self.passed,
        }


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
    except ValueError as e:
        raise ConfigError(f"invalid grid: {e}") from None


def _check_integer_cfg(cfg: dict) -> None:
    """``seed`` must be an integer >= 0 and ``dual_count`` one >= 1."""
    for key, least in (("seed", 0), ("dual_count", 1)):
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
    ratio = None
    if rhs not in (None, 0.0):
        ratio = lhs / rhs
    return {
        "case": case,
        "name": name,
        "lhs": float(lhs),
        "rhs": float(rhs) if rhs is not None else None,
        "ratio": None if ratio is None else float(ratio),
    }


def _exponent_cfg(value):
    """Parse an exponent config entry: number, 'inf' or 'inf0'."""
    if value == "inf":
        return math.inf
    if value == INF0 or value == "inf0":
        return INF0
    p = float(value)
    if not 1.0 <= p:
        raise ConfigError(f"exponent {value!r} must be at least 1")
    return p


def _local_from_name(name: str, s: float = 0.0):
    table = {
        "L1": LpSpec(1.0, PowerWeight(s)),
        "L2": LpSpec(2.0, PowerWeight(s)),
        "FL2": FLpSpec(2.0, PowerWeight(s)),
        "C0": C0Spec(PowerWeight(s)),
    }
    if name not in table:
        raise ConfigError(f"unknown local component {name!r}; choose from {sorted(table)}")
    return table[name]


def _smooth_tensors(grid: GridSpec, seed: int, count: int = 8) -> list:
    """Seeded finite tensors with smooth nonnegative-type factors (no
    cancellation between terms), for upper-direction checks."""
    rng = np.random.default_rng(seed)
    dual = grid.dual()
    out = []
    for i in range(count):
        rank = 1 + int(rng.integers(0, 3))
        terms = []
        for _ in range(rank):
            a = float(rng.uniform(0.5, 3.0))
            c = float(rng.uniform(-2.0, 2.0))
            phi = gaussian(grid, a=a, center=c)
            a2 = float(rng.uniform(0.5, 3.0))
            c2 = float(rng.uniform(-2.0, 2.0))
            psi = fourier(gaussian(grid, a=a2, center=c2))
            lam = float(rng.uniform(0.5, 1.5)) / rank
            terms.append((lam + 0.0j, phi, psi))
        out.append((f"tensor_{i}", FiniteTensor(tuple(terms))))
    return out


# ---------------------------------------------------------------------------
# suites


def _suite_stft_inversion(cfg):
    grid = _grid_from_config(cfg)
    tol = float(cfg.get("tol", 1e-6))
    g = normalized_gaussian(grid)
    rows = []
    for name, f in test_family(grid, seed=int(cfg.get("seed", 0))):
        rows.append(_row("residual", name, check_inversion(f, g, g), tol))
    st, bound, ok = _max_case(rows, "residual", 1.0)
    return rows, {"residual": st}, {"residual": bound}, ok


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
    rep = validate_bupu(make_integer_bupu(grid), PowerWeight(float(cfg.get("s", 0.0))))
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
    local = _local_from_name(str(cfg.get("local", "L2")))
    gp = _exponent_cfg(cfg.get("p", 1.0))
    gs = float(cfg.get("s", 0.0))
    bound = float(cfg.get("spread_bound", 10.0))
    spec = AmalgamSpec(local, GlobalSpec(gp, PowerWeight(gs)))
    chi = make_integer_bupu(grid).base
    rows = []
    for name, f in test_family(grid, seed=int(cfg.get("seed", 0))):
        disc = amalgam_norm_discrete(f, spec).value
        cont = amalgam_norm_continuous(f, spec, chi).value
        rows.append(_row("ratio", name, disc, cont))
    st, bnd, ok = _spread_case(rows, "ratio", bound)
    return rows, {"ratio": st}, {"ratio": bnd}, ok


def _suite_lemma34(cfg):
    grid = _grid_from_config(cfg)
    p1 = _exponent_cfg(cfg.get("p1", 2.0))
    p2 = _exponent_cfg(cfg.get("p2", 2.0))
    for p in (p1, p2):
        if isinstance(p, str) or p == math.inf:
            raise ConfigError("hypothesis: p1, p2 in [1, inf) (Lemma 3.4)")
    s1 = float(cfg.get("s1", 0.0))
    s2 = float(cfg.get("s2", 0.0))
    bound = float(cfg.get("spread_bound", 10.0))
    w1, w2 = PowerWeight(s1), PowerWeight(s2)
    g = normalized_gaussian(grid)
    rows = []
    for name, f in test_family(grid, seed=int(cfg.get("seed", 0))):
        direct = mixed_norm(stft(f, g), p1, p2, TensorWeight(w1, w2))
        via = modulation_norm_via_amalgam(f, p1, p2, w1, w2).value
        rows.append(_row("ratio", name, direct, via))
    st, bnd, ok = _spread_case(rows, "ratio", bound)
    return rows, {"ratio": st}, {"ratio": bnd}, ok


def _thm42_exponents(cfg):
    p1 = _exponent_cfg(cfg.get("p1", 1.0))
    p2 = _exponent_cfg(cfg.get("p2", 1.0))
    if p1 == math.inf or p2 == math.inf:
        raise ConfigError(
            "hypothesis: exponents must be finite or the vanishing pair "
            "(1, inf0)/(inf0, 1) (Theorem 4.2)"
        )
    finite = not isinstance(p1, str) and not isinstance(p2, str)
    if finite and 1.0 / p1 + 1.0 / p2 < 1.0:
        raise ConfigError("hypothesis violated: p1^{-1} + p2^{-1} >= 1 (Theorem 4.2(i))")
    if not finite and not (
        (p1 == INF0 and p2 == 1.0) or (p1 == 1.0 and p2 == INF0)
    ):
        raise ConfigError(
            "hypothesis violated: vanishing globals pair only as (inf0, 1) or "
            "(1, inf0) (Theorem 4.2(ii)/(iii))"
        )
    return p1, p2


def _factor_amalgams(cfg, p1, p2, target_p):
    """The amalgams of Theorems 4.2 and 5.1: W(L2, l^p1_s1) for first factors,
    W(E, l^p2_s2) for F^(-1) of second factors, the target
    W(E, l^target_p_{s1+s2}), and the two stack norms of the pi bound."""
    s1 = float(cfg.get("s1", 0.0))
    s2 = float(cfg.get("s2", 0.0))
    local_e = _local_from_name(str(cfg.get("E", "L2")))
    spec_f = AmalgamSpec(LpSpec(2.0), GlobalSpec(p1, PowerWeight(s1)))
    spec_e = AmalgamSpec(local_e, GlobalSpec(p2, PowerWeight(s2)))
    target = AmalgamSpec(local_e, GlobalSpec(target_p, PowerWeight(s1 + s2)))

    def norm_a(rows, grid):
        return [r.value for r in amalgam_norms(rows, grid, spec_f)]

    def norm_b(rows, grid):
        spectra = transform_axes(rows, grid.spacing, +1, grid.dim)
        return [r.value for r in amalgam_norms(spectra, grid.dual(), spec_e)]

    return spec_f, spec_e, target, norm_a, norm_b


def _lp_values(p: float):
    """Stack norm for ``pi_upper_bound``: the L^p norm of every row."""
    return lambda rows, grid: lp_norms(rows, grid, p)


def _suite_thm42(cfg):
    grid = _grid_from_config(cfg)
    p1, p2 = _thm42_exponents(cfg)
    _, _, target, norm_a, norm_b = _factor_amalgams(cfg, p1, p2, 1.0)
    bound = float(cfg.get("spread_bound", 10.0))
    seed = int(cfg.get("seed", 0))

    rows = []
    for name, f in test_family(grid, seed=seed):
        tensor, _ = decompose_mollified(f)
        upper = pi_upper_bound(tensor, norm_a, norm_b)
        target_norm = amalgam_norm_discrete(f, target).value
        rows.append(_row("lower", name, upper, target_norm))

    g_syn = plateau(grid, 2.0, 3.0)
    for name, tensor in _smooth_tensors(grid, seed + 1):
        pi_val = pi_upper_bound(tensor, norm_a, norm_b)
        syn = amalgam_norm_discrete(synthesize(tensor, g_syn), target).value
        rows.append(_row("upper", name, syn, pi_val))

    st_lo, bnd_lo, ok_lo = _spread_case(rows, "lower", bound)
    st_up, bnd_up, ok_up = _spread_case(rows, "upper", bound)
    return (
        rows,
        {"lower": st_lo, "upper": st_up},
        {"lower": bnd_lo, "upper": bnd_up},
        ok_lo and ok_up,
    )


def _suite_thm51(cfg):
    grid = _grid_from_config(cfg)
    p1 = _exponent_cfg(cfg.get("p1", 2.0))
    p2 = _exponent_cfg(cfg.get("p2", 2.0))
    finite = not isinstance(p1, str) and not isinstance(p2, str)
    if finite:
        if p1 <= 1.0 or p2 <= 1.0 or 1.0 / p1 + 1.0 / p2 > 1.0:
            raise ConfigError(
                "hypothesis violated: p1, p2 in (1, inf) with p1^{-1} + p2^{-1} <= 1 "
                "(Theorem 5.1(i)), or vanishing globals"
            )
    spec_f, spec_e, target, norm_a, norm_b = _factor_amalgams(cfg, p1, p2, INF0)
    seed = int(cfg.get("seed", 0))
    count = int(cfg.get("dual_count", 256))
    bound = float(cfg.get("spread_bound", 100.0))
    model = (("amalgam", spec_f), ("fourier_amalgam", spec_e))
    duals = make_dual_samples(count, seed + 17, model, grid, grid.dual())

    rows = []
    for name, f in test_family(grid, seed=seed):
        tensor, _ = decompose_mollified(f)
        eps = eps_lower_bound(tensor, duals + [aligned_dual_sample(tensor, model)])
        pi = pi_upper_bound(tensor, norm_a, norm_b)
        rows.append(_row("ordering", name, eps, pi))
        sup_norm = amalgam_norm_discrete(f, target).value
        rows.append(_row("lower", name, eps, sup_norm))
    st_o, bnd_o, ok_o = _max_case(rows, "ordering", 1.0)
    st_l, bnd_l, ok_l = _spread_case(rows, "lower", bound)
    return (
        rows,
        {"ordering": st_o, "lower": st_l},
        {"ordering": bnd_o, "lower": bnd_l},
        ok_o and ok_l,
    )


def _suite_cor61a(cfg):
    grid = _grid_from_config(cfg)
    p1 = _exponent_cfg(cfg.get("p1", 1.0))
    p2 = _exponent_cfg(cfg.get("p2", 2.0))
    if isinstance(p1, str) or isinstance(p2, str) or not 1.0 <= p1 <= p2 <= 2.0:
        raise ConfigError("hypothesis violated: 1 <= p1 <= p2 <= 2 (Corollary 6.1(a))")
    bound = float(cfg.get("spread_bound", 10.0))
    seed = int(cfg.get("seed", 0))
    target = AmalgamSpec(FLpSpec(p2), GlobalSpec(1.0))

    rows = []
    for name, f in test_family(grid, seed=seed):
        tensor, _ = decompose_splitting(f)
        pi = pi_upper_bound(tensor, _lp_values(p1), _lp_values(p2))
        amal = amalgam_norm_discrete(f, target).value
        rows.append(_row("lower", name, pi, amal))
    g_syn = plateau(grid, 2.0, 3.0)
    for name, tensor in _smooth_tensors(grid, seed + 3):
        pi = pi_upper_bound(tensor, _lp_values(p1), _lp_values(p2))
        syn = amalgam_norm_discrete(synthesize(tensor, g_syn), target).value
        rows.append(_row("upper", name, syn, pi))
    st_lo, bnd_lo, ok_lo = _spread_case(rows, "lower", bound)
    st_up, bnd_up, ok_up = _spread_case(rows, "upper", bound)
    return (
        rows,
        {"lower": st_lo, "upper": st_up},
        {"lower": bnd_lo, "upper": bnd_up},
        ok_lo and ok_up,
    )


def _suite_cor61b(cfg):
    grid = _grid_from_config(cfg)
    p1 = _exponent_cfg(cfg.get("p1", 2.0))
    p2 = _exponent_cfg(cfg.get("p2", 2.0))
    if isinstance(p1, str) or isinstance(p2, str) or not 2.0 <= p2 <= p1 < math.inf:
        raise ConfigError("hypothesis violated: 2 <= p2 <= p1 < inf (Corollary 6.1(b))")
    seed = int(cfg.get("seed", 0))
    count = int(cfg.get("dual_count", 256))
    bound = float(cfg.get("spread_bound", 100.0))
    target = AmalgamSpec(FLpSpec(p2), GlobalSpec(INF0))
    model = (("lp", p1), ("lp", p2))
    duals = make_dual_samples(count, seed + 29, model, grid, grid.dual())

    rows = []
    for name, f in test_family(grid, seed=seed):
        tensor, _ = decompose_splitting(f)
        eps = eps_lower_bound(tensor, duals + [aligned_dual_sample(tensor, model)])
        pi = pi_upper_bound(tensor, _lp_values(p1), _lp_values(p2))
        rows.append(_row("ordering", name, eps, pi))
        sup_norm = amalgam_norm_discrete(f, target).value
        rows.append(_row("lower", name, eps, sup_norm))
    st_o, bnd_o, ok_o = _max_case(rows, "ordering", 1.0)
    st_l, bnd_l, ok_l = _spread_case(rows, "lower", bound)
    return (
        rows,
        {"ordering": st_o, "lower": st_l},
        {"ordering": bnd_o, "lower": bnd_l},
        ok_o and ok_l,
    )


def _suite_rem62(cfg):
    grid = _grid_from_config(cfg)
    p = _exponent_cfg(cfg.get("p1", cfg.get("p", 2.0)))
    if isinstance(p, str) or p == math.inf:
        raise ConfigError("hypothesis: p in [1, inf) (Remark 6.2)")
    bound = float(cfg.get("spread_bound", 10.0))
    target = AmalgamSpec(FLpSpec(p), GlobalSpec(1.0))
    dual = grid.dual()
    g_dual = normalized_gaussian(dual)
    rows = []
    for name, f in test_family(grid, seed=int(cfg.get("seed", 0))):
        amal = amalgam_norm_discrete(f, target).value
        finv = inverse_fourier(f)
        mod = mixed_norm(stft(finv, g_dual), p, 1.0, None)
        rows.append(_row("ratio", name, amal, mod))
    st, bnd, ok = _spread_case(rows, "ratio", bound)
    return rows, {"ratio": st}, {"ratio": bnd}, ok


def _suite_cor67(cfg):
    grid = _grid_from_config(cfg)
    s = float(cfg.get("s", 0.0))
    if s < 0:
        raise ConfigError("hypothesis violated: s >= 0 (Corollary 6.7 intersection form)")
    bound = float(cfg.get("spread_bound", 10.0))
    tol = float(cfg.get("tol", 1e-6))
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
    st, bnd, ok = _spread_case(rows, "ratio", bound)
    stats = {"ratio": st}
    bounds = {"ratio": bnd}
    if s == 0.0:
        st_m, bnd_m, ok_m = _max_case(rows, "moyal", 1.0)
        stats["moyal"] = st_m
        bounds["moyal"] = bnd_m
        ok = ok and ok_m
    return rows, stats, bounds, ok


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
    "stft.inversion": ("§2 (inversion identity)", _suite_stft_inversion, None),
    "lemma2.1": ("Lemma 2.1", _suite_lemma21, None),
    "bupu": ("§3 (partition axioms)", _suite_bupu, None),
    "lemma3.3": ("Lemma 3.3", _suite_lemma33, None),
    "lemma3.4": ("Lemma 3.4", _suite_lemma34, "R_L34"),
    "thm4.2": ("Theorem 4.2", _suite_thm42, None),
    "thm5.1": ("Theorem 5.1", _suite_thm51, None),
    "cor6.1a": ("Corollary 6.1(a)", _suite_cor61a, "R_C61a"),
    "cor6.1b": ("Corollary 6.1(b)", _suite_cor61b, "R_C61b"),
    "rem6.2": ("Remark 6.2", _suite_rem62, "R_R62"),
    "cor6.7": ("Corollary 6.7", _suite_cor67, "R_Q"),
    "identify.golden": ("§6 (rule table)", _suite_identify_golden, None),
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
    location, runner, rule = SUITES[theorem_id]
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
        verifies_rule=rule,
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
