"""Correctness checks, run after the timed passes.

Each check is either a computation made apart from the program (the plain
numpy amalgam norm below) or a property the method must have. Each returns
a list of problems; an empty list means the outputs passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

import tfnorm.evaluate as evaluate
import tfnorm.identify as identify
import workloads

AMALGAM_RTOL = 1e-10
NORM_RTOL = 1e-12

#: suite whose rows hold the W(L2, l1) norm of ``gauss_a1`` on every grid
#: the verify workload runs
AMALGAM_SUITE = "lemma3.3"
AMALGAM_MEMBER = "gauss_a1"

#: norm-eval slots checked for homogeneity and for the triangle inequality
HOMOGENEITY_SLOTS = ("atom.Lp", "atom.FLp", "amalgam.Lp", "amalgam.linf0", "Mod.c61a")
TRIANGLE_SLOTS = ("atom.Lp", "amalgam.Lp", "amalgam.FLp", "M")


def check(wl, outputs_by_pass: list) -> list:
    """All checks of one workload; ``outputs_by_pass`` holds, per pass, a
    dict from op name to the op's output (or the exception it raised)."""
    problems = check_failures(outputs_by_pass)
    if isinstance(wl, workloads.VerifyWorkload):
        return problems + check_verify(wl, outputs_by_pass)
    if isinstance(wl, workloads.IdentifyWorkload):
        return problems + check_identify(outputs_by_pass)
    return problems + check_norm_eval(wl, outputs_by_pass)


def check_failures(outputs_by_pass: list) -> list:
    """Only the ``flinf:*`` ops may raise: any other op that raised on some
    pass would otherwise drop out of the checks unnoticed."""
    problems = []
    for j, outputs in enumerate(outputs_by_pass):
        for name, out in outputs.items():
            if isinstance(out, Exception) and not name.startswith(workloads.FLINF_PREFIX):
                problems.append(f"{name}: raised on pass {j}: {type(out).__name__}: {out}")
    return problems


def _succeeded(outputs_by_pass: list, name: str) -> list:
    return [o[name] for o in outputs_by_pass if not isinstance(o[name], Exception)]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# verify workload


def check_report(name: str, report: dict) -> list:
    """A suite report passed, has finite rows, keeps eps <= pi on every
    ``ordering`` row and keeps ``moyal``/``residual`` rows within their
    tolerance (the row's rhs)."""
    problems = []
    if report.get("passed") is not True:
        problems.append(f"{name}: report did not pass")
    for row in report["rows"]:
        where = f"{name}: row {row['case']}/{row['name']}"
        values = [row["lhs"]] + [row[k] for k in ("rhs", "ratio") if row[k] is not None]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            problems.append(f"{where} is not finite")
            continue
        if row["case"] == "ordering" and not row["ratio"] <= 1.0:
            problems.append(f"{where}: eps/pi = {row['ratio']!r} > 1")
        if row["case"] in ("moyal", "residual") and not row["lhs"] <= row["rhs"]:
            problems.append(f"{where}: {row['lhs']!r} exceeds tolerance {row['rhs']!r}")
    return problems


def check_report_bytes(name: str, blobs: list) -> list:
    """Every pass emitted the same report bytes, and the report is sound."""
    if any(b != blobs[0] for b in blobs):
        return [f"{name}: report bytes differ between passes"]
    return check_report(name, json.loads(blobs[0]))


def plain_amalgam_l2_l1(half_width: float, n: int) -> float:
    """W(L2, l1) norm of the L2-normalized Gaussian exp(-pi x^2), computed
    with numpy alone: windows b(x - k) / sum_m b(x - m) for the bump
    b(t) = exp(-1/(1 - t^2)) on the integers |k| <= ceil(L) + 1."""
    h = 2.0 * half_width / n
    x = -half_width + h * np.arange(n)
    f = np.exp(-np.pi * x**2)
    f = f / math.sqrt(h * np.sum(f**2))

    def bump(t):
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
        return out

    radius = math.ceil(half_width) + 1
    total = sum(bump(x - m) for m in range(-radius - 2, radius + 3))
    norm = 0.0
    for k in range(-radius, radius + 1):
        window = np.divide(bump(x - k), total, out=np.zeros_like(x), where=total > 0)
        norm += math.sqrt(h * np.sum((f * window) ** 2))
    return norm


def check_amalgam_row(name: str, report: dict, expected: float) -> list:
    rows = [r for r in report["rows"] if r["name"] == AMALGAM_MEMBER]
    if not rows:
        return [f"{name}: no row for {AMALGAM_MEMBER}"]
    got = rows[0]["lhs"]
    if not _rel(got, expected) <= AMALGAM_RTOL:
        return [f"{name}: W(L2, l1) of {AMALGAM_MEMBER} is {got!r}, numpy gives {expected!r}"]
    return []


def check_verify(wl, outputs_by_pass: list) -> list:
    problems = []
    recomputed = set()
    for (suite, grid, _, _), (name, _) in zip(wl.specs, wl.ops(0)):
        blobs = _succeeded(outputs_by_pass, name)
        if not blobs:
            continue
        problems += check_report_bytes(name, blobs)
        if suite == AMALGAM_SUITE and grid not in recomputed:
            recomputed.add(grid)
            problems += check_amalgam_row(name, json.loads(blobs[0]), plain_amalgam_l2_l1(*grid))
    return problems


# ---------------------------------------------------------------------------
# identify


def check_expression(name: str, out: tuple) -> list:
    """Round trip, idempotence and a chained trace for parse -> normalize -> render."""
    text, expr, nf, trace, rendered = out
    problems = []
    if identify.parse_space(rendered) != nf:
        problems.append(f"{name} {text!r}: parse(render(nf)) != nf")
    again, again_trace = identify.normalize(nf)
    if again != nf or again_trace:
        problems.append(f"{name} {text!r}: normal form {rendered!r} is not normal")
    links = [expr] + [x for f in trace for x in (f.before, f.after)] + [nf]
    if any(a != b for a, b in zip(links[::2], links[1::2])):
        problems.append(f"{name} {text!r}: trace does not chain from the input to the normal form")
    return problems


def check_identify(outputs_by_pass: list) -> list:
    problems = []
    for outputs in outputs_by_pass:
        for name, out in outputs.items():
            if isinstance(out, Exception):
                continue
            if name.startswith(("expr", workloads.FLINF_PREFIX)):
                problems += check_expression(name, out)
            elif name.startswith(("includes.step", "includes.chain")) and not out[2].established:
                problems.append(f"{name}: embedding {out[0]} into {out[1]} not established")
            elif name == "includes.false" and out[2].established:
                problems.append(f"{name}: {out[0]} into {out[1]} is false on R but was established")
    return problems


# ---------------------------------------------------------------------------
# norm-eval


def check_plancherel(v_l2: float, v_fl2: float) -> list:
    if not _rel(v_fl2, v_l2) <= NORM_RTOL:
        return [f"W(FL2, X) = {v_fl2!r} differs from W(L2, X) = {v_l2!r}"]
    return []


def check_homogeneous(v: float, v_twice: float) -> list:
    if not _rel(v_twice, 2.0 * v) <= NORM_RTOL:
        return [f"norm of 2f is {v_twice!r}, expected 2 * {v!r}"]
    return []


def check_triangle(v_sum: float, v_f: float, v_g: float) -> list:
    if not v_sum <= (v_f + v_g) * (1.0 + NORM_RTOL):
        return [f"norm of f + g is {v_sum!r} > {v_f!r} + {v_g!r}"]
    return []


def check_unit(v: float) -> list:
    if not abs(v - 1.0) <= NORM_RTOL:
        return [f"L2 norm of a normalized function is {v!r}"]
    return []


def _norm(text: str, f) -> float:
    return evaluate.eval_space_norm(identify.parse_space(text), f)[0].value


def check_norm_eval(wl, outputs_by_pass: list) -> list:
    problems = []
    values = {}
    for fname, slot in wl.pairs:
        name = f"{slot}|{fname}"
        vals = _succeeded(outputs_by_pass, name)
        if not vals:
            continue
        if any(v != vals[0] for v in vals) or not (math.isfinite(vals[0]) and vals[0] > 0):
            problems.append(f"{name}: values {vals!r} are not one finite positive number")
        values[fname, slot] = vals[0]

    def extend(label, found):
        problems.extend(f"{label}: {p}" for p in found)

    fnames = list(wl.functions)
    for fname in fnames:
        f = wl.functions[fname]
        if (fname, "atom.L2") in values:
            extend(fname, check_unit(values[fname, "atom.L2"]))
        if (fname, "amalgam.L2") in values and (fname, "amalgam.FL2") in values:
            extend(fname, check_plancherel(values[fname, "amalgam.L2"], values[fname, "amalgam.FL2"]))
        for slot in HOMOGENEITY_SLOTS:
            if (fname, slot) in values:
                text = wl.expressions[slot]
                extend(f"{text}|{fname}", check_homogeneous(values[fname, slot], _norm(text, f * 2.0)))
    one_d = [n for n in fnames if wl.functions[n].grid.dim == 1]
    for fname, gname in zip(one_d, one_d[1:]):
        for slot in TRIANGLE_SLOTS:
            if (fname, slot) in values and (gname, slot) in values:
                text = wl.expressions[slot]
                v_sum = _norm(text, wl.functions[fname] + wl.functions[gname])
                extend(f"{text}|{fname}+{gname}",
                       check_triangle(v_sum, values[fname, slot], values[gname, slot]))
    return problems
