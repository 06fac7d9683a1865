"""Self-tests of the benchmark: deterministic inputs, the reducers, and
checks that trip on an output perturbed by one part in 1e9.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_workloads()
import checks  # noqa: E402
import workloads  # noqa: E402
from tfnorm.identify import normalize, parse_space, render  # noqa: E402
from tfnorm.identify.engine import InclusionResult  # noqa: E402

SCALE = 1.0 + 1e-9


# -- inputs ----------------------------------------------------------------


def _cheap_identify_outputs(wl, pass_index):
    return [fn()[0] for name, fn in wl.ops(pass_index) if name.startswith("expr")]


def test_verify_inputs_deterministic():
    build = workloads.verify_tensor_specs
    assert build(5) == build(5)
    assert build(5) != build(6)


def test_identify_inputs_deterministic():
    a, b = workloads.IdentifyWorkload(5), workloads.IdentifyWorkload(5)
    for j in (0, 1):
        assert _cheap_identify_outputs(a, j) == _cheap_identify_outputs(b, j)
    assert _cheap_identify_outputs(a, 0) != _cheap_identify_outputs(workloads.IdentifyWorkload(6), 0)


def test_identify_top_level_inputs_never_repeat():
    wl = workloads.IdentifyWorkload(3)
    texts = [t for j in range(4) for t in _cheap_identify_outputs(wl, j)]
    assert len(texts) == len(set(texts))


def test_norm_eval_inputs_deterministic():
    a, b = workloads.NormEvalWorkload(5), workloads.NormEvalWorkload(5)
    assert a.expressions == b.expressions and a.pairs == b.pairs
    assert list(a.functions) == list(b.functions)
    for name in a.functions:
        assert np.array_equal(a.functions[name].values, b.functions[name].values)
    assert a.expressions != workloads.NormEvalWorkload(6).expressions


# -- reducers --------------------------------------------------------------


def test_stop_at_the_nearest_pass_end():
    assert not run.stop_now(30.0, 3, 36.0)  # the next pass ends at 40, 4 past
    assert run.stop_now(33.0, 3, 36.0)  # the next pass would end 8 past
    assert run.stop_now(36.5, 1, 36.0)


def test_median():
    assert run.median([3.0, 1.0, 2.0]) == 2.0
    assert run.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        run.median([])


def test_op_latencies_and_end_to_end():
    times = {"a": [0.003, 0.001, 0.002], "b": [0.5, None, 0.4], "c": [0.010, 0.020]}
    lat = run.op_latencies(times)
    assert lat == {"a": 0.002, "c": 0.015}
    m = run.end_to_end([0.3, 0.1, 0.2], [2.0, 1.0, 5.0], lat, 100.0)
    assert m["setup_s"] == 0.2
    assert m["pass_s"] == 2.0
    assert m["op_p50_ms"] == pytest.approx(8.5)
    assert m["op_max_ms"] == pytest.approx(15.0)
    assert m["peak_rss_mb"] == 100.0


def test_every_benchmark_metric_gets_its_unit():
    bench = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    values = run.end_to_end([0.3], [2.0], {"a": 0.002}, 100.0)
    assert run.with_units(values, bench["end_to_end"])["peak_rss_mb"] == {"value": 100.0, "unit": "MB"}
    with pytest.raises(KeyError):
        run.with_units({}, bench["per_layer"])


def test_only_flinf_ops_may_raise():
    ok = {"flinf:FLinf": OverflowError("cannot render"), "expr[000]": ("text",)}
    assert checks.check_failures([ok, ok]) == []
    assert checks.check_failures([ok, dict(ok, **{"expr[000]": ValueError("x")})])


# -- verify checks ---------------------------------------------------------


def _report(*rows, passed=True):
    return {"passed": passed, "rows": [
        {"case": c, "name": n, "lhs": lhs, "rhs": rhs, "ratio": None if rhs is None else lhs / rhs}
        for c, n, lhs, rhs in rows]}


@pytest.mark.parametrize("case", ["ordering", "residual", "moyal"])
def test_bound_rows_trip_just_past_the_bound(case):
    assert checks.check_report("op", _report((case, "m", 0.25, 0.25))) == []
    assert checks.check_report("op", _report((case, "m", 0.25 * SCALE, 0.25)))


def test_report_must_pass_and_be_finite():
    assert checks.check_report("op", _report(("ratio", "m", 1.0, 2.0), passed=False))
    assert checks.check_report("op", _report(("ratio", "m", math.inf, 2.0)))


def test_report_bytes_trip_on_a_scaled_row():
    rep = _report(("ratio", "m", 1.0, 2.0))
    blob = json.dumps(rep).encode()
    assert checks.check_report_bytes("op", [blob, blob]) == []
    rep["rows"][0]["lhs"] *= SCALE
    assert checks.check_report_bytes("op", [blob, json.dumps(rep).encode()])


def test_plain_amalgam_matches_program_and_trips():
    blob = workloads.harness.emit_report(workloads.harness.run_verification("lemma3.3", L=8.0, N=256))
    report = json.loads(blob)
    expected = checks.plain_amalgam_l2_l1(8.0, 256)
    assert checks.check_amalgam_row("op", report, expected) == []
    assert checks.check_amalgam_row("op", report, expected * SCALE)


# -- identify checks -------------------------------------------------------


def _expression_output(text):
    expr = parse_space(text)
    nf, trace = normalize(expr)
    return text, expr, nf, trace, render(nf)


def _scale_weight(e):
    return dataclasses.replace(e, s=e.s * SCALE)


def test_expression_checks_pass_on_program_output():
    for text in ("Mod((L2 opi L1))", "W(L2[1], l2)", "M2,1[1,1]"):
        assert checks.check_expression(text, _expression_output(text)) == []


def test_round_trip_trips_on_a_scaled_normal_form():
    text, expr, nf, trace, rendered = _expression_output("L3[1]")
    assert checks.check_expression(text, (text, expr, _scale_weight(nf), trace, rendered))


def test_trace_chain_trips_on_a_scaled_step():
    text, expr, nf, trace, rendered = _expression_output("Q1")
    assert trace
    first = dataclasses.replace(trace[0], before=_scale_weight(trace[0].before))
    assert checks.check_expression(text, (text, expr, nf, [first] + trace[1:], rendered))


def test_idempotence_trips_on_a_non_normal_form():
    text, expr, _, _, _ = _expression_output("Q0")
    assert checks.check_expression(text, (text, expr, expr, [], render(expr)))


def test_inclusion_checks():
    yes, no = InclusionResult("established"), InclusionResult("no-evidence")
    assert checks.check_identify([{"includes.step[00]": ("a", "b", yes), "includes.false": ("c", "d", no)}]) == []
    assert checks.check_identify([{"includes.step[00]": ("a", "b", no)}])
    assert checks.check_identify([{"includes.chain[0]": ("a", "b", no)}])
    assert checks.check_identify([{"includes.false": ("c", "d", yes)}])


# -- norm-eval checks ------------------------------------------------------


def test_norm_checks_trip_on_a_scaled_value():
    assert checks.check_plancherel(1.5, 1.5) == []
    assert checks.check_plancherel(1.5, 1.5 * SCALE)
    assert checks.check_homogeneous(1.5, 3.0) == []
    assert checks.check_homogeneous(1.5, 3.0 * SCALE)
    assert checks.check_triangle(3.0, 1.5, 1.5) == []
    assert checks.check_triangle(3.0 * SCALE, 1.5, 1.5)
    assert checks.check_unit(1.0) == []
    assert checks.check_unit(SCALE)
