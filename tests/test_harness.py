import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from tfnorm.harness import (
    ConfigError,
    GOLDEN_FIXTURES,
    SANDWICHES,
    _rule_instance,
    emit_report,
    registered_suites,
    rule_verification_summary,
    run_grid_sweep,
    run_verification,
)


def test_registry_contents():
    assert set(registered_suites()) == {
        "stft.inversion",
        "lemma2.1",
        "bupu",
        "lemma3.3",
        "lemma3.4",
        "thm4.2",
        "thm5.1",
        "cor6.1a",
        "cor6.1b",
        "rem6.2",
        "cor6.7",
        "identify.golden",
    }


def test_unknown_theorem_id():
    with pytest.raises(ConfigError, match="unknown theorem id"):
        run_verification("nope")


def test_thm42_hypothesis_rejection():
    with pytest.raises(ConfigError, match=r"p1\^\{-1\} \+ p2\^\{-1\} >= 1"):
        run_verification("thm4.2", p1=3, p2=3)
    with pytest.raises(ConfigError, match="Theorem 4.2"):
        run_verification("thm4.2", p1="inf0", p2=2)


def test_thm51_hypothesis_rejection():
    with pytest.raises(ConfigError, match="Theorem 5.1"):
        run_verification("thm5.1", p1=1, p2=1)


@pytest.mark.parametrize("p1, p2", [("inf", 2), (2, "inf"), ("inf", "inf0"), (math.inf, 3)])
def test_thm51_rejects_sup_exponents(p1, p2):
    # Theorem 5.1 covers finite exponents and the vanishing l^inf0 only
    with pytest.raises(ConfigError, match="Theorem 5.1"):
        run_verification("thm5.1", p1=p1, p2=p2, L=8.0, N=256, dual_count=32)


_EXPONENTS = [1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, "inf", "inf0"]


def _paper_hypothesis(suite, p1, p2) -> bool:
    """The side conditions of the paper's statements, written out on their own."""
    finite = all(p not in ("inf", "inf0") for p in (p1, p2))
    if suite == "thm4.2":
        return (finite and 1 / p1 + 1 / p2 >= 1) or (p1, p2) in (("inf0", 1.0), (1.0, "inf0"))
    if suite == "thm5.1":
        if finite:
            return p1 > 1 and p2 > 1 and 1 / p1 + 1 / p2 <= 1
        return "inf0" in (p1, p2) and "inf" not in (p1, p2)
    if suite == "cor6.1a":
        return finite and 1 <= p1 <= p2 <= 2
    return finite and 2 <= p2 <= p1  # cor6.1b: 2 <= p2 <= p1 < inf


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SANDWICHES)), st.sampled_from(_EXPONENTS), st.sampled_from(_EXPONENTS))
def test_sandwich_hypothesis_step_is_the_paper_condition(suite, p1, p2):
    try:
        _rule_instance(suite, {"p1": p1, "p2": p2})
        accepted = True
    except ConfigError:
        accepted = False
    assert accepted == _paper_hypothesis(suite, p1, p2)


@pytest.mark.parametrize(
    "suite, config, match",
    [
        ("thm4.2", {"p1": "abc"}, "exponent 'abc' must be a number"),
        ("cor6.1b", {"p2": None}, "exponent None must be a number"),
        ("lemma3.3", {"spread_bound": "x"}, "spread_bound must be a number"),
        ("lemma3.3", {"p": "abc"}, "exponent 'abc' must be a number"),
        ("cor6.7", {"s": "x"}, "s must be a number"),
        ("thm5.1", {"s1": "x"}, "s1 must be a number"),
        ("stft.inversion", {"tol": "x"}, "tol must be a number"),
        ("lemma3.3", {"spread_bound": "nan"}, "spread_bound must be a number"),
        ("bupu", {"L": "nan"}, "invalid grid: half_width must be positive and finite"),
        ("bupu", {"L": math.inf}, "invalid grid: half_width must be positive and finite"),
    ],
)
def test_non_numeric_config_is_config_error(suite, config, match):
    with pytest.raises(ConfigError, match=match):
        run_verification(suite, **config)


@pytest.mark.parametrize("suite", ["thm4.2", "thm5.1"])
@pytest.mark.parametrize("E", ["FL3", "C0[1]", "L1[1]"])
def test_sandwich_accepts_any_local_atom(suite, E):
    r = run_verification(suite, E=E, L=8.0, N=256, dual_count=32)
    assert r.passed


@pytest.mark.parametrize("local", ["FL3", "C0[1]", "L1[1]"])
def test_lemma33_accepts_any_local_atom(local):
    assert run_verification("lemma3.3", local=local, L=8.0, N=256).passed


@pytest.mark.parametrize(
    "suite, config",
    [
        ("thm4.2", {"E": "L2("}),
        ("thm5.1", {"E": "W(L2, l1)"}),
        ("thm4.2", {"E": "F(C0)"}),
        ("lemma3.3", {"local": "L2("}),
        ("lemma3.3", {"local": "Mod((L1 opi L2))"}),
    ],
)
def test_unparsable_or_composite_local_is_config_error(suite, config):
    with pytest.raises(ConfigError, match="E=|local="):
        run_verification(suite, **config)


def test_cor61a_hypothesis_rejection():
    with pytest.raises(ConfigError, match="Corollary 6.1"):
        run_verification("cor6.1a", p1=2, p2=1)
    with pytest.raises(ConfigError, match="Corollary 6.1"):
        run_verification("cor6.1a", p1=1, p2=3)


@pytest.mark.parametrize(
    "suite, config, match",
    [
        ("thm5.1", {"dual_count": 0}, "dual_count must be an integer >= 1"),
        ("cor6.1b", {"dual_count": -3}, "dual_count must be an integer >= 1"),
        ("thm5.1", {"dual_count": 2.5}, "dual_count must be an integer >= 1"),
        ("lemma3.3", {"seed": -1}, "seed must be an integer >= 0"),
        ("bupu", {"seed": 1.0}, "seed must be an integer >= 0"),
        ("thm4.2", {"seed": True}, "seed must be an integer >= 0"),
        ("bupu", {"N": 1024.9}, "N must be an integer >= 2"),
    ],
)
def test_bad_seed_or_dual_count_is_config_error(suite, config, match):
    with pytest.raises(ConfigError, match=match):
        run_verification(suite, **config)


def test_lemma34_rejects_sup():
    with pytest.raises(ConfigError, match="Lemma 3.4"):
        run_verification("lemma3.4", p1="inf", p2=1)


def test_bupu_report_fast():
    r = run_verification("bupu", N=512)
    assert r.passed
    assert r.location == "§3 (partition axioms)"
    assert r.grid == {"dim": 1, "L": 16.0, "N": 512}


def test_report_json_roundtrip_and_determinism():
    r1 = run_verification("identify.golden")
    r2 = run_verification("identify.golden")
    b1, b2 = emit_report(r1), emit_report(r2)
    assert b1 == b2
    d = json.loads(b1)
    assert d["theorem_id"] == "identify.golden"
    assert d["passed"] is True
    assert "runtime_s" not in d  # in-memory only


def test_report_csv_shape():
    r = run_verification("identify.golden")
    lines = emit_report(r, "csv").decode().splitlines()
    assert lines[0] == "case,name,lhs,rhs,ratio"
    # one row per fixture plus one summary row per case
    assert len(lines) == 1 + len(GOLDEN_FIXTURES) + len(r.stats)
    assert lines[-1].startswith("summary:")


def test_report_unknown_format():
    r = run_verification("bupu", N=256)
    with pytest.raises(ValueError):
        emit_report(r, "xml")


def test_golden_fixture_count_and_coverage():
    assert len(GOLDEN_FIXTURES) == 15
    fired = {rid for _, _, rules in GOLDEN_FIXTURES for rid in rules}
    assert {
        "R_C61a",
        "R_C61b",
        "R_C61c",
        "R_R62",
        "R_R69i",
        "R_R69ii",
        "R_R69iii",
        "R_T42",
        "R_T51",
        "R_L34",
        "R_Boch",
        "R_Q",
    } <= fired
    rejections = [t for t, nf, rules in GOLDEN_FIXTURES if not rules and t == nf]
    assert len(rejections) >= 2


def test_rule_verification_summary():
    reports = [run_verification("identify.golden"), run_verification("bupu", N=256)]
    summary = rule_verification_summary(reports)
    assert summary == {
        "R_C61a": False,
        "R_C61b": False,
        "R_L34": False,
        "R_Q": False,
        "R_R62": False,
        "R_T42": False,
        "R_T51": False,
    }


def test_lemma33_spread_stats_structure():
    r = run_verification("lemma3.3", local="L2", p=1, N=512)
    assert r.passed
    assert set(r.stats) == {"ratio"}
    st = r.stats["ratio"]
    assert st["spread"] >= 1.0
    assert st["min"] <= st["max"]
    assert r.bounds["ratio"] == {"kind": "spread", "value": 10.0}


def test_rows_have_uniform_schema():
    r = run_verification("lemma3.3", local="L2", p=1, N=512)
    for row in r.rows:
        assert set(row) == {"case", "name", "lhs", "rhs", "ratio"}


def test_grid_sweep_smoke():
    reports, ok = run_grid_sweep("bupu", ns=(256, 512))
    assert ok
    assert [r.grid["N"] for r in reports] == [256, 512]


@pytest.mark.parametrize(
    "suite", ["thm4.2", "thm5.1", "lemma3.3", "cor6.1a", "cor6.1b", "rem6.2", "lemma3.4"]
)
@pytest.mark.parametrize("L, N", [(16.0, 512), (8.0, 512)])
def test_tensor_suites_pass_on_grids_that_are_not_self_dual(suite, L, N):
    # the dual grid differs from the grid here, so a partition built for one
    # side of the transform cannot stand in for the other; suites without
    # dual samples ignore dual_count
    r = run_verification(suite, L=L, N=N, dual_count=32)
    assert r.passed


@pytest.mark.parametrize("suite", registered_suites())
def test_every_suite_passes_at_its_default_config(suite):
    assert run_verification(suite).passed
