import json
import math

import pytest

from tfnorm.harness import (
    ConfigError,
    GOLDEN_FIXTURES,
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
