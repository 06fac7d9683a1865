import json

import pytest

from tfnorm.identify import (
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
    SpaceSyntaxError,
    TensorEps,
    TensorPi,
    explain,
    includes,
    normalize,
    omega_bounded,
    omega_flat,
    parse_space,
    radial_weight,
    render,
    trace_to_json,
)
from tfnorm.identify.rules import RULES, RULE_NUMERIC_SUITE, RULE_TABLE


# -- parser ------------------------------------------------------------------


def test_parse_mod_tensor():
    assert parse_space("Mod((L1 opi L2))") == Mod(TensorPi(Lp(1.0), Lp(2.0)))


def test_parse_amalgam():
    assert parse_space("W(FL2[0], l1[0])") == Amalgam(FL(Lp(2.0, 0.0)), 1.0, 0.0)


def test_parse_error_position():
    with pytest.raises(SpaceSyntaxError) as exc:
        parse_space("Mod((L3 opi")
    assert exc.value.position == 11


def test_parse_exponent_variants():
    assert parse_space("Linf") == Lp(INF)
    assert parse_space("Linf0[1]") == Lp(INF0, 1.0)
    assert parse_space("W(L2, linf0[2])") == Amalgam(Lp(2.0), INF0, 2.0)
    assert parse_space("L1.5[-2]") == Lp(1.5, -2.0)
    assert parse_space("Q-1.5") == Qs(-1.5)
    assert parse_space("M2,1[0,1]") == Mpq(2.0, 1.0, ("tensor", 0.0, 1.0))
    assert parse_space("M2,2[rad 1]") == Mpq(2.0, 2.0, ("radial", 1.0))


def test_parse_whitespace_insensitive():
    a = parse_space("Mod(  ( L1 opi   L2 ) )")
    assert a == parse_space("Mod((L1 opi L2))")


def test_parse_unknown_token():
    with pytest.raises(SpaceSyntaxError):
        parse_space("X2")
    with pytest.raises(SpaceSyntaxError):
        parse_space("L2 L3")


def test_render_roundtrip():
    texts = [
        "Mod((L1 opi L2))",
        "W(FL2[1], linf0[2])",
        "Finv(W(FL2, l1))",
        "M2,2[rad 2]",
        "Dual(W(L2, l1[1]))",
        "(C0[1] oeps L3[-1])",
        "Q1.5",
        "F(C0[2])",
        "W(Linf0[1], l2)",
        "FLinf",
        "FLinf[1]",
        "W(FLinf, l1)",
    ]
    for t in texts:
        e = parse_space(t)
        assert parse_space(render(e)) == e


def test_radial_weight_zero_canonicalizes():
    assert Mpq(2.0, 2.0, radial_weight(0.0)) == Mpq(2.0, 2.0, ("tensor", 0.0, 0.0))


# -- metadata ----------------------------------------------------------------


def test_omega_flags():
    assert omega_flat(Lp(2.0, 0.0))
    assert not omega_flat(Lp(2.0, 1.0))
    assert not omega_bounded(Lp(2.0, 1.0))
    assert omega_bounded(Lp(2.0, -1.0))  # engine convention: s <= 0 is bounded
    # Fourier swaps the growth sides: FL of a weighted Lp is flat, and the
    # inverse image of an FL-local amalgam picks up that local weight
    assert omega_flat(FL(Lp(2.0, 3.0)))
    assert not omega_flat(FLinv(Amalgam(FL(Lp(2.0, 1.0)), 1.0, 0.0)))
    assert omega_flat(Amalgam(FL(Lp(1.0, 2.0)), 1.0, 0.0))
    assert not omega_flat(Amalgam(Lp(2.0), 1.0, 1.0))


# -- normalization -----------------------------------------------------------


CASES = [
    ("Mod((L1 opi L2))", "W(FL2, l1)", ["R_C61a"]),
    ("Mod((C0 oeps L3))", "W(FL3, linf0)", ["R_C61b"]),
    ("Mod((L3 opi L2))", "Mod((L3 opi L2))", []),
    ("Q2", "M2,2[rad 2]", ["R_Q"]),
    ("Q0", "L2", ["R_Q"]),
    ("F(Finv(L2))", "L2", ["R_FFinv"]),
    ("Dual(W(L2, linf0[1]))", "W(L2, l1[-1])", ["R_Dual", "R_DualLp"]),
    ("Dual(Linf0)", "L1", ["R_DualLp"]),
    ("Mod((L3 oeps L3))", "W(FL3, linf0)", ["R_C61b"]),
    ("Mod((L2 oeps L3))", "Mod((L2 oeps L3))", []),
]


@pytest.mark.parametrize("text,expected,rules", CASES)
def test_normalize_cases(text, expected, rules):
    nf, trace = normalize(parse_space(text))
    assert render(nf) == expected
    assert [f.rule_id for f in trace] == rules


def test_normalize_deterministic():
    for text, _, _ in CASES:
        nf1, t1 = normalize(parse_space(text))
        nf2, t2 = normalize(parse_space(text))
        assert nf1 == nf2
        assert json.dumps(trace_to_json(t1)) == json.dumps(trace_to_json(t2))


def test_normalize_terminates_on_nested_input():
    # deep nesting exercises the measure argument
    e = parse_space("Mod((W(L2, l2) opi F(W(L2, l2))))")
    for _ in range(3):
        e = Mod(TensorPi(Amalgam(Lp(2.0), 2.0, 0.0), FL(Amalgam(e, 2.0, 0.0))))
    nf, trace = normalize(e)
    assert len(trace) < 50


def test_rule_side_condition_tampering_is_visible():
    # allowing p1 > p2 in the first corollary changes a golden normal form;
    # the fixture suite pins this
    nf, trace = normalize(parse_space("Mod((L2 opi L1))"))
    assert [f.rule_id for f in trace] != ["R_C61a"]


def test_explain_formats():
    nf, trace = normalize(parse_space("Mod((L2 opi L1))"))
    text = explain(trace)
    assert "R_Boch" in text and "R_L34" in text and "Lemma 3.4" in text
    assert explain([]) == "already normal"


def test_trace_json_fields():
    _, trace = normalize(parse_space("M2,1"))
    blob = trace_to_json(trace)
    assert blob[0].keys() == {"rule_id", "paper_location", "before", "after"}
    assert blob[0]["rule_id"] == "R_L34"


def test_rule_table_integrity():
    assert len({r.id for r in RULES}) == len(RULES)
    for rule_id in RULE_NUMERIC_SUITE:
        assert rule_id in RULE_TABLE


# -- inclusion ---------------------------------------------------------------


def test_includes_amalgam_global_chain():
    r = includes(parse_space("W(L2, l1)"), parse_space("W(L2, l2)"))
    assert r.established
    assert any("Lemma 3.1(i)" in step[0] for step in r.chain)


def test_includes_pi_into_eps():
    r = includes(parse_space("(L2 opi L2)"), parse_space("(L2 oeps L2)"))
    assert r.established


def test_includes_no_evidence():
    r = includes(parse_space("L1"), parse_space("L2"))
    assert r.status == "no-evidence"
    assert not r.established


def test_includes_sandwich():
    assert includes(parse_space("W(L2, l1)"), parse_space("L2")).established
    assert includes(parse_space("L2"), parse_space("W(L2, linf0)")).established
    assert includes(parse_space("W(L2, l1)"), parse_space("W(L2, linf)")).established


def test_includes_through_congruence():
    r = includes(
        parse_space("Mod((W(L2, l1) opi F(L1)))"),
        parse_space("Mod((W(L2, l2) opi F(L1)))"),
    )
    assert r.established


def test_includes_uses_normalize_equality():
    # Q0 = L2 and the sandwich gives Q0 -> W(L2, linf0)
    r = includes(parse_space("Q0"), parse_space("W(L2, linf0)"))
    assert r.established
