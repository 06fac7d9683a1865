import json

import pytest
from hypothesis import given, settings, strategies as st

from tfnorm.identify import (
    Amalgam,
    C0,
    Dual,
    FL,
    FLinv,
    INF,
    INF0,
    InclusionResult,
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
from tfnorm.harness import registered_suites, run_verification
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


@pytest.mark.parametrize(
    "text, position", [("L0.5", 0), ("W(L2, l0.5)", 6), ("M0.5,2", 0), ("M2,0", 0), ("FL0.5[1]", 0)]
)
def test_parse_exponent_below_one_is_syntax_error(text, position):
    with pytest.raises(SpaceSyntaxError, match=r"exponent must be in \[1, inf\]") as exc:
        parse_space(text)
    assert exc.value.position == position


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
    assert len(set(RULE_NUMERIC_SUITE.values())) == len(RULE_NUMERIC_SUITE)
    for rule_id, suite in RULE_NUMERIC_SUITE.items():
        assert rule_id in RULE_TABLE
        assert suite in registered_suites()
        # small self-dual grid: the rule link is config-independent
        report = run_verification(suite, L=8.0, N=256, dual_count=32)
        assert report.verifies_rule == rule_id


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
    assert r.exhausted and r.nodes < 4000
    assert includes(parse_space("L1"), parse_space("L2"), max_nodes=100_000).nodes == r.nodes


_FINITE_PS = ("1", "1.25", "1.5", "2", "2.5", "3", "4", "6")


@pytest.mark.parametrize("p", _FINITE_PS)
def test_includes_lp_into_lq_is_exhausted(p):
    for q in _FINITE_PS + ("inf", "inf0"):
        if q == p:
            continue
        r = includes(parse_space(f"L{p}"), parse_space(f"L{q}"))
        assert (r.status, r.exhausted) == ("no-evidence", True), (p, q)


def test_includes_budget_cut_is_not_exhausted():
    r = includes(parse_space("L1"), parse_space("L2"), max_nodes=5)
    assert r.status == "no-evidence" and not r.exhausted
    assert r.nodes >= 5


def test_includes_result_defaults():
    r = InclusionResult("no-evidence")
    assert (r.chain, r.nodes, r.exhausted) == ((), 0, False)


@pytest.mark.parametrize("bad", [0, -1, 2.5, "10", True, None])
def test_includes_rejects_bad_max_nodes(bad):
    with pytest.raises(ValueError, match="max_nodes must be an integer >= 1"):
        includes(parse_space("L1"), parse_space("L2"), max_nodes=bad)


# Irreducible expressions (no rewrite rule matches them): L^p, C0 and FL^p
# atoms with power weights, amalgams over them, and bare tensors.
_PS = (1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0)
_weights = st.sampled_from((-1.0, 0.0, 0.5, 2.0))
_atoms = st.one_of(
    st.builds(Lp, st.sampled_from(_PS + (INF, INF0)), _weights),
    st.builds(C0, _weights),
    st.builds(lambda p, s: FL(Lp(p, s)), st.sampled_from(_PS), _weights),
)
_irreducible = st.one_of(
    _atoms,
    st.builds(Amalgam, _atoms, st.sampled_from(_PS + (INF, INF0)), _weights),
    st.builds(TensorPi, _atoms, _atoms),
    st.builds(TensorEps, _atoms, _atoms),
)
_contexts = (
    lambda e: e,
    lambda e: Amalgam(e, 2.0),
    lambda e: TensorPi(e, Lp(2.0)),
    lambda e: TensorEps(C0(), e),
)


@st.composite
def _embedding_step(draw):
    """(a, b) with b one embedding edge from a inside a context."""
    e = draw(_irreducible)
    step = draw(st.sampled_from(("raise", "pi-eps", "unwrap", "wrap")))
    if step == "raise":
        p, q = sorted(draw(st.lists(st.sampled_from(_PS + (INF,)), min_size=2, max_size=2, unique=True)))
        s = draw(_weights)
        a, b = Amalgam(e, p, s), Amalgam(e, q, s)
    elif step == "pi-eps":
        f = draw(_atoms)
        a, b = TensorPi(e, f), TensorEps(e, f)
    elif step == "unwrap":
        a, b = Amalgam(e, 1.0), e
    else:
        a, b = e, Amalgam(e, INF0)
    ctx = draw(st.sampled_from(_contexts))
    return ctx(a), ctx(b)


def _assert_linked_chain(a, b, r):
    assert r.established, (render(a), render(b))
    _, befores, afters = zip(*r.chain)
    assert befores[0] == render(a) and afters[-1] == render(b)
    assert list(afters[:-1]) == list(befores[1:])


@settings(max_examples=40, deadline=None)
@given(_embedding_step())
def test_includes_finds_every_single_step(pair):
    a, b = pair
    _assert_linked_chain(a, b, includes(a, b))


@settings(max_examples=4, deadline=None)
@given(_atoms, _atoms, _atoms)
def test_includes_finds_the_three_step_chain(A, B, C):
    a = TensorPi(Amalgam(A, 1.0), TensorPi(Amalgam(B, 1.0), C))
    b = TensorPi(A, TensorEps(B, C))
    r = includes(a, b)
    _assert_linked_chain(a, b, r)
    assert len(r.chain) == 3


@pytest.mark.parametrize(
    "a", ["Mod((W(L2, l2) oeps F(L2)))", "Mod((W((L1 opi L2), l2) oeps F(L2)))"]
)
def test_includes_wrap_that_a_rule_collapses(a):
    # The start is at or past the goal's size bound (6 nodes), so wrapping
    # F's factor overshoots it; normalize then collapses the whole node to
    # the goal, and the size bound must be checked after normalize.
    r = includes(parse_space(a), parse_space("W(L2, linf0)"))
    label = "Eq. (3.4): E into W(E, linf0)"
    assert r.chain == ((label, render(normalize(parse_space(a))[0]), "W(L2, linf0)"),)


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
