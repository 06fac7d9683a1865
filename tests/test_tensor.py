import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfnorm.evaluate import stack_dual_norm, stack_evaluator
from tfnorm.family import random_band_limited, random_smooth
from tfnorm.grid import GridSpec, SampledFunction
from tfnorm.identify.parser import parse_space
from tfnorm.norms import (
    AmalgamSpec,
    GlobalSpec,
    INF0,
    amalgam_norm_discrete,
    amalgam_norms,
    lp_norm,
    lp_norms,
)
from tfnorm.spaces import FLpSpec, LpSpec
from tfnorm.stft import adjoint_stft, rank_one_tf
from tfnorm.tensor import (
    DualSamples,
    FiniteTensor,
    aligned_dual_sample,
    decompose_mollified,
    decompose_splitting,
    dual_amalgam_spec,
    eps_lower_bound,
    make_dual_samples,
    overlap_factor,
    pi_upper_bound,
    synthesize,
)
from tfnorm.transforms import convolve, fourier, transform_axes
from tfnorm.weights import make_power_weight
from tfnorm.windows import bump, gaussian


def l2norms(rows, grid):
    """Stack form of ``SampledFunction.norm2``: the L2 norm, which is its own
    dual norm, for ``pi_upper_bound`` and the dual samples."""
    return np.linalg.norm(rows.reshape(len(rows), -1), axis=1) * grid.cell_volume**0.5


L2 = (l2norms, l2norms)


def _tensor(grid, *terms):
    """The finite tensor of (lam, phi, psi) terms, phi a function on ``grid``
    and psi one on its dual grid."""
    shape = (len(terms), grid.n)
    phi = np.reshape([t[1].values for t in terms], shape)
    psi = np.reshape([t[2].values for t in terms], shape)
    return FiniteTensor([t[0] for t in terms], phi, psi, grid, grid.dual())


def test_pi_upper_rank_one(grid):
    phi = gaussian(grid, a=1.0)
    psi = fourier(gaussian(grid, a=2.0))
    t = _tensor(grid, (1.0, phi, psi))
    assert pi_upper_bound(t, l2norms, l2norms) == pytest.approx(
        phi.norm2() * psi.norm2(), rel=1e-12
    )


def test_pi_upper_empty(grid):
    assert pi_upper_bound(_tensor(grid), l2norms, l2norms) == 0.0


def test_pi_upper_redundant_terms(grid):
    phi = gaussian(grid, a=1.0)
    psi = fourier(gaussian(grid, a=2.0))
    single = _tensor(grid, (1.0, phi, psi))
    double = _tensor(grid, (0.5, phi, psi), (0.5, phi, psi))
    assert pi_upper_bound(double, l2norms, l2norms) == pytest.approx(
        pi_upper_bound(single, l2norms, l2norms), rel=1e-12
    )


def test_eps_zero_tensor(grid):
    duals = make_dual_samples(4, 0, L2, grid, grid.dual())
    assert eps_lower_bound(_tensor(grid), duals) == 0.0


def _eps_pairwise(t, duals):
    """The injective lower bound one scalar pairing at a time."""
    phis = [SampledFunction(t.xgrid, v) for v in t.phi]
    psis = [SampledFunction(t.xigrid, v) for v in t.psi]
    best = 0.0
    for fa, fb in zip(duals.fa, duals.fb):
        da, db = SampledFunction(duals.xgrid, fa), SampledFunction(duals.xigrid, fb)
        acc = 0.0 + 0.0j
        for lam, phi, psi in zip(t.lam, phis, psis):
            acc += lam * da.pair(phi) * db.pair(psi)
        best = max(best, abs(acc))
    return best


@functools.lru_cache(maxsize=1)
def _duals_1024():
    grid = GridSpec(1, 16.0, 1024)
    return make_dual_samples(129, 11, L2, grid, grid.dual())


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rank=st.integers(min_value=0, max_value=4),
    count=st.sampled_from([1, 63, 64, 65, 129]),
)
def test_eps_blocked_matches_pairwise(seed, rank, count):
    # 64 rows fill one block at N=1024: 63/64/65/129 end on a partial, an
    # exactly full and a one-row last block. The aligned dual, which
    # usually attains the maximum, is put in turn on each row next to a
    # block edge, so that a block that loses its first or last row changes
    # the bound.
    grid = GridSpec(1, 16.0, 1024)
    rng = np.random.default_rng(seed)
    terms = tuple(
        (
            complex(rng.standard_normal(), rng.standard_normal()),
            random_smooth(grid, int(rng.integers(0, 1000))),
            fourier(random_smooth(grid, int(rng.integers(0, 1000)))),
        )
        for _ in range(rank)
    )
    t = _tensor(grid, *terms)
    fa, fb = _duals_1024().fa[:count], _duals_1024().fb[:count]
    cases = [DualSamples(fa, fb, grid, grid.dual())]
    if rank:
        aligned = aligned_dual_sample(t, L2)
        edges = {0, 63, 64, 127, 128, count - 1} & set(range(count))
        cases = []
        for at in sorted(edges):
            sa, sb = fa.copy(), fb.copy()
            sa[at], sb[at] = aligned.fa[0], aligned.fb[0]
            cases.append(DualSamples(sa, sb, grid, grid.dual()))
    for duals in cases:
        got = eps_lower_bound(t, duals)
        assert got == pytest.approx(_eps_pairwise(t, duals), rel=1e-12, abs=0.0)


def test_eps_rejects_dual_on_other_grid(grid, grid_small):
    t = _tensor(grid, (1.0, gaussian(grid, a=1.0), fourier(gaussian(grid, a=2.0))))
    good = make_dual_samples(2, 0, L2, grid, grid.dual())
    bad = make_dual_samples(1, 0, L2, grid_small, grid_small.dual())
    with pytest.raises(ValueError, match="grid mismatch"):
        eps_lower_bound(t, bad)
    mixed = DualSamples(good.fa[:1], bad.fb, grid, grid_small.dual())
    with pytest.raises(ValueError, match="grid mismatch"):
        eps_lower_bound(t, mixed)


def test_eps_memory_is_blocked(grid):
    # 512 duals hold 16 MB of values; copying one side whole allocates
    # 8 MB, one block of 64 rows per side 1 MB.
    rng = np.random.default_rng(3)
    xigrid = grid.dual()

    def rand(count):
        return rng.standard_normal((count, grid.n)) + 1j * rng.standard_normal((count, grid.n))

    duals = DualSamples(rand(512), rand(512), grid, xigrid)
    t = FiniteTensor(np.ones(4), rand(4), rand(4), grid, xigrid)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        eps_lower_bound(t, duals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 4 * 2**20


def test_eps_aligned_rank_one_reaches_pi(grid):
    phi = gaussian(grid, a=1.0, center=0.5)
    psi = fourier(gaussian(grid, a=2.0))
    t = _tensor(grid, (1.0, phi, psi))
    duals = aligned_dual_sample(t, L2)
    eps = eps_lower_bound(t, duals)
    pi = pi_upper_bound(t, l2norms, l2norms)
    assert eps >= pi * (1.0 - 1e-3)
    assert eps <= pi + 1e-12


def test_dual_samples_deterministic(grid):
    a = make_dual_samples(3, 42, L2, grid, grid.dual())
    b = make_dual_samples(3, 42, L2, grid, grid.dual())
    assert np.array_equal(a.fa, b.fa)
    assert np.array_equal(a.fb, b.fb)


def test_dual_samples_unit_norm(grid):
    spaces = (parse_space("W(L2, l1[1])"), parse_space("F(W(L2, l1[1]))"))
    dual_norms = tuple(stack_dual_norm(e) for e in spaces)
    d = make_dual_samples(4, 7, dual_norms, grid, grid.dual())
    assert dual_norms[0](d.fa, grid) == pytest.approx(np.ones(4), abs=1e-9)
    assert dual_norms[1](d.fb, grid.dual()) == pytest.approx(np.ones(4), abs=1e-9)


def _one_at_a_time(kind):
    """Dual norms and the measures of their two sides, one function at a time."""
    if kind == "lp":
        measure = lambda f: lp_norm(f, 1.5)
        return (stack_dual_norm(parse_space("L3")),) * 2, measure, measure
    spec = AmalgamSpec(LpSpec(2.0), GlobalSpec(2.0, make_power_weight(1.0)))
    dual = dual_amalgam_spec(spec)

    def measure(u):
        return amalgam_norm_discrete(u, dual).value * overlap_factor(spec, u.grid)

    spaces = (parse_space("W(L2, l2[1])"), parse_space("F(W(L2, l2[1]))"))
    return tuple(stack_dual_norm(e) for e in spaces), measure, lambda f: measure(fourier(f))


@pytest.mark.parametrize("kind", ["amalgam", "lp"])
@pytest.mark.parametrize("count", [1, 63, 64, 65, 129])
def test_dual_samples_blocked_match_one_at_a_time(grid, kind, count):
    # 64 duals fill one block at N=1024: 63/64/65/129 end on a partial, an
    # exactly full and a one-row last block
    dual_norms, measure_a, measure_b = _one_at_a_time(kind)
    got = make_dual_samples(count, 19, dual_norms, grid, grid.dual())
    assert isinstance(got, DualSamples) and len(got) == count
    assert not got.fa.flags.writeable and not got.fb.flags.writeable
    rng = np.random.default_rng(19)
    for sample_a, sample_b in zip(got.fa, got.fb):
        fa = random_band_limited(grid, rng)
        fb = random_band_limited(grid.dual(), rng)
        for raw, measure, sample in ((fa, measure_a, sample_a), (fb, measure_b, sample_b)):
            scaled = raw * (1.0 / measure(raw))
            assert np.array_equal(sample, scaled.values)


def test_dual_samples_reject_zero_count(grid):
    with pytest.raises(ValueError):
        make_dual_samples(0, 0, L2, grid, grid.dual())


def _stacks(grid, count=2):
    rng = np.random.default_rng(0)
    return rng.standard_normal((count, grid.n)) + 1j * rng.standard_normal((count, grid.n))


@pytest.mark.parametrize(
    "change, match",
    [
        (lambda s: {**s, "phi": s["phi"][:, :-2]}, "rows of shape"),
        (lambda s: {**s, "psi": s["psi"][0]}, "rows of shape"),
        (lambda s: {**s, "lam": 1.0}, "rows of shape"),
        (lambda s: {**s, "psi": np.where(s["psi"] == s["psi"][0, 3], np.nan, s["psi"])}, "finite"),
        (lambda s: {**s, "lam": [1.0, np.inf]}, "finite"),
        (lambda s: {**s, "lam": [1.0]}, "different lengths"),
        (lambda s: {**s, "phi": s["phi"][:1]}, "different lengths"),
    ],
)
def test_finite_tensor_rejects_bad_stacks(grid, change, match):
    stacks = {"lam": [1.0, 2.0], "phi": _stacks(grid), "psi": _stacks(grid)}
    with pytest.raises(ValueError, match=match):
        FiniteTensor(**change(stacks), xgrid=grid, xigrid=grid.dual())


@pytest.mark.parametrize(
    "change, match",
    [
        (lambda s: {**s, "fa": s["fa"][:, :-2]}, "rows of shape"),
        (lambda s: {**s, "fb": s["fb"][0]}, "rows of shape"),
        (lambda s: {**s, "fa": np.where(s["fa"] == s["fa"][1, 5], np.inf, s["fa"])}, "finite"),
        (lambda s: {**s, "fb": s["fb"][:1]}, "different lengths"),
    ],
)
def test_dual_samples_reject_bad_stacks(grid, change, match):
    stacks = {"fa": _stacks(grid), "fb": _stacks(grid)}
    with pytest.raises(ValueError, match=match):
        DualSamples(**change(stacks), xgrid=grid, xigrid=grid.dual())


def test_stacks_are_read_only_views(grid):
    phi = _stacks(grid)
    t = FiniteTensor([1.0, 1.0], phi, _stacks(grid), grid, grid.dual())
    assert not (t.lam.flags.writeable or t.phi.flags.writeable or t.psi.flags.writeable)
    assert np.shares_memory(t.phi, phi) and phi.flags.writeable


def test_synthesize_matches_adjoint(grid, gauss_window):
    phi = gaussian(grid, a=1.5, center=-0.5)
    psi = fourier(gaussian(grid, a=0.7, center=0.25))
    t = _tensor(grid, (1.0, phi, psi))
    direct = synthesize(t, gauss_window)
    via_adjoint = adjoint_stft(rank_one_tf(phi, psi), gauss_window)
    assert (direct - via_adjoint).norm2() / via_adjoint.norm2() <= 1e-7


def test_synthesize_zero(grid, gauss_window):
    z = SampledFunction(grid, np.zeros(grid.n))
    t = _tensor(grid, (0.0, z, z))
    assert synthesize(t, gauss_window).norm2() == 0.0


def test_synthesize_linearity(grid, gauss_window):
    phi1, psi1 = gaussian(grid, a=1.0), fourier(gaussian(grid, a=2.0))
    phi2, psi2 = gaussian(grid, a=0.5, center=1.0), fourier(gaussian(grid, a=1.0))
    t1 = _tensor(grid, (1.0, phi1, psi1))
    t2 = _tensor(grid, (2.0, phi2, psi2))
    joint = synthesize(_tensor(grid, (1.0, phi1, psi1), (2.0, phi2, psi2)), gauss_window)
    separate = synthesize(t1, gauss_window) + synthesize(t2, gauss_window)
    assert np.max(np.abs(joint.values - separate.values)) < 1e-12


@pytest.mark.parametrize("decompose", [decompose_splitting, decompose_mollified])
def test_roundtrip(grid, family_small, decompose):
    for name, f in family_small:
        t, g = decompose(f)
        rec = synthesize(t, g)
        assert (rec - f).norm2() / f.norm2() <= 1e-6, name


def test_splitting_zero_function(grid):
    z = SampledFunction(grid, np.zeros(grid.n))
    t, _ = decompose_splitting(z)
    assert t.rank == 0


def test_splitting_single_cell_rank(grid):
    f = bump(grid, radius=0.9)
    t, _ = decompose_splitting(f)
    assert t.rank <= 3


def test_splitting_window_properties(grid):
    _, g = decompose_splitting(gaussian(grid))
    vals = g.values.real
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    inner = np.abs(grid.axis_points()) <= 2.0
    assert np.all(vals[inner] == 1.0)
    # the autocorrelation dominates 1 on the unit cell
    c = convolve(g, g).values.real
    cell = np.abs(grid.axis_points()) <= 1.0
    assert c[cell].min() >= 1.0 - 1e-9


def test_splitting_pi_bound_vs_amalgam(grid):
    # the construction's projective bound is controlled by W(FL^p, l1)
    for p in (1.0, 2.0):
        ratios = []
        target = AmalgamSpec(FLpSpec(p), GlobalSpec(1.0))
        for a in (0.5, 1.0, 2.0):
            f = gaussian(grid, a=a)
            t, _ = decompose_splitting(f)
            lp = lambda rows, g: lp_norms(rows, g, p)
            pi = pi_upper_bound(t, lp, lp)
            am = amalgam_norm_discrete(f, target).value
            ratios.append(pi / am)
        assert max(ratios) / min(ratios) <= 10.0


def test_mollified_zero(grid):
    t, _ = decompose_mollified(SampledFunction(grid, np.zeros(grid.n)))
    assert t.rank == 0


def test_mollified_term_norm_growth(grid):
    # || T_k m ||_{W(L1, l1_{v_1})} grows at most like v_1(k)
    t, _ = decompose_mollified(gaussian(grid, a=4.0))
    spec = AmalgamSpec(LpSpec(1.0), GlobalSpec(1.0, make_power_weight(1.0)))
    moll_norm = amalgam_norm_discrete(
        bump(grid, radius=1.0, normalize="mass"), spec
    ).value
    for phi in t.phi:
        k = round(float(grid.axis_points()[int(np.argmax(np.abs(phi)))]))
        norm_k = amalgam_norm_discrete(SampledFunction(grid, phi), spec).value
        assert norm_k <= 4.0 * (1.0 + abs(k)) * moll_norm


def test_eps_leq_pi_with_certified_amalgam_duals(grid, family_small):
    spec_f = AmalgamSpec(LpSpec(2.0), GlobalSpec(2.0))
    spec_e = AmalgamSpec(LpSpec(2.0), GlobalSpec(2.0))
    spaces = (parse_space("W(L2, l2)"), parse_space("F(W(L2, l2))"))
    dual_norms = tuple(stack_dual_norm(e) for e in spaces)
    duals = make_dual_samples(32, 5, dual_norms, grid, grid.dual())
    norm_a = lambda rows, g: [r.value for r in amalgam_norms(rows, g, spec_f)]
    norm_b = lambda rows, g: [
        r.value for r in amalgam_norms(transform_axes(rows, g.spacing, +1, g.dim), g.dual(), spec_e)
    ]
    for name, f in family_small:
        t, _ = decompose_mollified(f)
        eps = max(eps_lower_bound(t, duals), eps_lower_bound(t, aligned_dual_sample(t, dual_norms)))
        pi = pi_upper_bound(t, norm_a, norm_b)
        assert eps <= pi + 1e-12, name


def test_dual_amalgam_spec_conjugates():
    spec = AmalgamSpec(LpSpec(2.0, make_power_weight(1.0)), GlobalSpec(1.0, make_power_weight(2.0)))
    dual = dual_amalgam_spec(spec)
    assert dual.local.p == 2.0
    assert dual.glob.p == math.inf
    assert dual.glob.weight.s == -2.0
    sup_spec = AmalgamSpec(LpSpec(2.0), GlobalSpec(INF0))
    assert dual_amalgam_spec(sup_spec).glob.p == 1.0


def test_overlap_factor_flat_weight(grid):
    spec = AmalgamSpec(LpSpec(2.0), GlobalSpec(1.0))
    assert overlap_factor(spec, grid) == pytest.approx(3.0)
    spec1 = AmalgamSpec(LpSpec(2.0), GlobalSpec(1.0, make_power_weight(1.0)))
    assert overlap_factor(spec1, grid) == pytest.approx(5.0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=200))
def test_eps_leq_pi_random_l2_model(seed):
    grid = GridSpec(1, 16.0, 256)
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        phi = random_smooth(grid, int(rng.integers(0, 1000)))
        psi = fourier(random_smooth(grid, int(rng.integers(0, 1000))))
        terms.append((lam, phi, psi))
    t = _tensor(grid, *terms)
    duals = make_dual_samples(16, seed, L2, grid, grid.dual())
    eps = max(eps_lower_bound(t, duals), eps_lower_bound(t, aligned_dual_sample(t, L2)))
    pi = pi_upper_bound(t, l2norms, l2norms)
    assert eps <= pi * (1.0 + 1e-12)


_LOCALS = ["L2", "L1[1]", "L3[-1]", "FL3", "FL1[1]", "FL2[-1]", "C0", "C0[1]"]
_GLOBALS = ["l1", "l2", "l4[1]", "l1.5[-1]", "linf", "linf0"]
_AMALGAMS = st.builds("W({}, {})".format, st.sampled_from(_LOCALS), st.sampled_from(_GLOBALS))


@settings(max_examples=50, deadline=None)
@given(
    first=st.one_of(st.sampled_from(["L1", "L1.5", "L2", "L4", "Linf"]), _AMALGAMS),
    second=st.one_of(st.sampled_from(["L2", "L1.5"]), _AMALGAMS.map("F({})".format)),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_eps_leq_pi_through_stack_dual_norms(first, second, seed):
    # dual samples of unit norm in the dual spaces of the factor spaces (A, B)
    # pair to at most the pi bound measured in A and B
    grid = GridSpec(1, 8.0, 256)
    a, b = parse_space(first), parse_space(second)
    rng = np.random.default_rng(seed)
    terms = [
        (
            complex(rng.standard_normal(), rng.standard_normal()),
            random_smooth(grid, int(rng.integers(0, 1000))),
            fourier(random_smooth(grid, int(rng.integers(0, 1000)))),
        )
        for _ in range(int(rng.integers(1, 4)))
    ]
    t = _tensor(grid, *terms)
    dual_norms = (stack_dual_norm(a), stack_dual_norm(b))
    duals = make_dual_samples(16, seed, dual_norms, grid, grid.dual())
    eps = max(eps_lower_bound(t, duals), eps_lower_bound(t, aligned_dual_sample(t, dual_norms)))
    pi = pi_upper_bound(t, stack_evaluator(a), stack_evaluator(b))
    assert eps <= pi * (1.0 + 1e-12)
