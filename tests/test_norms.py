import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tfnorm.bupu import make_integer_bupu
from tfnorm.evaluate import eval_space_norm, stack_evaluator
from tfnorm.family import random_smooth, test_family as make_family
from tfnorm.identify.parser import parse_space
from tfnorm.grid import GridSpec, SampledFunction
from tfnorm.norms import (
    AmalgamSpec,
    GlobalSpec,
    INF0,
    amalgam_norm_continuous,
    amalgam_norm_discrete,
    amalgam_norms,
    c0_tail_profile,
    local_norm,
    lp_norm,
    mixed_norm,
    modulation_norm,
    modulation_norm_via_amalgam,
    shubin_norm,
)
from tfnorm.spaces import C0Spec, FLpSpec, LpSpec
from tfnorm.stft import rank_one_tf, stft
from tfnorm.tensor import decompose_mollified  # noqa: F401  (import order guard)
from tfnorm.transforms import fourier
from tfnorm.weights import RadialWeight2D, TensorWeight, make_power_weight
from tfnorm.windows import bump, gaussian, hermite_function, normalized_gaussian

from oracles import direct_amalgam_discrete


def test_lp_norm_unit_box(grid):
    vals = (np.abs(grid.axis_points() + grid.spacing / 2) < 0.5).astype(float)
    f = SampledFunction(grid, vals)
    assert lp_norm(f, 2.0) == pytest.approx(1.0, abs=grid.spacing)


def test_lp_norm_definition_exact(grid):
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    f = SampledFunction(grid, vals)
    assert lp_norm(f, 2.0) ** 2 == pytest.approx(
        float((np.abs(vals) ** 2).sum() * grid.spacing), rel=1e-14
    )


def test_lp_norm_gaussian_mass(grid):
    assert lp_norm(gaussian(grid), 1.0) == pytest.approx(1.0, abs=1e-8)


def test_lp_norm_sup(grid):
    f = gaussian(grid, a=1.0)
    assert lp_norm(f, math.inf) == pytest.approx(1.0, abs=1e-12)
    assert lp_norm(f, math.inf, make_power_weight(1.0)) >= 1.0


def test_lp_norm_rejects_bad_exponent(grid):
    with pytest.raises(ValueError):
        lp_norm(gaussian(grid), 0.5)


def test_tail_profile_gaussian(grid):
    prof = c0_tail_profile(gaussian(grid))
    assert np.all(np.diff(prof.values) < 0)
    assert prof.vanishing_ok


def test_tail_profile_constant(grid):
    ones = SampledFunction(grid, np.ones(grid.n))
    prof = c0_tail_profile(ones)
    assert np.all(prof.values == prof.values[0])
    assert not prof.vanishing_ok


def test_tail_profile_zero(grid):
    prof = c0_tail_profile(SampledFunction(grid, np.zeros(grid.n)))
    assert np.all(prof.values == 0.0)
    assert prof.vanishing_ok


def test_mixed_norm_reduces_to_l2(grid, gauss_window):
    v = stft(gaussian(grid, a=2.0), gauss_window)
    assert mixed_norm(v, 2.0, 2.0) == pytest.approx(v.norm2(), rel=1e-12)


def test_mixed_norm_rank_one_separates(grid):
    phi = gaussian(grid, a=1.0)
    psi = fourier(gaussian(grid, a=0.5))
    v = rank_one_tf(phi, psi)
    w1, w2 = make_power_weight(1.0), make_power_weight(0.5)
    lhs = mixed_norm(v, 2.0, 3.0, TensorWeight(w1, w2))
    rhs = lp_norm(phi, 2.0, w1) * lp_norm(psi, 3.0, w2)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_mixed_norm_zero(grid):
    from tfnorm.stft import TimeFrequencyArray

    z = TimeFrequencyArray(grid, grid.dual(), np.zeros((grid.n, grid.n)))
    assert mixed_norm(z, 1.0, 1.0) == 0.0


def test_local_norm_sup_of_window(grid, bupu):
    ones = SampledFunction(grid, np.ones(grid.n))
    assert local_norm(ones, bupu.base, LpSpec(math.inf)) == pytest.approx(1.0, abs=1e-12)


def test_local_norm_zero(grid, bupu):
    z = SampledFunction(grid, np.zeros(grid.n))
    for spec in (LpSpec(2.0), FLpSpec(2.0), C0Spec()):
        assert local_norm(z, bupu.base, spec) == 0.0


def test_local_norms_bounded_by_overlap(grid, bupu):
    # sum_k ||f phi_k||_2^2 <= overlap * ||f||_2^2 * max|phi|^2
    f = random_smooth(grid, 11)
    total = sum(
        local_norm(f, bupu.window(k), LpSpec(2.0)) ** 2 for k in bupu.lattice
    )
    assert total <= 2.0 * f.norm2() ** 2 + 1e-12


def test_amalgam_support_counting(grid, bupu):
    f = bump(grid, radius=0.9)
    spec = AmalgamSpec(LpSpec(2.0), GlobalSpec(1.0))
    res = amalgam_norm_discrete(f, spec)
    center = local_norm(f, bupu.window((0,)), LpSpec(2.0))
    three = sum(local_norm(f, bupu.window((k,)), LpSpec(2.0)) for k in (-1, 0, 1))
    assert center <= res.value <= three + 1e-12
    assert res.method == "discrete"


def test_amalgam_zero(grid):
    z = SampledFunction(grid, np.zeros(grid.n))
    spec = AmalgamSpec(LpSpec(2.0), GlobalSpec(1.0))
    assert amalgam_norm_discrete(z, spec).value == 0.0


def test_amalgam_global_monotonicity(grid):
    # l^p1 >= l^p2 >= sup on the same coefficient sequence, exactly
    f = random_smooth(grid, 3)
    specs = [
        AmalgamSpec(LpSpec(2.0), GlobalSpec(p)) for p in (1.0, 2.0, 4.0)
    ]
    vals = [amalgam_norm_discrete(f, s).value for s in specs]
    sup = amalgam_norm_discrete(
        f, AmalgamSpec(LpSpec(2.0), GlobalSpec(INF0))
    ).value
    assert vals[0] >= vals[1] >= vals[2] >= sup


def test_amalgam_linf0_diagnostics(grid):
    f = gaussian(grid)
    res = amalgam_norm_discrete(f, AmalgamSpec(LpSpec(2.0), GlobalSpec(INF0)))
    assert res.diagnostics["linf0_proxy"]
    assert res.diagnostics["vanishing_tail_ok"]


def test_amalgam_continuous_homogeneity(grid, bupu):
    f = random_smooth(grid, 7)
    spec = AmalgamSpec(LpSpec(2.0), GlobalSpec(1.0))
    a = amalgam_norm_continuous(f, spec, bupu.base)
    b = amalgam_norm_continuous(f * 3.0, spec, bupu.base)
    assert b.value == pytest.approx(3.0 * a.value, rel=1e-14)


def test_amalgam_continuous_zero(grid, bupu):
    z = SampledFunction(grid, np.zeros(grid.n))
    spec = AmalgamSpec(LpSpec(2.0), GlobalSpec(1.0))
    assert amalgam_norm_continuous(z, spec, bupu.base).value == 0.0


def test_discrete_vs_continuous_gaussian_family(grid, bupu):
    spec = AmalgamSpec(LpSpec(2.0), GlobalSpec(1.0))
    ratios = []
    for a in (0.25, 0.5, 1.0, 2.0, 4.0):
        f = gaussian(grid, a=a)
        d = amalgam_norm_discrete(f, spec).value
        c = amalgam_norm_continuous(f, spec, bupu.base).value
        ratios.append(d / c)
    assert max(ratios) / min(ratios) <= 4.0


def test_sandwich_l1_l2_sup(grid, family_small):
    # W(L2, l1) >= c L2 >= c' W(L2, sup) with stable empirical constants
    low, high = [], []
    for _, f in family_small:
        l1 = amalgam_norm_discrete(f, AmalgamSpec(LpSpec(2.0), GlobalSpec(1.0))).value
        sup = amalgam_norm_discrete(f, AmalgamSpec(LpSpec(2.0), GlobalSpec(INF0))).value
        low.append(l1 / f.norm2())
        high.append(f.norm2() / sup)
    assert max(low) / min(low) <= 10.0
    assert max(high) / min(high) <= 10.0


def test_modulation_norm_moyal(grid, gauss_window):
    f = gaussian(grid, a=2.0, center=1.0)
    res = modulation_norm(f, gauss_window, 2.0, 2.0)
    assert res.value == pytest.approx(f.norm2(), rel=1e-6)
    assert res.method == "direct"


def test_modulation_norm_zero(grid, gauss_window):
    z = SampledFunction(grid, np.zeros(grid.n))
    assert modulation_norm(z, gauss_window, 1.0, 1.0).value == 0.0


def test_modulation_norm_hermite_growth(grid, gauss_window):
    vals = [
        modulation_norm(
            hermite_function(grid, n), gauss_window, 2.0, 2.0, RadialWeight2D(1.0)
        ).value
        for n in (0, 2, 4, 6)
    ]
    assert vals == sorted(vals)


def test_via_amalgam_matches_direct(grid, gauss_window, family_small):
    for p1, p2 in ((2.0, 2.0), (1.0, 1.0)):
        ratios = []
        for _, f in family_small:
            d = modulation_norm(f, gauss_window, p1, p2).value
            v = modulation_norm_via_amalgam(f, p1, p2).value
            ratios.append(v / d)
        assert max(ratios) / min(ratios) <= 10.0


def test_via_amalgam_zero_and_method(grid):
    z = SampledFunction(grid, np.zeros(grid.n))
    res = modulation_norm_via_amalgam(z, 1.0, 1.0)
    assert res.value == 0.0
    assert res.method == "via_amalgam"


def test_via_amalgam_rejects_sup_exponent(grid):
    with pytest.raises(ValueError):
        modulation_norm_via_amalgam(gaussian(grid), math.inf, 1.0)


def test_shubin_zero_order_is_l2(grid):
    f = gaussian(grid, a=0.5, center=1.0)
    assert shubin_norm(f, 0.0).value == pytest.approx(f.norm2(), rel=1e-6)


def test_shubin_zero_function(grid):
    z = SampledFunction(grid, np.zeros(grid.n))
    assert shubin_norm(z, 2.0).value == 0.0


def test_shubin_intersection_characterization(grid, family_small):
    w = make_power_weight(2.0)
    ratios = []
    for _, f in family_small:
        q = shubin_norm(f, 2.0).value
        split = lp_norm(f, 2.0, w) + lp_norm(fourier(f), 2.0, w)
        ratios.append(q / split)
    assert max(ratios) / min(ratios) <= 10.0


@settings(max_examples=15, deadline=None)
@given(
    c=st.floats(min_value=1e-3, max_value=1e3),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
    seed=st.integers(min_value=0, max_value=50),
)
def test_norm_homogeneity(c, p, seed):
    grid = GridSpec(1, 16.0, 256)
    f = random_smooth(grid, seed)
    assert lp_norm(f * c, p) == pytest.approx(c * lp_norm(f, p), rel=1e-12)


@settings(max_examples=15, deadline=None)
@given(
    p=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
    s1=st.integers(min_value=0, max_value=30),
    s2=st.integers(min_value=31, max_value=60),
)
def test_triangle_inequality(p, s1, s2):
    grid = GridSpec(1, 16.0, 256)
    f, g = random_smooth(grid, s1), random_smooth(grid, s2)
    assert lp_norm(f + g, p) <= lp_norm(f, p) + lp_norm(g, p) + 1e-9


def test_amalgam_triangle_inequality(grid):
    f, g = random_smooth(grid, 1), random_smooth(grid, 2)
    spec = AmalgamSpec(LpSpec(2.0), GlobalSpec(1.0))
    lhs = amalgam_norm_discrete(f + g, spec).value
    rhs = (
        amalgam_norm_discrete(f, spec).value
        + amalgam_norm_discrete(g, spec).value
    )
    assert lhs <= rhs + 1e-9


@pytest.mark.parametrize("other", [GridSpec(1, 8.0, 256), GridSpec(1, 4.0, 1024)])
def test_local_norm_rejects_window_on_other_grid(grid, other):
    # (8, 256) has another size; (4, 1024) the same size but other points
    window = make_integer_bupu(other).base
    with pytest.raises(ValueError, match="grid mismatch"):
        local_norm(gaussian(grid), window, LpSpec(2.0))


@pytest.mark.parametrize("other", [GridSpec(1, 8.0, 256), GridSpec(1, 4.0, 1024)])
def test_amalgam_continuous_rejects_chi_on_other_grid(grid, other):
    spec = AmalgamSpec(LpSpec(2.0), GlobalSpec(1.0))
    with pytest.raises(ValueError, match="grid mismatch"):
        amalgam_norm_continuous(gaussian(grid), spec, make_integer_bupu(other).base)


@pytest.mark.parametrize("samples", [0, -1, -4, 2.0, True])
def test_amalgam_continuous_rejects_bad_samples_per_cell(grid, bupu, samples):
    spec = AmalgamSpec(LpSpec(2.0), GlobalSpec(1.0))
    with pytest.raises(ValueError, match="samples_per_cell must be a positive integer"):
        amalgam_norm_continuous(gaussian(grid), spec, bupu.base, samples_per_cell=samples)


#: (dim, L, N) with a spacing dividing 1; self-dual when N = 4 L^2
_ORACLE_GRIDS = [
    (1, 2.0, 16), (1, 4.0, 64), (1, 4.0, 32), (1, 4.0, 128), (1, 3.0, 12),
    (2, 2.0, 16), (2, 2.0, 8), (2, 3.0, 12),
]


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(_ORACLE_GRIDS),
    local=st.sampled_from(["L", "C0", "FL"]),
    p=st.sampled_from([1.0, 1.5, 2.0, math.inf]),
    s_local=st.sampled_from([0.0, 0.5, -1.0]),
    gp=st.sampled_from([1.0, 2.0, math.inf, INF0]),
    s_glob=st.sampled_from([0.0, 1.0, -0.5]),
    zero_rows=st.lists(st.booleans(), min_size=1, max_size=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_amalgam_stack_matches_window_loop(shape, local, p, s_local, gp, s_glob, zero_rows, seed):
    grid = GridSpec(*shape)
    w = make_power_weight(s_local)
    spec_local = {"L": LpSpec(p, w), "C0": C0Spec(w), "FL": FLpSpec(p, w)}[local]
    spec = AmalgamSpec(spec_local, GlobalSpec(gp, make_power_weight(s_glob)))
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((len(zero_rows), *grid.shape)) + 1j * rng.standard_normal(
        (len(zero_rows), *grid.shape)
    )
    rows[np.asarray(zero_rows)] = 0.0
    got = amalgam_norms(rows, grid, spec)
    assert len(got) == len(rows)
    for row, res in zip(rows, got):
        want = direct_amalgam_discrete(SampledFunction(grid, row), spec)
        assert res.value == pytest.approx(want, rel=1e-12, abs=0.0)
        assert res.value == amalgam_norm_discrete(SampledFunction(grid, row), spec).value


def test_2d_lp_amalgam_reduces_on_window_boxes():
    # the full window stack of this grid is 1,225 x 128 x 128 x 8 bytes
    # (153 MB); L^p local norms read only each window's 7 x 7 support box
    grid = GridSpec(2, 16.0, 128)
    f = SampledFunction(grid, np.exp(-np.pi * grid.radii() ** 2))
    spec = AmalgamSpec(LpSpec(2.0, make_power_weight(1.0)), GlobalSpec(1.0))
    tracemalloc.start()
    try:
        value = amalgam_norm_discrete(f, spec).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert value > 0.0


@pytest.mark.parametrize("text", ["L3[1]", "W(FL2, l2[1])", "F(W(C0[1], l1))", "F(W(L1, linf0))"])
def test_stack_evaluator_matches_the_one_function_norm(text):
    # a whole stack of rows, measured at once, gives each row's own norm
    grid = GridSpec(1, 8.0, 256)
    members = [f for _, f in make_family(grid, seed=3)][:5]
    rows = np.stack([f.values for f in members])
    expr = parse_space(text)
    stacked = stack_evaluator(expr)(rows, grid)
    for value, f in zip(stacked, members, strict=True):
        assert value == pytest.approx(eval_space_norm(expr, f)[0].value, rel=1e-12)
