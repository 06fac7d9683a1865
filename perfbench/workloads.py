"""Workload inputs and operations, generated from the benchmark seed.

Every workload is a list of operations ("ops") per pass. An op is a
``(name, thunk)`` pair: the name identifies the op's slot and is the same in
every pass, the thunk calls the public ``tfnorm`` API and returns the output
that the checks in :mod:`checks` examine after the timed passes.

The benchmark reaches ``tfnorm`` only through ``run_verification`` and
``emit_report``, ``parse_space``, ``normalize``, ``render``, ``includes`` and
``eval_space_norm``. The modules are looked up by attribute on every call, so
the layer tracer in :mod:`tracing` sees the calls.
"""

from __future__ import annotations

import numpy as np

import tfnorm.evaluate as evaluate
import tfnorm.harness as harness
import tfnorm.identify as identify
from tfnorm.family import random_smooth, test_family
from tfnorm.grid import GridSpec

WORKLOADS = ("verify-tensor", "identify", "norm-eval")

#: the two self-dual grids (N = 4 L^2)
GRID_DEFAULT = (16.0, 1024)
GRID_SMALL = (8.0, 256)

#: the parse -> normalize -> render ops that fail through ``render`` today
FLINF_OPS = ("FLinf", "FLinf[1]", "W(FLinf, l1)")
FLINF_PREFIX = "flinf:"


def suite_seed(seed: int, offset: int = 0) -> int:
    """Suite/family seed derived from the benchmark seed (0..996)."""
    return (int(seed) * 7919 + 104729 * offset) % 997


# ---------------------------------------------------------------------------
# verify workload


def _verify_op(suite: str, grid: tuple, seed: int, **extra):
    cfg = {"L": grid[0], "N": grid[1], "seed": seed, **extra}
    label = f"{suite}@L{grid[0]:g}N{grid[1]}s{seed}"
    if extra:
        label += "".join(f",{k}={v}" for k, v in sorted(extra.items()))

    def run():
        return harness.emit_report(harness.run_verification(suite, **cfg))

    return label, run


def verify_tensor_specs(seed: int) -> list:
    """(suite, grid, suite seed, extra config) of the verify-tensor ops.

    ``thm5.1`` on the default grid runs at its default config (256 dual
    samples), exactly what ``tfnorm verify thm5.1`` computes. The other
    eps-bound runs sample 64 duals so a pass stays near ten seconds.
    ``thm4.2`` and ``cor6.1a`` run at their default seed 0: on some seeds
    their seeded synthesis tensors make the suite fail (see CHANGES.md).
    """
    a, b, c = (suite_seed(seed, k) for k in range(3))
    specs = []
    for grid, sd in ((GRID_DEFAULT, a), (GRID_SMALL, b)):
        specs.append(("thm5.1", grid, sd, {} if grid == GRID_DEFAULT else {"dual_count": 64}))
        specs.append(("cor6.1b", grid, sd, {"dual_count": 64}))
        specs.append(("lemma3.3", grid, sd, {}))
        specs += [("thm4.2", grid, 0, {}), ("cor6.1a", grid, 0, {})]
    # more default-grid lemma3.3 seeds: ops of one cost around the median op
    specs += [("lemma3.3", GRID_DEFAULT, sd, {}) for sd in (b, c)]
    return specs


class VerifyWorkload:
    """A fixed list of suite runs; every pass repeats the same ops."""

    def __init__(self, name: str, specs: list):
        self.name = name
        self.specs = specs
        self._ops = [_verify_op(s, g, sd, **x) for s, g, sd, x in specs]

    def ops(self, pass_index: int) -> list:
        return self._ops


# ---------------------------------------------------------------------------
# identify workload

_EXPONENTS = (1, 1.25, 1.5, 2, 2.5, 3, 4, 6)
_WEIGHTS = tuple(k / 8 for k in range(-16, 25))


def _num(x) -> str:
    return f"{x:g}"


def _weight(par) -> str:
    s = _WEIGHTS[par.integers(len(_WEIGHTS))]
    return "" if s == 0 else f"[{_num(s)}]"


def _exponent(par, allow_inf: bool) -> str:
    pool = _EXPONENTS + (("inf", "inf0") if allow_inf else ("inf0",))
    p = pool[par.integers(len(pool))]
    return p if isinstance(p, str) else _num(p)


def _global(par) -> str:
    return "l" + _exponent(par, allow_inf=True) + _weight(par)


def _atom(shape, par, under_f: bool) -> str:
    """An atom of the grammar. Under a Fourier wrapper ``Linf`` is left out:
    ``F(Linf)`` is the render fault that the fixed FLinf ops keep visible."""
    kind = shape.choice(["L", "L", "C0", "FL", "M", "Q"])
    if kind == "L":
        return "L" + _exponent(par, allow_inf=not under_f) + _weight(par)
    if kind == "C0":
        return "C0" + _weight(par)
    if kind == "FL":
        return "FL" + _num(_EXPONENTS[par.integers(len(_EXPONENTS))]) + _weight(par)
    s = lambda: _num(_WEIGHTS[par.integers(len(_WEIGHTS))])  # noqa: E731
    if kind == "M":
        p, q = (_num(_EXPONENTS[par.integers(len(_EXPONENTS))]) for _ in range(2))
        return f"M{p},{q}[{s()},{s()}]" if par.integers(2) else f"M{p},{q}[rad {s()}]"
    return "Q" + s()


def random_expression(shape, par, depth: int, under_f: bool = False, root: bool = True) -> str:
    """Expression text from the parser's grammar.

    ``shape`` draws the tree (node kinds), ``par`` the exponents and weights.
    The root is never a bare atom, which leaves each slot enough distinct
    inputs. ``Dual`` is not used under a Fourier wrapper, since
    ``F(Dual(L1))`` normalizes to the ``F(Linf)`` render fault.
    """
    if depth == 0:
        return _atom(shape, par, under_f)
    kinds = ([] if root else ["atom"]) + ["W", "F", "Finv", "Mod", "opi", "oeps"]
    kinds += [] if under_f else ["Dual"]
    kind = shape.choice(kinds)
    sub = lambda f=under_f: random_expression(shape, par, depth - 1, f, root=False)  # noqa: E731
    if kind == "atom":
        return _atom(shape, par, under_f)
    if kind == "W":
        return f"W({sub()}, {_global(par)})"
    if kind in ("F", "Finv"):
        return f"{kind}({sub(True)})"
    if kind == "Mod":
        return f"Mod(({sub()} {shape.choice(['opi', 'oeps'])} {sub()}))"
    if kind == "Dual":
        return f"Dual({sub()})"
    return f"({sub()} {kind} {sub()})"


def _irreducible(shape, par, depth: int) -> str:
    """Expression built only from nodes no rewrite rule matches (Lp, C0 and
    FL^p atoms, amalgams, bare tensors), so it is its own normal form."""
    if depth == 0:
        kind = shape.choice(["L", "C0", "FL"])
        if kind == "L":
            return "L" + _exponent(par, allow_inf=True) + _weight(par)
        if kind == "C0":
            return "C0" + _weight(par)
        return "FL" + _num(_EXPONENTS[par.integers(len(_EXPONENTS))]) + _weight(par)
    kind = shape.choice(["W", "opi", "oeps"])
    if kind == "W":
        return f"W({_irreducible(shape, par, depth - 1)}, {_global(par)})"
    return f"({_irreducible(shape, par, depth - 1)} {kind} {_irreducible(shape, par, depth - 1)})"


def embedding_pair(shape, par) -> tuple:
    """(a, b) where b is a single embedding step from a inside a context.

    Steps: raise an amalgam's global exponent, opi -> oeps, W(E, l1) -> E,
    and E -> W(E, linf0). Every such pair is a true inclusion.
    """
    step = shape.choice(["raise", "pi-eps", "unwrap", "wrap"])
    e = _irreducible(shape, par, int(shape.integers(0, 2)))
    if step == "raise":
        ps = sorted(par.choice(len(_EXPONENTS), size=2, replace=False))
        w = _weight(par)
        a = f"W({e}, l{_num(_EXPONENTS[ps[0]])}{w})"
        b = f"W({e}, l{_num(_EXPONENTS[ps[1]])}{w})"
    elif step == "pi-eps":
        f = _irreducible(shape, par, 0)
        a, b = f"({e} opi {f})", f"({e} oeps {f})"
    elif step == "unwrap":
        a, b = f"W({e}, l1)", e
    else:
        a, b = e, f"W({e}, linf0)"
    context = shape.choice(["{}", "W({}, l2)", "({} opi L2)", "(C0 oeps {})"])
    return context.format(a), context.format(b)


def embedding_chain(shape, par) -> tuple:
    """(a, b) with b three embedding steps from a: W(A, l1) -> A twice and
    the inner opi -> oeps, for three irreducible atoms A, B, C. ``includes``
    needs a few hundred nodes of its search to find the chain."""
    A, B, C = (_irreducible(shape, par, 0) for _ in range(3))
    return f"(W({A}, l1) opi (W({B}, l1) opi {C}))", f"({A} opi ({B} oeps {C}))"


def _expression_op(text: str):
    def run():
        expr = identify.parse_space(text)
        nf, trace = identify.normalize(expr)
        return text, expr, nf, trace, identify.render(nf)

    return run


def _includes_op(a: str, b: str):
    def run():
        return a, b, identify.includes(identify.parse_space(a), identify.parse_space(b))

    return run


class IdentifyWorkload:
    """Symbolic ops; every pass draws fresh expressions.

    The tree shape of slot ``i`` is the same for every seed and pass; the
    exponents and weights come from (seed, pass, slot). No top-level input
    repeats within a run, so a cache of ``normalize`` results can only be
    hit from inside ``includes``.

    The expressions take well under a millisecond each. They run in
    ``CHAINS + 2`` blocks separated by the long queries (the chain queries,
    about 0.3 s each, with the budget-exhausting false query, about 5 s, in
    the middle), so each pass times them at many moments instead of within
    a few milliseconds: the machine's speed changes from one fraction of a
    second to the next, and ops timed all at once would share one speed.
    """

    name = "identify"
    EXPRESSIONS = 120
    EMBEDDINGS = 12
    CHAINS = 8

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._seen = set()
        self._passes = {}
        rng = np.random.default_rng([self.seed, 1])
        finite = [_num(p) for p in _EXPONENTS]
        self._false_pairs = [(p, q) for p in finite for q in finite if p != q]
        rng.shuffle(self._false_pairs)
        self.ops(0)  # the first pass's inputs are part of set-up

    def _fresh(self, make, slot, pass_index):
        par = np.random.default_rng([self.seed, pass_index, slot])
        for _ in range(1000):
            out = make(np.random.default_rng([7, slot]), par)
            if out not in self._seen:
                self._seen.add(out)
                return out
        raise RuntimeError(f"slot {slot} ran out of distinct inputs")

    def ops(self, pass_index: int) -> list:
        if pass_index not in self._passes:
            self._passes[pass_index] = self._make_ops(pass_index)
        return self._passes[pass_index]

    def _make_ops(self, pass_index: int) -> list:
        long_ops = []
        for k in range(self.CHAINS):
            a, b = self._fresh(embedding_chain, 2000 + k, pass_index)
            long_ops.append((f"includes.chain[{k}]", _includes_op(a, b)))
        p, q = self._false_pairs[pass_index % len(self._false_pairs)]
        long_ops.insert(len(long_ops) // 2, ("includes.false", _includes_op(f"L{p}", f"L{q}")))
        block = -(-self.EXPRESSIONS // (len(long_ops) + 1))
        ops = []
        for i in range(self.EXPRESSIONS):
            depth = 1 + i % 3
            text = self._fresh(lambda s, p: random_expression(s, p, depth), i, pass_index)
            ops.append((f"expr[{i:03d}]", _expression_op(text)))
            if i % block == block - 1 and long_ops:
                ops.append(long_ops.pop(0))
        for i in range(self.EMBEDDINGS):
            a, b = self._fresh(embedding_pair, 1000 + i, pass_index)
            ops.append((f"includes.step[{i:02d}]", _includes_op(a, b)))
        for text in FLINF_OPS:
            ops.append((FLINF_PREFIX + text, _expression_op(text)))
        return ops


# ---------------------------------------------------------------------------
# norm-eval workload


#: local exponents without a numpy fast path for ``x**p``, so that a slot
#: costs about the same whatever exponent the seed draws
_SLOW_POWERS = (1.25, 1.5, 2.5, 3, 4, 6)


def norm_eval_expressions(par) -> list:
    """(slot, expression) pairs evaluated on every 1-D function and the
    smaller 2-D function. Slots ``amalgam.L2``/``amalgam.FL2`` share their
    global part, for the Plancherel check."""
    w = lambda: _weight(par)  # noqa: E731
    pick = lambda pool: _num(pool[par.integers(len(pool))])  # noqa: E731
    glob = f"l{pick((1, 2, 4))}{w()}"
    return [
        ("atom.L2", "L2"),
        ("atom.Lp", f"L{pick(_SLOW_POWERS)}{w()}"),
        ("atom.Linf", f"Linf{w()}"),
        ("atom.Linf0", f"Linf0{w()}"),
        ("atom.C0", f"C0{w()}"),
        ("atom.FLp", f"FL{pick(_SLOW_POWERS)}{w()}"),
        ("amalgam.L2", f"W(L2, {glob})"),
        ("amalgam.FL2", f"W(FL2, {glob})"),
        ("amalgam.Lp", f"W(L{pick(_SLOW_POWERS)}, l{pick((1, 2, 4))}{w()})"),
        ("amalgam.FLp", f"W(FL{pick(_SLOW_POWERS)}, l2{w()})"),
        ("amalgam.C0", f"W(C0{w()}, linf0)"),
        ("amalgam.linf0", f"W(L2, linf0{w()})"),
        ("M", f"M{pick((1, 2, 4))},{pick((1, 2, 4))}[{pick(_WEIGHTS)},{pick(_WEIGHTS)}]"),
        ("Q", f"Q{pick((0.5, 1, 1.5))}"),
        ("Mod.c61a", f"Mod((L1 opi L{pick((1, 1.25, 1.5, 2))}))"),
        ("F.M", f"F(M{pick((1, 2, 4))},1[{pick(_WEIGHTS)},{pick(_WEIGHTS)}])"),
        ("Mod.c61b", f"Mod((C0 oeps L{pick((2, 3, 4, 6))}))"),
        ("Mod.t42", f"Mod((W(L2, l2) opi F(W(L2, l2{w()}))))"),
    ]


#: slots also evaluated on the 2-D N=48 function (d=2 STFT and K^2 windows)
LARGE_2D_SLOTS = ("atom.L2", "amalgam.L2", "amalgam.FL2", "M")
GRID_2D = ((4.0, 32), (4.0, 48))


class NormEvalWorkload:
    """(expression, function) pairs through parse -> eval_space_norm.

    Functions: four seeded members of the standard family on the default
    1-D grid and seeded ``random_smooth`` functions on the 2-D grids
    (L=4, N=32) and (L=4, N=48). The pairs are the same in every pass.
    """

    name = "norm-eval"

    def __init__(self, seed: int):
        self.seed = int(seed)
        rng = np.random.default_rng([self.seed, 2])
        grid1 = GridSpec(1, *GRID_DEFAULT)
        family = test_family(grid1, seed=suite_seed(seed))
        picks = sorted(rng.choice(len(family), size=4, replace=False))
        self.functions = {family[i][0]: family[i][1] for i in picks}
        for k, (L, n) in enumerate(GRID_2D):
            self.functions[f"rs2d_N{n}"] = random_smooth(GridSpec(2, L, n), suite_seed(seed, 1 + k))
        self.expressions = dict(norm_eval_expressions(rng))
        self.pairs = []
        for fname in self.functions:
            for slot, text in self.expressions.items():
                if fname.endswith("N48") and slot not in LARGE_2D_SLOTS:
                    continue
                self.pairs.append((fname, slot))
        self._ops = [
            (f"{slot}|{fname}", self._op(self.expressions[slot], self.functions[fname]))
            for fname, slot in self.pairs
        ]

    @staticmethod
    def _op(text: str, f):
        def run():
            res, _, _ = evaluate.eval_space_norm(identify.parse_space(text), f)
            return res.value

        return run

    def ops(self, pass_index: int) -> list:
        return self._ops


def build(name: str, seed: int):
    """The workload's inputs; everything the first op needs is made here."""
    if name == "verify-tensor":
        return VerifyWorkload(name, verify_tensor_specs(seed))
    if name == "identify":
        return IdentifyWorkload(seed)
    if name == "norm-eval":
        return NormEvalWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
