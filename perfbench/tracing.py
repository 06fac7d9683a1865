"""Outside-in layer trace of ``tfnorm``.

While installed, the tracer replaces the layer functions listed in
``LAYERS`` with wrappers, both in the module that defines each function and
in every ``tfnorm`` module that imported it by name. Each wrapped call
records a span (layer, start, end, parent span); recursive calls within one
layer are not new spans. A layer's self time is its spans' time minus the
time of their child spans. ``COUNTERS`` are hooks that count work without a
span. Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# layer -> [(defining module, attribute)]; a dotted attribute is a method
LAYERS = {
    "tensor.dual_samples": [("tfnorm.tensor", "make_dual_samples"), ("tfnorm.tensor", "aligned_dual_sample")],
    "tensor.eps": [("tfnorm.tensor", "eps_lower_bound")],
    "tensor.decompose": [("tfnorm.tensor", "decompose_splitting"), ("tfnorm.tensor", "decompose_mollified")],
    "tensor.pi": [("tfnorm.tensor", "pi_upper_bound")],
    "norms.amalgam": [("tfnorm.norms", "amalgam_norm_discrete")],
    "norms.amalgam_cont": [("tfnorm.norms", "amalgam_norm_continuous")],
    "norms.local": [("tfnorm.norms", "local_norm")],
    "norms.lp": [("tfnorm.norms", "lp_norm")],
    "norms.mixed": [("tfnorm.norms", "mixed_norm")],
    "bupu.partitions": [("tfnorm.bupu", "make_integer_bupu")],
    "grid.pair": [("tfnorm.grid", "SampledFunction.pair")],
    "transforms.fourier": [("tfnorm.transforms", "fourier"), ("tfnorm.transforms", "inverse_fourier")],
    "transforms.convolve": [("tfnorm.transforms", "convolve")],
    "stft.stft": [("tfnorm.stft", "stft")],
    "family": [("tfnorm.family", "test_family")],
    "harness.suite": [("tfnorm.harness", "run_verification")],
    "identify.parse": [("tfnorm.identify.parser", "parse_space")],
    "identify.normalize": [("tfnorm.identify.engine", "normalize")],
    "identify.includes": [("tfnorm.identify.engine", "includes")],
    "identify.render": [("tfnorm.identify.ast", "render")],
    "evaluate.eval": [("tfnorm.evaluate", "eval_space_norm")],
}

# counter -> (defining module, attribute)
COUNTERS = {
    "bupu.window": ("tfnorm.bupu", "Bupu.window"),
    "grid.functions": ("tfnorm.grid", "SampledFunction.__init__"),
}

#: metrics whose name is not "<layer>.calls"
_CALLS_ALIASES = {"family.calls": "family.builds", "bupu.partitions.calls": "bupu.partitions"}


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans and counters of the layer functions, kept in memory."""

    def __init__(self):
        self.layer_names = list(LAYERS)
        self._starts = array("d")
        self._ends = array("d")
        self._layers = array("i")
        self._parents = array("i")
        self._stack = []  # [span index, layer index, child seconds]
        self.begin_pass()

    # -- recording ---------------------------------------------------------

    def begin_pass(self):
        # repeats are counted within one pass, so the ratio does not depend
        # on how many traced passes fit into the run
        self._seen_normalize = set()
        self.calls = [0] * len(self.layer_names)
        self.self_s = [0.0] * len(self.layer_names)
        self.counts = dict.fromkeys(
            ("tensor.dual_samples.count", "tensor.eps.pairings", "tensor.decompose.terms",
             "bupu.window.calls", "grid.functions", "grid.bytes_copied", "stft.tf_bytes",
             "identify.normalize.steps", "identify.normalize.repeats",
             "identify.includes.no_evidence"), 0)

    def _span(self, layer: int, fn, after=None):
        stack, starts, ends = self._stack, self._starts, self._ends

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == layer:  # recursion inside one layer
                return fn(*args, **kwargs)
            index = len(starts)
            self._parents.append(stack[-1][0] if stack else -1)
            self._layers.append(layer)
            frame = [index, layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            starts.append(t0)
            ends.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                ends[index] = t1
                duration = t1 - t0
                self.calls[layer] += 1
                self.self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _after(self, layer: str):
        def dual_samples(args, kwargs, out):
            self.counts["tensor.dual_samples.count"] += len(out) if isinstance(out, list) else 1

        def eps(args, kwargs, out):
            t, duals = args[0], args[1]
            self.counts["tensor.eps.pairings"] += t.rank * len(duals)

        def decompose(args, kwargs, out):
            self.counts["tensor.decompose.terms"] += out[0].rank

        def stft(args, kwargs, out):
            self.counts["stft.tf_bytes"] += out.values.nbytes

        def normalize(args, kwargs, out):
            self.counts["identify.normalize.steps"] += len(out[1])
            key = args[0]
            self.counts["identify.normalize.repeats"] += key in self._seen_normalize
            self._seen_normalize.add(key)

        def includes(args, kwargs, out):
            self.counts["identify.includes.no_evidence"] += not out.established

        return {"tensor.dual_samples": dual_samples, "tensor.eps": eps,
                "tensor.decompose": decompose, "stft.stft": stft,
                "identify.normalize": normalize, "identify.includes": includes}.get(layer)

    def _counter(self, name: str, fn):
        if name == "grid.functions":
            @functools.wraps(fn)
            def wrapper(obj, grid, values):
                self.counts["grid.functions"] += 1
                self.counts["grid.bytes_copied"] += grid.size * 16  # complex128 copy
                return fn(obj, grid, values)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Swap every binding of a layer function for its wrapper."""
        replaced = []  # (owner, attribute, original)
        wrappers = {}
        for i, name in enumerate(self.layer_names):
            for module, attr in LAYERS[name]:
                owner, key = _resolve(module, attr)
                original = getattr(owner, key)
                wrappers[id(original)] = (original, self._span(i, original, self._after(name)))
        for name, (module, attr) in COUNTERS.items():
            owner, key = _resolve(module, attr)
            original = getattr(owner, key)
            wrappers[id(original)] = (original, self._counter(name, original))
        owners = [m for n, m in list(sys.modules.items()) if n == "tfnorm" or n.startswith("tfnorm.")]
        owners += [_resolve("tfnorm.grid", "SampledFunction.pair")[0],
                   _resolve("tfnorm.bupu", "Bupu.window")[0]]
        try:
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(owner, key, hit[1])
                        replaced.append((owner, key, value))
            yield self
        finally:
            for owner, key, value in reversed(replaced):
                setattr(owner, key, value)

    # -- results -----------------------------------------------------------

    def end_pass(self) -> dict:
        """Per-layer values of the pass just recorded, by metric name."""
        out = {}
        for i, name in enumerate(self.layer_names):
            calls = name + ".calls"
            out[_CALLS_ALIASES.get(calls, calls)] = self.calls[i]
            out[name + ".self_s"] = self.self_s[i]
        counts = dict(self.counts)
        repeats = counts.pop("identify.normalize.repeats")
        out.update(counts)
        normalize_calls = out["identify.normalize.calls"]
        out["identify.normalize.repeat_ratio"] = repeats / normalize_calls if normalize_calls else 0.0
        return out

    def save(self, path: Path):
        """Write the spans (start, end, layer, parent) for offline analysis."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, start=np.frombuffer(self._starts, dtype=float),
                 end=np.frombuffer(self._ends, dtype=float),
                 layer=np.frombuffer(self._layers, dtype=np.int32),
                 parent=np.frombuffer(self._parents, dtype=np.int32),
                 layer_names=np.array(self.layer_names))


def layer_metrics(passes: list) -> dict:
    """Median over traced passes of every per-layer value."""
    return {n: float(np.median([p[n] for p in passes])) for n in passes[0]}
