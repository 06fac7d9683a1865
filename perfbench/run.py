"""tfnorm benchmark: one workload, one process, one caller in a closed loop.

    python3 perfbench/run.py --workload verify-tensor --seed 1 --seconds 36 --trace 0

The run builds the workload's inputs from ``--seed``, then executes the
workload's ops in whole passes for about ``--seconds`` (it ends at the pass
end nearest to that time, after at least ``MIN_PASSES`` passes), timing
every op on every pass. After the passes it checks the outputs and prints,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the ``end_to_end`` ones of
``BENCHMARK.json`` (``setup_s``, ``pass_s``, ``op_p50_ms``, ``op_max_ms``,
``peak_rss_mb``). With ``--trace 1`` untraced and traced passes alternate and
the metrics are its ``per_layer`` ones, recorded by :mod:`tracing`, with
``trace.overhead_s``. Names and units are read from ``BENCHMARK.json``.

Numeric-library threads are capped at the number of usable cores. The
package is imported from ``src/`` next to this directory; without it the run
exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 3
MIN_TRACE_PASSES = 2
SETUP_PROBES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def median(values) -> float:
    """Median of a non-empty sequence (mean of the middle two when even)."""
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def op_latencies(times_by_op: dict) -> dict:
    """Per-op latency: the median of the op's times across passes.

    ``times_by_op`` maps an op name to its times, one per pass, with ``None``
    for a pass where the op failed. An op that failed on any pass has no
    latency.
    """
    return {
        name: median(ts)
        for name, ts in times_by_op.items()
        if ts and all(t is not None for t in ts)
    }


def end_to_end(setup_times: list, pass_times: list, latencies: dict, peak_rss_mb: float) -> dict:
    """The five end-to-end values from one untraced run, by metric name."""
    ms = latencies.values()
    return {
        "setup_s": median(setup_times),
        "pass_s": median(pass_times),
        "op_p50_ms": median(ms) * 1e3,
        "op_max_ms": max(ms) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def with_units(values: dict, metrics: list) -> dict:
    """``{name: {"value", "unit"}}`` for every metric that BENCHMARK.json
    lists; a listed metric without a value raises ``KeyError``."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def cap_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def import_workloads():
    """Import the package from ``src/`` of this checkout, never another copy."""
    if not (SRC / "tfnorm" / "__init__.py").is_file():
        raise ImportError(f"package source not found at {SRC / 'tfnorm'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tfnorm

    if Path(tfnorm.__file__).resolve().parent != SRC / "tfnorm":
        raise ImportError(f"imported tfnorm from {tfnorm.__file__}, not from {SRC}")
    import workloads

    return workloads


def probe_setup(workload: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter until the workload's
    inputs are built and its first op could run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: set-up probe failed (exit {code})")
    return elapsed


def stop_now(elapsed: float, passes: int, seconds: float) -> bool:
    """Stop at the end of the pass nearest to ``seconds``: another pass of
    the mean length so far would end further past it than now falls short."""
    return elapsed + 0.5 * elapsed / passes >= seconds


def run_pass(ops: list) -> tuple:
    """Time every op once; returns (pass seconds, {op: seconds or None}, {op: output})."""
    times, outputs = {}, {}
    t_pass = time.perf_counter()
    for name, thunk in ops:
        t0 = time.perf_counter()
        try:
            out = thunk()
        except Exception as exc:  # a failed op is counted, never fatal
            times[name] = None
            outputs[name] = exc
        else:
            times[name] = time.perf_counter() - t0
            outputs[name] = out
    return time.perf_counter() - t_pass, times, outputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    nproc = cap_threads()
    try:
        workloads = import_workloads()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe_setup:
        workloads.build(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    probes = 0 if args.trace else SETUP_PROBES
    setup_times = [probe_setup(args.workload, args.seed) for _ in range(probes)]
    wl = workloads.build(args.workload, args.seed)

    import checks
    import tracing

    tracer = tracing.Tracer() if args.trace else None
    pass_times, traced_pass_times, layer_passes = [], [], []
    times_by_op: dict = {}
    outputs_by_pass = []
    attempted = failed = 0
    t_start = time.perf_counter()
    j = 0
    while True:
        ops = wl.ops(j)
        traced = tracer is not None and j % 2 == 1
        if traced:
            tracer.begin_pass()
            with tracer.installed():
                seconds, times, outputs = run_pass(ops)
            layer_passes.append(tracer.end_pass())
            traced_pass_times.append(seconds)
        else:
            seconds, times, outputs = run_pass(ops)
            pass_times.append(seconds)
            for name, t in times.items():
                times_by_op.setdefault(name, []).append(t)
        attempted += len(times)
        failed += sum(t is None for t in times.values())
        outputs_by_pass.append(outputs)
        j += 1
        enough = MIN_TRACE_PASSES if tracer is not None else MIN_PASSES
        if j >= enough and stop_now(time.perf_counter() - t_start, j, args.seconds):
            break

    problems = checks.check(wl, outputs_by_pass)
    latencies = op_latencies(times_by_op)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if tracer is not None:
        values = tracing.layer_metrics(layer_passes)
        values["trace.overhead_s"] = median(traced_pass_times) - median(pass_times)
        metrics = with_units(values, bench["per_layer"])
        tracer.save(OUT / f"trace-{args.workload}.npz")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = end_to_end(setup_times, pass_times, latencies, rss_mb)
        metrics = with_units(values, bench["end_to_end"])

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    slowest = max(latencies, key=latencies.get)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} nproc={nproc} "
          f"passes={j} distinct_ops={len(ops)} ops_with_latency={len(latencies)} "
          f"slowest_op={slowest}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, passes=j, nproc=nproc,
                  setup_times_s=setup_times, pass_times_s=pass_times,
                  traced_pass_times_s=traced_pass_times, op_latency_s=latencies,
                  problems=problems)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
