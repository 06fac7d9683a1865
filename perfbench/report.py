"""Run the benchmark over several seeds and print the README tables.

    python3 perfbench/report.py

Runs ``run.py`` once per (workload, seed) for seeds 1-10 and every workload
of BENCHMARK.json, one process at a time, with its run length. For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(n=4)``) and the spread
(Q3 - Q1) / median next to the metric's bound. Then it makes one traced run
per workload and prints every per-layer metric and the tracing overhead.
Every run's result is also written to ``perfbench/out/report.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["summary"] = lines[-2] if len(lines) > 1 else ""
    return result


def spread_table(bench: dict, runs: dict) -> list:
    out = ["| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median | bound |",
           "|---|---|---|---|---|---|---|"]
    for workload, results in runs.items():
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            out.append(f"| {workload} | {m['name']} ({m['unit']}) | {statistics.median(values):.4g} "
                       f"| {q1:.4g} | {q3:.4g} | {(q3 - q1) / statistics.median(values):.3f} | {m['bound']} |")
    return out


def layer_table(bench: dict, traced: dict) -> list:
    names = list(traced)
    out = ["| metric | unit | " + " | ".join(names) + " |", "|---|---|" + "---|" * len(names)]
    for m in bench["per_layer"]:
        cells = [f"{traced[w]['metrics'][m['name']]['value']:.4g}" for w in names]
        out.append(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    runs, traced, facts = {}, {}, {}
    for w in names:
        runs[w] = []
        for seed in SEEDS:
            r = run_once(w, seed, seconds, 0)
            print(f"{w} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
            runs[w].append(r)
        facts[w] = runs[w][0]["summary"]
    for w in names:
        traced[w] = run_once(w, SEEDS[0], seconds, 1)
        print(f"{w} traced: overhead {traced[w]['metrics']['trace.overhead_s']['value']:.3f} s", flush=True)

    print()
    for w in names:
        shares = {r["failed"] / r["attempted"] for r in runs[w]}
        print(f"- {w}: {facts[w]}; failed/attempted = {sorted(shares)}")
    print()
    print("\n".join(spread_table(bench, runs)))
    print()
    print("\n".join(layer_table(bench, traced)))
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "report.json").write_text(json.dumps({"runs": runs, "traced": traced}, indent=1) + "\n")
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
