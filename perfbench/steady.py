"""Steadiness check: run each workload several times and compare the
spread of every end-to-end metric with its bound.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workload proof-roundtrip

Run i uses seed i (from 1) and the run length ``run_seconds`` of
``BENCHMARK.json``.  For each metric the table gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median next to the metric's bound.  A spread at or above its
bound, or a third of it, is marked.  Exits 1 if a run fails or reports
wrong outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Spread of the end-to-end metrics over seeds.")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(1, args.runs + 1):
            result = _run(workload, seed, spec["run_seconds"])
            results.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        wrong = sum(not r["correct"] for r in results)
        ok = ok and not wrong
        print(f"\n{workload}: {args.runs} runs, failed share {shares}, runs with wrong outputs {wrong}")
        print(f"{'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            q1, med, q3, spread = _spread([r["metrics"][m["name"]]["value"] for r in results])
            mark = ""
            if spread >= m["bound"]:
                mark = "  <-- above the bound"
            elif spread >= m["bound"] / 3:
                mark = "  <-- above bound/3"
            print(f"{m['name']:16} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {m['bound']:6.2f}{mark}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
