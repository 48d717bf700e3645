"""Benchmark command: one workload of pi2cut, measured for a fixed time.

    python3 perfbench/run.py --workload sn-gstar --seed 1 --seconds 30 --trace 0

The workload runs in a worker process of its own (``worker.py``), which
builds nothing: it imports the package from ``src`` of the checkout it
sits in.  With ``--trace 0`` set-up is also measured in SETUP_RUNS - 1
further fresh processes, and ``setup_s`` is the median over all of them.
Prints one line per metric, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric
names and units are those of ``BENCHMARK.json``: its end-to-end metrics
untraced, its per-layer metrics traced.
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
SETUP_RUNS = 7
# Time a worker may take past --seconds: its set-up, and the passes it
# must finish whatever the run length (two, or one when traced).
MARGIN_S = 120


class BenchError(Exception):
    pass


def _worker(flags: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s: {' '.join(flags)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(flags)}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {workload!r}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    flags = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(_worker(flags + ["--setup-only"], 60)["setup_s"])
    out = _worker(flags, seconds + MARGIN_S)
    measured = out["metrics"]
    if not trace:
        setups.append(measured["setup_s"])
        measured["setup_s"] = statistics.median(setups)
    lines = [f"workload {workload}  seed {seed}  passes {out['passes']}  "
             f"operations {out['attempted']} ({out['ops_per_pass']} per pass)"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"worker did not report {', '.join(missing)}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    lines += out["notes"]
    lines += ["slowest operation " + s for s in out["slowest"]]
    lines += out.get("table", [])
    lines += [f"{name:42} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one pi2cut benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
