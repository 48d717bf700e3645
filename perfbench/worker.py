"""One workload in one single-threaded process.

Set-up (importing the program and making the workload's inputs) is
timed first; then the inputs are confirmed, and passes over the workload
run until the next one would end past ``--seconds``.  Untraced, the run
reports the end-to-end metrics.  Traced, every pass is traced and the
run reports the per-layer metrics; the tracing overhead is the spans of
one pass times the cost of one span, measured in the same process.
Untraced, every time is scaled to a fixed machine speed (``speed.py``);
traced, times are as measured.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    try:
        import pi2cut
    except ImportError as e:
        raise SystemExit(f"cannot import pi2cut from {SRC}: {e}")
    if Path(pi2cut.__file__).resolve().parent != SRC / "pi2cut":
        raise SystemExit(f"pi2cut was imported from {pi2cut.__file__}, not from {SRC}")


def _layer_metrics(tracer, since, setup_rows, passes: int) -> dict[str, float]:
    rows = tracer.layers(since)
    counts = tracer.counters(since)

    def per_pass(name: str, field: str) -> float:
        return rows.get(name, {}).get(field, 0) / passes

    def setup_total(name: str) -> float:
        return setup_rows.get(name, {}).get("total_s", 0.0)

    calls = lambda name: per_pass(name, "calls")
    total = lambda name: per_pass(name, "total_s")
    candidates = counts["solver.candidates"]
    pair_calls = rows.get("grammar.unifiable_pair", {}).get("calls", 0)
    return {
        "cli.solve_s": total("cli.solve"),
        "cli.check_s": total("cli.check"),
        "problem_io.parse_problem_s": total("problem_io.parse_problem"),
        "problem_io.print_proof_s": total("problem_io.print_proof"),
        "problem_io.parse_proof_s": total("problem_io.parse_proof"),
        "problem_io.proof_bytes": counts["problem_io.proof_bytes"] / passes,
        "benchmark.generate_sn_s": setup_total("benchmark.generate_sn"),
        "benchmark.minimal_cutfree_instances_s": setup_total("benchmark.minimal_cutfree_instances"),
        "solver.introduce_cut_s": total("solver.introduce_cut"),
        "solver.self_s": per_pass("solver.introduce_cut", "self_s"),
        "solver.partitioned_dnta_s": total("solver.partitioned_dnta"),
        "solver.partitioned_dnta_calls": calls("solver.partitioned_dnta"),
        "solver.gstar_pool_s": total("solver.gstar_pool"),
        "solver.naive_pool_s": total("solver.naive_pool"),
        "solver.verify_solution_s": total("solver.verify_solution"),
        "solver.is_balanced_s": total("solver.is_balanced"),
        "solver.pool_size": counts["solver.pool_size"] / passes,
        "solver.candidates": candidates / passes,
        "solver.cl_passed": counts["solver.cl_passed"] / passes,
        "solver.sol_passed": counts["solver.sol_passed"] / passes,
        "solver.cl_pass_ratio": counts["solver.cl_passed"] / candidates if candidates else 0.0,
        "grammar.validate_s": total("grammar.validate"),
        "grammar.covers_s": total("grammar.covers"),
        "grammar.unifiable_pair_s": total("grammar.unifiable_pair"),
        "grammar.unifiable_pair_calls": calls("grammar.unifiable_pair"),
        "grammar.unifiable_pair_useful_ratio": (
            counts["grammar.unifiable_pair_useful"] / pair_calls if pair_calls else 0.0
        ),
        "calculus.maximal_derivation_s": total("calculus.maximal_derivation"),
        "calculus.leaves": counts["calculus.leaves"] / passes,
        "calculus.is_tautology_s": total("calculus.is_tautology"),
        "calculus.is_tautology_calls": calls("calculus.is_tautology"),
        "calculus.tagged_leaves_s": total("calculus.tagged_leaves"),
        "calculus.prop_proof_s": total("calculus.prop_proof"),
        "calculus.check_proof_s": total("calculus.check_proof"),
        "herbrand.proof_from_eh_s": total("herbrand.proof_from_eh"),
        "herbrand.proof_from_herbrand_s": total("herbrand.proof_from_herbrand"),
        "trace.spans": sum(r["spans"] for r in rows.values()) / passes,
    }


def _layer_table(rows: dict, passes: int) -> list[str]:
    lines = [f"{'span':42} {'calls':>10} {'total_s':>10} {'self_s':>10}   (per pass)"]
    for name in sorted(rows):
        r = rows[name]
        lines.append(
            f"{name:42} {r['calls'] / passes:10.1f} {r['total_s'] / passes:10.4f} {r['self_s'] / passes:10.4f}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    speed = None if args.trace else Speed()
    if speed:
        speed.start()
    try:
        return _run(args, speed)
    finally:
        if speed:
            speed.stop()


def _run(args: argparse.Namespace, speed: Speed | None) -> int:
    start = perf_counter()
    _import_program()
    import workloads
    from tracer import Tracer, span_cost

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        origin = tracer.mark()
        tracer.install()
    wl.setup(ROOT)
    setup_s = perf_counter() - start
    if speed:
        setup_s = speed.scaled(setup_s, 0, speed.mark())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_rows = {}
    if tracer is not None:
        tracer.uninstall()
        setup_rows = tracer.layers(origin)
        since = tracer.mark()

    wrong = wl.check_inputs()
    out_dir = ROOT / ".perfbench-out" / f"{args.workload}-{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    wl.out_dir = out_dir

    passes: list = []
    started = perf_counter()
    try:
        while True:
            gc.collect()
            p = workloads.Pass(speed)
            if tracer is not None:
                tracer.install()
            try:
                wl.run_pass(p)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            passes.append(p)
            # Stop before a pass that would end past the run length, once
            # there are two passes to compare (one when traced).
            elapsed = perf_counter() - started
            if len(passes) >= (1 if tracer else 2) and elapsed + elapsed / len(passes) > args.seconds:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for p in passes:
        wrong += p.wrong
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for line in (p_line for p in passes for p_line in p.failures[:5]):
        print(f"failed: {line}", file=sys.stderr)
    for line in wrong[:10]:
        print(f"wrong: {line}", file=sys.stderr)

    last = passes[-1]
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "passes": len(passes),
        "ops_per_pass": wl.ops_per_pass,
        "notes": wl.notes() + ([speed.summary()] if speed else []),
        "slowest": [
            f"{what}: {t:.4f} s"
            for what, t in sorted(workloads.fastest_times(passes).items(), key=lambda kv: -kv[1])[:5]
        ],
    }
    if tracer is None:
        result["metrics"] = {
            "setup_s": setup_s,
            "wall_s": workloads.pass_time(passes),
            "check_s": workloads.pass_time(passes, checks_only=True),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "proof_q": last.proof_q,
            "proof_symbols": last.proof_symbols,
        }
    else:
        metrics = _layer_metrics(tracer, since, setup_rows, len(passes))
        metrics["calculus.proof_nodes"] = last.proof_nodes
        metrics["trace.overhead_s"] = metrics["trace.spans"] * span_cost()
        result["metrics"] = metrics
        result["table"] = _layer_table(tracer.layers(since), len(passes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
