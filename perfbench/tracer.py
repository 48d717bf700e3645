"""Spans around the program's cross-module calls, for the traced run.

Each target below is a name that one module of the program looks up in
its own namespace at call time: a function it imported from another
module, one of the solver's own pipeline stages, or a public function
the benchmark itself calls through its defining module.  While tracing
is on, that name is replaced by a wrapper that records a span (name,
start, end, parent) and, for a few calls, a counter taken from the
arguments' result.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

# (module, attribute, span name)
TARGETS = (
    ("cli", "_cmd_solve", "cli.solve"),
    ("cli", "_cmd_check", "cli.check"),
    ("cli", "parse_problem", "problem_io.parse_problem"),
    ("cli", "print_proof", "problem_io.print_proof"),
    ("cli", "parse_proof", "problem_io.parse_proof"),
    ("cli", "check_proof", "calculus.check_proof"),
    ("cli", "introduce_cut", "solver.introduce_cut"),
    ("problem_io", "validate", "grammar.validate"),
    ("problem_io", "print_proof", "problem_io.print_proof"),
    ("problem_io", "parse_proof", "problem_io.parse_proof"),
    ("benchmark", "generate_sn", "benchmark.generate_sn"),
    ("benchmark", "minimal_cutfree_instances", "benchmark.minimal_cutfree_instances"),
    ("solver", "introduce_cut", "solver.introduce_cut"),
    ("solver", "partitioned_dnta", "solver.partitioned_dnta"),
    ("solver", "gstar_pool", "solver.gstar_pool"),
    ("solver", "naive_pool", "solver.naive_pool"),
    ("solver", "verify_solution", "solver.verify_solution"),
    ("solver", "is_balanced", "solver.is_balanced"),
    ("solver", "validate", "grammar.validate"),
    ("solver", "covers", "grammar.covers"),
    ("solver", "unifiable_pair", "grammar.unifiable_pair"),
    ("solver", "maximal_derivation", "calculus.maximal_derivation"),
    ("solver", "non_tautological_leaves", "calculus.non_tautological_leaves"),
    ("solver", "is_tautology", "calculus.is_tautology"),
    ("solver", "tagged_leaves", "calculus.tagged_leaves"),
    ("solver", "proof_from_eh", "herbrand.proof_from_eh"),
    ("herbrand", "validate", "grammar.validate"),
    ("herbrand", "is_tautology", "calculus.is_tautology"),
    ("herbrand", "prop_proof", "calculus.prop_proof"),
    ("herbrand", "check_proof", "calculus.check_proof"),
    ("herbrand", "proof_from_eh", "herbrand.proof_from_eh"),
    ("herbrand", "proof_from_herbrand", "herbrand.proof_from_herbrand"),
    ("calculus", "check_proof", "calculus.check_proof"),
)


def _search_stats(counts: Counter, result, exc) -> None:
    stats = getattr(exc if result is None else result, "stats", None)
    if stats is None:
        return
    counts["solver.pool_size"] += stats.pool_size
    counts["solver.candidates"] += stats.candidates
    counts["solver.cl_passed"] += stats.cl_passed
    counts["solver.sol_passed"] += stats.sol_passed


def _leaf_count(counts: Counter, result, exc) -> None:
    if result is not None:
        counts["calculus.leaves"] += len(result)


def _useful_pair(counts: Counter, result, exc) -> None:
    if result:
        counts["grammar.unifiable_pair_useful"] += 1


def _proof_bytes(counts: Counter, result, exc) -> None:
    if result is not None:
        counts["problem_io.proof_bytes"] += len(result.encode("utf-8"))


OBSERVERS = {
    "solver.introduce_cut": _search_stats,
    "calculus.non_tautological_leaves": _leaf_count,
    "grammar.unifiable_pair": _useful_pair,
    "problem_io.print_proof": _proof_bytes,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(f"pi2cut.{mod_name}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so time the consumer spends between
            # items is not charged to the generator.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            return gen_wrapper

        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(idx)
                if observe is not None:
                    observe(self.counts, None, exc)
                raise
            self._close(idx)
            if observe is not None:
                observe(self.counts, result, None)
            return result

        return wrapper

    def mark(self) -> tuple[int, Counter, Counter]:
        """A point to aggregate from: spans and counters recorded later."""
        return len(self.spans), Counter(self.calls), Counter(self.counts)

    def layers(self, since: tuple[int, Counter, Counter]) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time (total minus the
        time covered by direct child spans), over spans after `since`."""
        first, calls0, _ = since
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        out: dict[str, dict[str, float]] = {}
        for name, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "spans": 0})
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            row["spans"] += 1
        for name, row in out.items():
            row["calls"] = self.calls[name] - calls0[name]
        return out

    def counters(self, since: tuple[int, Counter, Counter]) -> Counter:
        out = Counter(self.counts)
        out.subtract(since[2])
        return out


PROBE_CALLS = 20_000
PROBE_REPEATS = 5


def span_cost() -> float:
    """Seconds one span adds to a call: a no-op function called through a
    tracer's wrapper against the bare function, fastest of PROBE_REPEATS
    timings of PROBE_CALLS calls each."""
    probe = Tracer()

    def noop() -> None:
        return None

    def fastest(fn) -> float:
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            probe.spans.clear()
            start = perf_counter()
            for _ in range(PROBE_CALLS):
                fn()
            best = min(best, perf_counter() - start)
        return best

    return (fastest(probe._wrap(noop, "probe")) - fastest(noop)) / PROBE_CALLS
