"""The benchmark's three workloads.

Each workload makes its inputs from the seed in ``setup``, confirms them
with checks of its own in ``check_inputs``, and runs one pass at a time
in ``run_pass``.  A pass times only the program's operations (one solve,
one proof build or one proof check each); the checks of their outputs
run between operations, outside the timers.

Program functions that a traced run wraps are called through their
module (``solver.introduce_cut``), so the wrappers see those calls.
The checks use the unwrapped functions imported below, so checking adds
no spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from pi2cut import benchmark, calculus, cli, herbrand, problem_io, solver
from pi2cut.calculus import complexities as _complexities
from pi2cut.problem_io import parse_formula as _parse_formula
from pi2cut.problem_io import parse_proof as _parse_proof
from pi2cut.problem_io import print_proof as _print_proof
from pi2cut.sexpr import parse_all as _parse_sexpr
from pi2cut.syntax import X, Y, App, Atom, Exists, ForAll, Literal, Var

import gen_eh
import truthtable
from speed import Speed

WEAK_RULES = ("forall-l", "exists-r")
FAILED = object()


class Pass:
    """Operation times, operation counts and wrong outputs of one pass.
    With `speed`, each time is scaled to the reference speed."""

    def __init__(self, speed: Speed | None) -> None:
        self.speed = speed
        self.times: dict[str, float] = {}
        self.check_ops: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.proof_q = 0
        self.proof_symbols = 0
        self.proof_nodes = 0

    def op(self, what: str, fn, check: bool = False, repeat: int = 1):
        """Run one operation of the program `repeat` times and keep its
        fastest time; FAILED if it raised, which fails the repeats left."""
        if check:
            self.check_ops.add(what)
        best = float("inf")
        result = FAILED
        for i in range(repeat):
            self.attempted += 1
            first = self.speed.mark() if self.speed else 0
            start = perf_counter()
            try:
                result = fn()
            except Exception as exc:
                self.attempted += repeat - i - 1
                self.failed += repeat - i
                self.failures.append(f"{what}: {exc!r}")
                result = FAILED
                break
            finally:
                elapsed = perf_counter() - start
                if self.speed:
                    elapsed = self.speed.scaled(elapsed, first, self.speed.mark())
                best = min(best, elapsed)
        self.times[what] = best
        return result

    def skip(self, what: str, repeat: int = 1) -> None:
        """An operation that cannot run because the one it needs failed."""
        self.attempted += repeat
        self.failed += repeat
        self.failures.append(f"{what}: skipped")

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(what)

    def add_proof(self, facts: "ProofFacts") -> None:
        self.proof_q += facts.q
        self.proof_symbols += facts.symbols
        self.proof_nodes += facts.nodes


def fastest_times(passes: list[Pass]) -> dict[str, float]:
    """Each operation's fastest time over the passes.  Load from outside
    the process only ever adds time, in bursts that slow one operation in
    one pass; the minimum leaves them out."""
    return {what: min(p.times[what] for p in passes if what in p.times) for what in passes[0].times}


def pass_time(passes: list[Pass], checks_only: bool = False) -> float:
    """Time of one pass: the fastest time of each operation, summed."""
    return sum(
        t for what, t in fastest_times(passes).items()
        if not checks_only or what in passes[0].check_ops
    )


@dataclass(frozen=True)
class ProofFacts:
    text: str
    q: int  # weak quantifier inferences, counted here from the rule labels
    cuts: int
    nodes: int
    symbols: int  # the program's symbol complexity
    prints_back: bool  # re-parsed proof prints to the same text


class ProofLedger:
    """Facts about each emitted proof, worked out the first time it is
    seen.  Later passes must emit the same text, which a string compare
    confirms, so the facts carry over."""

    def __init__(self) -> None:
        self._known: dict[object, ProofFacts] = {}

    def facts(self, p: Pass, key: object, text: str, root=None, sig=None) -> ProofFacts:
        known = self._known.get(key)
        if known is not None:
            p.expect(known.text == text, f"{key}: emitted proof differs from the first pass")
            return known
        if root is None:
            root, sig = _parse_proof(text)
        rules = [n.rule for n in root.nodes()]
        facts = ProofFacts(
            text=text,
            q=sum(r in WEAK_RULES for r in rules),
            cuts=rules.count("cut"),
            nodes=len(rules),
            symbols=_complexities(root).symbols,
            prints_back=_print_proof(root, sig) == text,
        )
        self._known[key] = facts
        return facts

    def get(self, key: object) -> ProofFacts | None:
        return self._known.get(key)


def _reparse_check(text: str):
    root, sig = problem_io.parse_proof(text)
    return root, sig, calculus.check_proof(root)


class Workload:
    """Set-up, input checks and one pass; `out_dir` is a scratch directory
    inside the checkout that the worker empties when the run ends."""

    out_dir: Path

    def setup(self, root: Path) -> None:
        raise NotImplementedError

    def check_inputs(self) -> list[str]:
        return []

    def run_pass(self, p: Pass) -> None:
        raise NotImplementedError

    def notes(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# sn-gstar: the paper's family S_n, solved with the gstar pool


SN_RANGE = range(2, 8)
# The paper's cut: forall x exists y. P(x, f y).
SN_SOLUTION = frozenset({frozenset({Literal(True, Atom("P", (Var(X), App("f", (Var(Y),)))))})})


class SnGstar(Workload):
    """S_n for n = 2..7, each solved, emitted, re-read and checked.  The
    seed fixes only the order in which the instances are solved."""

    ops_per_pass = 2 * len(SN_RANGE)

    def __init__(self, seed: int) -> None:
        self.order = list(SN_RANGE)
        random.Random(seed).shuffle(self.order)
        self.ledger = ProofLedger()

    def setup(self, root: Path) -> None:
        self.instances = {n: benchmark.generate_sn(n) for n in self.order}
        self.options = solver.SolverOptions(pool="gstar")

    def run_pass(self, p: Pass) -> None:
        for n in self.order:
            sn = self.instances[n]

            def solve_emit():
                report = solver.introduce_cut(sn.problem, sn.grammar, self.options)
                return report, problem_io.print_proof(report.proof, sn.problem.signature)

            out = p.op(f"solve S_{n}", solve_emit)
            if out is FAILED:
                p.skip(f"check S_{n}")
                continue
            report, text = out
            p.expect(report.solutions == (SN_SOLUTION,), f"S_{n}: solution is not {{{{P(x, f y)}}}}")
            checked = p.op(f"check S_{n}", lambda: _reparse_check(text), check=True)
            if checked is FAILED:
                continue
            root, parsed_sig, verdict = checked
            p.expect(verdict.ok, f"S_{n}: re-read proof fails the checker: {verdict.error}")
            facts = self.ledger.facts(p, n, text, root, parsed_sig)
            p.expect(facts.cuts == 1, f"S_{n}: proof has {facts.cuts} cuts, not 1")
            p.expect(facts.q == 4 * n + 3, f"S_{n}: proof_q {facts.q}, not 4n + 3 = {4 * n + 3}")
            p.add_proof(facts)


# ---------------------------------------------------------------------------
# fixtures-cli: the problem files through the command surface


# Verdict of each fixture as its leading comment states it: the cut
# matrices it names, or None for "no cut matrix over {x, y} works".
FIXTURES = {
    "two_step": ("(P x y)",),
    "swap_pair": ("(P x y)", "(Q x y)"),
    "unbalanced_pair": ("(R (f1 x) y)",),
    "unsolvable_shared_base": None,
    "unsolvable_two_bases": None,
}
POOLS = ("gstar", "naive")
# A check here takes about 5 ms, so a burst of outside load can double
# it; each is timed this many times and the fastest kept.
CHECK_REPEATS = 5


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _rows(text: str) -> dict[str, str]:
    rows = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        rows[key] = value.strip()
    return rows


class FixturesCli(Workload):
    """The five problem files under both pools, through ``pi2cut solve
    --emit-proof --verify --json`` and ``pi2cut check``, in process; each
    emitted proof is checked CHECK_REPEATS times.  The seed fixes only
    the order of the ten solves."""

    ops_per_pass = len(POOLS) * sum(1 + CHECK_REPEATS if v else 1 for v in FIXTURES.values())

    def __init__(self, seed: int) -> None:
        self.order = [(stem, pool) for stem in FIXTURES for pool in POOLS]
        random.Random(seed).shuffle(self.order)
        self.ledger = ProofLedger()

    def setup(self, root: Path) -> None:
        self.files = {stem: root / "problems" / f"{stem}.p2" for stem in FIXTURES}
        self.problems = {
            stem: problem_io.parse_problem(path.read_text(encoding="utf-8"))
            for stem, path in self.files.items()
        }

    def _matrix_valid(self, stem: str, cut_formula: str) -> bool:
        pf = self.problems[stem]
        f = _parse_formula(_parse_sexpr(cut_formula)[0], pf.problem.signature, None)
        if not (isinstance(f, ForAll) and f.var == X and isinstance(f.body, Exists) and f.body.var == Y):
            return False
        left, right = truthtable.extended_sequent(pf.problem, pf.grammar, f.body.body)
        return truthtable.valid(left, right)

    def run_pass(self, p: Pass) -> None:
        for stem, pool in self.order:
            expected = FIXTURES[stem]
            out = self.out_dir / f"{stem}-{pool}.proof"
            out.unlink(missing_ok=True)
            argv = ["solve", str(self.files[stem]), "--pool", pool,
                    "--emit-proof", str(out), "--verify", "--json"]
            solved = p.op(f"solve {stem} {pool}", lambda: _cli(argv))
            if solved is FAILED:
                if expected:
                    p.skip(f"check {stem} {pool}", CHECK_REPEATS)
                continue
            code, stdout = solved
            try:
                report = json.loads(stdout)
            except ValueError:
                report = {}
            where = f"{stem} under {pool}"
            if expected is None:
                p.expect(code == 1, f"{where}: exit {code}, not 1")
                p.expect(report.get("status") == "no-solution", f"{where}: status {report.get('status')}")
                p.expect(report.get("caps-hit") == "false", f"{where}: caps-hit is not false")
                continue
            p.expect(code == 0, f"{where}: exit {code}, not 0")
            cut = report.get("cut-formula", "")
            if cut in {f"(forall x (exists y {m}))" for m in expected}:
                p.expect(self._matrix_valid(stem, cut), f"{where}: matrix of {cut} is not valid")
            else:
                p.expect(False, f"{where}: cut {cut!r} is not one the fixture names")
            checked = p.op(
                f"check {stem} {pool}", lambda: _cli(["check", str(out)]), check=True, repeat=CHECK_REPEATS
            )
            if checked is FAILED:
                continue
            code, stdout = checked
            rows = _rows(stdout)
            p.expect(code == 0 and rows.get("status") == "ok", f"{where}: check exit {code}")
            facts = self.ledger.facts(p, (stem, pool), out.read_text(encoding="utf-8"))
            p.expect(facts.cuts == 1, f"{where}: proof has {facts.cuts} cuts, not 1")
            p.expect(rows.get("proof-q") == str(facts.q), f"{where}: check reports proof-q {rows.get('proof-q')}, counted {facts.q}")
            p.add_proof(facts)


# ---------------------------------------------------------------------------
# proof-roundtrip: proofs built from instance data, printed, re-read, checked


CUTFREE_N = (2, 3)
PLANTED = 400


class ProofRoundtrip(Workload):
    """Cut-free proofs of S_2 and S_3 from their minimal instance sets,
    plus one-cut proofs of PLANTED seeded extended sequents with a
    planted cut matrix; each is built, printed, re-read and checked.  The
    seed draws the extended sequents and the order of all builds."""

    ops_per_pass = 2 * (len(CUTFREE_N) + PLANTED)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ledger = ProofLedger()

    def setup(self, root: Path) -> None:
        self.items: list[tuple[object, object, object]] = []
        self.cutfree: dict[int, tuple[bool, int]] = {}
        for n in CUTFREE_N:
            inst, valid, count = benchmark.minimal_cutfree_instances(n)
            sn = benchmark.generate_sn(n)
            self.cutfree[n] = (valid, count)
            self.items.append((("S", n), (sn.problem, inst), sn.problem.signature))
        for i, eh in enumerate(gen_eh.planted_ehs(self.seed, PLANTED)):
            self.items.append((("eh", i), eh, eh.problem.signature))
        random.Random(self.seed).shuffle(self.items)

    def check_inputs(self) -> list[str]:
        wrong = []
        for n, (valid, _) in self.cutfree.items():
            if not valid:
                wrong.append(f"S_{n}: minimal cut-free instance set is not valid")
        for key, data, _ in self.items:
            if key[0] == "eh":
                left, right = truthtable.extended_sequent(data.problem, data.grammar, data.cut_matrix)
                if not truthtable.valid(left, right):
                    wrong.append(f"planted sequent {key[1]} is not valid")
        return wrong

    def run_pass(self, p: Pass) -> None:
        for key, data, sig in self.items:
            if key[0] == "S":
                build = lambda: herbrand.proof_from_herbrand(*data)
            else:
                build = lambda: herbrand.proof_from_eh(data)
            text = p.op(f"build {key}", lambda: problem_io.print_proof(build(), sig))
            if text is FAILED:
                p.skip(f"check {key}")
                continue
            checked = p.op(f"check {key}", lambda: _reparse_check(text), check=True)
            if checked is FAILED:
                continue
            root, parsed_sig, verdict = checked
            p.expect(verdict.ok, f"{key}: re-read proof fails the checker: {verdict.error}")
            facts = self.ledger.facts(p, key, text, root, parsed_sig)
            del root, checked
            p.expect(facts.prints_back, f"{key}: re-read proof prints to different text")
            if key[0] == "S":
                n = key[1]
                p.expect(facts.cuts == 0, f"S_{n}: cut-free proof has {facts.cuts} cuts")
                p.expect(facts.q > n**n, f"S_{n}: cut-free proof_q {facts.q} does not exceed n^n")
            else:
                p.expect(facts.cuts == 1, f"{key}: proof has {facts.cuts} cuts, not 1")
            p.add_proof(facts)

    def notes(self) -> list[str]:
        out = []
        for n, (_, count) in self.cutfree.items():
            facts = self.ledger.get(("S", n))
            q = facts.q if facts else "?"
            out.append(f"S_{n} cut-free: proof_q {q}, position-difference count {count}")
        return out


WORKLOADS = {
    "sn-gstar": SnGstar,
    "fixtures-cli": FixturesCli,
    "proof-roundtrip": ProofRoundtrip,
}
