"""Command-line interface.

Exit codes: 0 solved / check passed, 1 no solution under the chosen pool,
2 malformed or unreadable input or an unwritable proof file, 3 verification
or proof-check failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Callable, TypeVar

from .benchmark import (
    BenchmarkError,
    expected_cut_quantifier_count,
    generate_sn,
    minimal_cutfree_instances,
)
from .calculus import check_proof, complexities
from .grammar import GrammarError, rigid_language
from .problem_io import (
    parse_problem,
    parse_proof,
    parse_starting_set,
    print_proof,
)
from .sexpr import ParseError
from .solver import (
    CapExceeded,
    NoSolutionUnderPool,
    SearchStats,
    SolutionReport,
    SolverError,
    SolverOptions,
    VerificationFailure,
    introduce_cut,
)
from .syntax import SyntaxError_, clause_set_to_sexp, formula_to_sexp

INPUT_ERROR = 2
CHECK_ERROR = 3


T = TypeVar("T")


class _BadFile(Exception):
    """An input file that cannot be read as UTF-8 text or is malformed."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise _BadFile(f"{path}: {getattr(e, 'strerror', None) or e}") from None


def _parse(path: str, parse: Callable[..., T], *args: object) -> T:
    """`parse` applied to the text of the file at `path`; a parse error is
    reported at `path:line:col`, input nested too deeply at `path`."""
    text = _read(path)
    try:
        return parse(text, *args)
    except ParseError as e:
        raise _BadFile(f"{path}:{e}") from None
    except RecursionError:
        # Formulas are read recursively; no depth cap is set.
        raise _BadFile(f"{path}: input nested too deeply") from None


def _stats_rows(stats: SearchStats) -> list[tuple[str, str]]:
    """The search counters, leaving out those of stages never reached."""
    counters = [
        ("pool-size", stats.pool_size),
        ("unifiable", stats.unifiable),
        ("candidates", stats.candidates),
        ("cl-passed", stats.cl_passed),
        ("sol-passed", stats.sol_passed),
        ("caps-hit", stats.caps_hit),
    ]
    return [("pool", stats.pool)] + [
        (key, str(value).lower()) for key, value in counters if value is not None
    ]


def _report_lines(report: SolutionReport) -> list[tuple[str, str]]:
    rows = [
        ("status", "solved"),
        *_stats_rows(report.stats),
        ("solution", clause_set_to_sexp(report.solutions[0])),
    ]
    for extra in report.solutions[1:]:
        rows.append(("solution-alt", clause_set_to_sexp(extra)))
    rows += [
        ("cut-formula", formula_to_sexp(report.eh.cut_formula())),
        # introduce_cut raises VerificationFailure on an unverified matrix.
        ("verified", "true"),
        ("balanced", str(report.balanced).lower()),
        ("proof-q", str(report.complexity.quantifier)),
        ("proof-l", str(report.complexity.logical)),
        ("proof-s", str(report.complexity.symbols)),
        ("slot-complexity", str(report.eh.complexity())),
        ("shared-complexity", str(report.eh.shared_complexity())),
    ]
    return rows


def _emit(rows: list[tuple[str, str]], as_json: bool) -> None:
    if as_json:
        data: dict[str, object] = {}
        for key, value in rows:
            if key in data:
                prior = data[key]
                if isinstance(prior, list):
                    prior.append(value)
                else:
                    data[key] = [prior, value]
            else:
                data[key] = value
        print(json.dumps(data, indent=2, sort_keys=False))
        return
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key.ljust(width)}  {value}")


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.verify and not args.emit_proof:
        print("error: --verify checks the emitted proof and needs --emit-proof", file=sys.stderr)
        return INPUT_ERROR
    pf = _parse(args.file, parse_problem)
    if args.pool.startswith("file:"):
        pool: object = _parse(args.pool[5:], parse_starting_set, pf.problem.signature)
    else:
        pool = args.pool
    options = SolverOptions(
        pool=pool,  # type: ignore[arg-type]
        max_clauses=args.max_clauses,
        max_clause_size=args.max_clause_size,
        max_candidates=args.max_candidates,
        all_solutions=args.all,
    )
    try:
        report = introduce_cut(
            pf.problem, pf.grammar, options, term_set=pf.herbrand_terms
        )
    except (NoSolutionUnderPool, CapExceeded) as e:
        status = "no-solution" if isinstance(e, NoSolutionUnderPool) else "cap-exceeded"
        _emit([("status", status), *_stats_rows(e.stats)], args.json)
        return 1
    _emit(_report_lines(report), args.json)
    if args.emit_proof:
        text = print_proof(report.proof, pf.problem.signature)
        try:
            Path(args.emit_proof).write_text(text, encoding="utf-8")
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return INPUT_ERROR
        if args.verify:
            reparsed, _ = parse_proof(text)
            verdict = check_proof(reparsed)
            if not verdict.ok:
                print(f"emitted proof failed its check: {verdict.error}", file=sys.stderr)
                return CHECK_ERROR
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    root, _sig = _parse(args.proof, parse_proof)
    verdict = check_proof(root)
    triple = complexities(root) if verdict.ok else None
    rows = [("status", "ok" if verdict.ok else "invalid")]
    if verdict.ok and triple is not None:
        rows += [
            ("proof-q", str(triple.quantifier)),
            ("proof-l", str(triple.logical)),
            ("proof-s", str(triple.symbols)),
        ]
    else:
        rows += [
            ("error", verdict.error or ""),
            ("path", "/".join(map(str, verdict.path))),
        ]
    _emit(rows, args.json)
    return 0 if verdict.ok else CHECK_ERROR


def _cmd_language(args: argparse.Namespace) -> int:
    pf = _parse(args.file, parse_problem)
    language = rigid_language(pf.grammar)
    print("\n".join(language.wrapped_terms()))
    if pf.herbrand_terms is not None:
        print(f"; covers herbrand-terms: {str(not pf.herbrand_terms - language).lower()}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    sn = generate_sn(args.n)
    report = introduce_cut(sn.problem, sn.grammar, SolverOptions(pool="gstar"))
    rows = [
        ("benchmark-n", str(args.n)),
        ("cut-proof-q", str(report.complexity.quantifier)),
        ("cut-proof-q-expected", str(expected_cut_quantifier_count(args.n))),
        ("cut-proof-l", str(report.complexity.logical)),
        ("cut-proof-s", str(report.complexity.symbols)),
        ("solution", clause_set_to_sexp(report.solutions[0])),
        ("balanced", str(report.balanced).lower()),
    ]
    if args.cut_free:
        _, valid, counted = minimal_cutfree_instances(args.n)
        rows += [
            ("cut-free-valid", str(valid).lower()),
            ("cut-free-q-counted", str(counted)),
            ("cut-free-exceeds-n^n", str(counted > args.n**args.n).lower()),
        ]
    _emit(rows, args.json)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call to `main`.  It
    stores no subcommand function: `main` looks each one up by name on
    every call, so a wrapper put in place of a `_cmd_*` function (as
    ``perfbench/tracer.py`` does) is the one called."""
    parser = argparse.ArgumentParser(
        prog="pi2cut",
        description="Introduce a single forall-exists cut into a cut-free proof",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="find a cut matrix for a problem file")
    solve.add_argument("file")
    solve.add_argument("--pool", default="gstar", help="gstar, naive, or file:<path>")
    solve.add_argument("--max-clauses", type=int, default=3)
    solve.add_argument("--max-clause-size", type=int, default=3)
    solve.add_argument("--max-candidates", type=int, default=10**6)
    solve.add_argument("--all", action="store_true", help="report every verified solution")
    solve.add_argument("--emit-proof", metavar="OUT")
    solve.add_argument("--verify", action="store_true", help="re-check the --emit-proof file")
    solve.add_argument("--json", action="store_true")

    check = sub.add_parser("check", help="validate a proof file")
    check.add_argument("proof")
    check.add_argument("--json", action="store_true")

    language = sub.add_parser("language", help="print the grammar's rigid language")
    language.add_argument("file")

    bench = sub.add_parser("bench-sn", help="run the reachability benchmark family")
    bench.add_argument("--n", type=int, required=True)
    bench.add_argument("--cut-free", action="store_true")
    bench.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    commands = {
        "solve": _cmd_solve,
        "check": _cmd_check,
        "language": _cmd_language,
        "bench-sn": _cmd_bench,
    }
    try:
        return commands[args.command](args)
    except VerificationFailure as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return CHECK_ERROR
    except (ParseError, SyntaxError_, GrammarError, BenchmarkError, SolverError,
            _BadFile) as e:
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR
    except RecursionError:
        # Formulas and terms are printed and rewritten recursively; no
        # depth cap is set.  `_parse` reports a file nested too deeply.
        print("error: input nested too deeply", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
