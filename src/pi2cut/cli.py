"""Command-line interface.

Exit codes: 0 solved / check passed, 1 no solution under the chosen pool,
2 malformed input, 3 verification or proof-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .benchmark import (
    BenchmarkError,
    expected_cut_quantifier_count,
    generate_sn,
    minimal_cutfree_instances,
)
from .calculus import check_proof, complexities
from .grammar import GrammarError, WrappedTerm, rigid_language
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


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(str(e), 0, 0)


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
        ("cut-formula", formula_to_sexp(report.cut_formula)),
        ("verified", str(report.verified).lower()),
        ("balanced", str(report.balanced).lower()),
        ("proof-q", str(report.complexity.quantifier)),
        ("proof-l", str(report.complexity.logical)),
        ("proof-s", str(report.complexity.symbols)),
        ("slot-complexity", str(report.slot_complexity)),
        ("shared-complexity", str(report.shared_complexity)),
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
    text = _read(args.file)
    pf = parse_problem(text)
    if args.pool.startswith("file:"):
        pool: object = parse_starting_set(_read(args.pool[5:]), pf.problem.signature)
    elif args.pool in ("gstar", "naive"):
        pool = args.pool
    else:
        print(f"unknown pool '{args.pool}'", file=sys.stderr)
        return INPUT_ERROR
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
        Path(args.emit_proof).write_text(text, encoding="utf-8")
        if args.verify:
            reparsed, _ = parse_proof(text)
            verdict = check_proof(reparsed)
            if not verdict.ok:
                print(f"emitted proof failed its check: {verdict.error}", file=sys.stderr)
                return CHECK_ERROR
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    root, _sig = parse_proof(_read(args.proof))
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
    pf = parse_problem(_read(args.file))
    terms = sorted(rigid_language(pf.grammar), key=WrappedTerm.key)
    for t in terms:
        print(t.to_sexp())
    if pf.herbrand_terms is not None:
        missing = sorted(set(pf.herbrand_terms) - set(terms), key=WrappedTerm.key)
        covered = not missing
        print(f"; covers herbrand-terms: {str(covered).lower()}")
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


def main(argv: list[str] | None = None) -> int:
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
    solve.add_argument("--verify", action="store_true", help="re-check the emitted proof file")
    solve.add_argument("--json", action="store_true")
    solve.set_defaults(fn=_cmd_solve)

    check = sub.add_parser("check", help="validate a proof file")
    check.add_argument("proof")
    check.add_argument("--json", action="store_true")
    check.set_defaults(fn=_cmd_check)

    language = sub.add_parser("language", help="print the grammar's rigid language")
    language.add_argument("file")
    language.set_defaults(fn=_cmd_language)

    bench = sub.add_parser("bench-sn", help="run the reachability benchmark family")
    bench.add_argument("--n", type=int, required=True)
    bench.add_argument("--cut-free", action="store_true")
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(fn=_cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except VerificationFailure as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return CHECK_ERROR
    except (ParseError, SyntaxError_, GrammarError, BenchmarkError, SolverError) as e:
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR
    except RecursionError:
        # Formulas, terms and proofs are read and walked recursively; no
        # depth cap is set, since real proofs nest deeper as n grows.
        print("error: input nested too deeply", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
