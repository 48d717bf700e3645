#!/usr/bin/env python3
"""Compression table for the reachability benchmark family.

For each n the pipeline finds the cut matrix P(x, f y) from the rewrite
pool and builds the one-cut proof; its weak-quantifier count 4n+3 is put
next to the counted quantifier demand of minimal cut-free instance sets
(computed up to n = 4, growing past n^n).

Usage: python3 scripts/compression_table.py [max_n]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pi2cut.benchmark import generate_sn, minimal_cutfree_instances
from pi2cut.solver import SolverOptions, introduce_cut
from pi2cut.syntax import clause_set_to_sexp


def main() -> int:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    header = f"{'n':>2}  {'cut q':>6}  {'cut l':>7}  {'cut s':>9}  {'cut-free q':>10}  {'n^n':>7}  solution"
    print(header)
    print("-" * len(header))
    for n in range(2, max_n + 1):
        sn = generate_sn(n)
        report = introduce_cut(sn.problem, sn.grammar, SolverOptions(pool="gstar"))
        t = report.complexity
        if n <= 4:
            _, valid, counted = minimal_cutfree_instances(n)
            assert valid
            cutfree = str(counted)
        else:
            cutfree = "-"
        print(
            f"{n:>2}  {t.quantifier:>6}  {t.logical:>7}  {t.symbols:>9}  "
            f"{cutfree:>10}  {n**n:>7}  "
            f"{clause_set_to_sexp(report.solutions[0])}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
