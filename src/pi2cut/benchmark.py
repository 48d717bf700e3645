"""Benchmark family: chains of one-step reachability claims.

For n >= 2 the end-sequent says: if every point sees one of n successors
(P(x, f_i x)) and P is closed under the step function f, then some point
reaches a g-image.  Cut-free proofs need more than n^n weak quantifier
inferences; one cut on ``forall x exists y. P(x, f y)`` brings the count
down to 4n + 3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .grammar import SchematicPi2Grammar
from .herbrand import HerbrandInstanceSet, PrenexProblem, herbrand_check
from .syntax import (
    ALPHA,
    App,
    Atom,
    Formula,
    Imp,
    Not,
    Signature,
    Term,
    Var,
    beta,
    conj,
    const,
    disj,
)


class BenchmarkError(Exception):
    pass


@dataclass(frozen=True)
class SnInstance:
    n: int
    problem: PrenexProblem
    grammar: SchematicPi2Grammar


def _sn_signature(n: int) -> Signature:
    functions = {"c": 0, "f": 1, "g": 1}
    for i in range(1, n + 1):
        functions[f"f{i}"] = 1
    return Signature(functions, {"P": 2})


def _p(a: Term, b: Term) -> Formula:
    return Atom("P", (a, b))


def _f(t: Term) -> Term:
    return App("f", (t,))


def _fi(i: int, t: Term) -> Term:
    return App(f"f{i}", (t,))


def generate_sn(n: int) -> SnInstance:
    if n < 2:
        raise BenchmarkError("the family starts at n = 2")
    sig = _sn_signature(n)
    x1, x2, x3 = Var("x1"), Var("x2"), Var("x3")
    successors = disj([_p(x1, _fi(i, x1)) for i in range(1, n + 1)])
    step = Imp(_p(x2, x3), _p(x2, _f(x3)))
    antecedent = conj([successors, step])

    ys = [Var(f"y{i}") for i in range(1, n + 3)]
    chain = [_p(ys[0], _f(ys[1]))]
    chain += [_p(_f(ys[j - 1]), _f(ys[j])) for j in range(2, n)]
    broken_chain = conj(chain + [Not(_p(ys[0], App("g", (ys[n - 1],))))])
    target = _p(ys[n], App("g", (ys[n + 1],)))
    succedent = disj([broken_chain, target])

    problem = PrenexProblem(
        sig,
        ("x1", "x2", "x3"),
        tuple(f"y{i}" for i in range(1, n + 3)),
        antecedent,
        succedent,
    )

    alpha = Var(ALPHA)
    f_tuples = tuple((alpha, alpha, _fi(i, alpha)) for i in range(1, n + 1))
    betas = [Var(beta(j)) for j in range(1, n)]
    g_tuples = ((const("c"), *betas, const("c"), betas[-1]),)
    r_terms = tuple([const("c")] + [_f(b) for b in betas[: n - 2]])
    t_terms = tuple(_fi(i, alpha) for i in range(1, n + 1))
    grammar = SchematicPi2Grammar(sig, f_tuples, g_tuples, r_terms, t_terms)
    return SnInstance(n, problem, grammar)


def expected_cut_quantifier_count(n: int) -> int:
    return 4 * n + 3


def minimal_cutfree_instances(n: int) -> tuple[HerbrandInstanceSet, bool, int]:
    """Instantiation sets of a minimal cut-free proof, the validity of the
    instantiated sequent, and its position-difference count."""
    if n < 2:
        raise BenchmarkError("the family starts at n = 2")
    if n > 4:
        raise BenchmarkError("cut-free instance sets grow as n^n; limited to n <= 4")
    inst = _minimal_instances(n)
    sn = generate_sn(n)
    valid, count = herbrand_check(sn.problem, inst)
    return inst, valid, count


def _minimal_instances(n: int) -> HerbrandInstanceSet:
    c = const("c")
    levels: list[list[Term]] = [[c]]
    for _ in range(2, n):
        levels.append(
            [_f(_fi(i, t)) for t in levels[-1] for i in range(1, n + 1)]
        )
    a_terms = [t for level in levels for t in level]
    f_tuples = [(t, t, _fi(i, t)) for t in a_terms for i in range(1, n + 1)]

    g_tuples = []
    for heads in itertools.product(range(1, n + 1), repeat=n - 1):
        ys = [c, _fi(heads[0], c)]
        for j in range(3, n + 1):
            ys.append(_fi(heads[j - 2], _f(ys[-1])))
        ys += [ys[0], ys[-1]]
        g_tuples.append(tuple(ys))
    return HerbrandInstanceSet(f_tuples, g_tuples)
