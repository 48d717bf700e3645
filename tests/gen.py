"""Seeded random instances for the solver property suites.

Instances follow the shapes the solver targets: small matrices over a
fixed signature, flat distinct existential witness terms containing
``alpha``, and starting-set literals whose arguments are the bare
variables x and y.  The rich mode (used by the soundness suite only)
additionally draws ground witness terms and literals with function
symbols around x and y, and conjoins the ground atom ``R(d)`` to the
antecedent when ``d`` is an existential witness term.
"""

from __future__ import annotations

import random

from pi2cut.grammar import SchematicPi2Grammar
from pi2cut.herbrand import PrenexProblem
from pi2cut.solver import Sehs, build_sehs
from pi2cut.syntax import (
    ALPHA,
    And,
    App,
    Atom,
    Clause,
    Formula,
    Imp,
    Literal,
    Not,
    Or,
    Signature,
    Term,
    Var,
    X,
    Y,
    beta,
    const,
)

SIG = Signature(
    {"f": 1, "g": 1, "c": 0, "d": 0},
    {"P": 2, "Q": 2, "R": 1},
)


def _f(t: Term) -> Term:
    return App("f", (t,))


def _g(t: Term) -> Term:
    return App("g", (t,))


def _random_atom(rng: random.Random, args: list[Term]) -> Atom:
    pred = rng.choice(["P", "Q", "R"])
    if pred == "R":
        return Atom("R", (rng.choice(args),))
    return Atom(pred, (rng.choice(args), rng.choice(args)))


def _random_matrix(rng: random.Random, args: list[Term], size: int) -> Formula:
    if size <= 1:
        atom = _random_atom(rng, args)
        return Not(atom) if rng.random() < 0.25 else atom
    cut = rng.randint(1, size - 1)
    left = _random_matrix(rng, args, cut)
    right = _random_matrix(rng, args, size - cut)
    return rng.choice([And, Or, Imp])(left, right)


def random_sehs(rng: random.Random, rich: bool = False, max_leaves: int = 3) -> Sehs:
    """A problem plus grammar whose reduced representation has between one
    and `max_leaves` non-tautological leaves."""
    alpha = Var(ALPHA)
    for _ in range(200):
        m = rng.choice([1, 1, 2])
        p = rng.choice([1, 2, 2])
        t_pool: list[Term] = [_f(alpha), _g(alpha)]
        if rich:
            t_pool += [const("d"), _f(_f(alpha))]
        rng.shuffle(t_pool)
        t_terms = tuple(t_pool[:p])
        r_terms: tuple[Term, ...] = (const("c"),)
        if m == 2:
            r_terms += (rng.choice([const("d"), _f(Var(beta(1)))]),)

        x_args = [Var("x1"), _f(Var("x1")), const("c")]
        y_args = [Var("y1"), _f(Var("y1")), const("c")]
        if rich:
            x_args += [_g(Var("x1")), const("d"), _f(_f(Var("x1")))]
            y_args += [_g(Var("y1")), const("d")]
        antecedent = _random_matrix(rng, x_args, rng.randint(1, 3))
        succedent = _random_matrix(rng, y_args, rng.randint(1, 3))
        if rich and const("d") in t_terms:
            # A ground atom over the witness d: the leaves then hold an
            # alpha instance without alpha, which T2' must not count.
            antecedent = And(antecedent, Atom("R", (const("d"),)))
        try:
            pb = PrenexProblem(SIG, ("x1",), ("y1",), antecedent, succedent)
        except Exception:
            continue

        f_tuples: tuple[tuple[Term, ...], ...] = ((alpha,),)
        if rng.random() < 0.3:
            f_tuples += ((_f(alpha),),)
        beta_terms = [Var(beta(j)) for j in range(1, m + 1)]
        g_tuples = tuple((b,) for b in rng.sample(beta_terms, rng.randint(1, m)))
        grammar = SchematicPi2Grammar(SIG, f_tuples, g_tuples, r_terms, t_terms)
        try:
            sehs = build_sehs(pb, grammar)
            leaves = sehs.leaf_masks.pairs
        except Exception:
            continue
        if 1 <= len(leaves) <= max_leaves:
            return sehs
    raise RuntimeError("no suitable random instance found")


_PLAIN_LITERALS = [
    Literal(True, Atom("P", (Var(X), Var(Y)))),
    Literal(False, Atom("P", (Var(X), Var(Y)))),
    Literal(True, Atom("Q", (Var(X), Var(Y)))),
    Literal(False, Atom("Q", (Var(X), Var(Y)))),
    Literal(True, Atom("R", (Var(X),))),
    Literal(False, Atom("R", (Var(X),))),
    Literal(True, Atom("R", (Var(Y),))),
    Literal(False, Atom("R", (Var(Y),))),
    Literal(True, Atom("P", (Var(Y), Var(X)))),
    Literal(True, Atom("Q", (Var(X), Var(X)))),
]

_RICH_LITERALS = _PLAIN_LITERALS + [
    Literal(True, Atom("P", (Var(X), _f(Var(Y))))),
    Literal(False, Atom("P", (Var(X), _f(Var(Y))))),
    Literal(True, Atom("Q", (_f(Var(X)), Var(Y)))),
    Literal(False, Atom("R", (_f(Var(Y)),))),
    Literal(True, Atom("P", (const("c"), Var(Y)))),
]


def random_starting_set(rng: random.Random, rich: bool = False) -> frozenset[Clause]:
    pool = list(_RICH_LITERALS if rich else _PLAIN_LITERALS)
    rng.shuffle(pool)
    pool = pool[: rng.randint(2, 4)]
    clauses = set()
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, min(2, len(pool)))
        clauses.add(frozenset(rng.sample(pool, size)))
    return frozenset(clauses)


def random_tautological_eh(rng: random.Random):
    """An extended sequent valid by construction: the cut matrix is planted
    into both end-sequent matrices through one witness each."""
    from pi2cut.herbrand import ExtendedHerbrandSequent
    from pi2cut.syntax import substitute

    alpha = Var(ALPHA)
    matrix_args = [Var(X), Var(Y), _f(Var(X)), _f(Var(Y)), const("c")]
    matrix = _random_matrix(rng, matrix_args, rng.randint(1, 3))
    p = rng.choice([1, 2])
    t_terms = tuple([_f(alpha), _g(alpha)][:p])
    r_terms = (const("c"),)
    antecedent = substitute(matrix, {X: Var("x1"), Y: _f(Var("x1"))})
    succedent = substitute(matrix, {X: const("c"), Y: Var("y1")})
    pb = PrenexProblem(SIG, ("x1",), ("y1",), antecedent, succedent)
    grammar = SchematicPi2Grammar(
        SIG, ((alpha,),), ((Var(beta(1)),),), r_terms, t_terms
    )
    return ExtendedHerbrandSequent(pb, grammar, matrix)
