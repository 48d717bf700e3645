"""Seeded extended sequents with a planted cut matrix.

A random matrix over x, y, ``f x``, ``f y`` and ``c`` is planted into
both end-sequent matrices through one witness each, so the sequent is
valid by construction and every proof built from it has exactly one
cut.  The construction is the one the property suites use; the
benchmark draws its own inputs from ``--seed`` with it.
"""

from __future__ import annotations

import random

from pi2cut.grammar import SchematicPi2Grammar
from pi2cut.herbrand import ExtendedHerbrandSequent, PrenexProblem
from pi2cut.syntax import (
    ALPHA,
    X,
    Y,
    And,
    App,
    Atom,
    Imp,
    Not,
    Or,
    Signature,
    Var,
    beta,
    const,
    substitute,
)

SIG = Signature({"f": 1, "g": 1, "c": 0, "d": 0}, {"P": 2, "Q": 2, "R": 1})


def _f(t):
    return App("f", (t,))


def _g(t):
    return App("g", (t,))


def _random_atom(rng: random.Random, args):
    pred = rng.choice(["P", "Q", "R"])
    if pred == "R":
        return Atom("R", (rng.choice(args),))
    return Atom(pred, (rng.choice(args), rng.choice(args)))


def _random_matrix(rng: random.Random, args, size: int):
    if size <= 1:
        atom = _random_atom(rng, args)
        return Not(atom) if rng.random() < 0.25 else atom
    cut = rng.randint(1, size - 1)
    left = _random_matrix(rng, args, cut)
    right = _random_matrix(rng, args, size - cut)
    return rng.choice([And, Or, Imp])(left, right)


def planted_eh(rng: random.Random) -> ExtendedHerbrandSequent:
    alpha = Var(ALPHA)
    matrix_args = [Var(X), Var(Y), _f(Var(X)), _f(Var(Y)), const("c")]
    matrix = _random_matrix(rng, matrix_args, rng.randint(1, 3))
    p = rng.choice([1, 2])
    t_terms = tuple([_f(alpha), _g(alpha)][:p])
    r_terms = (const("c"),)
    antecedent = substitute(matrix, {X: Var("x1"), Y: _f(Var("x1"))})
    succedent = substitute(matrix, {X: const("c"), Y: Var("y1")})
    pb = PrenexProblem(SIG, ("x1",), ("y1",), antecedent, succedent)
    grammar = SchematicPi2Grammar(SIG, ((alpha,),), ((Var(beta(1)),),), r_terms, t_terms)
    return ExtendedHerbrandSequent(pb, grammar, matrix)


def planted_ehs(seed: int, count: int) -> list[ExtendedHerbrandSequent]:
    rng = random.Random(seed)
    return [planted_eh(rng) for _ in range(count)]
