"""Loaders for the bundled problem files plus their instance data."""

from __future__ import annotations

from pathlib import Path

from pi2cut.herbrand import HerbrandInstanceSet
from pi2cut.problem_io import ProblemFile, parse_problem
from pi2cut.syntax import ALPHA, App, Atom, Literal, Sequent, Var, X, Y, const, free_vars

PROBLEM_DIR = Path(__file__).resolve().parent.parent / "problems"


def load(name: str) -> ProblemFile:
    return parse_problem((PROBLEM_DIR / name).read_text(encoding="utf-8"))


def two_step() -> ProblemFile:
    return load("two_step.p2")


def two_step_instances() -> HerbrandInstanceSet:
    r1 = const("r1")
    t1 = lambda t: App("t1", (t,))
    t2 = lambda t: App("t2", (t,))
    r2 = lambda t: App("r2", (t,))
    f_tuples = ((r1,), (r2(t1(r1)),), (r2(t2(r1)),))
    g_tuples = (
        (t1(r1), t1(r2(t1(r1)))),
        (t1(r1), t2(r2(t1(r1)))),
        (t2(r1), t1(r2(t2(r1)))),
        (t2(r1), t2(r2(t2(r1)))),
    )
    return HerbrandInstanceSet(f_tuples, g_tuples)


def shared_base() -> ProblemFile:
    return load("unsolvable_shared_base.p2")


def two_bases() -> ProblemFile:
    return load("unsolvable_two_bases.p2")


def swap_pair() -> ProblemFile:
    return load("swap_pair.p2")


def unbalanced_pair() -> ProblemFile:
    return load("unbalanced_pair.p2")


def lit(pred: str, *args) -> Literal:
    return Literal(True, Atom(pred, tuple(args)))


def nlit(pred: str, *args) -> Literal:
    return Literal(False, Atom(pred, tuple(args)))


def leaf_sequents(sehs) -> tuple[Sequent, ...]:
    """The solve's leaves as sequents, in the leaf engine's order: its
    mask pairs decoded.  A solve itself reads them only through the
    literal-to-leaves index."""
    return tuple(sehs.leaf_masks.sequents())


def leaf_parts(sehs, leaf) -> tuple[frozenset[Literal], ...]:
    """A leaf sequent read in the antecedent view (antecedent atoms
    positive, succedent atoms negated), split as the paper does by
    eigenvariable use: the literals with ``alpha`` free (A), those with
    some ``bj`` free and no ``alpha`` (B), and the neutral rest (N)."""
    betas = set(sehs.grammar.beta_vars())
    parts: tuple[set[Literal], ...] = (set(), set(), set())
    view = [Literal(True, a) for a in leaf.left] + [Literal(False, a) for a in leaf.right]
    for l in view:
        vs = free_vars(l.atom)
        parts[0 if ALPHA in vs else 1 if vs & betas else 2].add(l)
    return tuple(map(frozenset, parts))


x = Var(X)
y = Var(Y)
