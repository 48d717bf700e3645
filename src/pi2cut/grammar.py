"""Schematic grammars for a single forall-exists cut.

A schematic grammar packages the instantiation structure of such a cut:
the start productions carry the end-sequent instance tuples (wrapped in
the marker constructors ``hF``/``hG``), the variable ``alpha`` rewrites to
the universal witness terms ``r1..rm``, and each ``bj`` rewrites to the
existential witness terms ``t1..tp`` evaluated at ``rj``.  Derivations are
rigid: one production per variable.  A set of wrapped terms, such as the
rigid language or the Herbrand term set it must cover, is a
`HerbrandInstanceSet`.

The module also builds the unrestricted rewrite system used to search for
candidate cut literals: grammar terms rewrite down to the two designated
variables ``x`` and ``y``.  Its one generaliser, `reachable_literals`,
serves both starting-set pools.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .syntax import (
    ALPHA,
    App,
    Atom,
    Literal,
    Signature,
    Term,
    Var,
    X,
    Y,
    beta,
    dual,
    free_vars,
    substitute_term,
    term_key,
    term_to_sexp,
    tuple_key,
)


class GrammarError(Exception):
    pass


@dataclass(frozen=True)
class HerbrandInstanceSet:
    """Instance tuples of the two quantifier blocks, each side a set: the
    wrapped terms ``hF(t...)`` and ``hG(s...)``.  Equality ignores order
    and repeats."""

    f_tuples: frozenset[tuple[Term, ...]]
    g_tuples: frozenset[tuple[Term, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "f_tuples", frozenset(map(tuple, self.f_tuples)))
        object.__setattr__(self, "g_tuples", frozenset(map(tuple, self.g_tuples)))

    def __len__(self) -> int:
        return len(self.f_tuples) + len(self.g_tuples)

    def __sub__(self, other: HerbrandInstanceSet) -> HerbrandInstanceSet:
        return HerbrandInstanceSet(self.f_tuples - other.f_tuples, self.g_tuples - other.g_tuples)

    def wrapped_terms(self) -> list[str]:
        """The terms printed, ``hF`` before ``hG``, each in canonical order."""
        return [
            "(" + " ".join([head, *map(term_to_sexp, tup)]) + ")"
            for head, tuples in (("hF", self.f_tuples), ("hG", self.g_tuples))
            for tup in sorted(tuples, key=tuple_key)
        ]


@dataclass(frozen=True)
class SchematicPi2Grammar:
    signature: Signature
    f_tuples: tuple[tuple[Term, ...], ...]
    g_tuples: tuple[tuple[Term, ...], ...]
    r_terms: tuple[Term, ...]
    t_terms: tuple[Term, ...]

    @property
    def m(self) -> int:
        return len(self.r_terms)

    @property
    def p(self) -> int:
        return len(self.t_terms)

    def beta_vars(self) -> tuple[str, ...]:
        return tuple(beta(j) for j in range(1, self.m + 1))

    def beta_production(self, j: int, i: int) -> Term:
        """Right-hand side of the derived production for b_j via t_i:
        t_i with alpha replaced by r_j (1-based indices)."""
        return substitute_term(self.t_terms[i - 1], {ALPHA: self.r_terms[j - 1]})


def validate(g: SchematicPi2Grammar) -> list[str]:
    """The side conditions the grammar breaks, one message each; empty
    when it has none.  Repeated witness terms are allowed.  Whether the
    tuples fit a problem's quantifier blocks is checked by `build_sehs`."""
    violations: list[str] = []
    if g.m < 1:
        violations.append("at least one universal witness term is required")
    if g.p < 1:
        violations.append("at least one existential witness term is required")
    if not g.f_tuples:
        violations.append("at least one antecedent instance tuple is required")
    if not g.g_tuples:
        violations.append("at least one succedent instance tuple is required")

    def check(term: Term, allowed: set[str], what: str) -> None:
        try:
            g.signature.check_term(term)
        except Exception as e:  # arity or unknown symbol
            violations.append(f"{what}: {e}")
            return
        extra = free_vars(term) - allowed
        if extra:
            violations.append(
                f"{what}: variables {sorted(extra)} not allowed (only {sorted(allowed)})"
            )

    betas = set(g.beta_vars())
    for idx, tup in enumerate(g.f_tuples, 1):
        for t in tup:
            check(t, {ALPHA}, f"antecedent tuple {idx}")
    arities = {len(t) for t in g.f_tuples}
    if len(arities) > 1:
        violations.append(f"antecedent tuples of mixed arity: {sorted(arities)}")
    for idx, tup in enumerate(g.g_tuples, 1):
        for t in tup:
            check(t, betas, f"succedent tuple {idx}")
    arities = {len(t) for t in g.g_tuples}
    if len(arities) > 1:
        violations.append(f"succedent tuples of mixed arity: {sorted(arities)}")

    for j, r in enumerate(g.r_terms, 1):
        allowed = {beta(k) for k in range(1, j)}
        what = "universal witness 1 (must be closed)" if j == 1 else f"universal witness {j}"
        check(r, allowed, what)
    for i, t in enumerate(g.t_terms, 1):
        check(t, {ALPHA}, f"existential witness {i}")
    return violations


# ---------------------------------------------------------------------------
# Rigid language


def rigid_language(g: SchematicPi2Grammar) -> HerbrandInstanceSet:
    """All wrapped ground terms derivable when every variable commits to a
    single production (one universal witness for alpha, one existential
    witness index per b_j), as one `HerbrandInstanceSet`."""
    violations = validate(g)
    if violations:
        raise GrammarError("; ".join(violations))
    f_out: set[tuple[Term, ...]] = set()
    g_out: set[tuple[Term, ...]] = set()
    for choice in itertools.product(range(1, g.p + 1), repeat=g.m):
        env: dict[str, Term] = {}
        for j in range(1, g.m + 1):
            env[beta(j)] = substitute_term(g.beta_production(j, choice[j - 1]), env)
        for tup in g.g_tuples:
            g_out.add(tuple(substitute_term(t, env) for t in tup))
        for j in range(1, g.m + 1):
            inst = {ALPHA: substitute_term(g.r_terms[j - 1], env)}
            for tup in g.f_tuples:
                f_out.add(tuple(substitute_term(t, inst) for t in tup))
    return HerbrandInstanceSet(f_out, g_out)


def covers(g: SchematicPi2Grammar, terms: HerbrandInstanceSet) -> bool:
    """Does the rigid language contain every given wrapped term?  Tuples
    of the wrong arity for their side raise `GrammarError`."""
    if g.f_tuples and {len(t) for t in terms.f_tuples} - {len(g.f_tuples[0])}:
        raise GrammarError("antecedent wrapper arity mismatch")
    if g.g_tuples and {len(t) for t in terms.g_tuples} - {len(g.g_tuples[0])}:
        raise GrammarError("succedent wrapper arity mismatch")
    return not terms - rigid_language(g)


# ---------------------------------------------------------------------------
# The rewrite system towards {x, y}


@dataclass(frozen=True)
class GStarSystem:
    """Unrestricted rewriting of grammar terms into the candidate-literal
    variables: each term of `to_x` rewrites to x and each term of `to_y`
    to y.  For a grammar, alpha and the universal witnesses go to x, the
    existential witness instances and the b-variables to y."""

    to_x: tuple[Term, ...]
    to_y: tuple[Term, ...]


def gstar_of(g: SchematicPi2Grammar) -> GStarSystem:
    to_x = [Var(ALPHA)] + list(g.r_terms)
    to_y = list(g.t_terms) + [Var(b) for b in g.beta_vars()]
    uniq_x = sorted({term_key(t): t for t in to_x}.values(), key=term_key)
    uniq_y = sorted({term_key(t): t for t in to_y}.values(), key=term_key)
    return GStarSystem(tuple(uniq_x), tuple(uniq_y))


def reachable_literals(lit: Literal, sys: GStarSystem) -> frozenset[Literal]:
    """All literals over {x, y} reachable by rewriting subterm occurrences.

    A rewrite leaves a bare x or y, which no image contains, so rewrites
    never nest and the reachable terms are chosen position by position:
    x where the subterm is an x-image, y where it is a y-image, or the
    head kept and the arguments generalised in turn (Plotkin's
    generalisation, lifted to sets of images).  Other variables have no
    option, so only literals over {x, y} come out.
    """

    def options(t: Term) -> list[Term]:
        opts: list[Term] = []
        if t in sys.to_x:
            opts.append(Var(X))
        if t in sys.to_y:
            opts.append(Var(Y))
        if isinstance(t, App):
            opts.extend(App(t.fn, args) for args in itertools.product(*map(options, t.args)))
        elif t.name in (X, Y):
            opts.append(t)
        return opts

    atom = lit.atom
    return frozenset(
        Literal(lit.positive, Atom(atom.pred, args))
        for args in itertools.product(*map(options, atom.args))
    )


def unifiable_pair(l: Literal, q: Literal, sys: GStarSystem) -> frozenset[Literal]:
    """Common literals reachable from `l` and from the dual of `q`: the
    reference definition of the gstar pool, which is the union of these
    sets over its leaf literal pairs."""
    left = reachable_literals(l, sys)
    right = frozenset(dual(r) for r in reachable_literals(q, sys))
    return left & right
