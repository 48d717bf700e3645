"""First-order syntax kernel.

Terms, quantifier-free and quantified formulas, literals, clause sets,
sequents, simultaneous substitution, disjunctive normal form and the
position-difference count used to measure instantiation sets.

Everything here is immutable and printed in a canonical s-expression
syntax; the printed form doubles as the canonical sort key, so every
set-valued result in the package can be ordered deterministically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

# Designated variable names.  `alpha` and `b1..bN` are the eigenvariables
# of the cut block, `x`/`y` the two variables of a candidate cut matrix,
# `tau` the start symbol of schematic grammars.  None of them may be
# declared as a signature symbol.
ALPHA = "alpha"
X = "x"
Y = "y"
TAU = "tau"


def beta(j: int) -> str:
    """Name of the j-th cut eigenvariable (1-based)."""
    return f"b{j}"


def is_reserved(name: str) -> bool:
    if name in (ALPHA, X, Y, TAU):
        return True
    return len(name) > 1 and name[0] == "b" and name[1:].isdigit()


class SyntaxError_(Exception):
    """Malformed term, formula or substitution."""


# ---------------------------------------------------------------------------
# Terms


class Term:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class App(Term):
    fn: str
    args: tuple[Term, ...] = ()


def const(name: str) -> App:
    return App(name, ())


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class ForAll(Formula):
    var: str
    body: Formula


@dataclass(frozen=True, slots=True)
class Exists(Formula):
    var: str
    body: Formula


def conj(formulas: Sequence[Formula]) -> Formula:
    """Right-associated conjunction of a non-empty sequence."""
    if not formulas:
        raise SyntaxError_("empty conjunction")
    out = formulas[-1]
    for f in reversed(formulas[:-1]):
        out = And(f, out)
    return out


def disj(formulas: Sequence[Formula]) -> Formula:
    """Right-associated disjunction of a non-empty sequence."""
    if not formulas:
        raise SyntaxError_("empty disjunction")
    out = formulas[-1]
    for f in reversed(formulas[:-1]):
        out = Or(f, out)
    return out


def forall_block(vars_: Sequence[str], body: Formula) -> Formula:
    out = body
    for v in reversed(vars_):
        out = ForAll(v, out)
    return out


def exists_block(vars_: Sequence[str], body: Formula) -> Formula:
    out = body
    for v in reversed(vars_):
        out = Exists(v, out)
    return out


def is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, Atom):
        return True
    if isinstance(f, Not):
        return is_quantifier_free(f.sub)
    if isinstance(f, (And, Or, Imp)):
        return is_quantifier_free(f.left) and is_quantifier_free(f.right)
    return False


# ---------------------------------------------------------------------------
# Signature


@dataclass(frozen=True)
class Signature:
    """Function and predicate symbols with arities (arity-0 functions are
    constants).  Symbol names are unique across both namespaces."""

    functions: Mapping[str, int]
    predicates: Mapping[str, int]

    def __post_init__(self) -> None:
        clash = set(self.functions) & set(self.predicates)
        if clash:
            raise SyntaxError_(f"symbols declared twice: {sorted(clash)}")
        for name in itertools.chain(self.functions, self.predicates):
            if is_reserved(name):
                raise SyntaxError_(f"reserved name declared in signature: {name}")

    def check_term(self, t: Term) -> None:
        if isinstance(t, Var):
            if t.name in self.functions:
                raise SyntaxError_(f"variable shadows function symbol: {t.name}")
            return
        assert isinstance(t, App)
        arity = self.functions.get(t.fn)
        if arity is None:
            raise SyntaxError_(f"unknown function symbol: {t.fn}")
        if arity != len(t.args):
            raise SyntaxError_(f"{t.fn} expects {arity} arguments, got {len(t.args)}")
        for a in t.args:
            self.check_term(a)

    def check_formula(self, f: Formula) -> None:
        if isinstance(f, Atom):
            arity = self.predicates.get(f.pred)
            if arity is None:
                raise SyntaxError_(f"unknown predicate symbol: {f.pred}")
            if arity != len(f.args):
                raise SyntaxError_(f"{f.pred} expects {arity} arguments, got {len(f.args)}")
            for a in f.args:
                self.check_term(a)
        elif isinstance(f, Not):
            self.check_formula(f.sub)
        elif isinstance(f, (And, Or, Imp)):
            self.check_formula(f.left)
            self.check_formula(f.right)
        elif isinstance(f, (ForAll, Exists)):
            self.check_formula(f.body)
        else:
            raise SyntaxError_(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Free variables and substitution

Substitution = Mapping[str, Term]


def free_vars(e: Term | Formula) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, App):
        out: frozenset[str] = frozenset()
        for a in e.args:
            out |= free_vars(a)
        return out
    if isinstance(e, Atom):
        out = frozenset()
        for a in e.args:
            out |= free_vars(a)
        return out
    if isinstance(e, Not):
        return free_vars(e.sub)
    if isinstance(e, (And, Or, Imp)):
        return free_vars(e.left) | free_vars(e.right)
    if isinstance(e, (ForAll, Exists)):
        return free_vars(e.body) - {e.var}
    raise SyntaxError_(f"not a term or formula: {e!r}")


def substitute_term(t: Term, sub: Substitution) -> Term:
    if isinstance(t, Var):
        return sub.get(t.name, t)
    assert isinstance(t, App)
    return App(t.fn, tuple(substitute_term(a, sub) for a in t.args))


def substitute(f: Formula, sub: Substitution) -> Formula:
    """Simultaneous substitution of free variables.

    Rejects capturing substitutions instead of renaming: a binder may not
    shadow a variable free in an applicable range term.
    """
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(substitute_term(a, sub) for a in f.args))
    if isinstance(f, Not):
        return Not(substitute(f.sub, sub))
    if isinstance(f, And):
        return And(substitute(f.left, sub), substitute(f.right, sub))
    if isinstance(f, Or):
        return Or(substitute(f.left, sub), substitute(f.right, sub))
    if isinstance(f, Imp):
        return Imp(substitute(f.left, sub), substitute(f.right, sub))
    if isinstance(f, (ForAll, Exists)):
        inner = {v: t for v, t in sub.items() if v != f.var}
        for v, t in inner.items():
            if v in free_vars(f.body) and f.var in free_vars(t):
                raise SyntaxError_(
                    f"substitution would capture {f.var} in {term_to_sexp(t)}"
                )
        body = substitute(f.body, inner)
        return ForAll(f.var, body) if isinstance(f, ForAll) else Exists(f.var, body)
    raise SyntaxError_(f"not a formula: {f!r}")


def apply_to(t: Term, s: Term) -> Term:
    """Plug `s` in for the distinguished variable `alpha` of `t`."""
    return substitute_term(t, {ALPHA: s})


# ---------------------------------------------------------------------------
# Literals and clauses


@dataclass(frozen=True, slots=True)
class Literal:
    positive: bool
    atom: Atom

    def formula(self) -> Formula:
        return self.atom if self.positive else Not(self.atom)


Clause = frozenset  # of Literal
ClauseSet = frozenset  # of Clause


def pos(atom: Atom) -> Literal:
    return Literal(True, atom)


def neg(atom: Atom) -> Literal:
    return Literal(False, atom)


def dual(lit: Literal) -> Literal:
    return Literal(not lit.positive, lit.atom)


def dual_set(lits: Iterable[Literal]) -> frozenset[Literal]:
    return frozenset(dual(l) for l in lits)


def substitute_literal(lit: Literal, sub: Substitution) -> Literal:
    return Literal(lit.positive, substitute(lit.atom, sub))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Sequents


@dataclass(frozen=True, slots=True)
class Sequent:
    """An ordered pair of formula sets (antecedent, succedent)."""

    left: frozenset[Formula]
    right: frozenset[Formula]

    @staticmethod
    def of(left: Iterable[Formula], right: Iterable[Formula]) -> Sequent:
        return Sequent(frozenset(left), frozenset(right))

    def shares_atom(self) -> bool:
        return any(isinstance(f, Atom) for f in self.left & self.right)


def literal_normal_form(s: Sequent) -> tuple[Literal, ...]:
    """Rewrite an atomic sequent into one list of antecedent literals:
    succedent atoms come first, negated; antecedent atoms follow, positive.
    """
    for f in s.left | s.right:
        if not isinstance(f, Atom):
            raise SyntaxError_(f"non-atomic formula in sequent: {formula_to_sexp(f)}")
    negated = sorted((neg(a) for a in s.right), key=literal_key)  # type: ignore[misc]
    kept = sorted((pos(a) for a in s.left), key=literal_key)  # type: ignore[misc]
    return tuple(negated) + tuple(kept)


# ---------------------------------------------------------------------------
# Canonical printing


def term_to_sexp(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    assert isinstance(t, App)
    if not t.args:
        return t.fn
    return "(" + " ".join([t.fn] + [term_to_sexp(a) for a in t.args]) + ")"


def formula_to_sexp(f: Formula) -> str:
    if isinstance(f, Atom):
        return "(" + " ".join([f.pred] + [term_to_sexp(a) for a in f.args]) + ")"
    if isinstance(f, Not):
        return f"(not {formula_to_sexp(f.sub)})"
    if isinstance(f, And):
        return f"(and {formula_to_sexp(f.left)} {formula_to_sexp(f.right)})"
    if isinstance(f, Or):
        return f"(or {formula_to_sexp(f.left)} {formula_to_sexp(f.right)})"
    if isinstance(f, Imp):
        return f"(imp {formula_to_sexp(f.left)} {formula_to_sexp(f.right)})"
    if isinstance(f, ForAll):
        return f"(forall {f.var} {formula_to_sexp(f.body)})"
    if isinstance(f, Exists):
        return f"(exists {f.var} {formula_to_sexp(f.body)})"
    raise SyntaxError_(f"not a formula: {f!r}")


def literal_to_sexp(lit: Literal) -> str:
    return formula_to_sexp(lit.formula())


def term_key(t: Term) -> str:
    return term_to_sexp(t)


def formula_key(f: Formula) -> str:
    return formula_to_sexp(f)


def literal_key(lit: Literal) -> str:
    return literal_to_sexp(lit)


def tuple_key(tup: Sequence[Term]) -> tuple[str, ...]:
    return tuple(term_to_sexp(t) for t in tup)


def clause_key(c: Clause) -> tuple[str, ...]:
    return tuple(sorted(literal_to_sexp(l) for l in c))


def clause_set_key(cs: ClauseSet) -> tuple[tuple[str, ...], ...]:
    return tuple(sorted(clause_key(c) for c in cs))


def clause_to_sexp(c: Clause) -> str:
    return "{" + ", ".join(sorted(literal_to_sexp(l) for l in c)) + "}"


def clause_set_to_sexp(cs: ClauseSet) -> str:
    return "{" + ", ".join(clause_to_sexp(c) for c in sorted(cs, key=clause_key)) + "}"


# ---------------------------------------------------------------------------
# Disjunctive normal form


def dnf_of(clauses: ClauseSet) -> Formula:
    """Formula for a clause set: disjunction of conjunctions, clauses and
    literals in canonical print order, unit structures flattened."""
    if not clauses:
        raise SyntaxError_("empty clause set has no normal form")
    if any(not c for c in clauses):
        raise SyntaxError_("empty clause has no normal form")
    parts = []
    for c in sorted(clauses, key=clause_key):
        lits = sorted(c, key=literal_key)
        parts.append(conj([l.formula() for l in lits]))
    return disj(parts)


# ---------------------------------------------------------------------------
# Position-difference count for instantiation tuple sets


def sharp_count(tuples: Iterable[Sequence[Term]]) -> int:
    """Number of distinct instantiation positions in a set of equal-arity
    term tuples: tuples are taken in canonical order and each contributes
    the positions at which it differs from every tuple counted before it.
    """
    tups = [tuple(t) for t in tuples]
    if not tups:
        return 0
    arities = {len(t) for t in tups}
    if len(arities) != 1:
        raise SyntaxError_(f"mixed tuple arities: {sorted(arities)}")
    total = 0
    seen: list[tuple[Term, ...]] = []
    for t in sorted(set(tups), key=tuple_key):
        fresh = sum(
            1 for s in range(len(t)) if all(t[s] != r[s] for r in seen)
        )
        total += fresh
        seen.append(t)
    return total

