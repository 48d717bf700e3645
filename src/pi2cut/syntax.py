"""First-order syntax kernel.

Terms, quantifier-free and quantified formulas, literals, clause sets,
sequents, simultaneous substitution, disjunctive normal form and the
position-difference count used to measure instantiation sets.

Everything here is immutable and printed in a canonical s-expression
syntax; the printed form doubles as the canonical sort key, so every
set-valued result in the package can be ordered deterministically.
Terms, formulas and literals are hash-consed: one object per distinct
structure, compared and hashed by identity, each keeping its printed
form once computed.
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, dataclass
from typing import Any, Iterable, Mapping, Sequence

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
# Hash-consed nodes
#
# Terms, formulas and literals are interned at construction: each class
# keeps one table from field tuple to node and returns the existing node
# when there is one, so structurally equal nodes are one object, and
# equality and hashing are the default identity versions.  Each node also
# keeps its canonical s-expression once printed and, for terms and
# formulas, its free variables once computed.
#
# The tables are deliberate module-level state.  They hold every distinct
# node for the life of the process (the command line runs one process per
# command); they can change no result, only object identity and memory.

_new = object.__new__
_set = object.__setattr__

_VARS: dict[str, Var] = {}
_APPS: dict[tuple[str, tuple[Term, ...]], App] = {}
_ATOMS: dict[tuple[str, tuple[Term, ...]], Atom] = {}
_NOTS: dict[Formula, Not] = {}
_ANDS: dict[tuple[Formula, Formula], And] = {}
_ORS: dict[tuple[Formula, Formula], Or] = {}
_IMPS: dict[tuple[Formula, Formula], Imp] = {}
_FORALLS: dict[tuple[str, Formula], ForAll] = {}
_EXISTS: dict[tuple[str, Formula], Exists] = {}
_LITERALS: dict[tuple[bool, Atom], Literal] = {}


class _Interned:
    """Immutable node built once per distinct field tuple.  `_key` holds
    the canonical s-expression once printed, `_fv` the free variables
    once computed; each is None before."""

    __slots__ = ("_key", "_fv")
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        # Copies and unpickled nodes are rebuilt through the constructor,
        # so they come back as the interned node.
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


def _pair(table: dict[Any, Any], cls: type, key: tuple[Any, Any], first: str, second: str) -> Any:
    """A new node of a two-field class, entered in its table."""
    node = _new(cls)
    _set(node, first, key[0])
    _set(node, second, key[1])
    _set(node, "_key", None)
    _set(node, "_fv", None)
    table[key] = node
    return node


# ---------------------------------------------------------------------------
# Terms


class Term(_Interned):
    __slots__ = ()


class Var(Term):
    __slots__ = ("name",)
    __match_args__ = ("name",)
    name: str

    def __new__(cls, name: str) -> Var:
        node = _VARS.get(name)
        if node is None:
            node = _VARS[name] = _new(cls)
            _set(node, "name", name)
            _set(node, "_key", name)
            _set(node, "_fv", None)
        return node


class App(Term):
    __slots__ = ("fn", "args")
    __match_args__ = ("fn", "args")
    fn: str
    args: tuple[Term, ...]

    def __new__(cls, fn: str, args: tuple[Term, ...] = ()) -> App:
        key = (fn, args)
        node = _APPS.get(key)
        if node is None:
            node = _pair(_APPS, cls, key, "fn", "args")
            if not args:
                _set(node, "_key", fn)
        return node


def const(name: str) -> App:
    return App(name, ())


# ---------------------------------------------------------------------------
# Formulas


class Formula(_Interned):
    __slots__ = ()


class Atom(Formula):
    __slots__ = ("pred", "args")
    __match_args__ = ("pred", "args")
    pred: str
    args: tuple[Term, ...]

    def __new__(cls, pred: str, args: tuple[Term, ...] = ()) -> Atom:
        key = (pred, args)
        node = _ATOMS.get(key)
        return _pair(_ATOMS, cls, key, "pred", "args") if node is None else node


class Not(Formula):
    __slots__ = ("sub",)
    __match_args__ = ("sub",)
    sub: Formula

    def __new__(cls, sub: Formula) -> Not:
        node = _NOTS.get(sub)
        if node is None:
            node = _NOTS[sub] = _new(cls)
            _set(node, "sub", sub)
            _set(node, "_key", None)
            _set(node, "_fv", None)
        return node


class And(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")
    left: Formula
    right: Formula

    def __new__(cls, left: Formula, right: Formula) -> And:
        key = (left, right)
        node = _ANDS.get(key)
        return _pair(_ANDS, cls, key, "left", "right") if node is None else node


class Or(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")
    left: Formula
    right: Formula

    def __new__(cls, left: Formula, right: Formula) -> Or:
        key = (left, right)
        node = _ORS.get(key)
        return _pair(_ORS, cls, key, "left", "right") if node is None else node


class Imp(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")
    left: Formula
    right: Formula

    def __new__(cls, left: Formula, right: Formula) -> Imp:
        key = (left, right)
        node = _IMPS.get(key)
        return _pair(_IMPS, cls, key, "left", "right") if node is None else node


class ForAll(Formula):
    __slots__ = ("var", "body")
    __match_args__ = ("var", "body")
    var: str
    body: Formula

    def __new__(cls, var: str, body: Formula) -> ForAll:
        key = (var, body)
        node = _FORALLS.get(key)
        return _pair(_FORALLS, cls, key, "var", "body") if node is None else node


class Exists(Formula):
    __slots__ = ("var", "body")
    __match_args__ = ("var", "body")
    var: str
    body: Formula

    def __new__(cls, var: str, body: Formula) -> Exists:
        key = (var, body)
        node = _EXISTS.get(key)
        return _pair(_EXISTS, cls, key, "var", "body") if node is None else node


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


# ---------------------------------------------------------------------------
# Free variables and substitution

Substitution = Mapping[str, Term]


def free_vars(e: Term | Formula) -> frozenset[str]:
    """The variables free in a term or formula, computed once per node."""
    if not isinstance(e, (Term, Formula)):
        raise SyntaxError_(f"not a term or formula: {e!r}")
    fv = e._fv
    if fv is None:
        fv = _compute_free_vars(e)
        _set(e, "_fv", fv)
    return fv


def _compute_free_vars(e: Term | Formula) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, (App, Atom)):
        return frozenset().union(*map(free_vars, e.args))
    if isinstance(e, Not):
        return free_vars(e.sub)
    if isinstance(e, (And, Or, Imp)):
        return free_vars(e.left) | free_vars(e.right)
    assert isinstance(e, (ForAll, Exists))
    return free_vars(e.body) - {e.var}


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


# ---------------------------------------------------------------------------
# Literals and clauses


class Literal(_Interned):
    __slots__ = ("positive", "atom")
    __match_args__ = ("positive", "atom")
    positive: bool
    atom: Atom

    def __new__(cls, positive: bool, atom: Atom) -> Literal:
        key = (positive, atom)
        node = _LITERALS.get(key)
        return _pair(_LITERALS, cls, key, "positive", "atom") if node is None else node

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


# ---------------------------------------------------------------------------
# Canonical printing


def term_to_sexp(t: Term) -> str:
    s = t._key
    if s is None:
        assert isinstance(t, App)
        s = "(" + " ".join([t.fn] + [term_to_sexp(a) for a in t.args]) + ")"
        _set(t, "_key", s)
    return s


def _print_formula(f: Formula) -> str:
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
    assert isinstance(f, Exists)
    return f"(exists {f.var} {formula_to_sexp(f.body)})"


def formula_to_sexp(f: Formula) -> str:
    if not isinstance(f, Formula):
        raise SyntaxError_(f"not a formula: {f!r}")
    s = f._key
    if s is None:
        s = _print_formula(f)
        _set(f, "_key", s)
    return s


def literal_to_sexp(lit: Literal) -> str:
    s = lit._key
    if s is None:
        s = formula_to_sexp(lit.formula())
        _set(lit, "_key", s)
    return s


# The printed form is the canonical sort key.
term_key = term_to_sexp
formula_key = formula_to_sexp
literal_key = literal_to_sexp


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

