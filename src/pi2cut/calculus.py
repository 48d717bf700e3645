"""Sequent-calculus engine.

One table holds all twelve inference rules, the eight propositional and
the four quantifier ones.  The propositional kernel (exhaustive invertible
decomposition), the proof builder, the rule-by-rule proof checker and the
proof reader all read it.  Also here: tautology decision by CNF
translation plus DPLL, full proof trees with cut, and the three
proof-complexity measures.

Sequent sides are sets; the axiom rule closes any sequent whose sides
share an atom, so weakening never appears explicitly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .syntax import (
    And,
    Atom,
    Exists,
    ForAll,
    Formula,
    Imp,
    Not,
    Or,
    Sequent,
    SyntaxError_,
    Term,
    Var,
    formula_key,
    formula_to_sexp,
    free_vars,
    is_quantifier_free,
    substitute,
)

# Rule labels.
AXIOM = "axiom"
NON_TAUT_LEAF = "non-taut-leaf"
AND_L = "and-l"
AND_R = "and-r"
OR_L = "or-l"
OR_R = "or-r"
IMP_L = "imp-l"
IMP_R = "imp-r"
NOT_L = "not-l"
NOT_R = "not-r"
FORALL_L = "forall-l"
FORALL_R = "forall-r"
EXISTS_L = "exists-l"
EXISTS_R = "exists-r"
CUT = "cut"

WEAK_RULES = (FORALL_L, EXISTS_R)
STRONG_RULES = (FORALL_R, EXISTS_L)

LEFT = "left"
RIGHT = "right"

ORIGIN_END = "end"
ORIGIN_CUT = "cut"


@dataclass(frozen=True)
class Node:
    """One inference (or leaf) of a derivation tree."""

    rule: str
    sequent: Sequent
    premises: tuple["Node", ...] = ()
    principal: Formula | None = None
    side: str | None = None
    witness: Term | None = None
    eigen: str | None = None
    keep: bool = False
    cut_formula: Formula | None = None

    def leaves(self) -> Iterator["Node"]:
        return (n for n in self.nodes() if not n.premises)

    def nodes(self) -> Iterator["Node"]:
        """Every node, depth first and premises left to right, walked with
        an explicit stack so that deep proofs do not exhaust the call stack."""
        stack = [self]
        while stack:
            n = stack.pop()
            yield n
            stack.extend(reversed(n.premises))


# ---------------------------------------------------------------------------
# Propositional decomposition

Policy = Callable[[Sequent, Sequence[tuple[str, Formula]]], int]

_CONNECTIVES = frozenset({Not, And, Or, Imp})


def _candidates(
    left: Iterable[Formula], right: Iterable[Formula]
) -> list[tuple[str, Formula]]:
    """The compound formulas of both sides, canonically least first."""
    out = [(LEFT, f) for f in left if type(f) in _CONNECTIVES]
    out += [(RIGHT, f) for f in right if type(f) in _CONNECTIVES]
    out.sort(key=lambda c: (formula_key(c[1]), c[0]))
    return out


_Added = tuple[tuple[Formula, ...], tuple[Formula, ...]]


def _instance(f: Formula, t: Term | None) -> Formula:
    if t is None:
        raise SyntaxError_(f"no witness or eigenvariable for {formula_to_sexp(f)}")
    return substitute(f.body, {f.var: t})  # type: ignore[union-attr]


# The inference rules: for each side and connective or quantifier, the rule
# label and, per premise, the formulas the premise adds on the left and on
# the right.  A quantifier rule adds its body instantiated at the
# inference's term: the witness of a weak rule, the eigenvariable of a
# strong one.
_RULES: dict[tuple[str, type], tuple[str, Callable[[Formula, Term | None], tuple[_Added, ...]]]] = {
    (LEFT, And): (AND_L, lambda f, _: (((f.left, f.right), ()),)),
    (LEFT, Or): (OR_L, lambda f, _: (((f.left,), ()), ((f.right,), ()))),
    (LEFT, Imp): (IMP_L, lambda f, _: (((), (f.left,)), ((f.right,), ()))),
    (LEFT, Not): (NOT_L, lambda f, _: (((), (f.sub,)),)),
    (RIGHT, And): (AND_R, lambda f, _: (((), (f.left,)), ((), (f.right,)))),
    (RIGHT, Or): (OR_R, lambda f, _: (((), (f.left, f.right)),)),
    (RIGHT, Imp): (IMP_R, lambda f, _: (((f.left,), (f.right,)),)),
    (RIGHT, Not): (NOT_R, lambda f, _: (((f.sub,), ()),)),
    (LEFT, ForAll): (FORALL_L, lambda f, t: (((_instance(f, t),), ()),)),
    (RIGHT, Exists): (EXISTS_R, lambda f, t: (((), (_instance(f, t),)),)),
    (RIGHT, ForAll): (FORALL_R, lambda f, t: (((), (_instance(f, t),)),)),
    (LEFT, Exists): (EXISTS_L, lambda f, t: (((_instance(f, t),), ()),)),
}

# Every label a proof node may carry.
RULES = frozenset({AXIOM, NON_TAUT_LEAF, CUT}.union(label for label, _ in _RULES.values()))


def _rule(side: str, f: Formula, term: Term | None = None) -> tuple[str, tuple[_Added, ...]]:
    entry = _RULES.get((side, type(f)))
    if entry is None:
        raise SyntaxError_(f"cannot decompose {formula_to_sexp(f)} on the {side}")
    label, added = entry
    return label, added(f, term)


def premises_of(
    s: Sequent, side: str, f: Formula, term: Term | None = None, keep: bool = False
) -> tuple[str, tuple[Sequent, ...]]:
    """Rule label and premises for decomposing `f` on `side` of `s`, a
    quantifier at `term`.  A weak rule with `keep` leaves `f` in place."""
    label, added = _rule(side, f, term)
    if keep and label in WEAK_RULES:
        left, right = s.left, s.right
    elif side == LEFT:
        left, right = s.left - {f}, s.right
    else:
        left, right = s.left, s.right - {f}
    return label, tuple(
        Sequent(left.union(l_add) if l_add else left, right.union(r_add) if r_add else right)
        for l_add, r_add in added
    )


def _expand(root: Sequent, stop_at_axiom: bool, policy: Policy | None) -> Node:
    """The derivation of `root`, built with an explicit stack so that long
    branches do not exhaust the call stack; a node is built after its premises."""
    built: list[Node] = []
    stack: list[Sequent | tuple[Sequent, str, str, Formula, int]] = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            s, rule, side, f, n = item
            built[-n:] = [Node(rule, s, tuple(built[-n:]), principal=f, side=side)]
        elif stop_at_axiom and item.shares_atom():
            built.append(Node(AXIOM, item))
        elif not (cands := _candidates(item.left, item.right)):
            built.append(Node(AXIOM if item.shares_atom() else NON_TAUT_LEAF, item))
        else:
            side, f = cands[policy(item, cands) if policy is not None else 0]
            rule, prem = premises_of(item, side, f)
            stack += [(item, rule, side, f, len(prem)), *reversed(prem)]
    return built[0]


def _require_quantifier_free(s: Sequent) -> None:
    for f in s.left | s.right:
        if not is_quantifier_free(f):
            raise SyntaxError_(f"quantifier in {formula_to_sexp(f)}")


def maximal_derivation(s: Sequent) -> Node:
    """Exhaustively apply the invertible propositional rules, always
    decomposing the canonically least compound formula first.

    This is the reference tree: `non_tautological_leaves` computes its
    non-tautological leaves without building it, and the tagged walk and
    the tautology oracle are tested against it.
    """
    _require_quantifier_free(s)
    return _expand(s, stop_at_axiom=False, policy=None)


def _greedy_pick(s: Sequent, cands: Sequence[tuple[str, Formula]]) -> int:
    """Prefer decompositions that close premises at once: fewest premises
    left open, then fewest premises.  Keeps constructed proofs small; the
    choice does not affect which sequents are provable."""
    best = 0
    best_key = (len(s.left) + len(s.right) + 9, 9)
    for idx, (side, f) in enumerate(cands):
        _, prem = premises_of(s, side, f)
        open_count = sum(1 for q in prem if not q.shares_atom())
        key = (open_count, len(prem))
        if key < best_key:
            best, best_key = idx, key
            if key == (0, 1):
                break
    return best


def prop_proof(s: Sequent) -> Node:
    """Propositional derivation stopping at axioms; quantified formulas are
    carried along untouched (they may ride in constructed proof branches)."""
    return _expand(s, stop_at_axiom=True, policy=_greedy_pick)


def non_tautological_leaves(s: Sequent) -> frozenset[Sequent]:
    """The `non-taut-leaf` sequents of `maximal_derivation(s)`, walked with
    an explicit stack and without building the tree.

    The walk decomposes the same canonically least compound formula first.
    That order is part of the definition of `Sehs.leaves`: sides are sets,
    so a formula that an earlier branching rule already split can merge
    with a copy of itself, and another order can leave a different
    non-tautological leaf set (each extra leaf a superset of a canonical
    one).

    A branch is dropped as soon as its two sides share an atom.  Every
    propositional rule removes only its compound principal and adds its
    subformulas, so an atom never leaves a side: every leaf below such a
    branch shares that atom and is an axiom.
    """
    _require_quantifier_free(s)
    out = set()
    stack = [s]
    while stack:
        seq = stack.pop()
        if seq.shares_atom():
            continue
        cands = _candidates(seq.left, seq.right)
        if cands:
            stack.extend(premises_of(seq, *cands[0])[1])
        else:
            out.add(seq)
    return frozenset(out)


# Tagged variant: which closing atoms of a derivation descend from a
# designated root formula.  It is the reference definition of balance;
# `solver.is_balanced` reads the same verdict from the leaf sequents
# through the solver's one literal-to-leaves index, and the tests compare
# the two.  A sequent side becomes a mapping formula -> origin; when
# decomposition merges two occurrences the tag "end" wins (such an
# occurrence has a non-cut ancestor).


def _merge(tags: dict[Formula, str], f: Formula, tag: str) -> None:
    old = tags.get(f)
    tags[f] = ORIGIN_END if ORIGIN_END in (old, tag) else ORIGIN_CUT


def tagged_leaves(
    left: dict[Formula, str], right: dict[Formula, str]
) -> Iterator[tuple[dict[Formula, str], dict[Formula, str]]]:
    """The leaves of `maximal_derivation`, in its order, with every formula
    tagged: a formula a rule adds takes the tag of the rule's principal."""
    stack = [(left, right)]
    while stack:
        left, right = stack.pop()
        cands = _candidates(left, right)
        if not cands:
            yield left, right
            continue
        side, f = cands[0]
        tag = (left if side == LEFT else right)[f]
        premises = []
        for l_add, r_add in _rule(side, f)[1]:
            nl, nr = dict(left), dict(right)
            del (nl if side == LEFT else nr)[f]
            for g in l_add:
                _merge(nl, g, tag)
            for g in r_add:
                _merge(nr, g, tag)
            premises.append((nl, nr))
        stack.extend(reversed(premises))


# ---------------------------------------------------------------------------
# Tautology decision


def _sat(in_clauses: list[list[int]]) -> bool:
    """Propositional satisfiability: unit propagation over watched
    literals, conflict analysis to the first unique implication point with
    backjumping, and activity-guided decisions.  Variables are positive
    integers, literals signed."""
    db: list[list[int]] = []
    for cl in in_clauses:
        cl = list(dict.fromkeys(cl))
        if not cl:
            return False
        if any(-l in cl for l in cl):
            continue
        db.append(cl)
    if not db:
        return True
    nvars = max(abs(l) for cl in db for l in cl)
    assign = [0] * (nvars + 1)  # 0 open, +1 true, -1 false
    level = [0] * (nvars + 1)
    reason = [-1] * (nvars + 1)
    activity = [0.0] * (nvars + 1)
    watches: dict[int, list[int]] = {}
    trail: list[int] = []
    limits: list[int] = []
    qhead = 0
    bump = 1.0

    def value(lit: int) -> int:
        v = assign[abs(lit)]
        if v == 0:
            return 0
        return 1 if (v > 0) == (lit > 0) else -1

    def enqueue(lit: int, rs: int) -> None:
        nonlocal trail
        var = abs(lit)
        assign[var] = 1 if lit > 0 else -1
        level[var] = len(limits)
        reason[var] = rs
        trail.append(lit)

    for i, cl in enumerate(db):
        if len(cl) == 1:
            if value(cl[0]) == -1:
                return False
            if value(cl[0]) == 0:
                enqueue(cl[0], -1)
        else:
            watches.setdefault(cl[0], []).append(i)
            watches.setdefault(cl[1], []).append(i)

    def propagate() -> int:
        nonlocal qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            old = watches.get(false_lit)
            if not old:
                continue
            kept: list[int] = []
            pos = 0
            while pos < len(old):
                ci = old[pos]
                pos += 1
                cl = db[ci]
                if cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], cl[0]
                if value(cl[0]) == 1:
                    kept.append(ci)
                    continue
                for k in range(2, len(cl)):
                    if value(cl[k]) != -1:
                        cl[1], cl[k] = cl[k], cl[1]
                        watches.setdefault(cl[1], []).append(ci)
                        break
                else:
                    kept.append(ci)
                    if value(cl[0]) == -1:
                        kept.extend(old[pos:])
                        watches[false_lit] = kept
                        return ci
                    enqueue(cl[0], ci)
            watches[false_lit] = kept
        return -1

    def analyze(ci: int) -> tuple[list[int], int]:
        nonlocal bump
        seen = set()
        learned: list[int] = []
        pending = 0
        idx = len(trail) - 1
        current = len(limits)
        side = db[ci]
        while True:
            for l in side:
                var = abs(l)
                if var in seen or level[var] == 0:
                    continue
                seen.add(var)
                activity[var] += bump
                if level[var] == current:
                    pending += 1
                else:
                    learned.append(l)
            while abs(trail[idx]) not in seen:
                idx -= 1
            t = trail[idx]
            idx -= 1
            seen.discard(abs(t))
            pending -= 1
            if pending == 0:
                learned.insert(0, -t)
                break
            side = [l for l in db[reason[abs(t)]] if l != t]
        bump *= 1.05
        if bump > 1e100:
            for v in range(nvars + 1):
                activity[v] *= 1e-100
            bump = 1.0
        back = 0 if len(learned) == 1 else max(level[abs(l)] for l in learned[1:])
        return learned, back

    def backjump(to_level: int) -> None:
        nonlocal qhead
        while len(limits) > to_level:
            mark = limits.pop()
            while len(trail) > mark:
                var = abs(trail.pop())
                assign[var] = 0
                reason[var] = -1
        qhead = len(trail)

    while True:
        conflict = propagate()
        if conflict != -1:
            if not limits:
                return False
            learned, back = analyze(conflict)
            backjump(back)
            db.append(learned)
            nci = len(db) - 1
            if len(learned) > 1:
                for k in range(1, len(learned)):
                    if level[abs(learned[k])] == back:
                        learned[1], learned[k] = learned[k], learned[1]
                        break
                watches.setdefault(learned[0], []).append(nci)
                watches.setdefault(learned[1], []).append(nci)
                enqueue(learned[0], nci)
            else:
                enqueue(learned[0], -1)
            continue
        decision = 0
        best = -1.0
        for v in range(1, nvars + 1):
            if assign[v] == 0 and activity[v] > best:
                decision, best = v, activity[v]
        if decision == 0:
            return True
        limits.append(len(trail))
        enqueue(-decision, -1)


class _Cnf:
    """CNF translation with definitional variables for compound formulas."""

    def __init__(self) -> None:
        self.clauses: list[list[int]] = []
        self._atoms: dict[Formula, int] = {}
        self._defs: dict[Formula, int] = {}
        self._next = 1

    def _fresh(self) -> int:
        v = self._next
        self._next += 1
        return v

    def lit_of(self, f: Formula) -> int:
        if isinstance(f, Atom):
            if f not in self._atoms:
                self._atoms[f] = self._fresh()
            return self._atoms[f]
        if isinstance(f, Not):
            return -self.lit_of(f.sub)
        if f in self._defs:
            return self._defs[f]
        if isinstance(f, And):
            a, b = self.lit_of(f.left), self.lit_of(f.right)
            v = self._fresh()
            self.clauses += [[-v, a], [-v, b], [v, -a, -b]]
        elif isinstance(f, Or):
            a, b = self.lit_of(f.left), self.lit_of(f.right)
            v = self._fresh()
            self.clauses += [[-v, a, b], [v, -a], [v, -b]]
        elif isinstance(f, Imp):
            a, b = self.lit_of(f.left), self.lit_of(f.right)
            v = self._fresh()
            self.clauses += [[-v, -a, b], [v, a], [v, -b]]
        else:
            raise SyntaxError_(f"quantifier in {formula_to_sexp(f)}")
        self._defs[f] = v
        return v


def is_tautology(s: Sequent) -> bool:
    """Validity of a quantifier-free sequent; free variables are read as
    uninterpreted constants, distinct ground atoms as independent
    propositional variables."""
    cnf = _Cnf()
    for f in sorted(s.left, key=formula_key):
        cnf.clauses.append([cnf.lit_of(f)])
    for f in sorted(s.right, key=formula_key):
        cnf.clauses.append([-cnf.lit_of(f)])
    return not _sat(cnf.clauses)


# ---------------------------------------------------------------------------
# Proof checking


@dataclass
class CheckReport:
    ok: bool
    error: str | None = None
    path: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _fail(path: tuple[int, ...], msg: str) -> CheckReport:
    return CheckReport(False, msg, path)


def _stray_field(n: Node) -> str | None:
    """The first field of the node that its rule does not read, by its
    name in proof files."""
    if n.eigen is not None and n.rule not in STRONG_RULES:
        return "eigen"
    if n.witness is not None and n.rule not in WEAK_RULES:
        return "witness"
    if n.keep and n.rule not in WEAK_RULES:
        return "keep"
    if n.cut_formula is not None and n.rule != CUT:
        return "cut-formula"
    if (n.principal is not None or n.side is not None) and n.rule in (AXIOM, CUT):
        return "principal"
    return None


def _check_node(n: Node, path: tuple[int, ...]) -> CheckReport:
    s = n.sequent
    stray = _stray_field(n)
    if stray is not None:
        return _fail(path, f"{n.rule} takes no {stray} field")
    if n.rule == AXIOM:
        if n.premises:
            return _fail(path, "axiom with premises")
        if not s.shares_atom():
            return _fail(path, "axiom sides share no atom")
        return CheckReport(True)
    if n.rule == NON_TAUT_LEAF:
        return _fail(path, "non-tautological leaf in proof")
    if n.rule == CUT:
        if len(n.premises) != 2 or n.cut_formula is None:
            return _fail(path, "cut needs a cut formula and two premises")
        c = n.cut_formula
        lp, rp = n.premises[0].sequent, n.premises[1].sequent
        if c not in lp.right:
            return _fail(path, "cut formula missing from left premise succedent")
        if c not in rp.left:
            return _fail(path, "cut formula missing from right premise antecedent")
        if not (lp.left <= s.left and lp.right - {c} <= s.right):
            return _fail(path, "left cut premise has formulas outside the conclusion")
        if not (rp.left - {c} <= s.left and rp.right <= s.right):
            return _fail(path, "right cut premise has formulas outside the conclusion")
        return CheckReport(True)

    if n.principal is None or n.side not in (LEFT, RIGHT):
        return _fail(path, f"{n.rule} needs a principal formula and side")
    f = n.principal
    here = s.left if n.side == LEFT else s.right
    if f not in here:
        return _fail(path, "principal formula not in the conclusion")

    # A strong rule's term is its eigenvariable, a weak rule's its witness.
    term = n.witness
    if n.rule in STRONG_RULES:
        if n.eigen is None:
            return _fail(path, f"{n.rule} needs an eigenvariable")
        if any(n.eigen in free_vars(g) for g in s.left | s.right):
            return _fail(path, f"eigenvariable {n.eigen} occurs in the conclusion")
        term = Var(n.eigen)
    try:
        rule, want_seqs = premises_of(s, n.side, f, term, n.keep)
    except SyntaxError_ as e:
        return _fail(path, str(e))
    if rule != n.rule:
        return _fail(path, f"rule {n.rule} does not fit principal {formula_to_sexp(f)}")
    if len(n.premises) != len(want_seqs):
        return _fail(path, f"{n.rule} needs {len(want_seqs)} premises")
    got = tuple(p.sequent for p in n.premises)
    if got != want_seqs and set(got) != set(want_seqs):
        return _fail(path, f"{n.rule} premises do not match the rule schema")
    return CheckReport(True)


def check_proof(root: Node) -> CheckReport:
    """Validate every inference, every leaf, eigenvariable freshness and
    cut-formula bookkeeping; reports the first failing node."""
    eigens: dict[str, tuple[int, ...]] = {}
    stack: list[tuple[Node, tuple[int, ...]]] = [(root, ())]
    while stack:
        n, path = stack.pop()
        rep = _check_node(n, path)
        if not rep.ok:
            return rep
        if n.eigen is not None:
            if n.eigen in eigens:
                return _fail(path, f"eigenvariable {n.eigen} used by two inferences")
            eigens[n.eigen] = path
        for i, p in enumerate(n.premises):
            stack.append((p, path + (i,)))
    return CheckReport(True)


# ---------------------------------------------------------------------------
# Complexity measures


@dataclass(frozen=True)
class ComplexityTriple:
    quantifier: int
    logical: int
    symbols: int


def symbol_count(s: Sequent) -> int:
    """Occurrences of signature symbols, variables, connectives,
    quantifiers, separating commas and the turnstile.  Each symbol of a
    formula is one token of its canonical text (a quantifier and its
    variable are two), and the printer puts one space between consecutive
    tokens and adds only parentheses, so a formula has one symbol more
    than its text has spaces.  Names are single tokens, as the reader,
    proof files, sort keys and the round trip require."""
    return _symbols((s,))


def _symbols(sequents: Iterable[Sequent]) -> int:
    """The symbol counts of `sequents` summed, reading each distinct
    formula's count off its cached text once."""
    occurrences: Counter[Formula] = Counter()
    total = 0
    for s in sequents:
        occurrences.update(s.left)
        occurrences.update(s.right)
        total += max(0, len(s.left) - 1) + max(0, len(s.right) - 1) + 1
    return total + sum(
        k * (formula_to_sexp(f).count(" ") + 1) for f, k in occurrences.items()
    )


def complexities(p: Node) -> ComplexityTriple:
    """The weak quantifier inferences, the inferences, and the symbols:
    each sequent's canonical-text tokens plus its separating commas and
    turnstile (see `symbol_count`), and one per inference line."""
    q = logical = 0
    sequents = []
    for n in p.nodes():
        sequents.append(n.sequent)
        if n.premises:
            logical += 1
        if n.rule in WEAK_RULES:
            q += 1
    return ComplexityTriple(q, logical, _symbols(sequents) + logical)
