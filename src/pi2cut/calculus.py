"""Sequent-calculus engine.

One table holds all twelve inference rules, the eight propositional and
the four quantifier ones.  The propositional kernel (exhaustive invertible
decomposition), the proof builder, the rule-by-rule proof checker and the
proof printer and reader all read it, the last three through the premise
sequents a node's rule data fixes.  Also here: tautology decision by CNF
translation plus a clause-learning SAT core, full proof trees with cut,
and the three proof-complexity measures.

Sequent sides are sets; the axiom rule closes any sequent whose sides
share an atom, so weakening never appears explicitly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
    instance,
    is_quantifier_free,
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
    return instance(f, t)


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


def premises_of(
    s: Sequent, side: str, f: Formula, term: Term | None = None, keep: bool = False
) -> tuple[str, tuple[Sequent, ...]]:
    """Rule label and premises for decomposing `f` on `side` of `s`, a
    quantifier at `term`.  A weak rule with `keep` leaves `f` in place."""
    entry = _RULES.get((side, type(f)))
    if entry is None:
        raise SyntaxError_(f"cannot decompose {formula_to_sexp(f)} on the {side}")
    label, added = entry
    if keep and label in WEAK_RULES:
        left, right = s.left, s.right
    elif side == LEFT:
        left, right = s.left - {f}, s.right
    else:
        left, right = s.left, s.right - {f}
    return label, tuple(
        Sequent(left.union(l_add) if l_add else left, right.union(r_add) if r_add else right)
        for l_add, r_add in added(f, term)
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

    This is the reference tree: `leaf_masks` computes its non-tautological
    leaves without building it, and the tagged walk and the tautology
    oracle are tested against it.
    """
    _require_quantifier_free(s)
    return _expand(s, stop_at_axiom=False, policy=None)


def _greedy_pick(s: Sequent, cands: Sequence[tuple[str, Formula]]) -> int:
    """Prefer decompositions that close premises at once: fewest premises
    left open, then fewest premises.  Keeps constructed proofs small; the
    choice does not affect which sequents are provable.

    `prop_proof` asks only when the sides of `s` share no atom, and every
    candidate is compound, so a premise shares an atom exactly when an
    atom the rule adds on one side is on the other side of `s` or is added
    there.  The premises themselves are not built."""
    best = 0
    best_key = (len(s.left) + len(s.right) + 9, 9)
    for idx, (side, f) in enumerate(cands):
        added = _RULES[(side, type(f))][1](f, None)
        open_count = sum(
            1
            for l_add, r_add in added
            if not any(type(g) is Atom and (g in s.right or g in r_add) for g in l_add)
            and not any(type(g) is Atom and g in s.left for g in r_add)
        )
        key = (open_count, len(added))
        if key < best_key:
            best, best_key = idx, key
            if key == (0, 1):
                break
    return best


def prop_proof(s: Sequent) -> Node:
    """Propositional derivation stopping at axioms; quantified formulas are
    carried along untouched (they may ride in constructed proof branches)."""
    return _expand(s, stop_at_axiom=True, policy=_greedy_pick)


class LeafMasks(NamedTuple):
    """Leaves as pairs of bit masks: bit i of a side stands for
    `formulas[i]`, and `pairs` lists each leaf's (left, right) once."""

    formulas: tuple[Formula, ...]
    pairs: tuple[tuple[int, int], ...]

    def decode(self, mask: int) -> frozenset[Formula]:
        """The formulas whose bits are set in `mask`."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.formulas[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def sequents(self) -> Iterator[Sequent]:
        """The leaves as sequents, in the order of `pairs`."""
        return (Sequent(self.decode(left), self.decode(right)) for left, right in self.pairs)


def leaf_masks(s: Sequent) -> LeafMasks:
    """The `non-taut-leaf` sequents of `maximal_derivation(s)`, in its leaf
    order with repeats left out, walked with an explicit stack and without
    building the tree or any sequent.

    The subformulas of `s` are ranked by `formula_key`, so a side is a bit
    mask and the canonically least compound formula of a branch is the
    lowest compound bit set on either side; on both sides, the left copy
    goes first, as in `_candidates`.  What each premise of each rule adds
    is read once per compound formula and side from the rule table.

    That order is part of the definition of `Sehs.leaf_masks`: sides are sets,
    so a formula that an earlier branching rule already split can merge
    with a copy of itself, and another order can leave a different
    non-tautological leaf set (each extra leaf a superset of a canonical
    one).

    A branch is dropped as soon as its two sides share an atom, before it
    is put on the stack.  Every propositional rule removes only its
    compound principal and adds its subformulas, so an atom never leaves a
    side: every leaf below such a branch shares that atom and is an axiom.
    """
    _require_quantifier_free(s)
    subs: set[Formula] = set()
    todo = [*s.left, *s.right]
    while todo:
        f = todo.pop()
        if f not in subs:
            subs.add(f)
            if type(f) is Not:
                todo.append(f.sub)
            elif type(f) is not Atom:
                todo += (f.left, f.right)
    formulas = tuple(sorted(subs, key=formula_key))
    bit = {f: 1 << i for i, f in enumerate(formulas)}

    def mask(fs: Iterable[Formula]) -> int:
        out = 0
        for f in fs:
            out |= bit[f]
        return out

    def premise_masks(side: str, f: Formula) -> tuple[tuple[int, int], ...]:
        """The (left, right) masks each premise of the rule for `f` on
        `side` adds, last premise first so that the stack pops the first
        one first."""
        added = _RULES[(side, type(f))][1](f, None)
        return tuple((mask(l_add), mask(r_add)) for l_add, r_add in reversed(added))

    atoms = mask(f for f in formulas if type(f) is Atom)
    compound = mask(formulas) ^ atoms
    # Per rank of a compound formula, the premise masks of its left and its right rule.
    adds = [
        () if type(f) is Atom else (premise_masks(LEFT, f), premise_masks(RIGHT, f))
        for f in formulas
    ]
    out: dict[tuple[int, int], None] = {}
    left, right = mask(s.left), mask(s.right)
    stack = [] if left & right & atoms else [(left, right)]
    while stack:
        left, right = stack.pop()
        principal = (left | right) & compound
        if not principal:
            out[left, right] = None
            continue
        principal &= -principal
        on_left, on_right = adds[principal.bit_length() - 1]
        if left & principal:
            left ^= principal
            premises = on_left
        else:
            right ^= principal
            premises = on_right
        for l_add, r_add in premises:
            l_add |= left
            r_add |= right
            if not l_add & r_add & atoms:
                stack.append((l_add, r_add))
    return LeafMasks(formulas, tuple(out))


def non_tautological_leaves(s: Sequent) -> frozenset[Sequent]:
    """The `non-taut-leaf` sequents of `maximal_derivation(s)`: the leaves
    of `leaf_masks(s)` as sequents."""
    return frozenset(leaf_masks(s).sequents())


# Ancestry: which formulas of a derivation descend from the end sequent.
# It is the reference definition of balance; `solver.is_balanced` reads
# the same verdict from the leaf sequents through the solver's one
# literal-to-leaves index, and the tests compare the two.


def tagged_leaves(s: Sequent, end: Sequent) -> Iterator[tuple[Sequent, Sequent]]:
    """The leaves of `maximal_derivation(s)`, in its order, each with its
    end part: the formulas with an ancestor in `end`, a subsequent of `s`.

    A rule whose principal formula is in the end part decomposes the end
    part alike; any other rule leaves it as it is, so a formula the rule
    adds belongs to the end part only if it already did."""
    stack = [(s, end)]
    while stack:
        seq, part = stack.pop()
        cands = _candidates(seq.left, seq.right)
        if not cands:
            yield seq, part
            continue
        side, f = cands[0]
        premises = premises_of(seq, side, f)[1]
        if f in (part.left if side == LEFT else part.right):
            parts = premises_of(part, side, f)[1]
        else:
            parts = (part,) * len(premises)
        stack.extend(reversed(list(zip(premises, parts))))


# ---------------------------------------------------------------------------
# Tautology decision


def _sat(in_clauses: list[list[int]]) -> bool:
    """Propositional satisfiability: unit propagation over watched
    literals, conflict analysis to the first unique implication point with
    backjumping (Marques-Silva & Sakallah, 1999), and decisions on the
    lowest open variable, false first.  Variables are positive integers,
    literals signed."""
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
    reason = [-1] * (nvars + 1)  # the clause that forced the variable
    watches: dict[int, list[int]] = {}
    trail: list[int] = []
    limits: list[int] = []  # trail index of each decision
    qhead = 0

    def value(lit: int) -> int:
        v = assign[abs(lit)]
        if v == 0:
            return 0
        return 1 if (v > 0) == (lit > 0) else -1

    def enqueue(lit: int, ci: int) -> None:
        var = abs(lit)
        assign[var] = 1 if lit > 0 else -1
        level[var] = len(limits)
        reason[var] = ci
        trail.append(lit)

    for i, cl in enumerate(db):
        if len(cl) == 1:
            if value(cl[0]) == -1:
                return False
            if value(cl[0]) == 0:
                enqueue(cl[0], i)
        else:
            watches.setdefault(cl[0], []).append(i)
            watches.setdefault(cl[1], []).append(i)

    def propagate() -> int:
        """Unit propagation; the index of a falsified clause, or -1."""
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

    def analyze(ci: int) -> list[int]:
        """The clause learned from falsified clause `ci`: resolve back
        along the trail until one literal of the current level is left.
        That literal comes first, then one of the highest level below."""
        seen = set()
        learned = [0]
        pending = 0
        idx = len(trail) - 1
        side = db[ci]
        while True:
            for l in side:
                var = abs(l)
                if var in seen or level[var] == 0:
                    continue
                seen.add(var)
                if level[var] == len(limits):
                    pending += 1
                else:
                    learned.append(l)
            while abs(trail[idx]) not in seen:
                idx -= 1
            t = trail[idx]
            idx -= 1
            pending -= 1
            if pending == 0:
                learned[0] = -t
                break
            side = [l for l in db[reason[abs(t)]] if l != t]
        if len(learned) > 1:
            k = max(range(1, len(learned)), key=lambda i: level[abs(learned[i])])
            learned[1], learned[k] = learned[k], learned[1]
        return learned

    while True:
        ci = propagate()
        if ci != -1:
            if not limits:
                return False
            learned = analyze(ci)
            # Undo every level above the highest one below the conflict's:
            # there the learned clause forces its first literal.
            back = level[abs(learned[1])] if len(learned) > 1 else 0
            mark = limits[back]
            del limits[back:]
            for l in trail[mark:]:
                assign[abs(l)] = 0
            del trail[mark:]
            qhead = mark
            db.append(learned)
            if len(learned) > 1:
                watches.setdefault(learned[0], []).append(len(db) - 1)
                watches.setdefault(learned[1], []).append(len(db) - 1)
            enqueue(learned[0], len(db) - 1)
            continue
        var = next((v for v in range(1, nvars + 1) if assign[v] == 0), 0)
        if var == 0:
            return True
        limits.append(len(trail))
        enqueue(-var, -1)


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


def premise_sequents(n: Node, count: int) -> tuple[Sequent, ...] | str:
    """The premise sequents that the rule data of `n` fixes, given that it
    has `count` premises: its rule, conclusion, principal formula and
    side, witness or eigenvariable, and `keep`.  Where they are not fixed,
    the reason: a leaf or a cut, a missing principal or term, a principal
    that is not in the conclusion or does not fit the rule, or a premise
    count other than the rule's.  The checker compares a node's premises
    with these, and a proof file leaves out the premise sequents they give."""
    if n.rule in (AXIOM, NON_TAUT_LEAF):
        return f"{n.rule} has no premises"
    if n.rule == CUT:
        return "cut premises are not fixed by the cut formula"
    f = n.principal
    if f is None or n.side not in (LEFT, RIGHT):
        return f"{n.rule} needs a principal formula and side"
    if f not in (n.sequent.left if n.side == LEFT else n.sequent.right):
        return "principal formula not in the conclusion"
    # A strong rule's term is its eigenvariable, a weak rule's its witness.
    term = n.witness
    if n.rule in STRONG_RULES:
        if n.eigen is None:
            return f"{n.rule} needs an eigenvariable"
        term = Var(n.eigen)
    try:
        rule, premises = premises_of(n.sequent, n.side, f, term, n.keep)
    except SyntaxError_ as e:
        return str(e)
    if rule != n.rule:
        return f"rule {n.rule} does not fit principal {formula_to_sexp(f)}"
    if count != len(premises):
        return f"{n.rule} needs {len(premises)} premises"
    return premises


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

    want = premise_sequents(n, len(n.premises))
    if isinstance(want, str):
        return _fail(path, want)
    if n.rule in STRONG_RULES and any(n.eigen in free_vars(g) for g in s.left | s.right):
        return _fail(path, f"eigenvariable {n.eigen} occurs in the conclusion")
    got = tuple(p.sequent for p in n.premises)
    if got != want and set(got) != set(want):
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
