"""Herbrand instance sets, extended sequents and proof construction.

A prenex problem is an end-sequent ``forall xs.F |- exists ys.G`` with
quantifier-free matrices.  A Herbrand instance set makes it valid by pure
instantiation; an extended sequent additionally encodes one cut of shape
``forall x exists y. A`` through an implication between the cut's instance
disjunction and conjunction.  Both kinds of witness data convert into
checked proofs: instantiation tuples are introduced along a prefix trie,
so tuples differing only in a suffix share their leading inferences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import calculus
from .calculus import Node, check_proof, is_tautology, premises_of, prop_proof
from .grammar import HerbrandInstanceSet, SchematicPi2Grammar, validate
from .syntax import (
    ALPHA,
    Exists,
    ForAll,
    Formula,
    Imp,
    Sequent,
    SyntaxError_,
    Term,
    Var,
    X,
    Y,
    beta,
    conj,
    disj,
    exists_block,
    forall_block,
    formula_key,
    free_vars,
    is_quantifier_free,
    is_reserved,
    sharp_count,
    substitute,
    tuple_key,
)


class HerbrandError(Exception):
    pass


class NotTautological(HerbrandError):
    """The given instance data does not make the sequent valid."""


@dataclass(frozen=True)
class PrenexProblem:
    """End-sequent ``forall xs.F |- exists ys.G``; F and G quantifier-free
    with variables among xs and ys respectively."""

    signature: object  # Signature
    forall_vars: tuple[str, ...]
    exists_vars: tuple[str, ...]
    antecedent: Formula
    succedent: Formula

    def __post_init__(self) -> None:
        for v in tuple(self.forall_vars) + tuple(self.exists_vars):
            if is_reserved(v):
                raise SyntaxError_(f"'{v}' is reserved and cannot be a block variable")
        if not is_quantifier_free(self.antecedent) or not is_quantifier_free(self.succedent):
            raise SyntaxError_("matrices must be quantifier-free")
        if free_vars(self.antecedent) - set(self.forall_vars):
            raise SyntaxError_("antecedent uses variables outside the universal block")
        if free_vars(self.succedent) - set(self.exists_vars):
            raise SyntaxError_("succedent uses variables outside the existential block")

    def universal(self) -> Formula:
        return forall_block(self.forall_vars, self.antecedent)

    def existential(self) -> Formula:
        return exists_block(self.exists_vars, self.succedent)

    def end_sequent(self) -> Sequent:
        return Sequent.of([self.universal()], [self.existential()])


def instantiate(matrix: Formula, vars_: Sequence[str], tup: Sequence[Term]) -> Formula:
    if len(vars_) != len(tup):
        raise HerbrandError(f"tuple arity {len(tup)} does not match block of {len(vars_)}")
    return substitute(matrix, dict(zip(vars_, tup)))


def midsequent(pb: PrenexProblem, inst: HerbrandInstanceSet | SchematicPi2Grammar) -> Sequent:
    """The F instances of the f-tuples and G instances of the g-tuples of `inst`."""
    left = [instantiate(pb.antecedent, pb.forall_vars, t) for t in inst.f_tuples]
    right = [instantiate(pb.succedent, pb.exists_vars, t) for t in inst.g_tuples]
    return Sequent.of(left, right)


def herbrand_check(pb: PrenexProblem, inst: HerbrandInstanceSet) -> tuple[bool, int]:
    """Validity of the instantiated sequent and the position-difference
    count of its instance tuples."""
    valid = is_tautology(midsequent(pb, inst))
    complexity = sharp_count(inst.f_tuples) + sharp_count(inst.g_tuples)
    return valid, complexity


# ---------------------------------------------------------------------------
# Extended sequents


def cut_instances(matrix: Formula, g: SchematicPi2Grammar) -> tuple[list[Formula], list[Formula]]:
    """The cut matrix's alpha instances A[x\\alpha, y\\t_i], one per
    existential witness term, and its beta instances A[x\\r_j, y\\b_j], one
    per universal witness term."""
    alphas = [substitute(matrix, {X: Var(ALPHA), Y: t}) for t in g.t_terms]
    betas = [substitute(matrix, {X: r, Y: Var(beta(j))}) for j, r in enumerate(g.r_terms, 1)]
    return alphas, betas


@dataclass(frozen=True)
class ExtendedHerbrandSequent:
    """Instance data for a proof with one cut ``forall x exists y. A``.

    The antecedent tuples range over ``alpha``, the succedent tuples over
    the cut eigenvariables ``b1..bm``; the universal and existential
    witness terms come from the accompanying schematic grammar fields."""

    problem: PrenexProblem
    grammar: SchematicPi2Grammar
    cut_matrix: Formula

    def __post_init__(self) -> None:
        if not is_quantifier_free(self.cut_matrix):
            raise SyntaxError_("cut matrix must be quantifier-free")
        if free_vars(self.cut_matrix) - {X, Y}:
            raise SyntaxError_("cut matrix may use only the variables x and y")
        violations = validate(self.grammar)
        if violations:
            raise HerbrandError("; ".join(violations))

    def cut_formula(self) -> Formula:
        return ForAll(X, Exists(Y, self.cut_matrix))

    def instance_sequent(self) -> Sequent:
        """The F and G instances of the grammar's tuples."""
        return midsequent(self.problem, self.grammar)

    def sequent(self) -> Sequent:
        mid = self.instance_sequent()
        alphas, betas = cut_instances(self.cut_matrix, self.grammar)
        return Sequent(mid.left | {Imp(disj(alphas), conj(betas))}, mid.right)

    def complexity(self) -> int:
        """Tuple-slot count: every tuple coordinate and witness term once."""
        g = self.grammar
        k = len(self.problem.forall_vars)
        l = len(self.problem.exists_vars)
        return k * len(g.f_tuples) + l * len(g.g_tuples) + g.p + g.m

    def shared_complexity(self) -> int:
        """Position-difference count: what the constructed proof spends on
        weak quantifier inferences when tuples share prefixes."""
        g = self.grammar
        return sharp_count(g.f_tuples) + sharp_count(g.g_tuples) + g.p + g.m


# ---------------------------------------------------------------------------
# Quantifier-inference chains


@dataclass(frozen=True)
class _Step:
    principal: Formula
    side: str
    witness: Term | None = None
    eigen: str | None = None
    keep: bool = False


def _trie_steps(
    block: Formula,
    vars_: Sequence[str],
    tuples: Iterable[tuple[Term, ...]],
    side: str,
) -> list[_Step]:
    """Weak inferences introducing all tuples, sharing common prefixes.
    Steps are listed from the conclusion upwards.

    Groups are keyed by the resulting instance formula, not the witness
    term: when the block variable is unused, distinct witnesses collapse
    to one inference and the instance set is unchanged."""
    if not vars_:
        return []
    assert isinstance(block, (ForAll, Exists))
    groups: dict[str, tuple[Term, Formula, list[tuple[Term, ...]]]] = {}
    for tup in sorted(set(tuples), key=tuple_key):
        child = substitute(block.body, {block.var: tup[0]})
        entry = groups.setdefault(formula_key(child), (tup[0], child, []))
        entry[2].append(tup[1:])
    ordered = [groups[k] for k in sorted(groups)]
    steps = []
    for idx, (head, _, _) in enumerate(ordered):
        steps.append(_Step(block, side, witness=head, keep=idx < len(ordered) - 1))
    for _, child, rest in ordered:
        steps += _trie_steps(child, vars_[1:], rest, side)
    return steps


def _build_branch(bottom: Sequent, steps: list[_Step]) -> Node:
    """Chain the steps above `bottom`, each labelled and instantiated by
    the rule table, and cap with a propositional proof."""
    links = []
    s = bottom
    for st in steps:
        term = st.witness if st.eigen is None else Var(st.eigen)
        rule, (premise,) = premises_of(s, st.side, st.principal, term, st.keep)
        links.append((rule, st, s))
        s = premise
    node = prop_proof(s)
    if any(leaf.rule == calculus.NON_TAUT_LEAF for leaf in node.leaves()):
        raise NotTautological("instantiated sequent is not valid")
    for rule, st, conclusion in reversed(links):
        node = Node(
            rule,
            conclusion,
            (node,),
            principal=st.principal,
            side=st.side,
            witness=st.witness,
            eigen=st.eigen,
            keep=st.keep,
        )
    return node


def _checked(root: Node) -> Node:
    report = check_proof(root)
    if not report.ok:
        raise HerbrandError(f"constructed proof failed its check: {report.error}")
    return root


def proof_from_herbrand(pb: PrenexProblem, inst: HerbrandInstanceSet) -> Node:
    """Cut-free proof whose quantifier inferences all sit below the
    instantiated sequent."""
    valid, _ = herbrand_check(pb, inst)
    if not valid:
        raise NotTautological("instance set does not validate the sequent")
    steps = _trie_steps(pb.universal(), pb.forall_vars, inst.f_tuples, calculus.LEFT)
    steps += _trie_steps(pb.existential(), pb.exists_vars, inst.g_tuples, calculus.RIGHT)
    return _checked(_build_branch(pb.end_sequent(), steps))


def proof_from_eh(eh: ExtendedHerbrandSequent) -> Node:
    """Proof with exactly one cut on ``forall x exists y. A``.

    Each branch instantiates the end-sequent side it needs: when the cut
    instances alone settle a branch against one side's instances, the
    other side rides along unexpanded, which keeps the weak-inference
    count at the shared-prefix value."""
    pb = eh.problem
    g = eh.grammar
    cutf = eh.cut_formula()
    mid = eh.instance_sequent()
    alphas, betas = cut_instances(eh.cut_matrix, g)
    # A failed lean check adds the other side's instances to its branch;
    # `_build_branch` raises `NotTautological` if that branch stays open.
    lean_left = is_tautology(Sequent.of(mid.left, alphas))
    lean_right = is_tautology(Sequent.of(betas, mid.right))

    universal = pb.universal()
    existential = pb.existential()

    # Left branch: derive |- cut formula next to the end-sequent.
    left_bottom = Sequent.of([universal], [existential, cutf])
    exists_cut = substitute(Exists(Y, eh.cut_matrix), {X: Var(ALPHA)})
    steps = [_Step(cutf, calculus.RIGHT, eigen=ALPHA)]
    for i, t in enumerate(g.t_terms):
        steps.append(_Step(exists_cut, calculus.RIGHT, witness=t, keep=i < g.p - 1))
    steps += _trie_steps(universal, pb.forall_vars, g.f_tuples, calculus.LEFT)
    if not lean_left:
        steps += _trie_steps(existential, pb.exists_vars, g.g_tuples, calculus.RIGHT)
    left = _build_branch(left_bottom, steps)

    # Right branch: consume the cut formula.
    right_bottom = Sequent.of([universal, cutf], [existential])
    steps = []
    for j, r in enumerate(g.r_terms, 1):
        steps.append(_Step(cutf, calculus.LEFT, witness=r, keep=j < g.m))
        steps.append(
            _Step(substitute(Exists(Y, eh.cut_matrix), {X: r}), calculus.LEFT, eigen=beta(j))
        )
    steps += _trie_steps(existential, pb.exists_vars, g.g_tuples, calculus.RIGHT)
    if not lean_right:
        steps += _trie_steps(universal, pb.forall_vars, g.f_tuples, calculus.LEFT)
    right = _build_branch(right_bottom, steps)

    root = Node(
        calculus.CUT,
        pb.end_sequent(),
        (left, right),
        cut_formula=cutf,
    )
    return _checked(root)
