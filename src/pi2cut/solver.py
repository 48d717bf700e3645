"""Search for a cut matrix that turns instance data into a one-cut proof.

Pipeline: the end-sequent instances of a schematic grammar form a reduced
representation; its non-tautological leaves, rewritten into one-sided
literal form, split into the literals touching ``alpha`` (A), those
touching some ``bj`` (B) and the neutral rest (N).  Candidate matrices
are disjunctive normal forms over clause sets drawn from a starting set;
two closure filters prune clause sets that cannot close every leaf, the
survivors are verified outright, and a verified clause set is rendered
into a checked proof with a single cut.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .calculus import (
    ORIGIN_CUT,
    ORIGIN_END,
    is_tautology,
    maximal_derivation,
    non_tautological_leaves,
    tagged_leaves,
)
from .grammar import (
    GrammarError,
    SchematicPi2Grammar,
    WrappedTerm,
    covers,
    gstar_of,
    unifiable_pair,
    validate,
)
from .herbrand import ExtendedHerbrandSequent, PrenexProblem, instantiate, proof_from_eh
from .syntax import (
    ALPHA,
    And,
    Atom,
    Clause,
    ClauseSet,
    Formula,
    Imp,
    Literal,
    Not,
    Or,
    Sequent,
    Term,
    Var,
    X,
    Y,
    beta,
    clause_key,
    clause_set_key,
    conj,
    disj,
    dnf_of,
    dual_set,
    free_vars,
    literal_key,
    literal_normal_form,
    substitute_literal,
)


class SolverError(Exception):
    pass


class CoverFailure(SolverError):
    """The grammar's rigid language misses part of the given term set."""


class MixedAtomError(SolverError):
    """An instance atom mixes alpha with a cut eigenvariable."""


class NotASolution(SolverError):
    pass


class VerificationFailure(SolverError):
    """A filtered candidate failed verification; indicates a solver bug."""


@dataclass
class SearchStats:
    pool: str = ""
    pool_size: int = 0
    unifiable: bool | None = None
    candidates: int = 0
    cl_passed: int = 0
    sol_passed: int = 0
    caps_hit: bool = False


class NoSolutionUnderPool(SolverError):
    def __init__(self, stats: SearchStats):
        super().__init__(f"no solution among {stats.candidates} candidates from the {stats.pool} pool")
        self.stats = stats


class CapExceeded(SolverError):
    def __init__(self, stats: SearchStats, what: str):
        super().__init__(f"search cap exceeded: {what}")
        self.stats = stats


# ---------------------------------------------------------------------------
# The solving problem


@dataclass(frozen=True)
class Sehs:
    """A prenex problem plus a validated schematic grammar; the cut matrix
    is the unknown, written as the binary predicate slot X."""

    problem: PrenexProblem
    grammar: SchematicPi2Grammar
    term_set: frozenset[WrappedTerm] | None = None

    def f_instances(self) -> list[Formula]:
        pb = self.problem
        return [instantiate(pb.antecedent, pb.forall_vars, t) for t in self.grammar.f_tuples]

    def g_instances(self) -> list[Formula]:
        pb = self.problem
        return [instantiate(pb.succedent, pb.exists_vars, t) for t in self.grammar.g_tuples]

    def reduced_representation(self) -> Sequent:
        return Sequent.of(self.f_instances(), self.g_instances())

    @cached_property
    def leaves(self) -> tuple[PartitionedLeaf, ...]:
        """The partitioned leaves in canonical order, computed once."""
        return tuple(sorted(partitioned_dnta(self), key=PartitionedLeaf.key))


@dataclass(frozen=True)
class PartitionedLeaf:
    a_part: frozenset[Literal]
    b_part: frozenset[Literal]
    n_part: frozenset[Literal]

    def literals(self) -> frozenset[Literal]:
        return self.a_part | self.b_part | self.n_part

    def key(self) -> tuple[str, ...]:
        return tuple(sorted(map(literal_key, self.literals())))


def build_sehs(
    pb: PrenexProblem,
    g: SchematicPi2Grammar,
    term_set: Iterable[WrappedTerm] | None = None,
) -> tuple[Sehs, Sequent]:
    violations, _ = validate(g)
    if violations:
        raise GrammarError("; ".join(violations))
    if g.f_tuples and len(g.f_tuples[0]) != len(pb.forall_vars):
        raise SolverError("antecedent tuples do not match the universal block")
    if g.g_tuples and len(g.g_tuples[0]) != len(pb.exists_vars):
        raise SolverError("succedent tuples do not match the existential block")
    wrapped = frozenset(term_set) if term_set is not None else None
    if wrapped is not None and not covers(g, wrapped):
        from .grammar import rigid_language

        missing = sorted(wrapped - rigid_language(g), key=WrappedTerm.key)
        raise CoverFailure(
            "grammar does not generate: " + ", ".join(t.to_sexp() for t in missing)
        )
    sehs = Sehs(pb, g, wrapped)
    rr = sehs.reduced_representation()
    betas = set(g.beta_vars())
    for f in rr.left | rr.right:
        for atom in _atoms_of(f):
            vs = free_vars(atom)
            if ALPHA in vs and vs & betas:
                raise MixedAtomError(
                    f"instance atom mixes alpha and cut eigenvariables: {atom}"
                )
    return sehs, rr


def _atoms_of(f: Formula) -> Iterator[Atom]:
    if isinstance(f, Atom):
        yield f
    elif isinstance(f, Not):
        yield from _atoms_of(f.sub)
    elif isinstance(f, (And, Or, Imp)):
        yield from _atoms_of(f.left)
        yield from _atoms_of(f.right)


def partitioned_dnta(sehs: Sehs) -> frozenset[PartitionedLeaf]:
    """Non-tautological leaves of a maximal derivation of the reduced
    representation, in literal normal form, split by eigenvariable use."""
    rr = sehs.reduced_representation()
    betas = set(sehs.grammar.beta_vars())
    leaves = non_tautological_leaves(maximal_derivation(rr))
    out = set()
    for leaf in leaves:
        a: set[Literal] = set()
        b: set[Literal] = set()
        n: set[Literal] = set()
        for lit in literal_normal_form(leaf):
            vs = free_vars(lit.atom)
            if ALPHA in vs and vs & betas:
                raise MixedAtomError("leaf atom mixes alpha and cut eigenvariables")
            if ALPHA in vs:
                a.add(lit)
            elif vs & betas:
                b.add(lit)
            else:
                n.add(lit)
        out.add(PartitionedLeaf(frozenset(a), frozenset(b), frozenset(n)))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Anti-substitution

_ANTI_SITE_CAP = 16


def anti_instances(target: Literal, x_img: Term, y_img: Term) -> frozenset[Literal]:
    """All literals over {x, y} that instantiate to `target` when x maps
    to `x_img` and y to `y_img`; every occurrence of an image subterm may
    independently be generalised or kept."""
    sites = _count_sites(target.atom, x_img, y_img)
    if sites > _ANTI_SITE_CAP:
        stats = SearchStats(pool="naive", caps_hit=True)
        raise CapExceeded(stats, f"too many generalisation sites ({sites})")

    def gen_term(t: Term) -> list[Term]:
        opts: list[Term] = []
        if t == x_img:
            opts.append(Var(X))
        if t == y_img:
            opts.append(Var(Y))
        if isinstance(t, Var):
            opts.append(t)
        else:
            assert hasattr(t, "args")
            for combo in itertools.product(*(gen_term(a) for a in t.args)):
                opts.append(type(t)(t.fn, tuple(combo)))  # type: ignore[union-attr]
        return opts

    sub = {X: x_img, Y: y_img}
    out = set()
    for combo in itertools.product(*(gen_term(a) for a in target.atom.args)):
        lit = Literal(target.positive, Atom(target.atom.pred, tuple(combo)))
        if free_vars(lit.atom) <= {X, Y} and substitute_literal(lit, sub) == target:
            out.add(lit)
    return frozenset(out)


def _count_sites(f: Atom, x_img: Term, y_img: Term) -> int:
    def walk(t: Term) -> int:
        hits = int(t == x_img) + int(t == y_img)
        if hasattr(t, "args"):
            hits += sum(walk(a) for a in t.args)  # type: ignore[union-attr]
        return hits

    return sum(walk(a) for a in f.args)


# ---------------------------------------------------------------------------
# Closure filters


class _Ctx:
    def __init__(self, sehs: Sehs):
        self.sehs = sehs
        self.leaves = sehs.leaves
        g = sehs.grammar
        self.m = g.m
        self.p = g.p
        self.r_terms = g.r_terms
        self.t_terms = g.t_terms
        self.dual_b = [dual_set(l.b_part) for l in self.leaves]
        self.dual_n = [dual_set(l.n_part) for l in self.leaves]
        self._alpha_t: dict[tuple[Literal, int], Literal] = {}
        self._allowed: dict[tuple[int, frozenset[Literal]], bool] = {}
        self.all_leaves = (1 << len(self.leaves)) - 1
        self._atom_ids: dict[Atom, int] = {}
        self._cl_pick: dict[tuple[Clause, int], tuple[int, frozenset[int]]] = {}
        self._sol_picks: dict[Clause, list[tuple[int, frozenset[int]]]] = {}

    def alpha_t(self, lit: Literal, i: int) -> Literal:
        key = (lit, i)
        if key not in self._alpha_t:
            self._alpha_t[key] = substitute_literal(
                lit, {X: Var(ALPHA), Y: self.t_terms[i]}
            )
        return self._alpha_t[key]

    def allowed(self, leaf_idx: int, literals: frozenset[Literal]) -> bool:
        """Can the whole set instantiate into the leaf's alpha part under
        one common existential witness term?"""
        key = (leaf_idx, literals)
        if key not in self._allowed:
            leaf = self.leaves[leaf_idx]
            ok = False
            for i in range(self.p):
                if all(self.alpha_t(l, i) in leaf.a_part for l in literals):
                    ok = True
                    break
            self._allowed[key] = ok
        return self._allowed[key]

    def lit_id(self, lit: Literal) -> int:
        """A signed number per literal: its atom's number, negated when the
        literal is negative, so that a literal's dual is its negation."""
        n = self._atom_ids.setdefault(lit.atom, len(self._atom_ids) + 1)
        return n if lit.positive else -n

    def cl_pick(self, clause: Clause, j: int) -> tuple[int, frozenset[int]]:
        """The clause picked for the j-th universal witness: the mask of the
        leaves it closes by T1 or T2, and the ids of its instance."""
        key = (clause, j)
        hit = self._cl_pick.get(key)
        if hit is None:
            r = self.r_terms[j]
            x_only = [substitute_literal(l, {X: r}) for l in clause]
            inst = [substitute_literal(l, {X: r, Y: Var(beta(j + 1))}) for l in clause]
            mask = 0
            for idx in range(len(self.leaves)):
                if any(l in self.dual_n[idx] for l in x_only) or any(
                    l in self.dual_b[idx] for l in inst
                ):
                    mask |= 1 << idx
            hit = self._cl_pick[key] = (mask, frozenset(map(self.lit_id, inst)))
        return hit

    def sol_picks(self, clause: Clause) -> list[tuple[int, frozenset[int]]]:
        """Each pick of one literal of the clause per existential witness:
        the mask of the leaves it closes by T1' or T2', and the ids of its
        alpha instance."""
        hit = self._sol_picks.get(clause)
        if hit is None:
            hit = []
            for pick in itertools.product(sorted(clause, key=literal_key), repeat=self.p):
                lits = frozenset(pick)
                y_only = [substitute_literal(l, {Y: t}) for l, t in zip(pick, self.t_terms)]
                mask = 0
                for idx, leaf in enumerate(self.leaves):
                    if any(l in leaf.n_part for l in y_only) or self.allowed(idx, lits):
                        mask |= 1 << idx
                ids = frozenset(self.lit_id(self.alpha_t(l, i)) for i, l in enumerate(pick))
                hit.append((mask, ids))
            self._sol_picks[clause] = hit
        return hit


def _open_vector(
    picks: Iterable[Sequence[tuple[int, frozenset[int]]]], all_leaves: int
) -> bool:
    """Is there a pick vector whose masks leave a leaf open and whose
    instances hold no complementary pair?"""
    for vec in itertools.product(*picks):
        covered = 0
        for mask, _ in vec:
            covered |= mask
        if covered != all_leaves:
            ids = frozenset().union(*(ids for _, ids in vec))
            if not any(-n in ids for n in ids):
                return True
    return False


def _passes_cl(cand: Sequence[Clause], ctx: _Ctx) -> bool:
    """Every clause pick for the universal witnesses closes every leaf:
    a neutral dual (T1), a dual into the leaf's b-part (T2), or two picks
    that cancel each other (T3).  The leaf masks hold T1 and T2;
    interaction is consulted only for vectors whose masks leave a leaf open."""
    return not _open_vector(
        ([ctx.cl_pick(c, j) for c in cand] for j in range(ctx.m)), ctx.all_leaves
    )


def _passes_sol(cand: Sequence[Clause], ctx: _Ctx) -> bool:
    """Every literal pick for the existential witnesses closes every leaf:
    a neutral literal (T1'), a whole pick landing in the leaf's allowed
    alpha preimages (T2'), or two picks that cancel (T3').  The leaf masks
    hold T1' and T2'; interaction is consulted only for vectors whose masks
    leave a leaf open."""
    return not _open_vector((ctx.sol_picks(c) for c in cand), ctx.all_leaves)


def cl_filter(
    starting: Iterable[Clause], sehs: Sehs, max_clauses: int | None = None
) -> frozenset[ClauseSet]:
    """Subsets of the starting set that survive the universal-side filter."""
    ctx = _Ctx(sehs)
    clauses = set(starting)
    limit = len(clauses) if max_clauses is None else max_clauses
    return frozenset(
        frozenset(cs) for cs in _clause_sets(clauses, limit) if _passes_cl(cs, ctx)
    )


def sol_filter(candidates: Iterable[ClauseSet], sehs: Sehs) -> frozenset[ClauseSet]:
    """Members of the universal-side filter that also survive the
    existential-side filter."""
    ctx = _Ctx(sehs)
    out = []
    for cs in sorted(candidates, key=clause_set_key):
        if _passes_sol(sorted(cs, key=clause_key), ctx):
            out.append(cs)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Starting-set pools


def naive_pool(sehs: Sehs) -> frozenset[Literal]:
    """All literals over {x, y} that instantiate into some leaf under a
    witness: into A or N via an existential term, or dually into B or N
    via a universal term and its eigenvariable."""
    g = sehs.grammar
    out: set[Literal] = set()
    for leaf in sehs.leaves:
        for lit in leaf.a_part | leaf.n_part:
            for t in g.t_terms:
                out |= anti_instances(lit, Var(ALPHA), t)
        targets = dual_set(leaf.b_part) | dual_set(leaf.n_part)
        for lit in targets:
            for j, r in enumerate(g.r_terms, 1):
                out |= anti_instances(lit, r, Var(beta(j)))
    return frozenset(out)


def gstar_pool(sehs: Sehs) -> tuple[frozenset[Literal], bool]:
    """Literal pool from rewriting leaf literals into {x, y}: a literal of
    one leaf's A or N side unifies with the dual of another leaf's B or N
    side.  Also reports whether every leaf has such a partner."""
    sys = gstar_of(sehs.grammar)
    lefts = {l for leaf in sehs.leaves for l in leaf.a_part | leaf.n_part}
    rights = {q for leaf in sehs.leaves for q in leaf.b_part | leaf.n_part}
    # Per distinct left literal, everything it unifies into over all rights.
    common = {
        l: frozenset().union(*(unifiable_pair(l, q, sys) for q in rights))
        for l in lefts
    }
    unifiable = all(
        any(common[l] for l in leaf.a_part | leaf.n_part) for leaf in sehs.leaves
    )
    return frozenset().union(*common.values()), unifiable


def clauses_from_pool(pool: Iterable[Literal], max_clause_size: int) -> list[Clause]:
    lits = sorted(set(pool), key=literal_key)
    out: list[Clause] = []
    for k in range(1, min(max_clause_size, len(lits)) + 1):
        for combo in itertools.combinations(lits, k):
            out.append(frozenset(combo))
    out.sort(key=lambda c: (len(c), clause_key(c)))
    return out


# ---------------------------------------------------------------------------
# Verification and balance


def verify_solution(sehs: Sehs, clauses: ClauseSet) -> bool:
    """Does the matrix DNF(clauses) make the schematic sequent valid?
    Checked through the two split sequents (universal instances on the
    left, existential instances on the right), which together are
    equivalent to the full sequent."""
    for c in clauses:
        for lit in c:
            if free_vars(lit.atom) - {X, Y}:
                raise SolverError(f"literal outside {{x, y}}: {literal_key(lit)}")
    matrix = dnf_of(clauses)
    eh = ExtendedHerbrandSequent(sehs.problem, sehs.grammar, matrix)
    f_insts = eh.f_instances()
    g_insts = eh.g_instances()
    left_ok = is_tautology(Sequent.of(f_insts + eh.beta_instances(), g_insts))
    right_ok = is_tautology(Sequent.of(f_insts, eh.alpha_instances() + g_insts))
    return left_ok and right_ok


def is_balanced(sehs: Sehs, clauses: ClauseSet) -> bool:
    """A solution is balanced when every axiom of a maximal derivation of
    the solved sequent closes on at least one atom pair with a member not
    descending from the cut material.  A leaf whose sides share no atom
    shows that the clause set is not a solution: `NotASolution`."""
    eh = ExtendedHerbrandSequent(sehs.problem, sehs.grammar, dnf_of(clauses))
    bridge = Imp(disj(eh.alpha_instances()), conj(eh.beta_instances()))
    left: dict[Formula, str] = {f: ORIGIN_END for f in eh.f_instances()}
    # An end formula of the same shape as the bridge keeps its end tag.
    left.setdefault(bridge, ORIGIN_CUT)
    right: dict[Formula, str] = {f: ORIGIN_END for f in eh.g_instances()}
    balanced = True
    for l_tags, r_tags in tagged_leaves(left, right):
        shared = [
            f for f in l_tags if isinstance(f, Atom) and f in r_tags
        ]
        if not shared:
            raise NotASolution("balance is defined for solutions only")
        if not any(
            l_tags[a] == ORIGIN_END or r_tags[a] == ORIGIN_END for a in shared
        ):
            balanced = False
    return balanced


# ---------------------------------------------------------------------------
# Full pipeline


@dataclass(frozen=True)
class SolverOptions:
    pool: str | ClauseSet = "gstar"  # "gstar", "naive", or an explicit starting set
    max_clauses: int = 3
    max_clause_size: int = 3
    max_candidates: int = 10**6
    all_solutions: bool = False


@dataclass
class SolutionReport:
    solutions: tuple[ClauseSet, ...]
    cut_formula: Formula
    verified: bool
    balanced: bool
    complexity: object  # ComplexityTriple of the emitted proof
    slot_complexity: int
    shared_complexity: int
    stats: SearchStats
    proof: object  # calculus.Node
    eh: ExtendedHerbrandSequent


def _starting_clauses(sehs: Sehs, options: SolverOptions, stats: SearchStats) -> list[Clause]:
    if isinstance(options.pool, str):
        if options.pool == "gstar":
            pool, unifiable = gstar_pool(sehs)
            stats.unifiable = unifiable
        elif options.pool == "naive":
            pool = naive_pool(sehs)
        else:
            raise SolverError(f"unknown pool: {options.pool}")
        stats.pool = options.pool
        stats.pool_size = len(pool)
        return clauses_from_pool(pool, options.max_clause_size)
    clauses = list(options.pool)
    extra = set().union(*(free_vars(l.atom) for c in clauses for l in c)) - {X, Y}
    if extra:
        raise SolverError(f"starting-set literal uses {sorted(extra)}")
    stats.pool = "file"
    stats.pool_size = len({l for c in clauses for l in c})
    return clauses


def _clause_sets(clauses: Iterable[Clause], max_clauses: int) -> Iterator[tuple[Clause, ...]]:
    """Every set of 1..max_clauses distinct clauses, lazily and smallest
    first: by clause count, then literal count, then the tuple of the
    clauses' canonical keys, each set listing its clauses by size, then key.

    Per clause count and literal total, each size profile (a multiset of
    clause sizes with that total) streams the product of combinations
    within each size group in key order; merging the profile streams
    keeps that order without holding a whole level in memory."""
    keys = {c: clause_key(c) for c in clauses}
    ordered = sorted(keys, key=lambda c: (len(c), keys[c]))
    groups = {
        size: list(group) for size, group in itertools.groupby(ordered, key=len)
    }

    def profile_sets(profile: tuple[int, ...]) -> Iterator[tuple[Clause, ...]]:
        # A nested loop, not itertools.product, which holds every factor.
        if not profile:
            yield ()
            return
        count = profile.count(profile[0])
        for head in itertools.combinations(groups[profile[0]], count):
            for tail in profile_sets(profile[count:]):
                yield head + tail

    for k in range(1, min(max_clauses, len(ordered)) + 1):
        profiles = sorted(itertools.combinations_with_replacement(groups, k), key=sum)
        for _, same_total in itertools.groupby(profiles, key=sum):
            yield from heapq.merge(
                *map(profile_sets, same_total),
                key=lambda cs: tuple(keys[c] for c in cs),
            )


def introduce_cut(
    pb: PrenexProblem,
    g: SchematicPi2Grammar,
    options: SolverOptions = SolverOptions(),
    term_set: Iterable[WrappedTerm] | None = None,
) -> SolutionReport:
    """Find a cut matrix over the given pool, verify it, and build the
    one-cut proof.  Candidates are tried smallest first (clause count,
    then literal count, then canonical order)."""
    from .calculus import complexities

    sehs, _ = build_sehs(pb, g, term_set)
    ctx = _Ctx(sehs)
    stats = SearchStats()
    clauses = _starting_clauses(sehs, options, stats)
    found: list[ClauseSet] = []
    for cand in _clause_sets(clauses, options.max_clauses):
        if stats.candidates >= options.max_candidates:
            stats.caps_hit = True
            raise CapExceeded(stats, f"more than {options.max_candidates} candidates")
        stats.candidates += 1
        if not _passes_cl(cand, ctx):
            continue
        stats.cl_passed += 1
        if not _passes_sol(cand, ctx):
            continue
        stats.sol_passed += 1
        cs = frozenset(cand)
        if not verify_solution(sehs, cs):
            raise VerificationFailure(
                "filter admitted a non-solution; this is a bug in the solver"
            )
        found.append(cs)
        if not options.all_solutions:
            break
    if not found:
        raise NoSolutionUnderPool(stats)
    best = found[0]
    eh = ExtendedHerbrandSequent(pb, g, dnf_of(best))
    proof = proof_from_eh(eh)
    return SolutionReport(
        solutions=tuple(found),
        cut_formula=eh.cut_formula(),
        verified=True,
        balanced=is_balanced(sehs, best),
        complexity=complexities(proof),
        slot_complexity=eh.complexity(),
        shared_complexity=eh.shared_complexity(),
        stats=stats,
        proof=proof,
        eh=eh,
    )
