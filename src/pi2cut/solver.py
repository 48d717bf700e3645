"""Search for a cut matrix that turns instance data into a one-cut proof.

Pipeline: one `Sehs` per solve derives what does not depend on the
matrix.  The end-sequent instances of a schematic grammar form its
reduced representation; one index maps each literal (antecedent atoms
positive, succedent atoms negated) to its non-tautological leaves that
hold it, read straight from the leaf engine's sequents: no literal-set
copy, no canonical order.  Candidate matrices are disjunctive normal
forms over clause sets drawn from a starting set, each set built from
cl survivors one clause smaller; two closure filters, set operations
over that index, prune clause sets that cannot close every leaf, the
survivors are verified by SAT against the same instances, and a
verified set becomes a checked proof with one cut.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Collection, Iterable, Iterator, Sequence

from .calculus import complexities, is_tautology, non_tautological_leaves
# Unused here; stays importable because perfbench/tracer.py wraps solver.maximal_derivation.
from .calculus import maximal_derivation  # noqa: F401
# Unused here; stays importable because perfbench/tracer.py wraps solver.tagged_leaves.
from .calculus import tagged_leaves  # noqa: F401
from .grammar import (
    GrammarError,
    GStarSystem,
    HerbrandInstanceSet,
    SchematicPi2Grammar,
    covers,
    gstar_of,
    reachable_literals,
    rigid_language,
    validate,
)
# Unused here; stays importable because perfbench/tracer.py wraps solver.unifiable_pair.
from .grammar import unifiable_pair  # noqa: F401
from .herbrand import (
    ExtendedHerbrandSequent,
    PrenexProblem,
    cut_instances,
    midsequent,
    proof_from_eh,
)
from .syntax import (
    ALPHA,
    App,
    Atom,
    Clause,
    ClauseSet,
    Formula,
    Literal,
    Sequent,
    SyntaxError_,
    Var,
    X,
    Y,
    beta,
    clause_key,
    dnf_of,
    free_vars,
    literal_key,
    substitute_literal,
)


class SolverError(Exception):
    pass


class CoverFailure(SolverError):
    """The grammar's rigid language misses part of the given term set."""


class NotASolution(SolverError):
    pass


class VerificationFailure(SolverError):
    """A filtered candidate failed verification; indicates a solver bug."""


@dataclass
class SearchStats:
    """Search counters; a counter stays None when its stage was never reached."""

    pool: str = ""
    pool_size: int | None = None
    unifiable: bool | None = None
    candidates: int | None = None
    cl_passed: int | None = None
    sol_passed: int | None = None
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


# A clause pick: the mask of the leaves it closes, and the ids of its instance.
_Pick = tuple[int, frozenset[int]]
# A per-solve cache on `Sehs`, outside its equality and repr.
_cache = partial(field, default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Sehs:
    """The one per-solve object: a prenex problem plus a validated
    schematic grammar, whose cut matrix is the unknown, written as the
    binary predicate slot X.

    It derives, once each and on first use, everything a solve needs that
    does not depend on the matrix: the instance sequent (the reduced
    representation), its leaf sequents (leaf i is bit i of every mask, in
    no canonical order), one index of the leaves that hold each literal,
    and each clause's picks.  The closure filters, the pools, the search,
    the verifier and the balance test all read them from here."""

    problem: PrenexProblem
    grammar: SchematicPi2Grammar
    _atom_ids: dict[Atom, int] = _cache()
    _alpha_t: dict[tuple[Literal, int], Literal] = _cache()
    _cl_pick: dict[tuple[Clause, int], _Pick] = _cache()
    _sol_picks: dict[Clause, list[_Pick]] = _cache()

    @cached_property
    def reduced_representation(self) -> Sequent:
        """The F and G instances of the grammar's tuples."""
        return midsequent(self.problem, self.grammar)

    @cached_property
    def leaves(self) -> tuple[Sequent, ...]:
        """The non-tautological leaf sequents, in the engine's order."""
        return tuple(partitioned_dnta(self))

    @cached_property
    def all_leaves(self) -> int:
        return (1 << len(self.leaves)) - 1

    @cached_property
    def _holders(self) -> dict[int, int]:
        """Per literal id, the mask of the leaves that hold it (an antecedent
        atom as ``+id``, a succedent atom as ``-id``), set bit by bit in one
        byte row per id: OR-ing into an int would copy the mask per atom."""
        rows = defaultdict(lambda: bytearray(len(self.leaves) // 8 + 1))
        for idx, leaf in enumerate(self.leaves):
            for sign, side in ((1, leaf.left), (-1, leaf.right)):
                for n in map(self._atom_id, side):
                    rows[sign * n][idx >> 3] |= 1 << (idx & 7)
        return {n: int.from_bytes(row, "little") for n, row in rows.items()}

    def holding(self, ids: Iterable[int]) -> int:
        """The mask of the leaves that hold one of the literals with these ids."""
        mask = 0
        for n in ids:
            mask |= self._holders.get(n, 0)
        return mask

    def _atom_id(self, atom: Atom) -> int:
        return self._atom_ids.setdefault(atom, len(self._atom_ids) + 1)

    def lit_id(self, lit: Literal) -> int:
        """A signed number per literal: its atom's number, negated when the
        literal is negative, so that a literal's dual is its negation."""
        n = self._atom_id(lit.atom)
        return n if lit.positive else -n

    def alpha_t(self, lit: Literal, i: int) -> Literal:
        key = (lit, i)
        if key not in self._alpha_t:
            self._alpha_t[key] = substitute_literal(
                lit, {X: Var(ALPHA), Y: self.grammar.t_terms[i]}
            )
        return self._alpha_t[key]

    def witness_mask(self, lits: Sequence[Literal]) -> int:
        """T2': the mask of the leaves whose A part holds the alpha instance
        of every one of the literals under one common existential witness.
        An instance lies in a leaf's A part when the leaf holds it and it
        has ``alpha`` free."""
        out = 0
        for i in range(self.grammar.p):
            mask = self.all_leaves
            for l in lits:
                inst = self.alpha_t(l, i)
                if ALPHA not in free_vars(inst.atom):
                    mask = 0
                    break
                mask &= self._holders.get(self.lit_id(inst), 0)
            out |= mask
        return out

    def cl_pick(self, clause: Clause, j: int) -> _Pick:
        """The clause picked for the j-th universal witness: the mask of the
        leaves it closes by T1 or T2, and the ids of its instance.  The
        instance has no ``alpha`` free (r-terms are over the b-variables),
        so a dual of it lies in a leaf's B or N part exactly when the leaf
        holds that dual."""
        key = (clause, j)
        hit = self._cl_pick.get(key)
        if hit is None:
            sub = {X: self.grammar.r_terms[j], Y: Var(beta(j + 1))}
            ids = frozenset(self.lit_id(substitute_literal(l, sub)) for l in clause)
            hit = self._cl_pick[key] = (self.holding(-n for n in ids), ids)
        return hit

    def sol_picks(self, clause: Clause) -> list[_Pick]:
        """Each pick of one literal of the clause per existential witness:
        the mask of the leaves it closes by T1' or T2', and the ids of its
        alpha instance."""
        hit = self._sol_picks.get(clause)
        if hit is None:
            hit = []
            for pick in itertools.product(sorted(clause, key=literal_key), repeat=self.grammar.p):
                insts = [self.alpha_t(l, i) for i, l in enumerate(pick)]
                # T1': an instance without alpha lies in a leaf's N part
                # exactly when the leaf holds it.
                neutral = (self.lit_id(a) for a in insts if ALPHA not in free_vars(a.atom))
                mask = self.holding(neutral) | self.witness_mask(pick)
                hit.append((mask, frozenset(map(self.lit_id, insts))))
            self._sol_picks[clause] = hit
        return hit


def build_sehs(
    pb: PrenexProblem,
    g: SchematicPi2Grammar,
    term_set: HerbrandInstanceSet | None = None,
) -> Sehs:
    violations = validate(g)
    if violations:
        raise GrammarError("; ".join(violations))
    if g.f_tuples and len(g.f_tuples[0]) != len(pb.forall_vars):
        raise SolverError("antecedent tuples do not match the universal block")
    if g.g_tuples and len(g.g_tuples[0]) != len(pb.exists_vars):
        raise SolverError("succedent tuples do not match the existential block")
    if term_set is not None and not covers(g, term_set):
        missing = term_set - rigid_language(g)
        raise CoverFailure("grammar does not generate: " + ", ".join(missing.wrapped_terms()))
    return Sehs(pb, g)


def partitioned_dnta(sehs: Sehs) -> frozenset[Sequent]:
    """The non-tautological leaves of the maximal derivation of the
    reduced representation, as the leaf engine returns them.  No A/B/N
    split is stored (the closure tests read it from free variables); the
    name stays because ``perfbench/tracer.py`` times this stage under it."""
    return non_tautological_leaves(sehs.reduced_representation)


# ---------------------------------------------------------------------------
# Closure filters


def _open_vectors(picks: Iterable[Sequence[_Pick]], all_leaves: int) -> Iterator[bool]:
    """For each pick vector whose masks leave a leaf open: do its
    instances hold a complementary pair?"""
    for vec in itertools.product(*picks):
        covered = 0
        for mask, _ in vec:
            covered |= mask
        if covered != all_leaves:
            ids = frozenset().union(*(ids for _, ids in vec))
            yield any(-n in ids for n in ids)


def _passes_cl(cand: Sequence[Clause], sehs: Sehs) -> bool:
    """Every clause pick for the universal witnesses closes every leaf:
    a neutral dual (T1), a dual into the leaf's b-part (T2), or two picks
    that cancel each other (T3).  The leaf masks hold T1 and T2;
    interaction is consulted only for vectors whose masks leave a leaf open."""
    return all(_open_vectors(_cl_picks(cand, sehs), sehs.all_leaves))


def _cl_picks(cand: Sequence[Clause], sehs: Sehs) -> Iterator[list[_Pick]]:
    """Per universal witness, the picks of each of the candidate's clauses."""
    return ([sehs.cl_pick(c, j) for c in cand] for j in range(sehs.grammar.m))


def _passes_sol(cand: Sequence[Clause], sehs: Sehs) -> bool:
    """Every literal pick for the existential witnesses closes every leaf:
    a neutral literal (T1'), a whole pick landing in the leaf's allowed
    alpha preimages (T2'), or two picks that cancel (T3').  The leaf masks
    hold T1' and T2'; interaction is consulted only for vectors whose masks
    leave a leaf open."""
    return all(_open_vectors(map(sehs.sol_picks, cand), sehs.all_leaves))


def cl_filter(
    starting: Iterable[Clause], sehs: Sehs, max_clauses: int | None = None
) -> frozenset[ClauseSet]:
    """Subsets of the starting set, of at most `max_clauses` clauses, that
    survive the universal-side filter.  A subset is tried only when every
    subset one clause smaller survived (see `_cl_survivors`)."""
    clauses = set(starting)
    limit = len(clauses) if max_clauses is None else max_clauses
    stats = SearchStats(candidates=0, cl_passed=0)
    return frozenset(map(frozenset, _cl_survivors(clauses, sehs, limit, stats)))


def sol_filter(candidates: Iterable[ClauseSet], sehs: Sehs) -> frozenset[ClauseSet]:
    """Members of the universal-side filter that also survive the
    existential-side filter."""
    return frozenset(cs for cs in candidates if _passes_sol(sorted(cs, key=clause_key), sehs))


# ---------------------------------------------------------------------------
# Starting-set pools


_SITE_CAP = 16


def _generalise(lit: Literal, sys: GStarSystem, pool: str) -> frozenset[Literal]:
    """`reachable_literals`, capped: a literal with more than `_SITE_CAP`
    subterm occurrences that are images (each counted once per image) ends
    the search for the named pool."""
    sites = 0
    todo = list(lit.atom.args)
    while todo:
        t = todo.pop()
        sites += (t in sys.to_x) + (t in sys.to_y)
        if isinstance(t, App):
            todo.extend(t.args)
    if sites > _SITE_CAP:
        stats = SearchStats(pool=pool, caps_hit=True)
        raise CapExceeded(stats, f"too many generalisation sites ({sites})")
    return reachable_literals(lit, sys)


def _leaf_literals(sehs: Sehs) -> tuple[set[Literal], frozenset[Literal]]:
    """The distinct leaf literals of the A and N classes, and the duals of
    those of the B and N classes.  A literal is in A when ``alpha`` is
    free in it, in B when some ``bj`` is and ``alpha`` is not, else in N."""
    betas = frozenset(sehs.grammar.beta_vars())
    lefts: set[Literal] = set()
    rights: set[Literal] = set()
    left_atoms = set().union(*(leaf.left for leaf in sehs.leaves))
    right_atoms = set().union(*(leaf.right for leaf in sehs.leaves))
    for positive, atoms in ((True, left_atoms), (False, right_atoms)):
        for atom in atoms:
            vs = free_vars(atom)
            if ALPHA in vs or betas.isdisjoint(vs):
                lefts.add(Literal(positive, atom))
            if ALPHA not in vs:
                rights.add(Literal(not positive, atom))
    return lefts, frozenset(rights)


def naive_pool(sehs: Sehs) -> frozenset[Literal]:
    """All literals over {x, y} that instantiate into some leaf under a
    witness: into A or N via an existential term, or dually into B or N
    via a universal term and its eigenvariable."""
    g = sehs.grammar
    lefts, rights = _leaf_literals(sehs)
    out: set[Literal] = set()
    for lit in lefts:
        for t in g.t_terms:
            out |= _generalise(lit, GStarSystem((Var(ALPHA),), (t,)), "naive")
    for lit in rights:
        for j, r in enumerate(g.r_terms, 1):
            out |= _generalise(lit, GStarSystem((r,), (Var(beta(j)),)), "naive")
    return frozenset(out)


def gstar_pool(sehs: Sehs) -> tuple[frozenset[Literal], bool]:
    """Literal pool from rewriting leaf literals into {x, y}: everything
    reachable both from a literal of some leaf's A or N side and from the
    dual of one of some leaf's B or N side.  By distributivity this is the
    union of the `unifiable_pair` sets of all such pairs.  Also reports
    whether every leaf has a literal of its A or N side with a partner."""
    sys = gstar_of(sehs.grammar)
    lefts, rights = _leaf_literals(sehs)
    reach = {l: _generalise(l, sys, "gstar") for l in lefts | rights}
    right_reach = frozenset().union(*(reach[q] for q in rights))
    partnered = [l for l in lefts if not reach[l].isdisjoint(right_reach)]
    unifiable = sehs.holding(map(sehs.lit_id, partnered)) == sehs.all_leaves
    return frozenset().union(*(reach[l] for l in lefts)) & right_reach, unifiable


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


def _cut_matrix(clauses: ClauseSet, error: type[Exception]) -> Formula:
    """DNF(clauses); a literal outside {x, y} raises `error`, and an empty
    set or clause raises `SyntaxError_`."""
    for c in clauses:
        for lit in c:
            if free_vars(lit.atom) - {X, Y}:
                raise error(f"literal outside {{x, y}}: {literal_key(lit)}")
    return dnf_of(clauses)


def verify_solution(sehs: Sehs, clauses: ClauseSet) -> bool:
    """Does the matrix DNF(clauses) make the schematic sequent valid?
    Checked through the two split sequents, the instance sequent with the
    matrix's beta instances on the left and with its alpha instances on
    the right, which together are equivalent to the full sequent."""
    alphas, betas = cut_instances(_cut_matrix(clauses, SolverError), sehs.grammar)
    mid = sehs.reduced_representation
    return is_tautology(Sequent(mid.left.union(betas), mid.right)) and is_tautology(
        Sequent(mid.left, mid.right.union(alphas))
    )


def is_balanced(sehs: Sehs, clauses: ClauseSet) -> bool:
    """A solution is balanced when every axiom of a maximal derivation of
    the solved sequent closes on at least one atom pair with a member not
    descending from the cut material.  A leaf whose sides share no atom
    shows that the clause set is not a solution: `NotASolution`.

    The solved sequent is ``F, (OR alpha_i -> AND beta_j) |- G``.  Each of
    its leaves is a leaf of the reduced representation plus one branch of
    the bridge: a cl vector (one clause per universal witness, its
    instance on the left) or a sol vector (one pick of p literals per
    clause, their alpha instances on the right).  Tautological leaves of
    the reduced representation close on an end pair, so only
    `Sehs.leaves` count.  A leaf closes on an end pair when a picked
    instance meets one of its literals (the cl masks, and `holding` for
    the sol picks); otherwise it closes only on two picks that cancel."""
    _cut_matrix(clauses, SyntaxError_)
    cand = sorted(clauses, key=clause_key)
    sol = ([(sehs.holding(ids), ids) for _, ids in sehs.sol_picks(c)] for c in cand)
    balanced = True
    for cancels in itertools.chain(
        _open_vectors(_cl_picks(cand, sehs), sehs.all_leaves),
        _open_vectors(sol, sehs.all_leaves),
    ):
        if not cancels:
            raise NotASolution("balance is defined for solutions only")
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

    def __post_init__(self) -> None:
        if isinstance(self.pool, str) and self.pool not in ("gstar", "naive"):
            raise SolverError(f"unknown pool '{self.pool}', expected gstar or naive")
        for name in ("max_clauses", "max_clause_size", "max_candidates"):
            if getattr(self, name) < 0:
                raise SolverError(f"{name} must not be negative, got {getattr(self, name)}")


@dataclass
class SolutionReport:
    solutions: tuple[ClauseSet, ...]
    balanced: bool
    complexity: object  # ComplexityTriple of the emitted proof
    stats: SearchStats
    proof: object  # calculus.Node
    eh: ExtendedHerbrandSequent


def _starting_clauses(sehs: Sehs, options: SolverOptions, stats: SearchStats) -> list[Clause]:
    if isinstance(options.pool, str):
        if options.pool == "gstar":
            pool, unifiable = gstar_pool(sehs)
            stats.unifiable = unifiable
        else:
            pool = naive_pool(sehs)
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


def _next_level(
    parents: Collection[tuple[Clause, ...]], pool: Sequence[Clause]
) -> Iterator[tuple[Clause, ...]]:
    """The sets of one pool clause more than a parent whose every subset
    one clause smaller is a parent, lazily and smallest first: by literal
    count, then the tuple of the clauses' canonical keys.  The pool and
    each set list their clauses by size, then key.

    A set is its parent plus one later pool clause, so each parent streams
    its sets in order; merging those streams keeps the order without
    building the level."""
    pos = {c: i for i, c in enumerate(pool)}
    keys = {c: clause_key(c) for c in pool}

    def extensions(parent: tuple[Clause, ...]) -> Iterator[tuple[Clause, ...]]:
        for c in itertools.islice(pool, pos[parent[-1]] + 1 if parent else 0, None):
            cs = parent + (c,)
            if all(cs[:i] + cs[i + 1 :] in parents for i in range(len(parent))):
                yield cs

    return heapq.merge(
        *map(extensions, parents),
        key=lambda cs: (sum(map(len, cs)), tuple(keys[c] for c in cs)),
    )


def _cl_survivors(
    clauses: Iterable[Clause],
    sehs: Sehs,
    max_clauses: int,
    stats: SearchStats,
    max_candidates: int | None = None,
) -> Iterator[tuple[Clause, ...]]:
    """The sets of 1..max_clauses distinct clauses that pass the cl filter,
    smallest first: by clause count, then as `_next_level` orders a level.

    The cl filter is anti-monotone: a superset of a failing set holds its
    failing pick vector.  So level 1 tries every clause, level k only the
    sets of level-1 survivors whose every subset of k - 1 clauses survived
    level k - 1 (Apriori), and a level without survivors ends the search.
    Each tried set counts as a candidate in `stats`; trying one more than
    `max_candidates` raises `CapExceeded`."""
    pool = sorted(clauses, key=lambda c: (len(c), clause_key(c)))
    level: list[tuple[Clause, ...]] = [()]
    for k in range(1, max_clauses + 1):
        parents, level = set(level), []
        for cand in _next_level(parents, pool):
            if max_candidates is not None and stats.candidates >= max_candidates:
                stats.caps_hit = True
                raise CapExceeded(stats, f"more than {max_candidates} candidates")
            stats.candidates += 1
            if _passes_cl(cand, sehs):
                stats.cl_passed += 1
                level.append(cand)
                yield cand
        if not level:
            return
        if k == 1:
            pool = [c for (c,) in level]


def introduce_cut(
    pb: PrenexProblem,
    g: SchematicPi2Grammar,
    options: SolverOptions = SolverOptions(),
    term_set: HerbrandInstanceSet | None = None,
) -> SolutionReport:
    """Find a cut matrix over the given pool, verify it, and build the
    one-cut proof.  The cl survivors (`_cl_survivors`) go through the sol
    filter and the verifier smallest first (clause count, then literal
    count, then canonical order); `stats.candidates` counts the sets the
    cl filter tried, and `max_candidates` caps that count."""
    sehs = build_sehs(pb, g, term_set)
    stats = SearchStats()
    clauses = _starting_clauses(sehs, options, stats)
    stats.candidates = stats.cl_passed = stats.sol_passed = 0
    found: list[ClauseSet] = []
    survivors = _cl_survivors(clauses, sehs, options.max_clauses, stats, options.max_candidates)
    for cand in survivors:
        if not _passes_sol(cand, sehs):
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
        balanced=is_balanced(sehs, best),
        complexity=complexities(proof),
        stats=stats,
        proof=proof,
        eh=eh,
    )
