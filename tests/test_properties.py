"""Randomised cross-checks between the filters, the verifier, the
propositional oracle and the proof constructors.  Deterministic seeds;
the acceptance suite re-runs these at larger sizes."""

import heapq
import itertools
import random
from collections import Counter

from fixtures import leaf_parts, leaf_sequents
from gen import random_sehs, random_starting_set
from pi2cut import solver
from pi2cut.calculus import check_proof, complexities, is_tautology
from pi2cut.grammar import GStarSystem, gstar_of, reachable_literals, unifiable_pair
from pi2cut.herbrand import (
    ExtendedHerbrandSequent,
    HerbrandInstanceSet,
    herbrand_check,
    proof_from_eh,
    proof_from_herbrand,
)
from pi2cut.solver import (
    NoSolutionUnderPool,
    SolverOptions,
    _cl_levels,
    _open_vectors,
    _passes_cl,
    _passes_sol,
    build_sehs,
    cl_filter,
    clauses_from_pool,
    gstar_pool,
    introduce_cut,
    is_balanced,
    naive_pool,
    sol_filter,
    verify_solution,
)
from pi2cut.syntax import (
    ALPHA,
    X,
    Y,
    Var,
    beta,
    clause_key,
    dnf_of,
    literal_key,
    dual,
    free_vars,
    substitute_literal,
)


def brute_solutions(sehs, starting):
    clauses = sorted(starting, key=clause_key)
    out = set()
    for k in range(1, len(clauses) + 1):
        for combo in itertools.combinations(clauses, k):
            cs = frozenset(combo)
            if verify_solution(sehs, cs):
                out.add(cs)
    return out


def test_filter_soundness_random():
    for seed in range(60):
        rng = random.Random(500 + seed)
        sehs = random_sehs(rng, rich=True)
        starting = random_starting_set(rng, rich=True)
        for cs in sol_filter(cl_filter(starting, sehs), sehs):
            assert verify_solution(sehs, cs), f"seed {seed}"


def test_filter_completeness_random():
    for seed in range(60):
        rng = random.Random(900 + seed)
        sehs = random_sehs(rng)
        starting = random_starting_set(rng)
        sol = sol_filter(cl_filter(starting, sehs), sehs)
        assert brute_solutions(sehs, starting) == set(sol), f"seed {seed}"


def _bundled_sehs():
    from fixtures import swap_pair, two_step, unbalanced_pair
    from pi2cut.benchmark import generate_sn
    from pi2cut.solver import build_sehs

    out = []
    for pf in (two_step(), swap_pair(), unbalanced_pair()):
        out.append(build_sehs(pf.problem, pf.grammar))
    for n in (2, 3):
        sn = generate_sn(n)
        out.append(build_sehs(sn.problem, sn.grammar))
    return out


def check_balanced_implies_gstar_solvable(sehs) -> bool:
    """True when the premise fires (a balanced naive-pool solution exists);
    asserts the conclusion in that case."""
    pool = naive_pool(sehs)
    clauses = clauses_from_pool(pool, max_clause_size=2)[:28]
    balanced = None
    for k in (1, 2):
        for combo in itertools.combinations(clauses, k):
            cs = frozenset(combo)
            if verify_solution(sehs, cs) and is_balanced(sehs, cs):
                balanced = cs
                break
        if balanced:
            break
    if balanced is None:
        return False
    gpool, _ = gstar_pool(sehs)
    gclauses = clauses_from_pool(gpool, max_clause_size=3)
    assert sol_filter(cl_filter(gclauses, sehs, max_clauses=3), sehs)
    return True


def test_balanced_solutions_survive_gstar_pool():
    triggered = sum(check_balanced_implies_gstar_solvable(s) for s in _bundled_sehs())
    assert triggered >= 4  # every solvable bundled instance has one
    for seed in range(80):
        rng = random.Random(1300 + seed)
        triggered += check_balanced_implies_gstar_solvable(random_sehs(rng))
    assert triggered >= 5


def test_pools_match_their_pairwise_definitions():
    """The gstar pool is the union of the `unifiable_pair` sets over leaf
    literal pairs, with `unifiable` read per leaf from them; every naive
    generalisation instantiates back to its target under its witness pair."""
    for rich in (False, True):
        for seed in range(60):
            sehs = random_sehs(random.Random(2100 + seed), rich=rich, max_leaves=4)
            g = sehs.grammar
            parts = [leaf_parts(sehs, leaf) for leaf in leaf_sequents(sehs)]
            lefts = {l for a, _, n in parts for l in a | n}
            rights = {q for _, b, n in parts for q in b | n}
            sys = gstar_of(g)
            common = {
                l: frozenset().union(*(unifiable_pair(l, q, sys) for q in rights))
                for l in lefts
            }
            pool, unifiable = gstar_pool(sehs)
            assert pool == frozenset().union(*common.values()), f"seed {seed}"
            assert unifiable == all(
                any(common[l] for l in a | n) for a, _, n in parts
            ), f"seed {seed}"

            witnesses = [(l, Var(ALPHA), t) for l in lefts for t in g.t_terms] + [
                (dual(q), r, Var(beta(j)))
                for q in rights
                for j, r in enumerate(g.r_terms, 1)
            ]
            naive = set()
            for target, x_img, y_img in witnesses:
                for lit in reachable_literals(target, GStarSystem((x_img,), (y_img,))):
                    assert free_vars(lit.atom) <= {X, Y}
                    assert substitute_literal(lit, {X: x_img, Y: y_img}) == target
                    naive.add(lit)
            assert naive_pool(sehs) == naive, f"seed {seed}"


def _leaf_order_results(sehs):
    """Every result read from the leaf masks: both pools, the filter
    survivors over the naive pool's clauses and their balance verdicts."""
    naive = naive_pool(sehs)
    survivors = sol_filter(cl_filter(clauses_from_pool(naive, 2), sehs, 2), sehs)
    return gstar_pool(sehs), naive, {cs: is_balanced(sehs, cs) for cs in survivors}


def test_no_result_depends_on_leaf_order():
    from fixtures import PROBLEM_DIR, load
    from pi2cut.benchmark import generate_sn
    from pi2cut.solver import Sehs, build_sehs

    problems = [load(p.name) for p in sorted(PROBLEM_DIR.glob("*.p2"))]
    problems += [generate_sn(n) for n in range(2, 7)]
    cases = [build_sehs(pf.problem, pf.grammar) for pf in problems]
    cases += [
        random_sehs(random.Random(3300 + seed), rich=seed % 2 == 0, max_leaves=6)
        for seed in range(40)
    ]
    reordered = survivors = 0
    for sehs in cases:
        twin = Sehs(sehs.problem, sehs.grammar)
        masks = sehs.leaf_masks
        vars(twin)["leaf_masks"] = masks._replace(pairs=masks.pairs[::-1])
        expected = _leaf_order_results(sehs)
        assert _leaf_order_results(twin) == expected, sehs.problem
        reordered += len(masks.pairs) > 1
        survivors += len(expected[2])
    assert reordered >= 20 and survivors >= 100


def reference_clause_sets(clauses, max_clauses):
    """Every set of 1..max_clauses distinct clauses, lazily and smallest
    first: by clause count, then literal count, then the tuple of the
    clauses' canonical keys, each set listing its clauses by size, then key.

    Per clause count and literal total, each size profile (a multiset of
    clause sizes with that total) streams the product of combinations
    within each size group in key order; merging the profile streams
    keeps that order without holding a whole level in memory."""
    keys = {c: clause_key(c) for c in clauses}
    ordered = sorted(keys, key=lambda c: (len(c), keys[c]))
    groups = {size: list(group) for size, group in itertools.groupby(ordered, key=len)}

    def profile_sets(profile):
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


def _search_cases():
    """(problem file, its Sehs, pool option, clause size, the starting
    clauses, max_clauses).  Clauses take the CLI's size of at most three
    literals, except in the pools of more than six literals (swap_pair and
    unbalanced_pair under the naive pool, 8 and 9 literals): there they
    take at most two literals at three clauses and one at four, since
    verifying every solution among their thousands of two-literal sets of
    four takes seconds."""
    from fixtures import PROBLEM_DIR, load
    from pi2cut.benchmark import generate_sn
    from pi2cut.solver import build_sehs

    for path in sorted(PROBLEM_DIR.glob("*.p2")):
        pf = load(path.name)
        sehs = build_sehs(pf.problem, pf.grammar)
        for pool, lits in (("gstar", gstar_pool(sehs)[0]), ("naive", naive_pool(sehs))):
            for max_clauses in (3, 4):
                size = 3 if len(lits) <= 6 else 5 - max_clauses
                yield pf, sehs, pool, size, clauses_from_pool(lits, size), max_clauses
    for n in range(2, 7):
        sn = generate_sn(n)
        sehs = build_sehs(sn.problem, sn.grammar)
        for max_clauses in (3, 4):
            yield sn, sehs, "gstar", 3, clauses_from_pool(gstar_pool(sehs)[0], 3), max_clauses
    for seed in range(40):
        rng = random.Random(3700 + seed)
        sehs = random_sehs(rng, rich=seed % 2 == 0)
        starting = random_starting_set(rng, rich=seed % 2 == 0)
        for max_clauses in (3, 4):
            yield sehs, sehs, starting, 3, list(starting), max_clauses


def brute_search(sehs, reference, cl_verdicts, all_solutions):
    """The search as one loop over every set of the full enumeration, given
    each set's cl verdict: (solutions, sets tried, cl passes, sol passes)."""
    found, tried, cl, sol = [], 0, 0, 0
    for cs, passes_cl in zip(reference, cl_verdicts):
        tried += 1
        if not passes_cl:
            continue
        cl += 1
        if _passes_sol(cs, sehs):
            sol += 1
            found.append(frozenset(cs))
            if not all_solutions:
                break
    return tuple(found), tried, cl, sol


def reference_open_vectors(picks, all_leaves, cancel):
    """The walk as the whole `itertools.product` of the pick lists: each
    vector, as pick positions, whose masks leave a leaf open, and with
    `cancel` only those whose ids hold no complementary pair."""
    for vec in itertools.product(*(range(len(level)) for level in picks)):
        chosen = [level[i] for level, i in zip(picks, vec)]
        covered = 0
        for mask, _ in chosen:
            covered |= mask
        if covered == all_leaves:
            continue
        ids = frozenset().union(*(ids for _, ids in chosen))
        if cancel and any(-n in ids for n in ids):
            continue
        yield vec


def _random_picks(rng, leaves):
    """Up to four pick lists of up to four picks, over `leaves` leaves and
    signed ids of four atoms; a list is sometimes empty."""
    return [
        [
            (
                rng.getrandbits(leaves),
                frozenset(rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(rng.randint(0, 3))),
            )
            for _ in range(rng.choice((0, 1, 2, 3, 3, 4)))
        ]
        for _ in range(rng.randint(0, 4))
    ]


def test_pruned_walk_matches_the_product_walk():
    """The pruned walk yields the product walk's open vectors in its order,
    with and without dropping the cancelling ones."""
    ones = lambda n: frozenset({n})
    cases = [
        ([], 1),  # no pick lists: the one empty vector
        ([], 0),
        ([[(0, ones(1))], []], 3),  # an empty pick list: no vector
        ([[(0, ones(1)), (0, ones(-1))]], 0),  # no leaves: every vector closed
        ([[(0, frozenset({1, -1})), (0, ones(2))], [(0, ones(3))]], 1),  # cancels in one pick
        ([[(0, ones(1)), (0, ones(2))], [(1, ones(3)), (0, ones(-1))]], 3),  # across levels
    ]
    rng = random.Random(5100)
    cases += [(_random_picks(rng, leaves), (1 << leaves) - 1) for leaves in range(5) for _ in range(300)]
    seen = Counter()
    for picks, all_leaves in cases:
        expected = {}
        for cancel in (False, True):
            expected[cancel] = list(reference_open_vectors(picks, all_leaves, cancel))
            got = list(_open_vectors(picks, all_leaves, cancel))
            assert got == expected[cancel], (picks, all_leaves, cancel)
        seen["closed"] += not expected[False]
        seen["open, cancelling"] += len(expected[False]) > len(expected[True])
        seen["open, not cancelling"] += bool(expected[True])
    assert min(seen.values()) >= 100, seen


def test_walk_depth_is_not_bounded_by_the_stack():
    picks = [[(0, frozenset({1}))]] * 5000
    for cancel in (False, True):
        assert list(_open_vectors(picks, 1, cancel)) == [(0,) * 5000]


# Three universal witnesses, each with a succedent disjunct to close.
_THREE_WITNESSES = """
(signature (fun r1 0) (fun r2 0) (fun r3 0) (fun t1 1) (pred P 2) (pred Q 2))
(forall-vars x1)
(exists-vars y1 y2 y3)
(antecedent (and (P x1 (t1 x1)) (Q x1 (t1 x1))))
(succedent (or (P r1 y1) (or (Q r2 y2) (P r3 y3))))
(grammar (f-tuples (alpha)) (g-tuples (b1 b2 b3)) (r-terms r1 r2 r3) (t-terms (t1 alpha)))
"""


def test_levels_above_m_need_no_cl_walk(monkeypatch):
    """With m = 3 the cl filter walks the sets of one to three clauses and
    passes those of four unwalked; the engine still yields exactly the sets
    Apriori tries, each with its own verdict."""
    from pi2cut.problem_io import parse_problem

    pf = parse_problem(_THREE_WITNESSES)
    sehs = build_sehs(pf.problem, pf.grammar)
    assert sehs.grammar.m == 3
    clauses = clauses_from_pool(naive_pool(sehs), 2)
    reference = list(reference_clause_sets(clauses, 4))
    verdict = {frozenset(cs): _passes_cl(cs, sehs) for cs in reference}
    walked = Counter()

    def counted(cand, _):
        walked[len(cand)] += 1
        return verdict[frozenset(cand)]

    monkeypatch.setattr(solver, "_passes_cl", counted)
    levels = list(_cl_levels(clauses, sehs, 4))

    # Apriori tries a set when it has one clause or each subset one
    # clause smaller passed.
    tried = [
        cs for cs in reference
        if len(cs) == 1 or all(verdict[frozenset(cs) - {c}] for c in cs)
    ]
    assert sorted(walked) == [1, 2, 3] and walked[3] > 0
    assert sum(len(cs) == 4 for cs in tried) > 0
    assert levels == [(cs, verdict[frozenset(cs)]) for cs in tried]


def test_pruned_search_matches_the_full_enumeration():
    """The level-wise cl survivors are the full enumeration's cl survivors
    in the same order, and the search over them finds the solutions and
    counts the cl and sol passes of the brute-force loop over every set,
    while trying no more sets than that loop."""
    pruned = solved = 0
    for pf, sehs, pool, size, clauses, max_clauses in _search_cases():
        reference = list(reference_clause_sets(clauses, max_clauses))
        cl_verdicts = [_passes_cl(cs, sehs) for cs in reference]
        levels = list(_cl_levels(clauses, sehs, max_clauses))
        survivors = [cs for cs, passed in levels if passed]
        assert survivors == list(itertools.compress(reference, cl_verdicts))
        assert len(levels) <= len(reference)
        pruned += len(levels) < len(reference)
        for all_solutions in (False, True):
            found, tried, cl, sol = brute_search(sehs, reference, cl_verdicts, all_solutions)
            options = SolverOptions(pool, max_clauses, size, all_solutions=all_solutions)
            try:
                report = introduce_cut(pf.problem, pf.grammar, options)
                solutions, s = report.solutions, report.stats
            except NoSolutionUnderPool as e:
                solutions, s = (), e.stats
            assert (solutions, s.cl_passed, s.sol_passed) == (found, cl, sol), (pool, max_clauses)
            assert s.candidates <= tried
        solved += bool(found)
    assert pruned >= 20 and solved >= 20, (pruned, solved)


def test_allowed_sets_subset_closed():
    for seed in range(40):
        rng = random.Random(1700 + seed)
        sehs = random_sehs(rng)
        pool = sorted(naive_pool(sehs), key=str)
        # T2' at leaf idx, read from the mask.
        allowed = lambda idx, lits: sehs.witness_mask(sorted(lits, key=literal_key)) >> idx & 1
        for idx in range(len(sehs.leaf_masks.pairs)):
            prime = [l for l in pool if allowed(idx, {l})][:4]
            for k in range(2, len(prime) + 1):
                for combo in itertools.combinations(prime, k):
                    if allowed(idx, combo):
                        for member in combo:
                            assert allowed(idx, {member})


def test_proof_round_trip_on_random_solutions():
    built = 0
    for seed in range(60):
        rng = random.Random(2100 + seed)
        sehs = random_sehs(rng)
        clauses = clauses_from_pool(naive_pool(sehs), max_clause_size=2)[:30]
        solutions = [
            frozenset([c]) for c in clauses if verify_solution(sehs, frozenset([c]))
        ]
        for cs in solutions[:2]:
            eh = ExtendedHerbrandSequent(sehs.problem, sehs.grammar, dnf_of(cs))
            proof = proof_from_eh(eh)
            assert check_proof(proof).ok
            built += 1
    assert built >= 3


def test_proof_round_trip_on_planted_matrices():
    from gen import random_tautological_eh

    for seed in range(60):
        rng = random.Random(3300 + seed)
        eh = random_tautological_eh(rng)
        assert is_tautology(eh.sequent()), f"seed {seed}"
        proof = proof_from_eh(eh)
        assert check_proof(proof).ok, f"seed {seed}"


def test_herbrand_proof_round_trip_random():
    from pi2cut.syntax import App, const

    built = 0
    for seed in range(250):
        rng = random.Random(2500 + seed)
        sehs = random_sehs(rng)
        pb = sehs.problem
        grounds = [const("c"), const("d"), App("f", (const("c"),)), App("g", (const("d"),))]
        f_tuples = tuple((rng.choice(grounds),) for _ in range(rng.randint(1, 3)))
        g_tuples = tuple((rng.choice(grounds),) for _ in range(rng.randint(1, 3)))
        inst = HerbrandInstanceSet(f_tuples, g_tuples)
        valid, _ = herbrand_check(pb, inst)
        if not valid:
            continue
        proof = proof_from_herbrand(pb, inst)
        assert check_proof(proof).ok
        built += 1
    assert built >= 10


def test_quantifier_complexity_ordering_random():
    for seed in range(30):
        rng = random.Random(2900 + seed)
        sehs = random_sehs(rng)
        starting = random_starting_set(rng)
        for cs in sorted(sol_filter(cl_filter(starting, sehs), sehs), key=str)[:1]:
            eh = ExtendedHerbrandSequent(sehs.problem, sehs.grammar, dnf_of(cs))
            t = complexities(proof_from_eh(eh))
            assert t.quantifier <= t.logical <= t.symbols
