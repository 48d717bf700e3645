"""Randomised cross-checks between the filters, the verifier, the
propositional oracle and the proof constructors.  Deterministic seeds;
the acceptance suite re-runs these at larger sizes."""

import itertools
import random

from fixtures import leaf_parts
from gen import random_sehs, random_starting_set
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
    _Ctx,
    cl_filter,
    clauses_from_pool,
    gstar_pool,
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
            parts = [leaf_parts(sehs, leaf) for leaf in sehs.leaves]
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


def test_allowed_sets_subset_closed():
    for seed in range(40):
        rng = random.Random(1700 + seed)
        sehs = random_sehs(rng)
        ctx = _Ctx(sehs)
        pool = sorted(naive_pool(sehs), key=str)
        # T2' at leaf idx, read from the mask.
        allowed = lambda idx, lits: ctx.witness_mask(sorted(lits, key=literal_key)) >> idx & 1
        for idx in range(len(sehs.leaves)):
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
