import itertools
import random
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from fixtures import (
    leaf_parts,
    leaf_sequents,
    lit,
    nlit,
    shared_base,
    swap_pair,
    two_bases,
    two_step,
    two_step_instances,
    unbalanced_pair,
    x,
    y,
)
from gen import random_sehs, random_starting_set
from pi2cut.calculus import is_tautology, leaf_masks, tagged_leaves
from pi2cut.grammar import GStarSystem, HerbrandInstanceSet, reachable_literals
from pi2cut.herbrand import (
    ExtendedHerbrandSequent,
    NotTautological,
    proof_from_eh,
)
from pi2cut.problem_io import parse_problem, print_sequent
from pi2cut.solver import (
    CapExceeded,
    CoverFailure,
    NoSolutionUnderPool,
    NotASolution,
    SolverError,
    SolverOptions,
    _next_level,
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
    App,
    Atom,
    Literal,
    Sequent,
    SyntaxError_,
    Var,
    X,
    Y,
    beta,
    clause_key,
    const,
    dnf_of,
    dual,
    free_vars,
    literal_key,
    substitute_literal,
)

alpha = Var(ALPHA)


def t1(t):
    return App("t1", (t,))


def t2(t):
    return App("t2", (t,))


class TestBuildSehs:
    def test_shared_base_shape(self):
        pf = shared_base()
        rr = build_sehs(pf.problem, pf.grammar).reduced_representation
        assert print_sequent(rr) == (
            "(sequent (left (and (P alpha (t1 alpha)) (Q alpha (t2 alpha))))"
            " (right (and (P r b1) (Q r b2))))"
        )

    def test_swap_pair_reduced_representation(self):
        pf = swap_pair()
        rr = build_sehs(pf.problem, pf.grammar).reduced_representation
        assert print_sequent(rr) == (
            "(sequent (left (or (and (P alpha (t1 alpha)) (Q alpha (t2 alpha)))"
            " (and (P alpha (t2 alpha)) (Q alpha (t1 alpha)))))"
            " (right (or (P r b1) (Q r b1))))"
        )

    def test_cover_failure(self):
        pf = two_step()
        r1 = const("r1")
        stray = HerbrandInstanceSet([(t1(t1(r1)),)], ())
        with pytest.raises(CoverFailure):
            build_sehs(pf.problem, pf.grammar, stray)
        strays = HerbrandInstanceSet(stray.f_tuples, [(r1, r1)])
        with pytest.raises(CoverFailure) as err:
            build_sehs(pf.problem, pf.grammar, strays)
        assert str(err.value) == "grammar does not generate: (hF (t1 (t1 r1))), (hG r1 r1)"

    def test_cover_success(self):
        pf = two_step()
        build_sehs(pf.problem, pf.grammar, two_step_instances())


def reference_partition(sehs) -> frozenset[Sequent]:
    """The solve's leaf sequents computed the long way: the non-tautological leaves of
    the full maximal derivation of the reduced representation."""
    from pi2cut.calculus import NON_TAUT_LEAF, maximal_derivation

    return frozenset(
        node.sequent
        for node in maximal_derivation(sehs.reduced_representation).leaves()
        if node.rule == NON_TAUT_LEAF
    )


class TestPartitionedDnta:
    def test_leaves_match_the_reference_split(self):
        from fixtures import PROBLEM_DIR, load
        from pi2cut.benchmark import generate_sn

        problems = [load(p.name) for p in sorted(PROBLEM_DIR.glob("*.p2"))]
        problems += [generate_sn(n) for n in range(2, 7)]
        cases = [build_sehs(pf.problem, pf.grammar) for pf in problems]
        # Random grammar sequents from the property-test generator.
        cases += [
            random_sehs(random.Random(seed), rich=seed % 2 == 0, max_leaves=8) for seed in range(60)
        ]
        for sehs in cases:
            # Leaf order is no property: only the bit masks read it.
            leaves = leaf_sequents(sehs)
            assert len(set(leaves)) == len(leaves)
            assert set(leaves) == reference_partition(sehs)
            # No atom has both alpha and a b-variable free, so the split
            # by free variables is well defined.
            betas = set(sehs.grammar.beta_vars())
            for leaf in leaves:
                for atom in leaf.left | leaf.right:
                    vs = free_vars(atom)
                    assert not (ALPHA in vs and vs & betas), atom

    def test_succedent_negated_antecedent_positive(self):
        pf = shared_base()
        sehs = build_sehs(pf.problem, pf.grammar)
        r, b1, b2 = const("r"), Var("b1"), Var("b2")
        a_part = frozenset({lit("P", alpha, t1(alpha)), lit("Q", alpha, t2(alpha))})
        b_parts = (frozenset({nlit("P", r, b1)}), frozenset({nlit("Q", r, b2)}))
        a_atoms = [l.atom for l in a_part]
        assert set(leaf_sequents(sehs)) == {
            Sequent.of(a_atoms, [l.atom for l in b]) for b in b_parts
        }
        assert {leaf_parts(sehs, leaf) for leaf in leaf_sequents(sehs)} == {
            (a_part, b, frozenset()) for b in b_parts
        }

    def test_every_leaf_atom_kept_once(self):
        # The index holds each leaf atom once, with its side's sign: leaf
        # i holds a literal exactly when the literal is in its antecedent
        # view.
        from pi2cut.benchmark import generate_sn

        sn = generate_sn(3)
        sehs = build_sehs(sn.problem, sn.grammar)
        views = [frozenset().union(*leaf_parts(sehs, leaf)) for leaf in leaf_sequents(sehs)]
        literals = {q for l in frozenset().union(*views) for q in (l, dual(l))}
        for l in literals:
            mask = sehs.holding([sehs.lit_id(l)])
            for i, view in enumerate(views):
                assert bool(mask >> i & 1) == (l in view), (i, l)

    def test_swap_pair_leaves(self):
        pf = swap_pair()
        sehs = build_sehs(pf.problem, pf.grammar)
        leaves = leaf_sequents(sehs)
        assert len(leaves) == 2
        r = const("r")
        b1 = Var("b1")
        expected_b = {nlit("P", r, b1), nlit("Q", r, b1)}
        parts = [leaf_parts(sehs, leaf) for leaf in leaves]
        for _, b_part, n_part in parts:
            assert b_part == expected_b
            assert n_part == frozenset()
        a_parts = {a_part for a_part, _, _ in parts}
        assert a_parts == {
            frozenset({lit("P", alpha, t1(alpha)), lit("Q", alpha, t2(alpha))}),
            frozenset({lit("P", alpha, t2(alpha)), lit("Q", alpha, t1(alpha))}),
        }

    def test_tautological_reduced_representation(self):
        from pi2cut.grammar import SchematicPi2Grammar
        from pi2cut.herbrand import PrenexProblem
        from pi2cut.syntax import Or, Not, Signature

        sig = Signature({"t1": 1, "r": 0}, {"P": 1})
        pb = PrenexProblem(
            sig, ("x1",), ("y1",),
            Or(Atom("P", (Var("x1"),)), Not(Atom("P", (Var("x1"),)))),
            Or(Atom("P", (Var("y1"),)), Not(Atom("P", (Var("y1"),)))),
        )
        g = SchematicPi2Grammar(
            sig, ((alpha,),), ((Var("b1"),),), (const("r"),), (t1(alpha),)
        )
        sehs = build_sehs(pb, g)
        assert sehs.leaf_masks.pairs == ()

    def test_benchmark_leaf_family_size(self):
        from pi2cut.benchmark import generate_sn

        for n in (2, 3):
            sn = generate_sn(n)
            sehs = build_sehs(sn.problem, sn.grammar)
            assert len(sehs.leaf_masks.pairs) == n * (n - 1) * 2 ** (n - 1)

    def test_benchmark_leaf_family_content(self):
        from pi2cut.benchmark import generate_sn

        sn = generate_sn(2)
        sehs = build_sehs(sn.problem, sn.grammar)
        f = lambda t: App("f", (t,))
        g = lambda t: App("g", (t,))
        fi = lambda i, t: App(f"f{i}", (t,))
        c, b1 = const("c"), Var("b1")
        leaves = set(leaf_sequents(sehs))
        b_part = frozenset({nlit("P", c, f(b1)), nlit("P", c, g(b1))})
        expected = set()
        for i in (1, 2):
            other = 2 if i == 1 else 1
            for drop_other in (False, True):
                a = {lit("P", alpha, fi(i, alpha)), lit("P", alpha, f(fi(i, alpha)))}
                if drop_other:
                    a.add(nlit("P", alpha, fi(other, alpha)))
                else:
                    a.add(lit("P", alpha, f(fi(other, alpha))))
                expected.add((frozenset(a), b_part, frozenset()))
        assert {leaf_parts(sehs, leaf) for leaf in leaves} == expected
        # The antecedent view read back: positive atoms left, negated right.
        view = lambda lits: Sequent.of(
            [l.atom for l in lits if l.positive], [l.atom for l in lits if not l.positive]
        )
        assert leaves == {view(a | b | n) for a, b, n in expected}


def reference_holders(sehs) -> dict[int, int]:
    """The literal-to-leaves index built from the decoded leaf sequents:
    one byte row per literal id, set bit by bit."""
    rows = defaultdict(lambda: bytearray(len(sehs.leaf_masks.pairs) // 8 + 1))
    for idx, leaf in enumerate(leaf_sequents(sehs)):
        for sign, side in ((1, leaf.left), (-1, leaf.right)):
            for atom in side:
                rows[sign * sehs.lit_id(Literal(True, atom))][idx >> 3] |= 1 << (idx & 7)
    return {n: int.from_bytes(row, "little") for n, row in rows.items()}


def test_holders_match_the_decoded_leaves():
    from fixtures import PROBLEM_DIR, load
    from pi2cut.benchmark import generate_sn

    problems = [load(p.name) for p in sorted(PROBLEM_DIR.glob("*.p2"))]
    problems += [generate_sn(n) for n in range(2, 8)]
    assert len(problems) == 11
    for pf in problems:
        sehs = build_sehs(pf.problem, pf.grammar)
        assert sehs._holders == reference_holders(sehs), pf.problem


def reference_leaf_literals(sehs) -> tuple[set[Literal], frozenset[Literal]]:
    """The pools' leaf literals read from the OR of all the leaf masks,
    decoded: the A and N literals, and the duals of the B and N ones."""
    betas = frozenset(sehs.grammar.beta_vars())
    lefts, rights = set(), set()
    masks = sehs.leaf_masks
    left_atoms = right_atoms = 0
    for left, right in masks.pairs:
        left_atoms |= left
        right_atoms |= right
    for positive, atoms in ((True, left_atoms), (False, right_atoms)):
        for atom in masks.decode(atoms):
            vs = free_vars(atom)
            if ALPHA in vs or betas.isdisjoint(vs):
                lefts.add(Literal(positive, atom))
            if ALPHA not in vs:
                rights.add(Literal(not positive, atom))
    return lefts, frozenset(rights)


def instance_cases():
    """Solves with literals to instantiate: the fixture problems and S_2..S_5
    with both pools' literals, and random grammar sequents with their pools'
    and random starting sets' literals."""
    from fixtures import PROBLEM_DIR, load
    from pi2cut.benchmark import generate_sn

    problems = [load(p.name) for p in sorted(PROBLEM_DIR.glob("*.p2"))]
    problems += [generate_sn(n) for n in range(2, 6)]
    cases = [build_sehs(pf.problem, pf.grammar) for pf in problems]
    cases += [
        random_sehs(random.Random(4600 + seed), rich=seed % 2 == 0, max_leaves=6)
        for seed in range(60)
    ]
    for seed, sehs in enumerate(cases):
        lits = set(naive_pool(sehs)) | gstar_pool(sehs)[0]
        for c in random_starting_set(random.Random(4800 + seed), rich=True):
            lits |= c
        yield sehs, lits


def test_leaf_literals_match_the_decoded_masks():
    from pi2cut.solver import _leaf_literals

    for sehs, _ in instance_cases():
        assert _leaf_literals(sehs) == reference_leaf_literals(sehs), sehs.grammar


def test_literal_inverts_lit_id():
    # Every id maps back to its literal, and its negation to the dual.
    seen = 0
    for sehs, lits in instance_cases():
        for l in lits:
            n = sehs.lit_id(l)
            assert sehs.literal(n) is l and sehs.literal(-n) is dual(l)
            seen += 1
    assert seen > 500, seen


def test_instances_match_the_reference_substitutions():
    # Each literal's table entries are A[x\alpha, y\t_i] and A[x\r_j, y\b_j].
    seen = 0
    for sehs, lits in instance_cases():
        g = sehs.grammar
        for l in lits:
            alphas, betas = sehs.instances(l)
            assert alphas == tuple(substitute_literal(l, {X: alpha, Y: t}) for t in g.t_terms)
            assert betas == tuple(
                substitute_literal(l, {X: r, Y: Var(beta(j))}) for j, r in enumerate(g.r_terms, 1)
            )
            seen += 1
    assert seen > 500, seen


class TestAntiInstances:
    """The naive pool's generalisation: one image for x, one for y."""

    def test_full_and_partial_generalisation(self):
        target = lit("P", alpha, t1(alpha))
        got = reachable_literals(target, GStarSystem((alpha,), (t1(alpha),)))
        assert got == frozenset(
            {lit("P", x, y), lit("P", x, t1(x))}
        )

    def test_nested_witness_image(self):
        f = lambda t: App("f", (t,))
        f1 = lambda t: App("f1", (t,))
        target = lit("P", alpha, f(f1(alpha)))
        got = reachable_literals(target, GStarSystem((alpha,), (f1(alpha),)))
        assert lit("P", x, f(y)) in got
        assert lit("P", x, f(f1(x))) in got


def allowed(sehs, idx, lits) -> bool:
    """T2' at leaf `idx`: do all the literals instantiate into its alpha
    part under one common existential witness?"""
    return bool(sehs.witness_mask(sorted(lits, key=literal_key)) >> idx & 1)


def allowed_literals(sehs, idx):
    """The naive-pool literals that instantiate into the alpha part of leaf
    `idx` under some existential witness."""
    return [l for l in sorted(naive_pool(sehs), key=str) if allowed(sehs, idx, {l})]


class TestInAllowed:
    def test_allowed_literals_on_swap_pair(self):
        pf = swap_pair()
        sehs = build_sehs(pf.problem, pf.grammar)
        for idx in range(len(sehs.leaf_masks.pairs)):
            allowed = allowed_literals(sehs, idx)
            assert lit("P", x, y) in allowed or lit("Q", x, y) in allowed
            for l in allowed:
                assert free_vars(l.atom) <= {"x", "y"}

    def test_allowed_literals_empty(self):
        pf = swap_pair()
        sehs = build_sehs(pf.problem, pf.grammar)
        # A leaf without an alpha part admits no literal.
        leaf = Sequent.of([], [Atom("P", (const("r"), Var("b1")))])
        vars(sehs)["leaf_masks"] = leaf_masks(leaf)
        assert leaf_sequents(sehs) == (leaf,)
        assert sehs.all_leaves == 1
        assert allowed_literals(sehs, 0) == []

    def test_allowed_literals_on_benchmark_leaf(self):
        from pi2cut.benchmark import generate_sn

        sn = generate_sn(2)
        sehs = build_sehs(sn.problem, sn.grammar)
        f = lambda t: App("f", (t,))
        target = lit("P", x, f(y))
        for idx in range(len(sehs.leaf_masks.pairs)):
            assert target in allowed_literals(sehs, idx)

    def test_swap_pair_allowed_sets(self):
        pf = swap_pair()
        sehs = build_sehs(pf.problem, pf.grammar)
        P = lit("P", x, y)
        Q = lit("Q", x, y)
        for idx in range(len(sehs.leaf_masks.pairs)):
            assert allowed(sehs, idx, {P})
            assert allowed(sehs, idx, {Q})
            assert not allowed(sehs, idx, {P, Q})

    def test_subset_closure(self):
        pf = swap_pair()
        sehs = build_sehs(pf.problem, pf.grammar)
        for idx in range(len(sehs.leaf_masks.pairs)):
            big = frozenset(allowed_literals(sehs, idx))
            if allowed(sehs, idx, big):
                for member in big:
                    assert allowed(sehs, idx, {member})

    def test_benchmark_allowed(self):
        from pi2cut.benchmark import generate_sn

        sn = generate_sn(2)
        sehs = build_sehs(sn.problem, sn.grammar)
        f = lambda t: App("f", (t,))
        target = frozenset({lit("P", x, f(y))})
        assert all(allowed(sehs, idx, target) for idx in range(len(sehs.leaf_masks.pairs)))


def definition_masks(sehs, clause):
    """The cl and sol masks of one clause from the per-leaf definitions:
    T1 (a dual of C[x := r_j] in N), T2 (a dual of the instance in B),
    T1' (some C[y := t_i] literal of the pick in N) and T2' (for some
    witness i, every literal of the pick has its alpha_t(l, i) in A)."""
    g = sehs.grammar
    alpha_t = lambda l, i: substitute_literal(l, {X: alpha, Y: g.t_terms[i]})
    parts = [leaf_parts(sehs, leaf) for leaf in leaf_sequents(sehs)]

    def mask(closes):
        return sum(1 << idx for idx, part in enumerate(parts) if closes(*part))

    cl = []
    for j, r in enumerate(g.r_terms):
        x_only = {dual(substitute_literal(l, {X: r})) for l in clause}
        inst = [substitute_literal(l, {X: r, Y: Var(beta(j + 1))}) for l in clause]
        duals = {dual(l) for l in inst}
        cl.append((mask(lambda a, b, n: not (x_only.isdisjoint(n) and duals.isdisjoint(b))), inst))
    sol = []
    for pick in itertools.product(sorted(clause, key=literal_key), repeat=g.p):
        y_only = {substitute_literal(l, {Y: t}) for l, t in zip(pick, g.t_terms)}
        per_witness = [{alpha_t(l, i) for l in pick} for i in range(g.p)]
        sol.append((
            mask(lambda a, b, n: not y_only.isdisjoint(n) or any(w <= a for w in per_witness)),
            [alpha_t(l, i) for i, l in enumerate(pick)],
        ))
    return cl, sol


def ground_witness_sehs():
    """One leaf {P(alpha, d), R(d), -P(c, b1)} under the t-terms (f alpha)
    and the ground d: an alpha instance without alpha, R(d), is held by the
    leaf without lying in its A part."""
    from pi2cut.grammar import SchematicPi2Grammar
    from pi2cut.herbrand import PrenexProblem
    from pi2cut.syntax import And, Signature

    sig = Signature({"c": 0, "d": 0, "f": 1}, {"P": 2, "R": 1})
    c, d, x1, y1 = const("c"), const("d"), Var("x1"), Var("y1")
    pb = PrenexProblem(
        sig, ("x1",), ("y1",), And(Atom("P", (x1, d)), Atom("R", (d,))), Atom("P", (c, y1))
    )
    g = SchematicPi2Grammar(sig, ((alpha,),), ((Var("b1"),),), (c,), (App("f", (alpha,)), d))
    return build_sehs(pb, g)


def test_masks_match_the_leaf_definitions():
    from fixtures import PROBLEM_DIR, load
    from pi2cut.benchmark import generate_sn

    rng = random.Random(4100)
    # The pick (R(y), P(x, y)) closes no leaf here: under the witness d
    # its instances are held, but R(d) has no alpha, so T2' fails.
    cases = [(ground_witness_sehs(), [frozenset({lit("R", y), lit("P", x, y)})])]
    problems = [load(p.name) for p in sorted(PROBLEM_DIR.glob("*.p2"))]
    for pf in problems + [generate_sn(n) for n in range(2, 7)]:
        sehs = build_sehs(pf.problem, pf.grammar)
        units = clauses_from_pool(naive_pool(sehs), 1)
        # A two-literal clause has 2^p sol picks; S_n has p = n.
        pairs = clauses_from_pool(sorted(naive_pool(sehs), key=literal_key)[:4], 2)
        pairs = pairs if sehs.grammar.p <= 4 else []
        randoms = set().union(*(random_starting_set(rng, rich=True) for _ in range(3)))
        cases.append((sehs, units + pairs + sorted(randoms, key=clause_key)))
    for seed in range(120):
        sehs = random_sehs(random.Random(4200 + seed), rich=seed % 2 == 0, max_leaves=6)
        clauses = random_starting_set(random.Random(4400 + seed), rich=seed % 3 != 2)
        if seed % 2 == 0:
            # Pool pairs reach the picks whose instance under a ground
            # witness has no alpha (T2'); random starting sets rarely do.
            clauses |= frozenset(clauses_from_pool(naive_pool(sehs), 2))
        cases.append((sehs, clauses))
    hits = Counter()
    for sehs, clauses in cases:
        for c in clauses:
            cl, sol = definition_masks(sehs, c)
            for j, (mask, inst) in enumerate(cl):
                assert sehs.cl_pick(c, j) == (mask, frozenset(map(sehs.lit_id, inst))), (c, j)
            got = sehs.sol_picks(c)
            assert got == [(mask, frozenset(map(sehs.lit_id, i))) for mask, i in sol], c
            hits.update(cl=sum(m != 0 for m, _ in cl), sol=sum(m != 0 for m, _ in sol))
    # Both filters are exercised on clauses that close some leaves.
    assert hits["cl"] > 100 and hits["sol"] > 100, hits


class TestFilters:
    def test_swap_pair_joint_clause(self):
        pf = swap_pair()
        sehs = build_sehs(pf.problem, pf.grammar)
        joint = frozenset([frozenset({lit("P", x, y), lit("Q", x, y)})])
        cl = cl_filter(joint, sehs)
        assert cl == frozenset({joint})
        assert sol_filter(cl, sehs) == frozenset()

    def test_swap_pair_unit_clause(self):
        pf = swap_pair()
        sehs = build_sehs(pf.problem, pf.grammar)
        unit = frozenset([frozenset({lit("P", x, y)})])
        sol = sol_filter(cl_filter(unit, sehs), sehs)
        assert sol == frozenset({unit})
        assert verify_solution(sehs, unit)

    def test_benchmark_solution_set(self):
        from pi2cut.benchmark import generate_sn

        sn = generate_sn(3)
        sehs = build_sehs(sn.problem, sn.grammar)
        f = lambda t: App("f", (t,))
        unit = frozenset([frozenset({lit("P", x, f(y))})])
        sol = sol_filter(cl_filter(unit, sehs), sehs)
        assert sol == frozenset({unit})

    def test_cancelling_picks(self):
        # T3 and T3': picks whose instances hold a complementary pair close
        # every leaf, also where no single pick closes one by T1/T2 (T1'/T2').
        pf = swap_pair()
        sehs = build_sehs(pf.problem, pf.grammar)
        contradiction = frozenset([frozenset({lit("Q", y, x), nlit("Q", y, x)})])
        assert cl_filter(contradiction, sehs) == frozenset({contradiction})
        assert sol_filter([contradiction], sehs) == frozenset()
        middle = frozenset(
            [frozenset({lit("P", x, t2(x))}), frozenset({nlit("P", x, t2(x))})]
        )
        assert sol_filter([middle], sehs) == frozenset({middle})

    def test_empty_starting_set(self):
        pf = swap_pair()
        sehs = build_sehs(pf.problem, pf.grammar)
        assert cl_filter(frozenset(), sehs) == frozenset()
        assert sol_filter(frozenset(), sehs) == frozenset()


class TestPools:
    def test_gstar_pool_benchmark(self):
        from pi2cut.benchmark import generate_sn

        f = lambda t: App("f", (t,))
        for n in (2, 3, 4, 5):
            sn = generate_sn(n)
            sehs = build_sehs(sn.problem, sn.grammar)
            pool, unifiable = gstar_pool(sehs)
            assert pool == frozenset({lit("P", x, f(y))})
            assert unifiable

    def test_gstar_pool_empty_dnta(self):
        from pi2cut.grammar import SchematicPi2Grammar
        from pi2cut.herbrand import PrenexProblem
        from pi2cut.syntax import Not, Or, Signature

        sig = Signature({"t1": 1, "r": 0}, {"P": 1})
        pb = PrenexProblem(
            sig, ("x1",), ("y1",),
            Atom("P", (const("r"),)),
            Or(Atom("P", (Var("y1"),)), Not(Atom("P", (Var("y1"),)))),
        )
        g = SchematicPi2Grammar(sig, ((alpha,),), ((Var("b1"),),), (const("r"),), (t1(alpha),))
        sehs = build_sehs(pb, g)
        pool, unifiable = gstar_pool(sehs)
        assert pool == frozenset() and unifiable

    def test_naive_pool_two_bases(self):
        pf = two_bases()
        sehs = build_sehs(pf.problem, pf.grammar)
        pool = naive_pool(sehs)
        assert lit("P", x, y) in pool
        assert lit("Q", x, y) in pool
        # generalising keeps ground alternatives of the witness images
        assert lit("P", const("r1"), y) in pool

    def test_naive_pool_benchmark_contains_solution(self):
        from pi2cut.benchmark import generate_sn

        sn = generate_sn(2)
        sehs = build_sehs(sn.problem, sn.grammar)
        f = lambda t: App("f", (t,))
        assert lit("P", x, f(y)) in naive_pool(sehs)

    def test_clauses_from_pool_ordering(self):
        pool = [lit("P", x, y), lit("Q", x, y)]
        clauses = clauses_from_pool(pool, max_clause_size=2)
        assert [len(c) for c in clauses] == [1, 1, 2]


class TestClauseSets:
    def test_smallest_first_order(self):
        # Where every set is a parent, each level is every set of that many
        # of the 41 clauses: C(41,1) + C(41,2) + C(41,3) = 11521 in all.
        pf = two_bases()
        sehs = build_sehs(pf.problem, pf.grammar)
        clauses = clauses_from_pool(naive_pool(sehs), max_clause_size=3)
        keys = {c: clause_key(c) for c in clauses}
        order = lambda cs: (sum(map(len, cs)), tuple(keys[c] for c in cs))
        levels = [[()]]
        for k in (1, 2, 3):
            levels.append(list(_next_level(set(levels[-1]), clauses)))
            assert levels[-1] == sorted(itertools.combinations(clauses, k), key=order)
        assert sum(map(len, levels[1:])) == 11521
        # A set is built only when each subset one clause smaller is a parent.
        gone = levels[2][7]
        pruned = list(_next_level(set(levels[2]) - {gone}, clauses))
        assert pruned == [cs for cs in levels[3] if not set(gone) <= set(cs)]
        assert len(levels[3]) - len(pruned) == len(clauses) - 2

    def test_order_holds_on_large_levels(self):
        # 11 literals give 231 clauses, so C(231, 3) > 2 * 10**6 sets of
        # three clauses when every pair is a parent; the C(11, 3) sets of
        # three unit clauses come first.
        pool = [lit(p, x, y) for p in "ABCDEFGHIJK"]
        clauses = clauses_from_pool(pool, max_clause_size=3)
        units = [c for c in clauses if len(c) == 1]
        assert len(units) == 11 and len(clauses) == 231
        pairs = set(itertools.combinations(clauses, 2))
        first = list(itertools.islice(_next_level(pairs, clauses), 165))
        assert all(sum(map(len, cs)) == 3 for cs in first)
        assert first == list(itertools.combinations(units, 3))


def walk_verdict(sehs, clauses):
    """Balance by its definition: walk every leaf of the solved sequent with
    the end sequent's formulas as its end part, so that the bridge is not
    in it unless an end formula has its shape.  None when a leaf stays
    open (not a solution)."""
    eh = ExtendedHerbrandSequent(sehs.problem, sehs.grammar, dnf_of(clauses))
    verdict = True
    for leaf, end in tagged_leaves(eh.sequent(), eh.instance_sequent()):
        shared = leaf.left & leaf.right
        if not shared:
            return None
        if not shared & (end.left | end.right):
            verdict = False
    return verdict


def fixture_pair_sets():
    """Per fixture, its `Sehs` and the sets of one or two naive-pool
    clauses of at most two literals: 2,218 sets in all."""
    for loader in (two_step, swap_pair, unbalanced_pair, shared_base, two_bases):
        pf = loader()
        sehs = build_sehs(pf.problem, pf.grammar)
        clauses = clauses_from_pool(naive_pool(sehs), max_clause_size=2)
        yield sehs, [frozenset(c) for k in (1, 2) for c in itertools.combinations(clauses, k)]


def balance_verdict(sehs, clauses):
    try:
        return is_balanced(sehs, clauses)
    except NotASolution:
        return None


class TestVerifyAndBalance:
    def test_two_step_verify(self):
        pf = two_step()
        sehs = build_sehs(pf.problem, pf.grammar)
        assert verify_solution(sehs, frozenset([frozenset({lit("P", x, y)})]))

    def test_swap_pair_joint_not_a_solution(self):
        pf = swap_pair()
        sehs = build_sehs(pf.problem, pf.grammar)
        joint = frozenset([frozenset({lit("P", x, y), lit("Q", x, y)})])
        assert not verify_solution(sehs, joint)
        with pytest.raises(NotASolution):
            is_balanced(sehs, joint)

    def test_tagged_walk_follows_the_maximal_derivation(self):
        from pi2cut.benchmark import generate_sn
        from pi2cut.calculus import maximal_derivation

        for pf in (generate_sn(3), unbalanced_pair()):
            s = introduce_cut(pf.problem, pf.grammar).eh.sequent()
            tagged = list(tagged_leaves(s, s))
            leaves = [n.sequent for n in maximal_derivation(s).leaves()]
            assert len(leaves) > 1
            assert tagged == [(leaf, leaf) for leaf in leaves]

    def test_balance_agrees_with_the_tagged_walk(self):
        from pi2cut.benchmark import generate_sn

        counts = Counter()
        for sehs, sets in fixture_pair_sets():
            verdicts = [balance_verdict(sehs, cs) for cs in sets]
            counts.update(verdicts)
            # Every solution and every tenth non-solution against the walk.
            for i, (cs, verdict) in enumerate(zip(sets, verdicts)):
                if verdict is not None or i % 10 == 0:
                    assert verdict == walk_verdict(sehs, cs), cs
                    assert verify_solution(sehs, cs) == (verdict is not None), cs
        # All 165 sets that verify, of the 2,218 sets here, are solutions.
        assert (counts[True], counts[False], counts[None]) == (147, 18, 2053)
        for n in (2, 3, 4):
            sn = generate_sn(n)
            report = introduce_cut(sn.problem, sn.grammar)
            sehs = build_sehs(sn.problem, sn.grammar)
            assert report.balanced and walk_verdict(sehs, report.solutions[0])

    def test_split_check_equals_the_full_sequent(self):
        cases = [(sehs, cs) for sehs, sets in fixture_pair_sets() for cs in sets]
        fixture_cases = len(cases)
        for seed in range(40):
            rng = random.Random(7300 + seed)
            sehs = random_sehs(rng, rich=seed % 2 == 0)
            starting = sorted(random_starting_set(rng, rich=seed % 2 == 0), key=clause_key)
            cases += [(sehs, frozenset(c)) for k in (1, 2) for c in itertools.combinations(starting, k)]
        verdicts, built = Counter(), Counter()
        for i, (sehs, cs) in enumerate(cases):
            eh = ExtendedHerbrandSequent(sehs.problem, sehs.grammar, dnf_of(cs))
            valid = verify_solution(sehs, cs)
            assert valid == is_tautology(eh.sequent()), cs
            verdicts[i < fixture_cases, valid] += 1
            if i % 15 == 0:
                try:
                    proof_from_eh(eh)
                except NotTautological:
                    built[valid, False] += 1
                else:
                    built[valid, True] += 1
        assert verdicts[True, True] == 165 and verdicts[True, False] == 2053
        assert verdicts[False, True] and verdicts[False, False]
        # The proof is built exactly for the sets that verify.
        assert set(built) == {(True, True), (False, False)}, built

    def test_malformed_clause_sets_keep_their_errors(self):
        pf = swap_pair()
        sehs = build_sehs(pf.problem, pf.grammar)
        over_z = frozenset([frozenset({lit("P", x, Var("z"))})])
        # (clause set, error from verify_solution, error from is_balanced)
        cases = [
            (frozenset(), SyntaxError_, SyntaxError_),
            (frozenset([frozenset()]), SyntaxError_, SyntaxError_),
            (over_z, SolverError, SyntaxError_),
        ]
        for cs, on_verify, on_balance in cases:
            for check, error in ((verify_solution, on_verify), (is_balanced, on_balance)):
                with pytest.raises(Exception) as info:
                    check(sehs, cs)
                assert info.type is error, (check.__name__, cs)

    def test_benchmark_balanced(self):
        from pi2cut.benchmark import generate_sn

        sn = generate_sn(2)
        sehs = build_sehs(sn.problem, sn.grammar)
        f = lambda t: App("f", (t,))
        cs = frozenset([frozenset({lit("P", x, f(y))})])
        assert verify_solution(sehs, cs)
        assert is_balanced(sehs, cs)

    def test_unbalanced_fixture(self):
        pf = unbalanced_pair()
        sehs = build_sehs(pf.problem, pf.grammar)
        f1 = lambda t: App("f1", (t,))
        f2 = lambda t: App("f2", (t,))
        cs = frozenset([frozenset({lit("R", f1(x), y), nlit("R", y, f2(x))})])
        assert verify_solution(sehs, cs)
        assert not is_balanced(sehs, cs)

    def test_filters_are_conservative_on_mixed_witness_clauses(self):
        # A verified two-literal matrix whose literals need different
        # witness indices is rejected by the existential-side filter: the
        # whole chosen tuple must land in one allowed set.  Documented
        # behaviour; the pipeline still solves the instance with a unit
        # clause.
        pf = unbalanced_pair()
        sehs = build_sehs(pf.problem, pf.grammar)
        f1 = lambda t: App("f1", (t,))
        f2 = lambda t: App("f2", (t,))
        clause = frozenset({lit("R", f1(x), y), nlit("R", y, f2(x))})
        cs = frozenset([clause])
        assert verify_solution(sehs, cs)
        assert sol_filter(cl_filter(frozenset([clause]), sehs), sehs) == frozenset()


class TestIntroduceCut:
    def test_two_step_solves(self):
        pf = two_step()
        report = introduce_cut(pf.problem, pf.grammar, term_set=pf.herbrand_terms)
        assert report.solutions[0] == frozenset([frozenset({lit("P", x, y)})])
        assert report.complexity.quantifier == 7

    def test_unsolvable_fixtures(self):
        # (pool size, candidates, cl survivors, sol survivors).  Naive: 6
        # literals give 41 clauses of size <= 3, all 41 tried at level 1;
        # 16 survive, and every set of them passes, so C(16,2) + C(16,3)
        # sets are tried at levels 2 and 3: 41 + 120 + 560 = 721.  Gstar:
        # 3 clauses, 1 survivor, and no level 2.
        expected = {"gstar": (2, 3, 1, 0), "naive": (6, 721, 696, 0)}
        for loader in (shared_base, two_bases):
            pf = loader()
            for pool, counts in expected.items():
                with pytest.raises(NoSolutionUnderPool) as info:
                    introduce_cut(pf.problem, pf.grammar, SolverOptions(pool=pool))
                s = info.value.stats
                assert (s.pool_size, s.candidates, s.cl_passed, s.sol_passed) == counts

    def test_benchmark_pipeline(self):
        from pi2cut.benchmark import generate_sn

        sn = generate_sn(2)
        report = introduce_cut(sn.problem, sn.grammar)
        assert report.complexity.quantifier == 11
        assert report.balanced
        f = lambda t: App("f", (t,))
        assert report.solutions[0] == frozenset([frozenset({lit("P", x, f(y))})])

    def test_explicit_starting_set(self):
        pf = swap_pair()
        start = frozenset([frozenset({lit("Q", x, y)})])
        report = introduce_cut(pf.problem, pf.grammar, SolverOptions(pool=start))
        assert report.solutions[0] == start

    def test_all_solutions_ordered(self):
        pf = swap_pair()
        report = introduce_cut(
            pf.problem, pf.grammar, SolverOptions(pool="gstar", all_solutions=True)
        )
        sizes = [sum(len(c) for c in cs) for cs in report.solutions]
        assert sizes == sorted(sizes)

    def test_deterministic_reports(self):
        from pi2cut.benchmark import generate_sn
        from pi2cut.cli import _report_lines
        from pi2cut.problem_io import print_proof

        sn = generate_sn(2)
        first = introduce_cut(sn.problem, sn.grammar)
        second = introduce_cut(sn.problem, sn.grammar)
        assert _report_lines(first) == _report_lines(second)
        sig = sn.problem.signature
        assert print_proof(first.proof, sig) == print_proof(second.proof, sig)

    def test_one_leaf_pass_per_solve(self, monkeypatch):
        # The leaf engine runs once per solve, and the solve reads its
        # masks only: no mask is decoded into formulas.
        import pi2cut.solver as solver
        from pi2cut.benchmark import generate_sn
        from pi2cut.calculus import LeafMasks

        calls = []
        real = solver.partitioned_dnta
        decoded = []
        real_decode = LeafMasks.decode

        def counted(sehs):
            calls.append(sehs)
            return real(sehs)

        monkeypatch.setattr(solver, "partitioned_dnta", counted)
        monkeypatch.setattr(LeafMasks, "decode", lambda *a: decoded.append(a) or real_decode(*a))
        for pf, pool in ((generate_sn(3), "gstar"), (two_step(), "naive")):
            calls.clear()
            introduce_cut(pf.problem, pf.grammar, SolverOptions(pool=pool))
            assert len(calls) == 1
            assert "leaf_masks" in vars(calls[0]) and not decoded

    def test_one_grammar_check_per_solve(self, monkeypatch):
        # `build_sehs` validates the grammar and the proof's extended
        # sequent validates it again; verifying each further solution and
        # the balance test add no check.
        import pi2cut.herbrand as herbrand
        import pi2cut.solver as solver

        checked = []
        for module in (solver, herbrand):
            real = module.validate
            monkeypatch.setattr(module, "validate", lambda g, real=real: checked.append(g) or real(g))
        pf = swap_pair()
        runs = []
        for all_solutions in (False, True):
            checked.clear()
            options = SolverOptions(pool="naive", max_clauses=2, all_solutions=all_solutions)
            runs.append((len(introduce_cut(pf.problem, pf.grammar, options).solutions), len(checked)))
        (one, checks), (many, all_checks) = runs
        assert one == 1 < many and checks == all_checks == 2
        sehs = build_sehs(pf.problem, pf.grammar)
        checked.clear()
        survivors = sol_filter(cl_filter(clauses_from_pool(naive_pool(sehs), 2), sehs, 2), sehs)
        assert survivors and all(is_balanced(sehs, cs) for cs in survivors)
        assert all(verify_solution(sehs, cs) for cs in survivors) and not checked

    def test_cap_exceeded(self):
        pf = shared_base()
        with pytest.raises(CapExceeded):
            introduce_cut(
                pf.problem,
                pf.grammar,
                SolverOptions(pool="naive", max_candidates=10),
            )

    def test_pick_budget_reports_the_count(self):
        # Two literals under twelve witnesses make 4,096 picks, the budget;
        # three make 531,441, past it.  The cap carries the solve's counters,
        # and none when a stage that reads the picks is called on its own.
        from dataclasses import replace

        pf = swap_pair()
        g = replace(pf.grammar, t_terms=pf.grammar.t_terms * 6)
        sehs = build_sehs(pf.problem, g)
        assert len(sehs.sol_picks(frozenset({lit("P", x, y), lit("Q", x, y)}))) == 4096
        pool = frozenset({frozenset({lit("P", x, y), lit("Q", x, y), lit("P", y, x)})})
        budget = r"too many sol picks for one clause \(531441\)"
        with pytest.raises(CapExceeded, match=budget) as info:
            introduce_cut(pf.problem, g, SolverOptions(pool=pool))
        s = info.value.stats
        assert (s.pool, s.candidates, s.cl_passed, s.sol_passed, s.caps_hit) == ("file", 1, 1, 0, True)
        for stage in (lambda: sol_filter([pool], sehs), lambda: is_balanced(sehs, pool)):
            with pytest.raises(CapExceeded, match=budget) as info:
                stage()
            assert info.value.stats is None

    def test_site_cap_reports_the_pool(self):
        # One leaf literal with 17 generalisation sites, past the site cap:
        # through `introduce_cut` the cap names the pool and carries no
        # later counter; either pool called on its own carries none.
        pf = parse_problem((Path(__file__).parent / "hostile" / "site_cap.p2").read_text())
        sites = r"too many generalisation sites \(17\)"
        for pool in ("naive", "gstar"):
            with pytest.raises(CapExceeded, match=sites) as info:
                introduce_cut(pf.problem, pf.grammar, SolverOptions(pool=pool))
            s = info.value.stats
            counters = (s.pool_size, s.unifiable, s.candidates, s.cl_passed, s.sol_passed)
            assert (s.pool, s.caps_hit, counters) == (pool, True, (None,) * 5)
        sehs = build_sehs(pf.problem, pf.grammar)
        for stage in (naive_pool, gstar_pool):
            with pytest.raises(CapExceeded, match=sites) as info:
                stage(sehs)
            assert info.value.stats is None

    def test_unknown_pool_is_rejected(self):
        with pytest.raises(SolverError, match="unknown pool 'foo'"):
            SolverOptions(pool="foo")

    def test_cap_counts_the_sets_tried(self):
        # The pruned search tries 721 sets: a cap of 720 stops it before
        # the last one, a cl survivor, and a cap of 721 lets it end without
        # a solution.
        pf = two_bases()
        with pytest.raises(CapExceeded, match="more than 720 candidates") as info:
            introduce_cut(pf.problem, pf.grammar, SolverOptions(pool="naive", max_candidates=720))
        s = info.value.stats
        counts = (s.pool, s.pool_size, s.candidates, s.cl_passed, s.sol_passed, s.caps_hit)
        assert counts == ("naive", 6, 720, 695, 0, True)
        with pytest.raises(NoSolutionUnderPool) as info:
            introduce_cut(pf.problem, pf.grammar, SolverOptions(pool="naive", max_candidates=721))
        s = info.value.stats
        assert (s.candidates, s.cl_passed, s.sol_passed, s.caps_hit) == (721, 696, 0, False)
