import itertools

import pytest

from fixtures import (
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
from pi2cut.grammar import WrappedTerm
from pi2cut.herbrand import herbrand_term_set
from pi2cut.solver import (
    CoverFailure,
    NoSolutionUnderPool,
    NotASolution,
    PartitionedLeaf,
    SolverOptions,
    _clause_sets,
    _Ctx,
    anti_instances,
    build_sehs,
    cl_filter,
    clauses_from_pool,
    gstar_pool,
    introduce_cut,
    is_balanced,
    naive_pool,
    partitioned_dnta,
    sol_filter,
    verify_solution,
)
from pi2cut.syntax import (
    ALPHA,
    App,
    Atom,
    Var,
    clause_key,
    const,
    free_vars,
    sequent_to_sexp,
)

alpha = Var(ALPHA)


def t1(t):
    return App("t1", (t,))


def t2(t):
    return App("t2", (t,))


class TestBuildSehs:
    def test_shared_base_shape(self):
        pf = shared_base()
        sehs, rr = build_sehs(pf.problem, pf.grammar)
        assert sequent_to_sexp(rr) == (
            "(sequent (left (and (P alpha (t1 alpha)) (Q alpha (t2 alpha))))"
            " (right (and (P r b1) (Q r b2))))"
        )

    def test_swap_pair_reduced_representation(self):
        pf = swap_pair()
        _, rr = build_sehs(pf.problem, pf.grammar)
        assert sequent_to_sexp(rr) == (
            "(sequent (left (or (and (P alpha (t1 alpha)) (Q alpha (t2 alpha)))"
            " (and (P alpha (t2 alpha)) (Q alpha (t1 alpha)))))"
            " (right (or (P r b1) (Q r b1))))"
        )

    def test_cover_failure(self):
        pf = two_step()
        stray = WrappedTerm("F", (t1(t1(const("r1"))),))
        with pytest.raises(CoverFailure):
            build_sehs(pf.problem, pf.grammar, [stray])

    def test_cover_success(self):
        pf = two_step()
        terms = herbrand_term_set(pf.problem, two_step_instances())
        sehs, _ = build_sehs(pf.problem, pf.grammar, terms)
        assert sehs.term_set == terms


class TestPartitionedDnta:
    def test_swap_pair_leaves(self):
        pf = swap_pair()
        sehs, _ = build_sehs(pf.problem, pf.grammar)
        leaves = sorted(partitioned_dnta(sehs), key=PartitionedLeaf.key)
        assert len(leaves) == 2
        r = const("r")
        b1 = Var("b1")
        expected_b = {nlit("P", r, b1), nlit("Q", r, b1)}
        for leaf in leaves:
            assert leaf.b_part == expected_b
            assert leaf.n_part == frozenset()
        a_parts = {leaf.a_part for leaf in leaves}
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
        sehs, _ = build_sehs(pb, g)
        assert partitioned_dnta(sehs) == frozenset()

    def test_benchmark_leaf_family_size(self):
        from pi2cut.benchmark import generate_sn

        for n in (2, 3):
            sn = generate_sn(n)
            sehs, _ = build_sehs(sn.problem, sn.grammar)
            assert len(partitioned_dnta(sehs)) == n * (n - 1) * 2 ** (n - 1)

    def test_benchmark_leaf_family_content(self):
        from pi2cut.benchmark import generate_sn

        sn = generate_sn(2)
        sehs, _ = build_sehs(sn.problem, sn.grammar)
        f = lambda t: App("f", (t,))
        g = lambda t: App("g", (t,))
        fi = lambda i, t: App(f"f{i}", (t,))
        c, b1 = const("c"), Var("b1")
        leaves = partitioned_dnta(sehs)
        expected = set()
        for i in (1, 2):
            other = 2 if i == 1 else 1
            for drop_other in (False, True):
                a = {lit("P", alpha, fi(i, alpha)), lit("P", alpha, f(fi(i, alpha)))}
                if drop_other:
                    a.add(nlit("P", alpha, fi(other, alpha)))
                else:
                    a.add(lit("P", alpha, f(fi(other, alpha))))
                expected.add(
                    PartitionedLeaf(
                        frozenset(a),
                        frozenset({nlit("P", c, f(b1)), nlit("P", c, g(b1))}),
                        frozenset(),
                    )
                )
        assert leaves == expected


class TestAntiInstances:
    def test_full_and_partial_generalisation(self):
        target = lit("P", alpha, t1(alpha))
        got = anti_instances(target, alpha, t1(alpha))
        assert got == frozenset(
            {lit("P", x, y), lit("P", x, t1(x))}
        )

    def test_nested_witness_image(self):
        f = lambda t: App("f", (t,))
        f1 = lambda t: App("f1", (t,))
        target = lit("P", alpha, f(f1(alpha)))
        got = anti_instances(target, alpha, f1(alpha))
        assert lit("P", x, f(y)) in got
        assert lit("P", x, f(f1(x))) in got


def allowed_literals(sehs, ctx, idx):
    """The naive-pool literals that instantiate into the alpha part of leaf
    `idx` under some existential witness."""
    return [l for l in sorted(naive_pool(sehs), key=str) if ctx.allowed(idx, frozenset({l}))]


class TestInAllowed:
    def test_allowed_literals_on_swap_pair(self):
        pf = swap_pair()
        sehs, _ = build_sehs(pf.problem, pf.grammar)
        ctx = _Ctx(sehs)
        for idx in range(len(sehs.leaves)):
            allowed = allowed_literals(sehs, ctx, idx)
            assert lit("P", x, y) in allowed or lit("Q", x, y) in allowed
            for l in allowed:
                assert free_vars(l.atom) <= {"x", "y"}

    def test_allowed_literals_empty(self):
        pf = swap_pair()
        sehs, _ = build_sehs(pf.problem, pf.grammar)
        ctx = _Ctx(sehs)
        # A leaf without an alpha part admits no literal.
        ctx.leaves = (
            PartitionedLeaf(frozenset(), frozenset({nlit("P", const("r"), Var("b1"))}), frozenset()),
        )
        assert allowed_literals(sehs, ctx, 0) == []

    def test_allowed_literals_on_benchmark_leaf(self):
        from pi2cut.benchmark import generate_sn

        sn = generate_sn(2)
        sehs, _ = build_sehs(sn.problem, sn.grammar)
        ctx = _Ctx(sehs)
        f = lambda t: App("f", (t,))
        target = lit("P", x, f(y))
        for idx in range(len(sehs.leaves)):
            assert target in allowed_literals(sehs, ctx, idx)

    def test_swap_pair_allowed_sets(self):
        pf = swap_pair()
        sehs, _ = build_sehs(pf.problem, pf.grammar)
        ctx = _Ctx(sehs)
        P = lit("P", x, y)
        Q = lit("Q", x, y)
        for idx in range(len(sehs.leaves)):
            assert ctx.allowed(idx, frozenset({P}))
            assert ctx.allowed(idx, frozenset({Q}))
            assert not ctx.allowed(idx, frozenset({P, Q}))

    def test_subset_closure(self):
        pf = swap_pair()
        sehs, _ = build_sehs(pf.problem, pf.grammar)
        ctx = _Ctx(sehs)
        for idx in range(len(sehs.leaves)):
            big = frozenset(allowed_literals(sehs, ctx, idx))
            if ctx.allowed(idx, big):
                for member in big:
                    assert ctx.allowed(idx, frozenset({member}))

    def test_benchmark_allowed(self):
        from pi2cut.benchmark import generate_sn

        sn = generate_sn(2)
        sehs, _ = build_sehs(sn.problem, sn.grammar)
        ctx = _Ctx(sehs)
        f = lambda t: App("f", (t,))
        target = frozenset({lit("P", x, f(y))})
        assert all(ctx.allowed(idx, target) for idx in range(len(sehs.leaves)))


class TestFilters:
    def test_swap_pair_joint_clause(self):
        pf = swap_pair()
        sehs, _ = build_sehs(pf.problem, pf.grammar)
        joint = frozenset([frozenset({lit("P", x, y), lit("Q", x, y)})])
        cl = cl_filter(joint, sehs)
        assert cl == frozenset({joint})
        assert sol_filter(cl, sehs) == frozenset()

    def test_swap_pair_unit_clause(self):
        pf = swap_pair()
        sehs, _ = build_sehs(pf.problem, pf.grammar)
        unit = frozenset([frozenset({lit("P", x, y)})])
        sol = sol_filter(cl_filter(unit, sehs), sehs)
        assert sol == frozenset({unit})
        assert verify_solution(sehs, unit)

    def test_benchmark_solution_set(self):
        from pi2cut.benchmark import generate_sn

        sn = generate_sn(3)
        sehs, _ = build_sehs(sn.problem, sn.grammar)
        f = lambda t: App("f", (t,))
        unit = frozenset([frozenset({lit("P", x, f(y))})])
        sol = sol_filter(cl_filter(unit, sehs), sehs)
        assert sol == frozenset({unit})

    def test_cancelling_picks(self):
        # T3 and T3': picks whose instances hold a complementary pair close
        # every leaf, also where no single pick closes one by T1/T2 (T1'/T2').
        pf = swap_pair()
        sehs, _ = build_sehs(pf.problem, pf.grammar)
        contradiction = frozenset([frozenset({lit("Q", y, x), nlit("Q", y, x)})])
        assert cl_filter(contradiction, sehs) == frozenset({contradiction})
        assert sol_filter([contradiction], sehs) == frozenset()
        middle = frozenset(
            [frozenset({lit("P", x, t2(x))}), frozenset({nlit("P", x, t2(x))})]
        )
        assert sol_filter([middle], sehs) == frozenset({middle})

    def test_empty_starting_set(self):
        pf = swap_pair()
        sehs, _ = build_sehs(pf.problem, pf.grammar)
        assert cl_filter(frozenset(), sehs) == frozenset()
        assert sol_filter(frozenset(), sehs) == frozenset()


class TestPools:
    def test_gstar_pool_benchmark(self):
        from pi2cut.benchmark import generate_sn

        f = lambda t: App("f", (t,))
        for n in (2, 3, 4, 5):
            sn = generate_sn(n)
            sehs, _ = build_sehs(sn.problem, sn.grammar)
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
        sehs, _ = build_sehs(pb, g)
        pool, unifiable = gstar_pool(sehs)
        assert pool == frozenset() and unifiable

    def test_naive_pool_two_bases(self):
        pf = two_bases()
        sehs, _ = build_sehs(pf.problem, pf.grammar)
        pool = naive_pool(sehs)
        assert lit("P", x, y) in pool
        assert lit("Q", x, y) in pool
        # generalising keeps ground alternatives of the witness images
        assert lit("P", const("r1"), y) in pool

    def test_naive_pool_benchmark_contains_solution(self):
        from pi2cut.benchmark import generate_sn

        sn = generate_sn(2)
        sehs, _ = build_sehs(sn.problem, sn.grammar)
        f = lambda t: App("f", (t,))
        assert lit("P", x, f(y)) in naive_pool(sehs)

    def test_clauses_from_pool_ordering(self):
        pool = [lit("P", x, y), lit("Q", x, y)]
        clauses = clauses_from_pool(pool, max_clause_size=2)
        assert [len(c) for c in clauses] == [1, 1, 2]


class TestClauseSets:
    def test_smallest_first_order(self):
        pf = two_bases()
        sehs, _ = build_sehs(pf.problem, pf.grammar)
        clauses = clauses_from_pool(naive_pool(sehs), max_clause_size=3)
        keys = {c: clause_key(c) for c in clauses}
        expected = [
            combo
            for k in (1, 2, 3)
            for combo in sorted(
                itertools.combinations(clauses, k),
                key=lambda cs: (sum(map(len, cs)), tuple(keys[c] for c in cs)),
            )
        ]
        assert len(expected) == 11521
        assert list(_clause_sets(reversed(clauses), 3)) == expected

    def test_order_holds_on_large_levels(self):
        # 11 literals give 231 clauses, so C(231, 3) > 10**6 sets of three
        # clauses; the C(11, 3) sets of three unit clauses come first.
        pool = [lit(p, x, y) for p in "ABCDEFGHIJK"]
        clauses = clauses_from_pool(pool, max_clause_size=3)
        units = [c for c in clauses if len(c) == 1]
        assert len(units) == 11 and len(clauses) == 231
        level3 = itertools.dropwhile(lambda cs: len(cs) < 3, _clause_sets(clauses, 3))
        first = list(itertools.islice(level3, 165))
        assert all(sum(map(len, cs)) == 3 for cs in first)
        assert first == list(itertools.combinations(units, 3))


class TestVerifyAndBalance:
    def test_two_step_verify(self):
        pf = two_step()
        sehs, _ = build_sehs(pf.problem, pf.grammar)
        assert verify_solution(sehs, frozenset([frozenset({lit("P", x, y)})]))

    def test_swap_pair_joint_not_a_solution(self):
        pf = swap_pair()
        sehs, _ = build_sehs(pf.problem, pf.grammar)
        joint = frozenset([frozenset({lit("P", x, y), lit("Q", x, y)})])
        assert not verify_solution(sehs, joint)
        with pytest.raises(NotASolution):
            is_balanced(sehs, joint)

    def test_tagged_walk_follows_the_maximal_derivation(self):
        from pi2cut.benchmark import generate_sn
        from pi2cut.calculus import ORIGIN_END, maximal_derivation, tagged_leaves

        for pf in (generate_sn(3), unbalanced_pair()):
            s = introduce_cut(pf.problem, pf.grammar).eh.sequent()
            tagged = [
                (frozenset(l), frozenset(r))
                for l, r in tagged_leaves(
                    dict.fromkeys(s.left, ORIGIN_END), dict.fromkeys(s.right, ORIGIN_END)
                )
            ]
            leaves = [(n.sequent.left, n.sequent.right) for n in maximal_derivation(s).leaves()]
            assert len(leaves) > 1
            assert tagged == leaves

    def test_benchmark_balanced(self):
        from pi2cut.benchmark import generate_sn

        sn = generate_sn(2)
        sehs, _ = build_sehs(sn.problem, sn.grammar)
        f = lambda t: App("f", (t,))
        cs = frozenset([frozenset({lit("P", x, f(y))})])
        assert verify_solution(sehs, cs)
        assert is_balanced(sehs, cs)

    def test_unbalanced_fixture(self):
        pf = unbalanced_pair()
        sehs, _ = build_sehs(pf.problem, pf.grammar)
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
        sehs, _ = build_sehs(pf.problem, pf.grammar)
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
        assert report.verified
        assert report.solutions[0] == frozenset([frozenset({lit("P", x, y)})])
        assert report.complexity.quantifier == 7

    def test_unsolvable_fixtures(self):
        # (pool size, candidates, cl survivors, sol survivors).  Naive: 6
        # literals give 41 clauses of size <= 3, so C(41,1) + C(41,2) +
        # C(41,3) = 11521 candidate sets.
        expected = {"gstar": (2, 7, 1, 0), "naive": (6, 11521, 696, 0)}
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
        import pi2cut.solver as solver
        from pi2cut.benchmark import generate_sn

        calls = []
        real = solver.partitioned_dnta

        def counted(sehs):
            calls.append(sehs)
            return real(sehs)

        monkeypatch.setattr(solver, "partitioned_dnta", counted)
        for pf, pool in ((generate_sn(3), "gstar"), (two_step(), "naive")):
            calls.clear()
            introduce_cut(pf.problem, pf.grammar, SolverOptions(pool=pool))
            assert len(calls) == 1

    def test_cap_exceeded(self):
        from pi2cut.solver import CapExceeded

        pf = shared_base()
        with pytest.raises(CapExceeded):
            introduce_cut(
                pf.problem,
                pf.grammar,
                SolverOptions(pool="naive", max_candidates=10),
            )
