import pytest

from fixtures import load, two_step, two_step_instances
from pi2cut.benchmark import generate_sn
from pi2cut.grammar import (
    GrammarError,
    HerbrandInstanceSet,
    SchematicPi2Grammar,
    covers,
    gstar_of,
    reachable_literals,
    rigid_language,
    unifiable_pair,
    validate,
)
from pi2cut.syntax import (
    ALPHA,
    App,
    Atom,
    Literal,
    Signature,
    Var,
    X,
    Y,
    beta,
    const,
    dual,
    literal_key,
    term_to_sexp,
)

alpha = Var(ALPHA)


def f(t):
    return App("f", (t,))


def fi(i, t):
    return App(f"f{i}", (t,))


class TestValidate:
    def test_two_step_grammar_ok(self):
        pf = two_step()
        assert validate(pf.grammar) == []

    def test_first_witness_must_be_closed(self):
        sig = Signature({"t1": 1}, {"P": 2})
        g = SchematicPi2Grammar(
            sig,
            ((alpha,),),
            ((Var("b1"),),),
            (Var("b1"),),
            (App("t1", (alpha,)),),
        )
        violations = validate(g)
        assert any("must be closed" in v for v in violations)

    def test_benchmark_grammar_ok(self):
        sn = generate_sn(3)
        assert validate(sn.grammar) == []
        assert sn.grammar.m == 2 and sn.grammar.p == 3
        assert [term_to_sexp(r) for r in sn.grammar.r_terms] == ["c", "(f b1)"]

    def test_duplicate_witnesses_allowed(self):
        pf = load("unsolvable_shared_base.p2")
        assert validate(pf.grammar) == []

    def test_succedent_tuple_variable_condition(self):
        sig = Signature({"t1": 1}, {"P": 2})
        g = SchematicPi2Grammar(
            sig,
            ((alpha,),),
            ((alpha,),),  # alpha not allowed here
            (App("t1", (alpha,)),),
            (App("t1", (alpha,)),),
        )
        violations = validate(g)
        assert violations

    def test_derived_production(self):
        sn = generate_sn(3)
        # b2's production through witness i is t_i at the second universal witness
        assert term_to_sexp(sn.grammar.beta_production(2, 1)) == "(f1 (f b1))"
        assert term_to_sexp(sn.grammar.beta_production(1, 2)) == "(f2 c)"


class TestRigidLanguage:
    def test_two_step_language_exact(self):
        pf = two_step()
        lang = rigid_language(pf.grammar)
        assert len(lang) == 7
        assert lang == two_step_instances()

    def test_rigidity_exclusion(self):
        pf = two_step()
        t1 = lambda t: App("t1", (t,))
        t2 = lambda t: App("t2", (t,))
        r2 = lambda t: App("r2", (t,))
        r1 = const("r1")
        mixed = (t1(r1), t1(r2(t2(r1))))
        assert mixed not in rigid_language(pf.grammar).g_tuples

    def test_single_assignment_size(self):
        sig = Signature({"t1": 1, "r1": 0}, {"P": 2})
        g = SchematicPi2Grammar(
            sig,
            ((alpha,), (App("t1", (alpha,)),)),
            ((Var("b1"),),),
            (const("r1"),),
            (App("t1", (alpha,)),),
        )
        assert len(rigid_language(g)) == 3  # N + M with one assignment

    def test_size_bound(self):
        pf = two_step()
        g = pf.grammar
        n_tuples = len(g.f_tuples) + len(g.g_tuples)
        assert len(rigid_language(g)) <= n_tuples * g.m * g.p**g.m

    def test_all_members_ground(self):
        from pi2cut.syntax import free_vars

        lang = rigid_language(two_step().grammar)
        for tup in lang.f_tuples | lang.g_tuples:
            for t in tup:
                assert not free_vars(t)


class TestHerbrandInstanceSet:
    def test_equality_ignores_order_and_repeats(self):
        a, b = (const("r1"),), (App("t1", (const("r1"),)),)
        assert HerbrandInstanceSet([a, b, a], [b]) == HerbrandInstanceSet((b, a), (b, b))
        assert HerbrandInstanceSet([a], []) != HerbrandInstanceSet([], [a])

    def test_difference_and_size(self):
        inst = two_step_instances()
        lang = rigid_language(two_step().grammar)
        assert len(inst) == 7 and not inst - lang
        stray = HerbrandInstanceSet(inst.f_tuples, [(const("r1"), const("r1"))])
        assert stray - lang == HerbrandInstanceSet((), [(const("r1"), const("r1"))])

    def test_wrapped_terms_printed_in_canonical_order(self):
        r1 = const("r1")
        t1 = App("t1", (r1,))
        inst = HerbrandInstanceSet([(t1,), (r1,)], [(r1, t1), (r1, r1)])
        assert inst.wrapped_terms() == [
            "(hF (t1 r1))",
            "(hF r1)",
            "(hG r1 (t1 r1))",
            "(hG r1 r1)",
        ]
        assert HerbrandInstanceSet([()], []).wrapped_terms() == ["(hF)"]


class TestCovers:
    def test_two_step_instances_covered(self):
        pf = two_step()
        assert covers(pf.grammar, two_step_instances())

    def test_superset_language_allowed(self):
        pf = two_step()
        some = HerbrandInstanceSet(rigid_language(pf.grammar).f_tuples, ())
        assert covers(pf.grammar, some)

    def test_missing_term(self):
        pf = two_step()
        stray = HerbrandInstanceSet([(const("r1"), const("r1"))], ())
        with pytest.raises(GrammarError):
            covers(pf.grammar, stray)
        stray_unary = HerbrandInstanceSet([(App("t1", (App("t1", (const("r1"),)),)),)], ())
        assert not covers(pf.grammar, stray_unary)


class TestGStar:
    def test_benchmark_rules(self):
        sn = generate_sn(3)
        sys = gstar_of(sn.grammar)
        assert {term_to_sexp(t) for t in sys.to_x} == {"alpha", "c", "(f b1)"}
        assert {term_to_sexp(t) for t in sys.to_y} == {
            "(f1 alpha)",
            "(f2 alpha)",
            "(f3 alpha)",
            "b1",
            "b2",
        }

    def test_two_bases_rules(self):
        pf = load("unsolvable_two_bases.p2")
        sys = gstar_of(pf.grammar)
        assert {term_to_sexp(t) for t in sys.to_x} == {"alpha", "r1", "r2"}
        assert {term_to_sexp(t) for t in sys.to_y} == {
            "(t1 alpha)",
            "(t2 alpha)",
            "b1",
            "b2",
        }

    def test_start_productions_never_apply(self):
        sn = generate_sn(2)
        sys = gstar_of(sn.grammar)
        lit = Literal(True, Atom("P", (alpha, f(fi(1, alpha)))))
        for out in reachable_literals(lit, sys):
            assert out.atom.pred == "P"

    def test_reachable_benchmark_literal(self):
        sn = generate_sn(3)
        sys = gstar_of(sn.grammar)
        lit = Literal(True, Atom("P", (alpha, f(fi(1, alpha)))))
        got = {literal_key(l) for l in reachable_literals(lit, sys)}
        assert got == {"(P x (f y))", "(P x (f (f1 x)))"}

    def test_dual_route(self):
        sn = generate_sn(3)
        sys = gstar_of(sn.grammar)
        lit = Literal(False, Atom("P", (f(Var(beta(1))), f(Var(beta(2))))))
        duals = frozenset(map(dual, reachable_literals(lit, sys)))
        assert Literal(True, Atom("P", (Var(X), f(Var(Y))))) in duals

    def test_ground_literal_untouched(self):
        # a ground literal over symbols that are not witness terms
        sn = generate_sn(2)
        sys = gstar_of(sn.grammar)
        lit = Literal(True, Atom("P", (App("g", (const("c"),)), App("g", (const("c"),)))))
        # c itself is a universal witness, so only the bare g-applications stay
        out = reachable_literals(lit, sys)
        assert lit in out

    def test_closure_property(self):
        sn = generate_sn(2)
        sys = gstar_of(sn.grammar)
        lit = Literal(True, Atom("P", (alpha, f(fi(2, alpha)))))
        closed = reachable_literals(lit, sys)
        # rewriting any member further stays within the closure
        for member in closed:
            assert reachable_literals(member, sys) <= closed

    def test_unifiable_pair_benchmark(self):
        sn = generate_sn(2)
        sys = gstar_of(sn.grammar)
        l = Literal(True, Atom("P", (alpha, f(fi(1, alpha)))))
        q = Literal(False, Atom("P", (const("c"), f(Var("b1")))))
        common = unifiable_pair(l, q, sys)
        assert Literal(True, Atom("P", (Var(X), f(Var(Y))))) in common
