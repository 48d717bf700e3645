import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pi2cut.syntax import (
    ALPHA,
    And,
    App,
    Atom,
    Clause,
    Exists,
    ForAll,
    Literal,
    Not,
    Sequent,
    Signature,
    SyntaxError_,
    Var,
    X,
    Y,
    const,
    dnf_of,
    dual,
    dual_set,
    formula_to_sexp,
    free_vars,
    is_reserved,
    literal_normal_form,
    neg,
    pos,
    sharp_count,
    substitute,
    substitute_term,
)

a = const("a")
b = const("b")
c = const("c")


def f(t):
    return App("f", (t,))


def f1(t):
    return App("f1", (t,))


def P(*args):
    return Atom("P", tuple(args))


class TestSubstitution:
    def test_atom_instance(self):
        target = substitute(P(Var(X), Var(Y)), {X: const("r1"), Y: Var("b1")})
        assert target == P(const("r1"), Var("b1"))

    def test_identity(self):
        t = f(f1(a))
        assert substitute_term(t, {}) == t

    def test_witness_application(self):
        # plugging f(b1) into the distinguished variable of f1(alpha)
        assert substitute_term(f1(Var(ALPHA)), {ALPHA: f(Var("b1"))}) == f1(f(Var("b1")))

    def test_simultaneous(self):
        t = App("g", (Var("u"), Var("v")))
        out = substitute_term(t, {"u": Var("v"), "v": Var("u")})
        assert out == App("g", (Var("v"), Var("u")))

    def test_disjoint_composition(self):
        e = P(Var("u"), Var("v"))
        one = substitute(substitute(e, {"u": f(c)}), {"v": a})
        both = substitute(e, {"u": f(c), "v": a})
        assert one == both

    def test_capture_rejected(self):
        e = Exists("y", P(Var("u"), Var("y")))
        with pytest.raises(SyntaxError_):
            substitute(e, {"u": Var("y")})

    def test_shadowed_binding_dropped(self):
        e = ForAll("u", P(Var("u"), Var("v")))
        assert substitute(e, {"u": a, "v": b}) == ForAll("u", P(Var("u"), b))


class TestFreeVars:
    def test_instance_vars(self):
        assert free_vars(P(const("r1"), Var("b1"))) == {"b1"}

    def test_closed_formula(self):
        assert free_vars(ForAll("x", Exists("y", P(Var("x"), f(Var("y")))))) == set()

    def test_chained_witness(self):
        assert free_vars(App("r2", (Var("b1"),))) == {"b1"}


class TestDuals:
    def test_dual_flips(self):
        lit = pos(P(c, App("g", (Var("b1"),))))
        assert dual(lit) == neg(P(c, App("g", (Var("b1"),))))

    def test_dual_set(self):
        lits = {pos(P(a, b)), neg(P(b, c))}
        assert dual_set(lits) == {neg(P(a, b)), pos(P(b, c))}


class TestLiteralNormalForm:
    def test_succedent_negated_and_prepended(self):
        s = Sequent.of([P(a, b), P(b, c)], [P(c, a)])
        lits = literal_normal_form(s)
        assert lits[0] == neg(P(c, a))
        assert set(lits[1:]) == {pos(P(a, b)), pos(P(b, c))}

    def test_empty_sequent(self):
        assert literal_normal_form(Sequent.of([], [])) == ()

    def test_mixed(self):
        s = Sequent.of([P(Var(ALPHA), a)], [P(const("r1"), Var("b1"))])
        lits = literal_normal_form(s)
        assert lits == (neg(P(const("r1"), Var("b1"))), pos(P(Var(ALPHA), a)))

    def test_rejects_compound(self):
        with pytest.raises(SyntaxError_):
            literal_normal_form(Sequent.of([And(P(a, b), P(b, c))], []))

    def test_atom_multiset_preserved(self):
        s = Sequent.of([P(a, b)], [P(b, c), P(c, a)])
        lits = literal_normal_form(s)
        assert {l.atom for l in lits} == {P(a, b), P(b, c), P(c, a)}
        assert len(lits) == 3


class TestDnf:
    def test_unit_unit(self):
        cs = frozenset([frozenset([pos(P(Var(X), f(Var(Y))))])])
        assert formula_to_sexp(dnf_of(cs)) == "(P x (f y))"

    def test_one_clause_two_literals(self):
        q = Atom("Q", (Var(X), Var(Y)))
        cs = frozenset([frozenset([pos(P(Var(X), Var(Y))), pos(q)])])
        assert dnf_of(cs) == And(P(Var(X), Var(Y)), q)

    def test_negative_unit(self):
        cs = frozenset([frozenset([neg(P(a, b))])])
        assert dnf_of(cs) == Not(P(a, b))

    def test_rejects_empty(self):
        with pytest.raises(SyntaxError_):
            dnf_of(frozenset())
        with pytest.raises(SyntaxError_):
            dnf_of(frozenset([frozenset()]))

    def test_order_insensitive(self):
        lits = [pos(P(a, b)), neg(P(b, c)), pos(Atom("Q", (a, a)))]
        c1: Clause = frozenset(lits[:2])
        c2: Clause = frozenset(lits[2:])
        one = dnf_of(frozenset([c1, c2]))
        other = dnf_of(frozenset([c2, c1]))
        assert formula_to_sexp(one) == formula_to_sexp(other)


class TestSharpCount:
    def test_empty(self):
        assert sharp_count([]) == 0

    def test_single_pair(self):
        assert sharp_count([(a, b)]) == 2

    def test_mixed_arity_rejected(self):
        with pytest.raises(SyntaxError_):
            sharp_count([(a,), (a, b)])

    def test_worked_instances(self):
        r1 = const("r1")
        t1 = lambda t: App("t1", (t,))
        t2 = lambda t: App("t2", (t,))
        r2 = lambda t: App("r2", (t,))
        f_tuples = [(r1,), (r2(t1(r1)),), (r2(t2(r1)),)]
        g_tuples = [
            (t1(r1), t1(r2(t1(r1)))),
            (t1(r1), t2(r2(t1(r1)))),
            (t2(r1), t1(r2(t2(r1)))),
            (t2(r1), t2(r2(t2(r1)))),
        ]
        assert sharp_count(f_tuples) == 3
        assert sharp_count(g_tuples) == 6

    def test_suffix_sharing(self):
        alpha = Var(ALPHA)
        tuples = [(alpha, alpha, f1(alpha)), (alpha, alpha, App("f2", (alpha,)))]
        assert sharp_count(tuples) == 4


terms_st = st.recursive(
    st.sampled_from([a, b, c, Var("u"), Var("v")]),
    lambda inner: st.builds(lambda t: f(t), inner),
    max_leaves=3,
)
tuples_st = st.lists(st.tuples(terms_st, terms_st), min_size=0, max_size=5)
literal_st = st.builds(
    Literal,
    st.booleans(),
    st.builds(lambda s, t: Atom("P", (s, t)), terms_st, terms_st),
)


@given(literal_st)
def test_dual_involution(lit):
    assert dual(dual(lit)) == lit


@given(tuples_st)
def test_sharp_bounds(tuples):
    n = sharp_count(tuples)
    assert 0 <= n <= len(set(tuples)) * 2


@given(tuples_st, st.tuples(terms_st, terms_st))
def test_sharp_monotone(tuples, extra):
    assert sharp_count(tuples) <= sharp_count(list(tuples) + [extra])


@settings(max_examples=200)
@given(st.sets(st.frozensets(literal_st, min_size=1, max_size=3), min_size=1, max_size=3))
def test_dnf_deterministic(clauses):
    shuffled = frozenset(reversed(sorted(clauses, key=str)))
    assert dnf_of(frozenset(clauses)) == dnf_of(shuffled)


class TestSignature:
    def test_reserved_names_rejected(self):
        for name in ("alpha", "b1", "b12", "x", "y", "tau"):
            assert is_reserved(name)
            with pytest.raises(SyntaxError_):
                Signature({name: 0}, {})

    def test_namespace_clash(self):
        with pytest.raises(SyntaxError_):
            Signature({"P": 1}, {"P": 2})

    def test_arity_checked(self):
        sig = Signature({"f": 1}, {"P": 2})
        with pytest.raises(SyntaxError_):
            sig.check_term(App("f", ()))
