import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from pi2cut.problem_io import parse_formula
from pi2cut.sexpr import parse_all
from pi2cut.syntax import (
    ALPHA,
    And,
    App,
    Atom,
    Clause,
    Exists,
    ForAll,
    Formula,
    Imp,
    Literal,
    Not,
    Or,
    Signature,
    SyntaxError_,
    Term,
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
    literal_to_sexp,
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


# ---------------------------------------------------------------------------
# Hash-consing: one object per distinct node


def _reference_term_sexp(t):
    """The canonical printer, uncached: the reference for the cached keys."""
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.fn
    return "(" + " ".join([t.fn] + [_reference_term_sexp(a) for a in t.args]) + ")"


def _reference_sexp(f):
    if isinstance(f, Atom):
        return "(" + " ".join([f.pred] + [_reference_term_sexp(a) for a in f.args]) + ")"
    if isinstance(f, Not):
        return f"(not {_reference_sexp(f.sub)})"
    if isinstance(f, (ForAll, Exists)):
        head = "forall" if isinstance(f, ForAll) else "exists"
        return f"({head} {f.var} {_reference_sexp(f.body)})"
    head = {And: "and", Or: "or", Imp: "imp"}[type(f)]
    return f"({head} {_reference_sexp(f.left)} {_reference_sexp(f.right)})"


def _rebuild(e):
    """A structurally equal copy built from the fields up, through the
    constructors and `__match_args__`."""
    if isinstance(e, tuple):
        return tuple(_rebuild(x) for x in e)
    if isinstance(e, (str, bool)):
        return e
    return type(e)(*(_rebuild(getattr(e, name)) for name in type(e).__match_args__))


_GEN_SIG = Signature({**gen.SIG.functions, "h": 2}, gen.SIG.predicates)
gen_terms_st = st.recursive(
    st.sampled_from([Var("x1"), Var("y1"), Var(ALPHA), const("c"), const("d")]),
    lambda inner: st.one_of(
        st.builds(gen._f, inner),
        st.builds(gen._g, inner),
        st.builds(lambda s, t: App("h", (s, t)), inner, inner),
    ),
    max_leaves=6,
)


@st.composite
def formulas_st(draw):
    """A matrix from the instance generator over generated terms, under up
    to two quantifiers."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    args = draw(st.lists(gen_terms_st, min_size=1, max_size=4))
    f = gen._random_matrix(rng, args, draw(st.integers(1, 5)))
    for var in draw(st.lists(st.sampled_from(["x1", "y1", "z"]), max_size=2)):
        f = draw(st.sampled_from([ForAll, Exists]))(var, f)
    return f


@st.composite
def generated_literals_st(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    args = draw(st.lists(gen_terms_st, min_size=1, max_size=2))
    return Literal(draw(st.booleans()), gen._random_atom(rng, args))


nodes_st = st.one_of(formulas_st(), gen_terms_st, generated_literals_st())


@settings(max_examples=200)
@given(nodes_st)
def test_rebuilt_node_is_identical(e):
    assert _rebuild(e) is e


@settings(max_examples=200)
@given(formulas_st())
def test_parse_of_print_is_identical(f):
    [node] = parse_all(formula_to_sexp(f))
    assert parse_formula(node, _GEN_SIG, None) is f


@settings(max_examples=200)
@given(formulas_st())
def test_cached_sexp_matches_reference_printer(f):
    assert formula_to_sexp(f) == _reference_sexp(f)
    assert formula_to_sexp(f) == _reference_sexp(f)


def _reference_free_vars(e):
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, (App, Atom)):
        return set().union(*map(_reference_free_vars, e.args))
    if isinstance(e, Not):
        return _reference_free_vars(e.sub)
    if isinstance(e, (ForAll, Exists)):
        return _reference_free_vars(e.body) - {e.var}
    return _reference_free_vars(e.left) | _reference_free_vars(e.right)


@settings(max_examples=200)
@given(st.one_of(formulas_st(), gen_terms_st))
def test_cached_free_vars_match_reference(e):
    first = free_vars(e)
    assert first == _reference_free_vars(e)
    assert free_vars(_rebuild(e)) is first


@given(generated_literals_st())
def test_literal_sexp_and_duals(lit):
    assert dual(dual(lit)) is lit
    assert literal_to_sexp(lit) == _reference_sexp(lit.formula())
    if lit.positive:
        assert lit.formula() is lit.atom
    else:
        assert lit.formula() is Not(lit.atom)


@given(nodes_st)
def test_copies_and_pickles_are_identical(e):
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e
    assert copy.deepcopy([e, (e,)]) == [e, (e,)]


def test_keyword_positional_and_default_construction():
    x = Var("x")
    assert Var(name="x") is x
    assert App("f", (x,)) is App(fn="f", args=(x,)) is App("f", args=(x,))
    assert App("c") is App("c", ()) is const("c")
    assert Atom("P") is Atom(pred="P", args=())
    p = Atom("P", (x,))
    assert Not(sub=p) is Not(p)
    for cls in (And, Or, Imp):
        assert cls(left=p, right=Not(p)) is cls(p, Not(p))
        assert cls(p, Not(p)) is not cls(Not(p), p)
    assert ForAll(var="x", body=p) is ForAll("x", p)
    assert Exists("x", p) is not ForAll("x", p)
    assert Literal(positive=False, atom=p) is neg(p)
    assert pos(p) is not neg(p)


def test_nodes_are_immutable():
    x = Var("x")
    p = Atom("P", (x,))
    nodes = [
        (x, "name"), (App("f", (x,)), "fn"), (p, "args"), (Not(p), "sub"),
        (And(p, p), "left"), (Or(p, p), "right"), (Imp(p, p), "left"),
        (ForAll("x", p), "var"), (Exists("x", p), "body"), (pos(p), "positive"),
    ]
    for node, field in nodes:
        with pytest.raises(FrozenInstanceError):
            setattr(node, field, getattr(node, field))
        with pytest.raises(FrozenInstanceError):
            delattr(node, field)
        with pytest.raises(FrozenInstanceError):
            node.other = 1
    assert isinstance(x, Term) and isinstance(App("c"), Term)
    assert all(isinstance(n, Formula) for n, _ in nodes[2:9])


def test_repr_unchanged():
    x = Var("x")
    assert repr(App("f", (x,))) == "App(fn='f', args=(Var(name='x'),))"
    assert repr(const("c")) == "App(fn='c', args=())"
    assert repr(neg(Atom("P", (x, const("c"))))) == (
        "Literal(positive=False, atom=Atom(pred='P', args=(Var(name='x'), App(fn='c', args=()))))"
    )
    f = ForAll("x", Exists("y", Imp(And(Atom("P"), Or(Atom("Q"), Not(Atom("R")))), Atom("P"))))
    assert repr(f) == (
        "ForAll(var='x', body=Exists(var='y', body=Imp(left=And(left=Atom(pred='P', args=()), "
        "right=Or(left=Atom(pred='Q', args=()), right=Not(sub=Atom(pred='R', args=())))), "
        "right=Atom(pred='P', args=()))))"
    )


def test_match_args():
    match Literal(False, Atom("P", (Var("x"),))):
        case Literal(False, Atom("P", (Var(name),))):
            assert name == "x"
        case _:
            pytest.fail("literal did not match its fields")
