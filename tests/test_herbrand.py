import pytest

from fixtures import two_step, two_step_instances
from pi2cut.benchmark import generate_sn, minimal_cutfree_instances
from pi2cut.calculus import CUT, check_proof, complexities, is_tautology
from pi2cut.grammar import SchematicPi2Grammar
from pi2cut.herbrand import (
    ExtendedHerbrandSequent,
    HerbrandError,
    HerbrandInstanceSet,
    NotTautological,
    PrenexProblem,
    herbrand_check,
    herbrand_term_set,
    midsequent,
    proof_from_eh,
    proof_from_herbrand,
)
from pi2cut.syntax import App, Atom, Signature, Var, X, Y, const


def P(*args):
    return Atom("P", tuple(args))


class TestHerbrandCheck:
    def test_two_step_valid_with_count(self):
        pf = two_step()
        assert herbrand_check(pf.problem, two_step_instances()) == (True, 9)

    def test_empty_instances_invalid(self):
        pf = two_step()
        empty = HerbrandInstanceSet((), ())
        valid, count = herbrand_check(pf.problem, empty)
        assert (valid, count) == (False, 0)

    def test_benchmark_minimal_instances_valid(self):
        sn = generate_sn(2)
        inst, valid, count = minimal_cutfree_instances(2)
        assert valid
        assert is_tautology(midsequent(sn.problem, inst))

    def test_arity_mismatch(self):
        pf = two_step()
        bad = HerbrandInstanceSet(((const("r1"), const("r1")),), ())
        with pytest.raises(HerbrandError):
            herbrand_check(pf.problem, bad)

    def test_validity_is_midsequent_tautology(self):
        pf = two_step()
        for inst in (two_step_instances(), HerbrandInstanceSet(((const("r1"),),), ())):
            valid, _ = herbrand_check(pf.problem, inst)
            assert valid == is_tautology(midsequent(pf.problem, inst))


class TestHerbrandTermSet:
    def test_wrap(self):
        pf = two_step()
        wrapped = herbrand_term_set(pf.problem, two_step_instances())
        assert len(wrapped) == 7
        kinds = {w.kind for w in wrapped}
        assert kinds == {"F", "G"}

    def test_empty(self):
        pf = two_step()
        assert herbrand_term_set(pf.problem, HerbrandInstanceSet((), ())) == frozenset()

    def test_singleton(self):
        pf = two_step()
        one = HerbrandInstanceSet(((const("r1"),),), ())
        assert len(herbrand_term_set(pf.problem, one)) == 1


class TestEhBuild:
    def test_two_step_matrix_tautology(self):
        pf = two_step()
        eh = ExtendedHerbrandSequent(pf.problem, pf.grammar, P(Var(X), Var(Y)))
        assert is_tautology(eh.sequent())
        assert eh.complexity() == 7  # 1*1 + 2*1 + 2 + 2

    def test_unmatched_matrix_fails(self):
        pf = two_step()
        sig = pf.problem.signature
        bigger = Signature(dict(sig.functions), {**dict(sig.predicates), "W": 2})
        pb = PrenexProblem(
            bigger,
            pf.problem.forall_vars,
            pf.problem.exists_vars,
            pf.problem.antecedent,
            pf.problem.succedent,
        )
        g = SchematicPi2Grammar(
            bigger, pf.grammar.f_tuples, pf.grammar.g_tuples, pf.grammar.r_terms, pf.grammar.t_terms
        )
        eh = ExtendedHerbrandSequent(pb, g, Atom("W", (Var(X), Var(Y))))
        assert not is_tautology(eh.sequent())

    def test_benchmark_matrix(self):
        sn = generate_sn(2)
        matrix = P(Var(X), App("f", (Var(Y),)))
        eh = ExtendedHerbrandSequent(sn.problem, sn.grammar, matrix)
        assert is_tautology(eh.sequent())

    def test_variable_conditions_enforced(self):
        from pi2cut.syntax import SyntaxError_

        pf = two_step()
        with pytest.raises(SyntaxError_):
            ExtendedHerbrandSequent(pf.problem, pf.grammar, P(Var(X), Var("z")))
        bad_grammar = SchematicPi2Grammar(
            pf.problem.signature,
            pf.grammar.f_tuples,
            pf.grammar.g_tuples,
            (Var("b1"), App("r2", (Var("b1"),))),  # first witness not closed
            pf.grammar.t_terms,
        )
        with pytest.raises(HerbrandError):
            ExtendedHerbrandSequent(pf.problem, bad_grammar, P(Var(X), Var(Y)))

    def test_complexity_formulas(self):
        sn = generate_sn(2)
        matrix = P(Var(X), App("f", (Var(Y),)))
        eh = ExtendedHerbrandSequent(sn.problem, sn.grammar, matrix)
        # slot count: 3*N + (n+2)*M + p + m; shared count collapses common prefixes
        assert eh.complexity() == 3 * 2 + 4 * 1 + 2 + 1
        assert eh.shared_complexity() == 4 + 4 + 2 + 1


class TestProofFromEh:
    def test_two_step_proof(self):
        pf = two_step()
        eh = ExtendedHerbrandSequent(pf.problem, pf.grammar, P(Var(X), Var(Y)))
        proof = proof_from_eh(eh)
        assert check_proof(proof).ok
        assert complexities(proof).quantifier == 7
        cuts = [n for n in proof.nodes() if n.rule == CUT]
        assert len(cuts) == 1
        assert cuts[0].cut_formula == eh.cut_formula()

    def test_benchmark_proof_counts(self):
        sn = generate_sn(2)
        eh = ExtendedHerbrandSequent(
            sn.problem, sn.grammar, P(Var(X), App("f", (Var(Y),)))
        )
        proof = proof_from_eh(eh)
        assert check_proof(proof).ok
        assert complexities(proof).quantifier == 11

    def test_degenerate_single_witnesses(self):
        sig = Signature({"t1": 1, "r1": 0}, {"P": 2})
        alpha = Var("alpha")
        t1 = App("t1", (alpha,))
        pb = PrenexProblem(
            sig,
            ("x1",),
            ("y1",),
            P(Var("x1"), App("t1", (Var("x1"),))),
            P(const("r1"), Var("y1")),
        )
        g = SchematicPi2Grammar(sig, ((alpha,),), ((Var("b1"),),), (const("r1"),), (t1,))
        eh = ExtendedHerbrandSequent(pb, g, P(Var(X), Var(Y)))
        proof = proof_from_eh(eh)
        assert check_proof(proof).ok
        assert complexities(proof).quantifier == 1 + 1 + 1 + 1

    def test_non_tautological_rejected(self):
        pf = two_step()
        eh = ExtendedHerbrandSequent(
            pf.problem, pf.grammar, P(Var(X), App("t1", (Var(X),)))
        )
        assert not is_tautology(eh.sequent())
        with pytest.raises(NotTautological):
            proof_from_eh(eh)

    def test_quantifier_bound(self):
        pf = two_step()
        eh = ExtendedHerbrandSequent(pf.problem, pf.grammar, P(Var(X), Var(Y)))
        proof = proof_from_eh(eh)
        assert complexities(proof).quantifier <= eh.complexity()


class TestProofFromHerbrand:
    def test_two_step_cut_free(self):
        pf = two_step()
        proof = proof_from_herbrand(pf.problem, two_step_instances())
        assert check_proof(proof).ok
        assert all(n.rule != CUT for n in proof.nodes())
        assert complexities(proof).quantifier == 9

    def test_ground_problem(self):
        sig = Signature({"a": 0}, {"P": 1})
        pb = PrenexProblem(sig, (), (), P(const("a")), P(const("a")))
        proof = proof_from_herbrand(pb, HerbrandInstanceSet(((),), ((),)))
        assert check_proof(proof).ok
        assert complexities(proof).quantifier == 0

    def test_benchmark_minimal_instances(self):
        sn = generate_sn(2)
        inst, valid, count = minimal_cutfree_instances(2)
        assert valid
        proof = proof_from_herbrand(sn.problem, inst)
        assert check_proof(proof).ok
        assert complexities(proof).quantifier > 2**2
        assert count > 2**2

    def test_invalid_instances_rejected(self):
        pf = two_step()
        partial = HerbrandInstanceSet(((const("r1"),),), ())
        with pytest.raises(NotTautological):
            proof_from_herbrand(pf.problem, partial)

    def test_unused_block_variable(self):
        # tuples differing only at an unused position collapse to one
        # inference; the instantiated formula set is unchanged
        sig = Signature({"a": 0, "b": 0}, {"P": 1, "Q": 1})
        pb = PrenexProblem(
            sig,
            ("u", "v"),
            (),
            Atom("P", (Var("v"),)),
            Atom("P", (const("a"),)),
        )
        inst = HerbrandInstanceSet(
            ((const("a"), const("a")), (const("b"), const("a"))), ((),)
        )
        proof = proof_from_herbrand(pb, inst)
        assert check_proof(proof).ok
        assert complexities(proof).quantifier == 2  # one per block variable

    def test_reserved_block_variable_rejected(self):
        from pi2cut.syntax import SyntaxError_

        sig = Signature({"a": 0}, {"P": 1})
        with pytest.raises(SyntaxError_):
            PrenexProblem(sig, ("alpha",), (), Atom("P", (Var("alpha"),)), Atom("P", (const("a"),)))
