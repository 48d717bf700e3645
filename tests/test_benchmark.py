import pytest

from pi2cut.benchmark import (
    BenchmarkError,
    expected_cut_quantifier_count,
    generate_sn,
    minimal_cutfree_instances,
)
from pi2cut.grammar import covers, validate
from pi2cut.syntax import formula_to_sexp, term_to_sexp


class TestGenerateSn:
    def test_small_shapes(self):
        sn = generate_sn(2)
        assert formula_to_sexp(sn.problem.antecedent) == (
            "(and (or (P x1 (f1 x1)) (P x1 (f2 x1))) (imp (P x2 x3) (P x2 (f x3))))"
        )
        assert sn.grammar.m == 1 and sn.grammar.p == 2

    def test_succedent_tuple_layout(self):
        sn = generate_sn(3)
        assert [term_to_sexp(t) for t in sn.grammar.g_tuples[0]] == [
            "c",
            "b1",
            "b2",
            "c",
            "b2",
        ]

    def test_grammar_validates_for_range(self):
        for n in range(2, 9):
            sn = generate_sn(n)
            assert validate(sn.grammar) == []

    def test_rejects_small_n(self):
        with pytest.raises(BenchmarkError):
            generate_sn(1)


class TestMinimalCutfree:
    # n = 4 is the one query here that needs clause learning: its
    # instance sequent encodes to 1,461 clauses, which plain DPLL did not
    # decide in 19 minutes.
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_valid_and_above_bound(self, n):
        _, valid, count = minimal_cutfree_instances(n)
        assert valid
        assert count > n**n

    def test_counts(self):
        _, _, c2 = minimal_cutfree_instances(2)
        _, _, c3 = minimal_cutfree_instances(3)
        _, _, c4 = minimal_cutfree_instances(4)
        assert (c2, c3, c4) == (10, 43, 276)

    def test_grammar_covers_instances(self):
        for n in (2, 3):
            sn = generate_sn(n)
            inst, _, _ = minimal_cutfree_instances(n)
            assert covers(sn.grammar, inst)

    def test_size_guard(self):
        with pytest.raises(BenchmarkError):
            minimal_cutfree_instances(7)

    def test_closed_form_values(self):
        assert expected_cut_quantifier_count(5) == 23
