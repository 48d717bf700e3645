import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import PROBLEM_DIR, load, two_step, two_step_instances
from pi2cut import problem_io
from pi2cut.benchmark import generate_sn, minimal_cutfree_instances
from pi2cut.calculus import check_proof, complexities
from pi2cut.cli import main
from pi2cut.grammar import GrammarError
from pi2cut.herbrand import proof_from_herbrand
from pi2cut.problem_io import (
    parse_formula,
    parse_problem,
    parse_proof,
    parse_starting_set,
    print_problem,
    print_proof,
    print_starting_set,
)
from pi2cut.sexpr import ParseError, parse_all
from pi2cut.solver import SolverOptions, introduce_cut
from pi2cut.syntax import (
    And,
    App,
    Atom,
    Exists,
    ForAll,
    Imp,
    Literal,
    Not,
    Or,
    SyntaxError_,
    Var,
    X,
    Y,
    const,
    formula_to_sexp,
)


ALL_FIXTURES = sorted(p.name for p in PROBLEM_DIR.glob("*.p2"))


class TestSexpr:
    def test_nesting_and_comments(self):
        nodes = parse_all("(a (b c) ; trailing\n d)")
        assert len(nodes) == 1

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_all("(a (b)")
        with pytest.raises(ParseError):
            parse_all("a))")


def _proof_text(principal: str, sequent: str) -> str:
    return (
        "(proof\n  (signature (fun c 0) (fun f 1) (pred P 1))\n"
        f"  (node (rule axiom)\n    {principal}\n    {sequent}))\n"
    )


# Lines count LF only; every other character, tab and CR included, is one
# column.  Only space, tab, CR and LF separate tokens, so `\x0c` stays part
# of one.
_ERROR_POSITIONS = [
    (parse_all, "; header ( comment )\n\n\t(a\tb)\r\n  ; (\n\t\t )", "5:4: unmatched ')'"),
    (parse_all, "\n; (\n \t(a ; )\r\n\t(b)\r\n", "3:3: unclosed '('"),
    (parse_all, "(a b\x0cc)\n(d\x0c ))", "2:6: unmatched ')'"),
    (
        parse_proof,
        _proof_text("", "(sequent (left (P c))\t(right (P (f c c))))"),
        "5:38: f expects 1 arguments, got 2",
    ),
    (
        parse_proof,
        _proof_text("", "(sequent (left (P c)) (right\r\n  (P (g c))))"),
        "6:7: unknown function symbol 'g'",
    ),
    (
        parse_proof,
        _proof_text("", "(sequent (left (P c)) (right (Q c)))"),
        "5:34: unknown predicate symbol 'Q'",
    ),
    (
        parse_proof,
        _proof_text("", "(sequent (left (P\x0c c)) (right (P c)))"),
        "5:20: unknown predicate symbol 'P\x0c'",
    ),
    (
        parse_proof,
        _proof_text("(principal left (P c c))", "(sequent (left (P c)) (right (P c)))"),
        "4:21: P expects 1 arguments, got 2",
    ),
    (
        parse_proof,
        _proof_text("(principal\tright (P (g c)))", "(sequent (left (P c)) (right (P c)))"),
        "4:26: unknown function symbol 'g'",
    ),
]


@pytest.mark.parametrize("reader, text, message", _ERROR_POSITIONS)
def test_parse_error_positions(reader, text, message):
    with pytest.raises(ParseError) as err:
        reader(text)
    assert str(err.value) == message


class TestProblemFiles:
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_round_trip_stable(self, name):
        pf = load(name)
        text = print_problem(pf)
        again = parse_problem(text)
        assert print_problem(again) == text
        assert again.problem == pf.problem
        assert again.grammar == pf.grammar
        assert again.herbrand_terms == pf.herbrand_terms

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError):
            parse_problem("")

    def test_reserved_name_rejected(self):
        bad = "(signature (fun alpha 0) (pred P 1))"
        with pytest.raises(ParseError):
            parse_problem(bad)

    def test_arity_error_positioned(self):
        pf_text = (PROBLEM_DIR / "two_step.p2").read_text()
        broken = pf_text.replace("(P x1 (t1 x1))", "(P x1)")
        with pytest.raises(ParseError) as err:
            parse_problem(broken)
        assert "expects 2 arguments" in str(err.value)

    def test_unknown_symbol(self):
        pf_text = (PROBLEM_DIR / "two_step.p2").read_text()
        broken = pf_text.replace("(t1 alpha)", "(t9 alpha)", 1)
        with pytest.raises(ParseError):
            parse_problem(broken)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("(herbrand-terms", "(herbrand-term", "19:1: unknown section 'herbrand-term'"),
            ("(grammar", "(grammar (f-tuples (alpha))", "15:3: duplicate grammar part 'f-tuples'"),
            ("(t-terms", "(s-terms r1) (t-terms", "18:3: unknown grammar part 's-terms'"),
            (
                "(exists-vars y1 y2)",
                "(exists-vars y1 y2) (forall-vars x1)",
                "11:21: duplicate section 'forall-vars'",
            ),
        ],
    )
    def test_unknown_or_duplicate_parts_rejected(self, old, new, message):
        # A misspelled section used to be skipped, so the cover check it
        # held never ran.
        pf_text = (PROBLEM_DIR / "two_step.p2").read_text()
        with pytest.raises(ParseError) as err:
            parse_problem(pf_text.replace(old, new, 1))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (
                "(antecedent (or (P x1 (t1 x1)) (P x1 (t2 x1))))",
                "(antecedent (forall z (P x1 z)))",
                "12:13: matrices must be quantifier-free",
            ),
            (
                "(P (r2 y1) y2)",
                "(exists z (P (r2 y1) z))",
                "13:12: matrices must be quantifier-free",
            ),
        ],
    )
    def test_quantified_matrix_positioned(self, tmp_path, capsys, old, new, message):
        # Both used to be reported at 1:1.
        pf_text = (PROBLEM_DIR / "two_step.p2").read_text()
        assert old in pf_text
        bad = tmp_path / "bad.p2"
        bad.write_text(pf_text.replace(old, new))
        with pytest.raises(ParseError) as err:
            parse_problem(pf_text.replace(old, new))
        assert str(err.value) == message
        assert main(["solve", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["solve", "language"])
    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("(hF r1)", "(hF r1 r1)", "20:3: expected 1 term(s), one per variable of (x1), got 2"),
            (
                "(f-tuples (alpha))",
                "(f-tuples (alpha alpha))",
                "15:13: expected 1 term(s), one per variable of (x1), got 2",
            ),
            (
                "(g-tuples (b1 b2))",
                "(g-tuples (b1))",
                "16:13: expected 2 term(s), one per variable of (y1 y2), got 1",
            ),
        ],
    )
    def test_tuple_arity_positioned(self, tmp_path, capsys, command, old, new, message):
        # `language` used to print "covers herbrand-terms: false" with exit
        # 0, and `solve` to exit 2 with an unpositioned message.
        pf_text = (PROBLEM_DIR / "two_step.p2").read_text()
        assert old in pf_text
        bad = tmp_path / "bad.p2"
        bad.write_text(pf_text.replace(old, new, 1))
        assert main([command, str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_misspelled_section_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.p2"
        text = (PROBLEM_DIR / "two_step.p2").read_text()
        bad.write_text(text.replace("(herbrand-terms", "(herbrand-term"))
        assert main(["solve", str(bad)]) == 2
        assert "unknown section 'herbrand-term'" in capsys.readouterr().err

    def test_grammar_side_conditions_enforced(self):
        pf_text = (PROBLEM_DIR / "two_step.p2").read_text()
        broken = pf_text.replace("(r-terms r1 (r2 b1))", "(r-terms (r2 b1) r1)")
        with pytest.raises(ParseError):
            parse_problem(broken)


class TestStartingSets:
    def test_round_trip(self):
        pf = two_step()
        text = "(P x y) (not (P x (t1 x)))\n(P x (t2 y))\n"
        clauses = parse_starting_set(text, pf.problem.signature)
        assert len(clauses) == 2
        printed = print_starting_set(clauses)
        assert parse_starting_set(printed, pf.problem.signature) == clauses

    def test_comments_and_blank_lines(self):
        pf = two_step()
        text = "; a comment\n\n(P x y)\n"
        clauses = parse_starting_set(text, pf.problem.signature)
        assert clauses == frozenset([frozenset([Literal(True, Atom("P", (Var(X), Var(Y))))])])

    def test_rejects_non_literal(self):
        pf = two_step()
        with pytest.raises(ParseError):
            parse_starting_set("(and (P x y) (P y x))\n", pf.problem.signature)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(P x y)\n(P x y) (Z x)\n", "2:9: unknown predicate symbol 'Z'"),
            ("; c\n\n  \t(P x (t1 y y))\r\n", "3:10: t1 expects 1 arguments, got 2"),
            ("(P x y)\r\n(P x y) ; (\n (P x\n", "3:2: unclosed '('"),
        ],
    )
    def test_error_positions_are_the_files(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_starting_set(text, two_step().problem.signature)
        assert str(err.value) == message


_SIG = two_step().problem.signature

_terms = st.recursive(
    st.sampled_from([Var("x"), Var("y"), Var("alpha"), Var("b1"), const("r1")]),
    lambda inner: st.builds(lambda fn, t: App(fn, (t,)), st.sampled_from(["t1", "t2", "r2"]), inner),
    max_leaves=4,
)

_formulas = st.recursive(
    st.builds(lambda s, t: Atom("P", (s, t)), _terms, _terms),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Imp, inner, inner),
        st.builds(ForAll, st.sampled_from(["u", "v"]), inner),
        st.builds(Exists, st.sampled_from(["u", "v"]), inner),
    ),
    max_leaves=6,
)


@given(_formulas)
def test_formula_print_parse_round_trip(formula):
    text = formula_to_sexp(formula)
    [node] = parse_all(text)
    assert parse_formula(node, _SIG, None) == formula


class TestProofFiles:
    def test_round_trip_checked(self):
        pf = two_step()
        proof = proof_from_herbrand(pf.problem, two_step_instances())
        text = print_proof(proof, pf.problem.signature)
        again, _sig = parse_proof(text)
        assert check_proof(again).ok
        assert complexities(again) == complexities(proof)
        assert print_proof(again, pf.problem.signature) == text

    @pytest.mark.parametrize("name", ["two_step", "S_2"])
    def test_equal_formulas_parsed_once_and_shared(self, monkeypatch, name):
        if name == "two_step":
            pf = two_step()
            proof = introduce_cut(pf.problem, pf.grammar, SolverOptions(pool="gstar")).proof
            sig = pf.problem.signature
        else:
            sn = generate_sn(2)
            proof = proof_from_herbrand(sn.problem, minimal_cutfree_instances(2)[0])
            sig = sn.problem.signature
        text = print_proof(proof, sig)

        real_parse_formula = problem_io.parse_formula
        depth = top_level_calls = 0

        def counting_parse_formula(node, sig, variables):
            nonlocal depth, top_level_calls
            top_level_calls += depth == 0
            depth += 1
            try:
                return real_parse_formula(node, sig, variables)
            finally:
                depth -= 1

        monkeypatch.setattr(problem_io, "parse_formula", counting_parse_formula)
        again, _sig = parse_proof(text)
        monkeypatch.undo()

        by_text: dict[str, list] = {}
        occurrences = 0
        for node in again.nodes():
            found = [*node.sequent.left, *node.sequent.right, node.principal, node.cut_formula]
            for f in found:
                if f is not None:
                    by_text.setdefault(formula_to_sexp(f), []).append(f)
                    occurrences += 1
        assert occurrences > len(by_text)
        for same in by_text.values():
            assert all(f is same[0] for f in same)
        assert top_level_calls == len(by_text)
        assert check_proof(again).ok
        assert print_proof(again, sig) == text

    @pytest.mark.parametrize(
        "part, sequent, message",
        [
            ("(rule axiom)", "(sequent (left (P c)) (right (P c)))", "4:5: duplicate node part 'rule'"),
            (
                "(sequent (left) (right (P c)))",
                "(sequent (left (P c)) (right (P c)))",
                "5:5: duplicate node part 'sequent'",
            ),
            (
                "",
                "(sequent (left (P c)) (left (P (f c))) (right (P c)))",
                "5:27: duplicate sequent side 'left'",
            ),
        ],
        ids=["rule", "sequent", "left"],
    )
    def test_repeated_part_exits_2(self, tmp_path, capsys, part, sequent, message):
        # A later part used to replace an earlier one and a second side was
        # merged into the first, so each of these checked as an axiom.
        path = tmp_path / "repeated.proof"
        path.write_text(_proof_text(part, sequent))
        assert main(["check", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_malformed_rejected(self):
        with pytest.raises(ParseError):
            parse_proof("(proof)")
        with pytest.raises(ParseError):
            parse_proof("(proof (signature) (node (rule nonsense) (sequent (left) (right))))")


# ---------------------------------------------------------------------------
# Mutated inputs: every reader either returns or raises its typed error, and
# the command line ends with a documented exit code and no traceback.

_PROBLEM_TEXTS = [(PROBLEM_DIR / name).read_text(encoding="utf-8") for name in ALL_FIXTURES]
_TWO_STEP = two_step()
_PROOF_TEXTS = [
    print_proof(
        proof_from_herbrand(_TWO_STEP.problem, two_step_instances()), _TWO_STEP.problem.signature
    ),
    print_proof(
        introduce_cut(_TWO_STEP.problem, _TWO_STEP.grammar, SolverOptions(pool="gstar")).proof,
        _TWO_STEP.problem.signature,
    ),
]
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+")


@st.composite
def _mutated(draw, texts):
    text = draw(st.sampled_from(texts))
    kind = draw(st.sampled_from(["delete", "insert", "swap"]))
    if kind == "delete":
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + text[at + 1 :]
    if kind == "insert":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from("()")) + text[at:]
    spans = [m.span() for m in _TOKEN.finditer(text)]
    i, j = sorted(draw(st.lists(st.integers(0, len(spans) - 1), min_size=2, max_size=2, unique=True)))
    (a, b), (c, d) = spans[i], spans[j]
    return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]


def _read_or_reject(reader, text):
    try:
        reader(text)
    except (ParseError, SyntaxError_, GrammarError):
        pass


def _run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=60, deadline=None)
@given(text=_mutated(_PROBLEM_TEXTS))
def test_mutated_problem_files(fuzz_dir, text):
    _read_or_reject(parse_problem, text)
    _read_or_reject(parse_proof, text)
    path = fuzz_dir / "mutated.p2"
    path.write_text(text, encoding="utf-8")
    _run_cli(["solve", str(path)])


@settings(max_examples=60, deadline=None)
@given(text=_mutated(_PROOF_TEXTS))
def test_mutated_proof_files(fuzz_dir, text):
    _read_or_reject(parse_problem, text)
    _read_or_reject(parse_proof, text)
    path = fuzz_dir / "mutated.proof"
    path.write_text(text, encoding="utf-8")
    _run_cli(["check", str(path)])
