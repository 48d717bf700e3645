import contextlib
import io
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_reader
from fixtures import PROBLEM_DIR, load, two_step, two_step_instances
from gen import random_tautological_eh
from pi2cut import problem_io
from pi2cut.benchmark import generate_sn, minimal_cutfree_instances
from pi2cut.calculus import AND_R, AXIOM, RIGHT, Node, check_proof, complexities
from pi2cut.cli import main
from pi2cut.grammar import GrammarError
from pi2cut.herbrand import proof_from_eh, proof_from_herbrand
from pi2cut.problem_io import (
    parse_formula,
    parse_problem,
    parse_proof,
    parse_starting_set,
    print_problem,
    print_proof,
    print_sequent,
    print_starting_set,
)
from pi2cut.sexpr import ParseError, parse_all
from pi2cut.solver import NoSolutionUnderPool, SolverOptions, introduce_cut
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
    Sequent,
    Signature,
    SyntaxError_,
    Var,
    X,
    Y,
    const,
    formula_to_sexp,
    term_to_sexp,
)


ALL_FIXTURES = sorted(p.name for p in PROBLEM_DIR.glob("*.p2"))
GOLDEN = Path(__file__).resolve().parent / "golden"
LEGACY = GOLDEN / "legacy-two_step-gstar.proof"


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
    (
        parse_proof,
        _proof_text("(principal left 1)", "(sequent (left (P c)) (right (P c)))"),
        "4:21: principal index 1 is past the left side, which holds 1 formula(s)",
    ),
    (
        parse_proof,
        _proof_text("(principal\tdown 0)", "(sequent (left (P c)) (right (P c)))"),
        "4:16: a principal index needs side left or right, not 'down'",
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

    @pytest.mark.parametrize(
        "arity, message",
        [("\u00b2", "arity must be a number: \u00b2"), ("9" * 5000, "arity too large")],
        ids=["superscript-two", "5000-digits"],
    )
    @pytest.mark.parametrize(
        "command, reader, text, old, where",
        [
            ("solve", parse_problem, (PROBLEM_DIR / "two_step.p2").read_text(), "(fun r1 0)", "5:11"),
            ("check", parse_proof, _proof_text("", "(sequent (left (P c)) (right (P c)))"),
             "(fun c 0)", "2:21"),
        ],
        ids=["problem", "proof"],
    )
    def test_malformed_arity_positioned(
        self, tmp_path, capsys, command, reader, text, old, where, arity, message
    ):
        # Both used to end in a ValueError traceback from int().
        assert old in text
        bad_text = text.replace(old, old.replace("0", arity), 1)
        with pytest.raises(ParseError) as err:
            reader(bad_text)
        assert str(err.value) == f"{where}: {message}"
        bad = tmp_path / "bad"
        bad.write_text(bad_text, encoding="utf-8")
        assert main([command, str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}:{where}: {message}\n"

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
        assert capsys.readouterr().err == f"error: {bad}:{message}\n"

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
        assert capsys.readouterr().err == f"error: {bad}:{message}\n"

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


def reference_print_proof(root: Node, sig: Signature) -> str:
    """A proof file that writes every node's whole sequent, the layout
    that proof files had before premise sequents were left out where the
    rule data of the conclusion fixes them.  The reader reads both
    layouts, and must read them to one tree."""
    lines = ["(proof", *problem_io._print_signature(sig, "  ")]
    stack: list[tuple[Node, int] | str] = [(root, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        n, depth = item
        pad = "  " * (1 + 2 * min(depth, problem_io._INDENT_DEPTH))
        lines.append(f"{pad}(node (rule {n.rule})")
        if n.principal is not None:
            lines.append(f"{pad}  (principal {n.side} {formula_to_sexp(n.principal)})")
        if n.witness is not None:
            lines.append(f"{pad}  (witness {term_to_sexp(n.witness)})")
        if n.eigen is not None:
            lines.append(f"{pad}  (eigen {n.eigen})")
        if n.keep:
            lines.append(f"{pad}  (keep)")
        if n.cut_formula is not None:
            lines.append(f"{pad}  (cut-formula {formula_to_sexp(n.cut_formula)})")
        lines.append(f"{pad}  {print_sequent(n.sequent)}")
        if n.premises:
            lines.append(f"{pad}  (premises")
            stack += (f"{pad})", f"{pad}  )")
            stack.extend((p, depth + 1) for p in reversed(n.premises))
        else:
            lines.append(f"{pad})")
    lines.append(")")
    return "\n".join(lines) + "\n"


def _formula_texts(text: str) -> set[str]:
    """The distinct formula texts of a proof file: its principal and cut
    formulas and the formulas of the sequents it writes.  Read with the
    reference reader's list layer, whose lists keep their source text."""
    out: set[str] = set()
    stack = [reference_reader.parse_all(text)[0].items[2]]
    while stack:
        for part in stack.pop().items[1:]:
            head, *items = part.items
            if head.value == "principal":
                if isinstance(items[1], reference_reader.SList):  # not an index into the sequent
                    out.add(items[1].text)
            elif head.value == "cut-formula":
                out.add(items[0].text)
            elif head.value == "sequent":
                out.update(f.text for side in items for f in side.items[1:])
            elif head.value == "premises":
                stack.extend(items)
    return out


def _oracle_proofs():
    """Proofs of every kind the program builds: the one-cut proofs of the
    solvable fixtures under both pools and of S_2..S_7, the cut-free
    proofs of S_2 and S_3, and one-cut proofs of 40 seeded extended
    sequents with a planted cut matrix."""
    for name in ALL_FIXTURES:
        pf = load(name)
        for pool in ("gstar", "naive"):
            try:
                report = introduce_cut(pf.problem, pf.grammar, SolverOptions(pool=pool))
            except NoSolutionUnderPool:
                continue
            yield f"{name} {pool}", report.proof, pf.problem.signature
    for n in range(2, 8):
        sn = generate_sn(n)
        yield f"S_{n}", introduce_cut(sn.problem, sn.grammar).proof, sn.problem.signature
        if n <= 3:
            inst = minimal_cutfree_instances(n)[0]
            yield f"S_{n} cut-free", proof_from_herbrand(sn.problem, inst), sn.problem.signature
    rng = random.Random(7)
    for i in range(40):
        eh = random_tautological_eh(rng)
        yield f"planted {i}", proof_from_eh(eh), eh.problem.signature


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
        # Each formula text the file carries is parsed once; the sequents
        # it leaves out are rebuilt from interned instances, not parsed.
        written = _formula_texts(text)
        assert top_level_calls == len(written) < len(by_text)
        assert check_proof(again).ok
        assert print_proof(again, sig) == text

    @pytest.mark.parametrize("valid", [True, False], ids=["swapped", "weakened"])
    def test_premise_off_the_rule_keeps_its_sequent(self, valid):
        # The checker accepts premises in either order, and rejects a
        # premise that the rule does not give; either way the file writes
        # the premise's sequent and reads back to the tree it printed.
        sig = Signature({"c": 0}, {"P": 1, "Q": 1})
        p, q = Atom("P", (const("c"),)), Atom("Q", (const("c"),))
        if valid:
            first, second = Sequent.of([p, q], [q]), Sequent.of([p, q], [p])
        else:
            first, second = Sequent.of([p, q], [p]), Sequent.of([p, q, Atom("P", (Var("v"),))], [q])
        premises = (Node(AXIOM, first), Node(AXIOM, second))
        root = Node(AND_R, Sequent.of([p, q], [And(p, q)]), premises, And(p, q), RIGHT)
        text = print_proof(root, sig)
        assert text.count("(sequent ") == (3 if valid else 2)
        again, _sig = parse_proof(text)
        assert again == root
        assert check_proof(again).ok is valid

    def test_principal_index_reads_as_its_formula(self):
        # An index counts the formulas of its side in the order the
        # sequent is written; a formula in its place reads the same.
        sequent = "(sequent (left (P c) (P (f c))) (right (P c)))"
        by_formula = [
            parse_proof(_proof_text(f"(principal left {f})", sequent))[0]
            for f in ("(P (f c))", "(P c)")
        ]
        by_index = [parse_proof(_proof_text(f"(principal left {i})", sequent))[0] for i in (0, 1)]
        assert by_index == by_formula
        assert [formula_to_sexp(n.principal) for n in by_index] == ["(P (f c))", "(P c)"]

    def test_legacy_layout_reads_as_the_new_one(self, capsys):
        # A file that writes every node's sequent, as all proof files did
        # before premise sequents were left out where the rule fixes them.
        legacy = LEGACY.read_text(encoding="utf-8")
        assert main(["check", str(LEGACY)]) == 0
        assert capsys.readouterr().out.startswith("status   ok\n")
        old, sig = parse_proof(legacy)
        new, _sig = parse_proof((GOLDEN / "solve-two_step-gstar.proof").read_text(encoding="utf-8"))
        assert old == new
        assert reference_print_proof(new, sig) == legacy
        assert print_proof(old, sig) == print_proof(new, sig)

    def test_both_layouts_read_to_one_tree(self):
        cases = list(_oracle_proofs())
        assert len(cases) == 3 * 2 + 6 + 2 + 40
        for name, proof, sig in cases:
            full = reference_print_proof(proof, sig)
            text = print_proof(proof, sig)
            from_full, _sig = parse_proof(full)
            from_text, _sig = parse_proof(text)
            assert from_full == from_text == proof, name
            assert complexities(from_full) == complexities(from_text) == complexities(proof), name
            assert check_proof(from_text).ok, name
            assert print_proof(from_full, sig) == text, name
            assert len(text) < len(full), name
            # Every principal is in its conclusion, so each is an index.
            assert "(principal left (" not in text and "(principal right (" not in text, name

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
    LEGACY.read_text(encoding="utf-8"),
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


# ---------------------------------------------------------------------------
# The reference reader (`reference_reader.py`) is the reading path as it was
# before the token walk.  On every text both read the same tree, which
# prints back to the same file, or raise the same error at the same place.

_GOLDEN_PROOFS = [path.read_text(encoding="utf-8") for path in sorted(GOLDEN.glob("*.proof"))]
_ALL_PROOF_TEXTS = _PROOF_TEXTS + _GOLDEN_PROOFS


@st.composite
def _commented(draw, texts):
    """A text with a comment put in anywhere, a token's middle included.
    Without a line break of its own it runs to the next one in the text."""
    text = draw(st.sampled_from(texts))
    at = draw(st.integers(0, len(text)))
    comment = draw(st.sampled_from([";", "; (", ";)", "; x\r", ";;(a"]))
    return text[:at] + comment + draw(st.sampled_from(["\n", "", " "])) + text[at:]


def _outcome(reader, text):
    try:
        return reader(text)
    except (ParseError, SyntaxError_, GrammarError) as e:
        return e


def _assert_reads_as_the_reference(reader, reference, text):
    new, old = _outcome(reader, text), _outcome(reference, text)
    if isinstance(old, Exception) or isinstance(new, Exception):
        assert (type(new), str(new)) == (type(old), str(old))
        if isinstance(old, ParseError):
            assert (new.message, new.line, new.col) == (old.message, old.line, old.col)
        return new
    assert new == old
    return new


def _assert_proof_reads_as_the_reference(text):
    read = _assert_reads_as_the_reference(parse_proof, reference_reader.parse_proof, text)
    if not isinstance(read, Exception):
        root, sig = read
        assert print_proof(root, sig) == print_proof(*reference_reader.parse_proof(text))
    return read


# Nodes with two faults each, one per pair of parts that the reader reads
# in turn: the error names the part read first.
_TWO_FAULTS = [
    _proof_text("(principal down 0) (witness (g c))", "(sequent (left (P c)) (right (P c)))"),
    _proof_text("(witness (g c)) (eigen (e))", "(sequent (left (P c)) (right (P c)))"),
    _proof_text("(eigen (e)) (cut-formula (Q c))", "(sequent (left (P c)) (right (P c)))"),
    _proof_text("(principal left (R c))", "(sequent (left (Q c)) (right (P c)))"),
    _proof_text("(principal left 0) (keep x)", "(sequent (left (P c)) (right (P c)))"),
    _proof_text("", "(sequent (right (R c)) (left (Q c)))"),
    _proof_text("(cut-formula (R c))", "(sequent (left (P c)) (right (P c)) (middle))"),
]


@pytest.mark.parametrize(
    "text",
    _ALL_PROOF_TEXTS + _TWO_FAULTS + [text for reader, text, _ in _ERROR_POSITIONS],
)
def test_proofs_read_as_the_reference(text):
    _assert_proof_reads_as_the_reference(text)


def test_planted_proofs_read_as_the_reference():
    for name, proof, sig in _oracle_proofs():
        text = print_proof(proof, sig)
        root, _sig = _assert_proof_reads_as_the_reference(text)
        assert print_proof(root, sig) == text, name


@settings(max_examples=400, deadline=None)
@given(text=st.one_of(_mutated(_ALL_PROOF_TEXTS), _commented(_ALL_PROOF_TEXTS)))
def test_mutated_proofs_read_as_the_reference(text):
    _assert_proof_reads_as_the_reference(text)


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(_mutated(_PROBLEM_TEXTS), _commented(_PROBLEM_TEXTS)))
def test_mutated_problems_read_as_the_reference(text):
    _assert_reads_as_the_reference(parse_problem, reference_reader.parse_problem, text)
