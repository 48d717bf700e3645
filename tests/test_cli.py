import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pi2cut
from fixtures import PROBLEM_DIR
from pi2cut.calculus import AXIOM, FORALL_L, LEFT, Node
from pi2cut.cli import CLOSED_OUTPUT, main
from pi2cut.problem_io import parse_proof, print_proof
from pi2cut.syntax import Atom, ForAll, Sequent, Signature, Var, const

TWO_STEP = str(PROBLEM_DIR / "two_step.p2")
SHARED = str(PROBLEM_DIR / "unsolvable_shared_base.p2")
TWO_BASES = str(PROBLEM_DIR / "unsolvable_two_bases.p2")
SWAP = str(PROBLEM_DIR / "swap_pair.p2")


class TestSolve:
    def test_solved_exit_zero(self, capsys):
        assert main(["solve", TWO_STEP]) == 0
        out = capsys.readouterr().out
        assert "status" in out and "solved" in out
        assert "(P x y)" in out

    def test_no_solution_exit_one(self, capsys):
        assert main(["solve", TWO_BASES]) == 1
        out = capsys.readouterr().out
        assert "no-solution" in out
        assert main(["solve", SHARED, "--pool", "naive"]) == 1

    def test_missing_file_exit_two(self, capsys):
        assert main(["solve", "does-not-exist.p2"]) == 2

    def test_bad_pool_exit_two(self, capsys):
        assert main(["solve", TWO_STEP, "--pool", "wat"]) == 2

    def test_unknown_pool_is_an_input_error(self, capsys):
        assert main(["solve", TWO_STEP, "--pool", "foo"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown pool 'foo'")

    def test_json_output(self, capsys):
        assert main(["solve", TWO_STEP, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "solved"
        assert data["verified"] == "true"
        assert data["cut-formula"].startswith("(forall x (exists y")

    def test_emit_and_verify(self, tmp_path, capsys):
        out_file = tmp_path / "proof.sexp"
        assert main(["solve", TWO_STEP, "--emit-proof", str(out_file), "--verify"]) == 0
        assert out_file.exists()
        assert main(["check", str(out_file)]) == 0
        check_out = capsys.readouterr().out
        assert "ok" in check_out

    def test_verify_needs_emit_proof(self, capsys):
        # Rejected before the problem is read or solved: stdout stays empty.
        for path in (TWO_STEP, "does-not-exist.p2"):
            assert main(["solve", path, "--verify"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: --verify")
            assert "--emit-proof" in captured.err

    def test_unwritable_proof_exit_two(self, tmp_path, capsys):
        out_file = tmp_path / "missing" / "out.sexp"
        assert main(["solve", TWO_STEP, "--emit-proof", str(out_file)]) == 2
        assert not out_file.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_no_solution_json_stats(self, capsys):
        assert main(["solve", TWO_BASES, "--pool", "naive", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "no-solution"
        assert (data["cl-passed"], data["sol-passed"]) == ("696", "0")
        assert main(["solve", TWO_BASES, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["unifiable"] == "true"

    def test_cap_exceeded_json_stats(self, capsys):
        argv = ["solve", SHARED, "--pool", "naive", "--max-candidates", "10", "--json"]
        assert main(argv) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "cap-exceeded"
        assert data["caps-hit"] == "true"
        assert (data["pool-size"], data["cl-passed"]) == ("6", "1")
        assert data["candidates"] == "10"

    def test_cap_at_the_pruned_count(self, capsys):
        # unsolvable_two_bases under the naive pool tries 721 sets.
        argv = ["solve", TWO_BASES, "--pool", "naive", "--json", "--max-candidates"]
        assert main(argv + ["720"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert (data["status"], data["candidates"], data["caps-hit"]) == ("cap-exceeded", "720", "true")
        assert main(argv + ["721"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "no-solution"
        counts = (data["candidates"], data["cl-passed"], data["sol-passed"], data["caps-hit"])
        assert counts == ("721", "696", "0", "false")

    def test_generalisation_site_cap(self, tmp_path, capsys):
        # 17 occurrences of alpha in one leaf literal: more generalisation
        # sites than either pool explores, a search limit on valid input.
        args = " ".join(["x1"] * 17)
        problem = tmp_path / "wide.p2"
        problem.write_text(
            "(signature (fun r 0) (fun t1 1) (pred P 17))\n"
            "(forall-vars x1)\n(exists-vars y1)\n"
            f"(antecedent (P {args}))\n(succedent (P {args.replace('x1', 'y1')}))\n"
            "(grammar (f-tuples (alpha)) (g-tuples (b1)) (r-terms r) (t-terms (t1 alpha)))\n"
        )
        for pool in ("naive", "gstar"):
            assert main(["solve", str(problem), "--pool", pool, "--json"]) == 1
            data = json.loads(capsys.readouterr().out)
            assert (data["status"], data["pool"], data["caps-hit"]) == ("cap-exceeded", pool, "true")
            # The pool was never finished, so no later counter was measured.
            assert list(data) == ["status", "pool", "caps-hit"]
            assert main(["solve", str(problem), "--pool", pool]) == 1
            keys = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
            assert keys == ["status", "pool", "caps-hit"]

    def test_starting_set_file(self, tmp_path, capsys):
        pool_file = tmp_path / "start.txt"
        pool_file.write_text("(Q x y)\n")
        assert main(["solve", SWAP, "--pool", f"file:{pool_file}"]) == 0
        out = capsys.readouterr().out
        assert "(Q x y)" in out

    def test_all_flag(self, capsys):
        assert main(["solve", SWAP, "--all", "--pool", "naive", "--max-clauses", "1"]) == 0
        out = capsys.readouterr().out
        assert "solution-alt" in out

    def test_deep_nesting_exit_two(self, tmp_path, capsys):
        depth = 5000
        problem = tmp_path / "deep.p2"
        problem.write_text(
            "(signature (fun r 0) (fun t1 1) (pred P 2))\n"
            "(forall-vars x1)\n(exists-vars y1)\n"
            f"(antecedent {'(not ' * depth}(P x1 x1){')' * depth})\n"
            "(succedent (P y1 y1))\n"
            "(grammar (f-tuples (alpha)) (g-tuples (b1)) (r-terms r) (t-terms (t1 alpha)))\n"
        )
        assert main(["solve", str(problem)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {problem}: input nested too deeply\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--max-clauses", "--max-clause-size", "--max-candidates"])
    def test_negative_bound_exit_two(self, capsys, flag):
        # Each used to run, ending in no-solution or cap-exceeded.
        assert main(["solve", TWO_STEP, flag, "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "must not be negative" in captured.err
        assert main(["solve", TWO_STEP, flag, "0", "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["status"] in ("no-solution", "cap-exceeded")


def _unreadable(tmp_path):
    """A missing path, a directory and a file that is not UTF-8 text, each
    with the reason `pi2cut` gives for it."""
    binary = tmp_path / "bin.p2"
    binary.write_bytes(b"\xff\xfe(signature)\n")
    return [
        (str(tmp_path / "missing.p2"), "No such file or directory"),
        (str(tmp_path), "Is a directory"),
        (str(binary), "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ]


@pytest.mark.parametrize(
    "argv",
    [["solve", "{}"], ["check", "{}"], ["language", "{}"], ["solve", TWO_STEP, "--pool", "file:{}"]],
)
def test_unreadable_input_exit_two(tmp_path, capsys, argv):
    # Non-UTF-8 input used to end in a traceback; an unreadable path was
    # reported at a made-up position 0:0.
    for path, reason in _unreadable(tmp_path):
        assert main([arg.format(path) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"


@pytest.mark.parametrize(
    "name, text, argv, where",
    [
        (
            "bad.txt",
            "(P x y)\n(Z x)\n",
            ["solve", TWO_STEP, "--pool", "file:{}"],
            "2:1: unknown predicate symbol 'Z'",
        ),
        ("bad.p2", "(signature)\n(bogus)\n", ["solve", "{}"], "2:1: unknown section 'bogus'"),
    ],
)
def test_parse_error_names_its_file(tmp_path, capsys, name, text, argv, where):
    # A solve reads two files, so the message names the one at fault.
    path = tmp_path / name
    path.write_text(text)
    assert main([arg.format(path) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {path}:{where}\n"


def _one_premise_or_l(lines: list[str]) -> list[str]:
    """The lines of a proof file with the first or-l node left with its
    first premise only."""
    i = next(k for k, line in enumerate(lines) if line.endswith("(node (rule or-l)"))
    assert "(premises" in lines[i + 2] and lines[i + 4].endswith("(node (rule axiom))")
    return lines[: i + 4] + lines[i + 5 :]


class TestCheck:
    def test_tampered_proof_fails(self, tmp_path, capsys):
        out_file = tmp_path / "proof.sexp"
        assert main(["solve", TWO_STEP, "--emit-proof", str(out_file)]) == 0
        text = out_file.read_text()
        tampered = text.replace("(rule cut)", "(rule and-l)", 1)
        bad_file = tmp_path / "bad.sexp"
        bad_file.write_text(tampered)
        assert main(["check", str(bad_file)]) == 3

    def test_stray_field_exit_three(self, tmp_path, capsys):
        out_file = tmp_path / "proof.sexp"
        assert main(["solve", TWO_STEP, "--emit-proof", str(out_file)]) == 0
        text = out_file.read_text()
        assert main(["check", str(out_file)]) == 0
        bad_file = tmp_path / "bad.sexp"
        bad_file.write_text(text.replace("(rule forall-l)", "(rule forall-l) (eigen e1)", 1))
        assert main(["check", str(bad_file)]) == 3
        assert "forall-l takes no eigen field" in capsys.readouterr().out

    def test_deep_nesting_exit_two(self, tmp_path, capsys):
        # Proof trees and terms are read with explicit stacks, formulas
        # recursively.
        depth = 5000
        formula = f"{'(not ' * depth}(P){')' * depth}"
        f = tmp_path / "deep.sexp"
        f.write_text(
            "(proof (signature (pred P 0)) (node (rule axiom)"
            f" (sequent (left {formula} (P)) (right (P)))))"
        )
        assert main(["check", str(f)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {f}: input nested too deeply\n"
        assert "Traceback" not in err

    def test_deep_proof_prints_reads_and_checks(self, tmp_path, capsys):
        # A valid chain of 5,000 forall-l inferences over one sequent.
        depth = 5000
        c = const("c")
        fa = ForAll("x", Atom("P", (Var("x"),)))
        top = Sequent.of([fa, Atom("P", (c,))], [Atom("P", (c,))])
        node = Node(AXIOM, top)
        for k in range(depth):
            s = top if k < depth - 1 else Sequent.of([fa], [Atom("P", (c,))])
            node = Node(FORALL_L, s, (node,), principal=fa, side=LEFT, witness=c, keep=True)
        sig = Signature({"c": 0}, {"P": 1})
        text = print_proof(node, sig)
        f = tmp_path / "deep.sexp"
        f.write_text(text)
        assert main(["check", str(f), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["status"], data["proof-q"]) == ("ok", str(depth))
        again, _ = parse_proof(text)
        assert print_proof(again, sig) == text

    @pytest.mark.parametrize(
        "edit, where, reason",
        [
            (lambda lines: lines[:10] + lines[11:], "9:3", "the root node needs a sequent"),
            (
                lambda lines: lines[:15] + lines[16:],
                "13:7",
                "premise needs a sequent: cut premises are not fixed by the cut formula",
            ),
            (
                lambda lines: [line.replace("(rule or-l)", "(rule and-l)") for line in lines],
                "34:27",
                "premise needs a sequent: rule and-l does not fit principal"
                " (or (P alpha (t1 alpha)) (P alpha (t2 alpha)))",
            ),
            (_one_premise_or_l, "34:27", "premise needs a sequent: or-l needs 2 premises"),
        ],
        ids=["root", "cut-premise", "and-l-on-or", "one-premise-or-l"],
    )
    def test_missing_sequent_exit_two(self, tmp_path, capsys, edit, where, reason):
        # A sequent may be left out only where the conclusion's rule data
        # fixes it; elsewhere the file is malformed, not an invalid proof.
        out_file = tmp_path / "proof.sexp"
        assert main(["solve", TWO_STEP, "--emit-proof", str(out_file)]) == 0
        capsys.readouterr()
        lines = out_file.read_text().split("\n")
        assert "(sequent " in lines[10] and "(sequent " in lines[15]
        bad = tmp_path / "bad.sexp"
        bad.write_text("\n".join(edit(lines)))
        assert main(["check", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}:{where}: {reason}\n"

    @pytest.mark.parametrize(
        "principal, where, reason",
        [
            ("(principal right 2)", "14:26", "principal index 2 is past the right side, which holds 2 formula(s)"),
            ("(principal right -1)", "14:26", "principal index must be a number: -1"),
            ("(principal right \u00b2)", "14:26", "principal index must be a number: \u00b2"),
            (f"(principal right {'9' * 5000})", "14:26", "principal index too large"),
            ("(principal middle 1)", "14:20", "a principal index needs side left or right, not 'middle'"),
        ],
        ids=["past-the-side", "negative", "superscript", "5000-digits", "middle"],
    )
    def test_bad_principal_index_exit_two(self, tmp_path, capsys, principal, where, reason):
        # A principal is written as its position on its side of the
        # conclusion; a position the conclusion does not have is malformed.
        out_file = tmp_path / "proof.sexp"
        assert main(["solve", TWO_STEP, "--emit-proof", str(out_file)]) == 0
        capsys.readouterr()
        lines = out_file.read_text().split("\n")
        assert lines[13] == "        (principal right 1)" and "(rule forall-r)" in lines[12]
        bad = tmp_path / "bad.sexp"
        bad.write_text("\n".join(lines[:13] + [f"        {principal}"] + lines[14:]), encoding="utf-8")
        assert main(["check", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}:{where}: {reason}\n"

    def test_principal_off_the_conclusion_exit_three(self, tmp_path, capsys):
        # A principal that is not in its conclusion is written as a
        # formula, with its premise's sequent, and fails the check.
        c = const("c")
        fa = ForAll("x", Atom("P", (Var("x"),)))
        top = Sequent.of([fa, Atom("P", (c,))], [Atom("P", (c,))])
        bad = Node(
            FORALL_L,
            Sequent.of([Atom("P", (c,))], [Atom("P", (c,))]),
            (Node(AXIOM, top),),
            principal=fa,
            side=LEFT,
            witness=c,
            keep=True,
        )
        text = print_proof(bad, Signature({"c": 0}, {"P": 1}))
        assert "(principal left (forall x (P x)))" in text and text.count("(sequent ") == 2
        f = tmp_path / "bad.sexp"
        f.write_text(text)
        assert main(["check", str(f)]) == 3
        assert "principal formula not in the conclusion" in capsys.readouterr().out

    def test_stated_premise_sequent_off_the_rule_exit_three(self, tmp_path, capsys):
        # A premise may still state its sequent; one that differs from the
        # sequent its conclusion fixes fails the check as before.
        out_file = tmp_path / "proof.sexp"
        assert main(["solve", TWO_STEP, "--emit-proof", str(out_file)]) == 0
        capsys.readouterr()
        text = out_file.read_text()
        at = text.index("(node (rule axiom)", text.index("(rule or-l)"))
        bad = tmp_path / "bad.sexp"
        end = at + len("(node (rule axiom)")
        bad.write_text(text[:end] + " (sequent (left) (right (P r1 r1)))" + text[end:])
        assert main(["check", str(bad)]) == 3
        captured = capsys.readouterr()
        assert "or-l premises do not match the rule schema" in captured.out
        assert captured.err == ""

    def test_garbage_exit_two(self, tmp_path):
        f = tmp_path / "junk.sexp"
        f.write_text("(proof (signature) oops")
        assert main(["check", str(f)]) == 2

    @pytest.mark.parametrize(
        "signature, node",
        [
            ("(fun f)", "(rule axiom) (sequent (left) (right))"),
            ("(fun f 0) (fun f 1)", "(rule axiom) (sequent (left) (right))"),
            ("(pred x 0)", "(rule axiom) (sequent (left) (right))"),
            ("", "(rule)"),
            ("(pred P 0)", "(rule axiom) (principal left) (sequent (left (P)) (right (P)))"),
            ("(pred P 0)", "(rule axiom) (sequent (left (P)) (middle (P)))"),
        ],
    )
    def test_malformed_proof_exit_two(self, tmp_path, capsys, signature, node):
        f = tmp_path / "bad.sexp"
        f.write_text(f"(proof (signature {signature}) (node {node}))")
        assert main(["check", str(f)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestLanguage:
    def test_two_step_language(self, capsys):
        assert main(["language", TWO_STEP]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        terms = [l for l in out if not l.startswith(";")]
        assert len(terms) == 7
        assert "; covers herbrand-terms: true" in out


@pytest.mark.parametrize("argv", [["language", TWO_STEP], ["bench-sn", "--n", "3"]])
def test_closed_output_exits_quietly(argv):
    # `pi2cut language problems/two_step.p2 | head -1` used to end in a
    # BrokenPipeError traceback.  Here the reader is gone before the first
    # write, so the outcome does not hang on timing.
    read, write = os.pipe()
    os.close(read)
    src = str(Path(pi2cut.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pi2cut", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
    finally:
        os.close(write)
    assert done.stderr == b""
    assert done.returncode == CLOSED_OUTPUT


class TestBench:
    def test_n2(self, capsys):
        assert main(["bench-sn", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "cut-proof-q             11" in out.replace("  ", " " * 2) or "11" in out

    def test_n2_json_cut_free(self, capsys):
        assert main(["bench-sn", "--n", "2", "--cut-free", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cut-proof-q"] == "11"
        assert data["cut-proof-q-expected"] == "11"
        assert data["cut-free-valid"] == "true"
        assert data["cut-free-exceeds-n^n"] == "true"

    def test_bad_n(self, capsys):
        assert main(["bench-sn", "--n", "1"]) == 2
