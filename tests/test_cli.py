import json

import pytest

from fixtures import PROBLEM_DIR
from pi2cut.cli import main

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
        assert err.startswith("error: input nested too deeply")
        assert "Traceback" not in err


class TestCheck:
    def test_tampered_proof_fails(self, tmp_path, capsys):
        out_file = tmp_path / "proof.sexp"
        assert main(["solve", TWO_STEP, "--emit-proof", str(out_file)]) == 0
        text = out_file.read_text()
        tampered = text.replace("(rule cut)", "(rule and-l)", 1)
        bad_file = tmp_path / "bad.sexp"
        bad_file.write_text(tampered)
        assert main(["check", str(bad_file)]) == 3

    def test_deep_nesting_exit_two(self, tmp_path, capsys):
        depth = 5000
        node = "(node (rule axiom) (sequent (left (P)) (right (P)))"
        f = tmp_path / "deep.sexp"
        f.write_text(
            f"(proof (signature (pred P 0)) {(node + ' (premises ') * depth}{node}"
            f"{'))' * depth}))"
        )
        assert main(["check", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: input nested too deeply")
        assert "Traceback" not in err

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
