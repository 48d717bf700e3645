"""Byte-for-byte outputs of the command line and the proof printer.

The files under tests/golden/ were recorded from a known-good build.  Any
change to solutions, search counters, exit codes or printed proofs shows
here as a difference from them; a change that is meant to alter output
regenerates them, and the diff of tests/golden/ is then part of its review.

Regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from fixtures import PROBLEM_DIR
from pi2cut import benchmark, herbrand
from pi2cut.cli import main
from pi2cut.problem_io import print_proof
from pi2cut.solver import SolverOptions, introduce_cut

GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
DIGESTS = GOLDEN / "proof_digests.json"

PROBLEMS = sorted(p.stem for p in PROBLEM_DIR.glob("*.p2"))
POOLS = ("gstar", "naive")
BENCH_N = range(2, 8)
CUT_N = range(2, 8)
CUTFREE_N = (2, 3)


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def solve_output(stem: str, pool: str, proof_path: Path) -> tuple[int, str, str | None]:
    """Exit code, stdout and emitted proof (None if none was written) of
    `solve --json --verify --emit-proof` on one bundled problem."""
    argv = ["solve", str(PROBLEM_DIR / f"{stem}.p2"), "--pool", pool]
    argv += ["--json", "--verify", "--emit-proof", str(proof_path)]
    code, out = _cli(argv)
    proof = proof_path.read_bytes().decode("utf-8") if proof_path.exists() else None
    return code, out, proof


def bench_output(n: int) -> tuple[int, str]:
    return _cli(["bench-sn", "--n", str(n), "--json"])


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def proof_digest(kind: str, n: int) -> str:
    """Digest of the printed one-cut proof (`cut`) or minimal cut-free
    proof (`cut-free`) of S_n."""
    sn = benchmark.generate_sn(n)
    if kind == "cut":
        proof = introduce_cut(sn.problem, sn.grammar, SolverOptions(pool="gstar")).proof
    else:
        inst, _, _ = benchmark.minimal_cutfree_instances(n)
        proof = herbrand.proof_from_herbrand(sn.problem, inst)
    return _sha256(print_proof(proof, sn.problem.signature))


PROOF_CASES = [("cut", n) for n in CUT_N] + [("cut-free", n) for n in CUTFREE_N]


def _golden(name: str) -> str:
    return (GOLDEN / name).read_bytes().decode("utf-8")


@pytest.mark.parametrize("pool", POOLS)
@pytest.mark.parametrize("stem", PROBLEMS)
def test_solve(stem, pool, tmp_path):
    name = f"solve-{stem}-{pool}"
    code, out, proof = solve_output(stem, pool, tmp_path / "out.proof")
    assert code == json.loads(_golden(EXIT_CODES.name))[name]
    assert out == _golden(f"{name}.out")
    want = GOLDEN / f"{name}.proof"
    assert proof == (_golden(want.name) if want.exists() else None)


@pytest.mark.parametrize("n", BENCH_N)
def test_bench_sn(n):
    name = f"bench-sn-{n}"
    code, out = bench_output(n)
    assert code == json.loads(_golden(EXIT_CODES.name))[name]
    assert out == _golden(f"{name}.out")


@pytest.mark.parametrize("kind, n", PROOF_CASES)
def test_proof_digest(kind, n):
    assert proof_digest(kind, n) == json.loads(_golden(DIGESTS.name))[f"{kind} S_{n}"]


def _write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.iterdir():
        stale.unlink()
    codes: dict[str, int] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for stem in PROBLEMS:
            for pool in POOLS:
                name = f"solve-{stem}-{pool}"
                code, out, proof = solve_output(stem, pool, Path(tmp) / f"{name}.proof")
                codes[name] = code
                (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
                if proof is not None:
                    (GOLDEN / f"{name}.proof").write_bytes(proof.encode("utf-8"))
    for n in BENCH_N:
        codes[f"bench-sn-{n}"], out = bench_output(n)
        (GOLDEN / f"bench-sn-{n}.out").write_bytes(out.encode("utf-8"))
    digests = {f"{kind} S_{n}": proof_digest(kind, n) for kind, n in PROOF_CASES}
    EXIT_CODES.write_text(json.dumps(codes, indent=2) + "\n", encoding="utf-8")
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_golden()
