"""Acceptance gate: every shipped claim at its stated tolerance.

Each test prints one PASS line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time

from fixtures import lit, load, shared_base, two_bases, two_step, two_step_instances, x, y
from gen import random_sehs, random_starting_set, random_tautological_eh
from pi2cut.benchmark import generate_sn, minimal_cutfree_instances
from pi2cut.calculus import (
    check_proof,
    is_tautology,
    non_tautological_leaves,
)
from pi2cut.grammar import rigid_language
from pi2cut.herbrand import (
    ExtendedHerbrandSequent,
    herbrand_check,
    proof_from_eh,
    proof_from_herbrand,
)
from pi2cut.solver import (
    NoSolutionUnderPool,
    SolverOptions,
    build_sehs,
    cl_filter,
    clauses_from_pool,
    gstar_pool,
    introduce_cut,
    sol_filter,
    verify_solution,
)
from pi2cut.syntax import App, Atom, clause_key


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS — {text}")


def test_criterion_01_worked_instance():
    start = time.perf_counter()
    pf = two_step()
    eh = ExtendedHerbrandSequent(pf.problem, pf.grammar, Atom("P", (x, y)))
    assert is_tautology(eh.sequent()) and eh.complexity() == 7
    inst = two_step_instances()
    valid, count = herbrand_check(pf.problem, inst)
    assert valid and count == 9
    lang = rigid_language(pf.grammar)
    assert lang == inst
    assert len(lang) == 7
    t1 = lambda t: App("t1", (t,))
    t2 = lambda t: App("t2", (t,))
    r2 = lambda t: App("r2", (t,))
    from pi2cut.syntax import const

    excluded = (t1(const("r1")), t1(r2(t2(const("r1")))))
    assert excluded not in lang.g_tuples
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"worked instance: |H|=9, |EH|=7, language exact ({elapsed:.2f}s)")


def test_criterion_02_unsolvable_instances():
    start = time.perf_counter()
    for loader in (two_bases, shared_base):
        pf = loader()
        for pool in ("gstar", "naive"):
            try:
                introduce_cut(pf.problem, pf.grammar, SolverOptions(pool=pool))
                raise AssertionError(f"{loader.__name__}/{pool} unexpectedly solved")
            except NoSolutionUnderPool as e:
                assert not e.stats.caps_hit
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"unsolvable fixtures exit no-solution under both pools ({elapsed:.2f}s)")


def test_criterion_03_filter_example():
    start = time.perf_counter()
    pf = load("swap_pair.p2")
    sehs = build_sehs(pf.problem, pf.grammar)
    P = lit("P", x, y)
    Q = lit("Q", x, y)
    joint = frozenset([frozenset({P, Q})])
    cl = cl_filter(joint, sehs)
    assert cl == frozenset({joint})
    assert sol_filter(cl, sehs) == frozenset()
    single = frozenset([frozenset({P})])
    sol = sol_filter(cl_filter(single, sehs), sehs)
    assert sol == frozenset({single})
    assert verify_solution(sehs, single)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(3, f"clause filters match the worked verdicts ({elapsed:.2f}s)")


def test_criterion_04_benchmark_family():
    f = lambda t: App("f", (t,))
    expected_pool = frozenset({lit("P", x, f(y))})
    timings = {}
    for n in (2, 3, 4, 5):
        start = time.perf_counter()
        sn = generate_sn(n)
        sehs = build_sehs(sn.problem, sn.grammar)
        pool, unifiable = gstar_pool(sehs)
        assert pool == expected_pool and unifiable
        clauses = clauses_from_pool(pool, 3)
        sol = sol_filter(cl_filter(clauses, sehs, max_clauses=3), sehs)
        assert sol == frozenset({frozenset([frozenset({lit("P", x, f(y))})])})
        report = introduce_cut(sn.problem, sn.grammar, SolverOptions(pool="gstar"))
        assert check_proof(report.proof).ok
        assert report.complexity.quantifier == 4 * n + 3
        timings[n] = time.perf_counter() - start
    assert timings[5] < 30.0
    _report(4, f"benchmark n=2..5: pool, solution set and q=4n+3 exact ({timings[5]:.2f}s at n=5)")


def test_criterion_05_cutfree_lower_bound():
    timings = {}
    for n in (2, 3):
        start = time.perf_counter()
        _, valid, count = minimal_cutfree_instances(n)
        assert valid
        assert count > n**n
        timings[n] = time.perf_counter() - start
    assert timings[3] < 60.0
    _report(5, f"cut-free counts exceed n^n for n=2,3 ({timings[3]:.2f}s at n=3)")


def _instances(count: int):
    for seed in range(count):
        rng = random.Random(40_000 + seed)
        sehs = random_sehs(rng)
        starting = random_starting_set(rng)
        yield seed, sehs, starting


def test_criterion_06_soundness_suite():
    from pi2cut.solver import naive_pool

    start = time.perf_counter()
    checked = 0
    for seed, sehs, starting in _instances(120):
        rng = random.Random(45_000 + seed)
        pool_lits = sorted(naive_pool(sehs), key=str)
        drawn = rng.sample(pool_lits, min(4, len(pool_lits)))
        from_pool = frozenset(clauses_from_pool(drawn, max_clause_size=2))
        for candidate_set in (starting, from_pool):
            if not candidate_set:
                continue
            filtered = cl_filter(candidate_set, sehs, max_clauses=3)
            for cs in sol_filter(filtered, sehs):
                assert verify_solution(sehs, cs), f"soundness failure at seed {seed}"
                checked += 1
    assert checked >= 20
    _report(6, f"soundness: zero failures over 120 instances, {checked} solutions "
               f"({time.perf_counter() - start:.2f}s)")


def test_criterion_07_partial_completeness_suite():
    start = time.perf_counter()
    misses = 0
    for seed, sehs, starting in _instances(120):
        sol = sol_filter(cl_filter(starting, sehs), sehs)
        clauses = sorted(starting, key=clause_key)
        for k in range(1, len(clauses) + 1):
            for combo in itertools.combinations(clauses, k):
                cs = frozenset(combo)
                if verify_solution(sehs, cs):
                    assert cs in sol, f"completeness failure at seed {seed}"
    assert misses == 0
    _report(7, f"partial completeness: every verified subset filtered in "
               f"({time.perf_counter() - start:.2f}s)")


def test_criterion_08_balanced_implies_gstar():
    from test_properties import _bundled_sehs, check_balanced_implies_gstar_solvable

    start = time.perf_counter()
    triggered = sum(check_balanced_implies_gstar_solvable(s) for s in _bundled_sehs())
    assert triggered >= 4
    for seed in range(150):
        rng = random.Random(50_000 + seed)
        triggered += check_balanced_implies_gstar_solvable(random_sehs(rng))
    _report(8, f"balanced solutions imply a gstar-pool solution on {triggered} cases "
               f"({time.perf_counter() - start:.2f}s)")


def test_criterion_09_oracle_equivalence():
    from test_calculus import random_sequent

    start = time.perf_counter()
    rng = random.Random(60_000)
    for i in range(1000):
        s = random_sequent(rng)
        via_leaves = not non_tautological_leaves(s)
        assert is_tautology(s) == via_leaves, f"oracle mismatch at case {i}"
    _report(9, f"tautology oracle agrees with leaf emptiness on 1000 sequents "
               f"({time.perf_counter() - start:.2f}s)")


def test_criterion_10_kernel_round_trips():
    start = time.perf_counter()
    built = 0
    # fixtures
    pf = two_step()
    assert check_proof(proof_from_herbrand(pf.problem, two_step_instances())).ok
    eh = ExtendedHerbrandSequent(pf.problem, pf.grammar, Atom("P", (x, y)))
    assert check_proof(proof_from_eh(eh)).ok
    for n in (2, 3):
        sn = generate_sn(n)
        inst, valid, _ = minimal_cutfree_instances(n)
        assert valid
        assert check_proof(proof_from_herbrand(sn.problem, inst)).ok
        f = lambda t: App("f", (t,))
        eh = ExtendedHerbrandSequent(sn.problem, sn.grammar, Atom("P", (x, f(y))))
        assert check_proof(proof_from_eh(eh)).ok
        built += 2
    # randomized tautological extended sequents
    for seed in range(120):
        rng = random.Random(70_000 + seed)
        eh = random_tautological_eh(rng)
        assert check_proof(proof_from_eh(eh)).ok
        built += 1
    _report(10, f"{built + 2} constructed proofs all pass the checker "
                f"({time.perf_counter() - start:.2f}s)")
