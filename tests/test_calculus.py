import dataclasses
import itertools
import random

import pytest

import gen
from fixtures import PROBLEM_DIR, load, two_step
from pi2cut.calculus import (
    AND_R,
    AXIOM,
    CUT,
    EXISTS_L,
    EXISTS_R,
    FORALL_L,
    FORALL_R,
    LEFT,
    NON_TAUT_LEAF,
    OR_L,
    RIGHT,
    STRONG_RULES,
    WEAK_RULES,
    ComplexityTriple,
    Node,
    _RULES,
    _candidates,
    _expand,
    _sat,
    check_proof,
    complexities,
    is_tautology,
    maximal_derivation,
    non_tautological_leaves,
    premises_of,
    prop_proof,
    symbol_count,
    tagged_leaves,
)
from pi2cut.benchmark import generate_sn, minimal_cutfree_instances
from pi2cut.herbrand import ExtendedHerbrandSequent, midsequent, proof_from_eh, proof_from_herbrand
from pi2cut.solver import NoSolutionUnderPool, build_sehs, introduce_cut
from pi2cut.syntax import (
    ALPHA,
    And,
    App,
    Atom,
    Exists,
    ForAll,
    Imp,
    Not,
    Or,
    Sequent,
    SyntaxError_,
    Var,
    X,
    Y,
    const,
)

a = const("a")


def P(*args):
    return Atom("P", tuple(args))


def Q(*args):
    return Atom("Q", tuple(args))


class TestMaximalDerivation:
    def test_atomic_sequent_is_single_leaf(self):
        s = Sequent.of([P(a)], [Q(a)])
        d = maximal_derivation(s)
        assert d.premises == ()
        assert d.rule == NON_TAUT_LEAF and d.sequent == s

    def test_shared_base_leaves(self):
        pf = load("unsolvable_shared_base.p2")
        rr = build_sehs(pf.problem, pf.grammar).reduced_representation
        leaves = non_tautological_leaves(rr)
        alpha = Var(ALPHA)
        t1 = App("t1", (alpha,))
        t2 = App("t2", (alpha,))
        r = const("r")
        expected = {
            Sequent.of([P(alpha, t1), Q(alpha, t2)], [P(r, Var("b1"))]),
            Sequent.of([P(alpha, t1), Q(alpha, t2)], [Q(r, Var("b2"))]),
        }
        assert leaves == expected

    def test_axiom_pruning(self):
        s = Sequent.of([P(a)], [P(a), Q(a)])
        d = maximal_derivation(s)
        assert d.rule == AXIOM
        assert not list(non_tautological_leaves(s))

    def test_rejects_quantifiers(self):
        with pytest.raises(SyntaxError_):
            maximal_derivation(Sequent.of([ForAll("v", P(Var("v")))], []))


def reference_leaves(s: Sequent) -> frozenset[Sequent]:
    """The non-tautological leaves read off the full maximal derivation."""
    return frozenset(n.sequent for n in maximal_derivation(s).leaves() if n.rule == NON_TAUT_LEAF)


class TestNonTautologicalLeaves:
    """The leaf walk that stops at the first shared atom against the full tree."""

    def test_random_sequents_match_the_tree(self):
        # The sequents of acceptance criterion 09.
        rng = random.Random(60_000)
        for i in range(1000):
            s = random_sequent(rng)
            assert non_tautological_leaves(s) == reference_leaves(s), f"case {i}"

    def test_bundled_reduced_representations_match_the_tree(self):
        for path in sorted(PROBLEM_DIR.glob("*.p2")):
            pf = load(path.name)
            rr = build_sehs(pf.problem, pf.grammar).reduced_representation
            assert non_tautological_leaves(rr) == reference_leaves(rr), path.name

    @pytest.mark.parametrize("n", range(2, 9))
    def test_benchmark_family_matches_the_tree(self, n):
        sn = generate_sn(n)
        rr = build_sehs(sn.problem, sn.grammar).reduced_representation
        leaves = non_tautological_leaves(rr)
        assert leaves
        assert leaves == reference_leaves(rr)

    def test_leaves_are_atomic(self):
        rng = random.Random(61_000)
        for _ in range(200):
            for leaf in non_tautological_leaves(random_sequent(rng)):
                assert all(isinstance(f, Atom) for f in leaf.left | leaf.right)
                assert not leaf.left & leaf.right

    def test_compound_formula_is_decomposed(self):
        b = const("b")
        s = Sequent.of([And(P(a), P(b))], [Q(a)])
        assert non_tautological_leaves(s) == {Sequent.of([P(a), P(b)], [Q(a)])}

    def test_empty_sequent(self):
        empty = Sequent.of([], [])
        assert non_tautological_leaves(empty) == {empty}

    def test_rejects_quantifiers(self):
        with pytest.raises(SyntaxError_):
            non_tautological_leaves(Sequent.of([P(a)], [Exists("v", Q(Var("v")))]))
        with pytest.raises(SyntaxError_):
            non_tautological_leaves(Sequent.of([Not(ForAll("v", P(Var("v"))))], []))


class TestIsTautology:
    def test_modus_ponens_shape(self):
        s = Sequent.of([P(a), Imp(P(a), Q(a))], [Q(a)])
        assert is_tautology(s)

    def test_swap_is_invalid(self):
        r = const("r")
        t1 = App("t1", (r,))
        t2 = App("t2", (r,))
        s = Sequent.of([P(r, t1), Q(r, t2)], [Q(r, t1), P(r, t2)])
        assert not is_tautology(s)

    def test_empty_sequent(self):
        assert not is_tautology(Sequent.of([], []))

    def test_excluded_middle(self):
        assert is_tautology(Sequent.of([], [Or(P(a), Not(P(a)))]))


def random_sequent(rng: random.Random) -> Sequent:
    atoms = [P(a), Q(a), P(const("b")), Q(const("b")), P(const("c")), Q(const("c")), P(const("d")), Q(const("d"))]

    def go(size: int):
        if size <= 1:
            atom = rng.choice(atoms)
            return Not(atom) if rng.random() < 0.3 else atom
        cut = rng.randint(1, size - 1)
        op = rng.choice([And, Or, Imp])
        return op(go(cut), go(size - cut))

    left = [go(rng.randint(1, 4)) for _ in range(rng.randint(0, 2))]
    right = [go(rng.randint(1, 4)) for _ in range(rng.randint(0, 2))]
    return Sequent.of(left, right)


def test_tautology_oracle_equivalence():
    rng = random.Random(1234)
    for _ in range(300):
        s = random_sequent(rng)
        via_leaves = not non_tautological_leaves(s)
        assert is_tautology(s) == via_leaves


def reference_greedy_pick(s: Sequent, cands) -> int:
    """The greedy policy by its definition: build every candidate's
    premises and prefer fewest open ones, then fewest premises, stopping
    at the first candidate with one closed premise."""
    best = 0
    best_key = (len(s.left) + len(s.right) + 9, 9)
    for idx, (side, f) in enumerate(cands):
        _, prem = premises_of(s, side, f)
        open_count = sum(1 for q in prem if not q.shares_atom())
        key = (open_count, len(prem))
        if key < best_key:
            best, best_key = idx, key
            if key == (0, 1):
                break
    return best


class TestPropProof:
    """`prop_proof` scores its choices from the rule table's added
    formulas; the trees must be those of the premise-building policy."""

    @staticmethod
    def sequents():
        rng = random.Random(66_000)
        for i in range(300):
            yield f"random {i}", random_sequent(rng)
        for n in range(2, 8):
            sn = generate_sn(n)
            yield f"S_{n}", midsequent(sn.problem, sn.grammar)
        rng = random.Random(67_000)
        for i in range(40):
            eh = gen.random_tautological_eh(rng)
            yield f"eh {i} mid-sequent", eh.instance_sequent()
            yield f"eh {i} extended", eh.sequent()

    def test_trees_match_the_premise_building_policy(self):
        verdicts = []
        for name, s in self.sequents():
            proof = prop_proof(s)
            assert proof == _expand(s, True, reference_greedy_pick), name
            closed = all(leaf.rule == AXIOM for leaf in proof.leaves())
            assert closed == is_tautology(s), name
            verdicts.append(closed)
        assert 0 < sum(verdicts) < len(verdicts)


def brute_sat(clauses: list[list[int]]) -> bool:
    """Satisfiability by trying every assignment."""
    nvars = max((abs(l) for cl in clauses for l in cl), default=0)
    return any(
        all(any((l > 0) == bits[abs(l) - 1] for l in cl) for cl in clauses)
        for bits in itertools.product((False, True), repeat=nvars)
    )


def pigeonhole(pigeons: int, holes: int) -> list[list[int]]:
    """Every pigeon in some hole, no hole with two pigeons; variable
    p * holes + h + 1 puts pigeon p in hole h."""

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p, q in itertools.combinations(range(pigeons), 2):
            clauses.append([-var(p, h), -var(q, h)])
    return clauses


class TestSat:
    def test_random_cnfs_match_brute_force(self):
        # One clause width per instance, repeated and complementary
        # literals allowed: 2,649 of the 4,000 are satisfiable, and 482
        # need a decision flipped, unlike almost every call the solver
        # gets from is_tautology.
        rng = random.Random(63_000)
        verdicts = []
        for _ in range(4000):
            nvars, width = rng.randint(1, 9), rng.randint(1, 4)
            clauses = [
                [rng.choice((1, -1)) * rng.randint(1, nvars) for _ in range(width)]
                for _ in range(rng.randint(1, 5 * nvars))
            ]
            expected = brute_sat(clauses)
            assert _sat(clauses) == expected, clauses
            verdicts.append(expected)
        assert 1000 < sum(verdicts) < 3000

    @pytest.mark.parametrize("pigeons", [4, 5])
    def test_pigeonhole_is_unsatisfiable(self, pigeons):
        assert not _sat(pigeonhole(pigeons, pigeons - 1))
        assert _sat(pigeonhole(pigeons, pigeons))

    def test_no_clauses_and_the_empty_clause(self):
        assert _sat([])
        assert not _sat([[]])
        assert not _sat([[1, 2], [], [-1]])


class TestCheckProof:
    def test_worked_transcription(self):
        # The displayed one-cut proof of the two-step problem, node by node.
        pf = two_step()
        pb = pf.problem
        alpha = Var(ALPHA)
        t1 = lambda t: App("t1", (t,))
        t2 = lambda t: App("t2", (t,))
        r2 = lambda t: App("r2", (t,))
        r1 = const("r1")
        b1, b2 = Var("b1"), Var("b2")
        cutf = ForAll("x", Exists("y", P(Var("x"), Var("y"))))
        f_matrix = Or(P(Var("x1"), t1(Var("x1"))), P(Var("x1"), t2(Var("x1"))))
        univ = ForAll("x1", f_matrix)
        exi = Exists("y1", Exists("y2", And(P(r1, Var("y1")), P(r2(Var("y1")), Var("y2")))))

        ax1 = Node(AXIOM, Sequent.of([P(alpha, t1(alpha))], [P(alpha, t1(alpha)), P(alpha, t2(alpha))]))
        ax2 = Node(AXIOM, Sequent.of([P(alpha, t2(alpha))], [P(alpha, t1(alpha)), P(alpha, t2(alpha))]))
        or_l = Node(
            OR_L,
            Sequent.of([Or(P(alpha, t1(alpha)), P(alpha, t2(alpha)))], [P(alpha, t1(alpha)), P(alpha, t2(alpha))]),
            (ax1, ax2),
            principal=Or(P(alpha, t1(alpha)), P(alpha, t2(alpha))),
            side=LEFT,
        )
        fl = Node(
            FORALL_L,
            Sequent.of([univ], [P(alpha, t1(alpha)), P(alpha, t2(alpha))]),
            (or_l,),
            principal=univ,
            side=LEFT,
            witness=alpha,
        )
        ex_inner = Exists("y", P(alpha, Var("y")))
        er2 = Node(
            EXISTS_R,
            Sequent.of([univ], [P(alpha, t1(alpha)), ex_inner]),
            (fl,),
            principal=ex_inner,
            side=RIGHT,
            witness=t2(alpha),
        )
        er1 = Node(
            EXISTS_R,
            Sequent.of([univ], [ex_inner]),
            (er2,),
            principal=ex_inner,
            side=RIGHT,
            witness=t1(alpha),
            keep=True,
        )
        fr = Node(
            FORALL_R,
            Sequent.of([univ], [cutf]),
            (er1,),
            principal=cutf,
            side=RIGHT,
            eigen=ALPHA,
        )

        g_inst = And(P(r1, b1), P(r2(b1), b2))
        ax3 = Node(AXIOM, Sequent.of([P(r1, b1), P(r2(b1), b2)], [P(r1, b1)]))
        ax4 = Node(AXIOM, Sequent.of([P(r1, b1), P(r2(b1), b2)], [P(r2(b1), b2)]))
        from pi2cut.calculus import AND_R

        and_r = Node(
            AND_R,
            Sequent.of([P(r1, b1), P(r2(b1), b2)], [g_inst]),
            (ax3, ax4),
            principal=g_inst,
            side=RIGHT,
        )
        exi_z = Exists("y2", And(P(r1, b1), P(r2(b1), Var("y2"))))
        er_z = Node(
            EXISTS_R,
            Sequent.of([P(r1, b1), P(r2(b1), b2)], [exi_z]),
            (and_r,),
            principal=exi_z,
            side=RIGHT,
            witness=b2,
        )
        er_y = Node(
            EXISTS_R,
            Sequent.of([P(r1, b1), P(r2(b1), b2)], [exi]),
            (er_z,),
            principal=exi,
            side=RIGHT,
            witness=b1,
        )
        ex_r2 = Exists("y", P(r2(b1), Var("y")))
        el2 = Node(
            EXISTS_L,
            Sequent.of([P(r1, b1), ex_r2], [exi]),
            (er_y,),
            principal=ex_r2,
            side=LEFT,
            eigen="b2",
        )
        fl2 = Node(
            FORALL_L,
            Sequent.of([P(r1, b1), cutf], [exi]),
            (el2,),
            principal=cutf,
            side=LEFT,
            witness=r2(b1),
        )
        ex_r1 = Exists("y", P(r1, Var("y")))
        el1 = Node(
            EXISTS_L,
            Sequent.of([ex_r1, cutf], [exi]),
            (fl2,),
            principal=ex_r1,
            side=LEFT,
            eigen="b1",
        )
        fl1 = Node(
            FORALL_L,
            Sequent.of([cutf], [exi]),
            (el1,),
            principal=cutf,
            side=LEFT,
            witness=r1,
            keep=True,
        )
        root = Node(CUT, pb.end_sequent(), (fr, fl1), cut_formula=cutf)
        report = check_proof(root)
        assert report.ok, report.error
        assert complexities(root).quantifier == 7

    def test_reused_eigenvariable_rejected(self):
        from pi2cut.calculus import AND_R

        # Two parallel branches each claim the eigenvariable e; every
        # inference is locally fine, only the reuse is flawed.
        src = Exists("v", Q(Var("v")))
        tgt = Exists("w", Q(Var("w")))

        def branch() -> Node:
            ax = Node(AXIOM, Sequent.of([Q(Var("e"))], [Q(Var("e"))]))
            er = Node(
                EXISTS_R,
                Sequent.of([Q(Var("e"))], [tgt]),
                (ax,),
                principal=tgt,
                side=RIGHT,
                witness=Var("e"),
            )
            return Node(
                EXISTS_L,
                Sequent.of([src], [tgt]),
                (er,),
                principal=src,
                side=LEFT,
                eigen="e",
            )

        root = Node(
            AND_R,
            Sequent.of([src], [And(tgt, tgt)]),
            (branch(), branch()),
            principal=And(tgt, tgt),
            side=RIGHT,
        )
        report = check_proof(root)
        assert not report.ok
        assert "eigen" in report.error

    def test_eigenvariable_freshness(self):
        body = P(Var("v"), Var("v"))
        ex = Exists("v", body)
        # eigenvariable already free in the conclusion
        bad = Node(
            EXISTS_L,
            Sequent.of([ex, P(Var("e"), a)], [Q(a)]),
            (Node(AXIOM, Sequent.of([P(Var("e"), Var("e")), P(Var("e"), a)], [Q(a), P(Var("e"), Var("e"))])),),
            principal=ex,
            side=LEFT,
            eigen="e",
        )
        report = check_proof(bad)
        assert not report.ok

    def test_non_taut_leaf_rejected(self):
        bad = Node(NON_TAUT_LEAF, Sequent.of([P(a)], [Q(a)]))
        assert not check_proof(bad).ok

    def test_broken_rule_rejected(self):
        s = Sequent.of([And(P(a), Q(a))], [P(a)])
        from pi2cut.calculus import AND_L

        bad = Node(
            AND_L,
            s,
            (Node(AXIOM, Sequent.of([P(a)], [P(a)])),),  # dropped Q(a)
            principal=And(P(a), Q(a)),
            side=LEFT,
        )
        assert not check_proof(bad).ok


class TestQuantifierMutations:
    """The first inference of each quantifier rule in two_step's one-cut
    proof, altered so that it no longer fits the rule, is rejected."""

    QUANTIFIER_RULES = WEAK_RULES + STRONG_RULES

    def first_inferences(self) -> dict[str, Node]:
        pf = two_step()
        eh = ExtendedHerbrandSequent(pf.problem, pf.grammar, P(Var(X), Var(Y)))
        out: dict[str, Node] = {}
        for n in proof_from_eh(eh).nodes():
            if n.rule in self.QUANTIFIER_RULES:
                out.setdefault(n.rule, n)
        return out

    def mutations(self, n: Node):
        change = lambda **kw: dataclasses.replace(n, **kw)
        for rule in self.QUANTIFIER_RULES:
            if rule != n.rule:
                yield f"relabelled {rule}", change(rule=rule)
        yield "other side", change(side=RIGHT if n.side == LEFT else LEFT)
        s = n.sequent
        dropped = Sequent(s.left - {n.principal}, s.right - {n.principal})
        yield "principal not in the conclusion", change(sequent=dropped)
        if n.rule in STRONG_RULES:
            yield "eigenvariable as witness", change(witness=Var(n.eigen), eigen=None)
            # Closed premise and all; only the eigenvariable condition fails.
            clash = P(Var(n.eigen), Var(n.eigen))
            grow = lambda q: Sequent(q.left | {clash}, q.right | {clash})
            top = Node(AXIOM, grow(n.premises[0].sequent))
            yield "eigenvariable in the conclusion", change(sequent=grow(s), premises=(top,))
        else:
            yield "no witness", change(witness=None)
            yield "other witness", change(witness=App("w", ()))
            yield "keep flipped", change(keep=not n.keep)
        yield "duplicated premise", change(premises=n.premises * 2)

    def test_mutations_rejected(self):
        nodes = self.first_inferences()
        assert set(nodes) == set(self.QUANTIFIER_RULES)
        for rule, n in nodes.items():
            assert check_proof(n).ok, rule
            for what, bad in self.mutations(n):
                assert not check_proof(bad).ok, f"{rule}: {what}"

    def test_strong_rule_on_unquantified_principal_rejected(self):
        n = self.first_inferences()[EXISTS_L]
        atom = P(a, a)
        bad = dataclasses.replace(
            n, sequent=Sequent(n.sequent.left | {atom}, n.sequent.right), principal=atom
        )
        assert not check_proof(bad).ok


def _replace_first(n: Node, rule: str, change: dict) -> Node | None:
    """The tree with the first node of `rule`, depth first, given `change`."""
    if n.rule == rule:
        return dataclasses.replace(n, **change)
    for i, p in enumerate(n.premises):
        new = _replace_first(p, rule, change)
        if new is not None:
            return dataclasses.replace(n, premises=n.premises[:i] + (new,) + n.premises[i + 1 :])
    return None


class TestStrayFields:
    """two_step's one-cut proof with one node given a field its rule does
    not read is rejected."""

    @pytest.mark.parametrize(
        "rule, change",
        [
            (FORALL_L, {"eigen": "e1"}),
            (EXISTS_R, {"eigen": "e1"}),
            (OR_L, {"eigen": "e1"}),
            (CUT, {"eigen": "e1"}),
            (FORALL_R, {"witness": a}),
            (EXISTS_L, {"witness": a}),
            (AXIOM, {"witness": a}),
            (FORALL_R, {"keep": True}),
            (EXISTS_L, {"keep": True}),
            (AND_R, {"keep": True}),
            (CUT, {"keep": True}),
            (FORALL_L, {"cut_formula": P(a)}),
            (AXIOM, {"cut_formula": P(a)}),
            (AXIOM, {"principal": P(a), "side": LEFT}),
        ],
    )
    def test_stray_field_rejected(self, rule, change):
        pf = two_step()
        proof = proof_from_eh(ExtendedHerbrandSequent(pf.problem, pf.grammar, P(Var(X), Var(Y))))
        assert check_proof(proof).ok
        bad = _replace_first(proof, rule, change)
        assert bad is not None
        report = check_proof(bad)
        assert not report.ok
        assert report.error.startswith(f"{rule} takes no ")


def reference_term_symbols(t) -> int:
    """The symbol count of a term, by structure."""
    if isinstance(t, Var):
        return 1
    return 1 + sum(reference_term_symbols(u) for u in t.args)


def reference_formula_symbols(f) -> int:
    """The symbol count of a formula, by structure: a quantifier and its
    variable are two."""
    if isinstance(f, Atom):
        return 1 + sum(reference_term_symbols(u) for u in f.args)
    if isinstance(f, Not):
        return 1 + reference_formula_symbols(f.sub)
    if isinstance(f, (And, Or, Imp)):
        return 1 + reference_formula_symbols(f.left) + reference_formula_symbols(f.right)
    assert isinstance(f, (ForAll, Exists))
    return 2 + reference_formula_symbols(f.body)


def reference_symbol_count(s: Sequent) -> int:
    """The definition `symbol_count` reads off the canonical text."""
    formulas = sum(map(reference_formula_symbols, [*s.left, *s.right]))
    return formulas + max(0, len(s.left) - 1) + max(0, len(s.right) - 1) + 1


def random_term(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        return Var(rng.choice("uvw")) if rng.random() < 0.5 else const(rng.choice("abc"))
    arity = rng.randint(1, 3)
    return App(f"f{arity}", tuple(random_term(rng, depth - 1) for _ in range(arity)))


def random_formula(rng: random.Random, depth: int):
    """Quantifiers, connectives and atoms of arity 0 to 3 over nullary and
    n-ary terms."""
    if depth <= 0 or rng.random() < 0.25:
        arity = rng.randint(0, 3)
        return Atom(f"R{arity}", tuple(random_term(rng, 3) for _ in range(arity)))
    op = rng.choice([Not, And, Or, Imp, ForAll, Exists])
    if op is Not:
        return Not(random_formula(rng, depth - 1))
    if op in (ForAll, Exists):
        return op(rng.choice("uvw"), random_formula(rng, depth - 1))
    return op(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def _measured_proofs():
    """The proofs whose sequents the measures are checked on: the one-cut
    proofs of the solvable fixtures and of S_2..S_7, and the cut-free
    proofs of the two-step fixture, S_2 and S_3."""
    for path in sorted(PROBLEM_DIR.glob("*.p2")):
        pf = load(path.name)
        try:
            yield path.name, introduce_cut(pf.problem, pf.grammar).proof
        except NoSolutionUnderPool:
            pass
    pf = two_step()
    yield "two_step cut-free", proof_from_herbrand(pf.problem, pf.herbrand_terms)
    for n in range(2, 8):
        sn = generate_sn(n)
        yield f"S_{n}", introduce_cut(sn.problem, sn.grammar).proof
        if n <= 3:
            yield f"S_{n} cut-free", proof_from_herbrand(sn.problem, minimal_cutfree_instances(n)[0])


class TestComplexities:
    def test_axiom_only(self):
        s = Sequent.of([P(a)], [P(a)])
        proof = Node(AXIOM, s)
        triple = complexities(proof)
        assert triple == ComplexityTriple(0, 0, symbol_count(s))

    def test_symbol_count_parts(self):
        s = Sequent.of([P(a, a)], [Q(a), P(a, a)])
        # P,a,a + Q,a + P,a,a + one comma + turnstile
        assert symbol_count(s) == 3 + 2 + 3 + 1 + 1
        rng = random.Random(62_000)
        for i in range(300):
            s = Sequent.of(
                [random_formula(rng, 4) for _ in range(rng.randint(0, 3))],
                [random_formula(rng, 4) for _ in range(rng.randint(0, 3))],
            )
            assert symbol_count(s) == reference_symbol_count(s), f"case {i}"
        for name, proof in _measured_proofs():
            nodes = list(proof.nodes())
            for n in nodes:
                assert symbol_count(n.sequent) == reference_symbol_count(n.sequent), name
            logical = sum(1 for n in nodes if n.premises)
            want = sum(reference_symbol_count(n.sequent) for n in nodes) + logical
            assert complexities(proof).symbols == want, name

    def test_ordering_holds_on_generated_proofs(self):
        from pi2cut.herbrand import proof_from_herbrand
        from fixtures import two_step_instances

        pf = two_step()
        proof = proof_from_herbrand(pf.problem, two_step_instances())
        t = complexities(proof)
        assert t.quantifier <= t.logical <= t.symbols


def reference_tagged_leaves(left, right):
    """The leaves of `maximal_derivation` with every formula tagged "end"
    or "cut", sides as dicts: a formula a rule adds takes the tag of the
    rule's principal, and when it merges with an occurrence already there,
    "end" wins (that occurrence has an end-sequent ancestor)."""
    stack = [(left, right)]
    while stack:
        left, right = stack.pop()
        cands = _candidates(left, right)
        if not cands:
            yield left, right
            continue
        side, f = cands[0]
        tag = (left if side == LEFT else right)[f]
        premises = []
        for l_add, r_add in _RULES[side, type(f)][1](f, None):
            nl, nr = dict(left), dict(right)
            del (nl if side == LEFT else nr)[f]
            for tags, added in ((nl, l_add), (nr, r_add)):
                for g in added:
                    tags[g] = "end" if "end" in (tags.get(g), tag) else "cut"
            premises.append((nl, nr))
        stack.extend(reversed(premises))


class TestAncestry:
    def test_cut_and_end_origins(self):
        from pi2cut.herbrand import ExtendedHerbrandSequent
        from pi2cut.syntax import X, Y

        pf = two_step()
        eh = ExtendedHerbrandSequent(pf.problem, pf.grammar, P(Var(X), Var(Y)))
        leaves = list(tagged_leaves(eh.sequent(), eh.instance_sequent()))
        alpha = Var(ALPHA)
        p1, p2 = (P(alpha, App(t, (alpha,))) for t in ("t1", "t2"))
        # The F instance puts P(alpha, t1 alpha) on the left; only the
        # bridge's alpha side puts P(alpha, t2 alpha) on the right.
        tagged = [
            ("end" if p1 in end.left else "cut", "end" if p2 in end.right else "cut")
            for leaf, end in leaves
            if p1 in leaf.left and p2 in leaf.right and p2 not in leaf.left
        ]
        assert tagged and set(tagged) == {("end", "cut")}

    def test_end_parts_match_the_tag_dictionaries(self):
        # The sequents of acceptance criterion 09, each with a seeded
        # random end part.
        rng, pick = random.Random(60_000), random.Random(64_000)
        total = 0
        for i in range(1000):
            s = random_sequent(rng)
            end = Sequent.of(
                [f for f in s.left if pick.random() < 0.5],
                [f for f in s.right if pick.random() < 0.5],
            )
            walk = list(tagged_leaves(s, end))
            expected = []
            for left, right in reference_tagged_leaves(
                {f: "end" if f in end.left else "cut" for f in s.left},
                {f: "end" if f in end.right else "cut" for f in s.right},
            ):
                leaf = Sequent.of(left, right)
                part = Sequent.of(
                    [f for f, tag in left.items() if tag == "end"],
                    [f for f, tag in right.items() if tag == "end"],
                )
                expected.append((leaf, part))
            assert walk == expected, f"case {i}"
            assert [leaf for leaf, _ in walk] == [n.sequent for n in maximal_derivation(s).leaves()]
            total += len(walk)
        assert total == 3767


class TestTreeWalks:
    def test_deep_chain_walks(self):
        # A valid chain of 5,000 forall-l inferences over one sequent.
        depth = 5000
        c = const("c")
        fa = ForAll("x", P(Var("x")))
        top = Sequent.of([fa, P(c)], [P(c)])
        node = Node(AXIOM, top)
        for k in range(depth):
            s = top if k < depth - 1 else Sequent.of([fa], [P(c)])
            node = Node(FORALL_L, s, (node,), principal=fa, side=LEFT, witness=c, keep=True)
        assert check_proof(node).ok
        assert [n.rule for n in node.leaves()] == [AXIOM]
        assert sum(1 for _ in node.nodes()) == depth + 1
        assert complexities(node).quantifier == depth

    def test_walk_order(self):
        from fixtures import two_step_instances
        from pi2cut.herbrand import proof_from_herbrand

        def preorder(n):
            yield n
            for p in n.premises:
                yield from preorder(p)

        proof = proof_from_herbrand(two_step().problem, two_step_instances())
        assert list(proof.nodes()) == list(preorder(proof))
        assert list(proof.leaves()) == [n for n in preorder(proof) if not n.premises]