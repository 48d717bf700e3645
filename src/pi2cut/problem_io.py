"""File formats: problem files, starting-set files and proof files.

A problem file holds the signature, the two quantifier blocks with their
matrices, the grammar section (instance tuples and witness terms) and an
optional block of wrapped instantiation terms.  All terms and formulas
use the canonical s-expression syntax; printing and parsing round-trip
bit-exactly after one normalisation.

A proof file holds the signature and the proof tree.  Every node carries
its rule data: rule, principal formula and side, witness, eigenvariable,
`keep` and cut formula, as the rule needs.  Its sequent is written only
for the root and for a premise whose sequent the rule data of its
conclusion does not fix (`calculus.premise_sequents`), such as a cut's
premises; the reader rebuilds every other one.  A file that writes more
sequents, every one even, reads to the same tree, and the checker
compares a written premise sequent with the rule as before.

A principal formula is written as its index on its side of the node's
conclusion, in the order `print_sequent` writes that side, and the
reader resolves the index once the node's sequent is known, written or
rebuilt.  A principal that is not on that side, which the checker
rejects, is written in full; the reader takes a formula in that place
from any file, so files that write every principal in full read to the
same tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import calculus
from .calculus import Node
from .grammar import HerbrandInstanceSet, SchematicPi2Grammar, validate
from .herbrand import PrenexProblem
from .sexpr import ParseError, SAtom, SList, SNode, expect_atom, expect_list, head_of, parse_all
from .syntax import (
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
    Sequent,
    Signature,
    SyntaxError_,
    Term,
    Var,
    X,
    Y,
    beta,
    clause_key,
    formula_key,
    formula_to_sexp,
    is_quantifier_free,
    is_reserved,
    literal_to_sexp,
    term_to_sexp,
)


@dataclass(frozen=True)
class ProblemFile:
    problem: PrenexProblem
    grammar: SchematicPi2Grammar
    herbrand_terms: HerbrandInstanceSet | None = None


# ---------------------------------------------------------------------------
# Terms and formulas


def parse_term(node: SNode, sig: Signature, variables: set[str] | None) -> Term:
    """`variables` of None admits any non-function identifier as a variable.
    Read with an explicit stack, so that deeply nested terms (a long
    successor chain, say) do not exhaust the call stack; an application
    is built once all its arguments are."""
    built: list[Term] = []
    stack: list[SNode | tuple[SAtom, int, int]] = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            head, arity, count = item
            if count != arity:
                msg = f"{head.value} expects {arity} arguments, got {count}"
                raise ParseError(msg, head.line, head.col)
            args = tuple(built[len(built) - count :])
            del built[len(built) - count :]
            built.append(App(head.value, args))
        elif isinstance(item, SAtom):
            name = item.value
            if name in sig.functions:
                if sig.functions[name] != 0:
                    raise ParseError(f"{name} expects arguments", item.line, item.col)
                built.append(App(name, ()))
            elif variables is None or name in variables:
                built.append(Var(name))
            else:
                raise ParseError(f"unknown identifier '{name}'", item.line, item.col)
        else:
            if not item.items:
                raise ParseError("empty term", item.line, item.col)
            head = expect_atom(item.items[0], "function symbol")
            arity = sig.functions.get(head.value)
            if arity is None:
                raise ParseError(f"unknown function symbol '{head.value}'", head.line, head.col)
            args = item.items[1:]
            stack.append((head, arity, len(args)))
            stack.extend(reversed(args))
    return built[0]


_CONNECTIVES = {"and": And, "or": Or, "imp": Imp}


def parse_formula(node: SNode, sig: Signature, variables: set[str] | None) -> Formula:
    lst = expect_list(node, "formula")
    head = head_of(lst, "formula")
    items = lst.items
    if head in _CONNECTIVES:
        if len(items) != 3:
            raise ParseError(f"{head} takes two formulas", lst.line, lst.col)
        return _CONNECTIVES[head](
            parse_formula(items[1], sig, variables), parse_formula(items[2], sig, variables)
        )
    if head == "not":
        if len(items) != 2:
            raise ParseError("not takes one formula", lst.line, lst.col)
        return Not(parse_formula(items[1], sig, variables))
    if head in ("forall", "exists"):
        if len(items) != 3:
            raise ParseError(f"{head} takes a variable and a formula", lst.line, lst.col)
        v = expect_atom(items[1], "variable").value
        inner = set(variables) | {v} if variables is not None else None
        body = parse_formula(items[2], sig, inner)
        return ForAll(v, body) if head == "forall" else Exists(v, body)
    arity = sig.predicates.get(head)
    if arity is None:
        raise ParseError(f"unknown predicate symbol '{head}'", lst.line, lst.col)
    args = tuple(parse_term(a, sig, variables) for a in items[1:])
    if len(args) != arity:
        raise ParseError(f"{head} expects {arity} arguments, got {len(args)}", lst.line, lst.col)
    return Atom(head, args)


def parse_literal(node: SNode, sig: Signature, variables: set[str] | None) -> Literal:
    f = parse_formula(node, sig, variables)
    if isinstance(f, Atom):
        return Literal(True, f)
    if isinstance(f, Not) and isinstance(f.sub, Atom):
        return Literal(False, f.sub)
    raise ParseError("expected a literal", node.line, node.col)


# ---------------------------------------------------------------------------
# Problem files


def _tuple_of(
    node: SNode, sig: Signature, variables: set[str], block: tuple[str, ...], start: int = 0
) -> tuple[Term, ...]:
    """The terms of a list from item `start` on, one per variable of the block."""
    lst = expect_list(node, "term tuple")
    items = lst.items[start:]
    if len(items) != len(block):
        msg = f"expected {len(block)} term(s), one per variable of ({' '.join(block)}), got {len(items)}"
        raise ParseError(msg, lst.line, lst.col)
    return tuple(parse_term(t, sig, variables) for t in items)


def _number(token: SAtom, what: str) -> int:
    """The natural number that `token` writes in decimal; `what` names it
    in the error if it writes none."""
    digits = token.value
    # str.isdigit alone admits digits such as '²' that int() rejects.
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"{what} must be a number: {digits}", token.line, token.col)
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{what} too large", token.line, token.col) from None


def _parse_signature(lst: SList) -> Signature:
    """The `(signature (fun name arity) (pred name arity) ...)` section
    shared by problem and proof files."""
    functions: dict[str, int] = {}
    predicates: dict[str, int] = {}
    for item in lst.items[1:]:
        decl = expect_list(item, "symbol declaration")
        kind = head_of(decl, "fun or pred")
        if kind not in ("fun", "pred") or len(decl.items) != 3:
            raise ParseError("expected (fun name arity) or (pred name arity)", decl.line, decl.col)
        name = expect_atom(decl.items[1], "symbol name").value
        arity = _number(expect_atom(decl.items[2], "arity"), "arity")
        if is_reserved(name):
            raise ParseError(f"reserved name '{name}' may not be declared", decl.line, decl.col)
        if name in functions or name in predicates:
            raise ParseError(f"symbol '{name}' declared twice", decl.line, decl.col)
        (functions if kind == "fun" else predicates)[name] = arity
    try:
        return Signature(functions, predicates)
    except SyntaxError_ as e:
        raise ParseError(str(e), lst.line, lst.col)


def _print_signature(sig: Signature, pad: str) -> list[str]:
    lines = [f"{pad}(signature"]
    for name in sorted(sig.functions):
        lines.append(f"{pad}  (fun {name} {sig.functions[name]})")
    for name in sorted(sig.predicates):
        lines.append(f"{pad}  (pred {name} {sig.predicates[name]})")
    lines.append(f"{pad})")
    return lines


def _named_lists(
    nodes: Iterable[SNode], what: str, sizes: dict[str, int | None]
) -> dict[str, SList]:
    """Lists keyed by their head, each head a key of `sizes` and used once.
    A list has `sizes[head]` items, head included, unless that is None."""
    out: dict[str, SList] = {}
    for node in nodes:
        lst = expect_list(node, what)
        head = head_of(lst, what)
        if head not in sizes or head in out:
            kind = "duplicate" if head in out else "unknown"
            raise ParseError(f"{kind} {what} '{head}'", lst.line, lst.col)
        size = sizes[head]
        if size is not None and len(lst.items) != size:
            raise ParseError(f"({head} ...) takes {size - 1} item(s)", lst.line, lst.col)
        out[head] = lst
    return out


_SECTIONS = {"signature": None, "forall-vars": None, "exists-vars": None,
             "antecedent": 2, "succedent": 2, "grammar": None}
_GRAMMAR_PARTS = dict.fromkeys(("f-tuples", "g-tuples", "r-terms", "t-terms"))


def parse_problem(text: str) -> ProblemFile:
    sections = _named_lists(parse_all(text), "section", {**_SECTIONS, "herbrand-terms": None})
    for required in _SECTIONS:
        if required not in sections:
            raise ParseError(f"missing section '{required}'", 1, 1)

    sig = _parse_signature(sections["signature"])

    def var_block(name: str) -> tuple[str, ...]:
        out = []
        for item in sections[name].items[1:]:
            v = expect_atom(item, "variable").value
            if is_reserved(v) or v in sig.functions or v in sig.predicates:
                raise ParseError(f"'{v}' cannot be a quantified variable", item.line, item.col)
            out.append(v)
        return tuple(out)

    forall_vars = var_block("forall-vars")
    exists_vars = var_block("exists-vars")

    def matrix(name: str, block: tuple[str, ...]) -> Formula:
        # The one `PrenexProblem` check the reading above leaves open.
        node = sections[name].items[1]
        f = parse_formula(node, sig, set(block))
        if not is_quantifier_free(f):
            raise ParseError("matrices must be quantifier-free", node.line, node.col)
        return f

    antecedent = matrix("antecedent", forall_vars)
    succedent = matrix("succedent", exists_vars)
    problem = PrenexProblem(sig, forall_vars, exists_vars, antecedent, succedent)

    gsec = sections["grammar"]
    parts = _named_lists(gsec.items[1:], "grammar part", _GRAMMAR_PARTS)
    for required in _GRAMMAR_PARTS:
        if required not in parts:
            raise ParseError(f"grammar is missing '{required}'", gsec.line, gsec.col)
    r_nodes = parts["r-terms"].items[1:]
    betas = {beta(j) for j in range(1, len(r_nodes) + 1)}
    f_tuples = tuple(_tuple_of(t, sig, {ALPHA}, forall_vars) for t in parts["f-tuples"].items[1:])
    g_tuples = tuple(_tuple_of(t, sig, betas, exists_vars) for t in parts["g-tuples"].items[1:])
    r_terms = tuple(parse_term(t, sig, betas) for t in r_nodes)
    t_terms = tuple(parse_term(t, sig, {ALPHA}) for t in parts["t-terms"].items[1:])
    grammar = SchematicPi2Grammar(sig, f_tuples, g_tuples, r_terms, t_terms)
    violations = validate(grammar)
    if violations:
        raise ParseError("; ".join(violations), gsec.line, gsec.col)

    herbrand = None
    if "herbrand-terms" in sections:
        wrapped: dict[str, list[tuple[Term, ...]]] = {"hF": [], "hG": []}
        for item in sections["herbrand-terms"].items[1:]:
            lst = expect_list(item, "wrapped term")
            kind = head_of(lst, "hF or hG")
            if kind not in wrapped:
                raise ParseError("wrapped terms start with hF or hG", lst.line, lst.col)
            block = forall_vars if kind == "hF" else exists_vars
            wrapped[kind].append(_tuple_of(lst, sig, set(), block, start=1))
        herbrand = HerbrandInstanceSet(wrapped["hF"], wrapped["hG"])

    return ProblemFile(problem, grammar, herbrand)


def print_problem(pf: ProblemFile) -> str:
    lines = _print_signature(pf.problem.signature, "")
    lines.append("(forall-vars" + "".join(f" {v}" for v in pf.problem.forall_vars) + ")")
    lines.append("(exists-vars" + "".join(f" {v}" for v in pf.problem.exists_vars) + ")")
    lines.append("(antecedent " + formula_to_sexp(pf.problem.antecedent) + ")")
    lines.append("(succedent " + formula_to_sexp(pf.problem.succedent) + ")")
    g = pf.grammar

    def tup(t: tuple[Term, ...]) -> str:
        return "(" + " ".join(term_to_sexp(x) for x in t) + ")"

    lines.append("(grammar")
    lines.append("  (f-tuples " + " ".join(tup(t) for t in g.f_tuples) + ")")
    lines.append("  (g-tuples " + " ".join(tup(t) for t in g.g_tuples) + ")")
    lines.append("  (r-terms " + " ".join(term_to_sexp(t) for t in g.r_terms) + ")")
    lines.append("  (t-terms " + " ".join(term_to_sexp(t) for t in g.t_terms) + ")")
    lines.append(")")
    if pf.herbrand_terms is not None:
        lines.append("(herbrand-terms " + " ".join(pf.herbrand_terms.wrapped_terms()) + ")")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Starting-set files: one clause per line, literals over x and y


def parse_starting_set(text: str, sig: Signature) -> frozenset[Clause]:
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split(";")[0].strip()
        if not stripped:
            continue
        try:
            lits = [parse_literal(n, sig, {X, Y}) for n in parse_all(stripped)]
        except ParseError as e:
            # Each line is read on its own; report the position in the file.
            lead = len(raw) - len(raw.lstrip())
            raise ParseError(e.message, lineno, e.col + lead) from None
        if not lits:
            continue
        clauses.append(frozenset(lits))
    return frozenset(clauses)


def print_starting_set(clauses: frozenset[Clause]) -> str:
    lines = []
    for c in sorted(clauses, key=clause_key):
        lines.append(" ".join(sorted(literal_to_sexp(l) for l in c)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Proof files


def print_sequent(s: Sequent) -> str:
    left = " ".join(sorted(formula_to_sexp(f) for f in s.left))
    right = " ".join(sorted(formula_to_sexp(f) for f in s.right))
    lpart = f"(left {left})" if left else "(left)"
    rpart = f"(right {right})" if right else "(right)"
    return f"(sequent {lpart} {rpart})"


# Premises indent two levels deeper than their conclusion down to this
# node depth, and deeper nodes keep that indentation: the text of a deep
# proof then grows linearly with its depth, not quadratically, and leading
# spaces stay a small share of it.  Nesting is carried by the parentheses;
# the indentation is only for the eye, which does not follow a proof past
# a few levels.
_INDENT_DEPTH = 16


def _side_of(s: Sequent, side: str | None) -> frozenset[Formula] | None:
    """The formulas on side `side` of `s`, or None if it names no side."""
    return s.left if side == calculus.LEFT else s.right if side == calculus.RIGHT else None


def _principal_slot(n: Node) -> str:
    """The principal part of `n` as written: the principal's position on
    its side of the conclusion, in the order `print_sequent` writes that
    side, or the formula itself if it is not on a side of the conclusion."""
    text = formula_to_sexp(n.principal)
    side = _side_of(n.sequent, n.side)
    if side is None or n.principal not in side:
        return text
    return str(sum(formula_to_sexp(f) < text for f in side))


def _print_node(root: Node, indent: int) -> list[str]:
    """The lines of a proof tree, walked with an explicit stack so that
    deep proofs do not exhaust the call stack.  The root's sequent is
    written; a premise's only where the rule data of its parent does not
    fix it (`calculus.premise_sequents`), as under a cut.  A node without
    premises closes on its own last line."""
    lines: list[str] = []
    stack: list[tuple[Node, int, bool] | str] = [(root, 0, True)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        n, depth, written = item
        pad = "  " * (indent + 2 * min(depth, _INDENT_DEPTH))
        lines.append(f"{pad}(node (rule {n.rule})")
        if n.principal is not None:
            lines.append(f"{pad}  (principal {n.side} {_principal_slot(n)})")
        if n.witness is not None:
            lines.append(f"{pad}  (witness {term_to_sexp(n.witness)})")
        if n.eigen is not None:
            lines.append(f"{pad}  (eigen {n.eigen})")
        if n.keep:
            lines.append(f"{pad}  (keep)")
        if n.cut_formula is not None:
            lines.append(f"{pad}  (cut-formula {formula_to_sexp(n.cut_formula)})")
        if written:
            lines.append(f"{pad}  {print_sequent(n.sequent)}")
        if n.premises:
            lines.append(f"{pad}  (premises")
            stack += (f"{pad})", f"{pad}  )")
            fixed = calculus.premise_sequents(n, len(n.premises))
            for i in reversed(range(len(n.premises))):
                p = n.premises[i]
                stack.append((p, depth + 1, isinstance(fixed, str) or fixed[i] != p.sequent))
        else:
            lines[-1] += ")"
    return lines


def print_proof(root: Node, sig: Signature) -> str:
    """The proof file of `root`: the signature, then the tree, with the
    sequents laid out as `_print_node` says."""
    lines = ["(proof", *_print_signature(sig, "  ")]
    lines.extend(_print_node(root, 1))
    lines.append(")")
    return "\n".join(lines) + "\n"


# Item count, head included, of each node part and sequent side; None
# admits any count.
_NODE_PARTS = {"rule": 2, "principal": 3, "witness": 2, "eigen": 2, "keep": 1, "cut-formula": 2,
               "sequent": None, "premises": None}
_SIDES = {calculus.LEFT: None, calculus.RIGHT: None}


def _proof_formula(node: SNode, sig: Signature, memo: dict[str, Formula]) -> Formula:
    """A proof formula, parsed once per distinct source text.  Proof
    formulas are read with no variable list under one signature, so the
    result depends on the text alone, and a text in `memo` has already
    parsed without error.  Equal formulas come back as one object."""
    if not isinstance(node, SList):
        return parse_formula(node, sig, None)
    key = node.text
    formula = memo.get(key)
    if formula is None:
        formula = memo[key] = parse_formula(node, sig, None)
    return formula


def _read_node(
    node: SNode, sig: Signature, memo: dict[str, Formula]
) -> tuple[dict[str, object], tuple[SNode, ...], tuple[str, int, SAtom] | None]:
    """The fields of one proof node, its sequent None if it has none, the
    forms of its premises and, if the principal is written as an index,
    its side, that index and its token; the principal field is then None
    until `_referenced` resolves it against the node's sequent."""
    lst = expect_list(node, "proof node")
    if head_of(lst, "node") != "node":
        raise ParseError("expected (node ...)", lst.line, lst.col)
    parts = _named_lists(lst.items[1:], "node part", _NODE_PARTS)
    if "rule" not in parts:
        raise ParseError("node needs a rule", lst.line, lst.col)
    rule = expect_atom(parts["rule"].items[1], "rule name").value
    if rule not in calculus.RULES:
        raise ParseError(f"unknown rule '{rule}'", parts["rule"].line, parts["rule"].col)
    principal, witness, eigen, cut, sequent = map(
        parts.get, ("principal", "witness", "eigen", "cut-formula", "sequent")
    )
    if sequent is not None:
        sides = _named_lists(sequent.items[1:], "sequent side", _SIDES)
        left, right = sides.get(calculus.LEFT), sides.get(calculus.RIGHT)
        sequent = Sequent.of(
            [_proof_formula(f, sig, memo) for f in left.items[1:]] if left else (),
            [_proof_formula(f, sig, memo) for f in right.items[1:]] if right else (),
        )
    side = formula = ref = None
    if principal:
        side_tok, slot = expect_atom(principal.items[1], "side"), principal.items[2]
        side = side_tok.value
        if isinstance(slot, SAtom):
            if side not in _SIDES:
                msg = f"a principal index needs side left or right, not '{side}'"
                raise ParseError(msg, side_tok.line, side_tok.col)
            ref = (side, _number(slot, "principal index"), slot)
        else:
            formula = _proof_formula(slot, sig, memo)
    fields = dict(
        rule=rule,
        sequent=sequent,
        side=side,
        principal=formula,
        witness=parse_term(witness.items[1], sig, None) if witness else None,
        eigen=expect_atom(eigen.items[1], "eigenvariable").value if eigen else None,
        keep="keep" in parts,
        cut_formula=_proof_formula(cut.items[1], sig, memo) if cut else None,
    )
    premises = parts.get("premises")
    return fields, premises.items[1:] if premises else (), ref


def _referenced(sequent: Sequent, side: str, index: int, token: SAtom) -> Formula:
    """Formula `index` of side `side` of `sequent`, counted in the order
    `print_sequent` writes that side."""
    formulas = _side_of(sequent, side)
    if index >= len(formulas):
        held = len(formulas)
        msg = f"principal index {index} is past the {side} side, which holds {held} formula(s)"
        raise ParseError(msg, token.line, token.col)
    return sorted(formulas, key=formula_key)[index]


class _Read:
    """A node read but not yet built: its fields, its premise count and,
    once a premise without a sequent asks for them, the premise sequents
    that its rule data fixes."""

    __slots__ = ("fields", "count", "fixed")

    def __init__(self, fields: dict[str, object], count: int) -> None:
        self.fields = fields
        self.count = count
        self.fixed: tuple[Sequent, ...] | str | None = None

    def premise(self, index: int, form: SNode) -> Sequent:
        """The sequent of premise `index`, read from `form`, which has none."""
        if self.fixed is None:
            node = Node(**self.fields)  # type: ignore[arg-type]
            self.fixed = calculus.premise_sequents(node, self.count)
        if isinstance(self.fixed, str):
            raise ParseError(f"premise needs a sequent: {self.fixed}", form.line, form.col)
        return self.fixed[index]


def _parse_node(root: SNode, sig: Signature, memo: dict[str, Formula]) -> Node:
    """A proof tree, read with an explicit stack so that deep proofs do not
    exhaust the call stack.  A node is read after its conclusion: if it
    has no sequent, it takes the one that the conclusion's rule data fixes
    at its position.  A node is built once all its premises are."""
    built: list[Node] = []
    stack: list[tuple[SNode, _Read | None, int] | _Read] = [(root, None, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, _Read):
            count = item.count
            premises = tuple(built[len(built) - count :])
            del built[len(built) - count :]
            built.append(Node(premises=premises, **item.fields))  # type: ignore[arg-type]
            continue
        form, conclusion, index = item
        fields, forms, ref = _read_node(form, sig, memo)
        if fields["sequent"] is None:
            if conclusion is None:
                raise ParseError("the root node needs a sequent", form.line, form.col)
            fields["sequent"] = conclusion.premise(index, form)
        if ref is not None:
            fields["principal"] = _referenced(fields["sequent"], *ref)  # type: ignore[arg-type]
        read = _Read(fields, len(forms))
        stack.append(read)
        stack.extend((f, read, i) for i, f in reversed(list(enumerate(forms))))
    return built[0]


def parse_proof(text: str) -> tuple[Node, Signature]:
    """The proof tree and signature of a proof file.  A node without a
    sequent takes the one that its conclusion's rule data fixes; a file
    that writes every sequent reads to the same tree."""
    nodes = parse_all(text)
    if len(nodes) != 1:
        raise ParseError("expected a single (proof ...) form", 1, 1)
    lst = expect_list(nodes[0], "proof")
    if head_of(lst, "proof") != "proof" or len(lst.items) != 3:
        raise ParseError("expected (proof (signature ...) (node ...))", lst.line, lst.col)
    sig_list = expect_list(lst.items[1], "signature")
    if head_of(sig_list, "signature") != "signature":
        raise ParseError("expected (signature ...)", sig_list.line, sig_list.col)
    sig = _parse_signature(sig_list)
    return _parse_node(lst.items[2], sig, {}), sig
