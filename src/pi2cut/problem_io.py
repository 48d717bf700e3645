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

Every reader here cuts its text into one flat token list
(`sexpr.Tokens`) and walks it by token index, building no object per
list or atom.  Terms, formulas, signatures and problem sections are read
by one set of functions for all three formats.  The proof reader is one
explicit-stack walk over the nodes: it reads each distinct formula text
once, and rebuilds a conclusion's premise sequents through
`calculus.premise_sequents` at most once.  An error's line and column
are worked out only when it is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import calculus
from .calculus import Node
from .grammar import HerbrandInstanceSet, SchematicPi2Grammar, validate
from .herbrand import PrenexProblem
from .sexpr import ParseError, SNode, Tokens
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
#
# Each reader takes a token list and the index of the form's first token.


def _term(src: Tokens, index: int, sig: Signature, variables: set[str] | None) -> Term:
    """`variables` of None admits any non-function identifier as a variable.
    Read with an explicit stack, so that deeply nested terms (a long
    successor chain, say) do not exhaust the call stack; an application
    is built once all its arguments are."""
    tokens = src.tokens
    built: list[Term] = []
    stack: list[int | tuple[int, int, int]] = [index]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            head, arity, count = item
            name = tokens[head]
            if count != arity:
                msg = f"{name} expects {arity} arguments, got {count}"
                raise ParseError(msg, *src.position(head))
            args = tuple(built[len(built) - count :])
            del built[len(built) - count :]
            built.append(App(name, args))
            continue
        name = tokens[item]
        if name != "(":
            if name in sig.functions:
                if sig.functions[name] != 0:
                    raise ParseError(f"{name} expects arguments", *src.position(item))
                built.append(App(name, ()))
            elif variables is None or name in variables:
                built.append(Var(name))
            else:
                raise ParseError(f"unknown identifier '{name}'", *src.position(item))
            continue
        if tokens[item + 1] == ")":
            raise ParseError("empty term", *src.position(item))
        name = src.atom(item + 1, "function symbol")
        arity = sig.functions.get(name)
        if arity is None:
            raise ParseError(f"unknown function symbol '{name}'", *src.position(item + 1))
        args = list(src.tail(item))
        stack.append((item + 1, arity, len(args)))
        stack.extend(reversed(args))
    return built[0]


_CONNECTIVES = {"and": And, "or": Or, "imp": Imp}


def _formula(src: Tokens, index: int, sig: Signature, variables: set[str] | None) -> Formula:
    head = src.head(index, "formula")
    if head in _CONNECTIVES:
        if src.length(index) != 3:
            raise ParseError(f"{head} takes two formulas", *src.position(index))
        first = index + 2
        return _CONNECTIVES[head](
            _formula(src, first, sig, variables),
            _formula(src, src.close[first] + 1, sig, variables),
        )
    if head == "not":
        if src.length(index) != 2:
            raise ParseError("not takes one formula", *src.position(index))
        return Not(_formula(src, index + 2, sig, variables))
    if head in ("forall", "exists"):
        if src.length(index) != 3:
            raise ParseError(f"{head} takes a variable and a formula", *src.position(index))
        v = src.atom(index + 2, "variable")
        inner = set(variables) | {v} if variables is not None else None
        body = _formula(src, index + 3, sig, inner)
        return ForAll(v, body) if head == "forall" else Exists(v, body)
    arity = sig.predicates.get(head)
    if arity is None:
        raise ParseError(f"unknown predicate symbol '{head}'", *src.position(index))
    args = tuple(_term(src, i, sig, variables) for i in src.tail(index))
    if len(args) != arity:
        msg = f"{head} expects {arity} arguments, got {len(args)}"
        raise ParseError(msg, *src.position(index))
    return Atom(head, args)


def parse_formula(node: SNode, sig: Signature, variables: set[str] | None) -> Formula:
    """The formula written by the form `node`; `variables` of None admits
    any non-function identifier as a variable.  Formulas are read
    recursively."""
    return _formula(node.src, node.index, sig, variables)


def _literal(src: Tokens, index: int, sig: Signature, variables: set[str] | None) -> Literal:
    f = _formula(src, index, sig, variables)
    if isinstance(f, Atom):
        return Literal(True, f)
    if isinstance(f, Not) and isinstance(f.sub, Atom):
        return Literal(False, f.sub)
    raise ParseError("expected a literal", *src.position(index))


# ---------------------------------------------------------------------------
# Problem files


def _tuple_of(
    src: Tokens, index: int, sig: Signature, variables: set[str], block: tuple[str, ...],
    start: int = 0,
) -> tuple[Term, ...]:
    """The terms of a list from item `start` on, one per variable of the block."""
    src.expect_list(index, "term tuple")
    items = list(src.items(index + 1, src.close[index]))[start:]
    if len(items) != len(block):
        msg = f"expected {len(block)} term(s), one per variable of ({' '.join(block)}), got {len(items)}"
        raise ParseError(msg, *src.position(index))
    return tuple(_term(src, i, sig, variables) for i in items)


def _number(src: Tokens, index: int, what: str) -> int:
    """The natural number that the atom at token `index` writes in
    decimal; `what` names it in the error if it writes none."""
    digits = src.atom(index, what)
    # str.isdigit alone admits digits such as '²' that int() rejects.
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"{what} must be a number: {digits}", *src.position(index))
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{what} too large", *src.position(index)) from None


def _parse_signature(src: Tokens, index: int) -> Signature:
    """The `(signature (fun name arity) (pred name arity) ...)` section
    shared by problem and proof files, at token `index`."""
    functions: dict[str, int] = {}
    predicates: dict[str, int] = {}
    for decl in src.tail(index):
        kind = src.head(decl, "symbol declaration", "fun or pred")
        if kind not in ("fun", "pred") or src.length(decl) != 3:
            msg = "expected (fun name arity) or (pred name arity)"
            raise ParseError(msg, *src.position(decl))
        name = src.atom(decl + 2, "symbol name")
        arity = _number(src, decl + 3, "arity")
        if is_reserved(name):
            raise ParseError(f"reserved name '{name}' may not be declared", *src.position(decl))
        if name in functions or name in predicates:
            raise ParseError(f"symbol '{name}' declared twice", *src.position(decl))
        (functions if kind == "fun" else predicates)[name] = arity
    try:
        return Signature(functions, predicates)
    except SyntaxError_ as e:
        raise ParseError(str(e), *src.position(index))


def _print_signature(sig: Signature, pad: str) -> list[str]:
    lines = [f"{pad}(signature"]
    for name in sorted(sig.functions):
        lines.append(f"{pad}  (fun {name} {sig.functions[name]})")
    for name in sorted(sig.predicates):
        lines.append(f"{pad}  (pred {name} {sig.predicates[name]})")
    lines.append(f"{pad})")
    return lines


def _named_lists(
    src: Tokens, items: Iterable[int], what: str, sizes: dict[str, int | None]
) -> dict[str, int]:
    """The first token of each list of `items`, keyed by its head, each
    head a key of `sizes` and used once.  A list has `sizes[head]` items,
    head included, unless that is None."""
    out: dict[str, int] = {}
    for i in items:
        head = src.head(i, what)
        if head not in sizes or head in out:
            kind = "duplicate" if head in out else "unknown"
            raise ParseError(f"{kind} {what} '{head}'", *src.position(i))
        size = sizes[head]
        if size is not None and src.length(i) != size:
            raise ParseError(f"({head} ...) takes {size - 1} item(s)", *src.position(i))
        out[head] = i
    return out


_SECTIONS = {"signature": None, "forall-vars": None, "exists-vars": None,
             "antecedent": 2, "succedent": 2, "grammar": None}
_GRAMMAR_PARTS = dict.fromkeys(("f-tuples", "g-tuples", "r-terms", "t-terms"))


def parse_problem(text: str) -> ProblemFile:
    src = Tokens(text)
    sections = _named_lists(
        src, src.items(0, len(src.tokens)), "section", {**_SECTIONS, "herbrand-terms": None}
    )
    for required in _SECTIONS:
        if required not in sections:
            raise ParseError(f"missing section '{required}'", 1, 1)

    sig = _parse_signature(src, sections["signature"])

    def var_block(name: str) -> tuple[str, ...]:
        out = []
        for i in src.tail(sections[name]):
            v = src.atom(i, "variable")
            if is_reserved(v) or v in sig.functions or v in sig.predicates:
                raise ParseError(f"'{v}' cannot be a quantified variable", *src.position(i))
            out.append(v)
        return tuple(out)

    forall_vars = var_block("forall-vars")
    exists_vars = var_block("exists-vars")

    def matrix(name: str, block: tuple[str, ...]) -> Formula:
        # The one `PrenexProblem` check the reading above leaves open.
        i = sections[name] + 2
        f = _formula(src, i, sig, set(block))
        if not is_quantifier_free(f):
            raise ParseError("matrices must be quantifier-free", *src.position(i))
        return f

    antecedent = matrix("antecedent", forall_vars)
    succedent = matrix("succedent", exists_vars)
    problem = PrenexProblem(sig, forall_vars, exists_vars, antecedent, succedent)

    g = sections["grammar"]
    parts = _named_lists(src, src.tail(g), "grammar part", _GRAMMAR_PARTS)
    for required in _GRAMMAR_PARTS:
        if required not in parts:
            raise ParseError(f"grammar is missing '{required}'", *src.position(g))
    r_items = list(src.tail(parts["r-terms"]))
    betas = {beta(j) for j in range(1, len(r_items) + 1)}
    f_tuples = tuple(_tuple_of(src, i, sig, {ALPHA}, forall_vars) for i in src.tail(parts["f-tuples"]))
    g_tuples = tuple(_tuple_of(src, i, sig, betas, exists_vars) for i in src.tail(parts["g-tuples"]))
    r_terms = tuple(_term(src, i, sig, betas) for i in r_items)
    t_terms = tuple(_term(src, i, sig, {ALPHA}) for i in src.tail(parts["t-terms"]))
    grammar = SchematicPi2Grammar(sig, f_tuples, g_tuples, r_terms, t_terms)
    violations = validate(grammar)
    if violations:
        raise ParseError("; ".join(violations), *src.position(g))

    herbrand = None
    if "herbrand-terms" in sections:
        wrapped: dict[str, list[tuple[Term, ...]]] = {"hF": [], "hG": []}
        for i in src.tail(sections["herbrand-terms"]):
            kind = src.head(i, "wrapped term", "hF or hG")
            if kind not in wrapped:
                raise ParseError("wrapped terms start with hF or hG", *src.position(i))
            block = forall_vars if kind == "hF" else exists_vars
            wrapped[kind].append(_tuple_of(src, i, sig, set(), block, start=1))
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
            src = Tokens(stripped)
            lits = [_literal(src, i, sig, {X, Y}) for i in src.items(0, len(src.tokens))]
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


def _referenced(sequent: Sequent, side: str, index: int, src: Tokens, at: int) -> Formula:
    """Formula `index` of side `side` of `sequent`, counted in the order
    `print_sequent` writes that side; the index is written at token `at`."""
    formulas = _side_of(sequent, side)
    if index >= len(formulas):
        held = len(formulas)
        msg = f"principal index {index} is past the {side} side, which holds {held} formula(s)"
        raise ParseError(msg, *src.position(at))
    return sorted(formulas, key=formula_key)[index]


def parse_proof(text: str) -> tuple[Node, Signature]:
    """The proof tree and signature of a proof file.  A node without a
    sequent takes the one that its conclusion's rule data fixes; a file
    that writes every sequent reads to the same tree.

    The file is one flat token list, walked with an explicit stack so that
    deep proofs do not exhaust the call stack.  Node parts, sequent sides,
    principal indexes and premises are found by token index; formulas and
    witness terms go to the readers that problem files use.  A formula is
    read once per distinct token sequence: proof formulas are read with no
    variable list under one signature, so the result depends on the
    tokens alone, and equal formulas come back as one object.  A node is
    read after its conclusion, and built once all its premises are."""
    src = Tokens(text)
    tokens, close = src.tokens, src.close
    if not tokens or close[0] != len(tokens) - 1:
        raise ParseError("expected a single (proof ...) form", 1, 1)
    if src.head(0, "proof") != "proof" or src.length(0) != 3:
        raise ParseError("expected (proof (signature ...) (node ...))", *src.position(0))
    if src.head(2, "signature") != "signature":
        raise ParseError("expected (signature ...)", *src.position(2))
    sig = _parse_signature(src, 2)

    formulas: dict[tuple[str, ...], Formula] = {}

    def formula(i: int) -> Formula:
        key = tuple(tokens[i : close[i] + 1])
        found = formulas.get(key)
        if found is None:
            found = formulas[key] = parse_formula(SNode(src, i), sig, None)
        return found

    built: list[Node] = []
    # An entry is a node to read: its first token, and the record of its
    # conclusion with its place among that node's premises.  A record holds
    # a node's rule, its sequent, its other fields in `Node` order, its
    # premise count and, once a premise without a sequent asks for them,
    # the premise sequents that its rule data fixes.  Popping the record
    # builds the node from the premises built last.
    stack: list[tuple[int, list | None, int] | list] = [(close[2] + 1, None, 0)]
    while stack:
        entry = stack.pop()
        if isinstance(entry, list):
            rule, sequent, fields, count, _ = entry
            premises = tuple(built[len(built) - count :])
            del built[len(built) - count :]
            built.append(Node(rule, sequent, premises, *fields))
            continue
        i, conclusion, place = entry
        if src.head(i, "proof node", "node") != "node":
            raise ParseError("expected (node ...)", *src.position(i))
        parts = _named_lists(src, src.tail(i), "node part", _NODE_PARTS)
        if "rule" not in parts:
            raise ParseError("node needs a rule", *src.position(i))
        rule = src.atom(parts["rule"] + 2, "rule name")
        if rule not in calculus.RULES:
            raise ParseError(f"unknown rule '{rule}'", *src.position(parts["rule"]))

        sequent = None
        if "sequent" in parts:
            sides = _named_lists(src, src.tail(parts["sequent"]), "sequent side", _SIDES)
            left, right = (
                [formula(f) for f in src.tail(sides[side])] if side in sides else ()
                for side in _SIDES
            )
            sequent = Sequent.of(left, right)
        side = principal = number = None
        if "principal" in parts:
            k = parts["principal"] + 2
            side = src.atom(k, "side")
            if tokens[k + 1] == "(":
                principal = formula(k + 1)
            elif side not in _SIDES:
                msg = f"a principal index needs side left or right, not '{side}'"
                raise ParseError(msg, *src.position(k))
            else:
                number = _number(src, k + 1, "principal index")
        witness = eigen = cut = None
        if "witness" in parts:
            witness = _term(src, parts["witness"] + 2, sig, None)
        if "eigen" in parts:
            eigen = src.atom(parts["eigen"] + 2, "eigenvariable")
        if "cut-formula" in parts:
            cut = formula(parts["cut-formula"] + 2)

        if sequent is None:
            if conclusion is None:
                raise ParseError("the root node needs a sequent", *src.position(i))
            if conclusion[4] is None:
                c_rule, c_sequent, c_fields, count, _ = conclusion
                node = Node(c_rule, c_sequent, (), *c_fields)
                conclusion[4] = calculus.premise_sequents(node, count)
            fixed = conclusion[4]
            if isinstance(fixed, str):
                raise ParseError(f"premise needs a sequent: {fixed}", *src.position(i))
            sequent = fixed[place]
        if number is not None:
            at = parts["principal"] + 3
            principal = _referenced(sequent, side, number, src, at)  # type: ignore[arg-type]
        fields = (principal, side, witness, eigen, "keep" in parts, cut)
        forms = list(src.tail(parts["premises"])) if "premises" in parts else ()
        if forms:
            record = [rule, sequent, fields, len(forms), None]
            stack.append(record)
            stack.extend((f, record, n) for n, f in reversed(list(enumerate(forms))))
        else:
            built.append(Node(rule, sequent, (), *fields))
    return built[0], sig
