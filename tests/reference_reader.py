"""The proof and problem readers as they were before the token walk, kept
as the reference that `pi2cut.problem_io` is tested against.

This is the whole reading path of that version: the s-expression layer
(pieces cut by one regular expression, lists whose items are built on
first read), the recursive formula reader and the stack-based term
reader, the problem-file reader and the proof reader.  It shares nothing
with `pi2cut.sexpr` or the readers in `pi2cut.problem_io` but the error
type, so the two agree only where they read alike.  It imports
`problem_io` for `_side_of`, which the printer shares, and `calculus`
for the rule table and `premise_sequents`.
"""

from __future__ import annotations

import re
from itertools import accumulate
from typing import Iterable

from pi2cut import calculus
from pi2cut.calculus import Node
from pi2cut.grammar import HerbrandInstanceSet, SchematicPi2Grammar, validate
from pi2cut.herbrand import PrenexProblem
from pi2cut.problem_io import ProblemFile, _side_of
from pi2cut.sexpr import ParseError
from pi2cut.syntax import (
    ALPHA,
    And,
    App,
    Atom,
    Exists,
    ForAll,
    Formula,
    Imp,
    Not,
    Or,
    Sequent,
    Signature,
    SyntaxError_,
    Term,
    Var,
    beta,
    formula_key,
    is_quantifier_free,
    is_reserved,
)

# A piece is a parenthesis, an atom or a comment with the separators that
# follow it, or the separators that open the text.  The pieces cover the
# text exactly, so their lengths give their offsets.
_SEPARATORS = " \t\r\n"
_PIECE = re.compile(r"[ \t\r\n]+|(?:[()]|;[^\n]*|[^ \t\r\n();]+)[ \t\r\n]*")


class _Source:
    """One text cut into pieces: each piece's offset and, for each `(`,
    the index of its `)`."""

    __slots__ = ("text", "pieces", "starts", "close")

    def __init__(self, text: str):
        self.text = text
        self.pieces = pieces = _PIECE.findall(text)
        self.starts = list(accumulate(map(len, pieces), initial=0))
        self.close = close = [0] * len(pieces)
        stack: list[int] = []
        for i, piece in enumerate(pieces):
            first = piece[0]
            if first == "(":
                stack.append(i)
            elif first == ")":
                if not stack:
                    raise ParseError("unmatched ')'", *self.position(i))
                close[stack.pop()] = i
        if stack:
            raise ParseError("unclosed '('", *self.position(stack[-1]))

    def position(self, index: int) -> tuple[int, int]:
        offset = self.starts[index]
        text = self.text
        return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)

    def nodes(self, start: int, end: int) -> list[SNode]:
        """The nodes of the pieces start..end-1, lists unbuilt."""
        pieces, close = self.pieces, self.close
        out: list[SNode] = []
        i = start
        while i < end:
            piece = pieces[i]
            first = piece[0]
            if first == "(":
                out.append(SList(self, i))
                i = close[i] + 1
            else:
                if first != ";" and first not in _SEPARATORS:
                    out.append(SAtom(piece.rstrip(_SEPARATORS), self, i))
                i += 1
        return out


class _Node:
    __slots__ = ("_src", "_index")

    _src: _Source
    _index: int

    @property
    def line(self) -> int:
        return self._src.position(self._index)[0]

    @property
    def col(self) -> int:
        return self._src.position(self._index)[1]


class SAtom(_Node):
    __slots__ = ("value",)

    def __init__(self, value: str, src: _Source, index: int):
        self.value = value
        self._src = src
        self._index = index

    def __repr__(self) -> str:
        return f"SAtom({self.value!r})"


class SList(_Node):
    __slots__ = ("_items",)

    def __init__(self, src: _Source, index: int):
        self._src = src
        self._index = index
        self._items: tuple[SNode, ...] | None = None

    @property
    def items(self) -> tuple[SNode, ...]:
        items = self._items
        if items is None:
            src, i = self._src, self._index
            items = self._items = tuple(src.nodes(i + 1, src.close[i]))
        return items

    @property
    def text(self) -> str:
        """The list's exact source text, parentheses included."""
        src, i = self._src, self._index
        return src.text[src.starts[i] : src.starts[src.close[i]] + 1]

    def __repr__(self) -> str:
        return f"SList({self.text!r})"


SNode = SAtom | SList


def parse_all(text: str) -> list[SNode]:
    src = _Source(text)
    return src.nodes(0, len(src.pieces))


def expect_list(node: SNode, what: str) -> SList:
    if not isinstance(node, SList):
        raise ParseError(f"expected {what}, got atom '{node.value}'", node.line, node.col)
    return node


def expect_atom(node: SNode, what: str) -> SAtom:
    if not isinstance(node, SAtom):
        raise ParseError(f"expected {what}, got a list", node.line, node.col)
    return node


def head_of(node: SList, what: str) -> str:
    # The proof reader calls this for every node, part and side, so the
    # messages are formatted only on error.
    items = node.items
    if not items:
        raise ParseError(f"empty list where {what} was expected", node.line, node.col)
    head = items[0]
    if not isinstance(head, SAtom):
        raise ParseError(f"expected {what} keyword, got a list", head.line, head.col)
    return head.value


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


# ---------------------------------------------------------------------------
# Proof files


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
