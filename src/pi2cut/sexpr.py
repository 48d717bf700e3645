"""Minimal s-expression reader with source positions.

Atoms are bare tokens, lists are parenthesised; ``;`` starts a comment
running to the end of the line.  Only space, tab, CR and LF separate
tokens.  Lines are counted at LF, and every other character is one
column.

The reader cuts the whole text into pieces with one regular expression
and matches the parentheses in one pass, without recursion.  A list
builds its items the first time they are read, so a caller that skips a
list (by its source text, say) never pays for the nodes inside it.
Positions are worked out only when asked for.
"""

from __future__ import annotations

import re
from itertools import accumulate

# A piece is a parenthesis, an atom or a comment with the separators that
# follow it, or the separators that open the text.  The pieces cover the
# text exactly, so their lengths give their offsets.
_SEPARATORS = " \t\r\n"
_PIECE = re.compile(r"[ \t\r\n]+|(?:[()]|;[^\n]*|[^ \t\r\n();]+)[ \t\r\n]*")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


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
