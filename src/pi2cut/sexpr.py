"""Minimal s-expression tokenizer with source positions.

Atoms are bare tokens, lists are parenthesised; ``;`` starts a comment
running to the end of the line.  Only space, tab, CR and LF separate
tokens.  Lines are counted at LF, and every other character is one
column.

`Tokens` cuts a text into a flat list of tokens with one regular
expression and matches the parentheses by index in one pass, without
recursion: each token knows the index of the last token of its form.
The readers walk that list by index, so no object is built per list or
atom.  A form is named by the index of its first token; `SNode` pairs
that index with its token list where a form is handed on as a value.  A
token's line and column are worked out only for an error, by cutting the
text again up to that token.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Iterator, NamedTuple

# A token is a parenthesis or an atom, matched with the separators before
# it.  Comments are blanked out first.
_TOKEN = re.compile(r"[ \t\r\n]*([()]|[^ \t\r\n();]+)")
_COMMENT = re.compile(r";[^\n]*")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Tokens:
    """One text cut into tokens, and for each token the index of the last
    token of its form: a `(` closes at its `)`, an atom at itself."""

    __slots__ = ("text", "tokens", "close")

    def __init__(self, text: str):
        if ";" in text:
            # Each comment turns into as many spaces, so offsets hold.
            text = _COMMENT.sub(lambda m: " " * len(m.group()), text)
        self.text = text
        self.tokens = tokens = _TOKEN.findall(text)
        self.close = close = list(range(len(tokens)))
        stack: list[int] = []
        for i, token in enumerate(tokens):
            if token == "(":
                stack.append(i)
            elif token == ")":
                if not stack:
                    raise ParseError("unmatched ')'", *self.position(i))
                close[stack.pop()] = i
        if stack:
            raise ParseError("unclosed '('", *self.position(stack[-1]))

    def position(self, index: int) -> tuple[int, int]:
        """The line and column at which token `index` starts."""
        text = self.text
        offset = next(islice(_TOKEN.finditer(text), index, None)).start(1)
        return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)

    def items(self, start: int, end: int) -> Iterator[int]:
        """The first token of each form from token `start` up to token
        `end`: the `)` of the list that holds them, or the end of the text."""
        close = self.close
        while start < end:
            yield start
            start = close[start] + 1

    def tail(self, index: int) -> Iterator[int]:
        """The first token of each item but the first of the list at token
        `index`, whose first item is an atom."""
        return self.items(index + 2, self.close[index])

    def length(self, index: int) -> int:
        """The number of items of the list at token `index`."""
        close = self.close
        count, i, end = 0, index + 1, close[index]
        while i < end:
            count += 1
            i = close[i] + 1
        return count

    def expect_list(self, index: int, what: str) -> None:
        token = self.tokens[index]
        if token != "(":
            raise ParseError(f"expected {what}, got atom '{token}'", *self.position(index))

    def atom(self, index: int, what: str) -> str:
        token = self.tokens[index]
        if token == "(":
            raise ParseError(f"expected {what}, got a list", *self.position(index))
        return token

    def head(self, index: int, what: str, keyword: str | None = None) -> str:
        """The atom that opens the list at token `index`, which stands
        where `what` is expected; `keyword` names that atom in the errors,
        `what` by default."""
        self.expect_list(index, what)
        head = self.tokens[index + 1]
        if head == ")":
            msg = f"empty list where {keyword or what} was expected"
            raise ParseError(msg, *self.position(index))
        if head == "(":
            msg = f"expected {keyword or what} keyword, got a list"
            raise ParseError(msg, *self.position(index + 1))
        return head


class SNode(NamedTuple):
    """The form that starts at token `index` of `src`."""

    src: Tokens
    index: int


def parse_all(text: str) -> list[SNode]:
    """Each top-level form of `text`."""
    src = Tokens(text)
    return [SNode(src, i) for i in src.items(0, len(src.tokens))]
