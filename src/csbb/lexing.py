"""One token reader for csbb's own small languages.

Signature files, Tympanic mapping files and the ExprLang demo child each
scan their text with one master regex of named groups, the idiom of "Writing
a Tokenizer" in the `re` documentation. A token is a ``(kind, value, offset)``
tuple; line and column are worked out only when an error is raised.
"""

from __future__ import annotations

import re


class PositionedError(Exception):
    """An error at a 1-based line and column of some text."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def line_col(text: str, offset: int) -> tuple:
    """The 1-based line and column of offset; a tab counts as one column."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class TokenReader:
    """The tokens of one text, read front to back.

    scanner is a master regex whose groups name the token kinds, and which
    matches at every offset. Groups ``ws`` and ``comment`` are dropped, and a
    ``stray`` match raises error. The closing ``("eof", "", offset)`` token
    sits at the end of the text, or at the start of a comment that ends it.
    """

    def __init__(self, text: str, scanner: re.Pattern, error: type):
        self.text = text
        self.error = error
        self.toks: list = []
        end = len(text)
        for m in scanner.finditer(text):
            kind = m.lastgroup
            if kind == "ws":
                continue
            if kind == "comment":
                if m.end() == end:
                    end = m.start()
                continue
            if kind == "stray":
                raise error(f"stray character {m.group()!r}", *line_col(text, m.start()))
            self.toks.append((kind, m.group(), m.start()))
        self.toks.append(("eof", "", end))
        self.pos = 0

    def peek(self) -> tuple:
        return self.toks[self.pos]

    def next(self) -> tuple:
        tok = self.toks[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, offset: int | None = None):
        """Raise error at offset, by default at the next token."""
        if offset is None:
            offset = self.toks[self.pos][2]
        raise self.error(message, *line_col(self.text, offset))

    def expect(self, value: str) -> tuple:
        v = self.toks[self.pos][1]
        if v != value:
            self.fail(f"expected {value!r}, got {v or 'end of input'!r}")
        return self.next()

    def integer(self, tok: tuple) -> int:
        """The value of an integer token; one past int()'s digit limit fails at the token."""
        try:
            return int(tok[1])
        except ValueError:
            self.fail("integer literal has too many digits", tok[2])
