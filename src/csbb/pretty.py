"""Constructor-call rendering of terms, and the inverse reader.

The printed form is stable and byte-identical across runs, e.g.
``object([prop(id("name"),string("Rodin"))])``. Reading it back needs a
signature and the expected type, because the printed form drops type names.
"""

from __future__ import annotations

import json
import math
import re
from json.encoder import encode_basestring

from .terms import (
    ArgType,
    Con,
    ListTerm,
    Prim,
    Signature,
    Term,
    emit,
    format_real,
    has_surrogate,
    just_,
    nothing_,
)


class PrettyTermError(Exception):
    def __init__(self, message: str, offset: int):
        super().__init__(f"offset {offset}: {message}")
        self.message = message
        self.offset = offset


def pretty_term(t: Term) -> str:
    return emit(t, _render)


def pretty_binding(value) -> str:
    """Render an env binding: a term, or a sequence binding as a bracketed list."""
    if isinstance(value, tuple):
        return "[" + ",".join(pretty_term(v) for v in value) + "]"
    return pretty_term(value)


def _render(t: Term):
    c = t.__class__
    if c is Con:
        return t.name + "(", t.args, ")"
    if c is ListTerm:
        return "[", t.elems, "]"
    if t.kind == "int":
        return str(t.value)
    if t.kind == "real":
        return format_real(t.value)
    if t.kind == "bool":
        return "true" if t.value else "false"
    return encode_basestring(t.value)


_NUMBER = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _Reader:
    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.sig = sig
        self.pos = 0

    def fail(self, message: str):
        raise PrettyTermError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n\r":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def value(self, expected: ArgType) -> Term:
        self.skip_ws()
        if expected.kind == "list":
            return self.list_value(expected)
        if expected.kind == "maybe":
            return self.maybe_value(expected)
        if expected.kind == "prim":
            return self.prim_value(expected.name)
        return self.con_value(expected.name)

    def list_value(self, expected: ArgType) -> Term:
        self.expect("[")
        elems: list = []
        self.skip_ws()
        if self.peek() == "]":
            self.pos += 1
            return ListTerm((), expected.elem)
        while True:
            elems.append(self.value(expected.elem))
            self.skip_ws()
            if self.peek() == ",":
                self.pos += 1
                continue
            self.expect("]")
            return ListTerm(tuple(elems), expected.elem)

    def maybe_value(self, expected: ArgType) -> Term:
        name = self.ident()
        if name == "nothing":
            self.expect("(")
            self.expect(")")
            return nothing_()
        if name == "just":
            self.expect("(")
            inner = self.value(expected.elem)
            self.expect(")")
            return just_(inner)
        self.fail(f"expected nothing() or just(...), got {name!r}")

    def prim_value(self, kind: str) -> Term:
        ch = self.peek()
        if ch == '"':
            if kind != "str":
                self.fail(f"expected a {kind}, got a string")
            return Prim("str", self.string_lit())
        if ch.isalpha():
            word = self.ident()
            if word in ("true", "false"):
                if kind != "bool":
                    self.fail(f"expected a {kind}, got a boolean")
                return Prim("bool", word == "true")
            self.fail(f"expected a {kind}, got {word!r}")
        m = _NUMBER.match(self.text, self.pos)
        if not m:
            self.fail(f"expected a {kind}")
        self.pos = m.end()
        if m.group(1) or m.group(2):
            if kind != "real":
                self.fail(f"expected a {kind}, got a real")
            x = float(m.group())
            if not math.isfinite(x):
                raise PrettyTermError("number out of range", m.start())
            return Prim("real", x)
        if kind != "int":
            self.fail(f"expected a {kind}, got an integer")
        return Prim("int", int(m.group()))

    def con_value(self, type_name: str) -> Term:
        name = self.ident()
        self.expect("(")
        args: list = []
        self.skip_ws()
        if self.peek() != ")":
            # Arity is not known until the arguments are read, so resolve the
            # constructor by name first and parse against its declared types.
            con = self._resolve(type_name, name)
            for i, (_, at) in enumerate(con.args):
                if i:
                    self.expect(",")
                args.append(self.value(at))
        self.expect(")")
        if self.sig.find(type_name, name, len(args)) is None:
            self.fail(f"{type_name} declares no constructor {name}/{len(args)}")
        return Con(name, type_name, tuple(args))

    def _resolve(self, type_name: str, name: str):
        found = [c for c in self.sig.constructors_of(type_name) if c.name == name and c.arity > 0]
        if not found:
            self.fail(f"{type_name} declares no constructor {name} with arguments")
        return found[0]

    def ident(self) -> str:
        self.skip_ws()
        m = _IDENT.match(self.text, self.pos)
        if not m:
            self.fail("expected a name")
        self.pos = m.end()
        return m.group()

    def string_lit(self) -> str:
        # Printed strings are JSON-compatible; reuse its decoder.
        decoder = json.decoder.scanstring
        try:
            value, end = decoder(self.text, self.pos + 1)
        except ValueError as e:
            self.fail(f"bad string literal: {e}")
        if has_surrogate(value):
            self.fail("lone surrogate in string")  # at the string's opening quote
        self.pos = end
        return value


def parse_pretty_term(sig: Signature, text: str, expected: ArgType) -> Term:
    """Read a printed term back, typed against sig at the expected type."""
    r = _Reader(text, sig)
    try:
        t = r.value(expected)
    except RecursionError:
        r.fail("input nests too deeply")
    r.skip_ws()
    if r.pos != len(text):
        r.fail("trailing content after the term")
    return t
