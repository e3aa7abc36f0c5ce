"""Built-in JSON object language: parser, canonical printer, and hole encoders.

The dialect is standard JSON extended with unquoted identifier keys, which the
hole encoding relies on (`{_hole:0}`). All numbers parse to the real
primitive. Object properties keep their source order.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring  # JSON string syntax, quotes included

from .concrete import ParserError, ParserRegistry, make_parse_fn
from .lexing import line_col
from .terms import (
    Con,
    Constructor,
    ListTerm,
    Prim,
    Signature,
    Term,
    adt,
    check_term,
    emit,
    format_real,
    list_of,
    prim,
)

JSON_SIGNATURE = Signature(
    frozenset({"JSON", "Prop", "Id"}),
    (
        Constructor("boolean", "JSON", (("b", prim("bool")),)),
        Constructor("number", "JSON", (("n", prim("real")),)),
        Constructor("string", "JSON", (("s", prim("str")),)),
        Constructor("array", "JSON", (("elts", list_of(adt("JSON"))),)),
        Constructor("null", "JSON", ()),
        Constructor("object", "JSON", (("props", list_of(adt("Prop"))),)),
        Constructor("prop", "Prop", (("name", adt("Id")), ("val", adt("JSON")))),
        Constructor("id", "Id", (("name", prim("str")),)),
    ),
)


# Term builders, mostly for tests and callers assembling expected values.

def null_() -> Con:
    return Con("null", "JSON", ())


def boolean(b: bool) -> Con:
    return Con("boolean", "JSON", (Prim("bool", b),))


def number(x: float) -> Con:
    return Con("number", "JSON", (Prim("real", float(x)),))


def string(s: str) -> Con:
    return Con("string", "JSON", (Prim("str", s),))


def array(elts) -> Con:
    return Con("array", "JSON", (ListTerm(tuple(elts), adt("JSON")),))


def obj(props) -> Con:
    return Con("object", "JSON", (ListTerm(tuple(props), adt("Prop")),))


def prop(name: str, val: Term) -> Con:
    return Con("prop", "Prop", (ident(name), val))


def ident(name: str) -> Con:
    return Con("id", "Id", (Prim("str", name),))


class JsonSyntaxError(ParserError):
    pass


_WS = " \t\n\r"
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")
_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t"}


class _JsonParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str, pos: int | None = None):
        raise JsonSyntaxError(message, *line_col(self.text, self.pos if pos is None else pos))

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in _WS:
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def value(self) -> Term:
        self.skip_ws()
        ch = self.peek()
        if ch == "{":
            return self.object()
        if ch == "[":
            return self.array()
        if ch == '"':
            return string(self.string_lit())
        if ch in _DIGITS or ch == "-":
            return number(self.number_lit())
        if ch in _IDENT_START:
            word = self.ident()
            if word == "true":
                return boolean(True)
            if word == "false":
                return boolean(False)
            if word == "null":
                return null_()
            self.fail(f"unexpected identifier {word!r}", self.pos - len(word))
        self.fail("expected a JSON value")

    def object(self) -> Term:
        self.expect("{")
        props: list = []
        self.skip_ws()
        if self.peek() == "}":
            self.pos += 1
            return obj(props)
        while True:
            props.append(self.prop())
            self.skip_ws()
            if self.peek() == ",":
                self.pos += 1
                continue
            self.expect("}")
            return obj(props)

    def prop(self) -> Term:
        self.skip_ws()
        ch = self.peek()
        if ch == '"':
            key = self.string_lit()
        elif ch in _IDENT_START:
            key = self.ident()
        else:
            self.fail("expected a property name")
        self.skip_ws()
        self.expect(":")
        return prop(key, self.value())

    def array(self) -> Term:
        self.expect("[")
        elts: list = []
        self.skip_ws()
        if self.peek() == "]":
            self.pos += 1
            return array(elts)
        while True:
            elts.append(self.value())
            self.skip_ws()
            if self.peek() == ",":
                self.pos += 1
                continue
            self.expect("]")
            return array(elts)

    def ident(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CONT:
            self.pos += 1
        return self.text[start:self.pos]

    def string_lit(self) -> str:
        self.expect('"')
        out: list = []
        while True:
            if self.pos >= len(self.text):
                self.fail("unterminated string")
            ch = self.text[self.pos]
            if ch == '"':
                self.pos += 1
                return "".join(out)
            if ch == "\\":
                self.pos += 1
                out.append(self.escape())
            elif ord(ch) < 0x20:
                self.fail("control character in string")
            else:
                out.append(ch)
                self.pos += 1

    def escape(self) -> str:
        if self.pos >= len(self.text):
            self.fail("unterminated escape")
        ch = self.text[self.pos]
        self.pos += 1
        if ch in _ESCAPES:
            return _ESCAPES[ch]
        if ch == "u":
            start = self.pos - 2
            code = self.hex4()
            if 0xD800 <= code <= 0xDBFF and self.text[self.pos:self.pos + 2] == "\\u":
                self.pos += 2
                low = self.hex4()
                if 0xDC00 <= low <= 0xDFFF:
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                else:
                    self.fail("invalid low surrogate", self.pos - 4)
            elif 0xD800 <= code <= 0xDFFF:  # strings must encode to UTF-8 (RFC 8259, section 8.2)
                self.fail("lone surrogate escape", start)
            return chr(code)
        self.fail(f"invalid escape \\{ch}", self.pos - 1)

    def hex4(self) -> int:
        digits = self.text[self.pos:self.pos + 4]
        if len(digits) < 4 or any(d not in "0123456789abcdefABCDEF" for d in digits):
            self.fail("invalid \\u escape")
        self.pos += 4
        return int(digits, 16)

    def number_lit(self) -> float:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if self.peek() == "0":
            self.pos += 1
        elif self.peek() in _DIGITS:
            while self.peek() in _DIGITS:
                self.pos += 1
        else:
            self.fail("expected a digit")
        if self.peek() == ".":
            self.pos += 1
            if self.peek() not in _DIGITS:
                self.fail("expected a digit after the decimal point")
            while self.peek() in _DIGITS:
                self.pos += 1
        if self.peek() in ("e", "E"):
            self.pos += 1
            if self.peek() in ("+", "-"):
                self.pos += 1
            if self.peek() not in _DIGITS:
                self.fail("expected an exponent digit")
            while self.peek() in _DIGITS:
                self.pos += 1
        x = float(self.text[start:self.pos])
        if not math.isfinite(x):
            self.fail("number out of range", start)
        return x


def parse_json(text: str) -> Term:
    """Parse one JSON value (unquoted identifier keys allowed) to a term."""
    p = _JsonParser(text)
    try:
        t = p.value()
    except RecursionError:
        p.fail("input nests too deeply")
    p.skip_ws()
    if p.pos != len(text):
        p.fail("trailing content after JSON value")
    return t


def json_hole(i: int) -> str:
    """Placeholder for a JSON hole: an object literal so it parses standalone."""
    return "{_hole:%d}" % i


def prop_hole(i: int) -> str:
    return "_hole:%d" % i


# ---------------------------------------------------------------------------
# Canonical printer


def print_json(t: Term) -> str:
    """Canonical rendering: quoted keys, no insignificant whitespace.

    parse_json(print_json(t)) == t for every term well-typed at JSON, and the
    builtin Prop parser inverts it for Prop terms.
    """
    root = "Prop" if isinstance(t, Con) and t.type == "Prop" else "JSON"
    issues = check_term(JSON_SIGNATURE, t, adt(root))
    if issues:
        raise ValueError(f"not a well-typed {root} term: {issues[0]}")
    return emit(t, _print)


def _print(t: Con):
    name = t.name
    if name == "object":
        return "{", t.args[0].elems, "}"
    if name == "array":
        return "[", t.args[0].elems, "]"
    if name == "prop":
        return encode_basestring(t.args[0].args[0].value) + ":", t.args[1:], ""
    if name == "string":
        return encode_basestring(t.args[0].value)
    if name == "number":
        return format_real(t.args[0].value)
    if name == "boolean":
        return "true" if t.args[0].value else "false"
    return "null"


def nonterminals() -> dict:
    """The builtin binding, built afresh: nonterminal -> (parse function, hole encoder)."""
    prop_parse = make_parse_fn(parse_json, "Prop", wrap="{{body}}", project=(0, 0), hole=prop_hole)
    return {"JSON": (parse_json, json_hole), "Prop": (prop_parse, prop_hole)}


def register_json(reg: ParserRegistry) -> None:
    """Install the builtin binding: nonterminals JSON and Prop."""
    for nonterminal, (parse, hole) in nonterminals().items():
        reg.register(nonterminal, parse, hole=hole, signature=JSON_SIGNATURE)
