"""Built-in JSON object language: parser, canonical printer, and hole encoders.

The dialect is standard JSON extended with unquoted identifier keys, which the
hole encoding relies on (`{_hole:0}`). All numbers parse to the real
primitive. Object properties keep their source order.
"""

from __future__ import annotations

import re
from json.decoder import scanstring
from json.encoder import encode_basestring  # JSON string syntax, quotes included
from math import isfinite

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


# One token at a time: whitespace, then a string, a number, a word or a mark.
# The string alternatives take only strings that parse: group 1 a string with
# no backslash, group 2 one with escapes, where a surrogate escape must be a
# high-low pair; json's scanstring decodes those. A number may not run on into
# '.', 'e' or a digit. Where no alternative matches, the character-level
# readers below find the error.
_TOKEN = re.compile(
    r"""[ \t\n\r]*(?:
      "([^"\\\x00-\x1f]*)"
    | ("[^"\\\x00-\x1f]*(?:\\(?:["\\/bfnrt]|u(?![dD][89a-fA-F])[0-9a-fA-F]{4}
          |u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2})[^"\\\x00-\x1f]*)*")
    | (-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)(?![.eE0-9])
    | ([A-Za-z_][A-Za-z0-9_]*)
    | ([][{}:,])
    )""",
    re.VERBOSE,
)
_WS = (" ", "\t", "\n", "\r")

# What the reader expects next, and what it says when that is missing.
_VALUE, _VALUE_OR_CLOSE, _KEY, _KEY_OR_CLOSE, _COLON, _AFTER = range(6)
_MISSING = ("expected a JSON value",) * 2 + ("expected a property name",) * 2 + ("expected ':'",)

_JSON, _PROP = adt("JSON"), adt("Prop")
_WORDS = {"true": boolean(True), "false": boolean(False), "null": null_()}


def _fail(text: str, message: str, pos: int):
    raise JsonSyntaxError(message, *line_col(text, pos))


def _fail_token(text: str, m: re.Match, message: str):
    """Fail at the token m matched, after its leading whitespace."""
    _fail(text, message, _skip_ws(text, m.start()))


def _skip_ws(text: str, pos: int) -> int:
    while text.startswith(_WS, pos):
        pos += 1
    return pos


def _read_string(text: str, pos: int) -> tuple:
    """The string whose opening quote is at pos, and the offset after it."""
    start = pos
    pos += 1
    while True:
        while pos < len(text) and text[pos] not in '"\\' and text[pos] >= " ":
            pos += 1
        if pos == len(text):
            _fail(text, "unterminated string", pos)
        if text[pos] == '"':
            return scanstring(text, start + 1)
        if text[pos] != "\\":
            _fail(text, "control character in string", pos)
        pos += 1
        if pos == len(text):
            _fail(text, "unterminated escape", pos)
        ch = text[pos]
        pos += 1
        if ch in '"\\/bfnrt':
            continue
        if ch != "u":
            _fail(text, f"invalid escape \\{ch}", pos - 1)
        code = _hex4(text, pos)
        pos += 4
        if 0xD800 <= code <= 0xDBFF and text.startswith("\\u", pos):
            low = _hex4(text, pos + 2)
            pos += 6
            if not 0xDC00 <= low <= 0xDFFF:
                _fail(text, "invalid low surrogate", pos - 4)
        elif 0xD800 <= code <= 0xDFFF:  # strings must encode to UTF-8 (RFC 8259, section 8.2)
            _fail(text, "lone surrogate escape", pos - 6)


def _hex4(text: str, pos: int) -> int:
    digits = text[pos:pos + 4]
    if len(digits) < 4 or any(d not in "0123456789abcdefABCDEF" for d in digits):
        _fail(text, "invalid \\u escape", pos)
    return int(digits, 16)


def _read_number(text: str, pos: int) -> tuple:
    """The number that starts at pos, and the offset after it."""
    start = pos
    if text.startswith("-", pos):
        pos += 1
    if text.startswith("0", pos):
        pos += 1
    else:
        pos = _digits(text, pos, "expected a digit")
    if text.startswith(".", pos):
        pos = _digits(text, pos + 1, "expected a digit after the decimal point")
    if text.startswith(("e", "E"), pos):
        pos += 2 if text.startswith(("+", "-"), pos + 1) else 1
        pos = _digits(text, pos, "expected an exponent digit")
    x = float(text[start:pos])
    if not isfinite(x):
        _fail(text, "number out of range", start)
    return Con("number", "JSON", (Prim("real", x),)), pos


def _digits(text: str, pos: int, message: str) -> int:
    end = pos
    while end < len(text) and text[end] in "0123456789":
        end += 1
    if end == pos:
        _fail(text, message, pos)
    return end


def parse_json(text: str) -> Term:
    """Parse one JSON value (unquoted identifier keys allowed) to a term.

    One loop reads a token at a time. The arrays and objects still open wait
    on a list, so any depth parses.
    """
    match = _TOKEN.match
    stack: list = []  # (items, in_object, key) of each enclosing array or object
    items = None  # what the innermost open array or object holds so far; None at the top
    in_object = False
    key = None  # the key of the property whose value comes next
    expect = _VALUE
    pos = 0
    while True:
        m = match(text, pos)
        if m is None:  # not a token, or one that does not parse
            pos = _skip_ws(text, pos)
            ch = text[pos:pos + 1]
            if ch == '"' and expect < _COLON:
                s, pos = _read_string(text, pos)
                if expect >= _KEY:
                    key = s
                    expect = _COLON
                    continue
                v = Con("string", "JSON", (Prim("str", s),))
            elif ch and ch in "-0123456789" and expect < _KEY:
                v, pos = _read_number(text, pos)
            elif expect == _AFTER:
                _fail(text, "expected '}'" if in_object else "expected ']'", pos)
            else:
                _fail(text, _MISSING[expect], pos)
        else:
            token = m.lastindex
            pos = m.end()
            if expect == _AFTER:
                mark = m[5]
                if mark == ",":
                    expect = _KEY if in_object else _VALUE
                    continue
                if in_object:
                    if mark != "}":
                        _fail_token(text, m, "expected '}'")
                    v = Con("object", "JSON", (ListTerm(items, _PROP),))
                else:
                    if mark != "]":
                        _fail_token(text, m, "expected ']'")
                    v = Con("array", "JSON", (ListTerm(items, _JSON),))
                items, in_object, key = stack.pop()
            elif expect < _KEY:
                if token == 1:
                    v = Con("string", "JSON", (Prim("str", m[1]),))
                elif token == 3:
                    x = float(m[3])
                    if not isfinite(x):
                        _fail_token(text, m, "number out of range")
                    v = Con("number", "JSON", (Prim("real", x),))
                elif token == 4:
                    v = _WORDS.get(m[4])
                    if v is None:
                        _fail_token(text, m, f"unexpected identifier {m[4]!r}")
                elif token == 2:
                    v = Con("string", "JSON", (Prim("str", scanstring(text, m.start(2) + 1)[0]),))
                else:
                    mark = m[5]
                    if mark == "[" or mark == "{":
                        stack.append((items, in_object, key))
                        items = []
                        in_object = mark == "{"
                        expect = _KEY_OR_CLOSE if in_object else _VALUE_OR_CLOSE
                        continue
                    if mark != "]" or expect != _VALUE_OR_CLOSE:
                        _fail_token(text, m, "expected a JSON value")
                    v = Con("array", "JSON", (ListTerm((), _JSON),))
                    items, in_object, key = stack.pop()
            elif expect == _COLON:
                if m[5] != ":":
                    _fail_token(text, m, "expected ':'")
                expect = _VALUE
                continue
            elif token == 1 or token == 4:
                key = m[token]
                expect = _COLON
                continue
            elif token == 2:
                key = scanstring(text, m.start(2) + 1)[0]
                expect = _COLON
                continue
            elif m[5] == "}" and expect == _KEY_OR_CLOSE:
                v = Con("object", "JSON", (ListTerm((), _PROP),))
                items, in_object, key = stack.pop()
            else:
                _fail_token(text, m, "expected a property name")
        # v is a whole value: the text's, or the next in the innermost array or object
        if items is None:
            pos = _skip_ws(text, pos)
            if pos != len(text):
                _fail(text, "trailing content after JSON value", pos)
            return v
        if in_object:
            v = Con("prop", "Prop", (Con("id", "Id", (Prim("str", key),)), v))
        items.append(v)
        expect = _AFTER


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
