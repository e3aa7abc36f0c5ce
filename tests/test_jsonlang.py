from __future__ import annotations

import random
import re
import sys
from collections import Counter

import pytest

from support import (
    gen_json_term,
    outcome,
    parse_json_oracle,
    parse_prop_oracle,
    print_json_oracle,
    term_equals,
)
from csbb.concrete import ParserError, default_registry
from csbb.jsonlang import (
    JSON_SIGNATURE,
    JsonSyntaxError,
    array,
    boolean,
    json_hole,
    null_,
    number,
    obj,
    parse_json,
    print_json,
    prop,
    prop_hole,
    string,
)
from csbb.terms import Con, Prim, adt, check_term

RODIN = obj([prop("name", string("Rodin")), prop("age", number(29.0))])

REGISTRY = default_registry()


def parse_prop(text: str):
    """The builtin Prop parser, reached through the registry as every caller reaches it."""
    return REGISTRY.parse("Prop", text)


# ---------------------------------------------------------------------------
# parse_json


def test_number_parses_to_real():
    assert term_equals(parse_json("29"), number(29.0))


def test_object_with_unquoted_keys():
    assert term_equals(parse_json('{name:"Rodin",age:29}'), RODIN)


def test_hole_encoding_parses_as_object_literal():
    expected = obj([prop("_hole", number(0.0))])
    assert term_equals(parse_json("{ _hole:0 }"), expected)


def test_property_order_is_preserved():
    t = parse_json("{b:1, a:2, b:3}")
    keys = [p.args[0].args[0].value for p in t.args[0].elems]
    assert keys == ["b", "a", "b"]


def test_numbers_with_exponents_and_fractions():
    assert term_equals(parse_json("1e3"), number(1000.0))
    assert term_equals(parse_json("-2.5e-1"), number(-0.25))
    assert term_equals(parse_json("0.125"), number(0.125))


def test_string_escapes_normalize_to_code_points():
    t = parse_json(r'"A\n\t\"\\é"')
    assert t.args[0].value == 'A\n\t"\\é'


def test_surrogate_pairs_combine():
    t = parse_json(r'"😀"')
    assert t.args[0].value == "\U0001f600"


@pytest.mark.parametrize("text, col", [
    ("1E400", 1), ("-1e309", 1), ("[0, 2.5e999]", 5), ('{"k":\n 1e400}', 2),
])
def test_out_of_range_number_is_a_syntax_error(text, col):
    with pytest.raises(JsonSyntaxError) as exc:
        parse_json(text)
    assert (exc.value.message, exc.value.col) == ("number out of range", col)


@pytest.mark.parametrize("text, col", [
    (r'"\ud800"', 2), (r'"ab\ud83d x"', 4), (r'"\udc00"', 2), (r'"\ude00\ud83d"', 2), (r'["", "\udfff"]', 7),
])
def test_lone_surrogate_escape_is_a_syntax_error(text, col):
    with pytest.raises(JsonSyntaxError) as exc:
        parse_json(text)
    assert (exc.value.message, exc.value.col) == ("lone surrogate escape", col)


def test_syntax_error_carries_line_and_column():
    with pytest.raises(JsonSyntaxError) as exc:
        parse_json('{a: 1,\n b: }')
    assert exc.value.line == 2
    assert exc.value.col == 5


def test_trailing_content_rejected():
    with pytest.raises(JsonSyntaxError):
        parse_json("1 2")


def test_output_is_well_typed():
    rng = random.Random(4)
    for _ in range(50):
        text = print_json(gen_json_term(rng, 3))
        assert check_term(JSON_SIGNATURE, parse_json(text), adt("JSON")) == []


_NUMBERS = ["0", "-0", "12", "-3.25", "1e5", "2E-3", "0.5e+2", "1.0", "6.02e23", "1E300"]
_PIECES = ["ab", " ", "é", "😀", "\\n", '\\"', "\\\\", "\\/", "\\t", "\\u00e9", "\\u0041",
           "\\ud83d\\ude00", "\\uDBFF\\uDFFF"]
_KEYS = ["a", "_k1", "true", "x9"]
_SPACE = ["", "", " ", "\n", "\t ", "\r\n"]


def _json_text(rng, depth: int) -> str:
    """Seeded JSON text: quoted and bare keys, escapes, surrogate pairs, varied whitespace."""
    def ws() -> str:
        return rng.choice(_SPACE)

    def string() -> str:
        return '"' + "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 3))) + '"'

    kind = rng.choice(["word", "number", "string"] + ["array", "object"] * (depth > 0))
    if kind == "word":
        return rng.choice(["true", "false", "null"])
    if kind == "number":
        return rng.choice(_NUMBERS)
    if kind == "string":
        return string()
    n = rng.randint(0, 3)
    if kind == "array":
        items = [ws() + _json_text(rng, depth - 1) + ws() for _ in range(n)]
        return "[" + ",".join(items) + ws() + "]"
    props = [ws() + (rng.choice(_KEYS) if rng.random() < 0.5 else string()) + ws() + ":" + ws()
             + _json_text(rng, depth - 1) + ws() for _ in range(n)]
    return "{" + ",".join(props) + ws() + "}"


_SNIPPETS = ['"', "\\", "\\u", "\\ud800", "\\udc00", "\\x", "\x01", "{", "}", "[", "]", ":", ",",
             "-", ".", "e", "E", "+", "0", "9", "E999", "@", "z", "\t", " ", "0x"]

# Each case that reaches one of these messages is counted; every message must be reached.
_MESSAGES = [
    "expected a JSON value", "unexpected identifier", "expected a property name", "expected ':'",
    "expected '}'", "expected ']'", "trailing content after JSON value", "unterminated string",
    "control character in string", "unterminated escape", "invalid escape", "invalid \\u escape",
    "invalid low surrogate", "lone surrogate escape", "expected a digit",
    "expected a digit after the decimal point", "expected an exponent digit", "number out of range",
]


def _corruptions(rng, text: str) -> list:
    """One seeded insertion, deletion, replacement and truncation of text."""
    i = rng.randrange(len(text) + 1)
    j = min(i, len(text) - 1)
    return [text[:i] + rng.choice(_SNIPPETS) + text[i:], text[:j] + text[j + 1:],
            text[:j] + rng.choice(_SNIPPETS) + text[j + 1:], text[:i]]


def test_parser_agrees_with_the_old_parser():
    # Equal terms, or the same error class, message, line and col.
    rng = random.Random(2424)
    texts = ["", " ", "[", "{", "[1,]", "{a:1,}", "{a 1}", "1 2", "tru", '"\\ud800\\u0041"',
             '"\\udc00"', '"a', '"\\', "-", "1.", "1e", "1E999", "01", "[1 2]", "{a:1 b:2}"]
    for _ in range(500):
        text = _json_text(rng, rng.randint(0, 4))
        texts.append(text)
        texts += _corruptions(rng, text)
    agree, reached = 0, Counter()
    for text in texts:
        want, got = outcome(parse_json_oracle, text), outcome(parse_json, text)
        assert got == want, text
        if isinstance(want, tuple):
            message = re.sub(r"^line \d+, col \d+: ", "", want[1])
            reached[max((m for m in _MESSAGES if message.startswith(m)), key=len)] += 1
        else:
            agree += 1
    assert agree > 500 and set(reached) == set(_MESSAGES), (agree, reached)


@pytest.mark.parametrize("text", [
    "[" * 600 + "]" * 600, "{a:" * 600 + "1" + "}" * 600, "[" * 600 + "]" * 599 + "}",
], ids=["arrays", "objects", "mismatched"])
def test_parser_agrees_past_the_old_depth_limit(text):
    # The old parser raised "input nests too deeply" past about 494 levels; with
    # more stack it gives what the new parser gives at any recursion limit.
    assert outcome(parse_json_oracle, text)[1].endswith("input nests too deeply")
    got = outcome(parse_json, text)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(5000)
    try:
        want = outcome(parse_json_oracle, text)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want


# ---------------------------------------------------------------------------
# the builtin Prop parser


def test_prop_wraps_and_projects():
    assert term_equals(parse_prop('name: "Rodin"'), prop("name", string("Rodin")))


def test_prop_hole_text_parses():
    assert term_equals(parse_prop("_hole: 0"), prop("_hole", number(0.0)))


def test_prop_with_array_value():
    assert term_equals(parse_prop("a: [true]"), prop("a", array([boolean(True)])))


def test_prop_rejects_empty_and_multiple():
    # The one strict context projection reports this for every wrap/project
    # entry; the hand-written Prop parser it replaced raised JsonSyntaxError
    # "expected exactly one property, found N".
    for text in ("", "a: 1, b: 2", "a: 1, b: 2, c: 3"):
        with pytest.raises(ParserError) as exc:
            parse_prop(text)
        assert type(exc.value) is ParserError
        assert str(exc.value) == "line 1, col 1: expected exactly one Prop"


def test_prop_error_columns_point_into_fragment():
    with pytest.raises(JsonSyntaxError) as exc:
        parse_prop("a: @")
    assert exc.value.line == 1
    assert exc.value.col == 4


def _corrupt(rng, text: str) -> str:
    i = rng.randrange(len(text) + 1)
    op = rng.choice(("insert", "delete", "replace"))
    ch = rng.choice('{}[]:,"@ \n ab0')
    if op == "insert" or not text:
        return text[:i] + ch + text[i:]
    i = min(i, len(text) - 1)
    return text[:i] + (ch if op == "replace" else "") + text[i + 1:]


def test_prop_agrees_with_the_parse_prop_oracle():
    # Equal terms, or the same error class, message, line and col, except
    # for the oracle's one documented message (test above).
    rng = random.Random(2121)
    texts = ["", " ", "_hole:7", "a: 1, b: 2", 'a:1,b:2,"c":3', "a: 1,", ",a: 1", "}{", "a: {}}{"]
    for _ in range(300):
        props = [print_json(prop(rng.choice(["k", "a b", "_x1"]), gen_json_term(rng, 2)))
                 for _ in range(rng.choice((0, 1, 1, 1, 2, 3)))]
        if rng.random() < 0.5:  # identifier keys and whitespace
            props = [p.replace('"k":', rng.choice(["k:", " k :", "\n\tk\n:\n"])) for p in props]
        text = rng.choice([",", ", ", ",\n"]).join(props)
        texts.append(text)
        if text or rng.random() < 0.5:
            texts.append(_corrupt(rng, text))
    for text in texts:
        want, got = outcome(parse_prop_oracle, text), outcome(parse_prop, text)
        if isinstance(want, tuple) and want[1].startswith("line 1, col 1: expected exactly one property"):
            want = (ParserError, "line 1, col 1: expected exactly one Prop")
        assert got == want, text  # str(e) starts "line L, col C:"


# ---------------------------------------------------------------------------
# hole encoders


def test_hole_texts():
    assert prop_hole(0) == "_hole:0"
    assert json_hole(0) == "{_hole:0}"
    assert prop_hole(17) == "_hole:17"


def test_hole_images_are_injective():
    json_images = [parse_json(json_hole(i)) for i in range(20)]
    prop_images = [parse_prop(prop_hole(i)) for i in range(20)]
    for images in (json_images, prop_images):
        for i, a in enumerate(images):
            for j, b in enumerate(images):
                assert term_equals(a, b) == (i == j)


# ---------------------------------------------------------------------------
# print_json


def test_print_number_minimal_digits():
    assert print_json(number(29.0)) == "29.0"


def test_print_null():
    assert print_json(null_()) == "null"


def test_print_rodin_canonical():
    assert print_json(RODIN) == '{"name":"Rodin","age":29.0}'


def test_print_quotes_keys_and_escapes_strings():
    t = obj([prop("k", string('a"b\\c\nd'))])
    assert print_json(t) == '{"k":"a\\"b\\\\c\\nd"}'


def test_print_rejects_ill_typed_terms():
    with pytest.raises(ValueError):
        print_json(Con("number", "JSON", (Prim("str", "x"),)))


def test_print_json_agrees_with_the_oracle():
    rng = random.Random(71)
    for _ in range(600):
        t = gen_json_term(rng, 3)
        if rng.random() < 0.3:
            t = prop("k", t)
        if rng.random() < 0.2:  # ill-typed: a Prop where JSON belongs, or a bad payload
            t = rng.choice([array([t, prop("k", t)]), obj([prop("k", string("s")), t]),
                            Con("number", "JSON", (Prim("int", 1),)), Con("string", "JSON", ())])
        assert outcome(print_json, t) == outcome(print_json_oracle, t)


def test_print_parse_roundtrip_1000():
    rng = random.Random(202)
    for _ in range(1000):
        t = gen_json_term(rng, 3)
        assert term_equals(parse_json(print_json(t)), t)


def test_prop_print_parse_roundtrip():
    rng = random.Random(77)
    for _ in range(100):
        p = prop("name", gen_json_term(rng, 2))
        assert term_equals(parse_prop(print_json(p)), p)
