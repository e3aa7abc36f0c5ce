"""The JSON parser and every stage after it but matching walk terms and patterns
without Python recursion; matching past its depth fails with its documented error.

Each test runs at CPython's default recursion limit on a term or pattern far
deeper than that limit.
"""

from __future__ import annotations

import sys

import pytest

from csbb.cli import main
from csbb.concrete import default_registry, parse_term, to_pattern
from csbb.jsonlang import JSON_SIGNATURE, array, null_, number, obj, parse_json, print_json, prop
from csbb.patterns import (
    PCon,
    PList,
    PLit,
    PVar,
    PatternStructureError,
    PWild,
    instantiate,
    match,
    match_first,
    pattern_has_wildcards,
    pattern_vars,
    visit_collect,
    visit_rewrite,
)
from csbb.pretty import pretty_term
from csbb.terms import Con, adt, check_term, encode_term

DEPTH = 10_000


@pytest.fixture(autouse=True)
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    yield
    sys.setrecursionlimit(limit)


def nested(leaf, depth: int = DEPTH):
    """leaf inside depth one-element arrays, built without recursion."""
    t = leaf
    for _ in range(depth):
        t = array([t])
    return t


def bottom(t):
    while t.name == "array":
        t = t.args[0].elems[0]
    return t


def test_equality():
    a, b = nested(number(0.0)), nested(number(0.0))
    assert a is not b and a == b and b == a and not a != b
    c = nested(number(-0.0))
    assert a != c and c != a and not a == c
    assert nested(number(0.0), DEPTH - 1) != a


def test_check_term():
    assert check_term(JSON_SIGNATURE, nested(number(0.0)), adt("JSON")) == []
    [issue] = check_term(JSON_SIGNATURE, nested(Con("id", "Id", ())), adt("JSON"))
    assert issue.path == (0, 0) * DEPTH and issue.message == "expected JSON, got Id.id/0"


def test_encode_pretty_and_print():
    t = nested(number(0.0))
    opener = '{"con":"array","type":"JSON","args":[{"list":['
    closer = '],"elem":{"adt":"JSON"}}]}'
    leaf = '{"con":"number","type":"JSON","args":[{"real":0.0}]}'
    assert encode_term(t) == opener * DEPTH + leaf + closer * DEPTH
    assert pretty_term(t) == "array([" * DEPTH + "number(0.0)" + "])" * DEPTH
    assert print_json(t) == "[" * DEPTH + "0.0" + "]" * DEPTH


def test_visit_collect_and_rewrite():
    t = nested(null_())
    assert visit_collect(t, PLit(null_())) == [((0, 0) * DEPTH, {})]
    out = visit_rewrite(t, [(PLit(null_()), PLit(number(1.0)))])
    assert out == nested(number(1.0)) and bottom(out) == number(1.0)


def test_instantiate_and_pattern_vars():
    def nested_pattern(leaf):
        p = leaf
        for _ in range(DEPTH):
            p = PCon("array", "JSON", (PList((p,), adt("JSON")),))
        return p

    p = nested_pattern(PVar("x", adt("JSON")))
    assert instantiate(p, {"x": number(2.0)}) == nested(number(2.0))
    assert pattern_vars(p) == {"x": ("var", adt("JSON"))}
    assert not pattern_has_wildcards(p)
    assert pattern_has_wildcards(nested_pattern(PWild(adt("JSON"))))


def test_non_linear_match_on_deep_equal_arrays():
    reg = default_registry()
    deep = "[" * 200 + "]" * 200
    doc = parse_term("JSON", '{"tag": 1, "a": %s, "b": %s, "items": []}' % (deep, deep), reg)
    p = to_pattern("JSON", "{<Prop* _>, a: <JSON x>, <Prop* _>, b: <JSON x>, <Prop* _>}", reg)
    env = match_first(p, doc)
    assert env is not None and env["x"] == doc.args[0].elems[1].args[1]


def test_parse_hash_and_repr():
    t, expected = parse_json("[" * DEPTH + "0" + "]" * DEPTH), nested(number(0.0))
    assert t == expected and hash(t) == hash(expected) == hash(t)
    opener = "Con(name='array', type='JSON', args=(ListTerm(elems=("
    closer = ",), elem_type=ArgType(kind='adt', name='JSON', elem=None)),))"
    leaf = "Con(name='number', type='JSON', args=(Prim(kind='real', value=0.0),))"
    assert repr(t) == opener * DEPTH + leaf + closer * DEPTH


ROOTED = "{root: %s}" % ("[" * DEPTH + "<JSON x>" + "]" * DEPTH)


@pytest.fixture(scope="module")
def rooted_pattern():
    """{root: [[...<JSON x>...]]}: only a subject's root object can match it deeply."""
    return to_pattern("JSON", ROOTED, default_registry())


def test_to_pattern(rooted_pattern):
    assert pattern_vars(rooted_pattern) == {"x": ("var", adt("JSON"))}
    [root] = rooted_pattern.args[0].elems
    p = root.args[1]
    for _ in range(DEPTH):
        assert p.name == "array"
        [p] = p.args[0].elems
    assert p == PVar("x", adt("JSON"))


def test_matching_past_its_depth_is_a_pattern_error(rooted_pattern, tmp_path, capsys):
    p, t = rooted_pattern, obj([prop("root", nested(null_(), 1000))])
    for run in (lambda: match_first(p, t), lambda: list(match(p, t)),
                lambda: visit_collect(t, p), lambda: visit_rewrite(t, [(p, p)])):
        with pytest.raises(PatternStructureError, match="^pattern nests too deeply to match$"):
            run()
    doc = tmp_path / "deep.json"
    doc.write_text(print_json(t))
    code = main(["match", "--lang", "JSON", "--pattern", ROOTED, "--input", str(doc)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "pattern nests too deeply to match\n")
