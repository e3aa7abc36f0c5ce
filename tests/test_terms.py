from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from collections import Counter

import pytest

from support import (
    all_subtrees,
    brute_well_typed,
    check_term_oracle,
    encode_term_oracle,
    gen_json_term,
    gen_real,
    pretty_term_oracle,
    replace_at,
    term_equals,
    term_hash_oracle,
    term_repr_oracle,
)
from csbb.jsonlang import (
    JSON_SIGNATURE,
    boolean,
    ident,
    null_,
    number,
    obj,
    parse_json,
    prop,
    string,
)
from csbb.pretty import PrettyTermError, parse_pretty_term, pretty_term
from csbb.terms import (
    Con,
    Constructor,
    ListTerm,
    Prim,
    Signature,
    SignatureError,
    SignatureSyntaxError,
    TermDecodeError,
    adt,
    check_term,
    decode_term,
    encode_term,
    just_,
    list_of,
    maybe_of,
    nothing_,
    parse_signature,
    prim,
    render_signature,
)

RODIN = obj([prop("name", string("Rodin")), prop("age", number(29.0))])


# ---------------------------------------------------------------------------
# ArgType and term construction invariants


def test_argtype_rejects_nested_maybe():
    with pytest.raises(ValueError):
        maybe_of(maybe_of(adt("JSON")))


def test_argtype_allows_maybe_under_list():
    at = list_of(maybe_of(adt("JSON")))
    assert str(at) == "list[Maybe[JSON]]"


def test_prim_value_kinds_are_enforced():
    with pytest.raises(ValueError):
        Prim("int", True)  # bools are not ints here
    with pytest.raises(ValueError):
        Prim("real", 29)
    with pytest.raises(ValueError):
        Prim("real", float("nan"))
    assert Prim("real", 29.0).value == 29.0


def test_signature_rejects_unknown_owner():
    with pytest.raises(SignatureError):
        Signature(frozenset({"A"}), (Constructor("c", "B", ()),))


def test_signature_rejects_duplicate_constructor():
    with pytest.raises(SignatureError):
        Signature(
            frozenset({"A"}),
            (Constructor("c", "A", ()), Constructor("c", "A", (("x", prim("int")),))),
        )


def test_signature_rejects_unresolved_adt_reference():
    with pytest.raises(SignatureError):
        Signature(frozenset({"A"}), (Constructor("c", "A", (("x", adt("Nope")),)),))


def test_find_agrees_with_a_linear_scan():
    from csbb.exprlang import SIGNATURE as EXPR_SIGNATURE

    def scan(sig, type_name, con_name, arity):
        for c in sig.constructors:
            if c.type == type_name and c.name == con_name and c.arity == arity:
                return c
        return None

    for sig in (JSON_SIGNATURE, EXPR_SIGNATURE):
        names = {c.name for c in sig.constructors} | {"nope"}
        for type_name in sorted(sig.types | {"Nope"}):
            for con_name in sorted(names):
                for arity in range(4):
                    assert sig.find(type_name, con_name, arity) is scan(sig, type_name, con_name, arity)


def test_find_index_is_not_part_of_the_value():
    import dataclasses

    sig = parse_signature(render_signature(JSON_SIGNATURE))
    assert [f.name for f in dataclasses.fields(Signature)] == ["types", "constructors"]
    assert sig == JSON_SIGNATURE and hash(sig) == hash(JSON_SIGNATURE)
    assert repr(sig) == f"Signature(types={sig.types!r}, constructors={sig.constructors!r})"


# ---------------------------------------------------------------------------
# check_term


def test_check_nullary_constructor():
    assert check_term(JSON_SIGNATURE, null_(), adt("JSON")) == []


def test_check_wrong_primitive_kind_reports_path():
    bad = Con("number", "JSON", (Prim("str", "x"),))
    issues = check_term(JSON_SIGNATURE, bad, adt("JSON"))
    assert len(issues) == 1
    assert issues[0].path == (0,)
    assert "real" in issues[0].message


def test_check_hand_built_object():
    assert check_term(JSON_SIGNATURE, obj([prop("name", string("Rodin"))]), adt("JSON")) == []


def test_check_undeclared_constructor():
    issues = check_term(JSON_SIGNATURE, Con("bogus", "JSON", ()), adt("JSON"))
    assert len(issues) == 1 and "bogus" in issues[0].message


def test_check_list_element_type_must_match():
    bad = Con("array", "JSON", (ListTerm((), adt("Prop")),))
    assert check_term(JSON_SIGNATURE, bad, adt("JSON"))


def test_check_agrees_with_brute_force_checker():
    rng = random.Random(7)
    for _ in range(300):
        t = gen_json_term(rng, depth=4)
        if rng.random() < 0.4:
            t = _corrupt(rng, t)
        ours = check_term(JSON_SIGNATURE, t, adt("JSON")) == []
        assert ours == brute_well_typed(JSON_SIGNATURE, t, adt("JSON"))


def _corrupt(rng, t):
    """Break a random spot in the term so ill-typed shapes are exercised too."""
    choice = rng.randint(0, 3)
    if choice == 0:
        return Con("number", "JSON", (Prim("str", "oops"),))
    if choice == 1:
        return Con("prop", "Prop", (ident("k"), t))  # Prop where JSON expected
    if choice == 2:
        return Con("array", "JSON", (ListTerm((t,), adt("Prop")),))
    if isinstance(t, Con) and t.args:
        args = list(t.args)
        i = rng.randrange(len(args))
        args[i] = _corrupt(rng, args[i])
        return Con(t.name, t.type, tuple(args))
    return Con("mystery", "JSON", ())


WALK_SIG = parse_signature("""
data T = leaf(int n) | pair(T l, T r) | many(list[T] ts, Maybe[T] extra)
       | grid(list[list[real]] rows) | flag(bool b, str s) | unit();
""")


def _gen_t(rng, depth: int):
    """A well-typed T term of WALK_SIG."""
    k = rng.randrange(6 if depth > 0 else 4)
    if k == 0:
        return Con("leaf", "T", (Prim("int", rng.randint(-9, 9)),))
    if k == 1:
        return Con("flag", "T", (Prim("bool", rng.random() < 0.5), Prim("str", rng.choice(["", "a", "é\n"]))))
    if k == 2:
        return Con("unit", "T", ())
    if k == 3:
        rows = [ListTerm([Prim("real", gen_real(rng)) for _ in range(rng.randint(0, 2))], prim("real"))
                for _ in range(rng.randint(0, 2))]
        return Con("grid", "T", (ListTerm(rows, list_of(prim("real"))),))
    if k == 4:
        return Con("pair", "T", (_gen_t(rng, depth - 1), _gen_t(rng, depth - 1)))
    ts = ListTerm([_gen_t(rng, depth - 1) for _ in range(rng.randint(0, 3))], adt("T"))
    extra = rng.choice([Con("nothing", "Maybe", ()), Con("just", "Maybe", (_gen_t(rng, depth - 1),))])
    return Con("many", "T", (ts, extra))


def _mutate(rng, t):
    """t with one subterm replaced by something often ill-typed in that place."""
    subterms = all_subtrees(t)
    path, old = rng.choice(subterms[:-1] or subterms)  # the root comes last
    new = rng.choice([
        Prim("int", 1), Prim("real", -0.0), Prim("str", "x"), Prim("bool", False),
        Con("leaf", "T", ()), Con("mystery", "T", (old,)), Con("nothing", "Maybe", ()),
        Con("just", "Maybe", (old, old)), Con("just", "Maybe", (old,)),
        ListTerm((old,), prim("int")), ListTerm((), adt("T")),
        rng.choice(subterms)[1],
    ])
    return replace_at(t, path, new)


def test_check_encode_and_pretty_agree_with_the_oracles():
    rng = random.Random(61)
    issue_counts = Counter()
    for n in range(900):
        if n % 3:
            t, sig, root = _gen_t(rng, 4), WALK_SIG, adt("T")
            for _ in range(rng.choice([0, 1, 2, 3, 4, 5])):
                t = _mutate(rng, t)
        else:
            t, sig, root = gen_json_term(rng, 3), JSON_SIGNATURE, adt("JSON")
            if rng.random() < 0.5:
                t = _corrupt(rng, t)
        for at in (root, maybe_of(root), list_of(root), prim("int"), list_of(list_of(prim("real")))):
            assert check_term(sig, t, at) == check_term_oracle(sig, t, at)
        issue_counts[min(len(check_term(sig, t, root)), 2)] += 1
        assert encode_term(t) == encode_term_oracle(t)
        assert pretty_term(t) == pretty_term_oracle(t)
    assert min(issue_counts.values()) > 100, issue_counts


# ---------------------------------------------------------------------------
# Structural equality: == and hash


def test_equal_numbers():
    assert number(29.0) == number(29.0)
    assert hash(number(29.0)) == hash(number(29.0))


def test_distinct_constructors_differ():
    assert not term_equals(null_(), boolean(True))


def test_two_parses_of_same_text_are_equal():
    assert term_equals(parse_json("{a:1}"), parse_json("{a:1}"))


def test_reals_compare_by_bit_pattern():
    assert number(0.0) != number(-0.0)
    assert len({number(0.0), number(-0.0)}) == 2
    assert number(0.1 + 0.2) == number(0.1 + 0.2)
    assert Prim("real", 1.0) != Prim("int", 1)
    assert Prim("int", 1) != Prim("bool", True)


def test_equality_is_an_equivalence_relation():
    rng = random.Random(13)
    terms = [gen_json_term(rng, 3) for _ in range(60)]
    for t in terms:
        assert t == t and not t != t
    for a in terms[:25]:
        for b in terms[:25]:
            assert (a == b) == (b == a)
            assert a != b or hash(a) == hash(b)
    # transitivity over the duplicates the sample happens to contain
    for a in terms:
        for b in terms:
            if a != b:
                continue
            for c in terms[:20]:
                if b == c:
                    assert a == c


def _mutated_pair(rng, t):
    """t, or a single-leaf variant, paired with a copy that differs in at most that leaf."""
    nodes = all_subtrees(t)
    reals = [path for path, n in nodes if isinstance(n, Prim) and n.kind == "real"]
    lists = [(path, n) for path, n in nodes if isinstance(n, ListTerm) and len(n.elems) > 1]
    how = rng.choice(["copy", "zero", "kind", "swap"])
    if how == "zero" and reals:
        path = rng.choice(reals)
        return replace_at(t, path, Prim("real", 0.0)), replace_at(t, path, Prim("real", -0.0))
    if how == "kind" and reals:
        path = rng.choice(reals)
        v = rng.randint(-3, 3)
        return replace_at(t, path, Prim("real", float(v))), replace_at(t, path, Prim("int", v))
    if how == "swap" and lists:
        path, node = rng.choice(lists)
        i, j = rng.sample(range(len(node.elems)), 2)
        elems = list(node.elems)
        elems[i], elems[j] = elems[j], elems[i]
        return t, replace_at(t, path, ListTerm(elems, node.elem_type))
    return t, decode_term(encode_term(t))


def test_equality_and_hash_agree_with_the_oracle():
    rng = random.Random(2024)
    pairs = [_mutated_pair(rng, gen_json_term(rng, 3)) for _ in range(400)]
    small = [gen_json_term(rng, 1) for _ in range(60)]
    pairs += [(a, b) for a in small for b in small]
    seen = {True: 0, False: 0}
    for a, b in pairs:
        expected = term_equals(a, b)
        seen[expected] += 1
        assert (a == b) == expected and (b == a) == expected and (a != b) != expected
        if expected:
            assert hash(a) == hash(b)
    assert min(seen.values()) > 100


def _seeded_terms(rng) -> list:
    terms = [gen_json_term(rng, 3) for _ in range(150)]
    ints = [Prim("int", rng.randint(-9, 9)) for _ in range(3)]
    terms += [ListTerm(ints, prim("int")), just_(Prim("str", "x")), nothing_(), Con("x", "T")]
    return terms


def test_node_hash_and_repr_agree_with_the_oracles():
    terms = _seeded_terms(random.Random(2425))
    for t in terms:
        assert hash(t) == term_hash_oracle(t) == hash(t)
        assert repr(t) == term_repr_oracle(t)
    # A node over subterms hashed before hashes as if none were.
    t = Con("pair", "T", (terms[0], terms[1], terms[0]))
    assert hash(t) == term_hash_oracle(t)
    assert repr(Con("x", "T", (1, "a"))) == "Con(name='x', type='T', args=(1, 'a'))"


def test_node_dataclass_contract():
    fields = {c: [(f.name, f.type) for f in dataclasses.fields(c)] for c in (Con, Prim, ListTerm)}
    assert fields == {
        Con: [("name", "str"), ("type", "str"), ("args", "tuple")],
        Prim: [("kind", "str"), ("value", "int | float | bool | str")],
        ListTerm: [("elems", "tuple"), ("elem_type", "ArgType")],
    }
    assert Con("x", "T").args == () and Con("x", "T", [number(1.0)]).args == (number(1.0),)
    assert ListTerm([null_()], adt("JSON")).elems == (null_(),)
    for t in _seeded_terms(random.Random(2426)):
        hash(t)  # a stored hash is not part of the value
        for other in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t)),
                      dataclasses.replace(t)):
            assert type(other) is type(t) and other == t and hash(other) == hash(t)
    t = number(1.0)
    assert dataclasses.replace(t, name="string", args=(Prim("str", "a"),)) == string("a")
    for node in (t, t.args[0], ListTerm((), adt("JSON"))):
        for name in ("name", "kind", "elems", "_hash", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, name)
    assert not hasattr(t, "__dict__")


@pytest.mark.parametrize("kind, value, message", [
    ("real", 1, "real primitive cannot hold 1"), ("int", True, "int primitive cannot hold True"),
    ("bool", 0, "bool primitive cannot hold 0"), ("str", b"a", "str primitive cannot hold b'a'"),
    ("int", 1.0, "int primitive cannot hold 1.0"), ("char", "a", "char primitive cannot hold 'a'"),
    ("real", float("inf"), "real primitives must be finite"),
    ("real", float("nan"), "real primitives must be finite"),
])
def test_prim_rejects_a_mismatched_kind_or_a_non_finite_real(kind, value, message):
    with pytest.raises(ValueError) as exc:
        Prim(kind, value)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# Wire codec


def test_encode_null_exact():
    assert encode_term(null_()) == '{"con":"null","type":"JSON","args":[]}'


def test_encode_number_exact():
    assert encode_term(number(29.0)) == '{"con":"number","type":"JSON","args":[{"real":29.0}]}'


def test_encode_list_carries_element_type():
    t = ListTerm((Prim("int", 1),), prim("int"))
    assert encode_term(t) == '{"list":[{"int":1}],"elem":{"prim":"int"}}'


def test_roundtrip_1000_random_terms():
    rng = random.Random(42)
    for _ in range(1000):
        t = gen_json_term(rng, 3)
        assert term_equals(decode_term(encode_term(t)), t)


def test_encoding_is_injective_on_distinct_terms():
    rng = random.Random(99)
    terms = [gen_json_term(rng, 3) for _ in range(200)]
    for a in terms:
        for b in terms:
            if term_equals(a, b):
                assert encode_term(a) == encode_term(b)
            else:
                assert encode_term(a) != encode_term(b)


def test_decode_reports_position_for_malformed_json():
    with pytest.raises(TermDecodeError) as exc:
        decode_term('{"con": "x",\n "type": }')
    assert exc.value.line == 2


def test_decode_reports_over_deep_input():
    t = number(0.0)
    for _ in range(600):
        t = Con("just", "Maybe", (t,))
    with pytest.raises(TermDecodeError, match="nests too deeply"):
        decode_term(encode_term(t))


def test_pretty_reader_rejects_out_of_range_reals():
    for text, offset in (("number(1e400)", 7), ("array([number(0.5), number(-1E309)])", 27)):
        with pytest.raises(PrettyTermError) as exc:
            parse_pretty_term(JSON_SIGNATURE, text, adt("JSON"))
        assert (exc.value.message, exc.value.offset) == ("number out of range", offset)


def test_pretty_reader_rejects_lone_surrogates():
    # UTF-8 cannot encode them, so encode_term(t).encode("utf-8") would fail later.
    for text, offset in (('string("\ud800")', 7), ('array([string("a"), string("\\udc00")])', 27)):
        with pytest.raises(PrettyTermError) as exc:
            parse_pretty_term(JSON_SIGNATURE, text, adt("JSON"))
        assert (exc.value.message, exc.value.offset) == ("lone surrogate in string", offset)
    assert parse_pretty_term(JSON_SIGNATURE, 'string("\\ud83d\\ude00")', adt("JSON")) == string("\U0001f600")


def test_decode_rejects_lone_surrogates():
    for text, path in (('{"str":"\ud800"}', "$"),
                       ('{"list":[{"str":"a\\udfff"}],"elem":{"prim":"str"}}', "$.list[0]")):
        with pytest.raises(TermDecodeError) as exc:
            decode_term(text)
        assert exc.value.message == f"{path}: str payload holds a lone surrogate"
    assert decode_term('{"str":"\\ud83d\\ude00"}') == Prim("str", "\U0001f600")


def test_decode_rejects_wrong_shapes():
    for bad in ('{"con":"a","args":[]}', '{"int": 1.5}', '{"int": true}', '{"bool": 1}', "[1]"):
        with pytest.raises(TermDecodeError):
            decode_term(bad)


def test_decode_accepts_whitespace_and_integer_reals():
    t = decode_term('{ "real" : 29 }')
    assert term_equals(t, Prim("real", 29.0))


# ---------------------------------------------------------------------------
# Signature surface syntax

JSON_SIG_TEXT = """
data JSON
  = boolean(bool b) | number(real n) | string(str s)
  | array(list[JSON] elts) | null() | object(list[Prop] props);
data Prop = prop(Id name, JSON val);
data Id = id(str name);
"""


def test_parse_signature_matches_builtin():
    assert parse_signature(JSON_SIG_TEXT) == JSON_SIGNATURE


def test_render_parse_roundtrip():
    assert parse_signature(render_signature(JSON_SIGNATURE)) == JSON_SIGNATURE


def test_parse_signature_skips_module_header():
    text = "module a::b\n\ndata T = leaf(int n);"
    sig = parse_signature(text)
    assert sig.find("T", "leaf", 1) is not None


def test_parse_signature_supports_maybe_and_comments():
    sig = parse_signature("# grammar\ndata T = node(Maybe[T] next, list[int] xs);")
    c = sig.find("T", "node", 2)
    assert c.args[0][1] == maybe_of(adt("T"))
    assert c.args[1][1] == list_of(prim("int"))


def test_parse_signature_error_has_position():
    with pytest.raises(SignatureSyntaxError) as exc:
        parse_signature("data T = leaf(int n) leaf2();")
    assert exc.value.line == 1 and exc.value.col > 1


@pytest.mark.parametrize("text, line, col, message", [
    ("data 1 = c();", 1, 6, "bad type name '1'"),
    ("data T = c(int 2, int y);", 1, 16, "bad argument name '2'"),
    ("data T = c($ x);", 1, 12, "bad argument type '$'"),
    ("data T = 1", 1, 10, "bad constructor name '1'"),
    ("data T =\n  c(int x)\n| 9;", 3, 3, "bad constructor name '9'"),
])
def test_signature_error_points_at_the_named_token(text, line, col, message):
    with pytest.raises(SignatureSyntaxError) as exc:
        parse_signature(text)
    assert (exc.value.line, exc.value.col, exc.value.message) == (line, col, message)


@pytest.mark.parametrize("text, error", [
    ("data T = c(", "line 1, col 11: unexpected end of input, expected a token"),
    ("data T = c();\f", "line 1, col 14: expected 'data', got '\\x0c'"),
    ("data T = c(int\xa0x);", "line 1, col 15: bad argument name '\\xa0'"),
])
def test_signature_reader_edge_positions(text, error):
    with pytest.raises(SignatureSyntaxError) as exc:
        parse_signature(text)
    assert str(exc.value) == error
