from __future__ import annotations

import itertools
import json
import random
import sys

import pytest

from support import (
    EXPR_MAPPING,
    EXPR_MODULE,
    EXPR_SCHEMA,
    INLINE_ENUM_MAPPING,
    binary_chain_text,
    fobj,
    term_equals,
    tokens,
)
from csbb.terms import Con, Prim, adt, check_term, just_, list_of, maybe_of, nothing_, prim
from csbb.tympanic import (
    ArityMismatch,
    ClassMapping,
    NoApplicableRule,
    NullNotOptional,
    SchemaError,
    TympanicSpec,
    TympanicSyntaxError,
    UnknownForeignType,
    UnknownMember,
    UnmappedForeignType,
    check_spec,
    infer_signature,
    load_foreign_value,
    load_schema,
    marshal,
    parse_tympanic,
)


@pytest.fixture(scope="module")
def spec():
    return parse_tympanic(EXPR_MAPPING)


@pytest.fixture(scope="module")
def schema():
    return load_schema(EXPR_SCHEMA)


def lit(value) -> dict:
    if isinstance(value, bool):
        return fobj("Lit", getValue={"bool": value})
    if isinstance(value, int):
        return fobj("Lit", getValue={"int": value})
    if isinstance(value, float):
        return fobj("Lit", getValue={"real": value})
    return fobj("Lit", getValue={"str": value})


def binary(op: str, lhs, rhs) -> dict:
    return fobj("Binary", getOp={"enum": f"Op.{op}"}, getLhs=lhs, getRhs=rhs)


def integer(v):
    return Con("integer", "Expr", (Prim("int", v),))


# ---------------------------------------------------------------------------
# parsing


def test_parse_full_mapping_structure(spec):
    assert spec.name == "ExprAst"
    assert spec.imports == (("expressions",),)
    assert spec.export == ("expr", "Expr")
    assert spec.types == (("Expr", "Expr"),)
    assert [(m.class_name, len(m.rules)) for m in spec.mappings] == [
        ("Binary", 4),
        ("Cond", 2),
        ("Block", 1),
        ("Lit", 3),
    ]


def test_parse_field_forms(spec):
    binary_rules = spec.mappings[0].rules
    first = binary_rules[0]
    assert first.fields[0].kind == "eq" and first.fields[0].skip
    assert first.fields[0].literal.kind == "path"
    assert first.fields[1].kind == "plain" and not first.fields[1].skip
    lit_rules = spec.mappings[3].rules
    assert lit_rules[0].fields[0].kind == "cast"
    assert lit_rules[0].fields[0].cast_to == "Integer"


def test_parse_empty_sections():
    s = parse_tympanic("mapping M export a::B types constructors")
    assert s.name == "M" and s.imports == () and s.types == () and s.mappings == ()


def test_parse_inline_enum_rule():
    s = parse_tympanic(INLINE_ENUM_MAPPING)
    rule = s.mappings[0].rules[0]
    assert rule.fields[0].kind == "eq" and not rule.fields[0].skip
    arg = rule.args[0]
    assert (arg.enum_type, arg.name, arg.enum_ctor) == ("Op", "op", "plus")


def test_parse_comments_and_optional_and_cast_array():
    text = """\
# a mapping
mapping M
export m::M
types Cond => Expr
constructors
Cond
- getCond, getElse?: c(a, b)   # trailing comment
- (Expr[])getCond: d(xs)
"""
    s = parse_tympanic(text)
    r1, r2 = s.mappings[0].rules
    assert r1.fields[1].kind == "optional"
    assert r2.fields[0].kind == "cast_array" and r2.fields[0].cast_to == "Expr"


def test_parse_errors_have_positions():
    with pytest.raises(TympanicSyntaxError) as exc:
        parse_tympanic("mapping M export a types Expr = Expr constructors")
    assert exc.value.line == 1 and exc.value.col > 1


def test_parse_duplicate_type_mapping_rejected():
    with pytest.raises(TympanicSyntaxError):
        parse_tympanic("mapping M export a types Expr => A Expr => B constructors")


def test_parse_negative_int_guard():
    s = parse_tympanic(
        "mapping M export a types Lit => L constructors Lit - getValue == -1: neg()"
    )
    assert s.mappings[0].rules[0].fields[0].literal.value == -1


@pytest.mark.parametrize("sign", ["", "- "])
def test_int_guard_past_the_digit_limit_is_a_syntax_error(sign):
    # int() refuses more than 4,300 digits; the literal is reported where it starts.
    text = "mapping M export a types Lit => L constructors Lit - getValue == " + sign
    with pytest.raises(TympanicSyntaxError) as exc:
        parse_tympanic(text + "9" * 5000 + ": big()")
    assert str(exc.value) == f"line 1, col {len(text) + 1}: integer literal has too many digits"


# ---------------------------------------------------------------------------
# schema


def test_schema_member_lookup_walks_supertypes(schema):
    assert schema.member("Binary", "getLhs").name == "getLhs"
    assert schema.member("Binary", "nope") is None
    assert schema.is_subtype("Binary", "Expr")
    assert not schema.is_subtype("Expr", "Binary")


def test_schema_rejects_cycles():
    with pytest.raises(SchemaError):
        load_schema({"types": [
            {"abstract": "A", "implements": ["B"]},
            {"abstract": "B", "implements": ["A"]},
        ]})


def test_schema_rejects_unknown_supertype():
    with pytest.raises(SchemaError):
        load_schema({"types": [{"concrete": "A", "implements": ["Ghost"]}]})


def test_schema_rejects_duplicate_enum_constant():
    with pytest.raises(SchemaError):
        load_schema({"types": [{"enum": "E", "constants": ["A", "A"]}]})


def test_schema_rejects_unresolved_member_type():
    with pytest.raises(SchemaError):
        load_schema({"types": [
            {"concrete": "A", "members": [{"name": "m", "type": "Ghost"}]},
        ]})


# ---------------------------------------------------------------------------
# infer_signature


def test_generated_module_matches_expected(spec, schema):
    _, module = infer_signature(spec, schema)
    assert tokens(module) == tokens(EXPR_MODULE)


def test_inferred_signature_contents(spec, schema):
    sig, _ = infer_signature(spec, schema)
    assert sig.find("Expr", "add", 2).args == (("lhs", adt("Expr")), ("rhs", adt("Expr")))
    assert sig.find("Expr", "block", 1).args == (("body", list_of(adt("Expr"))),)
    assert sig.find("Expr", "integer", 1).args == (("intVal", prim("int")),)
    assert sig.find("Expr", "ifThenElse", 3) is not None


def test_inline_enum_synthesizes_adt(schema):
    s = parse_tympanic(INLINE_ENUM_MAPPING)
    sig, module = infer_signature(s, schema)
    assert sig.find("Op", "plus", 0) is not None
    assert sig.find("Expr", "binary", 3).args[0] == ("op", adt("Op"))
    assert "data Op" in module
    enum_decl = "data Op" + module.split("data Op", 1)[1]
    assert tokens(enum_decl) == tokens("data Op = plus() ;")


def test_optional_member_maps_to_maybe(schema):
    s = parse_tympanic(
        "mapping M export m::M types Expr => Expr constructors "
        "Cond - getCond, getThen, getElse?: cond3(c, t, e)"
    )
    sig, _ = infer_signature(s, schema)
    assert sig.find("Expr", "cond3", 3).args[2] == ("e", maybe_of(adt("Expr")))


def test_unknown_member_raises(schema):
    s = parse_tympanic(
        "mapping M export m::M types Expr => Expr constructors Binary - getNope: c(x)"
    )
    with pytest.raises(UnknownMember):
        infer_signature(s, schema)


def test_arity_mismatch_raises(schema):
    s = parse_tympanic(
        "mapping M export m::M types Expr => Expr constructors Binary - getLhs, getRhs: c(x)"
    )
    with pytest.raises(ArityMismatch):
        infer_signature(s, schema)


def test_unmapped_class_raises(schema):
    s = parse_tympanic("mapping M export m::M types constructors Binary - getLhs: c(x)")
    with pytest.raises(UnmappedForeignType):
        infer_signature(s, schema)


def test_unknown_class_raises(schema):
    s = parse_tympanic("mapping M export m::M types Expr => Expr constructors Ghost - m: c(x)")
    with pytest.raises(UnknownForeignType):
        infer_signature(s, schema)


def test_positional_enum_member_is_unmapped(schema):
    s = parse_tympanic(
        "mapping M export m::M types Expr => Expr constructors Binary - getOp, getLhs, getRhs: c(o, l, r)"
    )
    with pytest.raises(UnmappedForeignType):
        infer_signature(s, schema)


# ---------------------------------------------------------------------------
# marshal


def test_marshal_binary_plus(spec, schema):
    v = load_foreign_value(binary("PLUS", lit(1), lit(2)))
    assert term_equals(marshal(spec, schema, v), Con("add", "Expr", (integer(1), integer(2))))


@pytest.mark.parametrize("op,ctor", [("PLUS", "add"), ("TIMES", "mul"), ("MINUS", "sub"), ("SLASH", "div")])
def test_marshal_all_binary_operators(spec, schema, op, ctor):
    v = load_foreign_value(binary(op, lit(1), lit(2)))
    assert marshal(spec, schema, v).name == ctor


def test_marshal_cond_without_else(spec, schema):
    v = load_foreign_value(fobj("Cond", getCond=lit(True), getThen=lit(1), getElse=None))
    t = marshal(spec, schema, v)
    assert t.name == "ifThen" and len(t.args) == 2


def test_marshal_cond_with_else(spec, schema):
    v = load_foreign_value(fobj("Cond", getCond=lit(True), getThen=lit(1), getElse=lit(2)))
    t = marshal(spec, schema, v)
    assert t.name == "ifThenElse" and term_equals(t.args[2], integer(2))


def test_marshal_block_empty_array(spec, schema):
    v = load_foreign_value(fobj("Block", getBody={"array": []}))
    t = marshal(spec, schema, v)
    assert t.name == "block" and t.args[0].elems == ()


def test_marshal_real_payload_has_no_rule(spec, schema):
    v = load_foreign_value(lit(1.5))
    with pytest.raises(NoApplicableRule):
        marshal(spec, schema, v)


def test_marshal_null_in_required_position(spec, schema):
    v = load_foreign_value(binary("PLUS", None, lit(2)))
    with pytest.raises(NullNotOptional):
        marshal(spec, schema, v)


def test_marshal_optional_member(schema):
    s = parse_tympanic(
        "mapping M export m::M types Expr => Expr constructors "
        "Cond - getCond, getThen, getElse?: cond3(c, t, e) "
        "Lit - (Integer)getValue: integer(v)"
    )
    with_else = load_foreign_value(fobj("Cond", getCond=lit(1), getThen=lit(2), getElse=lit(3)))
    without = load_foreign_value(fobj("Cond", getCond=lit(1), getThen=lit(2), getElse=None))
    assert term_equals(marshal(s, schema, with_else).args[2], just_(integer(3)))
    assert term_equals(marshal(s, schema, without).args[2], nothing_())


def test_marshal_inline_enum(schema):
    s = parse_tympanic(
        INLINE_ENUM_MAPPING + "Lit\n- (Integer)getValue: integer(intVal)\n"
    )
    v = load_foreign_value(binary("PLUS", lit(1), lit(2)))
    t = marshal(s, schema, v)
    assert term_equals(t.args[0], Con("plus", "Op", ()))


def test_marshal_result_is_well_typed_on_random_covered_values(spec, schema):
    rng = random.Random(8)
    sig, _ = infer_signature(spec, schema)
    for _ in range(150):
        v = load_foreign_value(gen_covered_value(rng, 3))
        t = marshal(spec, schema, v)
        assert check_term(sig, t, adt("Expr")) == []


def gen_covered_value(rng, depth: int) -> dict:
    if depth == 0:
        payload = rng.choice([{"int": rng.randint(-9, 9)}, {"bool": True}, {"str": "s"}])
        return fobj("Lit", getValue=payload)
    kind = rng.randint(0, 3)
    if kind == 0:
        op = rng.choice(["PLUS", "TIMES", "MINUS", "SLASH"])
        return binary(op, gen_covered_value(rng, depth - 1), gen_covered_value(rng, depth - 1))
    if kind == 1:
        els = gen_covered_value(rng, depth - 1) if rng.random() < 0.5 else None
        return fobj("Cond", getCond=gen_covered_value(rng, depth - 1),
                    getThen=gen_covered_value(rng, depth - 1), getElse=els)
    if kind == 2:
        body = [gen_covered_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]
        return fobj("Block", getBody={"array": body})
    return gen_covered_value(rng, 0)


def test_fired_rule_guards_hold_and_earlier_rules_fail(spec, schema):
    # Guard soundness, checked through a reference interpretation of guards.
    from support import _guard_holds

    rng = random.Random(9)
    rules_by_class = {m.class_name: m for m in spec.mappings}
    for _ in range(100):
        v = load_foreign_value(gen_covered_value(rng, 2))
        t = marshal(spec, schema, v)
        cm = rules_by_class[v.tag]
        fired = next(i for i, r in enumerate(cm.rules) if r.ctor == t.name)
        assert all(_guard_holds(schema, f, v) for f in cm.rules[fired].fields)
        for earlier in cm.rules[:fired]:
            assert not all(_guard_holds(schema, f, v) for f in earlier.fields)


def _permute_rules(spec, class_name, perm):
    mappings = []
    for cm in spec.mappings:
        if cm.class_name == class_name:
            mappings.append(ClassMapping(class_name, tuple(cm.rules[i] for i in perm)))
        else:
            mappings.append(cm)
    return TympanicSpec(spec.name, spec.imports, spec.export, spec.types, tuple(mappings))


def test_guard_disjoint_rules_are_permutation_invariant(spec, schema):
    rng = random.Random(10)
    values = [load_foreign_value(gen_covered_value(rng, 2)) for _ in range(40)]
    for perm in itertools.permutations(range(4)):
        permuted = _permute_rules(spec, "Binary", perm)
        for v in values:
            assert term_equals(marshal(permuted, schema, v), marshal(spec, schema, v))


def test_overlapping_rules_depend_on_order(schema):
    overlapping = (
        "mapping M export m::M types Expr => Expr constructors "
        "Cond - getCond, getThen, %getElse == null: first(c, t) "
        "Cond - getCond, getThen, getElse?: second(c, t, e) "
        "Lit - (Integer)getValue: integer(v)"
    )
    s = parse_tympanic(overlapping)
    v = load_foreign_value(fobj("Cond", getCond=lit(1), getThen=lit(2), getElse=None))
    assert marshal(s, schema, v).name == "first"
    flipped = _permute_rules(s, "Cond", (1, 0))
    assert marshal(flipped, schema, v).name == "second"


def test_brute_force_marshaller_agrees_on_disjoint_spec(spec, schema):
    # Reference marshaller: evaluate every rule of the class, demand that
    # exactly one applies everywhere, and build the term by hand.
    from support import _guard_holds
    from csbb.tympanic import _field_argtype

    def brute(v):
        cm = next(m for m in spec.mappings if m.class_name == v.tag)
        applicable = [r for r in cm.rules if all(_guard_holds(schema, f, v) for f in r.fields)]
        assert len(applicable) == 1
        rule = applicable[0]
        args = []
        for f, a in zip(rule.active_fields(), rule.args):
            if a.enum_type is not None:
                args.append(Con(a.enum_ctor, a.enum_type, ()))
            else:
                at = _field_argtype(spec, schema, cm.class_name, f)
                args.append(convert(v.fields.get(f.member), at))
        return Con(rule.ctor, "Expr", tuple(args))

    def convert(v, at):
        from csbb.terms import ListTerm
        from csbb.tympanic import FArr, FBool, FInt, FObj, FStr

        if at.kind == "maybe":
            return nothing_() if v is None else just_(convert(v, at.elem))
        if at.kind == "list":
            assert isinstance(v, FArr)
            return ListTerm(tuple(convert(e, at.elem) for e in v.elems), at.elem)
        if at.kind == "prim":
            return Prim(at.name, v.value)
        assert isinstance(v, FObj)
        return brute(v)

    rng = random.Random(12)
    for _ in range(60):
        v = load_foreign_value(gen_covered_value(rng, 2))
        assert term_equals(brute(v), marshal(spec, schema, v))


# ---------------------------------------------------------------------------
# check_spec


def test_reference_pair_is_clean(spec, schema):
    assert check_spec(spec, schema) == []


def test_duplicate_rule_is_unreachable(spec, schema):
    cm = spec.mappings[0]
    doubled = _permute_rules(spec, "Binary", (0, 0, 1, 2, 3))
    diags = check_spec(doubled, schema)
    assert any(d.kind == "unreachable-rule" for d in diags)


def test_unguarded_rule_shadows_later_rules(schema):
    s = parse_tympanic(
        "mapping M export m::M types Expr => Expr constructors "
        "Lit - %getValue: any() "
        "Lit - (Integer)getValue: integer(v)"
    )
    diags = check_spec(s, schema)
    assert any(d.kind == "unreachable-rule" for d in diags)


def test_unknown_class_diagnostic(schema):
    s = parse_tympanic("mapping M export m::M types Expr => Expr constructors Ghost - m: c(x)")
    assert any(d.kind == "unknown-foreign-type" for d in check_spec(s, schema))


def test_unknown_member_diagnostic(schema):
    s = parse_tympanic(
        "mapping M export m::M types Expr => Expr constructors Binary - getNope: c(x)"
    )
    assert any(d.kind == "unknown-member" for d in check_spec(s, schema))


def test_abstract_type_without_mapped_concrete_subtype(schema):
    s = parse_tympanic("mapping M export m::M types Object => Obj constructors Lit - (Integer)getValue: i(v)")
    diags = check_spec(s, schema)
    assert any(d.kind == "abstract-without-concrete" for d in diags)


# ---------------------------------------------------------------------------
# foreign value files


def test_foreign_value_wire_forms():
    v = load_foreign_value(
        '{"type": "Block", "fields": {"getBody": {"array": [null, {"int": 3}]}}}'
    )
    assert v.tag == "Block"
    arr = v.fields["getBody"]
    assert arr.elems[0] is None and arr.elems[1].value == 3


def test_foreign_value_enum_path_takes_last_components():
    v = load_foreign_value('{"enum": "expressions.Op.PLUS"}')
    assert (v.enum, v.const) == ("Op", "PLUS")


def test_foreign_value_rejects_garbage():
    with pytest.raises(SchemaError):
        load_foreign_value('{"what": 1}')


# ---------------------------------------------------------------------------
# The compiled mapping against the interpreted one (oracles in support.py)

SHAPES_SCHEMA = {
    "types": [
        {"enum": "Color", "constants": ["RED", "GREEN", "BLUE"]},
        {"abstract": "Object"},
        {"abstract": "Node"},
        {"abstract": "Named", "implements": ["Node"]},
        {"concrete": "Leaf", "implements": ["Node", "Object"], "members": [
            {"name": "value", "type": "Object"}, {"name": "flag", "type": "Boolean"}]},
        {"concrete": "Pair", "implements": ["Named"], "members": [
            {"name": "name", "type": "String"}, {"name": "left", "type": "Node"},
            {"name": "right", "type": "Node"}, {"name": "color", "type": "Color"}]},
        {"concrete": "Group", "implements": ["Named"], "members": [
            {"name": "name", "type": "String"}, {"name": "items", "type": {"array": "Object"}},
            {"name": "weights", "type": {"iterable": "Integer"}}, {"name": "extra", "type": "Node"},
            {"name": "grid", "type": {"array": {"array": "Double"}}}]},
        {"concrete": "Box", "implements": ["Named", "Node"], "members": [{"name": "inner", "type": "Node"}]},
        {"concrete": "Stray", "implements": ["Object"]},
    ]
}

# Casts to primitives, an enum and a class; bool, int, null and enum-path
# guards with and without a package prefix; an inline enum; optional, list,
# nested-list and cast-array fields; and rules on an abstract class that
# only Box reaches.
SHAPES_MAPPING = """\
mapping Shapes
export shapes::Shape
types Node => Shape
constructors
Leaf
- %value == 0, %flag == false: zero()
- (Integer)value, %flag == true: intOn(v)
- (Integer)value, %flag != true: intOff(v)
- (String)value: text(s)
- (Double)value: real(r)
- %(Color)value, %value == BLUE: blue()
- %(Color)value: colored()
- (Leaf)value, flag?: nested(inner, f)
Pair
- color == Color.RED, name, left, right: redPair(Color c = red(), n, l, r)
- %color == shapes.Color.GREEN, name, left, right?: greenPair(n, l, r)
- %color == null, left, right: plainPair(l, r)
Group
- name, (Node[])items, weights, extra?, grid: group(n, xs, ws, e, g)
- name, weights?: loose(n, ws)
Named
- : named()
"""

# T reaches C's rules through its supertypes, but its own nearest mapped type
# is A, so the term comes out ill-typed and the final check rejects it.
MIXED_SCHEMA = {"types": [
    {"abstract": "A"}, {"abstract": "C"}, {"concrete": "T", "implements": ["A", "C"]},
]}
MIXED_MAPPING = "mapping M export m::M types A => X C => Y constructors C - : c()"

# Every mapping used elsewhere in this file, paired with EXPR_SCHEMA.
EXPR_SPEC_TEXTS = [
    EXPR_MAPPING,
    INLINE_ENUM_MAPPING,
    INLINE_ENUM_MAPPING + "Lit\n- (Integer)getValue: integer(intVal)\n",
    "mapping M export m::M types Expr => Expr constructors "
    "Cond - getCond, getThen, getElse?: cond3(c, t, e)",
    "mapping M export m::M types Expr => Expr constructors "
    "Cond - getCond, getThen, getElse?: cond3(c, t, e) "
    "Lit - (Integer)getValue: integer(v)",
    "mapping M export m::M types Expr => Expr constructors Binary - getNope: c(x)",
    "mapping M export m::M types Expr => Expr constructors Binary - getLhs, getRhs: c(x)",
    "mapping M export m::M types constructors Binary - getLhs: c(x)",
    "mapping M export m::M types Expr => Expr constructors Ghost - m: c(x)",
    "mapping M export m::M types Expr => Expr constructors Binary - getOp, getLhs, getRhs: c(o, l, r)",
    "mapping M export m::M types Expr => Expr constructors "
    "Cond - getCond, getThen, %getElse == null: first(c, t) "
    "Cond - getCond, getThen, getElse?: second(c, t, e) "
    "Lit - (Integer)getValue: integer(v)",
    "mapping M export m::M types Expr => Expr constructors "
    "Lit - %getValue: any() Lit - (Integer)getValue: integer(v)",
    "mapping M export m::M types Object => Obj constructors Lit - (Integer)getValue: i(v)",
    "mapping M export m::M types Cond => Expr constructors "
    "Cond - getCond, getElse?: c(a, b) - (Expr[])getCond: d(xs)",
    "mapping M export a::B types constructors",
    "mapping M export a types Lit => L constructors Lit - getValue == -1: neg()",
]


def _spec_pairs():
    """(spec, schema document) for every mapping here, Binary's rules permuted too."""
    pairs = [(parse_tympanic(text), EXPR_SCHEMA) for text in EXPR_SPEC_TEXTS]
    base = pairs[0][0]
    pairs += [(_permute_rules(base, "Binary", p), EXPR_SCHEMA) for p in itertools.permutations(range(4))]
    pairs.append((_permute_rules(base, "Binary", (0, 0, 1, 2, 3)), EXPR_SCHEMA))
    pairs.append((parse_tympanic(SHAPES_MAPPING), SHAPES_SCHEMA))
    pairs.append((parse_tympanic(MIXED_MAPPING), MIXED_SCHEMA))
    return pairs


def _outcome(fn, *args):
    """fn's result, or the type, message and path of the error it raised."""
    from csbb.terms import SignatureError
    from csbb.tympanic import MappingError, MarshalError

    try:
        return "ok", fn(*args)
    except MarshalError as e:
        return type(e), str(e), e.path
    except (MappingError, SignatureError) as e:
        return type(e), str(e)


def test_infer_signature_agrees_with_the_oracle():
    from support import infer_signature_oracle

    outcomes = set()
    for spec, schema_doc in _spec_pairs():
        schema = load_schema(schema_doc)
        new, old = _outcome(infer_signature, spec, schema), _outcome(infer_signature_oracle, spec, schema)
        assert new == old
        if new[0] == "ok":
            assert new[1][1].encode() == old[1][1].encode()  # module text, byte for byte
        outcomes.add(new[0] if new[0] == "ok" else new[0].__name__)
    assert outcomes == {"ok", "UnknownMember", "ArityMismatch", "UnmappedForeignType",
                        "UnknownForeignType", "SignatureError"}


_PAYLOADS = ({"int": 0}, {"int": 7}, {"bool": True}, {"bool": False}, {"str": "s"}, {"real": 1.5},
             {"enum": "Color.RED"}, {"enum": "Color.BLUE"}, {"enum": "Op.PLUS"}, {"enum": "Op.MOD"},
             {"array": []}, {"array": [{"int": 1}]}, None)


def _maybe_drop(rng, fields: dict) -> dict:
    """Usually fields as given; sometimes with one left out or set to a payload."""
    r = rng.random()
    if fields and r < 0.06:
        del fields[rng.choice(sorted(fields))]
    elif fields and r < 0.12:
        fields[rng.choice(sorted(fields))] = rng.choice(_PAYLOADS)
    return fields


def gen_expr_value(rng, depth: int):
    """An ExprAst value, mostly covered, with uncovered cases mixed in."""
    r = rng.random()
    if r < 0.03:
        return None
    if r < 0.05:
        return fobj(rng.choice(["Ghost", "Expr", "Op"]), getLhs=lit(1))
    if r < 0.07:
        return rng.choice(_PAYLOADS)
    if depth <= 0 or r < 0.3:
        value = rng.choice([{"int": rng.randint(-9, 9)}, {"bool": rng.random() < 0.5}, {"str": "s"},
                            {"real": 2.5}, {"enum": "Op.PLUS"}, {"array": []}, None])
        return fobj("Lit", **_maybe_drop(rng, {"getValue": value}))
    kind = rng.choice(["Binary", "Cond", "Block"])
    if kind == "Binary":
        op = rng.choice(["PLUS", "TIMES", "MINUS", "SLASH", "MOD", "expressions.Op.PLUS"])
        fields = {"getOp": {"enum": f"Op.{op}"} if "." not in op else {"enum": op},
                  "getLhs": gen_expr_value(rng, depth - 1), "getRhs": gen_expr_value(rng, depth - 1)}
    elif kind == "Cond":
        fields = {"getCond": gen_expr_value(rng, depth - 1), "getThen": gen_expr_value(rng, depth - 1),
                  "getElse": gen_expr_value(rng, depth - 1) if rng.random() < 0.5 else None}
    else:
        body = [gen_expr_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]
        fields = {"getBody": {"array": body} if rng.random() < 0.9 else {"int": 3}}
    return fobj(kind, **_maybe_drop(rng, fields))


def gen_shape_value(rng, depth: int):
    """A Shapes value, mostly covered, with uncovered cases mixed in."""
    r = rng.random()
    if r < 0.03:
        return None
    if r < 0.06:
        return fobj(rng.choice(["Ghost", "Stray", "Color", "Named"]))
    if r < 0.08:
        return rng.choice(_PAYLOADS)
    if depth <= 0 or r < 0.35:
        value = rng.choice([{"int": 0}, {"int": rng.randint(-9, 9)}, {"str": "t"}, {"real": 0.5},
                            {"enum": "Color." + rng.choice(["RED", "GREEN", "BLUE"])},
                            {"enum": "Shade.BLUE"}, {"array": []}, None,
                            gen_shape_value(rng, depth - 1) if depth > 0 else {"int": 1}])
        flag = rng.choice([{"bool": True}, {"bool": False}, None, {"int": 1}])
        return fobj("Leaf", **_maybe_drop(rng, {"value": value, "flag": flag}))
    kind = rng.choice(["Pair", "Group", "Box"])
    if kind == "Pair":
        color = rng.choice([{"enum": "Color.RED"}, {"enum": "Color.GREEN"}, {"enum": "Color.BLUE"},
                            {"enum": "Shade.RED"}, None])
        fields = {"name": {"str": "p"}, "left": gen_shape_value(rng, depth - 1),
                  "right": gen_shape_value(rng, depth - 1), "color": color}
    elif kind == "Group":
        items = [gen_shape_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]
        weights = [{"int": rng.randint(0, 5)} for _ in range(rng.randint(0, 3))]
        if weights and rng.random() < 0.1:
            weights[rng.randrange(len(weights))] = rng.choice([None, {"str": "w"}])
        grid = [{"array": [{"real": 0.5}] * rng.randint(0, 2)} for _ in range(rng.randint(0, 2))]
        if grid and rng.random() < 0.1:
            grid[0] = {"array": [{"int": 1}]}
        fields = {"name": {"str": "g"}, "items": {"array": items}, "weights": {"array": weights},
                  "extra": gen_shape_value(rng, depth - 1) if rng.random() < 0.5 else None,
                  "grid": {"array": grid}}
    else:
        fields = {"inner": gen_shape_value(rng, depth - 1)}
    return fobj(kind, **_maybe_drop(rng, fields))


def gen_mixed_value(rng, depth: int):
    return fobj(rng.choice(["T", "A", "C", "Ghost"]))


def test_marshal_agrees_with_the_oracle():
    from support import marshal_oracle

    expr = load_schema(EXPR_SCHEMA)
    cases = [
        (parse_tympanic(EXPR_MAPPING), expr, gen_expr_value, 500),
        (parse_tympanic(INLINE_ENUM_MAPPING + "Lit\n- (Integer)getValue: integer(intVal)\n"), expr,
         gen_expr_value, 100),
        (parse_tympanic(EXPR_SPEC_TEXTS[4]), expr, gen_expr_value, 100),
        (parse_tympanic(EXPR_SPEC_TEXTS[10]), expr, gen_expr_value, 100),
        (_permute_rules(parse_tympanic(EXPR_MAPPING), "Binary", (3, 1, 0, 2)), expr, gen_expr_value, 100),
        (parse_tympanic(SHAPES_MAPPING), load_schema(SHAPES_SCHEMA), gen_shape_value, 600),
        (parse_tympanic(MIXED_MAPPING), load_schema(MIXED_SCHEMA), gen_mixed_value, 40),
    ]
    rng = random.Random(20)
    seen: dict = {}
    for spec, schema, gen, n in cases:
        for _ in range(n):
            v = load_foreign_value(gen(rng, rng.randint(0, 4)))
            new = _outcome(marshal, spec, schema, v)
            assert new == _outcome(marshal_oracle, spec, schema, v), v
            name = "ok" if new[0] == "ok" else new[0].__name__
            seen[name] = seen.get(name, 0) + 1
            if name == "NoApplicableRule" and "cannot dispatch" not in new[1]:
                kind = "no rules cover" if "no rules cover" in new[1] else "no rule applies"
                seen[kind] = seen.get(kind, 0) + 1
    assert sum(seen[k] for k in ("ok", "NoApplicableRule", "NullNotOptional", "CastFailure",
                                 "MarshalError")) >= 1000, seen
    for kind in ("ok", "NoApplicableRule", "NullNotOptional", "CastFailure", "no rules cover",
                 "no rule applies"):
        assert seen[kind] >= 30, seen
    assert seen["MarshalError"] >= 5, seen  # MIXED's ill-typed terms


def test_marshal_oracle_cases_named_in_the_spec(spec, schema):
    # Each uncovered case the mapping must refuse, with the error the oracle gives.
    from support import marshal_oracle

    docs = [
        lit(1.5),  # a real payload: no Lit rule casts to Double
        binary("PLUS", None, lit(2)),  # null in a required position
        fobj("Block", getBody={"int": 1}),  # a failing cast to a list
        fobj("Lit", getValue={"array": []}),  # no cast guard holds
        fobj("Cond", getCond=lit(True), getThen=lit(1), getElse=None),
        fobj("Cond", getCond=lit(True), getThen=lit(1), getElse=lit(2)),
        fobj("Ghost", getLhs=lit(1)),  # a tag outside the schema
        binary("MOD", lit(1), lit(2)),  # an enum constant no rule names
        binary("PLUS", lit(1), {"int": 2}),  # a payload where an object belongs
        {"int": 3},  # a root that is no object
    ]
    kinds = []
    for doc in docs:
        v = load_foreign_value(doc)
        new = _outcome(marshal, spec, schema, v)
        assert new == _outcome(marshal_oracle, spec, schema, v)
        kinds.append(new[0] if new[0] == "ok" else new[0].__name__)
    assert kinds == ["NoApplicableRule", "NullNotOptional", "CastFailure", "NoApplicableRule", "ok", "ok",
                     "NoApplicableRule", "NoApplicableRule", "CastFailure", "NoApplicableRule"]


def test_load_foreign_value_agrees_with_the_oracle():
    from support import load_foreign_value_oracle

    bad = [{"what": 1}, {"enum": "PLUS"}, {"enum": 5}, {"int": "x"}, {"int": None}, {"array": 5},
           {"type": "A", "fields": [1]}, {"type": "A", "fields": {}, "x": 1}, [1], 3, {},
           "s"]  # read as JSON text, which it is not

    def gen(rng, depth):
        r = rng.random()
        if r < 0.04:
            return rng.choice(bad)
        if depth <= 0 or r < 0.3:
            return rng.choice(_PAYLOADS + ({"type": "Leaf"}, {"enum": "a.b.C.D"}))
        if r < 0.5:
            return {"array": [gen(rng, depth - 1) for _ in range(rng.randint(0, 3))]}
        names = rng.sample(["a", "b", "c", "d"], rng.randint(0, 3))
        return {"type": rng.choice(["Leaf", "Pair", 7]), "fields": {k: gen(rng, depth - 1) for k in names}}

    rng = random.Random(21)
    failures = 0
    for _ in range(1500):
        doc = gen(rng, rng.randint(0, 5))
        if rng.random() < 0.3:
            doc = json.dumps(doc)  # the text form
        try:
            want = load_foreign_value_oracle(doc)
        except (SchemaError, ValueError, TypeError, AttributeError) as e:
            failures += 1
            with pytest.raises(type(e)) as got:
                load_foreign_value(doc)
            assert str(got.value) == str(e)
        else:
            assert load_foreign_value(doc) == want
    assert 100 <= failures <= 1400


def _chain(rng, links: int) -> dict:
    v = lit(rng.randint(-99, 99))
    for _ in range(links):
        v = binary(rng.choice(["PLUS", "TIMES", "MINUS", "SLASH"]), v, lit(rng.randint(-99, 99)))
    return v


_CTOR_OF = {"PLUS": "add", "TIMES": "mul", "MINUS": "sub", "SLASH": "div"}


@pytest.mark.parametrize("links", [400, 700, 10_000])
def test_deep_chain_loads_and_marshals(spec, schema, links):
    doc = _chain(random.Random(links), links)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        t = marshal(spec, schema, load_foreign_value(doc))
        if links == 400:  # the text form nests two JSON levels per link
            assert marshal(spec, schema, load_foreign_value(json.dumps(doc))) is not None
    finally:
        sys.setrecursionlimit(limit)
    # Walk down the chain without recursion.
    for _ in range(links):
        f = doc["fields"]
        assert (t.name, t.type) == (_CTOR_OF[f["getOp"]["enum"][3:]], "Expr")
        assert t.args[1] == integer(f["getRhs"]["fields"]["getValue"]["int"])
        t, doc = t.args[0], f["getLhs"]
    assert t == integer(doc["fields"]["getValue"]["int"])


def test_very_deep_chain_loads():
    doc = _chain(random.Random(3), 10_000)
    v = load_foreign_value(doc)
    for _ in range(10_000):
        assert v.tag == "Binary" and v.fields["getOp"].const == doc["fields"]["getOp"]["enum"][3:]
        v, doc = v.fields["getLhs"], doc["fields"]["getLhs"]
    assert v.tag == "Lit" and v.fields["getValue"].value == doc["fields"]["getValue"]["int"]


def test_over_deep_text_is_a_schema_error():
    with pytest.raises(SchemaError, match="foreign value nests too deeply"):
        load_foreign_value(binary_chain_text(10_000))
    with pytest.raises(SchemaError, match="schema nests too deeply"):
        load_schema('{"types": ' + "[" * 10_000 + "]" * 10_000 + "}")


def test_plan_is_built_once_per_spec_and_schema(monkeypatch):
    import csbb.tympanic as ty

    built = []
    build = ty._build_plan
    monkeypatch.setattr(ty, "_build_plan", lambda spec, schema: built.append(spec) or build(spec, schema))
    schema = load_schema(EXPR_SCHEMA)
    s = parse_tympanic(EXPR_SPEC_TEXTS[10])  # overlapping rules: order decides
    flipped = _permute_rules(s, "Cond", (1, 0))
    v = load_foreign_value(fobj("Cond", getCond=lit(1), getThen=lit(2), getElse=None))
    assert marshal(s, schema, v).name == "first" and len(built) == 1
    assert marshal(s, schema, v).name == "first" and len(built) == 1
    infer_signature(s, schema)
    assert len(built) == 1
    assert marshal(flipped, schema, v).name == "second" and len(built) == 2
    assert marshal(flipped, schema, v).name == "second" and len(built) == 2
    assert marshal(s, schema, v).name == "first" and len(built) == 2
    assert built == [s, flipped]
    marshal(s, load_schema(EXPR_SCHEMA), v)  # another schema object: its own plan
    assert len(built) == 3


def test_schema_is_read_only(schema):
    import dataclasses

    with pytest.raises(TypeError):
        schema.types["Ghost"] = schema.types["Expr"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        schema.types = {}
    assert "Ghost" not in schema.types


def test_schema_indexes_agree_with_a_walk():
    from support import supers_closure_oracle

    def member_oracle(schema, class_name, member_name):
        for n in supers_closure_oracle(schema, class_name):
            t = schema.types.get(n)
            if t is not None and hasattr(t, "members"):
                for m in t.members:
                    if m.name == member_name:
                        return m
        return None

    diamond = {"types": [
        {"abstract": "A"}, {"abstract": "B", "implements": ["A"]}, {"abstract": "C", "implements": ["A"]},
        {"concrete": "D", "implements": ["C", "B"], "members": [{"name": "m", "type": "Integer"}]},
        {"concrete": "E", "implements": ["B"], "members": [  # a repeated name: the first wins
            {"name": "m", "type": "String"}, {"name": "m", "type": "Integer"}]},
    ]}
    for doc in (EXPR_SCHEMA, SHAPES_SCHEMA, MIXED_SCHEMA, diamond):
        schema = load_schema(doc)
        names = list(schema.types) + ["Ghost", "Integer"]
        members = {m.name for t in schema.types.values() for m in getattr(t, "members", ())} | {"nope"}
        for n in names:
            closure = supers_closure_oracle(schema, n)
            assert list(schema.supers_closure(n)) == closure
            for sup in names:
                assert schema.is_subtype(n, sup) == (sup in closure)
            for m in sorted(members):
                assert schema.member(n, m) == member_oracle(schema, n, m)
    assert list(load_schema(diamond).supers_closure("D")) == ["D", "C", "B", "A"]
