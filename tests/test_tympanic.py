from __future__ import annotations

import itertools
import random

import pytest

from support import EXPR_MAPPING, EXPR_MODULE, EXPR_SCHEMA, INLINE_ENUM_MAPPING, fobj, term_equals, tokens
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
    from csbb.tympanic import _guard_holds

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
    from csbb.tympanic import _field_argtype, _guard_holds

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
