"""Acceptance suite. One test per criterion; each prints a PASS line.

Run as `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines).
"""

from __future__ import annotations

import random
import time

import pytest

from support import (
    EXPR_MAPPING,
    EXPR_MODULE,
    EXPR_SCHEMA,
    INLINE_ENUM_MAPPING,
    brute_list_envs,
    enumerate_atom_lists,
    enumerate_list_patterns,
    envs_multiset,
    fobj,
    gen_json_object,
    gen_json_term,
    term_equals,
    tokens,
)
from csbb.concrete import HoleCaptured, lift, lower, parse_term, split_fragment, to_pattern
from csbb.jsonlang import array, ident, number, obj, prop, string
from csbb.patterns import (
    PCon,
    PList,
    PLit,
    PSeqVar,
    PSeqWild,
    PVar,
    PWild,
    instantiate,
    match,
    match_first,
    pattern_vars,
    visit_collect,
)
from csbb.terms import Con, ListTerm, Prim, adt, term_root_type
from csbb.tympanic import (
    NoApplicableRule,
    infer_signature,
    load_foreign_value,
    load_schema,
    marshal,
    parse_tympanic,
)

RODIN = obj([prop("name", string("Rodin")), prop("age", number(29.0))])


def report(n: int, text: str) -> None:
    print(f"criterion {n:02d} PASS — {text}")


def test_criterion_01_transcript_suite(json_registry):
    started = time.perf_counter()

    parsed = parse_term("JSON", "29", json_registry)
    assert term_equals(parsed, number(29.0))

    pattern = to_pattern("JSON", '{name:"Rodin",age:<JSON age>}', json_registry)
    built = instantiate(pattern, {"age": number(29.0)})
    assert term_equals(built, RODIN)

    name_pattern = to_pattern("JSON", "{<Prop* _>, name: <JSON _>, <Prop* _>}", json_registry)
    assert match_first(name_pattern, built) is not None

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"construct/match transcripts reproduced in {elapsed:.3f}s")


def test_criterion_02_pipeline_golden(json_registry):
    cp = split_fragment("JSON", "{<Prop p>}")
    flattened, table = lower(cp, json_registry)
    assert flattened == "{_hole:0}"
    assert len(table) == 1
    assert term_equals(table[0].image, prop("_hole", number(0.0)))

    lifted = lift(json_registry.parse("JSON", flattened), table)
    assert lifted == PCon("object", "JSON", (PList((PVar("p", adt("Prop")),), adt("Prop")),))
    found = pattern_vars(lifted)
    assert found == {"p": ("var", adt("Prop"))}
    report(2, "lowered text, placeholder image, and lifted pattern are exact")


def test_criterion_03_pattern_abstraction_equivalence(json_registry):
    from_fragment = to_pattern("JSON", "{<Prop* _>, name: <JSON _>, <Prop* _>}", json_registry)
    hand_built = PCon(
        "object",
        "JSON",
        (
            PList(
                (
                    PSeqWild(adt("Prop")),
                    PCon("prop", "Prop", (PLit(ident("name")), PWild(adt("JSON")))),
                    PSeqWild(adt("Prop")),
                ),
                adt("Prop"),
            ),
        ),
    )
    rng = random.Random(1003)
    disagreements = 0
    for _ in range(200):
        t = gen_json_object(rng, max_props=6)
        if list(match(from_fragment, t)) != list(match(hand_built, t)):
            disagreements += 1
    assert disagreements == 0
    report(3, "fragment pattern equals the hand-built pattern on 200 random objects")


def test_criterion_04_list_match_oracle():
    started = time.perf_counter()
    patterns = enumerate_list_patterns(max_len=5, max_seq=3, max_lit=2)
    subjects = enumerate_atom_lists(max_len=5)
    mismatches = 0
    cases = 0
    for p in patterns:
        for t in subjects:
            cases += 1
            if envs_multiset(match(p, t)) != envs_multiset(brute_list_envs(p.elems, t.elems)):
                mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 30.0
    report(4, f"{cases} exhaustive list-match cases agree with the split oracle in {elapsed:.1f}s")


def _pattern_from_term(rng, t, counter):
    if rng.random() < 0.3:
        return PVar(f"v{next(counter)}", term_root_type(t))
    if isinstance(t, Con):
        return PCon(t.name, t.type, tuple(_pattern_from_term(rng, a, counter) for a in t.args))
    if isinstance(t, ListTerm):
        elems = []
        i = 0
        while i < len(t.elems):
            if rng.random() < 0.2:
                j = rng.randint(i, len(t.elems))
                elems.append(PSeqVar(f"s{next(counter)}", t.elem_type))
                i = j
            else:
                elems.append(_pattern_from_term(rng, t.elems[i], counter))
                i += 1
        return PList(tuple(elems), t.elem_type)
    return PLit(t)


def test_criterion_05_match_soundness():
    rng = random.Random(1005)
    counter = iter(range(10_000_000))
    checked = 0
    for _ in range(1000):
        t = gen_json_term(rng, 3)
        p = _pattern_from_term(rng, t, counter)
        envs = list(match(p, t))
        assert envs, "a pattern derived from its own term must match it"
        for env in envs:
            assert term_equals(instantiate(p, env), t)
            checked += 1
    report(5, f"1000 derived patterns re-instantiate exactly ({checked} envs checked)")


def test_criterion_06_capture_detection(json_registry):
    with pytest.raises(HoleCaptured):
        to_pattern("JSON", "[<JSON x>, {_hole: 0}]", json_registry)

    lenient = to_pattern("JSON", "[<JSON x>, {_hole: 0}]", json_registry, lenient=True)
    dup = array([number(1.0), number(1.0)])
    distinct = array([number(1.0), number(2.0)])
    assert match_first(lenient, dup) is not None
    assert match_first(lenient, distinct) is None
    report(6, "capture raises by default; lenient mode reproduces the non-linear match")


def test_criterion_07_generated_module_golden():
    spec = parse_tympanic(EXPR_MAPPING)
    schema = load_schema(EXPR_SCHEMA)
    _, module = infer_signature(spec, schema)
    assert tokens(module) == tokens(EXPR_MODULE)

    variant = parse_tympanic(INLINE_ENUM_MAPPING)
    sig, variant_module = infer_signature(variant, schema)
    assert tokens("data Op = plus() ;") == tokens(
        "data Op" + variant_module.split("data Op", 1)[1]
    )
    assert sig.find("Expr", "binary", 3) is not None
    report(7, "generated module matches the expected text; inline enum synthesizes its ADT")


def test_criterion_08_marshaller_suite():
    spec = parse_tympanic(EXPR_MAPPING)
    schema = load_schema(EXPR_SCHEMA)

    def lit(payload):
        return fobj("Lit", getValue=payload)

    def run(doc):
        return marshal(spec, schema, load_foreign_value(doc))

    one, two = lit({"int": 1}), lit({"int": 2})
    integer = lambda v: Con("integer", "Expr", (Prim("int", v),))
    cases = [
        (fobj("Binary", getOp={"enum": "Op.PLUS"}, getLhs=one, getRhs=two),
         Con("add", "Expr", (integer(1), integer(2)))),
        (fobj("Binary", getOp={"enum": "Op.TIMES"}, getLhs=one, getRhs=two),
         Con("mul", "Expr", (integer(1), integer(2)))),
        (fobj("Binary", getOp={"enum": "Op.MINUS"}, getLhs=one, getRhs=two),
         Con("sub", "Expr", (integer(1), integer(2)))),
        (fobj("Binary", getOp={"enum": "Op.SLASH"}, getLhs=one, getRhs=two),
         Con("div", "Expr", (integer(1), integer(2)))),
        (fobj("Cond", getCond=lit({"bool": True}), getThen=one, getElse=None),
         Con("ifThen", "Expr", (Con("boolean", "Expr", (Prim("bool", True),)), integer(1)))),
        (fobj("Cond", getCond=lit({"bool": False}), getThen=one, getElse=two),
         Con("ifThenElse", "Expr",
             (Con("boolean", "Expr", (Prim("bool", False),)), integer(1), integer(2)))),
        (fobj("Block", getBody={"array": []}),
         Con("block", "Expr", (ListTerm((), adt("Expr")),))),
        (fobj("Block", getBody={"array": [one]}),
         Con("block", "Expr", (ListTerm((integer(1),), adt("Expr")),))),
        (fobj("Block", getBody={"array": [one, two, lit({"int": 3})]}),
         Con("block", "Expr", (ListTerm((integer(1), integer(2), integer(3)), adt("Expr")),))),
        (lit({"int": 7}), integer(7)),
        (lit({"bool": True}), Con("boolean", "Expr", (Prim("bool", True),))),
        (lit({"str": "s"}), Con("string", "Expr", (Prim("str", "s"),))),
    ]
    for doc, expected in cases:
        assert term_equals(run(doc), expected)

    with pytest.raises(NoApplicableRule):
        run(lit({"real": 1.5}))
    report(8, f"{len(cases)} marshalling cases exact; unmapped payload rejected")


def test_criterion_09_black_box_protocol(exprlang_registry):
    reg = exprlang_registry

    subject = parse_term("Stm", "while (x) { y; z + 1; }", reg)
    pattern = to_pattern("Stm", "while (x) { <Stm* body> }", reg)
    env = match_first(pattern, subject)
    assert env is not None
    assert len(env["body"]) == 2
    rebuilt = instantiate(pattern, env)
    assert term_equals(rebuilt, subject)

    empty = instantiate(pattern, {"body": ()})
    assert term_equals(empty, parse_term("Stm", "while (x) { }", reg))

    expr_pattern = to_pattern("Expr", "<Expr a> + 2", reg)
    expr_env = match_first(expr_pattern, parse_term("Expr", "1 + 2", reg))
    assert expr_env is not None and expr_env["a"].name == "intLit"

    dummy_ref = PCon("varRef", "Expr", (PLit(Prim("str", "dummy")),))
    for term in (subject, rebuilt, empty):
        assert visit_collect(term, dummy_ref) == []
    report(9, "statement fragments round trip over the subprocess protocol without context leaks")


def test_criterion_10_non_reproducible_claims_declared():
    # The source-size comparisons and per-language constructor counts in the
    # underlying study measure the original authors' codebases. They are not
    # reproduced here; criteria 1-9 stand in as the verifiable behavior.
    report(10, "source-size and language-statistics tables declared out of scope")
