"""foreign-marshal: the Tympanic layer, which no other workload touches.

Set-up parses a fixed mapping and schema and runs check_spec and
infer_signature on them. Each operation reads one seeded foreign value with
load_foreign_value and converts it with marshal. Values are Binary, Cond,
Block and Lit trees of depth 1 to 9, plus left-nested Binary chains.
"""

from __future__ import annotations

import json
import random
import types

from harness import Op
from model import canon, term_nodes

MAPPING = """\
mapping ExprAst
import expressions
export expr::Expr
types Expr => Expr
constructors
Binary
- %getOp == Op.PLUS, getLhs, getRhs: add(lhs, rhs)
- %getOp == Op.TIMES, getLhs, getRhs: mul(lhs, rhs)
- %getOp == Op.MINUS, getLhs, getRhs: sub(lhs, rhs)
- %getOp == Op.SLASH, getLhs, getRhs: div(lhs, rhs)
Cond
- getCond, getThen, %getElse == null: ifThen(cond, then)
- getCond, getThen, getElse != null: ifThenElse(cond, then, els)
Block
- getBody: block(body)
Lit
- (Integer)getValue: integer(intVal)
- (Boolean)getValue: boolean(boolVal)
- (String)getValue: string(strVal)
"""

SCHEMA = json.dumps({
    "types": [
        {"enum": "Op", "constants": ["PLUS", "TIMES", "MINUS", "SLASH"]},
        {"abstract": "Object"},
        {"abstract": "Expr"},
        {"concrete": "Binary", "implements": ["Expr"], "members": [
            {"name": "getLhs", "type": "Expr"}, {"name": "getRhs", "type": "Expr"},
            {"name": "getOp", "type": "Op"}]},
        {"concrete": "Cond", "implements": ["Expr"], "members": [
            {"name": "getCond", "type": "Expr"}, {"name": "getThen", "type": "Expr"},
            {"name": "getElse", "type": "Expr"}]},
        {"concrete": "Block", "implements": ["Expr"], "members": [
            {"name": "getBody", "type": {"array": "Expr"}}]},
        {"concrete": "Lit", "implements": ["Expr"], "members": [
            {"name": "getValue", "type": "Object"}]},
    ]
})

# (class, depth range or chain links, values per round). As in json-search,
# the median falls in the middle of d4 and the 95th percentile in that of d9.
CLASSES = (("d2", (1, 2), 30), ("d4", (3, 4), 40), ("d6", (5, 6), 21), ("d9", (7, 9), 8),
           ("c300", (200, 300), 1))

# marshal recurses about three frames per chain link, so a chain this long
# exceeds the recursion limit (332 links pass). One runs in every round.
DEEP_LINKS = 400

_OPS = {"PLUS": "add", "TIMES": "mul", "MINUS": "sub", "SLASH": "div"}
_STRINGS = ("", "x", "a b", 'quo"te', "ünïcode")


def fobj(tag: str, **fields) -> dict:
    return {"type": tag, "fields": fields}


def gen_lit(rng) -> dict:
    r = rng.random()
    if r < 0.6:
        return fobj("Lit", getValue={"int": rng.randint(-10**6, 10**6)})
    if r < 0.8:
        return fobj("Lit", getValue={"bool": rng.random() < 0.5})
    return fobj("Lit", getValue={"str": rng.choice(_STRINGS)})


def gen_tree(rng, depth: int) -> dict:
    """A tree exactly `depth` levels deep; side branches are often as deep."""
    if depth <= 1:
        return gen_lit(rng)
    side = lambda: gen_tree(rng, depth - 1 if rng.random() < 0.4 else rng.randint(1, depth - 1))
    kind = rng.choices(("Binary", "Cond", "Block"), (6, 2, 2))[0]
    if kind == "Binary":
        kids = [gen_tree(rng, depth - 1), side()]
        rng.shuffle(kids)
        return fobj("Binary", getOp={"enum": "Op." + rng.choice(tuple(_OPS))}, getLhs=kids[0], getRhs=kids[1])
    if kind == "Cond":
        kids = [gen_tree(rng, depth - 1), side(), side() if rng.random() < 0.5 else None]
        return fobj("Cond", getCond=kids[0], getThen=kids[1], getElse=kids[2])
    body = [side() for _ in range(rng.randint(0, 3))]
    body.insert(rng.randint(0, len(body)), gen_tree(rng, depth - 1))
    return fobj("Block", getBody={"array": body})


def gen_chain(rng, links: int) -> dict:
    v = gen_lit(rng)
    for _ in range(links):
        v = fobj("Binary", getOp={"enum": "Op." + rng.choice(tuple(_OPS))}, getLhs=v, getRhs=gen_lit(rng))
    return v


def reference(doc: dict):
    """The canonical term the mapping prescribes, computed without csbb."""
    tag, f = doc["type"], doc["fields"]
    if tag == "Binary":
        op = f["getOp"]["enum"].split(".")[-1]
        return (_OPS[op], "Expr", (reference(f["getLhs"]), reference(f["getRhs"])))
    if tag == "Cond":
        if f.get("getElse") is None:
            return ("ifThen", "Expr", (reference(f["getCond"]), reference(f["getThen"])))
        return ("ifThenElse", "Expr",
                (reference(f["getCond"]), reference(f["getThen"]), reference(f["getElse"])))
    if tag == "Block":
        return ("block", "Expr", (("[", "Expr", tuple(reference(x) for x in f["getBody"]["array"])),))
    ((kind, value),) = f["getValue"].items()
    name = {"int": "integer", "bool": "boolean", "str": "string"}[kind]
    return (name, "Expr", (("#" + kind, value),))


class Workload:
    name = "foreign-marshal"
    classes = tuple(c for c, _, _ in CLASSES)

    def make_round(self, rng) -> list:
        ops = []
        for cls, (lo, hi), count in CLASSES:
            for _ in range(count):
                n = rng.randint(lo, hi)
                doc = gen_chain(rng, n) if cls.startswith("c") else gen_tree(rng, n)
                ops.append(Op(cls, json.dumps(doc), doc))
        doc = gen_chain(random.Random(0), DEEP_LINKS)
        ops.append(Op("deep", json.dumps(doc), doc, deep=True))
        rng.shuffle(ops)
        return ops

    def setup(self, m, work_dir):
        ty = m.tympanic
        spec = ty.parse_tympanic(MAPPING)
        schema = ty.load_schema(SCHEMA)
        diagnostics = ty.check_spec(spec, schema)
        if diagnostics:
            raise RuntimeError(f"the fixed mapping has diagnostics: {diagnostics}")
        ty.infer_signature(spec, schema)
        return types.SimpleNamespace(spec=spec, schema=schema)

    def close(self, st) -> None:
        pass

    def run(self, api, st, op):
        value = api.load_foreign_value(op.input)
        return api.marshal(st.spec, st.schema, value)

    def check(self, op, out) -> str | None:
        if canon(out) != reference(op.expect):
            return "marshal differs from the reference mapping"
        return None

    def counts(self, op, out) -> dict:
        return {"terms.nodes": term_nodes(out)}

