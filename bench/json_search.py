"""json-search: the query side of the in-process JSON binding.

Each operation parses one seeded document with parse_term, runs four fixed
queries against it (compiled once during set-up) and renders the bindings
with pretty_term. The JSON parser, sequence matching and term equality do
most of the work; lower and lift do none.
"""

from __future__ import annotations

import random
import types

from harness import Op
from model import Obj, canon_env, json_canon, json_text, render, term_nodes

Q_FIELD = "{<Prop* _>, tag: <JSON t>, <Prop* _>}"
Q_EQUAL = "{<Prop* _>, a: <JSON x>, <Prop* _>, b: <JSON x>, <Prop* _>}"
Q_ELEM = '{<Prop* _>, items: [<JSON* pre>, {kind: "hit", val: <JSON v>}, <JSON* _>], <Prop* _>}'
Q_POINT = "{x: <JSON x>, y: <JSON y>}"

# (class, properties per document, documents per round). Of 100 operations,
# 30 + 40 + 21 + 8 + 1 put the median in the middle of p100 and the 95th
# percentile in the middle of p1000, away from the class boundaries.
CLASSES = (("p10", 10, 30), ("p100", 100, 40), ("p300", 300, 21), ("p1000", 1000, 8),
           ("p4000", 4000, 1))

# Two equal arrays nested this deep make term_equals exceed the recursion
# limit (150 passes, 180 fails). One such document runs in every round.
DEEP = 200

_NESTED_KEYS = ("x", "y", "z", "id", "name", "kind", "val")
_STRINGS = ("", "Rodin", "a b", 'quo"te', "back\\slash", "line\nbreak", "tab\t", "ünïcode", "hit")


def gen_number(rng) -> float:
    style = rng.randint(0, 9)
    if style == 0:
        return 0.0
    if style < 4:
        return float(rng.randint(-999, 999))
    if style < 7:
        return rng.randint(-4000, 4000) / 16.0
    if style < 9:
        return rng.uniform(-1e6, 1e6)
    return rng.choice((1e-7, 2.5e21, -3.75e-12, 6.02e23))


def gen_value(rng, depth: int):
    r = rng.random()
    if r < 0.5 or depth == 0:
        return gen_number(rng) if r < 0.35 else rng.choice(_STRINGS + (True, False, None))
    if r < 0.62:
        return [gen_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if r < 0.75:
        return Obj((("x", gen_number(rng)), ("y", gen_value(rng, 0))))  # a point
    if r < 0.8:
        return Obj((("y", gen_number(rng)), ("x", gen_number(rng))))  # not a point
    keys = rng.sample(_NESTED_KEYS, rng.randint(0, 4))
    return Obj(tuple((k, gen_value(rng, depth - 1)) for k in keys))


def mutate(v, rng):
    """A value that differs from v, often only in the sign bit of a zero."""
    if isinstance(v, float):
        return -v
    if isinstance(v, str):
        return v + "!"
    if v is True or v is False:
        return not v
    if v is None:
        return 0.0
    if isinstance(v, list):
        if not v:
            return [None]
        i = rng.randrange(len(v))
        return v[:i] + [mutate(v[i], rng)] + v[i + 1:]
    if not v.props:
        return Obj((("z", None),))
    i = rng.randrange(len(v.props))
    k, x = v.props[i]
    return Obj(v.props[:i] + ((k, mutate(x, rng)),) + v.props[i + 1:])


def gen_document(rng, n: int) -> Obj:
    special = []
    special += [("tag", gen_value(rng, 1)) for _ in range(rng.choice((0, 1, 1, 2, 3)))]
    if rng.random() < 0.8:
        a = [0.0, gen_value(rng, 2)] if rng.random() < 0.5 else gen_value(rng, 2)
        b = a if rng.random() < 0.5 else mutate(a, rng)
        special += [("a", a), ("b", b)]
    if rng.random() < 0.8:
        items = []
        for _ in range(max(2, n // 25)):
            kind = rng.choice(("miss", "miss", "miss", "hit"))
            items.append(Obj((("kind", kind), ("val", gen_value(rng, 1)))) if rng.random() < 0.6
                         else gen_value(rng, 0))
        special.append(("items", items))
    props = [(f"k{i}", gen_value(rng, 2)) for i in range(n - len(special))]
    # Keep "a" before "b" so the non-linear query has one candidate pair.
    slots = sorted(rng.sample(range(n), len(special)))
    for (key, value), slot in zip(sorted(special, key=lambda kv: kv[0] == "b"), slots):
        props.insert(slot, (key, value))
    return Obj(tuple(props))


def deep_document() -> Obj:
    nested: list = []
    for _ in range(DEEP - 1):
        nested = [nested]
    return Obj((("tag", 1.0), ("a", nested), ("b", nested), ("items", [])))


class Workload:
    name = "json-search"
    classes = tuple(c for c, _, _ in CLASSES)

    def make_round(self, rng) -> list:
        ops = []
        for cls, n, count in CLASSES:
            for _ in range(count):
                doc = gen_document(rng, n)
                ops.append(Op(cls, json_text(doc, rng), doc))
        doc = deep_document()
        ops.append(Op("deep", json_text(doc, random.Random(0)), doc, deep=True))
        rng.shuffle(ops)
        return ops

    def setup(self, m, work_dir):
        reg = m.concrete.default_registry()
        compile_ = lambda text: m.concrete.to_pattern("JSON", text, reg)
        return types.SimpleNamespace(
            reg=reg, field=compile_(Q_FIELD), equal=compile_(Q_EQUAL), elem=compile_(Q_ELEM),
            point=compile_(Q_POINT),
        )

    def close(self, st) -> None:
        st.reg.close()

    def run(self, api, st, op):
        doc = api.parse_term("JSON", op.input, st.reg)
        first = api.match_first(st.field, doc)
        every = api.match_all(st.field, doc)
        same = api.match_first(st.equal, doc)
        elem = api.match_first(st.elem, doc)
        hits = api.visit_collect(doc, st.point)
        rendered = []
        for env in every + [same, elem]:
            for value in (env or {}).values():
                for t in value if isinstance(value, tuple) else (value,):
                    rendered.append(api.pretty_term(t))
        return types.SimpleNamespace(
            doc=doc, first=first, every=every, same=same, elem=elem, hits=hits, rendered=rendered
        )

    def check(self, op, out) -> str | None:
        exp = expected(op.expect)
        got_first = canon_env(out.first) if out.first is not None else None
        if got_first != (exp.every[0] if exp.every else None):
            return "match_first of the field query gave the wrong binding"
        if [canon_env(e) for e in out.every] != exp.every:
            return "match (all) of the field query gave the wrong bindings or count"
        if (canon_env(out.same) if out.same is not None else None) != exp.same:
            return "the non-linear equality query gave the wrong answer"
        if (canon_env(out.elem) if out.elem is not None else None) != exp.elem:
            return "the element search gave the wrong bindings"
        if [(path, canon_env(env)) for path, env in out.hits] != exp.hits:
            return "visit_collect gave the wrong hits"
        if out.rendered != exp.rendered:
            return "pretty_term rendered a binding wrongly"
        return None

    def counts(self, op, out) -> dict:
        return {"terms.nodes": term_nodes(out.doc), "envs": len(out.every), "hits": len(out.hits),
                "tried": json_values(op.expect)}


# ---------------------------------------------------------------------------
# Expected results, computed from the generator's own value


def expected(doc: Obj):
    props = doc.props
    every = [{"t": json_canon(v)} for k, v in props if k == "tag"]
    values = dict(reversed(props))  # first occurrence wins
    same = None
    if "a" in values and "b" in values:
        a, b = json_canon(values["a"]), json_canon(values["b"])
        same = {"x": a} if a == b else None
    elem = None
    for i, e in enumerate(values.get("items", ())):
        if isinstance(e, Obj) and len(e.props) == 2 and e.props[0] == ("kind", "hit") \
                and e.props[1][0] == "val":
            elem = {"pre": ("seq", tuple(json_canon(x) for x in values["items"][:i])),
                    "v": json_canon(e.props[1][1])}
            break
    hits: list = []
    _points(doc, (), hits)
    rendered = []
    for env in every + [same, elem]:
        for value in (env or {}).values():
            for c in value[1] if value[0] == "seq" else (value,):
                rendered.append(render(c))
    return types.SimpleNamespace(every=every, same=same, elem=elem, hits=hits, rendered=rendered)


def _points(v, path: tuple, hits: list) -> None:
    """Post-order over JSON values, with csbb's term paths, as visit_collect walks."""
    if isinstance(v, Obj):
        for i, (_, x) in enumerate(v.props):
            _points(x, path + (0, i, 1), hits)
        if len(v.props) == 2 and v.props[0][0] == "x" and v.props[1][0] == "y":
            hits.append((path, {"x": json_canon(v.props[0][1]), "y": json_canon(v.props[1][1])}))
    elif isinstance(v, list):
        for i, x in enumerate(v):
            _points(x, path + (0, i), hits)


def json_values(v) -> int:
    """JSON-typed subterms: the subtrees visit_collect tries the point query on."""
    n = 0
    stack = [v]
    while stack:
        x = stack.pop()
        n += 1
        if isinstance(x, list):
            stack.extend(x)
        elif isinstance(x, Obj):
            stack.extend(val for _, val in x.props)
    return n
