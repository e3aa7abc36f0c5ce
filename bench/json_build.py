"""json-build: the construction side of the in-process JSON binding.

Each operation compiles one seeded fragment with 1 to 400 holes through
to_pattern, reads the bindings from their printed constructor form with
parse_pretty_term (as `csbb construct --bind` does), fills the pattern with
instantiate and writes the result with encode_term. Split, lower (one parse
per hole), lift (one comparison per node per hole) and instantiate do most of
the work; matching does none.
"""

from __future__ import annotations

import types

from harness import Op
from json_search import gen_value
from model import Obj, canon, json_canon, json_text, pattern_var_names, prop_canon, render, term_nodes

# (class, holes per fragment, fragments per round). As in json-search, the
# median falls in the middle of h10 and the 95th percentile in that of h100.
CLASSES = (("h1", 1, 30), ("h10", 10, 40), ("h30", 30, 21), ("h100", 100, 8), ("h400", 400, 1))


class _Builder:
    """Writes a fragment with an exact number of holes, its value and bindings.

    Generated values contain no "<", which would open a hole in fragment text.
    """

    def __init__(self, rng):
        self.rng = rng
        self.holes = 0
        self.bindings = []  # (name, kind, printed text)

    def name(self, prefix: str) -> str:
        self.holes += 1
        return f"{prefix}{self.holes}"

    def container(self, holes: int):
        """(fragment text, value) of an array or object holding `holes` holes."""
        rng = self.rng
        if holes > 4:
            parts = [holes // 4] * 3 + [holes - 3 * (holes // 4)] if holes >= 12 else \
                [holes // 2, holes - holes // 2]
            items = [self.container(h) for h in parts]
        else:
            items = [None] * holes  # hole slots
        for _ in range(rng.randint(0, 2)):
            v = gen_value(rng, 1)
            items.insert(rng.randint(0, len(items)), (json_text(v, rng), v))
        is_object = rng.random() < 0.5
        texts, values = [], []
        for i, item in enumerate(items):
            if item is None and rng.random() < 0.25:
                bound = [gen_value(rng, 1) for _ in range(rng.randint(0, 3))]
                if is_object:
                    name = self.name("rest")
                    bound = [(f"s{self.holes}_{j}", v) for j, v in enumerate(bound)]
                    printed = [render(prop_canon(k, v)) for k, v in bound]
                    texts.append(f"<Prop* {name}>")
                else:
                    name = self.name("xs")
                    printed = [render(json_canon(v)) for v in bound]
                    texts.append(f"<JSON* {name}>")
                self.bindings.append((name, "props" if is_object else "elems", "[" + ",".join(printed) + "]"))
                values.extend(bound)
                continue
            if item is None:
                v = gen_value(rng, 2)
                name = self.name("v")
                self.bindings.append((name, "var", render(json_canon(v))))
                item = (f"<JSON {name}>", v)
            text, v = item
            texts.append(f"f{i}: {text}" if is_object else text)
            values.append((f"f{i}", v) if is_object else v)
        if is_object:
            return "{" + ", ".join(texts) + "}", Obj(tuple(values))
        return "[" + ", ".join(texts) + "]", values


def gen_fragment(rng, holes: int):
    b = _Builder(rng)
    text, value = b.container(holes)
    return text, tuple(b.bindings), value


class Workload:
    name = "json-build"
    classes = tuple(c for c, _, _ in CLASSES)

    def make_round(self, rng) -> list:
        ops = []
        for cls, holes, count in CLASSES:
            for _ in range(count):
                text, bindings, value = gen_fragment(rng, holes)
                ops.append(Op(cls, (text, bindings), value))
        rng.shuffle(ops)
        return ops

    def setup(self, m, work_dir):
        reg = m.concrete.default_registry()
        terms = m.terms
        self.decode_term = terms.decode_term
        return types.SimpleNamespace(
            reg=reg,
            sig=reg.signature_for("JSON"),
            types={"var": terms.adt("JSON"), "elems": terms.list_of(terms.adt("JSON")),
                   "props": terms.list_of(terms.adt("Prop"))},
        )

    def close(self, st) -> None:
        st.reg.close()

    def run(self, api, st, op):
        text, bindings = op.input
        pattern = api.to_pattern("JSON", text, st.reg)
        env = {}
        for name, kind, printed in bindings:
            value = api.parse_pretty_term(st.sig, printed, st.types[kind])
            env[name] = value if kind == "var" else tuple(value.elems)
        term = api.instantiate(pattern, env)
        return types.SimpleNamespace(pattern=pattern, term=term, encoded=api.encode_term(term))

    def check(self, op, out) -> str | None:
        names = {name for name, _, _ in op.input[1]}
        if pattern_var_names(out.pattern) != names:
            return "the pattern's variables are not the fragment's hole names"
        expected = json_canon(op.expect)
        if canon(out.term) != expected:
            return "the instantiated term is not the generator's value"
        if canon(self.decode_term(out.encoded)) != expected:
            return "decode_term(encode_term(t)) differs from t"
        return None

    def counts(self, op, out) -> dict:
        return {"terms.nodes": term_nodes(out.term)}
