"""expr-rewrite: the subprocess parser path.

A registry config serves Stm and Expr from `python -m csbb.exprlang`, with
the signature check the adapter performs on every reply. Three rewrite rules
are compiled through the child during set-up. Each operation parses one
seeded program through the child, compiles one fresh Stm query with 1 to 20
holes (one child round trip per hole), runs it with visit_collect and applies
the rules with visit_rewrite.
"""

from __future__ import annotations

import json
import os
import sys
import types

from harness import Op
from model import canon, canon_env, match_canon, term_nodes

# (class, statements per program, long sums among them, programs per round).
# As in json-search, the median falls in the middle of s30 and the 95th
# percentile in that of s120. Each operation also makes 3 to 22 child round
# trips, whose time moves most with the load on the machine; programs of 30
# statements keep that share of the median operation small.
CLASSES = (("s1", 1, 0, 30), ("s30", 30, 0, 40), ("s60", 60, 0, 21), ("s120", 120, 1, 8),
           ("s200", 200, 2, 1))

# Operands of a long sum. The child dies on a sum of about 500 operands (a
# RecursionError escapes its request handler), so these stay well below that.
LONG_SUM = (100, 200)

SIGNATURE = """\
data Stm = exprStm(Expr e) | whileStm(Expr cond, list[Stm] body) | block(list[Stm] stms);
data Expr = intLit(int v) | varRef(str name) | add(Expr lhs, Expr rhs);
"""

RULES = (
    ("Expr", "<Expr a> + 0", "<Expr a>"),
    ("Expr", "0 + <Expr a>", "<Expr a>"),
    ("Stm", "while (0) { <Stm* _> }", "{ }"),
)

_VARS = ("x", "y", "z", "n", "acc", "i", "t0", "v1")


# Canonical ExprLang terms (see model.py)

def lit(n: int):
    return ("intLit", "Expr", (("#int", n),))


def var(name: str):
    return ("varRef", "Expr", (("#str", name),))


def add(lhs, rhs):
    return ("add", "Expr", (lhs, rhs))


def expr_stm(e):
    return ("exprStm", "Stm", (e,))


def while_stm(cond, body):
    return ("whileStm", "Stm", (cond, ("[", "Stm", tuple(body))))


def block(stms):
    return ("block", "Stm", (("[", "Stm", tuple(stms)),))


ZERO = lit(0)


# ---------------------------------------------------------------------------
# Generators: (source text, canonical term)


def gen_operand(rng, depth: int):
    r = rng.random()
    if depth > 0 and r < 0.05:
        text, c = gen_sum(rng, rng.randint(2, 4), depth - 1)
        return f"({text})", c
    if r < 0.3:
        return "0", ZERO
    if r < 0.6:
        n = rng.randint(1, 99)
        return str(n), lit(n)
    name = rng.choice(_VARS)
    return name, var(name)


def gen_sum(rng, operands: int, depth: int = 1):
    parts = [gen_operand(rng, depth) for _ in range(operands)]
    c = parts[0][1]
    for _, x in parts[1:]:
        c = add(c, x)
    return " + ".join(t for t, _ in parts), c


def gen_stm(rng, depth: int):
    r = rng.random()
    if depth > 0 and r < 0.1:
        cond = ("0", ZERO) if rng.random() < 0.2 else gen_sum(rng, rng.randint(1, 3))
        body = [gen_stm(rng, depth - 1) for _ in range(rng.randint(0, 4))]
        text = f"while ({cond[0]}) {{ " + " ".join(t for t, _ in body) + " }"
        return text, while_stm(cond[1], [c for _, c in body])
    if depth > 0 and r < 0.18:
        body = [gen_stm(rng, depth - 1) for _ in range(rng.randint(0, 3))]
        return "{ " + " ".join(t for t, _ in body) + " }", block([c for _, c in body])
    text, e = gen_sum(rng, rng.randint(1, 12))
    return text + ";", expr_stm(e)


def gen_program(rng, statements: int, long_sums: int):
    stms = [gen_stm(rng, 2) for _ in range(statements - long_sums)]
    for _ in range(long_sums):
        text, e = gen_sum(rng, rng.randint(*LONG_SUM))
        stms.insert(rng.randint(0, len(stms)), (text + ";", expr_stm(e)))
    return "{ " + " ".join(t for t, _ in stms) + " }", block([c for _, c in stms])


def gen_query(rng):
    """(fragment, canonical pattern) with 1 to 20 holes; names may repeat."""
    if rng.random() < 0.25:
        return "while (<Expr c>) { <Stm* body> }", ("whileStm", "Stm", (("?", "c"), ("[*", "Stm", "body")))
    holes = rng.choice((1, 1, 2, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20))
    names: list = []
    for i in range(holes):
        names.append(rng.choice(names) if names and rng.random() < 0.15 else f"e{i}")
    operands = [(f"<Expr {n}>", ("?", n)) for n in names]
    for _ in range(rng.choice((0, 0, 1, 2))):
        operands.insert(rng.randint(0, len(operands)), rng.choice((("0", ZERO), ("1", lit(1)), ("x", var("x")))))
    p = operands[0][1]
    for _, q in operands[1:]:
        p = add(p, q)
    return " + ".join(t for t, _ in operands) + ";", expr_stm(p)


# ---------------------------------------------------------------------------
# Reference semantics


def collect(stm, pattern, path: tuple, hits: list) -> None:
    """Bottom-up, left to right over Stm nodes, with csbb's term paths."""
    if stm[0] == "block":
        for i, s in enumerate(stm[2][0][2]):
            collect(s, pattern, path + (0, i), hits)
    elif stm[0] == "whileStm":
        for i, s in enumerate(stm[2][1][2]):
            collect(s, pattern, path + (1, i), hits)
    env = match_canon(pattern, stm, {})
    if env is not None:
        hits.append((path, env))


def simplify(c):
    """One bottom-up pass of RULES; the first rule that applies fires once."""
    head = c[0]
    if head == "add":
        lhs, rhs = simplify(c[2][0]), simplify(c[2][1])
        if rhs == ZERO:
            return lhs
        if lhs == ZERO:
            return rhs
        return add(lhs, rhs)
    if head == "exprStm":
        return expr_stm(simplify(c[2][0]))
    if head == "whileStm":
        cond = simplify(c[2][0])
        body = [simplify(s) for s in c[2][1][2]]
        return block([]) if cond == ZERO else while_stm(cond, body)
    if head == "block":
        return block([simplify(s) for s in c[2][0][2]])
    return c


def stm_nodes(c) -> int:
    """Stm subterms: the subtrees visit_collect tries a Stm query on."""
    n = 0
    stack = [c]
    while stack:
        s = stack.pop()
        n += 1
        if s[0] == "block":
            stack.extend(s[2][0][2])
        elif s[0] == "whileStm":
            stack.extend(s[2][1][2])
    return n


def write_config(work_dir: str) -> str:
    with open(os.path.join(work_dir, "exprlang.sig"), "w", encoding="utf-8") as f:
        f.write(SIGNATURE)
    command = [sys.executable, "-m", "csbb.exprlang"]
    config = {
        "nonterminals": {
            "Stm": {"command": command, "signature": "exprlang.sig", "hole": "_hole_{id};"},
            "Expr": {"command": command, "signature": "exprlang.sig", "hole": "_hole_{id}"},
        }
    }
    path = os.path.join(work_dir, "registry.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(config, f)
    return path


class Workload:
    name = "expr-rewrite"
    classes = tuple(c[0] for c in CLASSES)

    def make_round(self, rng) -> list:
        ops = []
        for cls, statements, long_sums, count in CLASSES:
            for _ in range(count):
                text, program = gen_program(rng, statements, long_sums)
                query_text, query = gen_query(rng)
                ops.append(Op(cls, (text, query_text), (program, query)))
        rng.shuffle(ops)
        return ops

    def setup(self, m, work_dir):
        reg = m.concrete.load_registry_config(write_config(work_dir))
        try:
            rules = [
                (m.concrete.to_pattern(nt, lhs, reg), m.concrete.to_pattern(nt, rhs, reg))
                for nt, lhs, rhs in RULES
            ]
        except BaseException:
            reg.close()
            raise
        return types.SimpleNamespace(reg=reg, rules=rules)

    def close(self, st) -> None:
        st.reg.close()

    def run(self, api, st, op):
        text, query_text = op.input
        program = api.parse_term("Stm", text, st.reg)
        query = api.to_pattern("Stm", query_text, st.reg)
        hits = api.visit_collect(program, query)
        rewritten = api.visit_rewrite(program, st.rules)
        return types.SimpleNamespace(program=program, hits=hits, rewritten=rewritten)

    def check(self, op, out) -> str | None:
        program, query = op.expect
        if canon(out.program) != program:
            return "the parsed program is not the generator's AST"
        hits: list = []
        collect(program, query, (), hits)
        if [(path, canon_env(env)) for path, env in out.hits] != hits:
            return "visit_collect gave the wrong hits"
        if canon(out.rewritten) != simplify(program):
            return "visit_rewrite differs from the reference simplifier"
        return None

    def counts(self, op, out) -> dict:
        return {"terms.nodes": term_nodes(out.program), "hits": len(out.hits),
                "tried": stm_nodes(op.expect[0])}
