"""Shared fixtures: generators, brute-force oracles, and golden texts."""

from __future__ import annotations

import itertools
import json
import math
import re
import struct
from dataclasses import dataclass

from csbb.concrete import (
    ConcretePattern,
    EmptyHoleType,
    Hole,
    HoleCaptured,
    HoleNameConflict,
    HoleNotFound,
    MalformedHole,
    StarHoleNotInList,
    TextChunk,
    UnterminatedHole,
)
from csbb.exprlang import ExprLangSyntaxError
from csbb.jsonlang import (
    JSON_SIGNATURE,
    JsonSyntaxError,
    array,
    boolean,
    null_,
    number,
    obj,
    parse_json,
    prop,
    string,
)
from csbb.lexing import line_col
from csbb.patterns import (
    IllTypedRule,
    MatchTypeError,
    PatternStructureError,
    PCon,
    PList,
    PLit,
    PSeqVar,
    PSeqWild,
    PVar,
    PWild,
    TypeMismatch,
    UnboundVariable,
    instantiate,
    match_first,
    pattern_has_wildcards,
    pattern_root_type,
    pattern_vars,
    types_compatible,
)
from csbb.terms import (
    MAYBE_TYPE,
    PRIM_KINDS,
    ArgType,
    Con,
    Constructor,
    ListTerm,
    Prim,
    Signature,
    SignatureSyntaxError,
    TypeIssue,
    _describe,
    adt,
    check_term,
    encode_argtype,
    encode_term,
    format_real,
    just_,
    list_of,
    maybe_of,
    nothing_,
    prim,
    render_signature,
    term_root_type,
)
from csbb.tympanic import (
    ArityMismatch,
    CastFailure,
    ClassMapping,
    EnumType,
    FArr,
    FBool,
    FEnum,
    FInt,
    FObj,
    FReal,
    FStr,
    FieldSpec,
    ForeignLit,
    MarshalError,
    NoApplicableRule,
    NullNotOptional,
    Rule,
    SchemaError,
    TemplateArg,
    TympanicSpec,
    TympanicSyntaxError,
    _field_argtype,
    _mapped_adt,
)

# ---------------------------------------------------------------------------
# Expression-language mapping fixture (class hierarchy + mapping + module)

EXPR_MAPPING = """\
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

EXPR_SCHEMA = {
    "types": [
        {"enum": "Op", "constants": ["PLUS", "TIMES", "MINUS", "SLASH"]},
        {"abstract": "Object"},
        {"abstract": "Expr"},
        {
            "concrete": "Binary",
            "implements": ["Expr"],
            "members": [
                {"name": "getLhs", "type": "Expr"},
                {"name": "getRhs", "type": "Expr"},
                {"name": "getOp", "type": "Op"},
            ],
        },
        {
            "concrete": "Cond",
            "implements": ["Expr"],
            "members": [
                {"name": "getCond", "type": "Expr"},
                {"name": "getThen", "type": "Expr"},
                {"name": "getElse", "type": "Expr"},
            ],
        },
        {
            "concrete": "Block",
            "implements": ["Expr"],
            "members": [{"name": "getBody", "type": {"array": "Expr"}}],
        },
        {
            "concrete": "Lit",
            "implements": ["Expr"],
            "members": [{"name": "getValue", "type": "Object"}],
        },
    ]
}

EXPR_MODULE = """\
module expr::Expr

data Expr
  = add(Expr lhs, Expr rhs) | mul(Expr lhs, Expr rhs) | sub(Expr lhs, Expr rhs) | div(Expr lhs, Expr rhs)
  | ifThen(Expr cond, Expr then) | ifThenElse(Expr cond, Expr then, Expr els)
  | block(list[Expr] body)
  | integer(int intVal) | boolean(bool boolVal) | string(str strVal);
"""

INLINE_ENUM_MAPPING = """\
mapping ExprAst

import expressions

export expr::Expr

types Expr => Expr

constructors

Binary
- getOp == Op.PLUS, getLhs, getRhs: binary(Op op = plus(), lhs, rhs)
"""


def tokens(text: str) -> list:
    """Token stream for whitespace-insensitive golden comparison."""
    return re.findall(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|\S", text)


def lit_value(doc) -> dict:
    return doc


def fobj(tag: str, **fields) -> dict:
    return {"type": tag, "fields": fields}


# ---------------------------------------------------------------------------
# Random JSON terms

_KEY_POOL = ["name", "age", "x", "y", "tag", "k"]
_STR_POOL = ["", "Rodin", "a b", 'quo"te', "back\\slash", "line\nbreak", "tab\t", "ünïcode", "_hole"]


def gen_json_term(rng, depth: int = 3):
    kinds = ["null", "bool", "number", "string"]
    if depth > 0:
        kinds += ["array", "object", "array", "object"]
    k = rng.choice(kinds)
    if k == "null":
        return null_()
    if k == "bool":
        return boolean(rng.random() < 0.5)
    if k == "number":
        return number(gen_real(rng))
    if k == "string":
        return string(rng.choice(_STR_POOL))
    if k == "array":
        return array([gen_json_term(rng, depth - 1) for _ in range(rng.randint(0, 3))])
    return obj(
        [
            prop(rng.choice(_KEY_POOL), gen_json_term(rng, depth - 1))
            for _ in range(rng.randint(0, 3))
        ]
    )


def gen_real(rng) -> float:
    style = rng.randint(0, 3)
    if style == 0:
        return float(rng.randint(-50, 50))
    if style == 1:
        return rng.randint(-400, 400) / 8.0
    if style == 2:
        return rng.random() * 10 ** rng.randint(-3, 3)
    return -rng.random()


def gen_json_object(rng, max_props: int = 6):
    """An object with up to max_props properties; 'name' keys are common."""
    n = rng.randint(0, max_props)
    props = []
    for _ in range(n):
        key = "name" if rng.random() < 0.4 else rng.choice(_KEY_POOL)
        props.append(prop(key, gen_json_term(rng, 1)))
    return obj(props)


# ---------------------------------------------------------------------------
# Brute-force oracles


def brute_well_typed(sig, t, at) -> bool:
    """Reference checker: try every declared constructor at each node."""
    if at.kind == "prim":
        return isinstance(t, Prim) and t.kind == at.name
    if at.kind == "adt":
        if not isinstance(t, Con) or t.type != at.name:
            return False
        return any(
            c.name == t.name
            and c.arity == len(t.args)
            and all(brute_well_typed(sig, s, a) for s, (_, a) in zip(t.args, c.args))
            for c in sig.constructors_of(at.name)
        )
    if at.kind == "list":
        return (
            isinstance(t, ListTerm)
            and t.elem_type == at.elem
            and all(brute_well_typed(sig, e, at.elem) for e in t.elems)
        )
    # maybe
    if not isinstance(t, Con) or t.type != "Maybe":
        return False
    if t.name == "nothing":
        return not t.args
    return t.name == "just" and len(t.args) == 1 and brute_well_typed(sig, t.args[0], at.elem)


def term_equals(a, b) -> bool:
    """Structural equality. Reals compare by the exact bit pattern of the float."""
    if isinstance(a, Con) and isinstance(b, Con):
        return (
            a.name == b.name
            and a.type == b.type
            and len(a.args) == len(b.args)
            and all(term_equals(x, y) for x, y in zip(a.args, b.args))
        )
    if isinstance(a, Prim) and isinstance(b, Prim):
        if a.kind != b.kind:
            return False
        if a.kind == "real":
            return struct.pack("<d", a.value) == struct.pack("<d", b.value)
        return a.value == b.value
    if isinstance(a, ListTerm) and isinstance(b, ListTerm):
        return (
            a.elem_type == b.elem_type
            and len(a.elems) == len(b.elems)
            and all(term_equals(x, y) for x, y in zip(a.elems, b.elems))
        )
    return False


def lift_oracle(t, table: list, *, lenient: bool = False):
    """Reference lift: compares every node with every hole image."""
    counts = {entry.index: 0 for entry in table}

    def replace(entry, in_list: bool):
        if entry.star:
            if not in_list:
                raise StarHoleNotInList(entry.index)
            if entry.name == "_":
                return PSeqWild(adt(entry.type))
            return PSeqVar(entry.name, adt(entry.type))
        if entry.name == "_":
            return PWild(adt(entry.type))
        return PVar(entry.name, adt(entry.type))

    def go(node, in_list: bool):
        for entry in table:
            if term_equals(entry.image, node):
                counts[entry.index] += 1
                return replace(entry, in_list), True
        if isinstance(node, Con):
            lifted = [go(a, False) for a in node.args]
            if any(h for _, h in lifted):
                return PCon(node.name, node.type, tuple(p for p, _ in lifted)), True
            return PLit(node), False
        if isinstance(node, ListTerm):
            lifted = [go(e, True) for e in node.elems]
            if any(h for _, h in lifted):
                return PList(tuple(p for p, _ in lifted), node.elem_type), True
            return PLit(node), False
        return PLit(node), False

    pattern, _ = go(t, False)
    for entry in table:
        n = counts[entry.index]
        if n == 0:
            raise HoleNotFound(entry.index)
        if n > 1 and not lenient:
            raise HoleCaptured(entry.index, n)
    return pattern


# The matcher and traversals as they were before constructor arguments and
# list elements shared one index-walking matcher: wildcards match any term,
# and sequences are matched by slicing.


def match_oracle(p, t):
    """Reference match: the root type test, then the slicing matcher."""
    ptype = pattern_root_type(p)
    if not types_compatible(ptype, term_root_type(t)):
        raise MatchTypeError(f"pattern of type {ptype} cannot match term of type {term_root_type(t)}")
    return _match_oracle(p, t, {})


def _match_oracle(p, t, env):
    if isinstance(p, PWild):
        yield env
    elif isinstance(p, PVar):
        if p.name in env:
            if env[p.name] == t:  # a sequence binding, a tuple, never equals a term
                yield env
        elif types_compatible(p.type, term_root_type(t)):
            yield {**env, p.name: t}
    elif isinstance(p, PLit):
        if p.term == t:
            yield env
    elif isinstance(p, PCon):
        if (
            isinstance(t, Con)
            and t.name == p.name
            and t.type == p.type
            and len(t.args) == len(p.args)
        ):
            yield from _match_all_oracle(p.args, t.args, 0, env)
    elif isinstance(p, PList):
        if isinstance(t, ListTerm) and t.elem_type == p.elem_type:
            yield from _match_seq_oracle(p.elems, t.elems, env)
    else:
        raise PatternStructureError("sequence pattern used outside a list")


def _match_all_oracle(ps, ts, i, env):
    if i == len(ps):
        yield env
        return
    for env2 in _match_oracle(ps[i], ts[i], env):
        yield from _match_all_oracle(ps, ts, i + 1, env2)


def _match_seq_oracle(ps, ts, env):
    if not ps:
        if not ts:
            yield env
        return
    head, rest = ps[0], ps[1:]
    if isinstance(head, PSeqWild):
        for k in range(len(ts) + 1):
            yield from _match_seq_oracle(rest, ts[k:], env)
    elif isinstance(head, PSeqVar):
        if head.name in env:
            bound = env[head.name]
            if isinstance(bound, tuple) and bound == ts[:len(bound)]:
                yield from _match_seq_oracle(rest, ts[len(bound):], env)
        else:
            for k in range(len(ts) + 1):
                yield from _match_seq_oracle(rest, ts[k:], {**env, head.name: tuple(ts[:k])})
    else:
        if ts:
            for env2 in _match_oracle(head, ts[0], env):
                yield from _match_seq_oracle(rest, ts[1:], env2)


def _children(t) -> tuple:
    if isinstance(t, Con):
        return t.args
    if isinstance(t, ListTerm):
        return t.elems
    return ()


def visit_collect_oracle(t, p) -> list:
    """Reference visit_collect: a root type gate, then the first env, at every node."""
    ptype = pattern_root_type(p)
    hits: list = []

    def walk(node, path):
        for i, child in enumerate(_children(node)):
            walk(child, path + (i,))
        if types_compatible(ptype, term_root_type(node)):
            env = next(match_oracle(p, node), None)
            if env is not None:
                hits.append((path, env))

    walk(t, ())
    return hits


def visit_rewrite_oracle(t, rules: list):
    """Reference visit_rewrite: rule checks, then one gated bottom-up pass."""
    checked: list = []
    for lhs, rhs in rules:
        try:
            lhs_vars = pattern_vars(lhs)
            rhs_vars = pattern_vars(rhs)
            lhs_type = pattern_root_type(lhs)
            rhs_type = pattern_root_type(rhs)
        except PatternStructureError as e:
            raise IllTypedRule(str(e)) from None
        if pattern_has_wildcards(rhs):
            raise IllTypedRule("rule right side contains a wildcard")
        for name, spec in rhs_vars.items():
            if lhs_vars.get(name) != spec:
                raise IllTypedRule(f"rule right side uses {name!r} not bound by the left side")
        if not types_compatible(lhs_type, rhs_type):
            raise IllTypedRule(f"rule sides have different types: {lhs_type} vs {rhs_type}")
        checked.append((lhs, rhs, lhs_type))

    def rewrite(node):
        if isinstance(node, Con):
            node = Con(node.name, node.type, tuple(rewrite(c) for c in node.args))
        elif isinstance(node, ListTerm):
            node = ListTerm(tuple(rewrite(e) for e in node.elems), node.elem_type)
        for lhs, rhs, lhs_type in checked:
            if types_compatible(lhs_type, term_root_type(node)):
                env = next(match_oracle(lhs, node), None)
                if env is not None:
                    return instantiate(rhs, env)
        return node

    return rewrite(t)


_HOLE_BODY = re.compile(
    r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:(\*)\s*|\s+)([A-Za-z_][A-Za-z0-9_]*)\s*$"
)


def split_fragment_oracle(nonterminal: str, text: str):
    """Reference split_fragment: copies the text one character at a time."""
    parts: list = []
    buf: list = []
    names: dict = {}
    index = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text) and text[i + 1] == "<":
            buf.append("<")
            i += 2
            continue
        if ch != "<":
            buf.append(ch)
            i += 1
            continue
        end = text.find(">", i + 1)
        if end < 0:
            raise UnterminatedHole(f"hole opened at offset {i} has no closing '>'")
        body = text[i + 1:end]
        if not body.strip():
            raise EmptyHoleType(f"hole at offset {i} has no type")
        m = _HOLE_BODY.match(body)
        if m is None:
            if re.fullmatch(r"\s*\**\s*[A-Za-z_][A-Za-z0-9_]*\s*\**\s*", body):
                raise MalformedHole(f"hole <{body}> must be written <Type name> or <Type* name>")
            raise MalformedHole(f"hole <{body}> is not of the form <Type name>")
        hole_type, star, name = m.group(1), m.group(2) is not None, m.group(3)
        if name != "_":
            prior = names.setdefault(name, (hole_type, star))
            if prior != (hole_type, star):
                raise HoleNameConflict(f"hole name {name!r} reused with a different type")
        if buf:
            parts.append(TextChunk("".join(buf)))
            buf = []
        parts.append(Hole(index, name, hole_type, star))
        index += 1
        i = end + 1
    if buf:
        parts.append(TextChunk("".join(buf)))
    return ConcretePattern(nonterminal, tuple(parts))


def _compositions(total: int, k: int):
    """All k-tuples of nonnegative ints summing to total, lexicographically."""
    if k == 0:
        return [()] if total == 0 else []
    return [
        (first,) + rest
        for first in range(total + 1)
        for rest in _compositions(total - first, k - 1)
    ]


def _check_single(p, t, env):
    """Non-backtracking element check for the split oracle; None = no match."""
    if isinstance(p, PWild):
        return env
    if isinstance(p, PLit):
        return env if term_equals(p.term, t) else None
    if isinstance(p, PVar):
        if p.name in env:
            bound = env[p.name]
            ok = not isinstance(bound, tuple) and term_equals(bound, t)
            return env if ok else None
        return {**env, p.name: t}
    raise AssertionError(f"oracle cannot handle element pattern {p}")


def brute_list_envs(pelems, telems) -> list:
    """Split-enumeration oracle: pick every segmentation, then verify it."""
    seq_slots = [i for i, p in enumerate(pelems) if isinstance(p, (PSeqVar, PSeqWild))]
    singles = len(pelems) - len(seq_slots)
    budget = len(telems) - singles
    out = []
    for lens in _compositions(budget, len(seq_slots)) if budget >= 0 else []:
        it = iter(lens)
        pos = 0
        env: dict = {}
        ok = True
        for p in pelems:
            width = next(it) if isinstance(p, (PSeqVar, PSeqWild)) else 1
            piece = tuple(telems[pos:pos + width])
            pos += width
            if isinstance(p, PSeqWild):
                continue
            if isinstance(p, PSeqVar):
                if p.name in env:
                    bound = env[p.name]
                    if not (
                        isinstance(bound, tuple)
                        and len(bound) == len(piece)
                        and all(term_equals(a, b) for a, b in zip(bound, piece))
                    ):
                        ok = False
                        break
                else:
                    env[p.name] = piece
                continue
            env = _check_single(p, piece[0], env)
            if env is None:
                ok = False
                break
        if ok:
            out.append(env)
    return out


def binary_chain_text(links: int) -> str:
    """JSON text of a left-nested chain of PLUS Binary nodes, two JSON levels per link.

    Built as text: json.dumps recurses once per level.
    """
    head = '{"type": "Binary", "fields": {"getOp": {"enum": "Op.PLUS"}, "getLhs": '
    tail = ', "getRhs": ' + json.dumps(fobj("Lit", getValue={"int": 1})) + "}}"
    return head * links + json.dumps(fobj("Lit", getValue={"int": 0})) + tail * links


def outcome(f, *args):
    """f's result, or the type and message of the exception it raised."""
    try:
        return f(*args)
    except Exception as e:
        return type(e), str(e)


def all_subtrees(t) -> list:
    """(path, subterm) pairs in bottom-up, left-to-right order."""
    out = []

    def walk(node, path):
        children = node.args if isinstance(node, Con) else (
            node.elems if isinstance(node, ListTerm) else ()
        )
        for i, child in enumerate(children):
            walk(child, path + (i,))
        out.append((path, node))

    walk(t, ())
    return out


def replace_at(t, path: tuple, new):
    """t with the subterm at path (child indices) replaced by new."""
    if not path:
        return new
    i, rest = path[0], path[1:]
    if isinstance(t, Con):
        args = list(t.args)
        args[i] = replace_at(args[i], rest, new)
        return Con(t.name, t.type, tuple(args))
    elems = list(t.elems)
    elems[i] = replace_at(elems[i], rest, new)
    return ListTerm(tuple(elems), t.elem_type)


def brute_rewrite(t, rules):
    """Reference one-pass rewriter, recursion written out by hand."""

    def first_applicable(node):
        for lhs, rhs in rules:
            if not types_compatible(pattern_root_type(lhs), term_root_type(node)):
                continue
            env = match_first(lhs, node)
            if env is not None:
                return instantiate(rhs, env)
        return node

    def walk(node):
        if isinstance(node, Con):
            rebuilt = Con(node.name, node.type, tuple(walk(a) for a in node.args))
        elif isinstance(node, ListTerm):
            rebuilt = ListTerm(tuple(walk(e) for e in node.elems), node.elem_type)
        else:
            rebuilt = node
        return first_applicable(rebuilt)

    return walk(t)


def env_key(env) -> tuple:
    """Canonical form of an env for multiset comparison."""
    items = []
    for name in sorted(env):
        v = env[name]
        if isinstance(v, tuple):
            items.append((name, tuple(encode_term(x) for x in v)))
        else:
            items.append((name, encode_term(v)))
    return tuple(items)


def envs_multiset(envs) -> list:
    return sorted(env_key(e) for e in envs)


# ---------------------------------------------------------------------------
# Enumerations for the exhaustive list-match suite

ATOM_X = number(1.0)
ATOM_Y = number(2.0)


def enumerate_list_patterns(max_len: int = 5, max_seq: int = 3, max_lit: int = 2):
    """Every element sequence over {seq a/b/c, lit X, lit Y} within the bounds.

    Sequence-variable names are canonicalized to first-use order a, b, c so
    pure renamings are not enumerated twice.
    """
    elem_kinds = ["s0", "s1", "s2", "litx", "lity"]
    patterns = []
    seen = set()
    for length in range(max_len + 1):
        for combo in itertools.product(elem_kinds, repeat=length):
            n_seq = sum(1 for c in combo if c.startswith("s"))
            n_lit = length - n_seq
            if n_seq > max_seq or n_lit > max_lit:
                continue
            # canonicalize names by first occurrence
            mapping = {}
            canon = []
            for c in combo:
                if c.startswith("s"):
                    if c not in mapping:
                        mapping[c] = "abc"[len(mapping)]
                    canon.append("seq:" + mapping[c])
                else:
                    canon.append(c)
            key = tuple(canon)
            if key in seen:
                continue
            seen.add(key)
            elems = []
            for c in canon:
                if c.startswith("seq:"):
                    elems.append(PSeqVar(c[4:], adt("JSON")))
                else:
                    elems.append(PLit(ATOM_X if c == "litx" else ATOM_Y))
            patterns.append(PList(tuple(elems), adt("JSON")))
    return patterns


def enumerate_atom_lists(max_len: int = 5):
    lists = []
    for length in range(max_len + 1):
        for combo in itertools.product((ATOM_X, ATOM_Y), repeat=length):
            lists.append(ListTerm(combo, adt("JSON")))
    return lists


# ---------------------------------------------------------------------------
# Tympanic oracles: the interpreted marshaller, signature inference, foreign
# value reader and supertype walk as they were before the mapping was compiled
# into a plan. The function bodies are copied unchanged; only the names differ
# (marshal_oracle calls infer_signature_oracle).


def supers_closure_oracle(schema, name: str) -> list:
    """name plus all (transitive) supertypes, nearest first, declaration order."""
    out: list = []
    queue = [name]
    while queue:
        n = queue.pop(0)
        if n in out:
            continue
        out.append(n)
        t = schema.types.get(n)
        if t is not None and not isinstance(t, EnumType):
            queue.extend(t.supers)
    return out


def load_foreign_value_oracle(doc):
    """Build a foreign value from its JSON document form (a dict or JSON text)."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as e:
            raise SchemaError(f"foreign value is not valid JSON: {e}") from None
    return _fvalue_oracle(doc)


def _fvalue_oracle(doc):
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise SchemaError(f"malformed foreign value {doc!r}")
    keys = set(doc)
    if keys == {"type", "fields"}:
        return FObj(doc["type"], {k: _fvalue_oracle(v) for k, v in doc["fields"].items()})
    if keys == {"type"}:
        return FObj(doc["type"], {})
    if keys == {"enum"}:
        path = doc["enum"].split(".")
        if len(path) < 2:
            raise SchemaError(f"enum literal {doc['enum']!r} needs the form Enum.CONST")
        return FEnum(path[-2], path[-1])
    if keys == {"int"}:
        return FInt(int(doc["int"]))
    if keys == {"bool"}:
        return FBool(bool(doc["bool"]))
    if keys == {"str"}:
        return FStr(str(doc["str"]))
    if keys == {"real"}:
        return FReal(float(doc["real"]))
    if keys == {"array"}:
        return FArr(tuple(_fvalue_oracle(e) for e in doc["array"]))
    raise SchemaError(f"unrecognized foreign value with keys {sorted(keys)}")


def infer_signature_oracle(spec, schema):
    """Infer the signature and render its module text.

    Returns (Signature, module text). Constructors keep spec order; inline
    enum ADTs are appended after the mapped ADTs.
    """
    ctors: list = []
    enum_ctors: dict = {}
    for cm in spec.mappings:
        adt_name = _mapped_adt(spec, schema, cm.class_name)
        for rule in cm.rules:
            active = rule.active_fields()
            if len(active) != len(rule.args):
                raise ArityMismatch(
                    f"rule for {cm.class_name}: {len(active)} fields feed "
                    f"{rule.ctor}/{len(rule.args)}"
                )
            args: list = []
            for f, a in zip(active, rule.args):
                if a.enum_type is not None:
                    enum_ctors.setdefault(a.enum_type, [])
                    if a.enum_ctor not in enum_ctors[a.enum_type]:
                        enum_ctors[a.enum_type].append(a.enum_ctor)
                    args.append((a.name, adt(a.enum_type)))
                else:
                    args.append((a.name, _field_argtype(spec, schema, cm.class_name, f)))
            ctors.append(Constructor(rule.ctor, adt_name, tuple(args)))
    for enum_name, names in enum_ctors.items():
        for n in names:
            ctors.append(Constructor(n, enum_name, ()))
    types = {c.type for c in ctors} | {a for _, a in spec.types}
    sig = Signature(frozenset(types), tuple(ctors))
    module = "module " + "::".join(spec.export) + "\n\n" + render_signature(sig)
    return sig, module


def _runtime_conforms(schema, v, target: str) -> bool:
    if v is None:
        return False
    if isinstance(v, FObj):
        return target in schema.types and schema.is_subtype(v.tag, target)
    if isinstance(v, FEnum):
        return v.enum == target
    kind = {FInt: "Integer", FBool: "Boolean", FStr: "String", FReal: "Double"}.get(type(v))
    return kind == target


def _lit_matches(lit, v) -> bool:
    if lit.kind == "null":
        return v is None
    if lit.kind == "bool":
        return isinstance(v, FBool) and v.value is lit.value
    if lit.kind == "int":
        return isinstance(v, FInt) and v.value == lit.value
    # Enum constant paths compare on the trailing Enum.CONST components so
    # package qualifiers in the mapping file are tolerated.
    if not isinstance(v, FEnum):
        return False
    path = lit.value
    if path[-1] != v.const:
        return False
    return len(path) == 1 or path[-2] == v.enum


def _guard_holds(schema, f, obj) -> bool:
    v = obj.fields.get(f.member)
    if f.kind == "eq":
        return _lit_matches(f.literal, v)
    if f.kind == "neq":
        return not _lit_matches(f.literal, v)
    if f.kind == "cast":
        return _runtime_conforms(schema, v, f.cast_to)
    if f.kind == "cast_array":
        return isinstance(v, FArr) and all(
            _runtime_conforms(schema, e, f.cast_to) for e in v.elems
        )
    return True  # plain and optional never fail


def marshal_oracle(spec, schema, value):
    """Convert a foreign value to a term over the inferred signature.

    Dispatch picks the most specific rule set whose class is a supertype of
    the value's tag; its rules fire in textual order, first applicable wins.
    """
    sig, _ = infer_signature_oracle(spec, schema)
    rules_by_class = {cm.class_name: cm for cm in spec.mappings}

    def dispatch(v, path: tuple):
        if not isinstance(v, FObj):
            raise NoApplicableRule(f"cannot dispatch on {type(v).__name__} value", path)
        cm = None
        for name in schema.supers_closure(v.tag):
            cm = rules_by_class.get(name)
            if cm is not None:
                break
        if cm is None:
            raise NoApplicableRule(f"no rules cover class {v.tag}", path)
        for rule in cm.rules:
            if all(_guard_holds(schema, f, v) for f in rule.fields):
                return fire(cm.class_name, rule, v, path)
        raise NoApplicableRule(f"no rule for {cm.class_name} applies to this {v.tag}", path)

    def fire(class_name: str, rule, obj, path: tuple):
        args: list = []
        for f, a in zip(rule.active_fields(), rule.args):
            if a.enum_type is not None:
                args.append(Con(a.enum_ctor, a.enum_type, ()))
                continue
            at = _field_argtype(spec, schema, class_name, f)
            args.append(convert(obj.fields.get(f.member), at, path + (f.member,)))
        return Con(rule.ctor, _mapped_adt(spec, schema, class_name), tuple(args))

    def convert(v, at, path: tuple):
        if at.kind == "maybe":
            return nothing_() if v is None else just_(convert(v, at.elem, path))
        if v is None:
            raise NullNotOptional("null in a non-optional position", path)
        if at.kind == "prim":
            expected = {"int": FInt, "bool": FBool, "str": FStr, "real": FReal}[at.name]
            if isinstance(v, expected):
                value = float(v.value) if at.name == "real" else v.value
                return Prim(at.name, value)
            raise CastFailure(f"expected a {at.name} value, got {type(v).__name__}", path)
        if at.kind == "list":
            if not isinstance(v, FArr):
                raise CastFailure(f"expected an array, got {type(v).__name__}", path)
            return ListTerm(
                tuple(convert(e, at.elem, path + (i,)) for i, e in enumerate(v.elems)), at.elem
            )
        # adt
        if not isinstance(v, FObj):
            raise CastFailure(f"expected an object, got {type(v).__name__}", path)
        return dispatch(v, path)

    result = dispatch(value, ())
    root_adt = _mapped_adt(spec, schema, value.tag)
    issues = check_term(sig, result, adt(root_adt))
    if issues:  # the rules above should make this impossible
        raise MarshalError(f"marshalled term is ill-typed: {issues[0]}", ())
    return result


# ---------------------------------------------------------------------------
# The recursive walkers as they were before terms and patterns shared one
# explicit-stack fold and one emitter. print_json_oracle checks with
# check_term_oracle, and quotes strings with the old _quote.


def check_term_oracle(sig: Signature, t: Term, expected: ArgType) -> list:
    """Check t against expected; returns a list of TypeIssue (empty = well-typed)."""
    issues: list = []

    def go(node: Term, at: ArgType, path: tuple) -> None:
        if at.kind == "prim":
            if not (isinstance(node, Prim) and node.kind == at.name):
                issues.append(TypeIssue(path, f"expected {at}, got {_describe(node)}"))
        elif at.kind == "adt":
            if not (isinstance(node, Con) and node.type == at.name):
                issues.append(TypeIssue(path, f"expected {at}, got {_describe(node)}"))
                return
            con = sig.find(node.type, node.name, len(node.args))
            if con is None:
                issues.append(
                    TypeIssue(path, f"{at.name} declares no constructor {node.name}/{len(node.args)}")
                )
                return
            for i, ((_, arg_type), sub) in enumerate(zip(con.args, node.args)):
                go(sub, arg_type, path + (i,))
        elif at.kind == "list":
            if not isinstance(node, ListTerm):
                issues.append(TypeIssue(path, f"expected {at}, got {_describe(node)}"))
                return
            if node.elem_type != at.elem:
                issues.append(
                    TypeIssue(path, f"list element type {node.elem_type} does not match {at.elem}")
                )
                return
            for i, e in enumerate(node.elems):
                go(e, at.elem, path + (i,))
        else:  # maybe
            if isinstance(node, Con) and node.type == MAYBE_TYPE:
                if node.name == "nothing" and not node.args:
                    return
                if node.name == "just" and len(node.args) == 1:
                    go(node.args[0], at.elem, path + (0,))
                    return
            issues.append(TypeIssue(path, f"expected {at}, got {_describe(node)}"))

    go(t, expected, ())
    return issues


def encode_term_oracle(t: Term) -> str:
    """Deterministic canonical encoding: fixed key order, canonical numbers."""
    out: list = []
    _enc_oracle(t, out)
    return "".join(out)


def _enc_oracle(t: Term, out: list) -> None:
    if isinstance(t, Con):
        out.append('{"con":' + json.dumps(t.name) + ',"type":' + json.dumps(t.type) + ',"args":[')
        for i, a in enumerate(t.args):
            if i:
                out.append(",")
            _enc_oracle(a, out)
        out.append("]}")
    elif isinstance(t, Prim):
        if t.kind == "int":
            out.append('{"int":%d}' % t.value)
        elif t.kind == "real":
            out.append('{"real":' + format_real(t.value) + "}")
        elif t.kind == "bool":
            out.append('{"bool":true}' if t.value else '{"bool":false}')
        else:
            out.append('{"str":' + json.dumps(t.value, ensure_ascii=False) + "}")
    else:
        out.append('{"list":[')
        for i, e in enumerate(t.elems):
            if i:
                out.append(",")
            _enc_oracle(e, out)
        out.append('],"elem":' + encode_argtype(t.elem_type) + "}")


def pretty_term_oracle(t: Term) -> str:
    out: list = []
    _render_oracle(t, out)
    return "".join(out)
def _render_oracle(t: Term, out: list) -> None:
    if isinstance(t, Con):
        out.append(t.name)
        out.append("(")
        for i, a in enumerate(t.args):
            if i:
                out.append(",")
            _render_oracle(a, out)
        out.append(")")
    elif isinstance(t, Prim):
        if t.kind == "int":
            out.append(str(t.value))
        elif t.kind == "real":
            out.append(format_real(t.value))
        elif t.kind == "bool":
            out.append("true" if t.value else "false")
        else:
            out.append(json.dumps(t.value, ensure_ascii=False))
    else:
        out.append("[")
        for i, e in enumerate(t.elems):
            if i:
                out.append(",")
            _render_oracle(e, out)
        out.append("]")


def print_json_oracle(t: Term) -> str:
    """Canonical rendering: quoted keys, no insignificant whitespace.

    parse_json(print_json(t)) == t for every term well-typed at JSON;
    parse_prop inverts it for Prop terms.
    """
    root = "Prop" if isinstance(t, Con) and t.type == "Prop" else "JSON"
    issues = check_term_oracle(JSON_SIGNATURE, t, adt(root))
    if issues:
        raise ValueError(f"not a well-typed {root} term: {issues[0]}")
    out: list = []
    _print_oracle(t, out)
    return "".join(out)


def _print_oracle(t: Term, out: list) -> None:
    if t.name == "null":
        out.append("null")
    elif t.name == "boolean":
        out.append("true" if t.args[0].value else "false")
    elif t.name == "number":
        out.append(format_real(t.args[0].value))
    elif t.name == "string":
        out.append(_quote_oracle(t.args[0].value))
    elif t.name == "array":
        out.append("[")
        for i, e in enumerate(t.args[0].elems):
            if i:
                out.append(",")
            _print_oracle(e, out)
        out.append("]")
    elif t.name == "object":
        out.append("{")
        for i, p in enumerate(t.args[0].elems):
            if i:
                out.append(",")
            _print_oracle(p, out)
        out.append("}")
    else:  # prop
        out.append(_quote_oracle(t.args[0].args[0].value))
        out.append(":")
        _print_oracle(t.args[1], out)


_QUOTE_MAP_ORACLE = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _quote_oracle(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch in _QUOTE_MAP_ORACLE:
            out.append(_QUOTE_MAP_ORACLE[ch])
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def pattern_vars_oracle(p: Pattern) -> dict:
    """Map variable name -> ("var" | "seq", declared ArgType). Wildcards are skipped."""
    out: dict = {}

    def go(q: Pattern) -> None:
        if isinstance(q, PVar):
            if out.setdefault(q.name, ("var", q.type)) != ("var", q.type):
                raise PatternStructureError(f"variable {q.name!r} used at conflicting types")
        elif isinstance(q, PSeqVar):
            if out.setdefault(q.name, ("seq", q.elem_type)) != ("seq", q.elem_type):
                raise PatternStructureError(f"variable {q.name!r} used at conflicting types")
        elif isinstance(q, PCon):
            for a in q.args:
                go(a)
        elif isinstance(q, PList):
            for e in q.elems:
                go(e)

    go(p)
    return out


def pattern_has_wildcards_oracle(p: Pattern) -> bool:
    if isinstance(p, (PWild, PSeqWild)):
        return True
    if isinstance(p, PCon):
        return any(pattern_has_wildcards_oracle(a) for a in p.args)
    if isinstance(p, PList):
        return any(pattern_has_wildcards_oracle(e) for e in p.elems)
    return False


def instantiate_oracle(p: Pattern, env: Env) -> Term:
    """Splice env's bindings into p. p must be wildcard-free and closed under env."""
    if isinstance(p, PLit):
        return p.term
    if isinstance(p, PVar):
        if p.name not in env:
            raise UnboundVariable(p.name)
        v = env[p.name]
        if isinstance(v, tuple):
            raise TypeMismatch(p.name, "is a sequence but the variable binds one term")
        if not types_compatible(p.type, term_root_type(v)):
            raise TypeMismatch(p.name, f"has type {term_root_type(v)}, expected {p.type}")
        return v
    if isinstance(p, PCon):
        return Con(p.name, p.type, tuple(instantiate_oracle(a, env) for a in p.args))
    if isinstance(p, PList):
        out: list = []
        for e in p.elems:
            if isinstance(e, PSeqVar):
                if e.name not in env:
                    raise UnboundVariable(e.name)
                v = env[e.name]
                if not isinstance(v, tuple):
                    raise TypeMismatch(e.name, "binds one term but the variable is a sequence")
                for item in v:
                    if not types_compatible(e.elem_type, term_root_type(item)):
                        raise TypeMismatch(
                            e.name, f"contains a {term_root_type(item)}, expected {e.elem_type}"
                        )
                out.extend(v)
            elif isinstance(e, (PWild, PSeqWild)):
                raise PatternStructureError("wildcards cannot be instantiated")
            else:
                out.append(instantiate_oracle(e, env))
        return ListTerm(tuple(out), p.elem_type)
    if isinstance(p, (PWild, PSeqWild)):
        raise PatternStructureError("wildcards cannot be instantiated")
    raise PatternStructureError("sequence pattern used outside a list")


# ---------------------------------------------------------------------------
# The builtin Prop parser as it was before it became a wrap/project entry of
# the one strict context projection (concrete.make_parse_fn).


class WrappedParseNotObject(Exception):
    """Defensive: the brace-wrapped property text did not parse to an object."""


def parse_prop_oracle(text: str) -> Term:
    """Parse one property by wrapping it in braces and projecting it back out."""
    try:
        wrapped = parse_json("{" + text + "}")
    except JsonSyntaxError as e:
        col = e.col - 1 if e.line == 1 else e.col
        raise JsonSyntaxError(e.message, e.line, max(col, 1)) from None
    if not (isinstance(wrapped, Con) and wrapped.name == "object"):
        raise WrappedParseNotObject(f"got {wrapped}")
    props = wrapped.args[0].elems
    if len(props) != 1:
        raise JsonSyntaxError(f"expected exactly one property, found {len(props)}", 1, 1)
    return props[0]


# ---------------------------------------------------------------------------
# The three hand-written lexers and their parsers as they were before all
# three moved onto the one token reader (csbb.lexing.TokenReader): signature
# files (csbb.terms), mapping files (csbb.tympanic) and the ExprLang child
# (csbb.exprlang). Verbatim but for the names, which carry an oracle suffix.

_SIG_TOKEN_ORACLE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[=|(),;\[\]]|::|\S")


class _SigTokensOracle:
    def __init__(self, text: str):
        self.toks: list = []  # (value, line, col)
        line, col = 1, 1
        i = 0
        while i < len(text):
            ch = text[i]
            if ch == "\n":
                line += 1
                col = 1
                i += 1
                continue
            if ch in " \t\r":
                i += 1
                col += 1
                continue
            if ch == "#":
                while i < len(text) and text[i] != "\n":
                    i += 1
                continue
            m = _SIG_TOKEN_ORACLE.match(text, i)
            tok = m.group()
            self.toks.append((tok, line, col))
            i += len(tok)
            col += len(tok)
        self.pos = 0

    def peek(self) -> str | None:
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self, expected: str | None = None) -> str:
        if self.pos >= len(self.toks):
            last = self.toks[-1] if self.toks else ("", 1, 1)
            raise SignatureSyntaxError(
                f"unexpected end of input, expected {expected or 'a token'}", last[1], last[2]
            )
        tok, line, col = self.toks[self.pos]
        if expected is not None and tok != expected:
            raise SignatureSyntaxError(f"expected {expected!r}, got {tok!r}", line, col)
        self.pos += 1
        return tok

    def error(self, message: str):
        if self.pos < len(self.toks):
            _, line, col = self.toks[self.pos]
        else:
            line, col = 1, 1
        raise SignatureSyntaxError(message, line, col)


_SIG_IDENT_ORACLE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def parse_signature_oracle(text: str) -> Signature:
    """Parse `data T = c(...) | ...;` declarations into a Signature."""
    toks = _SigTokensOracle(text)
    if toks.peek() == "module":
        toks.next()
        toks.next()  # first name component
        while toks.peek() == "::":
            toks.next()
            toks.next()
    types: list = []
    cons: list = []
    while toks.peek() is not None:
        toks.next("data")
        type_name = toks.next()
        if not _SIG_IDENT_ORACLE.match(type_name):
            toks.error(f"bad type name {type_name!r}")
        types.append(type_name)
        toks.next("=")
        while True:
            cons.append(_parse_ctor_oracle(toks, type_name))
            if toks.peek() == "|":
                toks.next()
                continue
            break
        toks.next(";")
    return Signature(frozenset(types), tuple(cons))


def _parse_ctor_oracle(toks: _SigTokensOracle, type_name: str) -> Constructor:
    name = toks.next()
    if not _SIG_IDENT_ORACLE.match(name):
        toks.error(f"bad constructor name {name!r}")
    toks.next("(")
    args: list = []
    if toks.peek() != ")":
        while True:
            at = _parse_argtype_oracle(toks)
            arg_name = toks.next()
            if not _SIG_IDENT_ORACLE.match(arg_name):
                toks.error(f"bad argument name {arg_name!r}")
            args.append((arg_name, at))
            if toks.peek() == ",":
                toks.next()
                continue
            break
    toks.next(")")
    return Constructor(name, type_name, tuple(args))


def _parse_argtype_oracle(toks: _SigTokensOracle) -> ArgType:
    tok = toks.next()
    if tok in PRIM_KINDS:
        return prim(tok)
    if tok == "list":
        toks.next("[")
        elem = _parse_argtype_oracle(toks)
        toks.next("]")
        return list_of(elem)
    if tok == MAYBE_TYPE and toks.peek() == "[":
        toks.next("[")
        elem = _parse_argtype_oracle(toks)
        toks.next("]")
        return maybe_of(elem)
    if not _SIG_IDENT_ORACLE.match(tok):
        toks.error(f"bad argument type {tok!r}")
    return adt(tok)


_T_SYMBOLS_ORACLE = ("=>", "==", "!=", "::", "-", ",", ":", "%", "(", ")", "[", "]", "?", ".", "=")
_T_KEYWORDS_ORACLE = {"mapping", "import", "export", "types", "constructors"}
_T_IDENT_ORACLE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_T_INT_ORACLE = re.compile(r"[0-9]+")


class _TokensOracle:
    def __init__(self, text: str):
        self.toks: list = []  # (kind, value, line, col)
        line, col, i = 1, 1, 0
        while i < len(text):
            ch = text[i]
            if ch == "\n":
                line, col, i = line + 1, 1, i + 1
                continue
            if ch in " \t\r":
                col, i = col + 1, i + 1
                continue
            if ch == "#":
                while i < len(text) and text[i] != "\n":
                    i += 1
                continue
            m = _T_IDENT_ORACLE.match(text, i)
            if m:
                value = m.group()
                kind = "keyword" if value in _T_KEYWORDS_ORACLE else "ident"
                self.toks.append((kind, value, line, col))
                i += len(value)
                col += len(value)
                continue
            m = _T_INT_ORACLE.match(text, i)
            if m:
                self.toks.append(("int", m.group(), line, col))
                i += len(m.group())
                col += len(m.group())
                continue
            for sym in _T_SYMBOLS_ORACLE:
                if text.startswith(sym, i):
                    self.toks.append(("sym", sym, line, col))
                    i += len(sym)
                    col += len(sym)
                    break
            else:
                raise TympanicSyntaxError(f"stray character {ch!r}", line, col)
        self.toks.append(("eof", "", line, col))
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str):
        _, _, line, col = self.peek()
        raise TympanicSyntaxError(message, line, col)

    def expect(self, value: str) -> str:
        kind, v, line, col = self.peek()
        if v != value:
            raise TympanicSyntaxError(f"expected {value!r}, got {v or 'end of input'!r}", line, col)
        self.next()
        return v

    def ident(self, what: str) -> str:
        kind, v, line, col = self.peek()
        if kind != "ident":
            raise TympanicSyntaxError(f"expected {what}, got {v or 'end of input'!r}", line, col)
        self.next()
        return v


def parse_tympanic_oracle(text: str) -> TympanicSpec:
    """Parse a mapping file into its spec AST."""
    toks = _TokensOracle(text)
    toks.expect("mapping")
    name = toks.ident("a mapping name")

    imports: list = []
    while toks.peek()[1] == "import":
        toks.next()
        path = [toks.ident("a package name")]
        while toks.peek()[1] == ".":
            toks.next()
            path.append(toks.ident("a package name"))
        imports.append(tuple(path))

    toks.expect("export")
    export = [toks.ident("a module name")]
    while toks.peek()[1] == "::":
        toks.next()
        export.append(toks.ident("a module name"))

    toks.expect("types")
    types: list = []
    while toks.peek()[0] == "ident":
        foreign = toks.ident("a foreign type")
        toks.expect("=>")
        mapped = toks.ident("a data type")
        if any(f == foreign for f, _ in types):
            toks.fail(f"duplicate type mapping for {foreign}")
        types.append((foreign, mapped))

    toks.expect("constructors")
    # Rule groups for one class may appear more than once; they merge in
    # textual order, which keeps "first applicable rule" well defined.
    order: list = []
    grouped: dict = {}
    while toks.peek()[0] == "ident":
        class_name = toks.next()[1]
        rules: list = []
        while toks.peek()[1] == "-":
            toks.next()
            rules.append(_parse_rule_oracle(toks))
        if not rules:
            toks.fail(f"class {class_name} has no rules")
        if class_name not in grouped:
            order.append(class_name)
            grouped[class_name] = []
        grouped[class_name].extend(rules)
    if toks.peek()[0] != "eof":
        toks.fail("expected a class name or end of input")
    mappings = tuple(ClassMapping(c, tuple(grouped[c])) for c in order)
    return TympanicSpec(name, tuple(imports), tuple(export), tuple(types), mappings)


def _parse_rule_oracle(toks: _TokensOracle) -> Rule:
    fields: list = []
    if toks.peek()[1] != ":":
        while True:
            fields.append(_parse_field_oracle(toks))
            if toks.peek()[1] == ",":
                toks.next()
                continue
            break
    toks.expect(":")
    ctor = toks.ident("a constructor name")
    toks.expect("(")
    args: list = []
    if toks.peek()[1] != ")":
        while True:
            args.append(_parse_arg_oracle(toks))
            if toks.peek()[1] == ",":
                toks.next()
                continue
            break
    toks.expect(")")
    return Rule(tuple(fields), ctor, tuple(args))


def _parse_field_oracle(toks: _TokensOracle) -> FieldSpec:
    skip = False
    if toks.peek()[1] == "%":
        toks.next()
        skip = True
    if toks.peek()[1] == "(":
        toks.next()
        target = toks.ident("a cast target type")
        kind = "cast"
        if toks.peek()[1] == "[":
            toks.next()
            toks.expect("]")
            kind = "cast_array"
        toks.expect(")")
        member = toks.ident("a member name")
        return FieldSpec(member, kind, skip, cast_to=target)
    member = toks.ident("a member name")
    nxt = toks.peek()[1]
    if nxt == "==":
        toks.next()
        return FieldSpec(member, "eq", skip, literal=_parse_foreign_literal_oracle(toks))
    if nxt == "!=":
        toks.next()
        return FieldSpec(member, "neq", skip, literal=_parse_foreign_literal_oracle(toks))
    if nxt == "?":
        toks.next()
        return FieldSpec(member, "optional", skip)
    return FieldSpec(member, "plain", skip)


def _parse_foreign_literal_oracle(toks: _TokensOracle) -> ForeignLit:
    kind, value, line, col = toks.peek()
    if value == "null":
        toks.next()
        return ForeignLit("null")
    if value in ("true", "false"):
        toks.next()
        return ForeignLit("bool", value == "true")
    if value == "-":
        toks.next()
        k2, v2, l2, c2 = toks.peek()
        if k2 != "int":
            raise TympanicSyntaxError("expected an integer after '-'", l2, c2)
        toks.next()
        return ForeignLit("int", -int(v2))
    if kind == "int":
        toks.next()
        return ForeignLit("int", int(value))
    if kind == "ident":
        path = [toks.next()[1]]
        while toks.peek()[1] == ".":
            toks.next()
            path.append(toks.ident("a path component"))
        return ForeignLit("path", tuple(path))
    raise TympanicSyntaxError(f"expected a value literal, got {value!r}", line, col)


def _parse_arg_oracle(toks: _TokensOracle) -> TemplateArg:
    first = toks.ident("an argument name")
    if toks.peek()[0] != "ident":
        return TemplateArg(first)
    # Inline enum form: Type name = ctor()
    arg_name = toks.next()[1]
    toks.expect("=")
    ctor = toks.ident("an enum constructor")
    toks.expect("(")
    if toks.peek()[1] != ")":
        toks.fail("inline enum values must be nullary constructor literals")
    toks.expect(")")
    return TemplateArg(arg_name, enum_type=first, enum_ctor=ctor)


_EXPR_TOKEN_ORACLE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[+(){};]|\S")
_EXPR_KEYWORDS_ORACLE = {"void", "while"}


@dataclass(frozen=True)
class _TokOracle:
    value: str
    kind: str  # ident | int | punct | keyword
    line: int
    col: int


def _lex_oracle(src: str) -> list:
    toks: list = []
    line, col, i = 1, 1, 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if ch in " \t\r":
            col, i = col + 1, i + 1
            continue
        m = _EXPR_TOKEN_ORACLE.match(src, i)
        value = m.group()
        if value in _EXPR_KEYWORDS_ORACLE:
            kind = "keyword"
        elif value[0].isdigit():
            kind = "int"
        elif value[0].isalpha() or value[0] == "_":
            kind = "ident"
        elif value in "+(){};":
            kind = "punct"
        else:
            raise ExprLangSyntaxError(f"stray character {value!r}", line, col)
        toks.append(_TokOracle(value, kind, line, col))
        i += len(value)
        col += len(value)
    toks.append(_TokOracle("", "eof", line, col))
    return toks


class _ExprParserOracle:
    """Whole-program recursive descent: void name() { stm* }."""

    def __init__(self, src: str):
        self.toks = _lex_oracle(src)
        self.pos = 0

    def peek(self) -> _TokOracle:
        return self.toks[self.pos]

    def next(self) -> _TokOracle:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ExprLangSyntaxError(message, tok.line, tok.col)

    def expect(self, value: str) -> _TokOracle:
        tok = self.peek()
        if tok.value != value:
            self.fail(f"expected {value!r}, got {tok.value or 'end of input'!r}")
        return self.next()

    def program(self) -> list:
        self.expect("void")
        name = self.peek()
        if name.kind != "ident":
            self.fail("expected a function name")
        self.next()
        self.expect("(")
        self.expect(")")
        self.expect("{")
        stms = self.statements()
        self.expect("}")
        if self.peek().kind != "eof":
            self.fail("trailing content after the function body")
        return stms

    def statements(self) -> list:
        stms: list = []
        while self.peek().value not in ("}", ""):
            stms.append(self.statement())
        return stms

    def statement(self) -> Term:
        tok = self.peek()
        if tok.value == "while":
            self.next()
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            self.expect("{")
            body = self.statements()
            self.expect("}")
            return Con("whileStm", "Stm", (cond, ListTerm(tuple(body), adt("Stm"))))
        if tok.value == "{":
            self.next()
            stms = self.statements()
            self.expect("}")
            return Con("block", "Stm", (ListTerm(tuple(stms), adt("Stm")),))
        expr = self.expression()
        self.expect(";")
        return Con("exprStm", "Stm", (expr,))

    def expression(self) -> Term:
        left = self.atom()
        while self.peek().value == "+":
            self.next()
            left = Con("add", "Expr", (left, self.atom()))
        return left

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return Con("intLit", "Expr", (Prim("int", int(tok.value)),))
        if tok.kind == "ident":
            self.next()
            return Con("varRef", "Expr", (Prim("str", tok.value),))
        if tok.value == "(":
            self.next()
            e = self.expression()
            self.expect(")")
            return e
        self.fail("expected an expression")


_WRAP_PREFIX_ORACLE = "void dummy() { "


def _adjust_oracle(e: ExprLangSyntaxError, extra: int = 0) -> ExprLangSyntaxError:
    # Errors are reported against the wrapped program; shift line-1 columns
    # back so positions point into the user's fragment.
    col = e.col - len(_WRAP_PREFIX_ORACLE) - extra if e.line == 1 else e.col
    return ExprLangSyntaxError(e.message, e.line, max(col, 1))


def parse_stm_oracle(text: str) -> Term:
    try:
        stms = _ExprParserOracle(_WRAP_PREFIX_ORACLE + text + " }").program()
    except ExprLangSyntaxError as e:
        raise _adjust_oracle(e) from None
    if len(stms) != 1:
        raise ExprLangSyntaxError(f"fragment is {len(stms)} statements, expected one", 1, 1)
    return stms[0]


def parse_expr_oracle(text: str) -> Term:
    try:
        stms = _ExprParserOracle(_WRAP_PREFIX_ORACLE + text + "; }").program()
    except ExprLangSyntaxError as e:
        raise _adjust_oracle(e) from None
    if len(stms) != 1 or stms[0].name != "exprStm":
        raise ExprLangSyntaxError("fragment is not a single expression", 1, 1)
    return stms[0].args[0]


# ---------------------------------------------------------------------------
# The JSON parser as it was before it became one loop over a token regex and an
# explicit stack: one recursive method per construct, one character at a time.
# It raised "input nests too deeply" past about 494 levels. Verbatim but for
# the names, which carry an oracle suffix.


_WS_ORACLE = " \t\n\r"
_IDENT_START_ORACLE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT_ORACLE = _IDENT_START_ORACLE | set("0123456789")
_DIGITS_ORACLE = set("0123456789")
_ESCAPES_ORACLE = {'"': '"', "\\": "\\", "/": "/", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t"}


class _JsonParserOracle:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str, pos: int | None = None):
        raise JsonSyntaxError(message, *line_col(self.text, self.pos if pos is None else pos))

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in _WS_ORACLE:
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def value(self) -> Term:
        self.skip_ws()
        ch = self.peek()
        if ch == "{":
            return self.object()
        if ch == "[":
            return self.array()
        if ch == '"':
            return string(self.string_lit())
        if ch in _DIGITS_ORACLE or ch == "-":
            return number(self.number_lit())
        if ch in _IDENT_START_ORACLE:
            word = self.ident()
            if word == "true":
                return boolean(True)
            if word == "false":
                return boolean(False)
            if word == "null":
                return null_()
            self.fail(f"unexpected identifier {word!r}", self.pos - len(word))
        self.fail("expected a JSON value")

    def object(self) -> Term:
        self.expect("{")
        props: list = []
        self.skip_ws()
        if self.peek() == "}":
            self.pos += 1
            return obj(props)
        while True:
            props.append(self.prop())
            self.skip_ws()
            if self.peek() == ",":
                self.pos += 1
                continue
            self.expect("}")
            return obj(props)

    def prop(self) -> Term:
        self.skip_ws()
        ch = self.peek()
        if ch == '"':
            key = self.string_lit()
        elif ch in _IDENT_START_ORACLE:
            key = self.ident()
        else:
            self.fail("expected a property name")
        self.skip_ws()
        self.expect(":")
        return prop(key, self.value())

    def array(self) -> Term:
        self.expect("[")
        elts: list = []
        self.skip_ws()
        if self.peek() == "]":
            self.pos += 1
            return array(elts)
        while True:
            elts.append(self.value())
            self.skip_ws()
            if self.peek() == ",":
                self.pos += 1
                continue
            self.expect("]")
            return array(elts)

    def ident(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CONT_ORACLE:
            self.pos += 1
        return self.text[start:self.pos]

    def string_lit(self) -> str:
        self.expect('"')
        out: list = []
        while True:
            if self.pos >= len(self.text):
                self.fail("unterminated string")
            ch = self.text[self.pos]
            if ch == '"':
                self.pos += 1
                return "".join(out)
            if ch == "\\":
                self.pos += 1
                out.append(self.escape())
            elif ord(ch) < 0x20:
                self.fail("control character in string")
            else:
                out.append(ch)
                self.pos += 1

    def escape(self) -> str:
        if self.pos >= len(self.text):
            self.fail("unterminated escape")
        ch = self.text[self.pos]
        self.pos += 1
        if ch in _ESCAPES_ORACLE:
            return _ESCAPES_ORACLE[ch]
        if ch == "u":
            start = self.pos - 2
            code = self.hex4()
            if 0xD800 <= code <= 0xDBFF and self.text[self.pos:self.pos + 2] == "\\u":
                self.pos += 2
                low = self.hex4()
                if 0xDC00 <= low <= 0xDFFF:
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                else:
                    self.fail("invalid low surrogate", self.pos - 4)
            elif 0xD800 <= code <= 0xDFFF:  # strings must encode to UTF-8 (RFC 8259, section 8.2)
                self.fail("lone surrogate escape", start)
            return chr(code)
        self.fail(f"invalid escape \\{ch}", self.pos - 1)

    def hex4(self) -> int:
        digits = self.text[self.pos:self.pos + 4]
        if len(digits) < 4 or any(d not in "0123456789abcdefABCDEF" for d in digits):
            self.fail("invalid \\u escape")
        self.pos += 4
        return int(digits, 16)

    def number_lit(self) -> float:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if self.peek() == "0":
            self.pos += 1
        elif self.peek() in _DIGITS_ORACLE:
            while self.peek() in _DIGITS_ORACLE:
                self.pos += 1
        else:
            self.fail("expected a digit")
        if self.peek() == ".":
            self.pos += 1
            if self.peek() not in _DIGITS_ORACLE:
                self.fail("expected a digit after the decimal point")
            while self.peek() in _DIGITS_ORACLE:
                self.pos += 1
        if self.peek() in ("e", "E"):
            self.pos += 1
            if self.peek() in ("+", "-"):
                self.pos += 1
            if self.peek() not in _DIGITS_ORACLE:
                self.fail("expected an exponent digit")
            while self.peek() in _DIGITS_ORACLE:
                self.pos += 1
        x = float(self.text[start:self.pos])
        if not math.isfinite(x):
            self.fail("number out of range", start)
        return x


def parse_json_oracle(text: str) -> Term:
    """Parse one JSON value (unquoted identifier keys allowed) to a term."""
    p = _JsonParserOracle(text)
    try:
        t = p.value()
    except RecursionError:
        p.fail("input nests too deeply")
    p.skip_ws()
    if p.pos != len(text):
        p.fail("trailing content after JSON value")
    return t


def term_hash_oracle(t) -> int:
    """hash(t) by the recursive formula the node classes used before they hashed iteratively."""
    if isinstance(t, Prim):
        return hash((t.kind, t.value))
    if isinstance(t, Con):
        h = hash((t.name, t.type))
        for a in t.args:
            h = hash((h, term_hash_oracle(a)))
        return h
    h = hash(t.elem_type)
    for e in t.elems:
        h = hash((h, term_hash_oracle(e)))
    return h


def term_repr_oracle(t) -> str:
    """repr(t) as the generated dataclass repr wrote it, recursively."""
    if isinstance(t, Prim):
        return f"Prim(kind={t.kind!r}, value={t.value!r})"
    kids = t.args if isinstance(t, Con) else t.elems
    inner = ", ".join(term_repr_oracle(k) for k in kids) + ("," if len(kids) == 1 else "")
    if isinstance(t, Con):
        return f"Con(name={t.name!r}, type={t.type!r}, args=({inner}))"
    return f"ListTerm(elems=({inner}), elem_type={t.elem_type!r})"
