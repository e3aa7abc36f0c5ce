"""Reference code the checkers use, written apart from csbb.

Every program output is converted to a *canonical form*: nested tuples that
say what a term is without using any csbb class.

    constructor  (name, type, (arg, ...))
    primitive    ("#int", n) | ("#real", bits) | ("#bool", b) | ("#str", s)
    list         ("[", elem_type_text, (elem, ...))

Reals carry the bit pattern of the float, so 0.0 and -0.0 differ, as csbb
defines term equality. The generators build the same form from their own
values, and the checkers compare the two with ==. The printed-form renderer
below follows the documented format independently of csbb's own printer.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass


def real_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def bits_real(b: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", b))[0]


# ---------------------------------------------------------------------------
# Program terms -> canonical form (duck-typed on the class names)


def canon(t):
    kind = type(t).__name__
    if kind == "Con":
        return (t.name, t.type, tuple(canon(a) for a in t.args))
    if kind == "Prim":
        if t.kind == "real":
            return ("#real", real_bits(t.value))
        return ("#" + t.kind, t.value)
    if kind == "ListTerm":
        return ("[", str(t.elem_type), tuple(canon(e) for e in t.elems))
    raise TypeError(f"not a term: {kind}")


def canon_binding(v):
    """An env value: one term, or a tuple of terms for a sequence variable."""
    if isinstance(v, tuple):
        return ("seq", tuple(canon(x) for x in v))
    return canon(v)


def canon_env(env) -> dict:
    return {name: canon_binding(v) for name, v in env.items()}


def term_nodes(t) -> int:
    """Nodes of a csbb term, counted without recursion."""
    n = 0
    stack = [t]
    while stack:
        node = stack.pop()
        n += 1
        kind = type(node).__name__
        if kind == "Con":
            stack.extend(node.args)
        elif kind == "ListTerm":
            stack.extend(node.elems)
    return n


def pattern_var_names(p) -> set:
    """Names of the variables of a csbb pattern, read off its class names."""
    out = set()
    stack = [p]
    while stack:
        q = stack.pop()
        kind = type(q).__name__
        if kind in ("PVar", "PSeqVar"):
            out.add(q.name)
        elif kind == "PCon":
            stack.extend(q.args)
        elif kind == "PList":
            stack.extend(q.elems)
    return out


# ---------------------------------------------------------------------------
# Printed constructor form of canonical terms


def format_real(x: float) -> str:
    s = repr(x)
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def render(c) -> str:
    out: list = []
    _render(c, out)
    return "".join(out)


def _render(c, out: list) -> None:
    head = c[0]
    if head == "[":
        out.append("[")
        for i, e in enumerate(c[2]):
            if i:
                out.append(",")
            _render(e, out)
        out.append("]")
    elif head == "#real":
        out.append(format_real(bits_real(c[1])))
    elif head == "#int":
        out.append(str(c[1]))
    elif head == "#bool":
        out.append("true" if c[1] else "false")
    elif head == "#str":
        out.append(json.dumps(c[1], ensure_ascii=False))
    else:
        out.append(head + "(")
        for i, a in enumerate(c[2]):
            if i:
                out.append(",")
            _render(a, out)
        out.append(")")


# ---------------------------------------------------------------------------
# JSON values as the generators hold them
#
# None, bool, float, str, list, and Obj (ordered properties; keys may repeat).


@dataclass(frozen=True)
class Obj:
    props: tuple  # of (key, value)


def json_canon(v):
    if v is None:
        return ("null", "JSON", ())
    if v is True or v is False:
        return ("boolean", "JSON", (("#bool", v),))
    if isinstance(v, float):
        return ("number", "JSON", (("#real", real_bits(v)),))
    if isinstance(v, str):
        return ("string", "JSON", (("#str", v),))
    if isinstance(v, list):
        return ("array", "JSON", (("[", "JSON", tuple(json_canon(e) for e in v)),))
    return ("object", "JSON", (("[", "Prop", tuple(prop_canon(k, x) for k, x in v.props)),))


def prop_canon(key: str, v):
    return ("prop", "Prop", (("id", "Id", (("#str", key),)), json_canon(v)))


def json_text(v, rng) -> str:
    """Source text in csbb's JSON dialect, with varied spacing and key quoting."""
    out: list = []
    _json_text(v, rng, out)
    return "".join(out)


def _ws(rng) -> str:
    r = rng.random()
    return "" if r < 0.7 else (" " if r < 0.95 else "\n  ")


def _json_text(v, rng, out: list) -> None:
    if v is None:
        out.append("null")
    elif v is True:
        out.append("true")
    elif v is False:
        out.append("false")
    elif isinstance(v, float):
        out.append(repr(v))
    elif isinstance(v, str):
        out.append(json.dumps(v, ensure_ascii=rng.random() < 0.5))
    elif isinstance(v, list):
        out.append("[")
        for i, e in enumerate(v):
            if i:
                out.append("," + _ws(rng))
            _json_text(e, rng, out)
        out.append("]")
    else:
        out.append("{")
        for i, (k, x) in enumerate(v.props):
            if i:
                out.append("," + _ws(rng))
            out.append(k if k.isidentifier() and rng.random() < 0.5 else json.dumps(k))
            out.append(":" + _ws(rng))
            _json_text(x, rng, out)
        out.append("}")


# ---------------------------------------------------------------------------
# A small matcher over canonical terms
#
# Pattern nodes are canonical terms, plus ("?", name) for a variable binding
# one subterm and ("[*", elem_type, name) for a list bound whole by one
# sequence variable. A repeated name must bind equal terms.


def match_canon(p, t, env: dict) -> dict | None:
    head = p[0]
    if head == "?":
        name = p[1]
        if name in env:
            return env if env[name] == t else None
        return {**env, name: t}
    if head == "[*":
        if t[0] != "[" or t[1] != p[1]:
            return None
        return {**env, p[2]: ("seq", t[2])}
    if head.startswith("#"):
        return env if p == t else None
    if head == "[":
        if t[0] != "[" or t[1] != p[1] or len(t[2]) != len(p[2]):
            return None
        for q, x in zip(p[2], t[2]):
            env = match_canon(q, x, env)
            if env is None:
                return None
        return env
    if head != t[0] or p[1] != t[1] or len(p[2]) != len(t[2]):
        return None
    for q, x in zip(p[2], t[2]):
        env = match_canon(q, x, env)
        if env is None:
            return None
    return env
