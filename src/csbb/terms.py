"""Signatures, generic immutable terms, type checking, and the wire codec.

A Signature declares abstract-grammar types and their constructors. Terms are
constructor applications, primitives, and typed lists; they are frozen values
safe to share between threads. The wire codec is the canonical JSON encoding
used by the subprocess parser protocol and the CLI.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from json.encoder import encode_basestring, encode_basestring_ascii

from .lexing import PositionedError, TokenReader

PRIM_KINDS = ("int", "real", "bool", "str")

MAYBE_TYPE = "Maybe"


class SignatureError(Exception):
    """An internally inconsistent signature."""


class SignatureSyntaxError(PositionedError):
    pass


class TermDecodeError(Exception):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            super().__init__(f"line {line}, col {col}: {message}")
        else:
            super().__init__(message)
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Argument types


@dataclass(frozen=True)
class ArgType:
    """The type of a constructor argument.

    kind is one of "adt" (name set), "prim" (name set to int/real/bool/str),
    "list" (elem set), or "maybe" (elem set). A maybe may not directly wrap
    another maybe.
    """

    kind: str
    name: str | None = None
    elem: "ArgType | None" = None

    def __post_init__(self):
        if self.kind == "adt":
            if not self.name or self.elem is not None:
                raise ValueError("adt type needs a name and no element")
        elif self.kind == "prim":
            if self.name not in PRIM_KINDS or self.elem is not None:
                raise ValueError(f"unknown primitive kind {self.name!r}")
        elif self.kind in ("list", "maybe"):
            if self.elem is None or self.name is not None:
                raise ValueError(f"{self.kind} type needs an element type")
            if self.kind == "maybe" and self.elem.kind == "maybe":
                raise ValueError("maybe may not directly nest maybe")
        else:
            raise ValueError(f"unknown ArgType kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "adt" or self.kind == "prim":
            return self.name  # type: ignore[return-value]
        if self.kind == "list":
            return f"list[{self.elem}]"
        return f"Maybe[{self.elem}]"


def adt(name: str) -> ArgType:
    return ArgType("adt", name=name)


def prim(name: str) -> ArgType:
    return ArgType("prim", name=name)


def list_of(elem: ArgType) -> ArgType:
    return ArgType("list", elem=elem)


def maybe_of(elem: ArgType) -> ArgType:
    return ArgType("maybe", elem=elem)


# ---------------------------------------------------------------------------
# Terms


# Terms compare and hash structurally with == and hash(). Reals compare by bit
# pattern, which for finite floats is value and sign. == walks an explicit stack
# of pairs, and hash a list of nodes, so neither takes Python stack per level.
# Con and ListTerm hash on first use, not at construction, which would slow
# every parse.
def _equal(a: Term, b: Term) -> bool:
    """a == b for terms: structural, with reals compared by bit pattern."""
    pairs: list = []
    x, y = a, b
    while True:
        if x is not y:
            c = x.__class__
            if c is not y.__class__:
                return False
            if c is Prim:
                if x.kind != y.kind or x.value != y.value:
                    return False
                if x.kind == "real" and math.copysign(1.0, x.value) != math.copysign(1.0, y.value):
                    return False
            else:
                if c is Con:
                    if x.name != y.name or x.type != y.type:
                        return False
                    xs, ys = x.args, y.args
                else:
                    if x.elem_type != y.elem_type:
                        return False
                    xs, ys = x.elems, y.elems
                n = len(xs)
                if n != len(ys):
                    return False
                if n == 1:  # the common case: descend without the stack
                    x, y = xs[0], ys[0]
                    continue
                pairs += zip(xs, ys)
        if not pairs:
            return True
        x, y = pairs.pop()


def _stored_hash(t) -> int:
    h = t._hash
    return _hash_tree(t) if h is None else h


def _tree_repr(t) -> str:
    return emit(t, _repr_step, ", ")


def _reduce(t):
    """Pickle and copy through __init__, as frozen slots cannot be set otherwise."""
    return t.__class__, tuple(getattr(t, name) for name in t.__match_args__)


# The node classes keep dataclass fields, replace, pickle and frozen assignment,
# but write their own __init__: storing through the slot descriptors costs about
# half of the generated frozen __init__, and every parser builds many nodes.
# _hash is None until the node is first hashed.
@dataclass(frozen=True, eq=False, init=False)
class Con:
    """A constructor application, e.g. Con("number", "JSON", (Prim("real", 29.0),))."""

    __slots__ = ("name", "type", "args", "_hash")  # _hash: not a field; see _hash_tree
    name: str
    type: str
    args: tuple

    def __init__(self, name: str, type: str, args: tuple = ()):
        _set_con_name(self, name)
        _set_con_type(self, type)
        _set_con_args(self, tuple(args))
        _set_con_hash(self, None)

    __eq__ = _equal
    __hash__ = _stored_hash
    __repr__ = _tree_repr
    __reduce__ = _reduce


@dataclass(frozen=True, eq=False, init=False)
class Prim:
    """A primitive leaf. kind selects among int/real/bool/str."""

    __slots__ = ("kind", "value")
    kind: str
    value: int | float | bool | str

    def __init__(self, kind: str, value: int | float | bool | str):
        t = type(value)
        if not (
            (t is float and kind == "real")
            or (t is str and kind == "str")
            or (t is int and kind == "int")
            or (t is bool and kind == "bool")
        ):
            raise ValueError(f"{kind} primitive cannot hold {value!r}")
        if t is float and not math.isfinite(value):
            raise ValueError("real primitives must be finite")
        _set_prim_kind(self, kind)
        _set_prim_value(self, value)

    __eq__ = _equal

    def __hash__(self) -> int:
        return hash((self.kind, self.value))

    def __repr__(self) -> str:
        return f"Prim(kind={self.kind!r}, value={self.value!r})"

    __reduce__ = _reduce


@dataclass(frozen=True, eq=False, init=False)
class ListTerm:
    """A homogeneous list; carries its element type so empty lists stay typable."""

    __slots__ = ("elems", "elem_type", "_hash")  # _hash: not a field; see _hash_tree
    elems: tuple
    elem_type: ArgType

    def __init__(self, elems: tuple, elem_type: ArgType):
        _set_list_elems(self, tuple(elems))
        _set_list_elem_type(self, elem_type)
        _set_list_hash(self, None)

    __eq__ = _equal
    __hash__ = _stored_hash
    __repr__ = _tree_repr
    __reduce__ = _reduce


_set_con_name = Con.__dict__["name"].__set__
_set_con_type = Con.__dict__["type"].__set__
_set_con_args = Con.__dict__["args"].__set__
_set_con_hash = Con.__dict__["_hash"].__set__
_set_prim_kind = Prim.__dict__["kind"].__set__
_set_prim_value = Prim.__dict__["value"].__set__
_set_list_elems = ListTerm.__dict__["elems"].__set__
_set_list_elem_type = ListTerm.__dict__["elem_type"].__set__
_set_list_hash = ListTerm.__dict__["_hash"].__set__


def _hash_tree(t) -> int:
    """Store the hash of t and of every unhashed node below it; return t's.

    A Con hashes as hash((name, type)) and a ListTerm as hash(elem_type), each
    then folded with hash((h, child's hash)) over its children. The unhashed
    nodes are listed breadth-first, so every node comes before its children,
    and then hashed back to front. A node stores its hash once it is known,
    alike from racing threads.
    """
    todo = [t]
    for node in todo:  # the list grows while it is read
        for k in (node.args if node.__class__ is Con else node.elems):
            if k.__class__ is not Prim and k._hash is None:
                todo.append(k)
    for node in reversed(todo):
        if node.__class__ is Con:
            h = hash((node.name, node.type))
            for k in node.args:
                h = hash((h, hash((k.kind, k.value)) if k.__class__ is Prim else k._hash))
            _set_con_hash(node, h)
        else:
            h = hash(node.elem_type)
            for k in node.elems:
                h = hash((h, hash((k.kind, k.value)) if k.__class__ is Prim else k._hash))
            _set_list_hash(node, h)
    return t._hash


def _repr_step(t):
    """The dataclass repr, for emit."""
    c = t.__class__
    if c is Con:
        head, kids, tail = f"Con(name={t.name!r}, type={t.type!r}, args=(", t.args, ")"
    elif c is ListTerm:
        head, kids, tail = "ListTerm(elems=(", t.elems, f", elem_type={t.elem_type!r})"
    else:
        return repr(t)
    if not all(k.__class__ in _NODES for k in kids):  # not a term: write the tuple by repr
        return head[:-1] + repr(kids) + tail
    return head, kids, ("," if len(kids) == 1 else "") + ")" + tail


_NODES = (Con, Prim, ListTerm)


Term = Con | Prim | ListTerm


def nothing_() -> Con:
    return Con("nothing", MAYBE_TYPE, ())


def just_(t: Term) -> Con:
    return Con("just", MAYBE_TYPE, (t,))


def term_root_type(t: Term) -> ArgType:
    """The outermost type of a term, without consulting a signature."""
    if isinstance(t, Con):
        return adt(t.type)
    if isinstance(t, Prim):
        return prim(t.kind)
    return list_of(t.elem_type)


# ---------------------------------------------------------------------------
# Traversals
#
# Terms nest as deeply as the object-language parsers make them, so the walks
# keep their own stacks and take no Python stack per level.


def children(t: Term) -> tuple:
    """The direct subterms of t, left to right."""
    c = t.__class__
    if c is Con:
        return t.args
    if c is ListTerm:
        return t.elems
    return ()


def fold(t, leave, kids=children):
    """Post-order fold: leave(node, its children's results, its path) gives node's result.

    kids(node) lists the children to descend into. The path is the list of
    child indices from t to node; the fold reuses it, so copy it to keep it.
    Returns t's result.
    """
    path: list = []
    frames = [(t, kids(t), [])]
    while True:
        node, ks, results = frames[-1]
        i = len(results)
        if not i:
            path.append(0)  # the slot for the index of the child being visited
        n = len(ks)
        while i < n:
            path[-1] = i
            k = ks[i]
            kk = kids(k)
            if kk:
                frames.append((k, kk, []))
                break
            results.append(leave(k, (), path))
            i += 1
        else:
            frames.pop()
            path.pop()
            r = leave(node, results, path)
            if not frames:
                return r
            frames[-1][2].append(r)


def emit(t, step, sep: str = ",") -> str:
    """Pre-order rendering: step(node) gives a leaf's text, or (opener, kids, closer).

    The kids are rendered between opener and closer, separated by sep.
    """
    out: list = []
    append = out.append
    stack: list = []  # texts still to write and nodes still to render, the next one last
    pop = stack.pop
    node = t
    while True:
        r = step(node)
        if r.__class__ is str:
            append(r)
        else:
            opener, kids, closer = r
            append(opener)
            n = len(kids)
            if n:
                if n == 1:
                    stack.append(closer)
                else:
                    block = [sep] * (2 * n - 1)  # closer, then kids[-1], sep, ..., kids[1], sep
                    block[0] = closer
                    block[1::2] = kids[:0:-1]
                    stack += block
                node = kids[0]
                continue
            append(closer)
        while stack:
            node = pop()
            if node.__class__ is not str:
                break
            append(node)
        else:
            return "".join(out)


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True)
class Constructor:
    name: str
    type: str
    args: tuple  # of (arg name, ArgType)

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))

    @property
    def arity(self) -> int:
        return len(self.args)


@dataclass(frozen=True)
class Signature:
    """A set of type names plus the constructors declared over them.

    Construction validates the whole declaration: owning types must be
    declared, constructor names must be unique within their type, and every
    adt reference must resolve.
    """

    types: frozenset
    constructors: tuple

    def __post_init__(self):
        object.__setattr__(self, "types", frozenset(self.types))
        object.__setattr__(self, "constructors", tuple(self.constructors))
        seen = set()
        for c in self.constructors:
            if c.type not in self.types:
                raise SignatureError(f"constructor {c.name} owned by undeclared type {c.type}")
            if (c.type, c.name) in seen:
                raise SignatureError(f"duplicate constructor {c.name} in type {c.type}")
            seen.add((c.type, c.name))
            for arg_name, arg_type in c.args:
                self._check_ref(arg_type, f"{c.type}.{c.name}.{arg_name}")
        # Not a field, so ==, hash and repr ignore it. (type, name) is unique.
        index = {(c.type, c.name, c.arity): c for c in self.constructors}
        object.__setattr__(self, "_by_key", index)

    def _check_ref(self, at: ArgType, where: str) -> None:
        if at.kind == "adt":
            if at.name not in self.types:
                raise SignatureError(f"{where} refers to undeclared type {at.name}")
        elif at.kind in ("list", "maybe"):
            self._check_ref(at.elem, where)

    def has_type(self, name: str) -> bool:
        return name in self.types

    def find(self, type_name: str, con_name: str, arity: int):
        return self._by_key.get((type_name, con_name, arity))

    def constructors_of(self, type_name: str) -> list:
        return [c for c in self.constructors if c.type == type_name]


# ---------------------------------------------------------------------------
# Type checking


@dataclass(frozen=True)
class TypeIssue:
    """One well-typedness violation, located by a path of child indices."""

    path: tuple
    message: str

    def __str__(self) -> str:
        loc = "/".join(str(i) for i in self.path) or "root"
        return f"at {loc}: {self.message}"


def _describe(t: Term) -> str:
    if isinstance(t, Con):
        return f"{t.type}.{t.name}/{len(t.args)}"
    if isinstance(t, Prim):
        return f"{t.kind} primitive"
    return f"list[{t.elem_type}]"


def check_term(sig: Signature, t: Term, expected: ArgType) -> list:
    """Check t against expected; returns a list of TypeIssue (empty = well-typed).

    Issues are listed in pre-order.
    """
    issues: list = []

    def report(link: tuple, message: str) -> None:
        path: list = []
        while link:  # (the parent's link, the child's index), or () at the root
            link, i = link
            path.append(i)
        issues.append(TypeIssue(tuple(reversed(path)), message))

    todo = [(t, expected, ())]
    while todo:
        node, at, link = todo.pop()
        kind = at.kind
        if kind == "prim":
            if not (node.__class__ is Prim and node.kind == at.name):
                report(link, f"expected {at}, got {_describe(node)}")
        elif kind == "adt":
            if not (node.__class__ is Con and node.type == at.name):
                report(link, f"expected {at}, got {_describe(node)}")
                continue
            con = sig.find(node.type, node.name, len(node.args))
            if con is None:
                report(link, f"{at.name} declares no constructor {node.name}/{len(node.args)}")
                continue
            args = node.args
            for i in range(len(args) - 1, -1, -1):
                todo.append((args[i], con.args[i][1], (link, i)))
        elif kind == "list":
            if node.__class__ is not ListTerm:
                report(link, f"expected {at}, got {_describe(node)}")
                continue
            if node.elem_type != at.elem:
                report(link, f"list element type {node.elem_type} does not match {at.elem}")
                continue
            elems = node.elems
            for i in range(len(elems) - 1, -1, -1):
                todo.append((elems[i], at.elem, (link, i)))
        else:  # maybe
            if node.__class__ is Con and node.type == MAYBE_TYPE:
                if node.name == "nothing" and not node.args:
                    continue
                if node.name == "just" and len(node.args) == 1:
                    todo.append((node.args[0], at.elem, (link, 0)))
                    continue
            report(link, f"expected {at}, got {_describe(node)}")
    return issues


# ---------------------------------------------------------------------------
# Wire codec
#
#   term    := {"con": s, "type": s, "args": [term*]}
#            | {"int": n} | {"real": x} | {"bool": b} | {"str": s}
#            | {"list": [term*], "elem": argtype}
#   argtype := {"adt": s} | {"list": argtype} | {"maybe": argtype} | {"prim": s}


def format_real(x: float) -> str:
    """Canonical decimal rendering; always carries a fraction or an exponent."""
    s = repr(x)
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def encode_term(t: Term) -> str:
    """Deterministic canonical encoding: fixed key order, canonical numbers."""
    return emit(t, _enc)


def _enc(t: Term):
    c = t.__class__
    if c is Con:
        name, ty = encode_basestring_ascii(t.name), encode_basestring_ascii(t.type)
        return '{"con":' + name + ',"type":' + ty + ',"args":[', t.args, "]}"
    if c is ListTerm:
        return '{"list":[', t.elems, '],"elem":' + encode_argtype(t.elem_type) + "}"
    if t.kind == "int":
        return '{"int":%d}' % t.value
    if t.kind == "real":
        return '{"real":' + format_real(t.value) + "}"
    if t.kind == "bool":
        return '{"bool":true}' if t.value else '{"bool":false}'
    return '{"str":' + encode_basestring(t.value) + "}"


def encode_argtype(at: ArgType) -> str:
    if at.kind == "adt":
        return '{"adt":' + json.dumps(at.name) + "}"
    if at.kind == "prim":
        return '{"prim":' + json.dumps(at.name) + "}"
    if at.kind == "list":
        return '{"list":' + encode_argtype(at.elem) + "}"
    return '{"maybe":' + encode_argtype(at.elem) + "}"


def decode_term(text: str) -> Term:
    """Inverse of encode_term; accepts any wire-grammar conforming JSON text."""
    try:
        return term_from_wire(json.loads(text))
    except json.JSONDecodeError as e:
        raise TermDecodeError(e.msg, e.lineno, e.colno) from None
    except RecursionError:
        raise TermDecodeError("input nests too deeply") from None


_SURROGATE = re.compile("[\ud800-\udfff]")


def has_surrogate(s: str) -> bool:
    """Whether s holds a surrogate code point, which UTF-8 cannot encode."""
    return not s.isascii() and _SURROGATE.search(s) is not None


def term_from_wire(obj, path: str = "$") -> Term:
    """Build a Term from already-parsed wire JSON."""
    if not isinstance(obj, dict):
        raise TermDecodeError(f"{path}: expected an object, got {type(obj).__name__}")
    keys = set(obj)
    if keys == {"con", "type", "args"}:
        if not isinstance(obj["con"], str) or not isinstance(obj["type"], str):
            raise TermDecodeError(f"{path}: con and type must be strings")
        if not isinstance(obj["args"], list):
            raise TermDecodeError(f"{path}: args must be an array")
        args = tuple(term_from_wire(a, f"{path}.args[{i}]") for i, a in enumerate(obj["args"]))
        return Con(obj["con"], obj["type"], args)
    if keys == {"int"}:
        if type(obj["int"]) is not int:
            raise TermDecodeError(f"{path}: int payload must be an integer")
        return Prim("int", obj["int"])
    if keys == {"real"}:
        v = obj["real"]
        if type(v) not in (int, float):
            raise TermDecodeError(f"{path}: real payload must be a number")
        try:
            return Prim("real", float(v))
        except ValueError as e:
            raise TermDecodeError(f"{path}: {e}") from None
    if keys == {"bool"}:
        if type(obj["bool"]) is not bool:
            raise TermDecodeError(f"{path}: bool payload must be true or false")
        return Prim("bool", obj["bool"])
    if keys == {"str"}:
        if not isinstance(obj["str"], str):
            raise TermDecodeError(f"{path}: str payload must be a string")
        if has_surrogate(obj["str"]):
            raise TermDecodeError(f"{path}: str payload holds a lone surrogate")
        return Prim("str", obj["str"])
    if keys == {"list", "elem"}:
        if not isinstance(obj["list"], list):
            raise TermDecodeError(f"{path}: list payload must be an array")
        elem = argtype_from_wire(obj["elem"], f"{path}.elem")
        elems = tuple(term_from_wire(e, f"{path}.list[{i}]") for i, e in enumerate(obj["list"]))
        return ListTerm(elems, elem)
    raise TermDecodeError(f"{path}: unrecognized term object with keys {sorted(keys)}")


def argtype_from_wire(obj, path: str = "$") -> ArgType:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise TermDecodeError(f"{path}: expected a single-key argtype object")
    ((key, val),) = obj.items()
    try:
        if key == "adt":
            return adt(val)
        if key == "prim":
            return prim(val)
        if key == "list":
            return list_of(argtype_from_wire(val, f"{path}.list"))
        if key == "maybe":
            return maybe_of(argtype_from_wire(val, f"{path}.maybe"))
    except (ValueError, TypeError) as e:
        raise TermDecodeError(f"{path}: {e}") from None
    raise TermDecodeError(f"{path}: unrecognized argtype key {key!r}")


# ---------------------------------------------------------------------------
# Signature surface syntax
#
#   data JSON = boolean(bool b) | number(real n) | null() | object(list[Prop] props);
#
# An optional leading `module a::b` line is skipped, so generated module files
# load directly as signature files. `#` starts a line comment.

_SIG_SCANNER = re.compile(
    r"(?P<ws>[ \t\r\n]+)|(?P<comment>#[^\n]*)|(?P<tok>[A-Za-z_][A-Za-z0-9_]*|::|.)", re.DOTALL
)
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _take(toks: TokenReader, expected: str | None = None) -> tuple:
    """The next token; at end of input, an error at the last token."""
    kind, value, _ = toks.peek()
    if kind == "eof":  # the parser calls this only after it has seen a token
        toks.fail(f"unexpected end of input, expected {expected or 'a token'}", toks.toks[-2][2])
    if expected is not None and value != expected:
        toks.fail(f"expected {expected!r}, got {value!r}")
    return toks.next()


def _name(toks: TokenReader, what: str, tok: tuple | None = None) -> str:
    """The value of tok (by default the next token), which must be a name."""
    _, value, offset = tok or _take(toks)
    if not _IDENT.match(value):
        toks.fail(f"bad {what} {value!r}", offset)
    return value


def parse_signature(text: str) -> Signature:
    """Parse `data T = c(...) | ...;` declarations into a Signature."""
    toks = TokenReader(text, _SIG_SCANNER, SignatureSyntaxError)
    if toks.peek()[1] == "module":
        toks.next()
        _take(toks)  # first name component
        while toks.peek()[1] == "::":
            toks.next()
            _take(toks)
    types: list = []
    cons: list = []
    while toks.peek()[0] != "eof":
        _take(toks, "data")
        type_name = _name(toks, "type name")
        types.append(type_name)
        _take(toks, "=")
        while True:
            cons.append(_parse_ctor(toks, type_name))
            if toks.peek()[1] == "|":
                toks.next()
                continue
            break
        _take(toks, ";")
    return Signature(frozenset(types), tuple(cons))


def _parse_ctor(toks: TokenReader, type_name: str) -> Constructor:
    name = _name(toks, "constructor name")
    _take(toks, "(")
    args: list = []
    if toks.peek()[1] != ")":
        while True:
            at = _parse_argtype(toks)
            args.append((_name(toks, "argument name"), at))
            if toks.peek()[1] == ",":
                toks.next()
                continue
            break
    _take(toks, ")")
    return Constructor(name, type_name, tuple(args))


def _parse_argtype(toks: TokenReader) -> ArgType:
    tok = _take(toks)
    value = tok[1]
    if value in PRIM_KINDS:
        return prim(value)
    if value == "list":
        _take(toks, "[")
        elem = _parse_argtype(toks)
        _take(toks, "]")
        return list_of(elem)
    if value == MAYBE_TYPE and toks.peek()[1] == "[":
        _take(toks, "[")
        elem = _parse_argtype(toks)
        _take(toks, "]")
        return maybe_of(elem)
    return adt(_name(toks, "argument type", tok))


def render_signature(sig: Signature) -> str:
    """Render data declarations; types appear in first-constructor order."""
    order: list = []
    for c in sig.constructors:
        if c.type not in order:
            order.append(c.type)
    lines: list = []
    for type_name in order:
        lines.append(f"data {type_name}")
        for i, c in enumerate(sig.constructors_of(type_name)):
            args = ", ".join(f"{at} {name}" for name, at in c.args)
            lines.append(f"  {'=' if i == 0 else '|'} {c.name}({args})")
        lines.append("  ;")
        lines.append("")
    return "\n".join(lines)
