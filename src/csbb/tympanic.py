"""Mapping DSL: turn a foreign parser's class-hierarchy AST into a signature.

A mapping file declares, per concrete foreign class, guarded rules that send
the class's members to the arguments of an internal constructor. From one
mapping plus a declarative description of the foreign type hierarchy we infer
the algebraic signature (and its printable module), and marshal foreign AST
values into well-typed terms by running the same rules, compiled once per
(spec, schema) pair.

Surface syntax of a mapping file (`#` starts a line comment):

    mapping ExprAst
    import expressions
    export expr::Expr
    types Expr => Expr
    constructors
    Binary
    - %getOp == Op.PLUS, getLhs, getRhs: add(lhs, rhs)
    Lit
    - (Integer)getValue: integer(intVal)

Fields may be guarded (`m == v`, `m != v`), optional (`m?`), cast
(`(T)m`, `(T[])m`), or skipped (`%` prefix: the field participates in
dispatch but produces no argument). Non-skipped fields map positionally to
the constructor arguments; an argument of the form `Op op = plus()` inlines
an enum, synthesizing a nullary-constructor ADT.
"""

from __future__ import annotations

import json
import re
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import count, repeat
from types import MappingProxyType

from .lexing import PositionedError, TokenReader
from .terms import (
    ArgType,
    Con,
    Constructor,
    ListTerm,
    Prim,
    Signature,
    Term,
    adt,
    check_term,
    fold,
    just_,
    list_of,
    maybe_of,
    nothing_,
    prim,
    render_signature,
)

PRIMITIVE_MAP = {"Integer": "int", "Boolean": "bool", "String": "str", "Double": "real"}


class TympanicSyntaxError(PositionedError):
    pass


class SchemaError(Exception):
    pass


class MappingError(Exception):
    pass


class UnknownForeignType(MappingError):
    pass


class UnmappedForeignType(MappingError):
    pass


class UnknownMember(MappingError):
    pass


class ArityMismatch(MappingError):
    pass


class MarshalError(Exception):
    def __init__(self, message: str, path: tuple):
        where = ".".join(str(p) for p in path) or "root"
        super().__init__(f"at {where}: {message}")
        self.path = path


class NoApplicableRule(MarshalError):
    pass


class NullNotOptional(MarshalError):
    pass


class CastFailure(MarshalError):
    pass


# ---------------------------------------------------------------------------
# Foreign schema


@dataclass(frozen=True)
class TypeRef:
    name: str


@dataclass(frozen=True)
class ArrayRef:
    elem: "Ref"


@dataclass(frozen=True)
class IterableRef:
    elem: "Ref"


Ref = TypeRef | ArrayRef | IterableRef


@dataclass(frozen=True)
class Member:
    name: str
    type: Ref


@dataclass(frozen=True)
class AbstractType:
    name: str
    supers: tuple = ()


@dataclass(frozen=True)
class ConcreteType:
    name: str
    supers: tuple = ()
    members: tuple = ()


@dataclass(frozen=True)
class EnumType:
    name: str
    constants: tuple = ()


@dataclass(frozen=True)
class ForeignSchema:
    """The foreign parser's type hierarchy, declared rather than reflected.

    Read-only once built: `types` is a read-only mapping, and construction
    validates it and computes each type's supertype closure and member index,
    so plans compiled from a schema (see `marshal`) never go stale.
    """

    types: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "types", MappingProxyType(dict(self.types)))
        self._validate()
        # Not fields: derived from `types`, so ==, hash and repr ignore them.
        closures = {name: self._walk_supers(name) for name in self.types}
        members: dict = {}
        for name, closure in closures.items():
            for n in closure:
                t = self.types[n]
                if isinstance(t, ConcreteType):
                    for m in t.members:
                        members.setdefault((name, m.name), m)
        object.__setattr__(self, "_closures", closures)
        object.__setattr__(self, "_closure_sets", {n: frozenset(c) for n, c in closures.items()})
        object.__setattr__(self, "_members", members)
        object.__setattr__(self, "_plans", {})  # id(spec) -> (spec, plan); see _plan

    def _validate(self) -> None:
        for t in self.types.values():
            if isinstance(t, EnumType):
                if len(set(t.constants)) != len(t.constants):
                    raise SchemaError(f"enum {t.name} repeats a constant")
                continue
            for sup in t.supers:
                parent = self.types.get(sup)
                if parent is None or not isinstance(parent, AbstractType):
                    raise SchemaError(f"{t.name} extends unknown or non-abstract type {sup}")
            if isinstance(t, ConcreteType):
                for m in t.members:
                    self._check_ref(m.type, f"{t.name}.{m.name}")
        # The subtype relation must be acyclic.
        state: dict = {}

        def visit(name: str) -> None:
            if state.get(name) == "done":
                return
            if state.get(name) == "busy":
                raise SchemaError(f"subtype cycle through {name}")
            state[name] = "busy"
            t = self.types[name]
            if not isinstance(t, EnumType):
                for sup in t.supers:
                    visit(sup)
            state[name] = "done"

        for name in self.types:
            visit(name)

    def _check_ref(self, ref: Ref, where: str) -> None:
        if isinstance(ref, TypeRef):
            if ref.name not in self.types and ref.name not in PRIMITIVE_MAP:
                raise SchemaError(f"{where} has unresolved type {ref.name}")
        else:
            self._check_ref(ref.elem, where)

    def _walk_supers(self, name: str) -> tuple:
        out: dict = {}  # insertion-ordered set
        queue = deque([name])
        while queue:
            n = queue.popleft()
            if n in out:
                continue
            out[n] = None
            t = self.types[n]
            if not isinstance(t, EnumType):
                queue.extend(t.supers)
        return tuple(out)

    def supers_closure(self, name: str) -> tuple:
        """name plus all (transitive) supertypes, nearest first, declaration order."""
        return self._closures.get(name) or (name,)

    def is_subtype(self, sub: str, sup: str) -> bool:
        closure = self._closure_sets.get(sub)
        return sup == sub if closure is None else sup in closure

    def member(self, class_name: str, member_name: str) -> Member | None:
        """The member of that name nearest to class_name, or None."""
        return self._members.get((class_name, member_name))


def _ref_from_doc(doc) -> Ref:
    if isinstance(doc, str):
        return TypeRef(doc)
    if isinstance(doc, dict) and len(doc) == 1:
        ((key, val),) = doc.items()
        if key == "array":
            return ArrayRef(_ref_from_doc(val))
        if key == "iterable":
            return IterableRef(_ref_from_doc(val))
    raise SchemaError(f"malformed foreign type reference {doc!r}")


def _json_doc(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{what} is not valid JSON: {e}") from None
    except RecursionError:
        raise SchemaError(f"{what} nests too deeply") from None


def load_schema(doc) -> ForeignSchema:
    """Build a schema from its JSON document form (a dict or JSON text)."""
    if isinstance(doc, str):
        doc = _json_doc(doc, "schema")
    if not isinstance(doc, dict) or not isinstance(doc.get("types"), list):
        raise SchemaError("schema document lacks a types list")
    types: dict = {}
    for entry in doc["types"]:
        if not isinstance(entry, dict):
            raise SchemaError(f"malformed schema entry {entry!r}")
        if "abstract" in entry:
            t = AbstractType(entry["abstract"], tuple(entry.get("implements", ())))
        elif "concrete" in entry:
            members = tuple(
                Member(m["name"], _ref_from_doc(m["type"])) for m in entry.get("members", ())
            )
            t = ConcreteType(entry["concrete"], tuple(entry.get("implements", ())), members)
        elif "enum" in entry:
            t = EnumType(entry["enum"], tuple(entry.get("constants", ())))
        else:
            raise SchemaError(f"schema entry {entry!r} is not abstract, concrete, or enum")
        if t.name in types or t.name in PRIMITIVE_MAP:
            raise SchemaError(f"duplicate or reserved type name {t.name}")
        types[t.name] = t
    return ForeignSchema(types)


# ---------------------------------------------------------------------------
# Foreign values
#
# Wire form: {"type": tag, "fields": {...}}, {"enum": "Op.PLUS"}, {"int": n},
# {"bool": b}, {"str": s}, {"real": x}, {"array": [...]}, or null.


@dataclass(frozen=True)
class FObj:
    tag: str
    fields: dict


@dataclass(frozen=True)
class FEnum:
    enum: str
    const: str


@dataclass(frozen=True)
class FInt:
    value: int


@dataclass(frozen=True)
class FBool:
    value: bool


@dataclass(frozen=True)
class FStr:
    value: str


@dataclass(frozen=True)
class FReal:
    value: float


@dataclass(frozen=True)
class FArr:
    elems: tuple


ForeignValue = FObj | FEnum | FInt | FBool | FStr | FReal | FArr | None


def load_foreign_value(doc) -> ForeignValue:
    """Build a foreign value from its JSON document form (a dict or JSON text)."""
    if isinstance(doc, str):
        doc = _json_doc(doc, "foreign value")
    return _fvalue(doc)


def _fvalue(doc) -> ForeignValue:
    # Values are checked and converted in document order: a leaf's _fleave
    # follows its _fkids at once. Nesting takes no Python stack.
    return fold(doc, _fleave, _fkids)


def _fkids(doc) -> list:
    """The field values of an object, or the elements of an array; nothing for a leaf."""
    if isinstance(doc, dict):
        if len(doc) == 2 and "type" in doc and "fields" in doc:
            return [value for _, value in doc["fields"].items()]
        if len(doc) == 1 and "array" in doc:
            return list(doc["array"])
    return []


def _fleave(doc, values, _) -> ForeignValue:
    if doc is None:
        return None
    if not isinstance(doc, dict):
        raise SchemaError(f"malformed foreign value {doc!r}")
    if len(doc) == 1:
        ((key, val),) = doc.items()
        if key == "type":
            return FObj(val, {})
        if key == "enum":
            path = val.split(".")
            if len(path) < 2:
                raise SchemaError(f"enum literal {val!r} needs the form Enum.CONST")
            return FEnum(path[-2], path[-1])
        if key == "int":
            return FInt(int(val))
        if key == "bool":
            return FBool(bool(val))
        if key == "str":
            return FStr(str(val))
        if key == "real":
            return FReal(float(val))
        if key == "array":
            return FArr(tuple(values))
    elif len(doc) == 2 and "type" in doc and "fields" in doc:
        return FObj(doc["type"], dict(zip(doc["fields"], values)))
    raise SchemaError(f"unrecognized foreign value with keys {sorted(doc)}")


# ---------------------------------------------------------------------------
# Mapping spec AST


@dataclass(frozen=True)
class ForeignLit:
    kind: str  # null | bool | int | path
    value: object = None


@dataclass(frozen=True)
class FieldSpec:
    member: str
    kind: str = "plain"  # plain | eq | neq | optional | cast | cast_array
    skip: bool = False
    literal: ForeignLit | None = None
    cast_to: str | None = None


@dataclass(frozen=True)
class TemplateArg:
    name: str
    enum_type: str | None = None
    enum_ctor: str | None = None


@dataclass(frozen=True)
class Rule:
    fields: tuple
    ctor: str
    args: tuple

    def active_fields(self) -> tuple:
        return tuple(f for f in self.fields if not f.skip)


@dataclass(frozen=True)
class ClassMapping:
    class_name: str
    rules: tuple


@dataclass(frozen=True)
class TympanicSpec:
    name: str
    imports: tuple  # of tuple[str, ...]
    export: tuple  # module path components
    types: tuple  # of (foreign name, adt name), source order
    mappings: tuple  # of ClassMapping

    def adt_for(self, foreign_name: str) -> str | None:
        for f, a in self.types:
            if f == foreign_name:
                return a
        return None


# --- tokenizer

_SCANNER = re.compile(
    r"(?P<ws>[ \t\r\n]+)|(?P<comment>#[^\n]*)"
    r"|(?P<keyword>(?:mapping|import|export|types|constructors)(?![A-Za-z0-9_]))"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)"
    r"|(?P<sym>=>|==|!=|::|[-,:%()\[\]?.=])|(?P<stray>.)",
    re.DOTALL,
)


def _ident(toks: TokenReader, what: str) -> str:
    kind, v, _ = toks.peek()
    if kind != "ident":
        toks.fail(f"expected {what}, got {v or 'end of input'!r}")
    return toks.next()[1]


def parse_tympanic(text: str) -> TympanicSpec:
    """Parse a mapping file into its spec AST."""
    toks = TokenReader(text, _SCANNER, TympanicSyntaxError)
    toks.expect("mapping")
    name = _ident(toks, "a mapping name")

    imports: list = []
    while toks.peek()[1] == "import":
        toks.next()
        path = [_ident(toks, "a package name")]
        while toks.peek()[1] == ".":
            toks.next()
            path.append(_ident(toks, "a package name"))
        imports.append(tuple(path))

    toks.expect("export")
    export = [_ident(toks, "a module name")]
    while toks.peek()[1] == "::":
        toks.next()
        export.append(_ident(toks, "a module name"))

    toks.expect("types")
    types: list = []
    while toks.peek()[0] == "ident":
        foreign = _ident(toks, "a foreign type")
        toks.expect("=>")
        mapped = _ident(toks, "a data type")
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
            rules.append(_parse_rule(toks))
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


def _parse_rule(toks: TokenReader) -> Rule:
    fields: list = []
    if toks.peek()[1] != ":":
        while True:
            fields.append(_parse_field(toks))
            if toks.peek()[1] == ",":
                toks.next()
                continue
            break
    toks.expect(":")
    ctor = _ident(toks, "a constructor name")
    toks.expect("(")
    args: list = []
    if toks.peek()[1] != ")":
        while True:
            args.append(_parse_arg(toks))
            if toks.peek()[1] == ",":
                toks.next()
                continue
            break
    toks.expect(")")
    return Rule(tuple(fields), ctor, tuple(args))


def _parse_field(toks: TokenReader) -> FieldSpec:
    skip = False
    if toks.peek()[1] == "%":
        toks.next()
        skip = True
    if toks.peek()[1] == "(":
        toks.next()
        target = _ident(toks, "a cast target type")
        kind = "cast"
        if toks.peek()[1] == "[":
            toks.next()
            toks.expect("]")
            kind = "cast_array"
        toks.expect(")")
        member = _ident(toks, "a member name")
        return FieldSpec(member, kind, skip, cast_to=target)
    member = _ident(toks, "a member name")
    nxt = toks.peek()[1]
    if nxt == "==":
        toks.next()
        return FieldSpec(member, "eq", skip, literal=_parse_foreign_literal(toks))
    if nxt == "!=":
        toks.next()
        return FieldSpec(member, "neq", skip, literal=_parse_foreign_literal(toks))
    if nxt == "?":
        toks.next()
        return FieldSpec(member, "optional", skip)
    return FieldSpec(member, "plain", skip)


def _parse_foreign_literal(toks: TokenReader) -> ForeignLit:
    kind, value, _ = toks.peek()
    if value == "null":
        toks.next()
        return ForeignLit("null")
    if value in ("true", "false"):
        toks.next()
        return ForeignLit("bool", value == "true")
    if value == "-":
        toks.next()
        if toks.peek()[0] != "int":
            toks.fail("expected an integer after '-'")
        return ForeignLit("int", -toks.integer(toks.next()))
    if kind == "int":
        return ForeignLit("int", toks.integer(toks.next()))
    if kind == "ident":
        path = [toks.next()[1]]
        while toks.peek()[1] == ".":
            toks.next()
            path.append(_ident(toks, "a path component"))
        return ForeignLit("path", tuple(path))
    toks.fail(f"expected a value literal, got {value!r}")


def _parse_arg(toks: TokenReader) -> TemplateArg:
    first = _ident(toks, "an argument name")
    if toks.peek()[0] != "ident":
        return TemplateArg(first)
    # Inline enum form: Type name = ctor()
    arg_name = toks.next()[1]
    toks.expect("=")
    ctor = _ident(toks, "an enum constructor")
    toks.expect("(")
    if toks.peek()[1] != ")":
        toks.fail("inline enum values must be nullary constructor literals")
    toks.expect(")")
    return TemplateArg(arg_name, enum_type=first, enum_ctor=ctor)


# ---------------------------------------------------------------------------
# Signature inference


def _mapped_adt(spec: TympanicSpec, schema: ForeignSchema, class_name: str) -> str:
    if class_name not in schema.types:
        raise UnknownForeignType(f"foreign type {class_name} is not in the schema")
    for name in schema.supers_closure(class_name):
        mapped = spec.adt_for(name)
        if mapped is not None:
            return mapped
    raise UnmappedForeignType(f"no type mapping covers {class_name}")


def _map_ref(spec: TympanicSpec, schema: ForeignSchema, ref: Ref, where: str) -> ArgType:
    if isinstance(ref, (ArrayRef, IterableRef)):
        return list_of(_map_ref(spec, schema, ref.elem, where))
    name = ref.name
    if name in PRIMITIVE_MAP:
        return prim(PRIMITIVE_MAP[name])
    if name not in schema.types:
        raise UnknownForeignType(f"{where}: foreign type {name} is not in the schema")
    if isinstance(schema.types[name], EnumType):
        raise UnmappedForeignType(
            f"{where}: enum {name} maps to no data type; use an inline enum argument"
        )
    for sup in schema.supers_closure(name):
        mapped = spec.adt_for(sup)
        if mapped is not None:
            return adt(mapped)
    raise UnmappedForeignType(f"{where}: no type mapping covers {name}")


def _cast_argtype(spec: TympanicSpec, schema: ForeignSchema, target: str, where: str) -> ArgType:
    if target in PRIMITIVE_MAP:
        return prim(PRIMITIVE_MAP[target])
    return _map_ref(spec, schema, TypeRef(target), where)


def _field_argtype(spec: TympanicSpec, schema: ForeignSchema, class_name: str, f: FieldSpec) -> ArgType:
    where = f"{class_name}.{f.member}"
    member = schema.member(class_name, f.member)
    if member is None:
        raise UnknownMember(f"{class_name} has no member {f.member}")
    if f.kind == "cast":
        return _cast_argtype(spec, schema, f.cast_to, where)
    if f.kind == "cast_array":
        return list_of(_cast_argtype(spec, schema, f.cast_to, where))
    base = _map_ref(spec, schema, member.type, where)
    if f.kind == "optional":
        return maybe_of(base)
    return base


def infer_signature(spec: TympanicSpec, schema: ForeignSchema):
    """Infer the signature and render its module text.

    Returns (Signature, module text). Constructors keep spec order; inline
    enum ADTs are appended after the mapped ADTs.
    """
    plan = _plan(spec, schema)
    return plan.sig, plan.module


# ---------------------------------------------------------------------------
# The compiled mapping
#
# A plan resolves every rule of a spec against a schema once: its guards, the
# type of each argument, and the rule set each foreign class dispatches to.
# infer_signature and marshal both read it.


@dataclass(frozen=True, slots=True)
class _RulePlan:
    ctor: str
    adt: str  # the ADT the rule's class maps to
    guards: tuple  # of (member, predicate on the member's value), field order
    members: tuple  # the member feeding each argument
    slots: tuple  # per argument, its ArgType or the inline enum's Con itself


@dataclass(frozen=True, slots=True)
class _Plan:
    sig: Signature
    module: str
    dispatch: dict  # tag -> (class with rules, its _RulePlans, the tag's own ADT type)


def _plan(spec: TympanicSpec, schema: ForeignSchema) -> _Plan:
    """The plan for this pair of objects, built on first use."""
    # Keyed by identity, since hashing a spec costs more than marshalling a
    # small value. The entry holds the spec, so its id is not reused while the
    # entry lives, and spec and schema are immutable, so the plan stays valid.
    hit = schema._plans.get(id(spec))
    if hit is None:
        hit = schema._plans[id(spec)] = (spec, _build_plan(spec, schema))
    return hit[1]


def _build_plan(spec: TympanicSpec, schema: ForeignSchema) -> _Plan:
    ctors: list = []
    enum_ctors: dict = {}
    rules_by_class: dict = {}
    for cm in spec.mappings:
        adt_name = _mapped_adt(spec, schema, cm.class_name)
        rules: list = []
        for rule in cm.rules:
            active = rule.active_fields()
            if len(active) != len(rule.args):
                raise ArityMismatch(
                    f"rule for {cm.class_name}: {len(active)} fields feed "
                    f"{rule.ctor}/{len(rule.args)}"
                )
            args: list = []
            slots: list = []
            for f, a in zip(active, rule.args):
                if a.enum_type is not None:
                    enum_ctors.setdefault(a.enum_type, [])
                    if a.enum_ctor not in enum_ctors[a.enum_type]:
                        enum_ctors[a.enum_type].append(a.enum_ctor)
                    args.append((a.name, adt(a.enum_type)))
                    slots.append(Con(a.enum_ctor, a.enum_type, ()))
                else:
                    at = _field_argtype(spec, schema, cm.class_name, f)
                    args.append((a.name, at))
                    slots.append(at)
            ctors.append(Constructor(rule.ctor, adt_name, tuple(args)))
            guards = tuple(
                (f.member, _guard(schema, f)) for f in rule.fields if f.kind not in ("plain", "optional")
            )
            members = tuple(f.member for f in active)
            rules.append(_RulePlan(rule.ctor, adt_name, guards, members, tuple(slots)))
        rules_by_class[cm.class_name] = tuple(rules)
    for enum_name, names in enum_ctors.items():
        for n in names:
            ctors.append(Constructor(n, enum_name, ()))
    types = {c.type for c in ctors} | {a for _, a in spec.types}
    sig = Signature(frozenset(types), tuple(ctors))
    module = "module " + "::".join(spec.export) + "\n\n" + render_signature(sig)

    # A tag dispatches to the nearest of its supertypes that has rules. Tags
    # outside the schema have no entry.
    dispatch: dict = {}
    for tag in schema.types:
        for name in schema.supers_closure(tag):
            if name in rules_by_class:
                own = adt(_mapped_adt(spec, schema, tag))
                dispatch[tag] = (name, rules_by_class[name], own)
                break
    return _Plan(sig, module, dispatch)


_PRIM_CLASS = {"int": FInt, "bool": FBool, "str": FStr, "real": FReal}


def _guard(schema: ForeignSchema, f: FieldSpec):
    """The guard of an eq, neq, cast or cast_array field, as a predicate."""
    if f.kind == "eq":
        return _literal_test(f.literal)
    if f.kind == "neq":
        matches = _literal_test(f.literal)
        return lambda v: not matches(v)
    conforms = _conforms_test(schema, f.cast_to)
    if f.kind == "cast":
        return conforms
    return lambda v: isinstance(v, FArr) and all(map(conforms, v.elems))


def _literal_test(lit: ForeignLit):
    value = lit.value
    if lit.kind == "null":
        return lambda v: v is None
    if lit.kind == "bool":
        return lambda v: isinstance(v, FBool) and v.value is value
    if lit.kind == "int":
        return lambda v: isinstance(v, FInt) and v.value == value
    # Enum constant paths compare on the trailing Enum.CONST components so
    # package qualifiers in the mapping file are tolerated.
    const = value[-1]
    if len(value) == 1:
        return lambda v: isinstance(v, FEnum) and v.const == const
    enum = value[-2]
    return lambda v: isinstance(v, FEnum) and v.const == const and v.enum == enum


def _conforms_test(schema: ForeignSchema, target: str):
    """Whether a value's run-time class is target or a subtype of it."""
    known = target in schema.types
    prim_class = _PRIM_CLASS.get(PRIMITIVE_MAP.get(target))

    def conforms(v) -> bool:
        if isinstance(v, FObj):
            return known and schema.is_subtype(v.tag, target)
        if isinstance(v, FEnum):
            return v.enum == target
        return type(v) is prim_class

    return conforms


# ---------------------------------------------------------------------------
# Marshalling


def marshal(spec: TympanicSpec, schema: ForeignSchema, value: ForeignValue) -> Term:
    """Convert a foreign value to a term over the inferred signature.

    Dispatch picks the most specific rule set whose class is a supertype of
    the value's tag; its rules fire in textual order, first applicable wins.
    The rules are compiled once per (spec, schema) pair of objects, and the
    value is walked with an explicit stack, so its depth takes no Python stack.
    """
    plan = _plan(spec, schema)
    dispatch = plan.dispatch
    if not isinstance(value, FObj):
        raise NoApplicableRule(f"cannot dispatch on {type(value).__name__} value", ())
    # Constructor applications and lists whose arguments are being converted,
    # outermost first. A frame is [(key, value, slot) iterator, terms so far,
    # the _RulePlan or list ArgType to build, path step from its parent, whether
    # to wrap the result in just].
    stack: list = []
    stack.append(_open(dispatch, value, stack, None, False))
    while True:
        frame = stack[-1]
        out = frame[1]
        for key, v, slot in frame[0]:
            if slot.__class__ is Con:  # an inline enum
                out.append(slot)
                continue
            at, just = slot, False
            if at.kind == "maybe":
                if v is None:
                    out.append(nothing_())
                    continue
                at, just = at.elem, True
            if v is None:
                raise NullNotOptional("null in a non-optional position", _path(stack, key))
            if at.kind == "prim":
                if not isinstance(v, _PRIM_CLASS[at.name]):
                    raise CastFailure(
                        f"expected a {at.name} value, got {type(v).__name__}", _path(stack, key)
                    )
                t = Prim(at.name, float(v.value) if at.name == "real" else v.value)
                out.append(just_(t) if just else t)
            elif at.kind == "list":
                if not isinstance(v, FArr):
                    raise CastFailure(f"expected an array, got {type(v).__name__}", _path(stack, key))
                stack.append([zip(count(), v.elems, repeat(at.elem)), [], at, key, just])
                break
            else:  # adt
                if not isinstance(v, FObj):
                    raise CastFailure(f"expected an object, got {type(v).__name__}", _path(stack, key))
                stack.append(_open(dispatch, v, stack, key, just))
                break
        else:
            stack.pop()
            made = frame[2]
            t = Con(made.ctor, made.adt, out) if made.__class__ is _RulePlan else ListTerm(out, made.elem)
            if frame[4]:
                t = just_(t)
            if not stack:
                break
            stack[-1][1].append(t)
    issues = check_term(plan.sig, t, dispatch[value.tag][2])
    if issues:  # the rules above should make this impossible
        raise MarshalError(f"marshalled term is ill-typed: {issues[0]}", ())
    return t


def _open(dispatch: dict, obj: FObj, stack: list, key, just: bool) -> list:
    """The frame of the first rule that applies to obj, found at key under stack."""
    entry = dispatch.get(obj.tag)
    if entry is None:
        raise NoApplicableRule(f"no rules cover class {obj.tag}", _path(stack, key))
    class_name, rules, _ = entry
    fields = obj.fields
    for rule in rules:
        for member, holds in rule.guards:
            if not holds(fields.get(member)):
                break
        else:
            return [zip(rule.members, map(fields.get, rule.members), rule.slots), [], rule, key, just]
    raise NoApplicableRule(f"no rule for {class_name} applies to this {obj.tag}", _path(stack, key))


def _path(stack: list, key) -> tuple:
    """The path to the value at key in the innermost frame; the root has no step."""
    return tuple(f[3] for f in stack[1:]) + (key,) if stack else ()


# ---------------------------------------------------------------------------
# Static checking


@dataclass(frozen=True)
class Diagnostic:
    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


def _guard_atoms(rule: Rule) -> frozenset:
    atoms = set()
    for f in rule.fields:
        if f.kind in ("eq", "neq"):
            atoms.add((f.kind, f.member, f.literal))
        elif f.kind in ("cast", "cast_array"):
            atoms.add((f.kind, f.member, f.cast_to))
    return frozenset(atoms)


def check_spec(spec: TympanicSpec, schema: ForeignSchema) -> list:
    """Static diagnostics for a mapping: unknown names, arities, dead rules."""
    diags: list = []

    for foreign, _ in spec.types:
        if foreign not in schema.types:
            diags.append(Diagnostic("unknown-foreign-type", f"types section names {foreign}"))
        else:
            t = schema.types[foreign]
            if isinstance(t, AbstractType):
                mapped_classes = {cm.class_name for cm in spec.mappings}
                if not any(
                    isinstance(schema.types.get(c), ConcreteType) and schema.is_subtype(c, foreign)
                    for c in mapped_classes
                ):
                    diags.append(
                        Diagnostic(
                            "abstract-without-concrete",
                            f"abstract type {foreign} has no mapped concrete subtype",
                        )
                    )

    for cm in spec.mappings:
        if cm.class_name not in schema.types:
            diags.append(
                Diagnostic("unknown-foreign-type", f"rules declared for unknown class {cm.class_name}")
            )
            continue
        try:
            _mapped_adt(spec, schema, cm.class_name)
        except MappingError as e:
            diags.append(Diagnostic("unmapped-foreign-type", str(e)))
        for rule in cm.rules:
            active = rule.active_fields()
            if len(active) != len(rule.args):
                diags.append(
                    Diagnostic(
                        "arity-mismatch",
                        f"rule for {cm.class_name}: {len(active)} fields feed "
                        f"{rule.ctor}/{len(rule.args)}",
                    )
                )
            known = set()
            for f in rule.fields:
                if schema.member(cm.class_name, f.member) is None:
                    diags.append(
                        Diagnostic("unknown-member", f"{cm.class_name} has no member {f.member}")
                    )
                else:
                    known.add(f.member)
            # Argument types must resolve for every field that feeds an
            # argument; inline enum arguments bypass the member's own type.
            for f, a in zip(active, rule.args):
                if a.enum_type is not None or f.member not in known:
                    continue
                try:
                    _field_argtype(spec, schema, cm.class_name, f)
                except MappingError as e:
                    diags.append(Diagnostic("unmapped-foreign-type", str(e)))
        # A later rule is dead when an earlier one's guards are a subset of its.
        for i, earlier in enumerate(cm.rules):
            for later in cm.rules[i + 1:]:
                if _guard_atoms(earlier) <= _guard_atoms(later):
                    diags.append(
                        Diagnostic(
                            "unreachable-rule",
                            f"rule {later.ctor} under {cm.class_name} can never fire after "
                            f"{earlier.ctor}",
                        )
                    )
    return diags
