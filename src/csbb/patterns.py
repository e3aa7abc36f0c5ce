"""Abstract patterns, backtracking matching, instantiation, and visit traversals.

Matching is deterministic: subpatterns are tried left to right and sequence
variables explore the shortest binding first, growing on backtrack. Repeated
variable names are non-linear: every occurrence must bind structurally equal
terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .terms import (
    ArgType,
    Con,
    ListTerm,
    Term,
    adt,
    fold,
    list_of,
    term_root_type,
)


class MatchTypeError(Exception):
    """Pattern and subject disagree on their outermost type."""


class PatternStructureError(Exception):
    """A structurally ill-formed pattern (e.g. a sequence variable outside a list),
    or one that nests too deeply to match."""


class UnboundVariable(Exception):
    def __init__(self, name: str):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class TypeMismatch(Exception):
    def __init__(self, name: str, detail: str):
        super().__init__(f"binding for {name!r} {detail}")
        self.name = name


class IllTypedRule(Exception):
    """A rewrite rule whose sides disagree or whose right side is not closed."""


# ---------------------------------------------------------------------------
# Pattern shapes


@dataclass(frozen=True)
class PCon:
    name: str
    type: str
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if any(isinstance(a, (PSeqVar, PSeqWild)) for a in self.args):
            raise PatternStructureError("sequence pattern used outside a list")


@dataclass(frozen=True)
class PLit:
    term: Term


@dataclass(frozen=True)
class PVar:
    """A typed hole binding one subtree."""

    name: str
    type: ArgType


@dataclass(frozen=True)
class PSeqVar:
    """A typed hole binding zero or more consecutive list elements."""

    name: str
    elem_type: ArgType


@dataclass(frozen=True)
class PWild:
    type: ArgType


@dataclass(frozen=True)
class PSeqWild:
    elem_type: ArgType


@dataclass(frozen=True)
class PList:
    elems: tuple
    elem_type: ArgType

    def __post_init__(self):
        object.__setattr__(self, "elems", tuple(self.elems))
        for e in self.elems:
            if isinstance(e, (PSeqVar, PSeqWild)) and e.elem_type != self.elem_type:
                raise PatternStructureError(
                    f"sequence element type {e.elem_type} does not match list type {self.elem_type}"
                )


Pattern = PCon | PLit | PVar | PSeqVar | PWild | PSeqWild | PList

# An Env maps variable names to a Term (plain variables) or a tuple of Terms
# (sequence variables); insertion order records first-binding order.
Env = dict


def pattern_root_type(p: Pattern) -> ArgType:
    if isinstance(p, PCon):
        return adt(p.type)
    if isinstance(p, PLit):
        return term_root_type(p.term)
    if isinstance(p, (PVar, PWild)):
        return p.type
    if isinstance(p, PList):
        return list_of(p.elem_type)
    raise PatternStructureError("sequence pattern used outside a list")


def types_compatible(a: ArgType, b: ArgType) -> bool:
    if a == b:
        return True
    # A maybe value is carried by the synthetic Maybe constructor type.
    for x, y in ((a, b), (b, a)):
        if x.kind == "maybe" and y == adt("Maybe"):
            return True
    return False


def _subpatterns(p: Pattern) -> tuple:
    """The direct subpatterns of p, left to right."""
    c = p.__class__
    if c is PCon:
        return p.args
    if c is PList:
        return p.elems
    return ()


def pattern_vars(p: Pattern) -> dict:
    """Map variable name -> ("var" | "seq", declared ArgType). Wildcards are skipped."""
    out: dict = {}

    def leave(q: Pattern, _, __) -> None:
        if q.__class__ is PVar:
            spec = ("var", q.type)
        elif q.__class__ is PSeqVar:
            spec = ("seq", q.elem_type)
        else:
            return
        if out.setdefault(q.name, spec) != spec:
            raise PatternStructureError(f"variable {q.name!r} used at conflicting types")

    fold(p, leave, _subpatterns)
    return out


def pattern_has_wildcards(p: Pattern) -> bool:
    return fold(p, lambda q, kids, _: q.__class__ in (PWild, PSeqWild) or any(kids), _subpatterns)


# ---------------------------------------------------------------------------
# Matching


def match(p: Pattern, t: Term) -> Iterator[Env]:
    """All environments under which p instantiates to exactly t.

    The sequence is deterministic; see the module docstring for the order.
    A root type disagreement raises MatchTypeError before any matching runs.
    """
    ptype = pattern_root_type(p)
    if not types_compatible(ptype, term_root_type(t)):
        raise MatchTypeError(f"pattern of type {ptype} cannot match term of type {term_root_type(t)}")
    return _too_deep_is_structural(_match(p, t, {}))


# Matching recurses once per pattern level and per list element pattern; past
# the recursion limit it raises this documented error, not a RecursionError.
_TOO_DEEP = "pattern nests too deeply to match"


def _too_deep_is_structural(envs: Iterator[Env]) -> Iterator[Env]:
    try:
        yield from envs
    except RecursionError:
        raise PatternStructureError(_TOO_DEEP) from None


def match_first(p: Pattern, t: Term) -> Env | None:
    return next(match(p, t), None)


def _match(p: Pattern, t: Term, env: Env) -> Iterator[Env]:
    if isinstance(p, PVar):
        if p.name in env:
            if env[p.name] == t:  # a sequence binding, a tuple, never equals a term
                yield env
        elif types_compatible(p.type, term_root_type(t)):
            yield {**env, p.name: t}
    elif isinstance(p, PWild):
        if types_compatible(p.type, term_root_type(t)):
            yield env
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
            yield from _match_seq(p.args, 0, t.args, 0, env)
    elif isinstance(p, PList):
        if isinstance(t, ListTerm) and t.elem_type == p.elem_type:
            yield from _match_seq(p.elems, 0, t.elems, 0, env)
    else:
        raise PatternStructureError("sequence pattern used outside a list")


def _match_seq(ps: tuple, i: int, ts: tuple, j: int, env: Env) -> Iterator[Env]:
    """Match ps[i:] against ts[j:]; constructor arguments and list elements alike."""
    if i == len(ps):
        if j == len(ts):
            yield env
        return
    head = ps[i]
    if isinstance(head, PSeqVar) and head.name in env:
        bound = env[head.name]
        if isinstance(bound, tuple) and bound == ts[j:j + len(bound)]:
            yield from _match_seq(ps, i + 1, ts, j + len(bound), env)
    elif isinstance(head, (PSeqVar, PSeqWild)):
        # Shortest binding first; a trailing hole can only take the rest.
        for k in range(len(ts) if i + 1 == len(ps) else j, len(ts) + 1):
            env2 = {**env, head.name: ts[j:k]} if isinstance(head, PSeqVar) else env
            yield from _match_seq(ps, i + 1, ts, k, env2)
    elif j < len(ts):
        for env2 in _match(head, ts[j], env):
            yield from _match_seq(ps, i + 1, ts, j + 1, env2)


# ---------------------------------------------------------------------------
# Instantiation


def instantiate(p: Pattern, env: Env) -> Term:
    """Splice env's bindings into p. p must be wildcard-free and closed under env."""

    def leave(q: Pattern, kids, path: list) -> Term | tuple:
        c = q.__class__
        if c is PLit:
            return q.term
        if c is PCon:
            return Con(q.name, q.type, tuple(kids))
        if c is PList:
            out: list = []
            for k in kids:  # a sequence variable gives a tuple of elements
                if k.__class__ is tuple:
                    out.extend(k)
                else:
                    out.append(k)
            return ListTerm(tuple(out), q.elem_type)
        if c is PWild or c is PSeqWild:
            raise PatternStructureError("wildcards cannot be instantiated")
        # A PSeqVar below the root is a list element: PCon admits no sequence pattern.
        if c is not PVar and (c is not PSeqVar or not path):
            raise PatternStructureError("sequence pattern used outside a list")
        if q.name not in env:
            raise UnboundVariable(q.name)
        v = env[q.name]
        if c is PVar:
            if isinstance(v, tuple):
                raise TypeMismatch(q.name, "is a sequence but the variable binds one term")
            if not types_compatible(q.type, term_root_type(v)):
                raise TypeMismatch(q.name, f"has type {term_root_type(v)}, expected {q.type}")
            return v
        if not isinstance(v, tuple):
            raise TypeMismatch(q.name, "binds one term but the variable is a sequence")
        for item in v:
            if not types_compatible(q.elem_type, term_root_type(item)):
                raise TypeMismatch(
                    q.name, f"contains a {term_root_type(item)}, expected {q.elem_type}"
                )
        return v

    return fold(p, leave, _subpatterns)


# ---------------------------------------------------------------------------
# Traversals


def visit_collect(t: Term, p: Pattern) -> list:
    """Bottom-up, left-to-right: (path, first env) for every matching subtree."""
    hits: list = []

    def leave(node: Term, _, path: list) -> None:
        env = next(_match(p, node, {}), None)
        if env is not None:
            hits.append((tuple(path), env))

    try:
        fold(t, leave)
    except RecursionError:
        raise PatternStructureError(_TOO_DEEP) from None
    return hits


def visit_rewrite(t: Term, rules: list) -> Term:
    """One bottom-up pass; at each node the first applicable rule rewrites once."""
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
        checked.append((lhs, rhs))

    def leave(node: Term, kids, _) -> Term:
        if node.__class__ is Con:
            node = Con(node.name, node.type, tuple(kids))
        elif node.__class__ is ListTerm:
            node = ListTerm(tuple(kids), node.elem_type)
        for lhs, rhs in checked:
            env = next(_match(lhs, node, {}), None)
            if env is not None:
                return instantiate(rhs, env)
        return node

    try:
        return fold(t, leave)
    except RecursionError:
        raise PatternStructureError(_TOO_DEEP) from None
