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
    Signature,
    Term,
    TypeIssue,
    adt,
    check_term,
    list_of,
    term_root_type,
)


class MatchTypeError(Exception):
    """Pattern and subject disagree on their outermost type."""


class PatternStructureError(Exception):
    """A structurally ill-formed pattern (e.g. a sequence variable outside a list)."""


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


def pattern_vars(p: Pattern) -> dict:
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


def pattern_has_wildcards(p: Pattern) -> bool:
    if isinstance(p, (PWild, PSeqWild)):
        return True
    if isinstance(p, PCon):
        return any(pattern_has_wildcards(a) for a in p.args)
    if isinstance(p, PList):
        return any(pattern_has_wildcards(e) for e in p.elems)
    return False


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
    return _match(p, t, {})


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
        return Con(p.name, p.type, tuple(instantiate(a, env) for a in p.args))
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
                out.append(instantiate(e, env))
        return ListTerm(tuple(out), p.elem_type)
    if isinstance(p, (PWild, PSeqWild)):
        raise PatternStructureError("wildcards cannot be instantiated")
    raise PatternStructureError("sequence pattern used outside a list")


# ---------------------------------------------------------------------------
# Traversals


def _children(t: Term) -> tuple:
    if isinstance(t, Con):
        return t.args
    if isinstance(t, ListTerm):
        return t.elems
    return ()


def visit_collect(t: Term, p: Pattern) -> list:
    """Bottom-up, left-to-right: (path, first env) for every matching subtree."""
    hits: list = []

    def walk(node: Term, path: tuple) -> None:
        for i, child in enumerate(_children(node)):
            walk(child, path + (i,))
        env = next(_match(p, node, {}), None)
        if env is not None:
            hits.append((path, env))

    walk(t, ())
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

    def rewrite(node: Term) -> Term:
        kids = []
        for kid in _children(node):  # a loop, not a generator expression: half the stack
            kids.append(rewrite(kid))
        if isinstance(node, Con):
            node = Con(node.name, node.type, tuple(kids))
        elif isinstance(node, ListTerm):
            node = ListTerm(tuple(kids), node.elem_type)
        for lhs, rhs in checked:
            env = next(_match(lhs, node, {}), None)
            if env is not None:
                return instantiate(rhs, env)
        return node

    return rewrite(t)


# ---------------------------------------------------------------------------
# Pattern type checking (mirrors check_term)


def check_pattern(sig: Signature, p: Pattern, expected: ArgType) -> list:
    """Well-typedness issues for a pattern, with variables at their declared types."""
    issues: list = []

    def go(q: Pattern, at: ArgType, path: tuple) -> None:
        if isinstance(q, (PVar, PWild)):
            if not types_compatible(q.type, at):
                issues.append(TypeIssue(path, f"hole declared {q.type}, expected {at}"))
        elif isinstance(q, PLit):
            issues.extend(
                TypeIssue(path + t.path, t.message) for t in check_term(sig, q.term, at)
            )
        elif isinstance(q, PCon):
            if at.kind != "adt" or at.name != q.type:
                issues.append(TypeIssue(path, f"constructor pattern of {q.type}, expected {at}"))
                return
            con = sig.find(q.type, q.name, len(q.args))
            if con is None:
                issues.append(
                    TypeIssue(path, f"{q.type} declares no constructor {q.name}/{len(q.args)}")
                )
                return
            for i, ((_, arg_type), sub) in enumerate(zip(con.args, q.args)):
                go(sub, arg_type, path + (i,))
        elif isinstance(q, PList):
            if at.kind != "list" or at.elem != q.elem_type:
                issues.append(TypeIssue(path, f"list pattern of {list_of(q.elem_type)}, expected {at}"))
                return
            for i, e in enumerate(q.elems):
                if isinstance(e, (PSeqVar, PSeqWild)):
                    if e.elem_type != at.elem:
                        issues.append(
                            TypeIssue(path + (i,), f"sequence hole of {e.elem_type}, expected {at.elem}")
                        )
                else:
                    go(e, at.elem, path + (i,))
        else:
            issues.append(TypeIssue(path, "sequence pattern used outside a list"))

    go(p, expected, ())
    return issues
