"""Concrete syntax fragments with typed holes, parsed by black-box parsers.

A fragment like ``{name: <JSON v>}`` is split into text chunks and typed
holes, each hole is lowered to a placeholder string the object-language
parser accepts, the flattened text is parsed by the registered parser, and
the placeholder images in the resulting tree are lifted back into pattern
variables. The parser is reached only through its text-in/tree-out surface,
in process or over a line-delimited subprocess protocol.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import threading
from dataclasses import dataclass
from typing import Callable

from .lexing import PositionedError
from .patterns import (
    Pattern,
    PCon,
    PList,
    PLit,
    PSeqVar,
    PSeqWild,
    PVar,
    PWild,
)
from .terms import (
    Con,
    ListTerm,
    Signature,
    Term,
    TermDecodeError,
    adt,
    check_term,
    children,
    fold,
    parse_signature,
    term_from_wire,
)


class PipelineError(Exception):
    pass


class UnterminatedHole(PipelineError):
    pass


class EmptyHoleType(PipelineError):
    pass


class MalformedHole(PipelineError):
    pass


class HoleNameConflict(PipelineError):
    pass


class NoParserRegistered(PipelineError):
    pass


class NoHoleEncoder(PipelineError):
    pass


class EncoderImageUnparseable(PipelineError):
    pass


class DuplicateHoleImage(PipelineError):
    pass


class HoleNotFound(PipelineError):
    def __init__(self, index: int):
        super().__init__(f"the parser swallowed or rewrote the placeholder for hole {index}")
        self.index = index


class HoleCaptured(PipelineError):
    def __init__(self, index: int, count: int):
        super().__init__(
            f"placeholder image for hole {index} occurs {count} times; "
            "literal text in the fragment collides with a hole encoding"
        )
        self.index = index
        self.count = count


class StarHoleNotInList(PipelineError):
    def __init__(self, index: int):
        super().__init__(f"sequence hole {index} landed outside a list context")
        self.index = index


class HolesNotAllowed(PipelineError):
    pass


class ParserError(PositionedError, PipelineError):
    """A syntax error reported by an object-language parser."""


class ChildSpawnError(PipelineError):
    pass


class ProtocolError(PipelineError):
    pass


class ChildReportedSyntaxError(ParserError):
    pass


class IllTypedParserOutput(PipelineError):
    pass


class RegistryConfigError(PipelineError):
    pass


# ---------------------------------------------------------------------------
# Fragment splitting


@dataclass(frozen=True)
class TextChunk:
    text: str


@dataclass(frozen=True)
class Hole:
    index: int
    name: str  # "_" is anonymous
    type: str  # nonterminal name; for star holes this is the element type
    star: bool


@dataclass(frozen=True)
class ConcretePattern:
    """A split fragment: the target nonterminal plus interleaved chunks and holes."""

    nonterminal: str
    parts: tuple

    def holes(self) -> list:
        return [p for p in self.parts if isinstance(p, Hole)]


_HOLE_BODY = re.compile(
    r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:(\*)\s*|\s+)([A-Za-z_][A-Za-z0-9_]*)\s*$"
)


def split_fragment(nonterminal: str, text: str) -> ConcretePattern:
    """Split fragment text on `<Type name>` / `<Type* name>` holes.

    `\\<` escapes a literal `<`; `_` is the anonymous hole name. Hole indices
    run left to right from 0.
    """
    parts: list = []
    buf: list = []
    names: dict = {}
    index = 0
    i = 0
    while (start := text.find("<", i)) >= 0:
        if start > i and text[start - 1] == "\\":  # `\<` is a literal `<`
            buf.append(text[i:start - 1] + "<")
            i = start + 1
            continue
        buf.append(text[i:start])
        end = text.find(">", start + 1)
        if end < 0:
            raise UnterminatedHole(f"hole opened at offset {start} has no closing '>'")
        body = text[start + 1:end]
        if not body.strip():
            raise EmptyHoleType(f"hole at offset {start} has no type")
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
        if chunk := "".join(buf):
            parts.append(TextChunk(chunk))
        buf = []
        parts.append(Hole(index, name, hole_type, star))
        index += 1
        i = end + 1
    if chunk := "".join(buf) + text[i:]:
        parts.append(TextChunk(chunk))
    return ConcretePattern(nonterminal, tuple(parts))


# ---------------------------------------------------------------------------
# Parser registry


@dataclass
class RegistryEntry:
    parse: Callable
    hole: Callable | None = None
    signature: Signature | None = None


class ParserRegistry:
    """Per-nonterminal parse functions and hole encoders.

    Entries are in-process callables or subprocess adapters; the registry is
    meant to be fully populated before use and not mutated afterwards.
    """

    def __init__(self):
        self._entries: dict = {}
        self._adapters: list = []

    def register(self, nonterminal: str, parse: Callable, hole: Callable | None = None,
                 signature: Signature | None = None) -> None:
        # A hole encoder only makes sense alongside a parser for the same
        # nonterminal; taking both in one call keeps that invariant structural.
        if parse is None:
            raise RegistryConfigError(f"a hole encoder for {nonterminal} requires a parser too")
        self._entries[nonterminal] = RegistryEntry(parse, hole, signature)

    def has(self, nonterminal: str) -> bool:
        return nonterminal in self._entries

    def nonterminals(self) -> list:
        return sorted(self._entries)

    def parse(self, nonterminal: str, text: str) -> Term:
        entry = self._entries.get(nonterminal)
        if entry is None:
            raise NoParserRegistered(f"no parser registered for nonterminal {nonterminal}")
        return entry.parse(text)

    def hole_text(self, nonterminal: str, index: int) -> str:
        entry = self._entries.get(nonterminal)
        if entry is None or entry.hole is None:
            raise NoHoleEncoder(f"no hole encoder registered for nonterminal {nonterminal}")
        return entry.hole(index)

    def signature_for(self, nonterminal: str) -> Signature | None:
        entry = self._entries.get(nonterminal)
        return entry.signature if entry else None

    def track_adapter(self, adapter: "SubprocessParser") -> None:
        self._adapters.append(adapter)

    def close(self) -> None:
        for a in self._adapters:
            a.close()
        self._adapters.clear()

    def __enter__(self) -> "ParserRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Lowering and lifting


@dataclass(frozen=True)
class HoleEntry:
    index: int
    name: str
    type: str
    star: bool
    encoded: str
    image: Term


def lower(cp: ConcretePattern, reg: ParserRegistry):
    """Replace holes with placeholder text; record each placeholder's parsed image.

    Returns (flattened text, hole table). Images are computed now so a broken
    encoder fails here rather than deep inside a later parse.
    """
    out: list = []
    table: list = []
    for part in cp.parts:
        if isinstance(part, TextChunk):
            out.append(part.text)
            continue
        encoded = reg.hole_text(part.type, part.index)
        try:
            image = reg.parse(part.type, encoded)
        except PipelineError as e:
            raise EncoderImageUnparseable(
                f"hole encoder for {part.type} produced unparseable text {encoded!r}: {e}"
            ) from None
        table.append(HoleEntry(part.index, part.name, part.type, part.star, encoded, image))
        out.append(encoded)
    first: dict = {}
    pairs = [(first.setdefault(entry.image, entry).index, entry.index) for entry in table]
    clashes = [(a, b) for a, b in pairs if a != b]
    if clashes:
        a, b = min(clashes)  # the earliest hole that has a twin, and its first twin
        raise DuplicateHoleImage(f"holes {a} and {b} encode to the same parsed image")
    return "".join(out), table


def lift(t: Term, table: list, *, lenient: bool = False) -> Pattern:
    """Replace each placeholder image in t with its hole's pattern variable.

    Every image must occur exactly once. Zero occurrences raise HoleNotFound.
    More than one raises HoleCaptured unless lenient, in which case every
    occurrence becomes the same variable and matching degrades to a non-linear
    match on the colliding positions.
    """
    if not table:
        return PLit(t)
    counts = {entry.index: 0 for entry in table}
    by_image = {entry.image: entry for entry in reversed(table)}  # the first entry wins

    found: dict = {}  # id of an image in t -> its entry; looked up once per node

    def kids(node: Term) -> tuple:
        entry = by_image.get(node)
        if entry is None:
            return children(node)
        found[id(node)] = entry
        return ()  # an image is a leaf

    # A subtree without holes lifts to None; a parent with holes wraps it in a PLit.
    def leave(node: Term, lifted, path: list):
        if lifted:
            if not any(lifted):
                return None
            ps = tuple(PLit(k) if p is None else p for k, p in zip(children(node), lifted))
            if node.__class__ is ListTerm:
                return PList(ps, node.elem_type)
            return PCon(node.name, node.type, ps)
        entry = found.get(id(node))
        if entry is None:
            return None
        counts[entry.index] += 1
        if entry.star:
            parent = t
            for i in path[:-1]:
                parent = children(parent)[i]
            if not path or parent.__class__ is not ListTerm:
                raise StarHoleNotInList(entry.index)
            if entry.name == "_":
                return PSeqWild(adt(entry.type))
            return PSeqVar(entry.name, adt(entry.type))
        if entry.name == "_":
            return PWild(adt(entry.type))
        return PVar(entry.name, adt(entry.type))

    pattern = fold(t, leave, kids)
    for entry in table:
        n = counts[entry.index]
        if n == 0:
            raise HoleNotFound(entry.index)
        if n > 1 and not lenient:
            raise HoleCaptured(entry.index, n)
    return PLit(t) if pattern is None else pattern


def to_pattern(nonterminal: str, text: str, reg: ParserRegistry, *, lenient: bool = False) -> Pattern:
    """The whole pipeline: split, lower, parse the flattened text, lift."""
    cp = split_fragment(nonterminal, text)
    flattened, table = lower(cp, reg)
    t = reg.parse(nonterminal, flattened)
    return lift(t, table, lenient=lenient)


def parse_term(nonterminal: str, text: str, reg: ParserRegistry) -> Term:
    """Parse a hole-free fragment to a term. `\\<` still escapes a literal `<`."""
    cp = split_fragment(nonterminal, text)
    if cp.holes():
        raise HolesNotAllowed(f"fragment contains {len(cp.holes())} hole(s)")
    flattened = "".join(part.text for part in cp.parts)
    return reg.parse(nonterminal, flattened)


# ---------------------------------------------------------------------------
# Subprocess parser protocol
#
#   request:  {"nonterminal": string, "text": string}\n
#   response: {"ok": true, "term": <wire term>}
#           | {"ok": false, "line": int, "col": int, "message": string}


class SubprocessParser:
    """One black-box parser process, spoken to over stdin/stdout, one line each way.

    Exchanges are serialized under a lock, so one adapter can back several
    registry entries and be used from several threads.
    """

    def __init__(self, command):
        self.command = list(command)
        self._proc = None
        self._lock = threading.Lock()

    def _ensure(self):
        if self._proc is not None and self._proc.poll() is None:
            return self._proc
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                encoding="utf-8",
                bufsize=1,
            )
        except OSError as e:
            raise ChildSpawnError(f"cannot start {self.command}: {e}") from None
        return self._proc

    def parse(self, nonterminal: str, text: str) -> Term:
        with self._lock:
            proc = self._ensure()
            request = json.dumps({"nonterminal": nonterminal, "text": text})
            try:
                proc.stdin.write(request + "\n")
                proc.stdin.flush()
                line = proc.stdout.readline()
            except (BrokenPipeError, OSError) as e:
                self._discard(proc)
                raise ProtocolError(f"lost connection to {self.command}: {e}") from None
            if not line:
                code = self._discard(proc)
                raise ProtocolError(
                    f"parser process {self.command} closed its stream (exit code {code}) before replying"
                )
            try:
                return self._reply(line)
            except ProtocolError:  # the stream may be out of step: never read from it again
                self._discard(proc)
                raise

    def _reply(self, line: str) -> Term:
        """The term in one reply line, or the child's syntax error raised."""
        try:
            response = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as e:
            raise ProtocolError(f"malformed response line from {self.command}: {e}") from None
        if not isinstance(response, dict) or "ok" not in response:
            raise ProtocolError(f"response from {self.command} lacks an ok field")
        if response["ok"] is True:
            if "term" not in response:
                raise ProtocolError(f"ok response from {self.command} lacks a term")
            try:
                return term_from_wire(response["term"])
            except (TermDecodeError, RecursionError) as e:
                raise ProtocolError(f"undecodable term from {self.command}: {e}") from None
        try:
            return_line = int(response.get("line", 0))
            return_col = int(response.get("col", 0))
            message = str(response["message"])
        except (KeyError, TypeError, ValueError):
            raise ProtocolError(f"malformed error response from {self.command}") from None
        raise ChildReportedSyntaxError(message, return_line, return_col)

    def _discard(self, proc) -> int:
        """Kill and reap a child that broke the protocol; the next request starts a fresh one."""
        proc.kill()  # a no-op if the child has already exited
        return self._release(proc)

    def _release(self, proc) -> int:
        """Close both pipes and reap the child, killing it if it outlives its stdin by 5 s."""
        self._proc = None
        try:
            proc.stdin.close()
        except OSError:  # flushing what a dead child never read
            pass
        try:
            code = proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        proc.stdout.close()
        return code

    def close(self) -> None:
        if self._proc is not None:
            self._release(self._proc)

    def __enter__(self) -> "SubprocessParser":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def make_parse_fn(base: Callable, nonterminal: str, *, signature: Signature | None = None,
                  wrap: str = "{body}", project=(), hole: Callable | None = None,
                  check: bool = False) -> Callable:
    """Wrap a raw text->Term function with context wrapping, projection, and checking.

    `wrap` embeds the fragment into a complete unit via `{body}` substitution,
    and error positions are mapped back into the fragment. `project` follows
    child indices from the unit's tree to the fragment's image. It is strict:
    the unit around `hole(0)`, parsed on first use, is the reference, and each
    tree must match it everywhere off that path.
    """
    if not isinstance(wrap, str) or wrap.count("{body}") != 1:
        raise RegistryConfigError(f"wrap for {nonterminal} must contain {{body}} exactly once")
    if not isinstance(project, (list, tuple)) or any(type(i) is not int or i < 0 for i in project):
        raise RegistryConfigError(f"project for {nonterminal} must be a list of non-negative integers")
    if project and hole is None:
        raise RegistryConfigError(f"project for {nonterminal} needs a hole template")
    prefix, suffix = wrap.split("{body}")
    lines, indent = prefix.count("\n"), len(prefix) - (prefix.rfind("\n") + 1)
    reference: list = []  # parsed on first use; racing threads append equal trees

    def unit(text: str) -> Term:
        try:
            return base(prefix + text + suffix)
        except ParserError as e:
            if not prefix or e.line <= lines:  # no position, or one inside the context
                raise
            line = e.line - lines
            raise type(e)(e.message, line, max(e.col - indent, 1) if line == 1 else e.col) from None

    def parse(text: str) -> Term:
        t = unit(text)
        if project:
            if not reference:
                reference.append(unit(hole(0)))
            ref = reference[0]
            for i in project:
                c, kids, ref_kids = t.__class__, children(t), children(ref)
                if i >= len(ref_kids):
                    raise RegistryConfigError(f"project for {nonterminal} leaves its context's tree")
                if (c is not ref.__class__ or len(kids) != len(ref_kids)
                        or (c is Con and (t.name, t.type) != (ref.name, ref.type))
                        or (c is ListTerm and t.elem_type != ref.elem_type)
                        or kids[:i] != ref_kids[:i] or kids[i + 1:] != ref_kids[i + 1:]):
                    raise ParserError(f"expected exactly one {nonterminal}", 1, 1)
                t, ref = kids[i], ref_kids[i]
        if check and signature is not None:
            issues = check_term(signature, t, adt(nonterminal))
            if issues:
                raise IllTypedParserOutput(f"parser output for {nonterminal} is ill-typed: {issues[0]}")
        return t

    return parse


# ---------------------------------------------------------------------------
# Registry configuration documents
#
# {
#   "nonterminals": {
#     "JSON": {"builtin": "json"},
#     "Stm":  {"command": ["csbb-exprlang"], "signature": "exprlang.sig",
#               "hole": "_hole_{id};"},
#     "Prop": {"builtin": "json", "via": "JSON", "wrap": "{ {body} }",
#              "project": [0, 0], "hole": "_hole:{id}"}
#   }
# }
#
# Hole templates substitute the literal text {id}; wrap templates substitute
# {body}, which must occur once. "via" names the nonterminal used to parse the
# wrapped text (default: the entry's own). "project" needs a hole template or a
# builtin's own hole encoder (see make_parse_fn). Relative signature paths
# resolve against the config file.


def hole_encoder_from_template(template: str) -> Callable:
    return lambda index: template.replace("{id}", str(index))


def load_registry_config(path: str) -> ParserRegistry:
    from . import jsonlang  # deferred: jsonlang imports this module's error types

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise RegistryConfigError(f"cannot read registry config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise RegistryConfigError(f"registry config {path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("nonterminals"), dict):
        raise RegistryConfigError(f"registry config {path} lacks a nonterminals section")

    base_dir = os.path.dirname(os.path.abspath(path))
    reg = ParserRegistry()
    adapters: dict = {}
    signatures: dict = {}

    def load_signature(rel: str) -> Signature:
        sig_path = rel if os.path.isabs(rel) else os.path.join(base_dir, rel)
        if sig_path not in signatures:
            try:
                with open(sig_path, encoding="utf-8") as f:
                    signatures[sig_path] = parse_signature(f.read())
            except OSError as e:
                raise RegistryConfigError(f"cannot read signature file {sig_path}: {e}") from None
        return signatures[sig_path]

    builtins = {"json": (jsonlang.nonterminals(), jsonlang.JSON_SIGNATURE)}

    for nonterminal, spec in doc["nonterminals"].items():
        if not isinstance(spec, dict):
            raise RegistryConfigError(f"entry for {nonterminal} must be an object")
        wrap = spec.get("wrap", "{body}")
        project = spec.get("project", ())
        via = spec.get("via", nonterminal)
        hole_template = spec.get("hole")
        hole = hole_encoder_from_template(hole_template) if hole_template else None

        if "builtin" in spec:
            table, signature = builtins.get(spec["builtin"], (None, None))
            if table is None:
                raise RegistryConfigError(f"unknown builtin {spec['builtin']!r}")
            if via not in table:
                raise RegistryConfigError(f"builtin {spec['builtin']!r} does not serve nonterminal {via}")
            if not signature.has_type(nonterminal):
                raise RegistryConfigError(
                    f"nonterminal {nonterminal} is not a type of builtin {spec['builtin']!r}"
                )
            if hole is None and nonterminal in table:
                hole = table[nonterminal][1]
            parse = make_parse_fn(
                table[via][0], nonterminal, signature=signature, wrap=wrap, project=project,
                hole=hole, check=via != nonterminal or bool(project),
            )
            reg.register(nonterminal, parse, hole=hole, signature=signature)
        elif "command" in spec:
            command = spec["command"]
            if not isinstance(command, list) or not command:
                raise RegistryConfigError(f"entry for {nonterminal} has a malformed command")
            if "signature" not in spec:
                raise RegistryConfigError(f"entry for {nonterminal} needs a signature file")
            signature = load_signature(spec["signature"])
            if not signature.has_type(nonterminal):
                raise RegistryConfigError(
                    f"signature for {nonterminal} does not declare that type"
                )
            key = tuple(command)
            if key not in adapters:
                adapters[key] = SubprocessParser(command)
                reg.track_adapter(adapters[key])
            adapter = adapters[key]
            base = (lambda a, v: lambda text: a.parse(v, text))(adapter, via)
            parse = make_parse_fn(
                base, nonterminal, signature=signature, wrap=wrap, project=project, hole=hole,
                check=True,
            )
            reg.register(nonterminal, parse, hole=hole, signature=signature)
        else:
            raise RegistryConfigError(
                f"entry for {nonterminal} must name either a builtin or a command"
            )
    return reg


def default_registry() -> ParserRegistry:
    """The registry used when no config is given: just the builtin JSON binding."""
    from . import jsonlang  # deferred, as in load_registry_config

    reg = ParserRegistry()
    jsonlang.register_json(reg)
    return reg
