"""The one token reader against the three hand-written lexers it replaced.

Every signature, mapping and ExprLang text in the test files, and seeded
single-character corruptions of them, go through the old readers (copied into
support.py) and the new ones. They must agree, except for three kinds of
difference, each recognised by rule and checked exactly:

(a) whitespace other than space, tab, CR and LF, on which the old signature
    and ExprLang lexers crashed;
(b) ExprLang's token rule is ASCII: a non-ASCII letter or digit is a stray
    character, where the old lexer read it as a one-character token;
(c) a signature's "bad ..." error points at the token it names, where the old
    reader pointed at the token after it.
"""

from __future__ import annotations

import ast
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from support import (
    _SigTokensOracle,
    parse_expr_oracle,
    parse_signature_oracle,
    parse_stm_oracle,
    parse_tympanic_oracle,
)
from csbb.concrete import ParserError, PipelineError
from csbb.exprlang import ExprLangSyntaxError, parse_expr, parse_stm
from csbb.jsonlang import JsonSyntaxError
from csbb.lexing import PositionedError, line_col
from csbb.terms import SignatureSyntaxError, parse_signature
from csbb.tympanic import TympanicSyntaxError, parse_tympanic

_SPACE = " \t\r\n"
_POOL = "#\t\n\f\xa0 \v²é٣$:=x1 ;(),|[]{}+-.%"
_PLACEHOLDERS = "$@~`!?^&*"
_BAD = ("bad type name ", "bad constructor name ", "bad argument name ", "bad argument type ")
_WRAP = {parse_stm: (" }", parse_stm_oracle), parse_expr: ("; }", parse_expr_oracle)}
_EXPR_PREFIX = "void dummy() { "
_EXPR_TOKEN_CHAR = re.compile(r"[A-Za-z0-9_+(){};]")


def _harvest() -> dict:
    """Signature, mapping and ExprLang texts written in the test files."""
    found: dict = {"sig": set(), "mapping": set(), "expr": set()}
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if "data " in node.value:
                    found["sig"].add(node.value)
                if "mapping " in node.value:
                    found["mapping"].add(node.value)
            # ExprLang texts sit next to a "Stm" or "Expr" argument or dict value,
            # or are the argument of parse_stm / parse_expr.
            kids = node.args if isinstance(node, ast.Call) else node.values if isinstance(node, ast.Dict) else ()
            consts = [k.value for k in kids if isinstance(k, ast.Constant) and isinstance(k.value, str)]
            name = getattr(getattr(node, "func", None), "id", None)
            if {"Stm", "Expr"} & set(consts) or name in ("parse_stm", "parse_expr"):
                found["expr"].update(c for c in consts if c not in ("Stm", "Expr"))
    return {kind: sorted(texts) for kind, texts in found.items()}


def _mutants(rng, text: str, n: int) -> list:
    out = [text]
    for _ in range(n):
        i = rng.randrange(len(text) + 1)
        j = min(i, len(text) - 1)
        out.append(text[:j] + text[j + 1:])  # deletion
        out.append(text[:i] + rng.choice(_POOL) + text[i:])  # insertion
        out.append(text[:j] + text[j + 1:j + 2] + text[j:j + 1] + text[j + 2:])  # swap
        out.append(text[:i])  # truncation
    return out


def _outcome(f, text: str):
    try:
        return ("ok", f(text))
    except Exception as e:  # the old readers' crashes are part of the outcome
        return ("err", type(e), str(e))


def _sig_expected(text: str):
    """The new signature reader's outcome, by rule, and the kinds it shows."""
    kinds = set()
    # (a) Unusual whitespace outside comments is a one-character token, so the
    # old reader sees what it saw for a placeholder token in its place.
    spare = iter(p for p in _PLACEHOLDERS if p not in text)
    swaps: dict = {}
    chars = list(text)
    in_comment = False
    for i, c in enumerate(chars):
        in_comment = (in_comment or c == "#") and c != "\n"
        if not in_comment and c.isspace() and c not in _SPACE:
            chars[i] = swaps.setdefault(c, next(spare))
    if swaps:
        kinds.add("a")
        assert _outcome(parse_signature_oracle, text)[1] is AttributeError
    replaced = "".join(chars)
    got = _outcome(parse_signature_oracle, replaced)
    if got[0] == "err" and got[1] is SignatureSyntaxError:
        try:
            parse_signature_oracle(replaced)
        except SignatureSyntaxError as e:
            message, line, col = e.message, e.line, e.col
        if message.startswith(_BAD):
            # (c) The old reader reported the token after the named one, or
            # line 1, col 1 at the end of input.
            toks = [(ln, cl) for _, ln, cl in _SigTokensOracle(replaced).toks]
            line, col = toks[-1] if (line, col) == (1, 1) else toks[toks.index((line, col)) - 1]
            kinds.add("c")
        for c, p in swaps.items():
            message = message.replace(repr(p), repr(c))
        got = ("err", SignatureSyntaxError, str(SignatureSyntaxError(message, line, col)))
    return got, kinds


def _expr_expected(parse, text: str):
    """The new ExprLang outcome where it differs from the old: a stray character."""
    suffix, _ = _WRAP[parse]
    wrapped = _EXPR_PREFIX + text + suffix
    i = next(i for i, c in enumerate(wrapped) if c not in _SPACE and not _EXPR_TOKEN_CHAR.match(c))
    c = wrapped[i]
    assert c.isspace() or (not c.isascii() and (c.isalpha() or c.isdigit())), repr(c)
    line, col = line_col(wrapped, i)
    col = max(col - len(_EXPR_PREFIX), 1) if line == 1 else col
    error = ExprLangSyntaxError(f"stray character {c!r}", line, col)
    return ("err", ExprLangSyntaxError, str(error)), "a" if c.isspace() else "b"


def test_readers_agree_with_the_old_lexers():
    texts = _harvest()
    assert len(texts["sig"]) >= 8 and len(texts["mapping"]) >= 20 and len(texts["expr"]) >= 20
    rng = random.Random(2022)
    counts: Counter = Counter()
    for text in texts["sig"]:
        for t in _mutants(rng, text, 6):
            new, old = _outcome(parse_signature, t), _outcome(parse_signature_oracle, t)
            if new == old:
                counts["same"] += 1
                continue
            expected, kinds = _sig_expected(t)
            assert kinds and new == expected, (t, new, old, expected)
            counts.update(kinds)
    for text in texts["mapping"]:
        for t in _mutants(rng, text, 3):
            assert _outcome(parse_tympanic, t) == _outcome(parse_tympanic_oracle, t), t
            counts["same"] += 1
    for text in texts["expr"]:
        for parse, (_, oracle) in _WRAP.items():
            for t in _mutants(rng, text, 4):
                new, old = _outcome(parse, t), _outcome(oracle, t)
                if new == old:
                    counts["same"] += 1
                    continue
                expected, kind = _expr_expected(parse, t)
                assert new == expected, (t, new, old, expected)
                counts[kind] += 1
    assert counts["same"] >= 1000 and counts["a"] and counts["b"] and counts["c"], counts


@pytest.mark.parametrize("text, error", [
    ("mapping X # c", "line 1, col 11: expected 'export', got 'end of input'"),
    ("mapping X\n# c", "line 2, col 1: expected 'export', got 'end of input'"),
    ("mapping X\t\r$", "line 1, col 12: stray character '$'"),
    ("mapping X \f", "line 1, col 11: stray character '\\x0c'"),
])
def test_tympanic_positions(text, error):
    with pytest.raises(TympanicSyntaxError) as exc:
        parse_tympanic(text)
    assert str(exc.value) == error


def test_positioned_errors_keep_their_bases():
    for cls in (SignatureSyntaxError, TympanicSyntaxError, ExprLangSyntaxError, ParserError, JsonSyntaxError):
        assert issubclass(cls, PositionedError)
    assert issubclass(ParserError, PipelineError)
    e = ParserError("boom", 2, 5)
    assert (str(e), e.message, e.line, e.col) == ("line 2, col 5: boom", "boom", 2, 5)
    assert [line_col("ab\ncd", i) for i in (0, 2, 3, 5)] == [(1, 1), (1, 3), (2, 1), (2, 3)]
