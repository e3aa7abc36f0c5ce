"""Demo object language served over the subprocess parser protocol.

ExprLang is a tiny statement/expression language whose underlying parser only
accepts whole programs of the shape ``void name() { ... }``. The Stm and Expr
services therefore wrap each fragment in a dummy program, parse it, and
project the fragment's image back out of the program tree, the standard
trick for reusing a compiler front end that has no fragment entry points.

Run with ``csbb-exprlang`` (or ``python -m csbb.exprlang``); pass
``--signature`` to print the abstract grammar in signature-file syntax.
"""

from __future__ import annotations

import json
import re
import sys

from .lexing import PositionedError, TokenReader
from .terms import (
    Con,
    Constructor,
    ListTerm,
    Prim,
    Signature,
    Term,
    adt,
    encode_term,
    list_of,
    prim,
    render_signature,
)

SIGNATURE = Signature(
    frozenset({"Stm", "Expr"}),
    (
        Constructor("exprStm", "Stm", (("e", adt("Expr")),)),
        Constructor("whileStm", "Stm", (("cond", adt("Expr")), ("body", list_of(adt("Stm"))))),
        Constructor("block", "Stm", (("stms", list_of(adt("Stm"))),)),
        Constructor("intLit", "Expr", (("v", prim("int")),)),
        Constructor("varRef", "Expr", (("name", prim("str")),)),
        Constructor("add", "Expr", (("lhs", adt("Expr")), ("rhs", adt("Expr")))),
    ),
)


class ExprLangSyntaxError(PositionedError):
    pass


_SCANNER = re.compile(
    r"(?P<ws>[ \t\r\n]+)|(?P<keyword>(?:void|while)(?![A-Za-z0-9_]))"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>[0-9]+)|(?P<punct>[+(){};])|(?P<stray>.)",
    re.DOTALL,
)


class _Parser(TokenReader):
    """Whole-program recursive descent: void name() { stm* }."""

    def __init__(self, src: str):
        super().__init__(src, _SCANNER, ExprLangSyntaxError)

    def program(self) -> list:
        self.expect("void")
        if self.peek()[0] != "ident":
            self.fail("expected a function name")
        self.next()
        self.expect("(")
        self.expect(")")
        self.expect("{")
        stms = self.statements()
        self.expect("}")
        if self.peek()[0] != "eof":
            self.fail("trailing content after the function body")
        return stms

    def statements(self) -> list:
        stms: list = []
        while self.peek()[1] not in ("}", ""):
            stms.append(self.statement())
        return stms

    def statement(self) -> Term:
        value = self.peek()[1]
        if value == "while":
            self.next()
            self.expect("(")
            cond = self.expression()
            self.expect(")")
            self.expect("{")
            body = self.statements()
            self.expect("}")
            return Con("whileStm", "Stm", (cond, ListTerm(tuple(body), adt("Stm"))))
        if value == "{":
            self.next()
            stms = self.statements()
            self.expect("}")
            return Con("block", "Stm", (ListTerm(tuple(stms), adt("Stm")),))
        expr = self.expression()
        self.expect(";")
        return Con("exprStm", "Stm", (expr,))

    def expression(self) -> Term:
        left = self.atom()
        while self.peek()[1] == "+":
            self.next()
            left = Con("add", "Expr", (left, self.atom()))
        return left

    def atom(self) -> Term:
        kind, value, _ = self.peek()
        if kind == "int":
            return Con("intLit", "Expr", (Prim("int", self.integer(self.next())),))
        if kind == "ident":
            self.next()
            return Con("varRef", "Expr", (Prim("str", value),))
        if value == "(":
            self.next()
            e = self.expression()
            self.expect(")")
            return e
        self.fail("expected an expression")


_WRAP_PREFIX = "void dummy() { "


def _adjust(e: ExprLangSyntaxError, extra: int = 0) -> ExprLangSyntaxError:
    # Errors are reported against the wrapped program; shift line-1 columns
    # back so positions point into the user's fragment.
    col = e.col - len(_WRAP_PREFIX) - extra if e.line == 1 else e.col
    return ExprLangSyntaxError(e.message, e.line, max(col, 1))


def parse_stm(text: str) -> Term:
    try:
        stms = _Parser(_WRAP_PREFIX + text + " }").program()
    except ExprLangSyntaxError as e:
        raise _adjust(e) from None
    if len(stms) != 1:
        raise ExprLangSyntaxError(f"fragment is {len(stms)} statements, expected one", 1, 1)
    return stms[0]


def parse_expr(text: str) -> Term:
    try:
        stms = _Parser(_WRAP_PREFIX + text + "; }").program()
    except ExprLangSyntaxError as e:
        raise _adjust(e) from None
    if len(stms) != 1 or stms[0].name != "exprStm":
        raise ExprLangSyntaxError("fragment is not a single expression", 1, 1)
    return stms[0].args[0]


_SERVICES = {"Stm": parse_stm, "Expr": parse_expr}


def handle_request(line: str) -> dict:
    try:
        request = json.loads(line)
        nonterminal = request["nonterminal"]
        text = request["text"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return {"ok": False, "line": 0, "col": 0, "message": "malformed request"}
    service = _SERVICES.get(nonterminal)
    if service is None:
        return {"ok": False, "line": 0, "col": 0, "message": f"unknown nonterminal {nonterminal}"}
    try:
        return {"ok": True, "term": json.loads(encode_term(service(text)))}
    except ExprLangSyntaxError as e:
        return {"ok": False, "line": e.line, "col": e.col, "message": e.message}
    except RecursionError:
        # Refuse the input rather than die: the next request still needs this process.
        return {"ok": False, "line": 0, "col": 0, "message": "input nests too deeply"}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--signature" in argv:
        sys.stdout.write(render_signature(SIGNATURE))
        return 0
    for line in sys.stdin:
        if not line.strip():
            continue
        sys.stdout.write(json.dumps(handle_request(line)) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
