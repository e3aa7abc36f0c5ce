from __future__ import annotations

import json
import subprocess
import sys

import pytest

from support import term_equals
from csbb.concrete import ChildReportedSyntaxError, load_registry_config, parse_term
from csbb.exprlang import (
    SIGNATURE,
    ExprLangSyntaxError,
    handle_request,
    parse_expr,
    parse_stm,
)
from csbb.patterns import PCon, PLit, visit_collect
from csbb.terms import (
    Con,
    ListTerm,
    Prim,
    adt,
    check_term,
    parse_signature,
    render_signature,
    term_from_wire,
)


def intlit(v):
    return Con("intLit", "Expr", (Prim("int", v),))


def varref(name):
    return Con("varRef", "Expr", (Prim("str", name),))


def add(lhs, rhs):
    return Con("add", "Expr", (lhs, rhs))


def stms(*elems):
    return ListTerm(tuple(elems), adt("Stm"))


def exprstm(e):
    return Con("exprStm", "Stm", (e,))


# ---------------------------------------------------------------------------
# direct parsing


def test_addition():
    assert term_equals(parse_expr("1+2"), add(intlit(1), intlit(2)))


def test_addition_is_left_associative():
    assert term_equals(parse_expr("1+2+3"), add(add(intlit(1), intlit(2)), intlit(3)))


def test_parenthesized_expression():
    assert term_equals(parse_expr("1+(2+3)"), add(intlit(1), add(intlit(2), intlit(3))))


def test_while_with_empty_body():
    t = parse_stm("while (x) { }")
    assert term_equals(t, Con("whileStm", "Stm", (varref("x"), stms())))


def test_block_statement():
    t = parse_stm("{ x; y; }")
    assert term_equals(
        t, Con("block", "Stm", (stms(exprstm(varref("x")), exprstm(varref("y"))),))
    )


def test_two_statements_are_rejected():
    with pytest.raises(ExprLangSyntaxError):
        parse_stm("x; y;")


def test_fragment_cannot_escape_its_context():
    with pytest.raises(ExprLangSyntaxError):
        parse_stm("x; } void f() { y;")


def test_expr_error_position_points_into_fragment():
    with pytest.raises(ExprLangSyntaxError) as exc:
        parse_expr("1+")
    assert exc.value.line == 1
    assert 1 <= exc.value.col <= 3


@pytest.mark.parametrize("text, error", [
    ("x;\f", "line 1, col 3: stray character '\\x0c'"),
    ("x;\xa0", "line 1, col 3: stray character '\\xa0'"),
    ("x;\n\u2028", "line 2, col 1: stray character '\\u2028'"),
    ("x + \u00b2;", "line 1, col 5: stray character '\u00b2'"),
    ("\u00e9;", "line 1, col 1: stray character '\u00e9'"),
    ("\u0663;", "line 1, col 1: stray character '\u0663'"),
    ("x $ \u00e9;", "line 1, col 3: stray character '$'"),
])
def test_tokens_are_ascii(text, error):
    with pytest.raises(ExprLangSyntaxError) as exc:
        parse_stm(text)
    assert str(exc.value) == error


def test_outputs_are_well_typed():
    for text, nt in [("while (x) { y; }", "Stm"), ("{ }", "Stm"), ("1+x+2", "Expr")]:
        t = parse_stm(text) if nt == "Stm" else parse_expr(text)
        assert check_term(SIGNATURE, t, adt(nt)) == []


def test_no_context_leaks_into_results():
    dummy_ref = PCon("varRef", "Expr", (PLit(Prim("str", "dummy")),))
    for text in ["while (x) { y; }", "{ x; { y; } }", "x + 1;"]:
        assert visit_collect(parse_stm(text), dummy_ref) == []


def test_collect_variable_names_from_statement_tree():
    from csbb.patterns import PVar
    from csbb.terms import prim

    t = parse_stm("while (x) { y; z + x; }")
    p = PCon("varRef", "Expr", (PVar("n", prim("str")),))
    names = [env["n"].value for _, env in visit_collect(t, p)]
    assert names == ["x", "y", "z", "x"]


# ---------------------------------------------------------------------------
# request handling (in process)


def test_handle_request_ok():
    response = handle_request(json.dumps({"nonterminal": "Expr", "text": "1+2"}))
    assert response["ok"] is True
    assert term_equals(term_from_wire(response["term"]), add(intlit(1), intlit(2)))


def test_handle_request_syntax_error():
    response = handle_request(json.dumps({"nonterminal": "Expr", "text": "1+"}))
    assert response["ok"] is False
    assert response["line"] >= 1 and "message" in response


def test_handle_request_unknown_nonterminal():
    response = handle_request(json.dumps({"nonterminal": "Decl", "text": "x"}))
    assert response["ok"] is False


def test_handle_request_malformed():
    assert handle_request("not json")["ok"] is False
    assert handle_request(json.dumps({"text": "1"}))["ok"] is False


# ---------------------------------------------------------------------------
# over the wire


def test_protocol_over_real_pipes():
    proc = subprocess.Popen(
        [sys.executable, "-m", "csbb.exprlang"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        requests = [
            {"nonterminal": "Stm", "text": "while (x) { }"},
            {"nonterminal": "Expr", "text": "1+"},
            {"nonterminal": "Expr", "text": "a + b"},
        ]
        for r in requests:
            proc.stdin.write(json.dumps(r) + "\n")
        proc.stdin.flush()
        replies = [json.loads(proc.stdout.readline()) for _ in requests]
    finally:
        proc.stdin.close()
        proc.wait(timeout=10)
        proc.stdout.close()
    assert replies[0]["ok"] is True
    assert term_from_wire(replies[0]["term"]).name == "whileStm"
    assert replies[1]["ok"] is False and replies[1]["line"] >= 1
    assert replies[2]["ok"] is True
    assert term_equals(term_from_wire(replies[2]["term"]), add(varref("a"), varref("b")))


def _child_replies(requests: list) -> list:
    """The replies of one child process to (nonterminal, text) requests, sent together."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "csbb.exprlang"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        encoding="utf-8",
    )
    try:
        for nonterminal, text in requests:
            proc.stdin.write(json.dumps({"nonterminal": nonterminal, "text": text}) + "\n")
        proc.stdin.flush()
        replies = [json.loads(proc.stdout.readline()) for _ in requests]
    finally:
        proc.stdin.close()
        proc.wait(timeout=10)
        proc.stdout.close()
    assert proc.returncode == 0
    return replies


def test_child_answers_a_stray_character_and_keeps_serving():
    replies = _child_replies([("Stm", "x;\f"), ("Stm", "1;")])
    assert replies[0] == {"ok": False, "line": 1, "col": 3, "message": "stray character '\\x0c'"}
    assert term_from_wire(replies[1]["term"]) == exprstm(intlit(1))


def test_child_answers_an_over_long_integer_and_keeps_serving():
    # int() refuses more than 4,300 digits; the child reports it and serves on.
    replies = _child_replies([("Expr", "1 + " + "9" * 5000), ("Expr", "1")])
    assert replies[0] == {"ok": False, "line": 1, "col": 5,
                          "message": "integer literal has too many digits"}
    assert term_from_wire(replies[1]["term"]) == intlit(1)


def test_child_survives_over_deep_input(exprlang_config):
    with load_registry_config(exprlang_config) as reg:
        with pytest.raises(ChildReportedSyntaxError, match="nests too deeply"):
            parse_term("Expr", " + ".join(f"x{i}" for i in range(600)), reg)
        assert term_equals(parse_term("Expr", "1 + 2", reg), add(intlit(1), intlit(2)))


def test_signature_flag_prints_parseable_signature():
    out = subprocess.run(
        [sys.executable, "-m", "csbb.exprlang", "--signature"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert out.returncode == 0
    assert parse_signature(out.stdout) == SIGNATURE
    assert out.stdout == render_signature(SIGNATURE)
