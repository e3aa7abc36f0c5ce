from __future__ import annotations

import json
import subprocess
import sys

import pytest

from support import EXPR_MAPPING, EXPR_MODULE, EXPR_SCHEMA, binary_chain_text, fobj, tokens
from csbb.cli import main
from csbb.jsonlang import parse_json, print_json

RODIN_TEXT = '{name:"Rodin",age:29}'
RODIN_PRETTY = 'object([prop(id("name"),string("Rodin")),prop(id("age"),number(29.0))])'
NAME_PATTERN = "{<Prop* _>, name: <JSON _>, <Prop* _>}"


@pytest.fixture()
def rodin_file(tmp_path):
    path = tmp_path / "rodin.json"
    path.write_text(RODIN_TEXT)
    return str(path)


@pytest.fixture()
def expr_fixture(tmp_path):
    spec = tmp_path / "expr.tymp"
    spec.write_text(EXPR_MAPPING)
    schema = tmp_path / "expr.schema"
    schema.write_text(json.dumps(EXPR_SCHEMA))
    return str(spec), str(schema)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parse


def test_parse_number(capsys):
    code, out, _ = run(capsys, "parse", "--lang", "JSON", "--text", "29")
    assert code == 0 and out == "number(29.0)\n"


def test_parse_malformed_input(capsys):
    code, out, err = run(capsys, "parse", "--lang", "JSON", "--text", "{a:")
    assert code == 2 and out == "" and "col" in err


@pytest.mark.parametrize("text, error", [
    ("1E400", "col 1: number out of range"), ('"\\ud800"', "col 2: lone surrogate escape"),
])
def test_parse_unrepresentable_input_exits_2(capsys, text, error):
    code, out, err = run(capsys, "parse", "--lang", "JSON", "--text", text, "--out", "term")
    assert code == 2 and out == "" and error in err


def test_parse_deep_input(capsys):
    text = "[" * 600 + "]" * 600  # past the depth where the JSON parser used to stop
    code, out, err = run(capsys, "parse", "--lang", "JSON", "--text", text)
    assert (code, err) == (0, "") and out == "array([" * 599 + "array([])" + "])" * 599 + "\n"
    assert print_json(parse_json(text)) == text


def test_parse_wire_output(capsys):
    code, out, _ = run(capsys, "parse", "--lang", "JSON", "--text", "null", "--out", "term")
    assert code == 0 and out == '{"con":"null","type":"JSON","args":[]}\n'


def test_parse_from_file(capsys, rodin_file):
    code, out, _ = run(capsys, "parse", "--lang", "JSON", "--file", rodin_file)
    assert code == 0 and out == RODIN_PRETTY + "\n"


def test_parse_reads_a_document_as_plain_text(capsys):
    code, out, err = run(capsys, "parse", "--lang", "JSON", "--text", '{"a": "x<y"}')
    assert (code, err) == (0, "") and out == 'object([prop(id("a"),string("x<y"))])\n'


def test_parse_statement_through_subprocess_config(capsys, exprlang_config):
    code, out, _ = run(
        capsys, "--config", exprlang_config,
        "parse", "--lang", "Stm", "--text", "while (x) { }",
    )
    assert code == 0
    assert out == 'whileStm(varRef("x"),[])\n'


def test_missing_config_is_a_config_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "--config", str(tmp_path / "absent.json"),
        "parse", "--lang", "JSON", "--text", "1",
    )
    assert code == 3 and err


def test_config_env_var_is_honored(capsys, monkeypatch, exprlang_config):
    monkeypatch.setenv("CSBB_CONFIG", exprlang_config)
    code, out, _ = run(capsys, "parse", "--lang", "Expr", "--text", "1+2")
    assert code == 0 and out == "add(intLit(1),intLit(2))\n"


def test_output_is_stable_across_runs(capsys, rodin_file):
    first = run(capsys, "parse", "--lang", "JSON", "--file", rodin_file)
    second = run(capsys, "parse", "--lang", "JSON", "--file", rodin_file)
    assert first == second


# ---------------------------------------------------------------------------
# match


def test_match_name_property(capsys, rodin_file):
    code, out, _ = run(
        capsys, "match", "--lang", "JSON", "--pattern", NAME_PATTERN, "--input", rodin_file
    )
    assert code == 0 and out == ""  # wildcard-only pattern binds nothing


def test_match_binds_variables(capsys, rodin_file):
    code, out, _ = run(
        capsys, "match", "--lang", "JSON",
        "--pattern", "{<Prop* _>, age: <JSON a>, <Prop* _>}", "--input", rodin_file,
    )
    assert code == 0 and out == "a = number(29.0)\n"


def test_match_reads_the_input_as_plain_text(capsys, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text('{"a": "x<JSON y>", b: 1}')
    code, out, _ = run(
        capsys, "match", "--lang", "JSON", "--pattern", "{<Prop* _>, b: <JSON v>}", "--input", str(doc)
    )
    assert code == 0 and out == "v = number(1.0)\n"


def test_match_failure_exits_1(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text("true")
    code, out, _ = run(capsys, "match", "--lang", "JSON", "--pattern", "null", "--input", str(path))
    assert code == 1 and out == ""


def test_match_all_prints_every_env(capsys, tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]")
    code, out, _ = run(
        capsys, "match", "--lang", "JSON",
        "--pattern", "[<JSON* a>, <JSON* b>]", "--input", str(path), "--all",
    )
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 3
    assert blocks[0] == "a = []\nb = [number(1.0),number(2.0)]"


def test_match_hole_capture_exits_4(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text("[1, 1]")
    code, _, err = run(
        capsys, "match", "--lang", "JSON",
        "--pattern", "[<JSON x>, {_hole: 0}]", "--input", str(path),
    )
    assert code == 4 and "hole" in err


def test_match_lenient_reproduces_non_linear_behavior(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text("[1, 1]")
    code, out, _ = run(
        capsys, "match", "--lang", "JSON", "--lenient",
        "--pattern", "[<JSON x>, {_hole: 0}]", "--input", str(path),
    )
    assert code == 0 and out == "x = number(1.0)\n"


def test_match_pattern_syntax_error_exits_2(capsys, rodin_file):
    code, _, err = run(
        capsys, "match", "--lang", "JSON", "--pattern", "{<Prop", "--input", rodin_file
    )
    assert code == 2 and err


# ---------------------------------------------------------------------------
# construct


def test_construct_interpolates_binding(capsys, tmp_path):
    age = tmp_path / "age.term"
    age.write_text("number(29.0)")
    code, out, _ = run(
        capsys, "construct", "--lang", "JSON",
        "--pattern", '{name:"Rodin",age:<JSON age>}', "--bind", f"age={age}",
    )
    assert code == 0 and out == RODIN_PRETTY + "\n"


def test_construct_accepts_wire_bind_files(capsys, tmp_path):
    age = tmp_path / "age.term"
    age.write_text('{"con":"number","type":"JSON","args":[{"real":29.0}]}')
    code, out, _ = run(
        capsys, "construct", "--lang", "JSON",
        "--pattern", "[<JSON age>]", "--bind", f"age={age}",
    )
    assert code == 0 and out == "array([number(29.0)])\n"


def test_construct_hole_free_pattern(capsys):
    code, out, _ = run(capsys, "construct", "--lang", "JSON", "--pattern", "[1, null]")
    assert code == 0 and out == "array([number(1.0),null()])\n"


def test_construct_missing_bind_exits_2(capsys):
    code, _, err = run(
        capsys, "construct", "--lang", "JSON", "--pattern", "[<JSON x>]"
    )
    assert code == 2 and "x" in err


def test_construct_ill_typed_bind_exits_2(capsys, tmp_path):
    bind = tmp_path / "p.term"
    bind.write_text('prop(id("a"),null())')
    code, _, err = run(
        capsys, "construct", "--lang", "JSON", "--pattern", "[<JSON x>]", "--bind", f"x={bind}"
    )
    assert code == 2


def test_construct_over_deep_bind_exits_2(capsys, tmp_path):
    deep = tmp_path / "deep.term"
    deep.write_text("array([" * 600 + "])" * 600)
    code, out, err = run(capsys, "construct", "--lang", "JSON", "--pattern", "<JSON x>", "--bind", f"x={deep}")
    assert (code, out) == (2, "") and err.count("\n") == 1 and "input nests too deeply" in err


def test_match_then_construct_roundtrip(capsys, tmp_path):
    source = tmp_path / "obj.json"
    source.write_text('{a: [1, true], b: null}')
    pattern = "{a: <JSON first>, <Prop* rest>}"
    code, out, _ = run(
        capsys, "match", "--lang", "JSON", "--pattern", pattern, "--input", str(source)
    )
    assert code == 0
    binds = []
    for i, line in enumerate(out.strip().splitlines()):
        name, _, value = line.partition(" = ")
        path = tmp_path / f"bind{i}.term"
        path.write_text(value)
        binds += ["--bind", f"{name}={path}"]
    code, rebuilt, _ = run(capsys, "construct", "--lang", "JSON", "--pattern", pattern, *binds)
    assert code == 0
    code, original, _ = run(capsys, "parse", "--lang", "JSON", "--file", str(source))
    assert code == 0
    assert rebuilt == original


# ---------------------------------------------------------------------------
# tympanic


def test_tympanic_gen_adt_golden(capsys, expr_fixture):
    spec, schema = expr_fixture
    code, out, _ = run(capsys, "tympanic", "gen-adt", "--spec", spec, "--schema", schema)
    assert code == 0
    assert tokens(out) == tokens(EXPR_MODULE)


def test_tympanic_gen_adt_to_file(capsys, expr_fixture, tmp_path):
    spec, schema = expr_fixture
    out_path = tmp_path / "Expr.sig"
    code, _, _ = run(
        capsys, "tympanic", "gen-adt", "--spec", spec, "--schema", schema, "--out", str(out_path)
    )
    assert code == 0
    assert tokens(out_path.read_text()) == tokens(EXPR_MODULE)


def test_tympanic_check_clean(capsys, expr_fixture):
    spec, schema = expr_fixture
    code, out, _ = run(capsys, "tympanic", "check", "--spec", spec, "--schema", schema)
    assert code == 0 and out == ""


def test_tympanic_check_reports_diagnostics(capsys, tmp_path, expr_fixture):
    _, schema = expr_fixture
    bad = tmp_path / "bad.tymp"
    bad.write_text(
        "mapping M export m::M types Expr => Expr constructors Binary - getNope: c(x)"
    )
    code, out, _ = run(capsys, "tympanic", "check", "--spec", str(bad), "--schema", schema)
    assert code == 5 and "unknown-member" in out


def test_tympanic_syntax_error_exits_2(capsys, tmp_path, expr_fixture):
    _, schema = expr_fixture
    bad = tmp_path / "bad.tymp"
    bad.write_text("mapping })")
    code, _, err = run(capsys, "tympanic", "check", "--spec", str(bad), "--schema", schema)
    assert code == 2 and err


def test_tympanic_marshal(capsys, expr_fixture, tmp_path):
    spec, schema = expr_fixture
    value = tmp_path / "cond.fv"
    value.write_text(json.dumps(fobj(
        "Cond",
        getCond=fobj("Lit", getValue={"bool": True}),
        getThen=fobj("Lit", getValue={"int": 1}),
        getElse=None,
    )))
    code, out, _ = run(
        capsys, "tympanic", "marshal", "--spec", spec, "--schema", schema, "--value", str(value)
    )
    assert code == 0 and out == "ifThen(boolean(true),integer(1))\n"


def test_tympanic_marshal_over_deep_value_exits_2(capsys, expr_fixture, tmp_path):
    value = tmp_path / "chain.fv"
    value.write_text(binary_chain_text(10_000))
    spec, schema = expr_fixture
    code, out, err = run(
        capsys, "tympanic", "marshal", "--spec", spec, "--schema", schema, "--value", str(value)
    )
    assert (code, out) == (2, "") and err.count("\n") == 1 and "nests too deeply" in err


def test_tympanic_marshal_no_rule_exits_6(capsys, expr_fixture, tmp_path):
    spec, schema = expr_fixture
    value = tmp_path / "real.fv"
    value.write_text(json.dumps(fobj("Lit", getValue={"real": 1.5})))
    code, _, err = run(
        capsys, "tympanic", "marshal", "--spec", spec, "--schema", schema, "--value", str(value)
    )
    assert code == 6 and err


# ---------------------------------------------------------------------------
# entry point


def test_cli_runs_as_module():
    out = subprocess.run(
        [sys.executable, "-m", "csbb", "parse", "--lang", "JSON", "--text", "29"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0
    assert out.stdout == "number(29.0)\n"
