from __future__ import annotations

import json
import os
import random
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from support import (
    all_subtrees,
    gen_json_term,
    lift_oracle,
    replace_at,
    split_fragment_oracle,
    term_equals,
)
from csbb import concrete
from csbb.concrete import (
    ChildReportedSyntaxError,
    ChildSpawnError,
    DuplicateHoleImage,
    EmptyHoleType,
    EncoderImageUnparseable,
    Hole,
    HoleCaptured,
    HoleEntry,
    HoleNameConflict,
    HoleNotFound,
    HolesNotAllowed,
    IllTypedParserOutput,
    MalformedHole,
    NoHoleEncoder,
    NoParserRegistered,
    ParserError,
    ParserRegistry,
    ProtocolError,
    RegistryConfigError,
    StarHoleNotInList,
    SubprocessParser,
    TextChunk,
    UnterminatedHole,
    lift,
    lower,
    parse_term,
    split_fragment,
    to_pattern,
)
from csbb.exprlang import SIGNATURE as EXPRLANG_SIGNATURE
from csbb.jsonlang import (
    JsonSyntaxError,
    array,
    ident,
    json_hole,
    null_,
    number,
    parse_json,
    print_json,
    prop,
)
from csbb.patterns import (
    PCon,
    PList,
    PLit,
    PSeqWild,
    PVar,
    PWild,
    match,
    pattern_vars,
)
from csbb.terms import Prim, adt, render_signature


# ---------------------------------------------------------------------------
# split_fragment


def test_split_prop_hole():
    cp = split_fragment("JSON", "{<Prop p>}")
    assert cp.parts == (
        TextChunk("{"),
        Hole(0, "p", "Prop", star=False),
        TextChunk("}"),
    )


def test_split_plain_text():
    assert split_fragment("JSON", "29").parts == (TextChunk("29"),)


def test_split_escape_removes_meta_meaning():
    assert split_fragment("JSON", "\\<literal").parts == (TextChunk("<literal"),)


def test_split_star_holes_and_indices():
    cp = split_fragment("JSON", "{<Prop* _>, name: <JSON _>, <Prop* _>}")
    holes = cp.holes()
    assert [(h.index, h.name, h.type, h.star) for h in holes] == [
        (0, "_", "Prop", True),
        (1, "_", "JSON", False),
        (2, "_", "Prop", True),
    ]


def test_split_adjacent_holes():
    cp = split_fragment("JSON", "[<JSON a>,<JSON b>]")
    kinds = [type(p).__name__ for p in cp.parts]
    assert kinds == ["TextChunk", "Hole", "TextChunk", "Hole", "TextChunk"]


def test_split_errors():
    with pytest.raises(UnterminatedHole):
        split_fragment("JSON", "{<Prop p}")
    with pytest.raises(EmptyHoleType):
        split_fragment("JSON", "[< >]")
    with pytest.raises(MalformedHole):
        split_fragment("JSON", "[<JSON>]")
    with pytest.raises(HoleNameConflict):
        split_fragment("JSON", "[<JSON x>, {k: <Prop x>}]")


def test_same_name_same_type_is_allowed():
    cp = split_fragment("JSON", "[<JSON x>, <JSON x>]")
    assert len(cp.holes()) == 2


_FRAGMENT_PIECES = [
    "<", ">", "\\", "\\<", "\\\\<", "*", " ", "_", "x", "JSON", "{a: 1}", "[",
    "<JSON x>", "<Prop* _>", "<JSON* xs>", "< JSON  y >", "<Prop x>", "<JSON _>",
    "<>", "<x>", "<*x>", "<JSON x y>", "<Prop\\<x>",
]


def _outcome(split, text):
    try:
        return split("JSON", text)
    except Exception as e:  # the class and message must agree too
        return type(e), str(e)


def test_split_agrees_with_the_oracle():
    rng = random.Random(61)
    results = []
    for _ in range(3000):
        text = "".join(rng.choice(_FRAGMENT_PIECES) for _ in range(rng.randint(0, 10)))
        result = _outcome(split_fragment, text)
        assert result == _outcome(split_fragment_oracle, text), text
        results.append(result)
    holes = [len(r.holes()) for r in results if not isinstance(r, tuple)]
    errors = {r[0] for r in results if isinstance(r, tuple)}
    assert len(holes) > 300 and max(holes) >= 3
    assert errors == {UnterminatedHole, EmptyHoleType, MalformedHole, HoleNameConflict}


# ---------------------------------------------------------------------------
# lower


def test_lower_prop_hole_golden(json_registry):
    cp = split_fragment("JSON", "{<Prop p>}")
    flattened, table = lower(cp, json_registry)
    assert flattened == "{_hole:0}"
    assert len(table) == 1
    entry = table[0]
    assert entry.encoded == "_hole:0"
    assert term_equals(entry.image, prop("_hole", number(0.0)))


def test_lower_without_holes_returns_text(json_registry):
    flattened, table = lower(split_fragment("JSON", "{a: 1}"), json_registry)
    assert flattened == "{a: 1}" and table == []


def test_lower_json_hole_uses_object_literal_encoder(json_registry):
    flattened, _ = lower(split_fragment("JSON", "[<JSON x>]"), json_registry)
    assert flattened == "[{_hole:0}]"


def test_lower_requires_hole_encoder():
    reg = ParserRegistry()
    reg.register("JSON", parse_json)  # parser but no encoder
    with pytest.raises(NoHoleEncoder):
        lower(split_fragment("JSON", "[<JSON x>]"), reg)


def test_lower_fails_fast_on_broken_encoder():
    reg = ParserRegistry()
    reg.register("JSON", parse_json, hole=lambda i: f"~broken{i}~")
    with pytest.raises(EncoderImageUnparseable):
        lower(split_fragment("JSON", "[<JSON x>]"), reg)


def test_lower_rejects_colliding_images():
    reg = ParserRegistry()
    reg.register("JSON", parse_json, hole=lambda i: "{_hole:0}")  # ignores the index
    with pytest.raises(DuplicateHoleImage, match="holes 0 and 1 "):
        lower(split_fragment("JSON", "[<JSON a>, <JSON b>]"), reg)
    # Images A B B A: the earliest hole with a twin is reported, with that twin.
    reg.register("JSON", parse_json, hole=lambda i: json_hole(min(i, 3 - i)))
    with pytest.raises(DuplicateHoleImage, match="holes 0 and 3 "):
        lower(split_fragment("JSON", "[<JSON a>, <JSON b>, <JSON c>, <JSON d>]"), reg)


# ---------------------------------------------------------------------------
# lift


def test_lift_replaces_image_with_variable(json_registry):
    cp = split_fragment("JSON", "{<Prop p>}")
    _, table = lower(cp, json_registry)
    t = parse_json("{_hole:0}")
    p = lift(t, table)
    assert p == PCon(
        "object", "JSON", (PList((PVar("p", adt("Prop")),), adt("Prop")),)
    )


def test_lift_with_empty_table_is_literal(json_registry):
    t = parse_json("[1, 2]")
    assert lift(t, []) == PLit(t)


def test_lift_hole_not_found(json_registry):
    _, table = lower(split_fragment("JSON", "[<JSON x>]"), json_registry)
    with pytest.raises(HoleNotFound):
        lift(parse_json("[1]"), table)


def test_lift_capture_detected(json_registry):
    _, table = lower(split_fragment("JSON", "[<JSON x>]"), json_registry)
    with pytest.raises(HoleCaptured):
        lift(parse_json("[{_hole:0}, {_hole:0}]"), table)


def test_lift_lenient_turns_capture_into_non_linear_match(json_registry):
    _, table = lower(split_fragment("JSON", "[<JSON x>]"), json_registry)
    p = lift(parse_json("[{_hole:0}, {_hole:0}]"), table, lenient=True)
    assert p == PCon(
        "array", "JSON", (PList((PVar("x", adt("JSON")), PVar("x", adt("JSON"))), adt("JSON")),)
    )


def test_lift_star_hole_must_be_list_element(json_registry):
    _, table = lower(split_fragment("JSON", "<JSON* xs>"), json_registry)
    with pytest.raises(StarHoleNotInList):
        lift(parse_json("{_hole:0}"), table)


def _random_lift_case(rng):
    """A hole table and a term with some of its images planted, some twice, some not at all."""
    table = [
        HoleEntry(i, rng.choice(["_", f"v{i}"]), "JSON", rng.random() < 0.3, json_hole(i),
                  parse_json(json_hole(i)))
        for i in range(rng.randint(0, 4))
    ]
    if table and rng.random() < 0.2:  # two entries with one image: the first one wins
        twin = rng.choice(table)
        table.append(HoleEntry(len(table), "w", "JSON", False, twin.encoded, twin.image))
    t = gen_json_term(rng, 3)
    for entry in table:
        for _ in range(rng.choice([0, 1, 1, 1, 2])):
            paths = [path for path, node in all_subtrees(t) if getattr(node, "type", None) == "JSON"]
            t = replace_at(t, rng.choice(paths), entry.image)
    return t, table


def _lift_outcome(lift_fn, t, table, lenient):
    try:
        return "ok", repr(lift_fn(t, table, lenient=lenient))
    except (HoleNotFound, HoleCaptured, StarHoleNotInList) as e:
        return type(e).__name__, str(e)


def test_lift_agrees_with_the_oracle():
    rng = random.Random(7)
    outcomes = set()
    for _ in range(600):
        t, table = _random_lift_case(rng)
        for lenient in (False, True):
            expected = _lift_outcome(lift_oracle, t, table, lenient)
            assert _lift_outcome(lift, t, table, lenient) == expected
            outcomes.add(expected[0])
    assert {"ok", "HoleNotFound", "HoleCaptured", "StarHoleNotInList"} <= outcomes


# ---------------------------------------------------------------------------
# to_pattern


def test_to_pattern_of_literal_number(json_registry):
    assert to_pattern("JSON", "29", json_registry) == PLit(number(29.0))


def test_to_pattern_name_property_equivalent_to_hand_built(json_registry):
    p = to_pattern("JSON", "{<Prop* _>, name: <JSON _>, <Prop* _>}", json_registry)
    expected = PCon(
        "object",
        "JSON",
        (
            PList(
                (
                    PSeqWild(adt("Prop")),
                    PCon("prop", "Prop", (PLit(ident("name")), PWild(adt("JSON")))),
                    PSeqWild(adt("Prop")),
                ),
                adt("Prop"),
            ),
        ),
    )
    assert p == expected


def test_to_pattern_for_prop_nonterminal(json_registry):
    p = to_pattern("Prop", "name: <JSON v>", json_registry)
    assert p == PCon("prop", "Prop", (PLit(ident("name")), PVar("v", adt("JSON"))))


def test_to_pattern_star_hole_in_array(json_registry):
    p = to_pattern("JSON", "[1, <JSON* rest>]", json_registry)
    envs = list(match(p, array([number(1.0), number(2.0), null_()])))
    assert len(envs) == 1
    assert [x.name for x in envs[0]["rest"]] == ["number", "null"]


def test_root_hole_binds_the_whole_term(json_registry):
    p = to_pattern("JSON", "<JSON x>", json_registry)
    assert p == PVar("x", adt("JSON"))
    env = next(match(p, null_()))
    assert term_equals(env["x"], null_())


def test_mixed_nonterminal_holes(json_registry):
    p = to_pattern("JSON", "{<Prop p>, age: <JSON v>}", json_registry)
    t = parse_json("{a: 1, age: null}")
    env = next(match(p, t))
    assert term_equals(env["p"], prop("a", number(1.0)))
    assert term_equals(env["v"], null_())


def test_to_pattern_is_deterministic(json_registry):
    a = to_pattern("JSON", "{<Prop* ps>, name: <JSON v>}", json_registry)
    b = to_pattern("JSON", "{<Prop* ps>, name: <JSON v>}", json_registry)
    assert a == b


def test_hole_conservation(json_registry):
    rng = random.Random(11)
    for _ in range(50):
        k = rng.randint(0, 4)
        inner = ", ".join(f"<Prop p{i}>" for i in range(k))
        p = to_pattern("JSON", "{" + inner + "}", json_registry)
        bound = pattern_vars(p)
        assert sorted(bound) == [f"p{i}" for i in range(k)]
        assert all(spec == ("var", adt("Prop")) for spec in bound.values())


def test_lower_lift_inversion_over_fragment_corpus(json_registry):
    fragments = [
        "29",
        "[<JSON x>]",
        "{<Prop p>}",
        "{<Prop* _>, name: <JSON _>, <Prop* _>}",
        "[<JSON a>, [<JSON b>], {k: <JSON c>}]",
        "null",
    ]
    for text in fragments:
        cp = split_fragment("JSON", text)
        flattened, table = lower(cp, json_registry)
        p = lift(json_registry.parse("JSON", flattened), table)
        names = set(pattern_vars(p))
        expected = {h.name for h in cp.holes() if h.name != "_"}
        assert names == expected


def test_capture_safety_with_fresh_index(json_registry):
    # Literal text spelled like an unused hole never binds silently.
    p = to_pattern("JSON", "[<JSON x>, {_hole:1}]", json_registry)
    assert sorted(pattern_vars(p)) == ["x"]
    envs = list(match(p, array([null_(), parse_json("{_hole:1}")])))
    assert len(envs) == 1 and term_equals(envs[0]["x"], null_())


def test_roundtrip_print_to_pattern(json_registry):
    rng = random.Random(6)
    for _ in range(100):
        t = gen_json_term(rng, 3)
        text = print_json(t).replace("<", "\\<")  # escape any '<' inside strings
        p = to_pattern("JSON", text, json_registry)
        assert p == PLit(t)
        envs = list(match(p, t))
        assert envs == [{}]


# ---------------------------------------------------------------------------
# parse_term


def test_parse_term_number(json_registry):
    assert term_equals(parse_term("JSON", "29", json_registry), number(29.0))


def test_parse_term_null(json_registry):
    assert term_equals(parse_term("JSON", "null", json_registry), null_())


def test_parse_term_prop(json_registry):
    assert term_equals(parse_term("Prop", "age: 29", json_registry), prop("age", number(29.0)))


def test_parse_term_rejects_holes(json_registry):
    with pytest.raises(HolesNotAllowed):
        parse_term("JSON", "[<JSON x>]", json_registry)


def test_parse_term_unknown_nonterminal(json_registry):
    with pytest.raises(NoParserRegistered):
        parse_term("Stm", "x;", json_registry)


# ---------------------------------------------------------------------------
# subprocess adapters


def _varref(name):
    from csbb.terms import Con, Prim

    return Con("varRef", "Expr", (Prim("str", name),))


def test_subprocess_parse_statement(exprlang_registry):
    t = parse_term("Stm", "while (x) { }", exprlang_registry)
    assert t.name == "whileStm"
    assert term_equals(t.args[0], _varref("x"))
    assert t.args[1].elems == ()


def test_subprocess_reports_syntax_errors(exprlang_registry):
    with pytest.raises(ChildReportedSyntaxError) as exc:
        parse_term("Expr", "1+", exprlang_registry)
    assert exc.value.line >= 1


def test_subprocess_spawn_failure():
    adapter = SubprocessParser(["/nonexistent-parser-binary"])
    with pytest.raises(ChildSpawnError):
        adapter.parse("Stm", "x;")


def test_subprocess_child_dies_before_reply():
    adapter = SubprocessParser([sys.executable, "-c", "pass"])
    with pytest.raises(ProtocolError):
        adapter.parse("Stm", "x;")
    adapter.close()


def test_subprocess_dead_child_is_replaced(tmp_path):
    # Each child logs its pid, reads one request, closes stdout and lingers.
    spawns = tmp_path / "spawns"
    child = tmp_path / "mute_parser.py"
    child.write_text(
        "import os, sys, time\n"
        f"open({str(spawns)!r}, 'a').write(f'{{os.getpid()}}\\n')\n"
        "sys.stdin.readline()\n"
        "os.close(1)\n"
        "time.sleep(1.5)\n"
    )
    adapter = SubprocessParser([sys.executable, str(child)])
    try:
        for expected_spawns in (1, 2):
            with pytest.raises(ProtocolError):
                adapter.parse("Stm", "x;")
            pids = [int(pid) for pid in spawns.read_text().split()]
            assert len(pids) == expected_spawns
            with pytest.raises(ProcessLookupError):  # killed and reaped before the error
                os.kill(pids[-1], 0)
    finally:
        adapter.close()


@pytest.mark.parametrize("garbage", [
    "not json",
    '{"term": {"str": "x"}}',
    '{"ok": true}',
    '{"ok": true, "term": 5}',
    '{"ok": false, "line": "one"}',
    '{"ok": true, "term": {"str": "\\ud800"}}',  # a lone surrogate: TermDecodeError
])
def test_subprocess_never_reads_a_stale_reply(tmp_path, garbage):
    # The first child answers every request with a garbage line and then a
    # good reply; later children answer once. "bad" gets a syntax error.
    spawns = tmp_path / "spawns"
    child = tmp_path / "stuttering_parser.py"
    child.write_text(
        "import json, os, sys\n"
        f"open({str(spawns)!r}, 'a').write(f'{{os.getpid()}}\\n')\n"
        f"first = len(open({str(spawns)!r}).read().split()) == 1\n"
        "for line in sys.stdin:\n"
        "    text = json.loads(line)['text']\n"
        "    if first:\n"
        f"        print({garbage!r})\n"
        "    if text == 'bad':\n"
        "        print(json.dumps({'ok': False, 'line': 1, 'col': 2, 'message': 'bad'}), flush=True)\n"
        "    else:\n"
        "        print(json.dumps({'ok': True, 'term': {'str': text}}), flush=True)\n"
    )
    adapter = SubprocessParser([sys.executable, str(child)])
    try:
        with pytest.raises(ProtocolError):
            adapter.parse("Stm", "first")
        assert adapter.parse("Stm", "second") == Prim("str", "second")
        with pytest.raises(ChildReportedSyntaxError):  # a well-formed error keeps the child
            adapter.parse("Stm", "bad")
        assert adapter.parse("Stm", "third") == Prim("str", "third")
        assert len(spawns.read_text().split()) == 2
    finally:
        adapter.close()


def test_subprocess_over_deep_reply_discards_the_child(tmp_path, monkeypatch):
    # The child answers "deep" with a line nested beyond what json.loads reads,
    # and everything else with a string term.
    spawns = tmp_path / "spawns"
    child = tmp_path / "deep_parser.py"
    child.write_text(
        "import json, os, sys\n"
        f"open({str(spawns)!r}, 'a').write(f'{{os.getpid()}}\\n')\n"
        "for line in sys.stdin:\n"
        "    text = json.loads(line)['text']\n"
        "    if text == 'deep':\n"
        "        print('{\"ok\": true, \"term\": ' + '[' * 100000 + ']' * 100000 + '}', flush=True)\n"
        "    else:\n"
        "        print(json.dumps({'ok': True, 'term': {'str': text}}), flush=True)\n"
    )
    decode = concrete.term_from_wire

    def over_deep_wire(obj):  # stands in for a term too deep to decode
        if obj == {"str": "wire"}:
            raise RecursionError("maximum recursion depth exceeded")
        return decode(obj)

    monkeypatch.setattr(concrete, "term_from_wire", over_deep_wire)
    adapter = SubprocessParser([sys.executable, str(child)])
    try:
        with pytest.raises(ProtocolError, match="malformed response line"):
            adapter.parse("Stm", "deep")
        with pytest.raises(ProtocolError, match="undecodable term"):
            adapter.parse("Stm", "wire")
        assert adapter.parse("Stm", "fine") == Prim("str", "fine")
        assert len(spawns.read_text().split()) == 3
    finally:
        adapter.close()


def test_subprocess_close_releases_both_pipes():
    adapter = SubprocessParser([sys.executable, "-m", "csbb.exprlang"])
    adapter.parse("Expr", "1 + 2")
    proc = adapter._proc
    adapter.close()
    assert proc.stdin.closed and proc.stdout.closed
    assert proc.returncode == 0


def test_subprocess_garbage_response():
    adapter = SubprocessParser([sys.executable, "-c", "print('not json'); import sys; sys.stdout.flush(); sys.stdin.read()"])
    with pytest.raises(ProtocolError):
        adapter.parse("Stm", "x;")
    adapter.close()


def test_subprocess_ill_typed_output(tmp_path):
    child = tmp_path / "bad_parser.py"
    child.write_text(
        "import sys, json\n"
        "for line in sys.stdin:\n"
        "    term = {'con': 'number', 'type': 'JSON', 'args': []}\n"
        "    print(json.dumps({'ok': True, 'term': term})); sys.stdout.flush()\n"
    )
    sig = tmp_path / "lang.sig"
    sig.write_text("data JSON = number(real n);")
    config = tmp_path / "registry.json"
    config.write_text(json.dumps({
        "nonterminals": {
            "JSON": {"command": [sys.executable, str(child)], "signature": "lang.sig",
                     "hole": "{id}"},
        }
    }))
    reg = concrete.load_registry_config(str(config))
    with reg:
        with pytest.raises(IllTypedParserOutput):
            reg.parse("JSON", "29")


def test_adapter_is_shared_and_thread_safe(exprlang_registry):
    def run(i):
        t = parse_term("Expr", f"{i} + x", exprlang_registry)
        assert t.name == "add"
        return t

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(run, range(16)))
    assert len(results) == 16


# ---------------------------------------------------------------------------
# registry configuration


def test_config_context_wrap_and_projection(tmp_path):
    # Define Prop over the JSON parser with an explicit wrap+projection,
    # the generic form of the brace-wrapping trick.
    config = tmp_path / "registry.json"
    config.write_text(json.dumps({
        "nonterminals": {
            "JSON": {"builtin": "json"},
            "Prop": {"builtin": "json", "via": "JSON", "wrap": "{ {body} }",
                     "project": [0, 0], "hole": "_hole:{id}"},
        }
    }))
    reg = concrete.load_registry_config(str(config))
    assert term_equals(reg.parse("Prop", "age: 29"), prop("age", number(29.0)))
    p = to_pattern("JSON", "{<Prop p>}", reg)
    assert pattern_vars(p) == {"p": ("var", adt("Prop"))}


def test_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(RegistryConfigError):
        concrete.load_registry_config(str(missing))

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(RegistryConfigError):
        concrete.load_registry_config(str(bad))

    unknown_builtin = tmp_path / "cfg1.json"
    unknown_builtin.write_text(json.dumps({"nonterminals": {"X": {"builtin": "yaml"}}}))
    with pytest.raises(RegistryConfigError):
        concrete.load_registry_config(str(unknown_builtin))

    not_served = tmp_path / "cfg2.json"
    not_served.write_text(json.dumps({"nonterminals": {"Stm": {"builtin": "json"}}}))
    with pytest.raises(RegistryConfigError):
        concrete.load_registry_config(str(not_served))

    no_signature = tmp_path / "cfg3.json"
    no_signature.write_text(json.dumps({"nonterminals": {"Stm": {"command": ["x"]}}}))
    with pytest.raises(RegistryConfigError):
        concrete.load_registry_config(str(no_signature))

    # wrap needs {body} once; project is a list of non-negative ints and needs a hole image
    for entry, message in [
        ({"wrap": "[]"}, "must contain {body} exactly once"),
        ({"wrap": "[{body}, {body}]"}, "must contain {body} exactly once"),
        ({"wrap": ["{body}"]}, "must contain {body} exactly once"),
        ({"wrap": "[{body}]", "project": [0, -1]}, "must be a list of non-negative integers"),
        ({"wrap": "[{body}]", "project": [0, "0"]}, "must be a list of non-negative integers"),
        ({"wrap": "[{body}]", "project": [True]}, "must be a list of non-negative integers"),
        ({"wrap": "[{body}]", "project": 0}, "must be a list of non-negative integers"),
        ({"via": "JSON", "wrap": "{{body}: 1}", "project": [0, 0, 0]}, "needs a hole template"),
    ]:
        bad_wrap = tmp_path / "cfg4.json"
        entry = {"builtin": "json", "via": "JSON", **entry}
        bad_wrap.write_text(json.dumps({"nonterminals": {"Id": entry}}))
        with pytest.raises(RegistryConfigError, match=re.escape(message)):
            concrete.load_registry_config(str(bad_wrap))


README_PROP_ENTRY = {"builtin": "json", "via": "JSON", "wrap": "{ {body} }",
                     "project": [0, 0], "hole": "_hole:{id}"}


@pytest.mark.parametrize("source", ["config", "builtin"])
def test_projection_is_strict(tmp_path, source):
    if source == "config":
        config = tmp_path / "registry.json"
        config.write_text(json.dumps({"nonterminals": {"JSON": {"builtin": "json"},
                                                       "Prop": README_PROP_ENTRY}}))
        reg = concrete.load_registry_config(str(config))
    else:
        reg = concrete.default_registry()
    runs = [lambda: parse_term("Prop", "a: 1, b: 2", reg),
            lambda: to_pattern("Prop", "a: <JSON x>, b: 2", reg),
            lambda: parse_term("Prop", "", reg)]
    for run in runs:
        with pytest.raises(ParserError) as exc:
            run()
        assert type(exc.value) is ParserError
        assert str(exc.value) == "line 1, col 1: expected exactly one Prop"
    with pytest.raises(JsonSyntaxError) as exc:
        parse_term("Prop", "a: @", reg)
    assert (exc.value.line, exc.value.col) == (1, 4)


def test_projection_rejects_a_changed_context():
    # As a typedef changes how C reads the statements after it, this black box
    # reads the context's trailing 0 as 1 after the body 2.
    parse = concrete.make_parse_fn(lambda text: parse_json(text.replace("2, 0]", "2, 1]")), "JSON",
                                   wrap="[{body}, 0]", project=(0, 0), hole=json_hole)
    assert parse("3") == number(3.0)
    with pytest.raises(ParserError, match="expected exactly one JSON"):
        parse("2")
    off_the_tree = concrete.make_parse_fn(parse_json, "JSON", wrap="[{body}]", project=(0, 1),
                                          hole=json_hole)
    with pytest.raises(RegistryConfigError, match="leaves its context's tree"):
        off_the_tree("1")


def test_projection_maps_lines_into_the_fragment(tmp_path):
    config = tmp_path / "registry.json"
    config.write_text(json.dumps({"nonterminals": {
        "JSON": {"builtin": "json", "wrap": "[\n  {body}]", "project": [0, 0]},
    }}))
    reg = concrete.load_registry_config(str(config))
    assert reg.parse("JSON", "1") == number(1.0)
    for text, line, col in [("@", 1, 1), (" [1,\n  @]", 2, 3)]:
        with pytest.raises(JsonSyntaxError) as exc:
            reg.parse("JSON", text)
        assert (exc.value.line, exc.value.col) == (line, col)


def test_projection_over_the_subprocess_child(tmp_path):
    (tmp_path / "exprlang.sig").write_text(render_signature(EXPRLANG_SIGNATURE))
    config = tmp_path / "registry.json"
    config.write_text(json.dumps({"nonterminals": {
        "Stm": {"command": [sys.executable, "-m", "csbb.exprlang"], "signature": "exprlang.sig"},
        "Expr": {"command": [sys.executable, "-m", "csbb.exprlang"], "signature": "exprlang.sig",
                 "via": "Stm", "wrap": "{ {body}; }", "project": [0, 0, 0], "hole": "_hole_{id}"},
    }}))
    with concrete.load_registry_config(str(config)) as reg:
        assert parse_term("Expr", "1 + 2", reg).name == "add"
        assert pattern_vars(to_pattern("Expr", "<Expr a> + 1", reg)) == {"a": ("var", adt("Expr"))}
        with pytest.raises(ParserError) as exc:
            parse_term("Expr", "x; y", reg)  # the child accepts { x; y; }
        assert type(exc.value) is ParserError and exc.value.message == "expected exactly one Expr"
        with pytest.raises(ChildReportedSyntaxError) as wrapped:
            parse_term("Stm", "{ 1 + + 2; }", reg)
        with pytest.raises(ChildReportedSyntaxError) as exc:
            parse_term("Expr", "1 + + 2", reg)
        assert (exc.value.message, exc.value.line) == (wrapped.value.message, 1)
        assert exc.value.col == wrapped.value.col - 2 == 5
