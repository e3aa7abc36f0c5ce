"""Command-line front end.

Exit codes are part of the interface:
  0  success (a match was found, output printed)
  1  match: no match
  2  syntax errors, bad patterns, unbound or ill-typed bindings
  3  registry configuration errors
  4  a pattern hole was captured by literal text
  5  mapping diagnostics / semantic mapping errors
  6  marshalling found no applicable rule
"""

from __future__ import annotations

import argparse
import os
import sys

from . import concrete, pretty, tympanic
from .concrete import (
    HoleCaptured,
    ParserRegistry,
    PipelineError,
    RegistryConfigError,
)
from .patterns import (
    PatternStructureError,
    TypeMismatch,
    UnboundVariable,
    instantiate,
    match,
    pattern_vars,
)
from .terms import TermDecodeError, decode_term, encode_term, list_of
from .tympanic import MappingError, NoApplicableRule, SchemaError, TympanicSyntaxError

CONFIG_ENV_VAR = "CSBB_CONFIG"


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _load_registry(args) -> ParserRegistry:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return concrete.default_registry()
    return concrete.load_registry_config(path)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _pattern_text(args) -> str:
    if args.pattern is not None:
        return args.pattern
    return _read(args.pattern_file)


def _print_term(t, out_format: str) -> None:
    print(encode_term(t) if out_format == "term" else pretty.pretty_term(t))


def cmd_parse(args) -> int:
    reg = _load_registry(args)
    try:
        text = args.text if args.text is not None else _read(args.file)
        term = reg.parse(args.lang, text)
    except PipelineError as e:
        _err(str(e))
        return 2
    finally:
        reg.close()
    _print_term(term, args.out)
    return 0


def _print_env(env) -> None:
    for name, value in env.items():
        print(f"{name} = {pretty.pretty_binding(value)}")


def cmd_match(args) -> int:
    reg = _load_registry(args)
    try:
        pattern = concrete.to_pattern(args.lang, _pattern_text(args), reg, lenient=args.lenient)
        subject = reg.parse(args.lang, _read(args.input))
    except HoleCaptured as e:
        _err(str(e))
        return 4
    except PipelineError as e:
        _err(str(e))
        return 2
    finally:
        reg.close()
    envs = match(pattern, subject)
    try:
        first = next(envs, None)
        if first is None:
            return 1
        _print_env(first)
        if args.all:
            for env in envs:
                print()
                _print_env(env)
    except PatternStructureError as e:
        _err(str(e))
        return 2
    return 0


def _load_bindings(pattern, binds, reg, lang) -> dict:
    sig = reg.signature_for(lang)
    env: dict = {}
    for spec in binds:
        name, sep, path = spec.partition("=")
        if not sep:
            raise ValueError(f"--bind needs name=file, got {spec!r}")
        var = pattern_vars(pattern).get(name)
        if var is None:
            raise ValueError(f"pattern binds no variable named {name!r}")
        kind, var_type = var
        expected = list_of(var_type) if kind == "seq" else var_type
        text = _read(path).strip()
        if text.startswith("{"):
            value = decode_term(text)
        else:
            value = pretty.parse_pretty_term(sig, text, expected)
        env[name] = tuple(value.elems) if kind == "seq" else value
    return env


def cmd_construct(args) -> int:
    reg = _load_registry(args)
    try:
        pattern = concrete.to_pattern(args.lang, _pattern_text(args), reg, lenient=args.lenient)
        env = _load_bindings(pattern, args.bind, reg, args.lang)
        term = instantiate(pattern, env)
    except HoleCaptured as e:
        _err(str(e))
        return 4
    except (PipelineError, TermDecodeError, pretty.PrettyTermError, ValueError,
            UnboundVariable, TypeMismatch, PatternStructureError) as e:
        _err(str(e))
        return 2
    finally:
        reg.close()
    _print_term(term, args.out)
    return 0


def cmd_tympanic(args) -> int:
    try:
        spec = tympanic.parse_tympanic(_read(args.spec))
        schema = tympanic.load_schema(_read(args.schema))
    except (TympanicSyntaxError, SchemaError) as e:
        _err(str(e))
        return 2

    if args.action == "check":
        diags = tympanic.check_spec(spec, schema)
        for d in diags:
            print(d)
        return 5 if diags else 0

    if args.action == "gen-adt":
        try:
            _, module = tympanic.infer_signature(spec, schema)
        except MappingError as e:
            _err(str(e))
            return 5
        if args.out_file:
            with open(args.out_file, "w", encoding="utf-8") as f:
                f.write(module)
        else:
            sys.stdout.write(module)
        return 0

    # marshal
    if not args.value:
        _err("marshal needs --value")
        return 2
    try:
        value = tympanic.load_foreign_value(_read(args.value))
        term = tympanic.marshal(spec, schema, value)
    except SchemaError as e:
        _err(str(e))
        return 2
    except NoApplicableRule as e:
        _err(str(e))
        return 6
    except (MappingError, tympanic.MarshalError) as e:
        _err(str(e))
        return 5
    print(pretty.pretty_term(term))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="csbb")
    parser.add_argument("--config", help=f"registry config path (default: ${CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse object-language text to a term")
    p.add_argument("--lang", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--text")
    g.add_argument("--file")
    p.add_argument("--out", choices=("term", "pretty"), default="pretty")
    p.set_defaults(handler=cmd_parse)

    m = sub.add_parser("match", help="match a concrete pattern against an input file")
    m.add_argument("--lang", required=True)
    g = m.add_mutually_exclusive_group(required=True)
    g.add_argument("--pattern")
    g.add_argument("--pattern-file")
    m.add_argument("--input", required=True)
    m.add_argument("--all", action="store_true", help="print every match, not just the first")
    m.add_argument("--lenient", action="store_true",
                   help="allow captured holes to become non-linear matches")
    m.set_defaults(handler=cmd_match)

    c = sub.add_parser("construct", help="instantiate a concrete pattern with bindings")
    c.add_argument("--lang", required=True)
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--pattern")
    g.add_argument("--pattern-file")
    c.add_argument("--bind", action="append", default=[], metavar="NAME=FILE")
    c.add_argument("--out", choices=("term", "pretty"), default="pretty")
    c.add_argument("--lenient", action="store_true")
    c.set_defaults(handler=cmd_construct)

    t = sub.add_parser("tympanic", help="mapping DSL: check, gen-adt, or marshal")
    t.add_argument("action", choices=("check", "gen-adt", "marshal"))
    t.add_argument("--spec", required=True)
    t.add_argument("--schema", required=True)
    t.add_argument("--value", help="foreign value file (marshal)")
    t.add_argument("--out", dest="out_file", help="write gen-adt output to a file")
    t.set_defaults(handler=cmd_tympanic)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except RegistryConfigError as e:
        _err(str(e))
        return 3
    except OSError as e:
        _err(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
