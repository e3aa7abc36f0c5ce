"""Concrete syntax pattern matching over pluggable black-box parsers."""

from .concrete import (
    ConcretePattern,
    HoleCaptured,
    HoleNotFound,
    ParserError,
    ParserRegistry,
    StarHoleNotInList,
    SubprocessParser,
    default_registry,
    lift,
    load_registry_config,
    lower,
    parse_term,
    split_fragment,
    to_pattern,
)
from .patterns import (
    Env,
    Pattern,
    PCon,
    PList,
    PLit,
    PSeqVar,
    PSeqWild,
    PVar,
    PWild,
    instantiate,
    match,
    match_first,
    visit_collect,
    visit_rewrite,
)
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
    decode_term,
    encode_term,
    list_of,
    maybe_of,
    parse_signature,
    prim,
    render_signature,
)
from .tympanic import (
    ForeignSchema,
    TympanicSpec,
    check_spec,
    infer_signature,
    load_foreign_value,
    load_schema,
    marshal,
    parse_tympanic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
