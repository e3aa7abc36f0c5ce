from __future__ import annotations

import copy
import random
from collections import Counter

import pytest

from support import (
    all_subtrees,
    brute_list_envs,
    brute_rewrite,
    enumerate_atom_lists,
    enumerate_list_patterns,
    envs_multiset,
    gen_json_term,
    instantiate_oracle,
    match_oracle,
    outcome,
    pattern_has_wildcards_oracle,
    pattern_vars_oracle,
    replace_at,
    term_equals,
    visit_collect_oracle,
    visit_rewrite_oracle,
)
from csbb.jsonlang import (
    array,
    boolean,
    ident,
    null_,
    number,
    obj,
    prop,
    string,
)
from csbb.patterns import (
    IllTypedRule,
    MatchTypeError,
    PatternStructureError,
    PCon,
    PList,
    PLit,
    PSeqVar,
    PSeqWild,
    PVar,
    PWild,
    TypeMismatch,
    UnboundVariable,
    instantiate,
    match,
    match_first,
    pattern_has_wildcards,
    pattern_vars,
    types_compatible,
    visit_collect,
    visit_rewrite,
)
from csbb.terms import (
    Con,
    ListTerm,
    Prim,
    adt,
    encode_term,
    list_of,
    maybe_of,
    prim,
    term_root_type,
)

RODIN = obj([prop("name", string("Rodin")), prop("age", number(29.0))])

# object([_*, prop(id("name"), _), *_]) built by hand
NAME_PROP_PATTERN = PCon(
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


def plist(*elems):
    return PList(tuple(elems), adt("JSON"))


def jlist(*elems):
    return ListTerm(tuple(elems), adt("JSON"))


# ---------------------------------------------------------------------------
# match


def test_name_property_pattern_matches_rodin():
    assert list(match(NAME_PROP_PATTERN, RODIN))


def test_variable_matches_anything_of_its_type():
    envs = list(match(PVar("x", adt("JSON")), number(29.0)))
    assert len(envs) == 1
    assert term_equals(envs[0]["x"], number(29.0))


def test_two_sequence_variables_split_in_shortest_first_order():
    e1, e2 = number(1.0), number(2.0)
    p = plist(PSeqVar("a", adt("JSON")), PSeqVar("b", adt("JSON")))
    envs = list(match(p, jlist(e1, e2)))
    expected = brute_list_envs(p.elems, (e1, e2))
    assert len(envs) == len(expected) == 3
    assert envs == expected
    assert [len(e["a"]) for e in envs] == [0, 1, 2]


def test_non_linear_variable_requires_equal_bindings():
    p = PCon("array", "JSON", (plist(PVar("x", adt("JSON")), PVar("x", adt("JSON"))),))
    assert len(list(match(p, array([number(1.0), number(1.0)])))) == 1
    assert list(match(p, array([number(1.0), number(2.0)]))) == []


def test_match_first_present_and_absent():
    assert match_first(NAME_PROP_PATTERN, RODIN) is not None
    assert match_first(PLit(null_()), boolean(True)) is None


def test_match_first_equals_brute_force_first():
    rng = random.Random(5)
    for _ in range(200):
        telems = tuple(gen_json_term(rng, 1) for _ in range(rng.randint(0, 4)))
        pelems = []
        for i in range(rng.randint(0, 3)):
            kind = rng.randint(0, 2)
            if kind == 0:
                pelems.append(PSeqVar(f"s{i}", adt("JSON")))
            elif kind == 1 and telems:
                pelems.append(PLit(rng.choice(telems)))
            else:
                pelems.append(PVar(f"v{i}", adt("JSON")))
        oracle = brute_list_envs(tuple(pelems), telems)
        first = match_first(plist(*pelems), jlist(*telems))
        if not oracle:
            assert first is None
        else:
            assert first == oracle[0]


def test_root_type_mismatch_raises_before_matching():
    with pytest.raises(MatchTypeError):
        match(NAME_PROP_PATTERN, prop("a", null_()))
    with pytest.raises(MatchTypeError):
        match(PVar("x", adt("JSON")), Prim("real", 1.0))


def test_match_is_deterministic():
    p = plist(PSeqVar("a", adt("JSON")), PSeqVar("b", adt("JSON")), PSeqVar("a", adt("JSON")))
    t = jlist(number(1.0), number(1.0), number(2.0))
    assert list(match(p, t)) == list(match(p, t))


def test_completeness_on_lists_against_split_oracle():
    patterns = enumerate_list_patterns(max_len=4, max_seq=2, max_lit=2)
    lists = enumerate_atom_lists(max_len=4)
    for p in patterns:
        for t in lists:
            assert envs_multiset(match(p, t)) == envs_multiset(brute_list_envs(p.elems, t.elems))


def test_renaming_repeated_variables_never_loses_matches():
    rng = random.Random(31)
    for _ in range(150):
        telems = tuple(gen_json_term(rng, 1) for _ in range(rng.randint(0, 4)))
        pelems = []
        fresh = []
        for i in range(rng.randint(1, 4)):
            name = rng.choice(["a", "b"])  # small pool forces reuse
            if rng.random() < 0.5:
                pelems.append(PSeqVar(name, adt("JSON")))
                fresh.append(PSeqVar(f"f{i}", adt("JSON")))
            else:
                pelems.append(PVar(name, adt("JSON")))
                fresh.append(PVar(f"f{i}", adt("JSON")))
        before = len(list(match(plist(*pelems), jlist(*telems))))
        after = len(list(match(plist(*fresh), jlist(*telems))))
        assert after >= before


# ---------------------------------------------------------------------------
# instantiate


def test_instantiate_splices_bound_value():
    p = PCon(
        "object",
        "JSON",
        (
            PList(
                (
                    PCon("prop", "Prop", (PLit(ident("name")), PLit(string("Rodin")))),
                    PCon("prop", "Prop", (PLit(ident("age")), PVar("age", adt("JSON")))),
                ),
                adt("Prop"),
            ),
        ),
    )
    t = instantiate(p, {"age": number(29.0)})
    assert term_equals(t, RODIN)


def test_instantiate_literal_is_identity():
    assert term_equals(instantiate(PLit(RODIN), {}), RODIN)


def test_instantiate_inverts_match():
    rng = random.Random(17)
    for _ in range(300):
        t = gen_json_term(rng, 3)
        p = _derive_pattern(rng, t, iter(range(10_000)))
        for env in match(p, t):
            assert term_equals(instantiate(p, env), t)


def _derive_pattern(rng, t, counter):
    if rng.random() < 0.3:
        return PVar(f"v{next(counter)}", term_root_type(t))
    if isinstance(t, Con):
        return PCon(t.name, t.type, tuple(_derive_pattern(rng, a, counter) for a in t.args))
    if isinstance(t, ListTerm):
        elems = []
        i = 0
        while i < len(t.elems):
            if rng.random() < 0.2:
                j = rng.randint(i, len(t.elems))
                elems.append(PSeqVar(f"s{next(counter)}", t.elem_type))
                i = j
            else:
                elems.append(_derive_pattern(rng, t.elems[i], counter))
                i += 1
        return PList(tuple(elems), t.elem_type)
    return PLit(t)


def test_instantiate_unbound_variable():
    with pytest.raises(UnboundVariable):
        instantiate(PVar("x", adt("JSON")), {})


def test_instantiate_type_mismatch():
    with pytest.raises(TypeMismatch):
        instantiate(PVar("x", adt("Prop")), {"x": number(1.0)})
    with pytest.raises(TypeMismatch):
        instantiate(PVar("x", adt("JSON")), {"x": (number(1.0),)})


def test_instantiate_rejects_wildcards():
    with pytest.raises(PatternStructureError):
        instantiate(PWild(adt("JSON")), {})


def test_sequence_variable_outside_list_is_structural_error():
    with pytest.raises(PatternStructureError):
        match(PSeqVar("xs", adt("JSON")), number(1.0))


@pytest.mark.parametrize("hole", [PSeqVar("xs", adt("JSON")), PSeqWild(adt("JSON"))])
def test_constructor_rejects_sequence_holes(hole):
    with pytest.raises(PatternStructureError, match="sequence pattern used outside a list"):
        PCon("prop", "Prop", (PLit(ident("k")), hole))


# ---------------------------------------------------------------------------
# match, visit_collect and visit_rewrite against the slicing oracles

HOLE_TYPES = [
    adt("JSON"),
    adt("Prop"),
    adt("Id"),
    adt("Maybe"),
    prim("real"),
    prim("str"),
    prim("bool"),
    list_of(adt("JSON")),
    list_of(adt("Prop")),
    maybe_of(adt("JSON")),
]


def _holey_pattern(rng, t):
    """A well-typed pattern that t instantiates, and a wildcard-free twin for a rule's right side.

    Holes of every kind appear. A variable's name is its type and one bit of
    what it binds, so equal subterms share a name and unequal ones often do:
    repeated (non-linear) names are common and both succeed and fail. The twin
    keeps the variables, puts each wildcard's subterm back as a literal and
    reverses list elements.
    """
    leaf = isinstance(t, Prim)
    r = rng.random()
    if r < (0.4 if leaf else 0.08):
        var = PVar(f"{len(encode_term(t)) % 2}:{term_root_type(t)}", term_root_type(t))
        return var, var
    if r < (0.6 if leaf else 0.12):
        return PWild(term_root_type(t)), PLit(t)
    if isinstance(t, Con) and r < 0.95:
        pairs = [_holey_pattern(rng, a) for a in t.args]
        return (
            PCon(t.name, t.type, tuple(lhs for lhs, _ in pairs)),
            PCon(t.name, t.type, tuple(rhs for _, rhs in pairs)),
        )
    if isinstance(t, ListTerm) and r < 0.95:
        lhs, rhs = [], []
        i = 0
        while i <= len(t.elems):
            if rng.random() < 0.3:
                j = rng.randint(i, len(t.elems))
                if rng.random() < 0.5:
                    bit = sum(len(encode_term(e)) for e in t.elems[i:j]) % 2
                    var = PSeqVar(f"{bit}*:{t.elem_type}", t.elem_type)
                    lhs.append(var)
                    rhs.append(var)
                else:
                    lhs.append(PSeqWild(t.elem_type))
                    rhs.extend(PLit(e) for e in t.elems[i:j])
                i = j
            if i < len(t.elems):
                left, right = _holey_pattern(rng, t.elems[i])
                lhs.append(left)
                rhs.append(right)
            i += 1
        return PList(tuple(lhs), t.elem_type), PList(tuple(reversed(rhs)), t.elem_type)
    return PLit(t), PLit(t)


def _subject(rng):
    """A JSON term; often one whose parts repeat, so non-linear names can bind."""
    t = gen_json_term(rng, 3)
    shape = rng.randint(0, 2)
    if shape == 1:
        return array([t, t, gen_json_term(rng, 1), t])
    if shape == 2:
        return obj([prop("k", t), prop("x", gen_json_term(rng, 1)), prop("k", t)])
    return t


def _swap_subtree(rng, t):
    """t with one subterm replaced by another subterm of t of the same root type."""
    subterms = all_subtrees(t)
    path, old = rng.choice(subterms)
    same = [s for _, s in subterms if term_root_type(s) == term_root_type(old)]
    return replace_at(t, path, rng.choice(same))


def _envs(matcher, p, t):
    """Every env in order, each with its bindings in order, or the root type error."""
    try:
        return [list(env.items()) for env in matcher(p, t)]
    except MatchTypeError:
        return MatchTypeError


def _ordered_hits(hits):
    return [(path, list(env.items())) for path, env in hits]


def test_match_agrees_with_the_oracle():
    rng = random.Random(41)
    env_counts = Counter()
    for _ in range(500):
        t = _subject(rng)
        p, _ = _holey_pattern(rng, t)
        for subject in (t, _swap_subtree(rng, t), _subject(rng)):
            envs = _envs(match, p, subject)
            assert envs == _envs(match_oracle, p, subject)
            env_counts[-1 if envs is MatchTypeError else min(len(envs), 2)] += 1
    assert min(env_counts[0], env_counts[1], env_counts[2]) > 30, env_counts


def _hole_at(t, path: tuple, hole):
    """The pattern of t as literals, with the subterm at path replaced by hole."""
    if not path:
        return hole
    i, rest = path[0], path[1:]
    kids = t.args if isinstance(t, Con) else t.elems
    pats = tuple(_hole_at(k, rest, hole) if n == i else PLit(k) for n, k in enumerate(kids))
    return PCon(t.name, t.type, pats) if isinstance(t, Con) else PList(pats, t.elem_type)


def test_wildcard_matches_exactly_where_a_variable_does():
    rng = random.Random(53)
    for _ in range(60):
        t = gen_json_term(rng, 3)
        for path, _ in all_subtrees(t):
            for ty in HOLE_TYPES:
                wild = _envs(match, _hole_at(t, path, PWild(ty)), t)
                var = _envs(match, _hole_at(t, path, PVar("v", ty)), t)
                assert (wild is MatchTypeError) == (var is MatchTypeError)
                assert bool(wild) == bool(var), (path, ty)


def test_collect_agrees_with_the_oracle():
    rng = random.Random(43)
    for _ in range(300):
        t = _subject(rng)
        p, _ = _holey_pattern(rng, rng.choice(all_subtrees(t))[1])
        hits = visit_collect(t, p)
        assert _ordered_hits(hits) == _ordered_hits(visit_collect_oracle(t, p))


def test_rewrite_agrees_with_the_oracle():
    rng = random.Random(47)
    for _ in range(300):
        t = _subject(rng)
        rules = [_holey_pattern(rng, rng.choice(all_subtrees(t))[1]) for _ in range(rng.randint(1, 3))]
        assert visit_rewrite(t, rules) == visit_rewrite_oracle(t, rules)


def _spoil(rng, env: dict) -> dict:
    """env, or a copy with one binding dropped or replaced by one of the wrong shape or type."""
    if not env or rng.random() < 0.3:
        return env
    env = dict(env)
    name = rng.choice(list(env))
    env[name] = rng.choice([
        None,  # dropped below
        ident("k"),  # a Prop: mistyped for a JSON hole, and not a sequence
        (number(1.0),),  # a sequence, for a variable that binds one term
        (number(1.0), prop("k", null_())),  # a sequence with a mistyped element
    ])
    if env[name] is None:
        del env[name]
    return env


def test_instantiate_and_pattern_vars_agree_with_the_oracles():
    rng = random.Random(73)
    kinds = Counter()
    for _ in range(600):
        t = _subject(rng)
        lhs, rhs = _holey_pattern(rng, t)
        env = _spoil(rng, next(match(lhs, t), {}))
        name = rng.choice(["0:JSON", "1:JSON", "0*:JSON", "0:Prop", "x"])
        patterns = [
            lhs,
            rhs,
            PCon("pair", "T", (PVar(name, adt("Id")), rhs)),  # often a name at two types
            PList((PSeqVar(name, adt("JSON")), rhs), adt("JSON")),
            rng.choice([PSeqVar(name, adt("JSON")), PSeqWild(adt("JSON"))]),  # outside a list
        ]
        for p in patterns:
            got = outcome(instantiate, p, env)
            assert got == outcome(instantiate_oracle, p, env)
            kinds[got[0] if isinstance(got, tuple) else "term"] += 1
            ordered = outcome(lambda q: list(pattern_vars(q).items()), p)
            assert ordered == outcome(lambda q: list(pattern_vars_oracle(q).items()), p)
            assert pattern_has_wildcards(p) == pattern_has_wildcards_oracle(p)
    assert len(kinds) == 4 and min(kinds.values()) > 100, kinds


# ---------------------------------------------------------------------------
# visit_collect


def test_collect_number_payloads_bottom_up():
    t = array([number(1.0), obj([prop("a", number(2.0))])])
    p = PCon("number", "JSON", (PVar("n", prim("real")),))
    hits = visit_collect(t, p)
    assert [env["n"].value for _, env in hits] == [1.0, 2.0]
    assert [path for path, _ in hits] == [(0, 0), (0, 1, 0, 0, 1)]


def test_collect_nothing():
    assert visit_collect(number(1.0), PLit(null_())) == []


def test_collect_agrees_with_subtree_enumeration():
    rng = random.Random(23)
    p = PCon("prop", "Prop", (PVar("k", adt("Id")), PVar("v", adt("JSON"))))
    for _ in range(100):
        t = gen_json_term(rng, 3)
        expected = []
        for path, sub in all_subtrees(t):
            if types_compatible(adt("Prop"), term_root_type(sub)):
                env = match_first(p, sub)
                if env is not None:
                    expected.append((path, env))
        assert visit_collect(t, p) == expected


# ---------------------------------------------------------------------------
# visit_rewrite

NULL_TO_FALSE = (PLit(null_()), PLit(boolean(False)))


def test_rewrite_replaces_each_null_once():
    t = array([null_(), number(1.0)])
    out = visit_rewrite(t, [NULL_TO_FALSE])
    assert term_equals(out, array([boolean(False), number(1.0)]))


def test_rewrite_with_no_rules_is_identity():
    t = array([null_(), number(1.0)])
    assert term_equals(visit_rewrite(t, []), t)


def test_rewrite_is_single_pass_not_fixpoint():
    # false -> [false] would loop forever under fixpoint semantics
    rule = (PLit(boolean(False)), PLit(array([boolean(False)])))
    out = visit_rewrite(boolean(False), [rule])
    assert term_equals(out, array([boolean(False)]))


def test_rewrite_agrees_with_brute_oracle():
    rng = random.Random(3)
    rules = [
        NULL_TO_FALSE,
        (
            PCon("prop", "Prop", (PVar("k", adt("Id")), PVar("v", adt("JSON")))),
            PCon("prop", "Prop", (PVar("k", adt("Id")), PLit(null_()))),
        ),
    ]
    for _ in range(200):
        t = gen_json_term(rng, 4)
        assert term_equals(visit_rewrite(t, rules), brute_rewrite(t, rules))


def test_rewrite_survives_deep_nesting():
    # The JSON parser accepts arrays nested up to about 490 deep.
    t = null_()
    for _ in range(400):
        t = array([t])
    out = visit_rewrite(t, [NULL_TO_FALSE])
    for _ in range(400):
        out = out.args[0].elems[0]
    assert out == boolean(False)


def test_rewrite_rejects_unbound_right_side():
    with pytest.raises(IllTypedRule):
        visit_rewrite(null_(), [(PLit(null_()), PVar("x", adt("JSON")))])


def test_rewrite_rejects_wildcard_right_side():
    with pytest.raises(IllTypedRule):
        visit_rewrite(null_(), [(PVar("x", adt("JSON")), PWild(adt("JSON")))])


def test_rewrite_rejects_type_changing_rule():
    with pytest.raises(IllTypedRule):
        visit_rewrite(null_(), [(PLit(null_()), PLit(ident("x")))])


# ---------------------------------------------------------------------------
# pattern equality


def test_pattern_equals_distinguishes_wildcards_from_vars():
    assert PWild(adt("JSON")) == PWild(adt("JSON"))
    assert PWild(adt("JSON")) != PVar("x", adt("JSON"))
    rebuilt = copy.deepcopy(NAME_PROP_PATTERN)
    assert rebuilt is not NAME_PROP_PATTERN and rebuilt == NAME_PROP_PATTERN
    assert hash(rebuilt) == hash(NAME_PROP_PATTERN)
    assert PLit(number(0.0)) != PLit(number(-0.0))
