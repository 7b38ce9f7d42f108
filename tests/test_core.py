from __future__ import annotations

import pytest

from cohpres.core import (
    Move,
    ParseError,
    RelationInstance,
    RewriteStep,
    TypeCheckError,
    check_trace,
    compose,
    parse_path,
    parse_presentation,
    parse_word,
    print_presentation,
    tensor_ctx,
    trace_from_moves,
    validate,
)

from conftest import load, paths_from


def test_corpus_files_parse_and_validate():
    for name in ("ds2", "ds2op", "huet", "deltas"):
        p = load(name)
        assert validate(p) == []


def test_ds2_shape(ds2):
    assert ds2.mode == "monoidal"
    assert ds2.objects == ("a", "b")
    assert len(ds2.generators) == 3
    assert ds2.equational_names == ("g",)
    assert len(ds2.relations) == 4


def test_print_parse_roundtrip():
    for name in ("ds2", "ds2op", "huet", "deltas"):
        p = load(name)
        assert parse_presentation(print_presentation(p)) == p


def test_degenerate_presentation_parses():
    p = parse_presentation("mode monoidal\nobjects a\n")
    assert p.generators == () and p.relations == ()
    assert parse_presentation(print_presentation(p)) == p


def test_mistyped_relation_rejected():
    bad = """
mode monoidal
objects a b
gen m : a a -> a
rel wrong : [m] => [m]b
"""
    with pytest.raises((TypeCheckError, ParseError)):
        parse_presentation(bad)


def test_duplicate_names_rejected():
    bad = "mode path\nobjects x x\ngen f : x -> x\n"
    with pytest.raises(TypeCheckError):
        parse_presentation(bad)


def test_validate_reports_undeclared_equational():
    # hand-built presentation: equational flag on an unknown generator cannot
    # be expressed, but an undeclared object can
    from cohpres.core import MorGen, Presentation

    p = Presentation("path", ("x",), (MorGen("f", ("x",), ("z",)),), ())
    out = validate(p)
    assert any("undeclared object 'z'" in d for d in out)


def test_path_mode_word_length_enforced():
    bad = "mode path\nobjects x\ngen f : x x -> x\n"
    with pytest.raises((ParseError, TypeCheckError)):
        parse_presentation(bad)


def test_word_parsing_forms(ds2):
    assert parse_word("baa", ds2.objects) == ("b", "a", "a")
    assert parse_word("b a a", ds2.objects) == ("b", "a", "a")
    assert parse_word("0", ds2.objects) == ()
    with pytest.raises(ParseError):
        parse_word("bxa", ds2.objects)


def test_compose_and_identities(ds2):
    naa = parse_path("[n]aa", ds2)
    bm = parse_path("b[m]", ds2)
    both = compose(ds2, naa, bm)
    assert both.source == ("b", "b", "a", "a")
    assert ds2.path_target(both) == ("b", "a")
    ident = ds2.identity(("b", "b", "a", "a"))
    assert compose(ds2, ident, naa) == naa
    assert compose(ds2, naa, ds2.identity(ds2.path_target(naa))) == naa
    with pytest.raises(TypeCheckError):
        compose(ds2, bm, naa)


def test_tensor_ctx_definition_and_action_law(ds2):
    m = parse_path("[m]", ds2)
    whisk = tensor_ctx(ds2, ("b",), m, ())
    assert whisk.steps == (RewriteStep(("b",), "m", ()),)
    assert whisk.source == ("b", "a", "a")
    # action law: x (y p z) w = (xy) p (zw)
    for path in paths_from(ds2, ("b", "a", "a"), 2)[:10]:
        lhs = tensor_ctx(ds2, ("a",), tensor_ctx(ds2, ("b",), path, ("a",)), ("b",))
        rhs = tensor_ctx(ds2, ("a", "b"), path, ("a", "b"))
        assert lhs == rhs


def test_compose_associative_on_step_lists(ds2):
    p1 = parse_path("[n]aa", ds2)
    p2 = parse_path("b[m]", ds2)
    p3 = parse_path("[g]", ds2)
    assert compose(ds2, compose(ds2, p1, p2), p3) == compose(ds2, p1, compose(ds2, p2, p3))


def test_path_printing_examples(ds2):
    path = parse_path("[g]ba ; a[n]a ; a[g] ; [m]b", ds2)
    assert ds2.fmt_path(path) == "[g]ba ; a[n]a ; a[g] ; [m]b"
    assert ds2.fmt_path(ds2.identity(("a", "b"))) == "id ab"
    assert parse_path("id ab", ds2) == ds2.identity(("a", "b"))


def test_stored_source_matches_step_fold(ds2):
    for path in paths_from(ds2, ("b", "a", "b", "a"), 3):
        w = path.source
        for s in path.steps:
            assert ds2.step_source(s) == w
            w = ds2.step_target(s)
        assert ds2.path_target(path) == w


def test_multichar_names_print_with_spaces(huet):
    assert huet.fmt_word(("x'",)) == "x'"
    f = parse_path("[f]", huet)
    assert huet.fmt_path(f) == "[f]"
    assert parse_presentation(print_presentation(huet)) == huet


def test_path_mode_rejects_context_steps(huet):
    with pytest.raises(ParseError):
        parse_path("x [f] y", huet)


def test_path_print_parse_roundtrip_sweep(ds2):
    for src in (tuple("bbaa"), tuple("baba"), tuple("aabb")):
        for q in paths_from(ds2, src, 3):
            assert parse_path(ds2.fmt_path(q), ds2) == q


def test_trace_from_moves_replays_and_rejects_mismatched_moves(ds2):
    src = parse_path("[n]aa ; b[m] ; [g]", ds2)
    gamma = RelationInstance((), (), True, name="gamma")
    delta_a = RelationInstance((), ("a",), True, name="delta")
    trace = trace_from_moves(ds2, src, [Move(1, gamma), Move(0, delta_a)])
    assert [(len(c.prefix), ds2.fmt_path(c.suffix)) for c in trace.cells] == [
        (1, "id ab"),
        (0, "a[g] ; [m]b"),
    ]
    assert ds2.fmt_path(check_trace(ds2, trace)) == "b[g]a ; [g]ba ; a[n]a ; a[g] ; [m]b"
    for bad in (
        Move(0, gamma),
        Move(1, RelationInstance((), (), False, name="gamma")),
        Move(2, gamma),
        Move(-1, gamma),
        Move(4, gamma),
    ):
        with pytest.raises(TypeCheckError):
            trace_from_moves(ds2, src, [bad])
