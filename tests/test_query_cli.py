"""Tests for the query language and the command-line front end."""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import alexdb.algebra
import alexdb.cli
import alexdb.lod
import alexdb.storage
import alexdb.topology
import builders
from alexdb import (
    Element, PointRow, build_space, changeset, commit, demos, new_store, simple_space, text_space
)
from alexdb.cli import main
from alexdb.errors import (
    AlexdbError, DanglingPairError, NotFoundError, QueryEvalError, QueryParseError
)
from alexdb.query import (
    MAX_NESTING,
    Call,
    EvalContext,
    Ident,
    MergeValue,
    NumberLit,
    PairLit,
    RegionRef,
    SetLit,
    SpaceValue,
    StoreView,
    StringLit,
    evaluate,
    parse,
    print_expr,
)
from alexdb.storage import (
    AttRow, DelXRow, RRow, VersionStore, XRow, load, reconstruct_version, save
)
from alexdb.topology import ElementId


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("demostores")
    for name, store in demos.demo_stores().items():
        save(store, root / name)
    return root


def ctx(demo_dir, **kw):
    return EvalContext(base_dir=demo_dir, **kw)


# ---------------------------------------------------------------------------
# parsing


def test_parse_builds_nested_calls():
    expr = parse('slice(load("lineland"), t=0.5)')
    assert expr == Call(
        "slice",
        (Call("load", (StringLit("lineland"),)),),
        (("t", NumberLit(0.5)),),
    )


def test_parse_atoms_cover_all_shapes():
    expr = parse('f(wall, wall:2, "odd name":1, @west, a -> b, {x, y}, -3, 1.5, "txt")')
    assert expr.args == (
        Ident("wall"),
        Ident("wall", 2),
        Ident("odd name", 1),
        RegionRef("west"),
        PairLit(Ident("a"), Ident("b")),
        SetLit((Ident("x"), Ident("y"))),
        NumberLit(-3),
        NumberLit(1.5),
        StringLit("txt"),
    )


def test_parse_errors_carry_positions():
    with pytest.raises(QueryParseError) as err:
        parse("dim(load('x'))")
    assert err.value.position == 9  # the single quote
    with pytest.raises(QueryParseError) as err:
        parse("dim(x) trailing")
    assert err.value.position == 7
    with pytest.raises(QueryParseError):
        parse("f(a=1, b)")  # positional after keyword
    with pytest.raises(QueryParseError):
        parse("f(a=1, a=2)")  # duplicate keyword
    with pytest.raises(QueryParseError):
        parse('f("bad \\x escape")')
    with pytest.raises(QueryParseError):
        parse("f(a:-1)")  # negative level tag
    with pytest.raises(QueryParseError):
        parse("")


def test_nesting_beyond_the_limit_fails_typed_at_the_offending_token():
    # the deepest accepted query parses, prints and evaluates without
    # exhausting the interpreter's stack
    deepest = "union(" * (MAX_NESTING - 2) + "space({a})" + ")" * (MAX_NESTING - 2)
    assert print_expr(parse(deepest)) == deepest
    assert evaluate(deepest).space.keys() == {ElementId("a")}
    for opener, closer in (("dim(", ")"), ("{", "}")):
        with pytest.raises(QueryParseError) as err:
            parse(opener * (MAX_NESTING + 1) + "x" + closer * (MAX_NESTING + 1))
        assert err.value.position == len(opener) * MAX_NESTING


def test_printing_is_canonical_and_stable():
    messy = 'merge(load("b"),load("a"),rules={"t0","linear-dag"})'
    canonical = print_expr(parse(messy))
    assert canonical == 'merge(load("b"), load("a"), rules={"linear-dag", "t0"})'
    assert print_expr(parse(canonical)) == canonical


@pytest.mark.parametrize(
    "text",
    [
        'dim(load("lineland"))',
        "closure(space({e, u, v}, {e -> u, e -> v}), {e})",
        'select(load("regions"), @west)',
        'path(load("pathdemo"), a, b, region={a, b})',
        'f("odd name":2, x:1)',
        "g(1.5, -3, 2e-05)",
    ],
)
def test_canonical_text_round_trips(text):
    assert print_expr(parse(text)) == text


def test_unusual_identifiers_are_quoted_when_printed():
    assert print_expr(Ident("odd name", 2)) == '"odd name":2'
    assert print_expr(Ident("plain")) == "plain"
    assert print_expr(StringLit('say "hi"')) == '"say \\"hi\\""'


# ---------------------------------------------------------------------------
# evaluation without a store


def test_space_and_hulls_evaluate():
    made = evaluate("space({e, u, v}, {e -> u, e -> v})")
    assert isinstance(made, SpaceValue)
    assert {k.id for k in made.space.keys()} == {"e", "u", "v"}
    assert evaluate("closure(space({e, u, v}, {e -> u, e -> v}), {e})") == frozenset(
        {ElementId("e"), ElementId("u"), ElementId("v")}
    )
    assert evaluate("star(space({e, u, v}, {e -> u, e -> v}), {u})") == frozenset(
        {ElementId("e"), ElementId("u")}
    )
    assert evaluate("dim(space({e, u, v}, {e -> u, e -> v}))") == 1


def test_algebra_operations_evaluate():
    es = "space({e, u, v}, {e -> u, e -> v})"
    assert evaluate(f"dim(product({es}, {es}))") == 2
    q = evaluate(f"quotient({es}, {{{{u, v}}}})")
    assert {k.id for k in q.space.keys()} == {"e", "u"}
    u = evaluate(f"union({es}, {es})")
    assert len(u.space.elements) == 6
    img = evaluate(f"image(map({es}, space({{p}}), {{e -> p, u -> p, v -> p}}))")
    assert {k.id for k in img.space.keys()} == {"p"}
    pb = evaluate(
        f"pullback(map({es}, space({{p}}), {{e -> p, u -> p, v -> p}}),"
        f" map(space({{q}}), space({{p}}), {{q -> p}}))"
    )
    assert len(pb.space.elements) == 3


def test_path_defaults_to_the_whole_space():
    es = "space({a, b}, {a -> b})"
    assert evaluate(f"path({es}, a, b)") is True
    with pytest.raises(NotFoundError):
        evaluate(f"path({es}, a, b, region={{a}})")


def test_eval_errors_name_the_failing_operation():
    with pytest.raises(QueryEvalError) as err:
        evaluate("frobnicate(1)")
    assert err.value.path == ("frobnicate",)
    with pytest.raises(QueryEvalError):
        evaluate("dim(1)")
    with pytest.raises(QueryEvalError):
        evaluate("dim()")
    with pytest.raises(QueryEvalError):
        evaluate("dim(space({a}), extra=1)")


# ---------------------------------------------------------------------------
# evaluation against stores


def test_load_pins_the_unique_latest_version(demo_dir):
    view = evaluate('load("pathdemo")', ctx(demo_dir))
    assert isinstance(view, StoreView)
    assert view.version == "v3"


def test_load_with_several_heads_requires_a_version(demo_dir):
    with pytest.raises(QueryEvalError):
        evaluate('load("textstore")', ctx(demo_dir))
    view = evaluate('load("textstore", version="v1")', ctx(demo_dir))
    assert view.version == "v1"
    view = evaluate('load("textstore")', ctx(demo_dir, version="v2"))
    assert view.version == "v2"


def test_load_rejects_unknown_versions(demo_dir):
    with pytest.raises(NotFoundError):
        evaluate('load("pathdemo", version="v9")', ctx(demo_dir))


def test_load_never_ignores_a_context_version_the_store_lacks(demo_dir):
    with pytest.raises(NotFoundError, match="unknown version 'v9'"):
        evaluate('load("pathdemo")', ctx(demo_dir, version="v9"))
    # an explicit version= still beats the context's
    view = evaluate('load("pathdemo", version="v2")', ctx(demo_dir, version="v9"))
    assert view.version == "v2"


def test_slice_uses_stored_coordinates(demo_dir):
    sliced = evaluate('slice(load("lineland"), t=1.0)', ctx(demo_dir))
    assert len(sliced.space.elements) == 5
    sliced = evaluate('slice(load("lineland"), t=0.0)', ctx(demo_dir))
    assert {k.id for k in sliced.space.keys()} == {"I⊗t0", "wl⊗t0", "wr⊗t0"}


def test_telescope_stacks_the_regions_store(demo_dir):
    tele = evaluate('telescope(load("regions"))', ctx(demo_dir))
    assert len(tele.space.elements) == 19


def test_merge_reports_conflicts(demo_dir):
    out = evaluate(
        'merge(load("help"), load("halo"), rules={"t0", "linear-dag"})', ctx(demo_dir)
    )
    assert isinstance(out, MergeValue)
    assert len(out.value.space.elements) == 6
    assert len(out.report.consistency) == 3
    assert out.report.inherent == ()


def test_regions_resolve_against_attributes(demo_dir):
    sel = evaluate('select(load("regions"), @west)', ctx(demo_dir))
    assert {k.id for k in sel.space.keys()} == {"A", "ab", "B"}
    with pytest.raises(NotFoundError):
        evaluate('select(load("regions"), @nowhere)', ctx(demo_dir))


def test_query_operations_compose(demo_dir):
    assert evaluate('dim(slice(load("lineland"), t=0.5))', ctx(demo_dir)) == 1
    assert (
        evaluate('path(select(load("regions"), @west), A, B)', ctx(demo_dir)) is True
    )


# ---------------------------------------------------------------------------
# the command line


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_validate_reports_ok(demo_dir, capsys):
    code, out, _ = run_cli(capsys, "validate", str(demo_dir / "regions"))
    assert code == 0
    assert out.strip() == "ok"


def test_cli_validate_prints_findings_and_still_exits_zero(tmp_path, capsys):
    save(demos.regions_store(faulty=True), tmp_path / "broken")
    code, out, _ = run_cli(capsys, "validate", str(tmp_path / "broken"))
    assert code == 0
    assert "cfk-continuity" in out


@pytest.mark.parametrize("first, second", [("surjective", "monotonic"), ("monotonic", "surjective")])
def test_cli_validate_prints_optional_rule_findings_in_rule_order(tmp_path, capsys, first, second):
    # Z:1 is missed and the preimage {x, y} of X:1 is disconnected
    store = builders.level_store(pairs=[], gen={"x": "X:1", "y": "X:1"}, extra=("Z:1",))
    save(store, tmp_path / "store")
    code, out, _ = run_cli(
        capsys, "validate", str(tmp_path / "store"), "--rule", first, "--rule", second
    )
    lines = {
        "surjective": "surjective [version v1]: levels 0->1: targets missed: ['Z:1']",
        "monotonic": "monotonic [version v1]: levels 0->1: disconnected preimage of ['X:1']",
    }
    assert (code, out) == (0, f"{lines[first]}\n{lines[second]}\n")


def test_cli_validate_flags_a_disconnected_pair_preimage_among_16_targets(tmp_path, capsys):
    save(builders.unrealized_pair_store(), tmp_path / "store")
    code, out, _ = run_cli(capsys, "validate", str(tmp_path / "store"), "--rule", "monotonic")
    line = "monotonic [version v1]: levels 0->1: disconnected preimage of ['t:1', 'u:1']"
    assert (code, out) == (0, f"{line}\n")


def test_cli_validate_names_every_rule_it_accepts_when_refusing_one(demo_dir, capsys):
    code, out, err = run_cli(capsys, "validate", str(demo_dir / "regions"), "--rule", "bogus")
    want = "error: unknown consistency rule 'bogus'; known: linear-dag, monotonic, surjective, t0\n"
    assert (code, out, err) == (1, "", want)


def test_cli_merge_runs_the_level_rules(demo_dir, tmp_path, capsys):
    for rule in ("surjective", "monotonic"):
        code, out, err = run_cli(
            capsys, "merge", str(demo_dir / "help"), str(demo_dir / "halo"), "--rule", rule
        )
        assert (code, out, err) == (0, "no conflicts\n", "")
    # Z:1 is missed and the preimage {x, y} of X:1 is disconnected
    store = builders.level_store(pairs=[], gen={"x": "X:1", "y": "X:1"}, extra=("Z:1",))
    save(store, tmp_path / "store")
    code, out, err = run_cli(
        capsys, "merge", str(tmp_path / "store"), str(tmp_path / "store"),
        "--rule", "surjective", "--rule", "monotonic",
    )
    assert (code, err) == (0, "")
    assert out == (
        "consistency[surjective]: levels 0->1: targets missed: ['Z:1']\n"
        "consistency[monotonic]: levels 0->1: disconnected preimage of ['X:1']\n"
    )


@pytest.mark.parametrize(
    "text, where",
    [
        ("dim(space({a, b}, {a, b}))", "dim/space"),
        ("space({a, b}, {a -> b, a})", "space"),
        ("map(space({a, b}), space({a, b}), {a, b})", "map"),
        ("map(space({a}), space({b}), {a -> b, a:1})", "map"),
    ],
)
def test_cli_query_wants_pairs_where_pairs_belong(capsys, text, where):
    # a key is a 2-tuple too, yet it is no pair
    code, out, err = run_cli(capsys, "query", text)
    assert (code, out, err) == (1, "", f"error: {where}: expected pairs written as a -> b\n")


@pytest.mark.parametrize(
    "text, err",
    [
        ("quotient(space({a, b, c}, {a -> b}), {{a, b}, {b, c}})",
         "quotient: classes overlap on ['b']"),
        ("quotient(space({a, b, c, d}), {{a, b}, {b, c}, {c, d}})",
         "quotient: classes overlap on ['b']"),
        ("image(map(space({a, b}), space({x}), {a -> x}))",
         "image: image_space requires a total map; use restrict_map first"),
        ("pullback(map(space({a}), space({x}), {a -> x}), map(space({b}), space({y}), {b -> y}))",
         "pullback: pullback requires maps into one common target space"),
        ("pullback(map(space({a, c}), space({x}), {a -> x}), map(space({b}), space({x}), {b -> x}))",
         "pullback: pullback requires total maps; use restrict_map first"),
        ("image(map(space({a}), space({x, y}), {a -> x, a -> y}))",
         "image/map: map sends a to several targets: ['x', 'y']"),
    ],
)
def test_cli_query_misuse_prints_one_error_line(capsys, text, err):
    assert run_cli(capsys, "query", text) == (1, "", f"error: {err}\n")


def test_cli_dim(demo_dir, capsys):
    code, out, _ = run_cli(capsys, "dim", str(demo_dir / "lineland"))
    assert (code, out.strip()) == (0, "2")


def test_cli_slice_summary(demo_dir, capsys):
    code, out, _ = run_cli(
        capsys, "slice", str(demo_dir / "lineland"), "--at", "1.0"
    )
    assert code == 0
    assert out.startswith("space: 5 elements, 4 pairs")


def test_cli_reconstruct_needs_a_version_on_branched_stores(demo_dir, capsys):
    code, _, err = run_cli(capsys, "reconstruct", str(demo_dir / "textstore"))
    assert code == 1
    assert "several latest versions" in err
    code, out, _ = run_cli(
        capsys, "reconstruct", str(demo_dir / "textstore"), "--version", "v1"
    )
    assert code == 0
    assert "space: 4 elements, 3 pairs" in out


def test_cli_reconstruct_csv_format(demo_dir, capsys):
    code, out, _ = run_cli(
        capsys,
        "reconstruct",
        str(demo_dir / "chain4"),
        "--format",
        "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "id,lod,kind"
    assert "x0,0,vertex" in out
    assert "x1,0,edge" in out
    assert "x3,0,higher" in out
    assert "x3,0,x2,0" in out


def test_cli_merge_and_save(demo_dir, tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "merge",
        str(demo_dir / "help"),
        str(demo_dir / "halo"),
        "--rule",
        "linear-dag",
        "--out",
        str(tmp_path / "merged"),
    )
    assert code == 0
    assert out.count("consistency[linear-dag]") == 3
    merged = load(tmp_path / "merged")
    assert merged.vx == ("merged",)
    assert {w.id for w in merged.x} == {"1", "2", "3", "5", "6", "7"}


def test_cli_path_answers_yes_and_no(demo_dir, capsys):
    code, out, _ = run_cli(capsys, "path", str(demo_dir / "pathdemo"), "a", "b")
    assert (code, out.strip()) == (0, "Yes")
    code, out, _ = run_cli(
        capsys, "path", str(demo_dir / "pathdemo"), "a", "b", "--version", "v2"
    )
    assert (code, out.strip()) == (0, "No")


def test_cli_versions_with_path(demo_dir, capsys):
    code, out, _ = run_cli(
        capsys, "versions-with-path", str(demo_dir / "pathdemo"), "a", "b"
    )
    assert code == 0
    assert out.split() == ["v1", "v3"]


def test_cli_versions_with_path_refuses_an_unknown_rule(demo_dir, capsys):
    store = str(demo_dir / "pathdemo")
    code, out, err = run_cli(capsys, "versions-with-path", store, "a", "b", "--rule", "bogus")
    assert (code, out, err) == (1, "", "error: unknown consistency rule 'bogus'; "
                                       "known: linear-dag, monotonic, surjective, t0\n")
    code, out, err = run_cli(capsys, "versions-with-path", store, "a", "b", "--rule", "monotonic")
    assert (code, out.split(), err) == (0, ["v1", "v3"], "")


def test_cli_versions_with_path_takes_every_rule_the_registry_knows(demo_dir, capsys):
    # a level rule other than monotonic leaves the route, and the answer, as it is
    store = str(demo_dir / "regions")
    for rules in ([], ["--rule", "surjective"], ["--rule", "T0", "--rule", "linear-dag"]):
        code, out, err = run_cli(capsys, "versions-with-path", store, "A", "B", *rules)
        assert (code, out, err) == (0, "v1\n", "")


def test_cli_versions_with_path_documents_its_rule_option(capsys):
    with pytest.raises(SystemExit):
        main(["versions-with-path", "--help"])
    text = " ".join(capsys.readouterr().out.split())  # as wrapped at any terminal width
    assert "--rule RULE monotonic: answer through the coarse level first (repeatable)" in text


def counting(monkeypatch, counts, targets):
    """Count the calls of each ``(owner, name)`` in ``targets`` under
    ``name`` in ``counts``."""
    for owner, name in targets:
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


LEVEL_MAP_ROUTES = [
    (alexdb.lod, "_level_maps"),
    (alexdb.storage, "_linked_path_query"),
    (alexdb.lod, "_linked_index"),
    (alexdb.algebra.SpaceMap, "__post_init__"),
    (alexdb.algebra, "restrict_map"),
]


def test_cli_monotone_versions_with_path_builds_no_level_map(demo_dir, capsys, monkeypatch):
    counts = Counter()
    counting(monkeypatch, counts, LEVEL_MAP_ROUTES + [
        (alexdb.storage, "_filter_stages"), (alexdb.topology.SpaceIndex, "__init__")])
    store = str(demo_dir / "regions")
    # a region on level 0, whose every element generalises onto level 1
    direct = run_cli(capsys, "versions-with-path", store, "A", "B", "--region", "west")
    plain = counts.copy()
    counts.clear()
    filtered = run_cli(
        capsys, "versions-with-path", store, "A", "B", "--region", "west", "--rule", "monotonic"
    )
    assert filtered == direct == (0, "v1\n", "")
    assert plain["_linked_path_query"] == plain["_linked_index"] == 1
    assert plain["_filter_stages"] == 0
    assert counts["_filter_stages"] == 1
    assert not any(counts[name] for _, name in LEVEL_MAP_ROUTES)
    assert counts["__init__"] <= plain["__init__"]


def test_cli_validate_surjective_builds_no_level_map(demo_dir, capsys, monkeypatch):
    counts = Counter()
    counting(monkeypatch, counts, LEVEL_MAP_ROUTES)
    store = str(demo_dir / "regions")
    assert run_cli(capsys, "validate", store, "--rule", "surjective") == (0, "ok\n", "")
    assert not any(counts.values())
    assert run_cli(capsys, "validate", store, "--rule", "monotonic") == (0, "ok\n", "")
    assert counts["_level_maps"] == 1


def region_history(directory):
    """v0: a and b both bounded by m, all in region w; v1 drops (b, m);
    v2 re-adds it.  Saved under ``directory``."""
    base = simple_space(["a", "b", "m"], [("a", "m"), ("b", "m")])
    tagged = [Element(k, attributes={"region": "w"}) for k in sorted(base.keys())]
    store = new_store("v0", build_space(tagged, base.relation))
    store = commit(store, "v0", changeset("v1", remove_pairs=[("b", "m")]))
    store = commit(store, "v1", changeset("v2", add_pairs=[("b", "m")]))
    save(store, directory)
    return directory


def test_cli_versions_with_path_reconstructs_each_version_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(store, v, _real=alexdb.storage.reconstruct_version):
        calls.append(v)
        return _real(store, v)

    store = str(region_history(tmp_path / "hist"))
    monkeypatch.setattr(alexdb.cli, "reconstruct_version", counted)
    monkeypatch.setattr(alexdb.storage, "reconstruct_version", counted)
    code, out, _ = run_cli(capsys, "versions-with-path", store, "a", "b", "--region", "w")
    assert (code, out) == (0, "v0\nv2\n")
    assert sorted(calls) == ["v0", "v1", "v2"]
    code, out, err = run_cli(capsys, "versions-with-path", store, "a", "b", "--region", "east")
    assert (code, out, err) == (1, "", "error: no elements carry region='east'\n")


def test_cli_versions_with_path_without_a_region_reads_only_versions_where_both_ends_live(
    tmp_path, capsys, monkeypatch
):
    # 3 dies in v1 and 1 in v2: only v0 holds both ends
    store = new_store("v0", text_space("abc"))
    store = commit(store, "v0", changeset("v1", remove_elements=["3"]))
    store = commit(store, "v1", changeset("v2", remove_elements=["1"]))
    save(store, tmp_path / "S")
    calls = []

    def counted(store, v, _real=alexdb.storage.reconstruct_version):
        calls.append(v)
        return _real(store, v)

    monkeypatch.setattr(alexdb.cli, "reconstruct_version", counted)
    monkeypatch.setattr(alexdb.storage, "reconstruct_version", counted)
    code, out, err = run_cli(capsys, "versions-with-path", str(tmp_path / "S"), "1", "3")
    assert (code, out, err) == (0, "v0\n", "")
    assert calls == ["v0"]


def test_cli_versions_with_path_without_a_region_reports_no_fault_of_a_version_it_skips(
    tmp_path, capsys
):
    # v1 deletes 2 but keeps the pair (1, 2), so reading v1 fails; 2 is dead
    # there, so the query skips v1, as the library does
    store = VersionStore(
        x=(XRow("1", 0, None, None, "v0"), XRow("2", 0, None, None, "v0")),
        r=(RRow("1", "2", 0, "v0"),),
        delx=(DelXRow("2", 0, "v1"),),
        vx=("v0", "v1"),
        vr=(("v0", "v1"),),
    )
    save(store, tmp_path / "S")
    with pytest.raises(DanglingPairError):
        reconstruct_version(load(tmp_path / "S"), "v1")
    code, out, err = run_cli(capsys, "versions-with-path", str(tmp_path / "S"), "1", "2")
    assert (code, out, err) == (0, "v0\n", "")
    code, out, err = run_cli(capsys, "versions-with-path", str(tmp_path / "S"), "1", "1")
    assert (code, out) == (1, "") and err.startswith("error: ")


def test_cli_versions_with_path_looks_a_region_up_without_reading_a_version(tmp_path, capsys):
    # 1 and 2 lie in region R; v1 deletes 2 but keeps the pair (1, 2), so
    # reading v1 fails; the region is read off the store's rows, and the
    # query skips v1, where 2 is dead
    store = VersionStore(
        x=(XRow("1", 0, None, None, "v0"), XRow("2", 0, None, None, "v0")),
        r=(RRow("1", "2", 0, "v0"),),
        delx=(DelXRow("2", 0, "v1"),),
        vx=("v0", "v1"),
        vr=(("v0", "v1"),),
        atts=(AttRow("1", 0, "region", "R"), AttRow("2", 0, "region", "R")),
    )
    save(store, tmp_path / "S")
    path = str(tmp_path / "S")
    code, out, err = run_cli(capsys, "versions-with-path", path, "1", "2", "--region", "R")
    assert (code, out, err) == (0, "v0\n", "")
    code, out, err = run_cli(capsys, "versions-with-path", path, "1", "2", "--region", "Q")
    assert (code, out, err) == (1, "", "error: no elements carry region='Q'\n")
    # no row creates zz, so no version holds it
    assert not load(path).history.alive("v0", ElementId("zz"))
    code, out, err = run_cli(capsys, "versions-with-path", path, "1", "zz")
    assert (code, out, err) == (0, "(none)\n", "")


def test_cli_versions_with_path_takes_a_region_missing_from_some_versions(tmp_path, capsys):
    # v0 has no element in R; v1 adds f and c in R, with f bounded by a and c
    store = new_store("v0", simple_space(["a", "b", "e"]))
    tagged = [Element(ElementId(k), attributes={"region": "R"}) for k in ("f", "c")]
    store = commit(
        store, "v0", changeset("v1", add_elements=tagged, add_pairs=[("f", "a"), ("f", "c")])
    )
    save(store, tmp_path / "S")
    code, out, err = run_cli(
        capsys, "versions-with-path", str(tmp_path / "S"), "a", "c", "--region", "R"
    )
    assert (code, out, err) == (0, "v1\n", "")


def test_cli_telescope_export_falls_back_to_generic_csv(demo_dir, tmp_path, capsys):
    outdir = tmp_path / "tele"
    code, out, _ = run_cli(
        capsys, "telescope", str(demo_dir / "regions"), "--out", str(outdir)
    )
    assert code == 0
    assert (outdir / "Elements.csv").exists()
    assert (outdir / "Pairs.csv").exists()
    lines = (outdir / "Elements.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "id,lod,kind" and len(lines) == 20


def test_cli_export_summary_and_copy(demo_dir, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "export", str(demo_dir / "textstore"))
    assert code == 0
    assert "store: 3 versions" in out
    code, out, _ = run_cli(
        capsys, "export", str(demo_dir / "textstore"), "--out", str(tmp_path / "copy")
    )
    assert code == 0
    assert load(tmp_path / "copy") == load(demo_dir / "textstore")


def test_cli_export_onto_a_file_prints_one_error_line(demo_dir, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("keep me", encoding="utf-8")
    for target in (blocker, blocker / "copy"):
        code, out, err = run_cli(capsys, "export", str(demo_dir / "regions"), "--out", str(target))
        want = f"error: cannot save a store into {target}: it or a directory above it is a file\n"
        assert (code, out, err) == (1, "", want)
    assert blocker.read_text(encoding="utf-8") == "keep me"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["slice", "lineland", "--at", "1.0"], "cannot save a store into {target}"),
        # a telescope has cross-level pairs, so it falls back to the generic layout
        (["telescope", "regions"], "cannot write into {target}"),
    ],
    ids=["store layout", "generic layout"],
)
def test_cli_out_onto_a_file_prints_one_error_line(demo_dir, tmp_path, capsys, argv, want):
    blocker = tmp_path / "file"
    blocker.write_text("keep me", encoding="utf-8")
    command, store, *rest = argv
    for target in (blocker, blocker / "copy"):
        code, out, err = run_cli(capsys, command, str(demo_dir / store), *rest, "--out", str(target))
        text = want.format(target=target)
        assert (code, out, err) == (1, "", f"error: {text}: it or a directory above it is a file\n")
    assert blocker.read_text(encoding="utf-8") == "keep me"


def test_cli_query_evaluates_expressions(demo_dir, capsys):
    code, out, _ = run_cli(
        capsys, "query", 'dim(load("lineland"))', "--store", str(demo_dir)
    )
    assert (code, out.strip()) == (0, "2")
    code, out, _ = run_cli(
        capsys,
        "query",
        'path(select(load("regions"), @west), A, B)',
        "--store",
        str(demo_dir),
    )
    assert (code, out.strip()) == (0, "Yes")


def test_cli_query_parse_errors_point_at_the_spot(demo_dir, capsys):
    code, _, err = run_cli(capsys, "query", "dim(load('x'))", "--store", str(demo_dir))
    assert code == 1
    lines = err.splitlines()
    assert lines[0].startswith("parse error at 9")
    assert lines[2] == " " * 9 + "^"


# query text, exit code, and the first line it prints (stdout on success,
# stderr on failure); ``{demo}`` stands for the store directory
QUERY_OUTCOMES = [
    # refusals of the evaluator, each a typed error
    ('slice(load("lineland"))', 1, "error: slice: slice requires t=<time>"),
    ('slice(load("lineland"), t=a)', 1, "error: slice: t must be a number"),
    ("telescope(space({a}))", 1, "error: telescope: telescope expects a loaded store"),
    ("load(a)", 1, "error: load: load expects a quoted store path"),
    ('load("lineland", version={a})', 1, "error: load: version must be a string"),
    ("space(a)", 1, "error: space: space expects a set of elements"),
    ("quotient(space({a}), a)", 1, "error: quotient: quotient expects a set of class sets"),
    ("quotient(space({a}), {a})", 1, "error: quotient: quotient classes must be sets"),
    ("merge(space({a}), space({b}), rules={1})", 1,
     "error: merge: rules must be a set of rule-name strings"),
    ("closure(space({a}), {x -> y})", 1, "error: closure: expected an element, got a pair"),
    ("closure(space({a}), {{a}})", 1, "error: closure: expected an element, got a set"),
    ("closure(space({a}), a)", 1, "error: closure: expected an element set, got an element"),
    ("image(space({a}))", 1, "error: image: expected a mapping, got a space"),
    ("space({a}, a)", 1, "error: space: expected a set of pairs, got an element"),
    # values the evaluator accepts
    ("dim(merge(space({a}), space({b})))", 0, "0"),  # a merge result used as a space
    ("closure(space({1, a}), {1})", 0, "1"),  # a number as an element
    ('dim(load("textstore", version=v1))', 0, "3"),  # an unquoted version name
    # string escapes, and the parse errors of ``expect``, ``atom`` and level tags
    ('load("a\\"b")', 1, 'error: no store directory {demo}/a"b'),
    ('load("a\\q")', 1, "parse error at 7: bad escape in string literal (at position 7)"),
    ("dim(load(x", 1, "parse error at 10: expected ')', found 'end of input' (at position 10)"),
    ("dim(", 1, "parse error at 4: expected a value, found 'end of input' (at position 4)"),
    ("x:a", 1, "parse error at 2: expected 'num', found 'a' (at position 2)"),
    ('"s":x', 1, "parse error at 4: expected 'num', found 'x' (at position 4)"),
    ("x:-1", 1, "parse error at 2: level tag must be non-negative (at position 2)"),
    ("x:1.5", 1, "parse error at 2: level tag must be an integer (at position 2)"),
]


@pytest.mark.parametrize("text, code, line", QUERY_OUTCOMES)
def test_cli_query_refuses_or_answers_each_form_with_its_exit_code_and_line(
    demo_dir, capsys, text, code, line
):
    got, out, err = run_cli(capsys, "query", text, "--store", str(demo_dir))
    assert got == code
    assert (err if code else out).splitlines()[0] == line.format(demo=demo_dir)
    assert not (out if code else err)


def test_a_node_that_is_no_expression_cannot_be_evaluated():
    with pytest.raises(QueryEvalError) as err:
        evaluate(42)
    assert str(err.value) == "<root>: cannot evaluate 42"


def test_cli_query_rejects_deep_nesting_with_a_parse_error(demo_dir, capsys):
    depth = 400
    text = "dim(" * depth + 'load("lineland")' + ")" * depth
    code, _, err = run_cli(capsys, "query", text, "--store", str(demo_dir))
    assert code == 1
    assert err.splitlines()[0].startswith(f"parse error at {4 * MAX_NESTING}: ")
    assert "Recursion" not in err


def test_cli_query_eval_errors_name_the_operation(demo_dir, capsys):
    code, _, err = run_cli(capsys, "query", "frobnicate(1)", "--store", str(demo_dir))
    assert code == 1
    assert "frobnicate" in err


def test_cli_query_eval_errors_name_their_location_once(demo_dir, capsys):
    code, _, err = run_cli(capsys, "query", "dim(frobnicate(1))", "--store", str(demo_dir))
    assert code == 1
    assert err == "error: dim/frobnicate: unknown operation 'frobnicate'\n"
    assert err.count("dim/frobnicate") == 1


def test_cli_query_rejects_a_version_the_store_lacks(demo_dir, capsys):
    code, out, err = run_cli(
        capsys, "query", 'path(load("pathdemo"), a, b)', "--store", str(demo_dir),
        "--version", "v9",
    )
    assert (code, out, err) == (1, "", "error: unknown version 'v9'\n")


def test_cli_domain_errors_exit_one(tmp_path, capsys):
    code, _, err = run_cli(capsys, "dim", str(tmp_path / "missing"))
    assert code == 1
    assert err.startswith("error:")


def test_cli_query_refuses_a_telescope_over_a_same_level_generalisation(tmp_path, capsys):
    store = builders.level_store([("a", "b"), ("a:1", "b:1")], {"c": "b", "a": "a:1", "b": "b:1"})
    save(store, tmp_path / "store")
    code, out, err = run_cli(
        capsys, "query", 'dim(telescope(load("store")))', "--store", str(tmp_path)
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: element c generalises to b on its own level 0; "
        "the telescope needs generalisations between levels\n"
    )


def test_cli_query_names_a_missing_store_as_typed(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "query", 'dim(load("demo/nope"))')
    assert (code, out) == (1, "")
    assert "demo/nope" in err and str(tmp_path) not in err
    assert err == run_cli(capsys, "dim", "demo/nope")[2]


def test_cli_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def _collector_inside(monkeypatch):
    """A ``dim`` handler that records whether the collector runs, then fails."""
    seen = []

    def handler(args):
        seen.append(gc.isenabled())
        raise RuntimeError("handler failed")

    monkeypatch.setitem(alexdb.cli._QUERIES, "dim", handler)
    return seen


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("exit", ["success", "error line", "usage", "handler raises"])
def test_main_leaves_the_collector_as_it_found_it(demo_dir, capsys, monkeypatch, enabled, exit):
    store = str(demo_dir / "lineland")
    seen = _collector_inside(monkeypatch) if exit == "handler raises" else []
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if exit == "success":
            assert main(["dim", store]) == 0
        elif exit == "error line":
            assert main(["dim", str(demo_dir / "nope")]) == 1
        elif exit == "usage":
            with pytest.raises(SystemExit):
                main(["dim", "--no-such-option", store])
        else:
            with pytest.raises(RuntimeError, match="handler failed"):
                main(["dim", store])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == ([False] if exit == "handler raises" else [])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# the CLI contract: --out files, shorthand subcommands, README transcripts


def store_files(directory):
    return {f.name: f.read_text(encoding="utf-8") for f in sorted(directory.iterdir())}


EMPTY_TABLES = {
    "Atts.csv": "id,lod,name,value\n",
    "DelR.csv": "ida,idb,lod,version\n",
    "DelX.csv": "id,lod,version\n",
    "VR.csv": "fromv,tov\n",
}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["reconstruct", "pathdemo"],  # v3: the unique sink of v1 -> v2 -> v3
            {
                **EMPTY_TABLES,
                "Point.csv": "pid,lod,x,y,z,t\n",
                "R.csv": "ida,idb,lod,version\na,b,0,v3\n",
                "VX.csv": "version\nv3\n",
                "X.csv": "id,lod,gid,glod,version\na,0,,,v3\nb,0,,,v3\n",
            },
        ),
        (
            ["slice", "lineland", "--at", "0"],  # v0: the store's only version
            {
                **EMPTY_TABLES,
                "Point.csv": "pid,lod,x,y,z,t\n"
                "wl⊗t0,0,0.0,0.0,0.0,0.0\nwr⊗t0,0,1.0,0.0,0.0,0.0\n",
                "R.csv": "ida,idb,lod,version\nI⊗t0,wl⊗t0,0,v0\nI⊗t0,wr⊗t0,0,v0\n",
                "VX.csv": "version\nv0\n",
                "X.csv": "id,lod,gid,glod,version\n"
                "I⊗t0,0,,,v0\nwl⊗t0,0,,,v0\nwr⊗t0,0,,,v0\n",
            },
        ),
        (
            ["reconstruct", "pathdemo", "--version", "v2"],  # an explicit version wins
            {
                **EMPTY_TABLES,
                "Point.csv": "pid,lod,x,y,z,t\n",
                "R.csv": "ida,idb,lod,version\n",
                "VX.csv": "version\nv2\n",
                "X.csv": "id,lod,gid,glod,version\na,0,,,v2\nb,0,,,v2\n",
            },
        ),
    ],
)
def test_cli_out_writes_the_version_read(demo_dir, tmp_path, capsys, argv, expected):
    command, store, *rest = argv
    outdir = tmp_path / "out"
    code, out, _ = run_cli(capsys, command, str(demo_dir / store), *rest, "--out", str(outdir))
    assert (code, out) == (0, f"wrote {outdir}\n")
    assert store_files(outdir) == expected


DEMO_STORES = ("chain4", "halo", "help", "lineland", "pathdemo", "regions", "textstore")

# (subcommand argv with store paths under {d}, the query it is shorthand
# for, the query's own options)
SHORTHANDS = [
    case
    for name in DEMO_STORES
    for case in (
        (["dim", f"{{d}}/{name}"], f'dim(load("{name}"))', []),
        (["dim", f"{{d}}/{name}", "--version", "v1"], f'dim(load("{name}"))', ["--version", "v1"]),
        (["slice", f"{{d}}/{name}", "--at", "0.5"], f'slice(load("{name}"), t=0.5)', []),
        (
            ["slice", f"{{d}}/{name}", "--at", "0", "--format", "csv"],
            f'slice(load("{name}"), t=0)',
            ["--format", "csv"],
        ),
        (["reconstruct", f"{{d}}/{name}"], f'load("{name}")', []),
        (
            ["reconstruct", f"{{d}}/{name}", "--version", "v2", "--format", "csv"],
            f'load("{name}")',
            ["--version", "v2", "--format", "csv"],
        ),
        (["telescope", f"{{d}}/{name}"], f'telescope(load("{name}"))', []),
        (
            ["telescope", f"{{d}}/{name}", "--format", "csv"],
            f'telescope(load("{name}"))',
            ["--format", "csv"],
        ),
    )
] + [
    (["path", "{d}/pathdemo", "a", "b"], 'path(load("pathdemo"), a, b)', []),
    (
        ["path", "{d}/pathdemo", "a", "b", "--version", "v2"],
        'path(load("pathdemo"), a, b)',
        ["--version", "v2"],
    ),
    (
        ["path", "{d}/regions", "A", "B", "--region", "west"],
        'path(load("regions"), A, B, region=@west)',
        [],
    ),
    (
        ["path", "{d}/regions", "A", "C", "--region", "west"],
        'path(load("regions"), A, C, region=@west)',
        [],
    ),
    (["path", "{d}/regions", "A", "Ac:1"], 'path(load("regions"), A, Ac:1)', []),
    (
        ["path", "{d}/lineland", "wl⊗t0", "wr⊗t0"],
        'path(load("lineland"), "wl⊗t0", "wr⊗t0")',
        [],
    ),
    (["path", "{d}/textstore", "1", "2"], 'path(load("textstore"), 1, 2)', []),
    (
        ["merge", "{d}/help", "{d}/halo", "--rule", "linear-dag"],
        'merge(load("help"), load("halo"))',
        ["--rule", "linear-dag"],
    ),
    (["merge", "{d}/regions", "{d}/chain4"], 'merge(load("regions"), load("chain4"))', []),
    (["merge", "{d}/textstore", "{d}/help"], 'merge(load("textstore"), load("help"))', []),
]


@pytest.mark.parametrize(
    "argv, text, options", SHORTHANDS, ids=[" ".join(c[0]).replace("{d}/", "") for c in SHORTHANDS]
)
def test_shorthand_subcommands_print_what_their_query_prints(demo_dir, capsys, argv, text, options):
    got = run_cli(capsys, *[a.format(d=demo_dir) for a in argv])
    want = run_cli(capsys, "query", text, "--store", str(demo_dir), *options)
    if argv[0] == "merge" and want[0] == 0:
        # merge has no --format: it prints the conflict report, not the space
        code, out, err = want
        assert out.startswith(got[1]) and out[len(got[1]):].startswith("space: ")
        want = (code, got[1], err)
    assert got == want


def readme_transcripts():
    """``(command, expected stdout)`` for each ``$ alexdb`` line of the
    README's console blocks; the output runs to the next prompt."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    cases = []
    for block in re.findall(r"```console\n(.*?)```", readme, re.S):
        command, lines = None, []
        for line in block.splitlines() + ["$"]:
            if not line.startswith("$"):
                lines.append(line)
                continue
            if command is not None:
                cases.append((command, "\n".join(lines).rstrip("\n") + "\n"))
            command, lines = line[2:], []
    return cases


def test_readme_has_transcripts():
    assert len(readme_transcripts()) >= 9


@pytest.mark.parametrize("command, expected", readme_transcripts())
def test_readme_transcripts_replay(command, expected, capsys, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    program, *argv = shlex.split(command)
    assert program == "alexdb"
    assert run_cli(capsys, *argv)[:2] == (0, expected)



# ---------------------------------------------------------------------------
# messages do not depend on hash order

_REPLAY = """
import contextlib, io, json, sys
import alexdb.cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = alexdb.cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


_SEQUENCE = """
import contextlib, io, json, sys
import alexdb.cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = alexdb.cli.main(argv)
        except SystemExit as exc:  # usage errors
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _run_commands(commands: list) -> list:
    """Exit code, stdout and stderr of each command, all run by ``main`` in
    one process."""
    src = str(Path(alexdb.cli.__file__).resolve().parents[1])
    env = {**os.environ, "COLUMNS": "80"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SEQUENCE, json.dumps(commands)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def test_the_parser_kept_for_the_process_answers_as_a_fresh_one(tmp_path):
    levels = str(tmp_path / "levels")
    save(builders.level_store(pairs=[], gen={"a": "t:1"}, extra=("u:1",)), levels)
    demo = str(Path(__file__).resolve().parents[1] / "demo")
    merged = 'merge(load("chain4"), load("halo"))'
    sequences = [
        [["validate", levels, "--rule", "surjective"], ["validate", levels]],
        [["slice", levels], ["dim", levels]],
        [["query", merged, "--store", demo, "--rule", "linear-dag"],
         ["query", merged, "--store", demo]],
    ]
    for commands in sequences:
        together = _run_commands(commands)
        assert together == [_run_commands([argv])[0] for argv in commands]
        # each later command answers as if it ran alone: no rule carries over
        assert together[0] != together[1]
    assert [code for code, _, _ in together] == [0, 0]
    assert _run_commands(sequences[1])[0][0] == 2


def test_validate_reports_nan_time_coordinates(tmp_path, capsys):
    nan = str(tmp_path / "nan")
    space = simple_space(["e", "u", "v", "w", "x"], [("e", "u"), ("e", "v"), ("e", "x")])
    times = {"u": float("nan"), "v": 0.2, "w": float("nan"), "x": 0.9}
    points = [PointRow(ElementId(k), 0.0, 0.0, 0.0, t) for k, t in times.items()]
    save(new_store("v0", space, points), nan)
    assert main(["validate", nan]) == 0
    assert capsys.readouterr().out == (
        "geometry [Point]: vertex u has time coordinate nan\n"
        "geometry [Point]: vertex w has time coordinate nan\n"
    )
    assert main(["slice", nan, "--at", "0.5"]) == 1
    assert capsys.readouterr().err == "error: vertex u has time coordinate nan\n"


def test_query_prints_a_map_one_line_per_mapped_element_in_key_order(capsys):
    assert main(["query", "map(space({c, a:1, a, b}), space({x, y}), {c -> x, a:1 -> y, a -> x})"]) == 0
    assert capsys.readouterr().out == "a -> x\na:1 -> y\nc -> x\n"
    assert main(["query", "map(space({a}), space({x}), {})"]) == 0
    assert capsys.readouterr().out == "(empty)\n"


def test_failing_commands_give_the_same_messages_under_any_hash_seed(tmp_path):
    store = builders.two_level_store(random.Random(0))
    coarse = next(ElementId(w.id, w.lod) for w in store.x if w.lod == 1)
    fine = sorted(k for k in reconstruct_version(store, "v1").keys() if k.lod == 0)
    dangling = str(tmp_path / "dangling")
    save(builders.unchecked_removal(store, "v1", "v2", [coarse]), dangling)
    ghosts = tmp_path / "ghosts"
    save(demos.text_store(), ghosts)
    with open(ghosts / "R.csv", "a", encoding="utf-8") as fh:
        fh.write("1,ghost,0,v0\n9,1,0,v9\n")
    # min and max over a nan time depend on the order of the pairs
    nan = str(tmp_path / "nan")
    space = simple_space(["e", "u", "v", "x"], [("e", "u"), ("e", "v"), ("e", "x")])
    times = {"u": float("nan"), "v": 0.2, "x": 0.9}
    save(new_store("v0", space, [PointRow(ElementId(k), 0.0, 0.0, 0.0, t) for k, t in times.items()]), nan)
    commands = [
        ["query", "dim(space({a}, {a -> b, a -> c, a -> d}))"],
        ["query", "space({a, b, c}, {a -> x, b -> y, c -> z, w -> a})"],
        ["query", "dim(space({a, b, c}, {a -> b, b -> c, c -> a}))"],
        ["query", "quotient(space({a, b, c}, {a -> b, b -> c}), {{a, c}})"],
        ["query", "closure(space({a, b}), {x, y, z})"],
        ["query", "image(map(space({a}), space({x, y}), {a -> x, a -> y}))"],
        ["query", "quotient(space({a, b, c, d}), {{a, b}, {b, c}, {c, d}})"],
        ["telescope", dangling],
        ["versions-with-path", dangling, str(fine[0]), str(fine[-1])],
        ["validate", dangling],
        ["dim", str(ghosts)],
        ["slice", nan, "--at", "0.5"],
        ["slice", nan, "--at", "nan"],
        # a map prints in key order, not in the set order of its spaces
        ["query", "map(space({a, b, c}, {a -> b, a -> c}), space({x}), {a -> x})"],
    ]
    src = str(Path(alexdb.cli.__file__).resolve().parents[1])
    runs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _REPLAY, json.dumps(commands)],
            env=env, capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    assert [code for code, _, _ in runs[0]] == [1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 0]
    assert runs[0][-1] == [0, "a -> x\n", ""]
    assert [err for _, _, err in runs[0][-3:-1]] == [
        "error: vertex u has time coordinate nan\n",
        "error: cannot slice at time nan\n",
    ]
    assert runs[0][0][2] == (
        "error: pair BoundedByPair(ida=ElementId(id='a', lod=0), idb=ElementId(id='b', lod=0))"
        " references unknown element b\n"
    )


# ---------------------------------------------------------------------------
# robustness


@given(st.integers(0, 2**32))
def test_committed_multi_level_stores_raise_only_typed_errors(seed):
    rng = random.Random(seed)
    store = builders.committed_history(rng, max_commits=4)[-1]
    head = store.vx[-1]
    coarse = [k for k in reconstruct_version(store, head).keys() if k.lod == 1]
    if coarse and rng.random() < 0.5:
        # a dangling generalisation target, as a store on disk may hold
        store = builders.unchecked_removal(store, head, "dangling", [rng.choice(coarse)])
    keys = sorted({ElementId(w.id, w.lod) for w in store.x})
    a, b = str(rng.choice(keys)), str(rng.choice(keys))
    v = rng.choice(store.vx)
    for call in (
        lambda: alexdb.storage.validate(store, ["surjective", "monotonic", "t0"]),
        lambda: alexdb.lod.telescope(store, v),
        lambda: alexdb.storage.versions_with_path(store, keys[0], keys[-1], keys),
        lambda: alexdb.storage.versions_with_path(store, keys[0], keys[-1], keys, ["monotonic"]),
    ):
        try:
            call()
        except AlexdbError:
            pass
    with tempfile.TemporaryDirectory() as tmp:
        s = str(save(store, Path(tmp) / "store"))
        commands = [
            ["validate", s, "--rule", "surjective", "--rule", "monotonic"],
            ["dim", s, "--version", v],
            ["slice", s, "--at", "0.5", "--version", v],
            ["reconstruct", s, "--version", v, "--format", "csv"],
            ["path", s, a, b, "--version", v],
            ["versions-with-path", s, a, b],
            ["versions-with-path", s, a, b, "--rule", "monotonic"],
            ["telescope", s, "--version", v],
            ["export", s],
            ["merge", s, s],
            ["query", f'dim(telescope(load("store", version="{v}")))', "--store", tmp],
        ]
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)  # an exception other than AlexdbError fails the test
            assert code in (0, 1), argv
