"""Scale checks: the reachability kernel against networkx at 200-2000
elements, on layered and graded grid complexes, version reconstruction
over a 400-version history, and map checking on maps onto 1,000-2,000
targets.

The hypothesis suites check every query on spaces of up to ten elements;
this module repeats the checks that matter for large inputs on seeded
layered complexes and histories, where recursion depth, per-call rebuilds
and quadratic loops would show.  Marked ``slow`` (deselect with
``-m "not slow"``); the whole module runs in a few seconds.
"""
from __future__ import annotations

import functools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alexdb import (
    BoundedByPair,
    Element,
    ElementId,
    MissingGeometryError,
    PointRow,
    Space,
    SpaceMap,
    T0ViolationError,
    apply_changeset,
    build_space,
    changeset,
    check_map,
    closure,
    commit,
    components_within,
    find_cycle,
    is_connected,
    krull_dimension,
    load,
    new_store,
    open_reduction,
    path_query,
    reconstruct_version,
    save,
    select_subspace,
    simple_space,
    star,
    text_space,
    time_slice,
    validate,
    versions_with_path,
)
import alexdb
from alexdb import algebra, demos, lod, spacetime, storage, topology, versioning
from alexdb.algebra import PRODUCT_SEPARATOR
from alexdb.cli import main
from alexdb.storage import VersionStore, canonicalize
from alexdb.topology import SpaceIndex
from alexdb.lod import as_level
from alexdb.versioning import HistoryIndex

import builders
import oracles
from conftest import assert_telescope_reads_as_eager

pytestmark = pytest.mark.slow


def layered(n: int, seed: int, layers: int = 6):
    """A seeded layered complex of ``n`` elements with its networkx twin.

    Each element is bounded by two or three elements of the next layer;
    one element in five also by one two layers down, so the relation holds
    pairs that a reduction must drop.
    """
    rng = random.Random(seed)
    width = n // layers
    ids = [f"e{i}" for i in range(width * layers)]
    pairs = set()
    for i in range(width * (layers - 1)):
        layer = i // width
        for _ in range(rng.randint(2, 3)):
            pairs.add((ids[i], ids[(layer + 1) * width + rng.randrange(width)]))
        if layer + 2 < layers and rng.random() < 0.2:
            pairs.add((ids[i], ids[(layer + 2) * width + rng.randrange(width)]))
    space = simple_space(ids, pairs)
    graph = oracles.digraph(space.keys(), [(p.ida, p.idb) for p in space.relation])
    return space, graph, rng


def pair_set(relation) -> frozenset:
    return frozenset((p.ida, p.idb) for p in relation)


@pytest.mark.parametrize("n", [200, 2000])
def test_hulls_match_networkx(n):
    space, graph, rng = layered(n, seed=n)
    keys = sorted(space.keys())
    for k in rng.sample(keys, 60):
        assert closure(space, [k]) == nx.descendants(graph, k) | {k}
        assert star(space, [k]) == nx.ancestors(graph, k) | {k}
    several = rng.sample(keys, 5)
    assert closure(space, several) == frozenset().union(
        *(nx.descendants(graph, k) | {k} for k in several)
    )


@pytest.mark.parametrize("n", [200, 1000])
def test_subspace_components_match_the_restricted_comparability_graph(n):
    space, graph, rng = layered(n, seed=n + 1)
    comparable = nx.transitive_closure(graph, reflexive=False)
    keys = sorted(space.keys())
    for share in (0.1, 0.3, 0.6):
        region = frozenset(k for k in keys if rng.random() < share)
        restricted = comparable.subgraph(region).to_undirected()
        expected = sorted(
            (frozenset(c) for c in nx.connected_components(restricted)), key=min
        )
        assert list(components_within(space, region)) == expected
        members = sorted(region)
        for _ in range(20):
            a, b = rng.choice(members), rng.choice(members)
            assert path_query(space, region, a, b) == nx.has_path(restricted, a, b)


@pytest.mark.parametrize("n", [200, 1000])
def test_select_subspace_matches_the_transitive_reduction(n):
    space, graph, rng = layered(n, seed=n + 2)
    comparable = nx.transitive_closure(graph, reflexive=False)
    keep = frozenset(k for k in space.keys() if rng.random() < 0.5)
    sub = select_subspace(space, keep)
    assert sub.keys() == keep
    expected = nx.transitive_reduction(comparable.subgraph(keep))
    assert pair_set(sub.relation) == frozenset(expected.edges())


def grid(side: int, seed: int):
    """A seeded ``side`` x ``side``-face grid complex with its networkx twin
    and a time coordinate for each vertex.

    Vertex ``v{x}_{y}``; edge ``h{x}_{y}`` from (x, y) to (x+1, y) and
    ``u{x}_{y}`` from (x, y) to (x, y+1); face ``f{x}_{y}`` with corner
    (x, y).  Every cell is bounded only by cells one dimension down.
    """
    rng = random.Random(seed)
    ids = [f"v{x}_{y}" for x in range(side + 1) for y in range(side + 1)]
    pairs = []
    for x in range(side + 1):
        for y in range(side + 1):
            if x < side:
                ids.append(f"h{x}_{y}")
                pairs += [(f"h{x}_{y}", f"v{x}_{y}"), (f"h{x}_{y}", f"v{x + 1}_{y}")]
            if y < side:
                ids.append(f"u{x}_{y}")
                pairs += [(f"u{x}_{y}", f"v{x}_{y}"), (f"u{x}_{y}", f"v{x}_{y + 1}")]
            if x < side and y < side:
                ids.append(f"f{x}_{y}")
                rim = (f"h{x}_{y}", f"h{x}_{y + 1}", f"u{x}_{y}", f"u{x + 1}_{y}")
                pairs += [(f"f{x}_{y}", e) for e in rim]
    space = simple_space(ids, pairs)
    graph = oracles.digraph(space.keys(), [(p.ida, p.idb) for p in space.relation])
    points = [
        PointRow(ElementId(i), 0.0, 0.0, 0.0, round(rng.random(), 3)) for i in ids if i[0] == "v"
    ]
    return space, graph, points, rng


def column(k: ElementId) -> int:
    return int(k.id[1:].split("_")[0])


def grid_regions(space, rng) -> dict:
    """Regions of a 16-face grid: bands of columns, closed, open and neither,
    a random half, and the grid less one edge, which leaves its face's
    corners as candidates below the face that do not cover it."""
    keys = sorted(space.keys())
    faces = [k for k in keys if k.id[0] == "f"]
    vertices = [k for k in keys if k.id[0] == "v"]
    return {
        "closed band": closure(space, [f for f in faces if 4 <= column(f) < 8]),
        "open band": star(space, [v for v in vertices if 4 < column(v) < 8]),
        "columns": frozenset(k for k in keys if 4 <= column(k) < 12),
        "two bands": frozenset(k for k in keys if column(k) < 4 or 8 <= column(k) < 12),
        "random half": frozenset(k for k in keys if rng.random() < 0.5),
        "less one edge": frozenset(keys) - {ElementId("u5_5")},
    }


def test_grid_subspaces_match_the_transitive_reduction():
    space, graph, _, rng = grid(16, seed=8)
    comparable = nx.transitive_closure(graph, reflexive=False)
    for name, keep in grid_regions(space, rng).items():
        sub = select_subspace(space, keep)
        assert sub.keys() == keep, name
        expected = nx.transitive_reduction(comparable.subgraph(keep))
        assert pair_set(sub.relation) == frozenset(expected.edges()), name


def test_grid_paths_and_components_match_networkx():
    space, graph, _, rng = grid(16, seed=9)
    comparable = nx.transitive_closure(graph, reflexive=False)
    for name, region in grid_regions(space, rng).items():
        restricted = comparable.subgraph(region).to_undirected()
        expected = sorted((frozenset(c) for c in nx.connected_components(restricted)), key=min)
        assert list(components_within(space, region)) == expected, name
        assert is_connected(space, region) == (len(expected) == 1), name
        members = sorted(region)
        for _ in range(10):
            a, b = rng.choice(members), rng.choice(members)
            assert path_query(space, region, a, b) == nx.has_path(restricted, a, b), name
    bands = grid_regions(space, rng)["two bands"]
    a, b, c = ElementId("f0_0"), ElementId("f3_15"), ElementId("f8_0")
    assert path_query(space, bands, a, b)
    assert not path_query(space, bands, a, c)


def test_grid_time_slices_match_the_preorder_reference():
    space, _, points, rng = grid(16, seed=10)
    for t in (0.5, rng.choice(points).t):  # a vertex time keeps instants
        assert time_slice(space, points, t) == oracles.time_slice_by_descendants(
            space, points, t
        )


def test_only_a_select_with_a_non_covering_candidate_reduces(monkeypatch):
    calls = []
    reduction = algebra._reduction

    def counted(*args):
        calls.append(args)
        return reduction(*args)

    monkeypatch.setattr(algebra, "_reduction", counted)
    space, _, _, rng = grid(16, seed=11)
    regions = grid_regions(space, rng)
    for name in ("closed band", "open band", "columns", "two bands"):
        select_subspace(space, regions[name])
    assert calls == []
    select_subspace(space, regions["less one edge"])
    assert len(calls) == 1
    layers, _, rng = layered(600, seed=12)
    select_subspace(layers, frozenset(k for k in layers.keys() if rng.random() < 0.5))
    assert len(calls) >= 2


def test_graded_selects_and_slices_build_pairs_only_past_dropped_elements(monkeypatch):
    walked, built = [], []
    nearest, pair = algebra._nearest_kept, algebra._pair

    def walk(out, kept, a):
        walked.append(a)
        return nearest(out, kept, a)

    def new_pair(ab):
        built.append(ab)
        return pair(ab)

    monkeypatch.setattr(algebra, "_nearest_kept", walk)
    monkeypatch.setattr(algebra, "_pair", new_pair)
    space, _, points, rng = grid(16, seed=13)
    keys = space.index.keys
    ambient = set(map(id, space.relation))
    # a band: its rim walks, but finds no kept element past a dropped one
    band = select_subspace(space, grid_regions(space, rng)["columns"])
    assert walked and built == []
    assert set(map(id, band.relation)) <= ambient
    # faces and vertices: each face walks past its edges to its corners,
    # and only those pairs are built
    walked.clear()
    corners = select_subspace(space, frozenset(k for k in space.keys() if k.id[0] in "fv"))
    faces = {k for k in space.keys() if k.id[0] == "f"}
    assert {keys[a] for a in walked} == faces
    assert {a for a, _ in built} == faces and len(built) == len(corners.relation) == 4 * 256
    # a slice off every vertex time keeps an open set: no walk, no new pair
    walked.clear()
    built.clear()
    sliced = time_slice(space, points, 0.50005)
    assert sliced.relation and walked == [] and built == []
    assert set(map(id, sliced.relation)) <= ambient


def test_open_reduction_matches_networkx():
    space, graph, _ = layered(2000, seed=3)
    reduced = open_reduction(space.relation)
    assert len(reduced) < len(space.relation)  # the skip pairs are redundant
    assert pair_set(reduced) == frozenset(nx.transitive_reduction(graph).edges())


def _random_digraph(n: int, rnd: random.Random, cycles: int) -> nx.DiGraph:
    """A seeded digraph on ``n`` nodes: ``2 n`` pairs drawn along a random
    order of the nodes, so acyclic, and ``cycles`` pairs back from the end
    of a random walk of 1 to 200 steps to its start, each closing a
    cycle."""
    order = [f"k{i:04d}" for i in range(n)]
    rnd.shuffle(order)
    graph = nx.DiGraph()
    graph.add_nodes_from(order)
    for _ in range(2 * n):
        i, j = sorted(rnd.sample(range(n), 2))
        graph.add_edge(order[i], order[j])
    for _ in range(cycles):
        start = end = rnd.choice([k for k in order if graph.out_degree(k)])
        for _ in range(rnd.randint(1, 200)):
            below = sorted(graph.successors(end))
            if not below:
                break
            end = rnd.choice(below)
        graph.add_edge(end, start)
    return graph


def _is_cycle(graph: nx.DiGraph, keys: list[ElementId]) -> bool:
    """Whether ``keys`` is a directed cycle of ``graph``, each node once."""
    ids = [k.id for k in keys]
    return len(set(ids)) == len(ids) > 0 and all(
        graph.has_edge(a, b) for a, b in zip(ids, ids[1:] + ids[:1])
    )


@pytest.mark.parametrize("seed", range(8))
def test_the_cycle_search_matches_networkx(seed):
    rnd = random.Random(seed)
    graph = _random_digraph(rnd.randint(1000, 2000), rnd, cycles=seed % 4)
    space = simple_space(graph.nodes, graph.edges, t0_check=False)
    cycle = find_cycle(space)
    assert (cycle is None) == nx.is_directed_acyclic_graph(graph)
    if cycle is not None:
        assert _is_cycle(graph, cycle)
        # the transitive reduction names a cycle of its own search
        with pytest.raises(T0ViolationError) as err:
            open_reduction(space.relation)
        assert _is_cycle(graph, err.value.cycle)


def test_a_2000_element_space_with_a_cycle_names_a_real_one():
    graph = _random_digraph(2000, random.Random(1), cycles=1)
    with pytest.raises(T0ViolationError) as err:
        simple_space(graph.nodes, graph.edges)
    assert _is_cycle(graph, err.value.cycle)
    assert str(err.value) == (
        f"relation has a cycle, space is not T0: {[k.id for k in err.value.cycle]}"
    )


def test_dimension_matches_the_longest_path():
    space, graph, _ = layered(2000, seed=4)
    assert krull_dimension(space) == nx.dag_longest_path_length(graph)


@pytest.mark.parametrize("letters", [1500, 100_000])
def test_dimension_of_long_texts_needs_no_recursion(letters):
    assert krull_dimension(text_space("ab" * (letters // 2))) == letters - 1


def slice_points(space, rng, missing: int = 0) -> list[PointRow]:
    """A time coordinate for each vertex, leaving out ``missing`` of them."""
    bounded = {p.ida for p in space.relation}
    vertices = sorted(k for k in space.keys() if k not in bounded)
    dropped = set(rng.sample(vertices, missing))
    return [
        PointRow(k, 0.0, 0.0, 0.0, round(rng.random(), 3))
        for k in vertices
        if k not in dropped
    ]


@pytest.mark.parametrize("n", [200, 2000])
def test_time_slice_matches_the_preorder_reference(n):
    space, _, rng = layered(n, seed=n + 5)
    points = slice_points(space, rng)
    for t in (0.5, rng.choice(points).t):  # a vertex time keeps instants
        assert time_slice(space, points, t) == oracles.time_slice_by_descendants(
            space, points, t
        )


def test_time_slice_names_the_smallest_element_without_geometry():
    space, _, rng = layered(600, seed=6)
    points = slice_points(space, rng, missing=len(space) // 12)
    with pytest.raises(MissingGeometryError) as want:
        oracles.time_slice_by_descendants(space, points, 0.5)
    with pytest.raises(MissingGeometryError) as got:
        time_slice(space, points, 0.5)
    assert str(got.value) == str(want.value)


def _slice_or_error(call):
    """A slice, or the type and text of the error it raised."""
    try:
        return call()
    except MissingGeometryError as exc:
        return type(exc), str(exc)


# how a caller may hand the same coordinate rows over
_ROW_FORMS = {
    "list": lambda rows: rows,
    "copy": lambda rows: [PointRow(*p) for p in rows],
    "dict": lambda rows: {p.key: p for p in rows},
    "generator": lambda rows: (p for p in rows),
    "values": lambda rows: {p.key: p for p in rows}.values(),
}


@settings(max_examples=30)
@given(st.data())
def test_repeated_slices_never_read_stale_intervals(data):
    seed = data.draw(st.integers(0, 2**16), label="seed")
    if data.draw(st.booleans(), label="grid"):
        space, _, points, rng = grid(4, seed)
    else:
        space, _, rng = layered(90, seed)
        points = slice_points(space, rng)
    i = rng.randrange(len(points))
    moved = list(points)
    moved[i] = moved[i]._replace(t=rng.choice([1.5, points[i - 1].t, 0.5]))
    nan = list(points)
    nan[i] = nan[i]._replace(t=math.nan)
    rowsets = {"rows": points, "moved": moved, "nan": nan, "missing": points[:i] + points[i + 1:]}
    # on and off vertex times
    times = sorted({p.t for p in rng.sample(points, 3)}) + [0.25005, 0.5, 0.75005]
    steps = data.draw(st.lists(st.tuples(
        st.sampled_from(sorted(rowsets)), st.sampled_from(sorted(_ROW_FORMS)), st.sampled_from(times),
    ), min_size=2, max_size=8), label="steps")
    # a good slice after whatever the steps leave behind
    for name, form, t in steps + [("rows", "list", 0.5)]:
        rows = rowsets[name]
        want = _slice_or_error(lambda: oracles.time_slice_by_descendants(space, rows, t))
        assert _slice_or_error(lambda: time_slice(space, _ROW_FORMS[form](rows), t)) == want
        if isinstance(want, tuple):  # a repeated failing call raises the same text
            assert _slice_or_error(lambda: time_slice(space, _ROW_FORMS[form](rows), t)) == want


def test_slices_with_the_same_rows_compute_life_intervals_once(monkeypatch):
    passes = []
    intervals = spacetime._life_intervals

    def counted(space, pts):
        passes.append(len(pts))
        return intervals(space, pts)

    monkeypatch.setattr(spacetime, "_life_intervals", counted)
    space, _, points, _ = grid(16, seed=14)
    for t in (0.25005, 0.5, points[0].t, 0.75005):
        assert time_slice(space, points, t) == oracles.time_slice_by_descendants(space, points, t)
    assert passes == [len(points)]
    # changed rows run the pass again, and the new rows are kept in turn
    moved = [points[0]._replace(t=0.9)] + points[1:]
    for t in (0.5, 0.75005):
        assert time_slice(space, moved, t) == oracles.time_slice_by_descendants(space, moved, t)
    assert passes == [len(points)] * 2


def branching_history(n: int, seed: int):
    """A seeded ``n``-version store grown by commits, with every version's
    space as reconstruction gives it.

    Three commits in ten branch off one of the five latest versions; each
    drops about one element in twelve (bypass pairs included), re-adds some
    dropped ones and adds a fresh one, linked below a surviving element.
    Every element is created with an attribute.  A re-added element comes
    back with no attributes, with those recorded for it, or with one more;
    either way it reads back every attribute recorded for its key, not
    just those of the changeset that re-added it.
    """
    rng = random.Random(seed)
    first = [Element(ElementId(f"e{i}"), "v000", attributes={"n": i}) for i in range(8)]
    links = [BoundedByPair(first[i].key, first[i + 1].key) for i in range(7)]
    spaces = {"v000": build_space(first, links)}
    recorded = {e.key: dict(e.attributes) for e in first}
    store = new_store("v000", spaces["v000"])
    dropped: set[ElementId] = set()
    for i in range(1, n):
        version = f"v{i:03d}"
        latest = list(spaces)
        parent = rng.choice(latest[-5:]) if rng.random() < 0.3 else latest[-1]
        space = spaces[parent]
        keys = sorted(space.keys())
        removed = [k for k in keys if rng.random() < 0.08]
        back = [k for k in sorted(dropped - space.keys()) if rng.random() < 0.2]
        fresh = [ElementId(f"n{i}")] if rng.random() < 0.6 else []
        anchors = [k for k in keys if k not in removed]
        pairs = [(rng.choice(anchors), k) for k in back + fresh if anchors and rng.random() < 0.7]
        attributes = {k: {"n": i} for k in fresh}
        for k in back:
            attributes[k] = rng.choice([{}, recorded[k], {**recorded[k], f"back{i}": i}])
        changes = changeset(
            version,
            add_elements=[Element(k, attributes=attributes[k]) for k in back + fresh],
            remove_elements=removed,
            add_pairs=pairs,
        )
        dropped.update(removed)
        store = commit(store, parent, changes)
        for k in back + fresh:
            recorded[k] = {**recorded.get(k, {}), **attributes[k]}
        spaces[version] = apply_changeset(space, changes)
    # attributes belong to a key, not to a version: every version reads
    # all those ever recorded for a key, in name order, and keys in order
    for version, space in spaces.items():
        elements = [
            Element(k, e.version, e.gen_target, dict(sorted(recorded[k].items())))
            for k, e in sorted(space.elements.items())
        ]
        spaces[version] = build_space(elements, space.relation)
    return store, spaces


def outcome(space) -> tuple:
    return list(space.elements.items()), space.relation


def test_reconstruction_over_400_versions_matches_every_commit(tmp_path):
    store, spaces = branching_history(400, seed=7)
    for version, space in spaces.items():
        assert outcome(reconstruct_version(store, version)) == outcome(space)
    loaded = load(save(store, tmp_path / "history"))
    for version in list(spaces)[::20]:
        want = outcome(oracles.reconstruct_version_by_hulls(store, version))
        assert outcome(reconstruct_version(store, version)) == want
        assert outcome(reconstruct_version(loaded, version)) == want


def test_one_element_commits_build_no_index_and_reconstruct_no_parent(monkeypatch):
    # the parent of each commit is the version the previous commit made
    store = new_store("v0", text_space("ab" * 500))
    store.history  # noqa: B018 - build the index before counting
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(HistoryIndex, "__init__", counted("index", HistoryIndex.__init__))
    monkeypatch.setattr(versioning, "_reconstruct", counted("rows", versioning._reconstruct))
    # nor build a space or its index anew, nor sort a whole table
    for module in (topology, versioning):
        monkeypatch.setattr(module, "build_space", counted("space", topology.build_space))
    monkeypatch.setattr(SpaceIndex, "__init__", counted("space index", SpaceIndex.__init__))
    monkeypatch.setattr(topology, "_kahn", counted("kahn", topology._kahn))
    monkeypatch.setattr(VersionStore, "__post_init__", counted("sort", VersionStore.__post_init__))
    parent = "v0"
    for i in range(1, 201):
        version = f"v{i}"
        if i % 2:
            changes = changeset(version, remove_elements=[str(i)])
        else:  # a letter between two neighbours: the order is kept, not found again
            letter = Element(ElementId(f"n{i}"), attributes={"letter": "z"})
            a, b = str(i + 1), str(i + 2)
            changes = changeset(version, add_elements=[letter],
                                add_pairs=[(a, f"n{i}"), (f"n{i}", b)], remove_pairs=[(a, b)])
        store = commit(store, parent, changes)
        parent = version
    # v0 alone, which no commit made, is read from the columns, with the
    # union's order found once; no space's index is built, since each
    # commit reads its neighbours off the history index
    assert counts == Counter({"rows": 1, "kahn": 1})
    assert len(reconstruct_version(store, parent)) == 1000
    assert counts == Counter({"rows": 1, "kahn": 1})


def test_commits_from_older_parents_fill_no_index_of_the_parent(monkeypatch):
    # each commit starts from a version drawn at random, which the index
    # does not hold, so it reads that parent from the columns; the
    # neighbours of the key it removes come off the history index, and
    # the union's order proves the new space T0, so no space's index is
    # filled in, the parent's or the child's
    rng = random.Random(11)
    store = new_store("v0", text_space("ab" * 200))
    store.history  # noqa: B018 - build the index, and the version space's, before counting
    filled = Counter()
    real = topology._filled

    def counted(*args):
        filled["index"] += 1
        return real(*args)

    monkeypatch.setattr(topology, "_filled", counted)
    for i in range(1, 121):
        parent = rng.choice(store.vx)
        space = reconstruct_version(store, parent)
        version = f"v{i}"
        if i % 2:
            changes = changeset(version, remove_elements=[rng.choice(sorted(space.elements))])
        else:  # a letter between two neighbours
            a, b = rng.choice(sorted(space.relation))
            letter = Element(ElementId(f"n{i}"), attributes={"letter": "z"})
            changes = changeset(version, add_elements=[letter],
                                add_pairs=[(a, f"n{i}"), (f"n{i}", b)], remove_pairs=[(a, b)])
        store = commit(store, parent, changes)
    assert filled == Counter()
    for v in rng.sample(store.vx, 10):
        assert outcome(reconstruct_version(store, v)) == outcome(
            oracles.reconstruct_version_by_hulls(store, v)
        )


def test_commits_on_a_text_whose_union_has_a_cycle_keep_a_version_s_order(monkeypatch):
    # "5" is removed, then created again between "300" and "301", so the
    # union holds 5 -> 6 -> ... -> 300 -> 5, though no version has a cycle
    store = new_store("v0", text_space("ab" * 200))
    store = commit(store, "v0", changeset("v1", remove_elements=["5"]))
    store = commit(store, "v1", changeset("v2", [Element(ElementId("5"))],
                                          add_pairs=[("300", "5"), ("5", "301")],
                                          remove_pairs=[("300", "301")]))
    store = commit(store, "v2", changeset("v3", remove_elements=["9"]))
    assert store.history.union_order() is None
    ids = [str(n) for n in range(1, 401)]
    texts = {"v3": [k for k in ids[:300] if k not in ("5", "9")] + ["5"] + ids[300:]}
    counts: Counter = Counter()
    _counted(monkeypatch, counts, topology, "_kahn", "kahn")
    _counted(monkeypatch, counts, topology, "_filled", "index")
    rng = random.Random(5)
    made = []
    for i in range(4, 124):
        # each commit starts from the version the one before made, and
        # removes a letter, puts a new one in, or brings a removed one back
        # at another place: the order kept for the parent, with that letter
        # placed anew, orders the child, and no Kahn order is found
        parent, version = f"v{i - 1}", f"v{i}"
        old = texts[parent]
        j = rng.randrange(1, len(old) - 1)
        gone = sorted(set(ids).union(k for t in texts.values() for k in t) - set(old))
        roll = rng.random()
        if roll < 0.4:
            changes = changeset(version, remove_elements=[old[j]])
            texts[version] = old[:j] + old[j + 1:]
        else:
            new = rng.choice(gone) if roll < 0.7 else f"n{i}"
            changes = changeset(version, [Element(ElementId(new))],
                                add_pairs=[(old[j - 1], new), (new, old[j])],
                                remove_pairs=[(old[j - 1], old[j])])
            texts[version] = old[:j] + [new] + old[j:]
        made.append((store, parent, changes))
        store = commit(store, parent, changes)
        made[-1] += (store.history.held[1],)
    assert counts == Counter()
    # a commit from an older parent reads it from the columns, with at most
    # one Kahn order, over its live pair columns, and fills no space's index
    for i in range(124, 134):
        parent = f"v{rng.randrange(4, 100)}"
        store = commit(store, parent, changeset(f"v{i}", remove_elements=[texts[parent][1]]))
    assert counts["kahn"] <= 10 and counts["index"] == 0
    for before, parent, changes, got in made:
        want = oracles.commit_by_rebuild(canonicalize(before), parent, changes)
        assert outcome(got) == outcome(reconstruct_version(want, changes.version))
    for v in rng.sample(sorted(store.vx), 10):
        assert outcome(reconstruct_version(store, v)) == outcome(
            oracles.reconstruct_version_by_hulls(store, v)
        )


def test_checkouts_between_commits_leave_the_order_the_commits_keep(monkeypatch):
    # as above, the union holds 5 -> 6 -> ... -> 300 -> 5; before each
    # commit from the newest version a random older version is checked
    # out, which finds an order of its own over its live pair columns, and
    # the order kept for the commits stays: only the first commit, which
    # has none kept for its parent, runs Kahn's algorithm
    store = new_store("v0", text_space("ab" * 200))
    store = commit(store, "v0", changeset("v1", remove_elements=["5"]))
    store = commit(store, "v1", changeset("v2", [Element(ElementId("5"))],
                                          add_pairs=[("300", "5"), ("5", "301")],
                                          remove_pairs=[("300", "301")]))
    assert store.history.union_order() is None
    ids = [str(n) for n in range(1, 401)]
    texts = {"v2": [k for k in ids[:300] if k != "5"] + ["5"] + ids[300:]}
    counts: Counter = Counter()
    _counted(monkeypatch, counts, topology, "_kahn", "kahn")
    rng = random.Random(3)
    in_checkouts, in_commits = [], []
    for i in range(3, 63):
        parent, version = f"v{i - 1}", f"v{i}"
        older = rng.choice(sorted(store.vx, key=lambda v: int(v[1:]))[:-1])
        before = counts["kahn"]
        got = reconstruct_version(store, older)
        in_checkouts.append(counts["kahn"] - before)
        assert outcome(got) == outcome(oracles.reconstruct_version_by_hulls(store, older))
        old = texts[parent]
        j = rng.randrange(1, len(old) - 1)
        gone = sorted(set(ids).union(k for t in texts.values() for k in t) - set(old))
        roll = rng.random()
        if roll < 0.4:
            changes = changeset(version, remove_elements=[old[j]])
            texts[version] = old[:j] + old[j + 1:]
        else:  # a letter brought back at another place, or a new one
            new = rng.choice(gone) if roll < 0.7 and gone else f"n{i}"
            changes = changeset(version, [Element(ElementId(new))],
                                add_pairs=[(old[j - 1], new), (new, old[j])],
                                remove_pairs=[(old[j - 1], old[j])])
            texts[version] = old[:j] + [new] + old[j:]
        want = oracles.commit_by_rebuild(canonicalize(store), parent, changes)
        before = counts["kahn"]
        store = commit(store, parent, changes)
        in_commits.append(counts["kahn"] - before)
        assert outcome(store.history.held[1]) == outcome(reconstruct_version(want, version))
    assert in_commits[1:] == [0] * 59
    assert sum(in_checkouts) >= 30  # half the checkouts or more found an order of their own


def _counted(monkeypatch, counts: Counter, owner, name: str, label: str) -> None:
    """Count the calls of ``owner.name`` under ``label`` in ``counts``."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[label] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("source", ["demo regions", "side-8 pyramid"])
def test_a_telescope_orders_no_elements_builds_one_index_and_makes_no_element(
    source, tmp_path, monkeypatch
):
    if source == "demo regions":
        store = load(save(demos.regions_store(), tmp_path / "regions"))
        base = reconstruct_version(store, "v1")
    else:
        base = pyramid_space(8, 3)
    want = krull_dimension(oracles.telescope_by_closures(base))
    base.index.depth  # noqa: B018 - build the base index and its depths before counting
    levels = len({k.lod for k in base.elements})
    counts: Counter = Counter()
    sizes: list[int] = []

    def kahn(out, _real=topology._kahn):
        sizes.append(len(out))
        return _real(out)

    for module in (topology, lod, algebra):
        monkeypatch.setattr(module, "_kahn", kahn)
    # an index filled in from pair ends; the linked view copies its base's lists
    _counted(monkeypatch, counts, topology, "_filled", "index")
    _counted(monkeypatch, counts, Element, "__init__", "element")
    _counted(monkeypatch, counts, Space, "__init__", "space")
    tele = lod._telescope(base)
    assert counts == Counter({"space": 1})
    # the result's index is filled in from positions, with the order the
    # telescope was built with
    assert krull_dimension(tele) == want
    assert counts == Counter({"space": 1, "index": 1})
    assert sizes and max(sizes) <= levels  # Kahn ran on the level transitions only


def test_dim_of_a_telescope_on_the_command_line_makes_no_telescope_element(
    tmp_path, monkeypatch, capsys
):
    save(demos.regions_store(), tmp_path / "regions")
    made: list[ElementId] = []
    real = Element.__init__

    def init(self, key, *args, **kwargs):
        made.append(key)
        real(self, key, *args, **kwargs)

    monkeypatch.setattr(Element, "__init__", init)
    assert main(["query", 'dim(telescope(load("regions")))', "--store", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "3\n"
    assert made  # the store's own elements
    assert not [k for k in made if PRODUCT_SEPARATOR in k.id]


@pytest.mark.parametrize("seed", range(4))
def test_versions_with_path_builds_no_space_beyond_the_versions_it_reads(seed, tmp_path, monkeypatch):
    rng = random.Random(seed)
    store = load(save(builders.committed_history(rng, max_commits=4)[-1], tmp_path / "store"))
    keys = sorted({ElementId(w.id, w.lod) for w in store.x})
    a, b = rng.sample([k for k in keys if k.lod == 0], 2)
    counts: Counter = Counter()
    _counted(monkeypatch, counts, storage, "reconstruct_version", "read")
    _counted(monkeypatch, counts, Space, "__init__", "space")
    _counted(monkeypatch, counts, topology, "_filled", "index")
    found = versions_with_path(store, a, b, keys)
    # the version space, and one space with one index for each version
    # read from the rows: none for a space linked across levels
    assert counts["space"] == counts["index"] == counts["read"] + 1
    assert found == oracles.versions_with_path_by_level_maps(store, a, b, keys, False)


TWIN_CHAIN_TELESCOPE = """
import resource, sys
import builders
from alexdb.lod import _telescope
space = builders.twin_chains(int(sys.argv[1]))
space.index.depth
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
tele = _telescope(space)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024, len(tele.relation))
"""


def test_a_telescope_of_two_deep_chains_stays_small():
    # each level-0 element sits on a chain 2,000 deep; a set of the coarse
    # positions below each position took 238 MB here
    path = os.pathsep.join([str(Path(alexdb.__file__).parents[1]), str(Path(__file__).parent)])
    done = subprocess.run(
        [sys.executable, "-c", TWIN_CHAIN_TELESCOPE, "2000"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    rise, pairs = done.stdout.split()
    assert float(rise) < 40
    # within each fibre a chain, and each copy over the edge glued to its
    # original and to its twin's copy
    assert int(pairs) == 3 * 1999 + 2 * 2000
    space = builders.twin_chains(200)
    expected = oracles.telescope_by_closures(space)
    tele = lod._telescope(space)
    assert list(tele.elements.items()) == list(expected.elements.items())
    assert tele.relation == expected.relation


# ---------------------------------------------------------------------------
# map checking


def coarse_cell(k: ElementId) -> ElementId:
    """Where a cell of ``grid`` lands, at level 1, on the grid coarsened
    2 x 2: a cell on an even line stays on that coarse line, any other
    lands inside a coarse cell.  The map is continuous, surjective and
    monotone."""
    x, y = (int(c) for c in k.id[1:].split("_"))
    upright = k.id[0] in "vu" and x % 2 == 0  # on a coarse line x = const
    level = k.id[0] in "vh" and y % 2 == 0  # on a coarse line y = const
    kind = "v" if upright and level else "u" if upright else "h" if level else "f"
    return ElementId(f"{kind}{x // 2}_{y // 2}", 1)


def pyramid_map(side: int) -> SpaceMap:
    fine = grid(side, seed=side)[0]
    coarse = as_level(grid(side // 2, seed=side)[0], 1)
    return SpaceMap(fine, coarse, {k: coarse_cell(k) for k in fine.keys()})


def without_pairs(f: SpaceMap, pairs) -> SpaceMap:
    gone = {BoundedByPair(ElementId(a), ElementId(b)) for a, b in pairs}
    assert gone <= f.source.relation
    source = build_space(f.source.elements.values(), f.source.relation - gone)
    return SpaceMap(source, f.target, f.mapping)


def with_empty_target(f: SpaceMap, pairs, drop=()) -> SpaceMap:
    """``f`` onto a target with one more element, ``z:1``, that nothing maps
    onto: the target pairs ``pairs`` are added and ``drop`` removed, keys
    written as for ``builders.level_key``."""
    key = builders.level_key
    added = {BoundedByPair(key(a), key(b)) for a, b in pairs}
    dropped = {BoundedByPair(key(a), key(b)) for a, b in drop}
    elements = [*f.target.elements.values(), Element(ElementId("z", 1))]
    target = build_space(elements, (f.target.relation - dropped) | added)
    return SpaceMap(f.source, target, f.mapping)


def map_cases():
    """Maps onto 1,089 and 2,000 targets, each monotone, then with one fault
    and the witness expected of it (None for a monotone map)."""
    key = builders.level_key
    pyramid = pyramid_map(32)
    chain = builders.chain_map(2000)
    last = max(chain.target.keys())
    return {
        "pyramid": (pyramid, None),
        "pyramid, a fibre split": (
            builders.with_stray_preimage(pyramid, key("f3_3:1")), {key("f3_3:1")},
        ),
        # no fine element over the face f3_3 is comparable with one over its
        # rim edge h3_3: the two fine faces and the inner edge lose the pair
        # that bound them by its fine elements
        "pyramid, a linked pair unrealized": (
            without_pairs(pyramid, [("f6_6", "h6_6"), ("f7_6", "h7_6"), ("u7_6", "v7_6")]),
            {key("f3_3:1"), key("h3_3:1")},
        ),
        # z joins two far corners, whose fibres are not comparable
        "pyramid, not surjective": (
            with_empty_target(pyramid, [("z:1", "v0_0:1"), ("z:1", "v16_16:1")]),
            {key("v0_0:1"), key("v16_16:1"), key("z:1")},
        ),
        "chain": (chain, None),
        "chain, a fibre split": (
            builders.with_stray_preimage(chain, key("t1000:1")), {key("t1000:1")},
        ),
        # cut between the last two fibres: no pair across the cut is realized
        "chain, a linked pair unrealized": (
            without_pairs(chain, [("s3997", "s3998")]), {key("t0000:1"), last},
        ),
        # z between two consecutive targets; every pair stays realized
        "chain, not surjective": (
            with_empty_target(
                chain, [("t0999:1", "z:1"), ("z:1", "t1000:1")], drop=[("t0999:1", "t1000:1")]
            ),
            None,
        ),
    }


def comparability_connected(space, keys) -> bool:
    """Whether ``keys`` are connected under comparability in ``space``, by
    networkx paths."""
    g = oracles.digraph(space.keys(), [(p.ida, p.idb) for p in space.relation])
    h = nx.Graph()
    h.add_nodes_from(keys)
    h.add_edges_from(
        (a, b) for a in keys for b in keys if a != b and nx.has_path(g, a, b)
    )
    return nx.is_connected(h)


def test_check_map_matches_the_fibre_and_pair_conditions(monkeypatch):
    calls = []
    connected = algebra.is_connected

    def counted(*args):
        calls.append(args)
        return connected(*args)

    monkeypatch.setattr(algebra, "is_connected", counted)
    for name, (f, expected) in map_cases().items():
        calls.clear()
        report = check_map(f)
        assert report.continuous, name
        assert report.surjective == ("surjective" not in name), name
        split, unrealized = oracles.monotonicity_conditions(f)
        assert report.monotonic == (not split and not unrealized), name
        assert report.monotonicity_exhaustive, name
        assert report.monotonicity_witness == (None if expected is None else frozenset(expected)), name
        # only a fibre its own pairs leave in pieces reaches is_connected
        assert len(calls) == ("split" in name), name
        if expected is None:
            continue
        # the witness is a minimal failing subset the oracle names
        witness = report.monotonicity_witness
        fibres = [k for k in f.source.keys() if f(k) in witness]
        assert comparability_connected(f.target, witness), name
        assert not comparability_connected(f.source, fibres), name
        if len(witness) == 1:
            assert witness <= split, name
        else:
            filled = set(f.mapping.values())
            assert frozenset(witness & filled) in unrealized, name
            assert len(witness & filled) == 2, name


def test_check_map_refuses_a_cyclic_space():
    cyclic = simple_space(["a", "b"], [("a", "b"), ("b", "a")], t0_check=False)
    point = simple_space(["p"])
    maps = [
        SpaceMap(cyclic, point, {ElementId("a"): ElementId("p"), ElementId("b"): ElementId("p")}),
        SpaceMap(point, cyclic, {ElementId("p"): ElementId("a")}),
    ]
    for f in maps:
        with pytest.raises(T0ViolationError) as err:
            check_map(f)
        assert set(err.value.cycle) == {ElementId("a"), ElementId("b")}


# ---------------------------------------------------------------------------
# telescopes of map pyramids


def pyramid_space(side: int, levels: int) -> Space:
    """A map pyramid in one space: level ``l`` is the grid of side
    ``side >> l``, and each of its cells generalises onto level ``l + 1``
    as ``coarse_cell`` says.  A point ``m`` bounds one level-0 face and
    generalises where the face does, so the face is bounded by cells of
    two depths."""
    elements, pairs = [], []
    for level in range(levels):
        space = grid(side >> level, seed=side)[0]
        for k in sorted(space.keys()):
            up = ElementId(coarse_cell(k).id, level + 1) if level + 1 < levels else None
            elements.append(Element(ElementId(k.id, level), gen_target=up, attributes={"n": level}))
        pairs += [
            BoundedByPair(ElementId(a.id, level), ElementId(b.id, level)) for a, b in space.relation
        ]
    face = ElementId("f1_1")
    elements.append(Element(ElementId("m"), gen_target=ElementId(coarse_cell(face).id, 1)))
    pairs.append(BoundedByPair(face, ElementId("m")))
    return build_space(elements, pairs)


@pytest.mark.parametrize("side, levels", [(16, 3), (16, 4), (32, 3), (32, 4)])
def test_pyramid_telescopes_match_the_closure_walk(side, levels):
    space = pyramid_space(side, levels)
    for edge_matching in (True, False):
        tele = lod._telescope(space, edge_matching)
        expected = oracles.telescope_by_closures(space, edge_matching)
        assert_telescope_reads_as_eager(tele, expected)
        assert list(tele.elements.items()) == list(expected.elements.items())
        assert tele.relation == expected.relation


def test_a_pyramid_telescope_reduces_nothing(monkeypatch):
    sizes, covering_sizes = [], []
    reduction, covering = algebra._reduction, algebra._covering

    def counted(nodes, succ):
        sizes.append(len(nodes))
        return reduction(nodes, succ)

    def counted_covering(succ):
        covering_sizes.append(len(succ))
        return covering(succ)

    monkeypatch.setattr(algebra, "_reduction", counted)
    monkeypatch.setattr(algebra, "_covering", counted_covering)
    tele = lod._telescope(pyramid_space(16, 3))
    # two matches for each of the 1,090 and 289 elements of levels 0 and 1,
    # one for each of the 81 of level 2
    assert len(tele) == 2 * 1090 + 2 * 289 + 81
    assert sizes == []
    # the level covers come from the base, whose depths clear every level
    # pair, though the point m makes a level-0 face bounded by cells of two
    # depths
    assert covering_sizes == []


# ---------------------------------------------------------------------------
# generalisation checks of map pyramids against the level maps


@functools.cache
def pyramid_stores() -> tuple:
    """The side-16 three-level pyramid as a store, and a copy in which the
    level-0 face ``f2_3`` generalises onto the far coarse face ``f7_7`` and
    level 1 holds a cell ``z`` that nothing generalises onto: that map is
    neither continuous, surjective nor monotone."""
    space = pyramid_space(16, 3)
    face, far = ElementId("f2_3"), ElementId("f7_7", 1)
    moved = [
        Element(k, e.version, far if k == face else e.gen_target, e.attributes)
        for k, e in space.elements.items()
    ]
    moved.append(Element(ElementId("z", 1)))
    return new_store("v0", space), new_store("v0", build_space(moved, space.relation))


def test_pyramid_validation_matches_the_level_maps():
    rules = ["surjective", "monotonic"]
    findings = []
    for store in pyramid_stores():
        got = [(i.rule, i.detail, i.witnesses) for i in validate(store, rules)]
        assert got == oracles.map_findings_by_level_maps(reconstruct_version(store, "v0"), rules)
        findings.append(sorted({rule for rule, _, _ in got}))
    assert findings == [[], ["cfk-continuity", "monotonic", "surjective"]]


@given(st.integers(0, 2**32), st.booleans())
@settings(max_examples=20)
def test_pyramid_paths_match_the_level_maps(seed, moved):
    rnd = random.Random(seed)
    store = pyramid_stores()[moved]
    keys = sorted(ElementId(w.id, w.lod) for w in store.x)
    lod = rnd.choice([0, 0, 1, 2])
    level = [k for k in keys if k.lod == lod]
    keep = rnd.choice([0.5, 0.9, 1.0])
    region = [k for k in level if rnd.random() < keep] or level[:1]
    if lod == 0 and rnd.random() < 0.3:  # two column bands, apart at level 1 too
        region = [k for k in level if k.id != "m" and int(k.id[1:].split("_")[0]) % 8 < 3]
    if rnd.random() < 0.2:  # across levels: no filter
        region += rnd.sample(keys, 20)
    a, b = rnd.choice(region), rnd.choice(region)
    for monotonic in (False, True):
        got = versions_with_path(store, a, b, region, ["monotonic"] if monotonic else [])
        assert got == oracles.versions_with_path_by_level_maps(store, a, b, region, monotonic)
