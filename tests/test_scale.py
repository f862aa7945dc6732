"""Scale checks: the reachability kernel against networkx at 200-2000
elements, and version reconstruction over a 400-version history.

The hypothesis suites check every query on spaces of up to ten elements;
this module repeats the checks that matter for large inputs on seeded
layered complexes and histories, where recursion depth, per-call rebuilds
and quadratic loops would show.  Marked ``slow`` (deselect with
``-m "not slow"``); the whole module runs in a few seconds.
"""
from __future__ import annotations

import random

import networkx as nx
import pytest

from alexdb import (
    BoundedByPair,
    Element,
    ElementId,
    MissingGeometryError,
    PointRow,
    apply_changeset,
    build_space,
    changeset,
    closure,
    commit,
    components_within,
    krull_dimension,
    new_store,
    open_reduction,
    path_query,
    reconstruct_version,
    select_subspace,
    simple_space,
    star,
    text_space,
    time_slice,
)

import oracles

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


def test_open_reduction_matches_networkx():
    space, graph, _ = layered(2000, seed=3)
    reduced = open_reduction(space.relation)
    assert len(reduced) < len(space.relation)  # the skip pairs are redundant
    assert pair_set(reduced) == frozenset(nx.transitive_reduction(graph).edges())


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


def branching_history(n: int, seed: int):
    """A seeded ``n``-version store grown by commits, with every version's
    space as each commit produced it.

    Three commits in ten branch off one of the five latest versions; each
    drops about one element in twelve (bypass pairs included), re-adds some
    dropped ones and adds a fresh one, linked below a surviving element.
    """
    rng = random.Random(seed)
    first = [Element(ElementId(f"e{i}"), "v000") for i in range(8)]
    links = [BoundedByPair(first[i].key, first[i + 1].key) for i in range(7)]
    spaces = {"v000": build_space(first, links)}
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
        changes = changeset(
            version,
            add_elements=[Element(k) for k in back + fresh],
            remove_elements=removed,
            add_pairs=pairs,
        )
        dropped.update(removed)
        store = commit(store, parent, changes)
        spaces[version] = apply_changeset(space, changes)
    return store, spaces


def test_reconstruction_over_400_versions_matches_every_commit():
    store, spaces = branching_history(400, seed=7)
    for version, space in spaces.items():
        got = reconstruct_version(store, version)
        assert got.elements == space.elements
        assert got.relation == space.relation
    for version in list(spaces)[::20]:
        want = oracles.reconstruct_version_by_hulls(store, version)
        assert reconstruct_version(store, version).elements == want.elements
