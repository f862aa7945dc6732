"""Tests for generalisation chains, filtered queries, and telescopes."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import builders
import oracles
from alexdb import demos
from alexdb.algebra import select_subspace, space_map
from alexdb.errors import AlexdbError, IntegrityError, MissingGeometryError, NotFoundError
from alexdb.lod import (
    LodChain,
    as_level,
    chain_from_store,
    chain_is_valid,
    filtered_path_query,
    interpolate,
    interpolation_level,
    lod_graph,
    monotone_path_query,
    path_query,
    telescope,
    telescope_fiber,
    validate_chain,
    _telescope,
)
from alexdb.spacetime import PointRow
from alexdb.storage import new_store
from alexdb.topology import (
    BoundedByPair,
    Element,
    ElementId,
    Space,
    build_space,
    krull_dimension,
    simple_space,
)


def regions_chain():
    return chain_from_store(demos.regions_store(), "v1")


def ids(keys):
    return {k.id for k in keys}


# ---------------------------------------------------------------------------
# chain assembly and validation


def test_chain_from_store_assembles_levels_and_maps():
    chain = regions_chain()
    assert chain.levels == (0, 1)
    assert ids(chain.spaces[0].keys()) == {"A", "ab", "B", "bc", "C", "m1", "m2"}
    assert ids(chain.spaces[1].keys()) == {"Ac", "ab_c", "Bc", "Cc", "m_c"}
    reports = validate_chain(chain)
    assert chain_is_valid(reports)
    assert reports[0].monotonic is True


def test_chain_from_store_requires_generalisation_targets():
    fine = Element(ElementId("a", 0))  # no target
    coarse = Element(ElementId("ac", 1))
    store = new_store("v1", build_space([fine, coarse], []))
    with pytest.raises(NotFoundError):
        chain_from_store(store, "v1")


def test_chain_validation_rejects_malformed_chains():
    chain = regions_chain()
    with pytest.raises(ValueError):
        LodChain(levels=(1, 0), spaces=tuple(reversed(chain.spaces)), gens=chain.gens)
    with pytest.raises(ValueError):
        LodChain(levels=(0,), spaces=chain.spaces, gens=chain.gens)
    with pytest.raises(ValueError):
        LodChain(levels=chain.levels, spaces=chain.spaces, gens=())
    with pytest.raises(NotFoundError):
        LodChain(levels=(1, 2), spaces=chain.spaces, gens=chain.gens)
    partial = space_map(
        chain.spaces[0], chain.spaces[1], {"A": ElementId("Ac", 1)}
    )
    with pytest.raises(ValueError):
        LodChain(levels=chain.levels, spaces=chain.spaces, gens=(partial,))


def test_level_index_rejects_unknown_levels():
    chain = regions_chain()
    assert chain.level_index(1) == 1
    with pytest.raises(NotFoundError):
        chain.level_index(7)


def test_as_level_retags_every_key():
    lifted = as_level(demos.edge_space(), 3)
    assert {k.lod for k in lifted.keys()} == {3}
    assert ids(lifted.keys()) == {"e", "u", "v"}
    assert oracles.spaces_homeomorphic(lifted, demos.edge_space())


# ---------------------------------------------------------------------------
# path queries


def test_path_query_follows_restricted_comparability():
    space = demos.regions_space()
    A, ab, B, bc, C = (ElementId(i) for i in ("A", "ab", "B", "bc", "C"))
    assert path_query(space, [A, ab, B], A, B) is True
    assert path_query(space, [A, B], A, B) is False
    assert path_query(space, [A, ab, B, bc, C], A, C) is True
    with pytest.raises(NotFoundError):
        path_query(space, [A, ab], A, B)
    with pytest.raises(NotFoundError):
        path_query(space, [A, ElementId("ghost")], A, A)


def test_filtered_query_coarse_no_is_final():
    g = regions_chain().gens[0]
    A, B = ElementId("A"), ElementId("B")
    trace = filtered_path_query(g, [A, B], A, B)
    assert trace == type(trace)(
        answer=False, coarse_answer=False, preimage_saturated=None, used_fallback=False
    )


def test_filtered_query_saturated_yes_is_final():
    g = regions_chain().gens[0]
    A, ab, B = ElementId("A"), ElementId("ab"), ElementId("B")
    trace = filtered_path_query(g, [A, ab, B], A, B)
    assert trace.answer is True
    assert trace.preimage_saturated is True
    assert trace.used_fallback is False
    whole = filtered_path_query(g, list(g.source.keys()), ElementId("A"), ElementId("C"))
    assert whole.answer is True and whole.preimage_saturated is True


def test_filtered_query_unsaturated_yes_falls_back():
    g = regions_chain().gens[0]
    region = [ElementId(i) for i in ("A", "ab", "B", "bc", "C")]
    trace = filtered_path_query(g, region, ElementId("A"), ElementId("C"))
    assert trace.answer is True
    assert trace.coarse_answer is True
    assert trace.preimage_saturated is False
    assert trace.used_fallback is True


def test_monotone_maps_still_need_saturation():
    # collapsing a two-walls-and-interior space to a single point is
    # monotone, yet the coarse Yes on the two walls alone must not stand
    house = demos.house()
    point = simple_space(["P"])
    g = space_map(house, point, {"wl": "P", "wr": "P", "I": "P"})
    wl, wr = ElementId("wl"), ElementId("wr")
    trace = filtered_path_query(g, [wl, wr], wl, wr)
    assert trace.coarse_answer is True
    assert trace.preimage_saturated is False
    assert trace.used_fallback is True
    assert trace.answer is False


def test_monotone_path_query_can_validate_its_map():
    house = demos.house()
    flat = simple_space(["p", "q"])
    broken = space_map(house, flat, {"wl": "p", "wr": "q", "I": "p"})
    with pytest.raises(ValueError):
        monotone_path_query(broken, [ElementId("wl")], ElementId("wl"), ElementId("wl"),
                            validate=True)
    g = regions_chain().gens[0]
    A, ab, B = ElementId("A"), ElementId("ab"), ElementId("B")
    assert monotone_path_query(g, [A, ab, B], A, B, validate=True) is True


def test_monotone_path_query_validates_maps_of_any_size(rng):
    # 16 and more targets, beyond the size of an exhaustive subset search
    chain = builders.chain_map(16)
    first, last = min(chain.source.keys()), max(chain.source.keys())
    assert len(chain.target) == 16
    assert monotone_path_query(chain, chain.source.keys(), first, last, validate=True) is True
    cluster = builders.cluster_map(rng, max_coarse=40)
    while len(cluster.target) <= 15:
        cluster = builders.cluster_map(rng, max_coarse=40)
    keys = sorted(cluster.source.keys())
    region = keys[: len(keys) // 2]
    for a, b in zip(region, reversed(region)):
        want = path_query(cluster.source, region, a, b)
        assert monotone_path_query(cluster, region, a, b, validate=True) is want
    for g in (chain, cluster):
        broken = builders.with_stray_preimage(g, max(g.target.keys()))
        k = min(g.source.keys())
        with pytest.raises(ValueError, match="unfit for filtering"):
            monotone_path_query(broken, [k], k, k, validate=True)


@given(rnd=st.randoms(use_true_random=False))
def test_filtered_queries_agree_with_direct_queries(rnd):
    g = builders.cluster_map(rnd)
    keys = sorted(g.source.keys())
    region = [k for k in keys if rnd.random() < 0.7]
    if not region:
        region = [rnd.choice(keys)]
    a, b = rnd.choice(region), rnd.choice(region)
    trace = filtered_path_query(g, region, a, b)
    assert trace.answer == path_query(g.source, region, a, b)


# ---------------------------------------------------------------------------
# interpolation


def test_interpolation_slides_linearly_in_five_axes():
    chain = regions_chain()
    pts = {p.key: p for p in demos.regions_points()}
    A = ElementId("A")
    assert interpolate(chain, pts, A, 0.0) == (0.5, 1.0, 0.0, 0.0, 0.0)
    assert interpolate(chain, pts, A, 0.5) == (0.5, 1.5, 0.0, 0.0, 0.5)
    assert interpolate(chain, pts, A, 1.0) == (0.5, 2.0, 0.0, 0.0, 1.0)


def test_interpolation_accepts_row_sequences():
    chain = regions_chain()
    rows = list(demos.regions_points())
    assert interpolate(chain, rows, ElementId("A"), 0.5) == (0.5, 1.5, 0.0, 0.0, 0.5)


def test_interpolation_rejects_bad_requests():
    chain = regions_chain()
    pts = {p.key: p for p in demos.regions_points()}
    with pytest.raises(ValueError):
        interpolate(chain, pts, ElementId("A"), 1.5)
    with pytest.raises(NotFoundError):
        interpolate(chain, pts, ElementId("ghost"), 0.5)
    with pytest.raises(NotFoundError):
        interpolate(chain, pts, ElementId("Ac", 1), 0.5)  # already coarsest
    with pytest.raises(MissingGeometryError):
        interpolate(chain, {}, ElementId("A"), 0.5)


def test_interpolation_level_switches_topology_only_at_the_end():
    assert interpolation_level(0, 1, 0.0) == 0
    assert interpolation_level(0, 1, 0.999) == 0
    assert interpolation_level(0, 1, 1.0) == 1


# ---------------------------------------------------------------------------
# level graphs and telescopes


def test_lod_graph_builds_the_level_complex():
    level_space, edge_graph = lod_graph(demos.regions_store(), "v1")
    assert ids(level_space.keys()) == {"0", "1"}
    assert {(p.ida.id, p.idb.id) for p in level_space.relation} == {("0", "1")}
    assert ids(edge_graph.keys()) == {"0-0", "0-1", "1-1"}
    assert {(p.ida.id, p.idb.id) for p in edge_graph.relation} == {
        ("0-1", "0-0"),
        ("0-1", "1-1"),
    }
    assert edge_graph.elements[ElementId("0-1")].attributes == {"lod": 0, "glod": 1}


def test_telescope_contains_every_level_and_a_sliding_copy():
    tele = telescope(demos.regions_store(), "v1")
    assert len(tele.elements) == 19
    assert krull_dimension(tele) == 3

    chain = regions_chain()
    fine = telescope_fiber(tele, "0-0")
    coarse = telescope_fiber(tele, "1-1")
    slide = telescope_fiber(tele, "0-1")
    assert len(fine.elements) == 7 and len(slide.elements) == 7
    assert len(coarse.elements) == 5
    assert oracles.spaces_homeomorphic(fine, chain.spaces[0])
    assert oracles.spaces_homeomorphic(coarse, chain.spaces[1])
    assert oracles.spaces_homeomorphic(slide, chain.spaces[0])


def test_telescope_without_edge_matching_is_the_disjoint_levels():
    tele = telescope(demos.regions_store(), "v1", edge_matching=False)
    assert len(tele.elements) == 12
    with pytest.raises(NotFoundError):
        telescope_fiber(tele, "0-1")


def test_telescope_fiber_requires_a_known_node():
    tele = telescope(demos.regions_store(), "v1")
    with pytest.raises(NotFoundError):
        telescope_fiber(tele, "9-9")


def test_a_generalisation_onto_its_own_level_is_refused_by_name():
    # c and d generalise within level 0; c is the smaller
    store = builders.level_store(
        [("a", "b"), ("d", "b"), ("a:1", "b:1")],
        {"d": "a", "c": "b", "a": "a:1", "b": "b:1"},
    )
    message = (
        "element c generalises to b on its own level 0; "
        "the telescope needs generalisations between levels"
    )
    for call in (lambda: telescope(store, "v1"), lambda: lod_graph(store, "v1")):
        with pytest.raises(IntegrityError) as exc:
            call()
        assert str(exc.value) == message


@st.composite
def level_spaces(draw) -> Space:
    """Random spaces on one to four levels, with non-contiguous level tags.

    Pairs go forward in one drawn order of all keys, so some join levels.
    An element may generalise onto any element of a coarser level, and in
    half the spaces of a finer one too, so maps may be non-continuous, skip
    a level or run backward, and the linked space may be cyclic.
    """
    lods = sorted(draw(st.sets(st.integers(0, 5), min_size=1, max_size=4)))
    keys = [
        ElementId(name, lod)
        for lod in lods
        for name in draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    ]
    forward = draw(st.permutations(keys))
    n = len(forward)
    within = [(forward[i], forward[j]) for i in range(n) for j in range(i + 1, n)]
    pairs = draw(st.sets(st.sampled_from(within))) if within else set()
    backward = draw(st.booleans())
    gens = {}
    for k in keys:
        others = [t for t in keys if t.lod > k.lod or backward and t.lod < k.lod]
        if others and draw(st.booleans()):
            gens[k] = draw(st.sampled_from(others))
    stored = draw(st.permutations(keys))
    els = [Element(k, f"v{i % 2}", gens.get(k), {"n": i}) for i, k in enumerate(stored)]
    return build_space(els, [BoundedByPair(a, b) for a, b in pairs])


@given(level_spaces(), st.booleans())
@settings(max_examples=200)
def test_telescope_matches_the_closure_walk(space, edge_matching):
    try:
        expected = oracles.telescope_by_closures(space, edge_matching)
    except AlexdbError as exc:
        with pytest.raises(type(exc)) as got:
            _telescope(space, edge_matching)
        assert str(got.value) == str(exc)
        return
    tele = _telescope(space, edge_matching)
    assert list(tele.elements.items()) == list(expected.elements.items())
    assert tele.relation == expected.relation
