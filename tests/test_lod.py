"""Tests for generalisation chains, filtered queries, and telescopes."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alexdb.storage
import builders
import oracles
from conftest import assert_telescope_reads_as_eager
from alexdb import demos
from alexdb.algebra import PRODUCT_SEPARATOR, select_subspace, space_map
from alexdb.cli import main
from alexdb.errors import (
    AlexdbError,
    DanglingPairError,
    IntegrityError,
    MissingGeometryError,
    NotFoundError,
    T0ViolationError,
)
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
    _linked_index,
    _telescope,
)
from alexdb.spacetime import PointRow
from alexdb.storage import (
    DelRRow,
    RRow,
    VersionStore,
    XRow,
    commit,
    load,
    new_store,
    save,
    validate,
    versions_with_path,
)
from alexdb.versioning import ConsistencyConflict, changeset, merge, reconstruct_version, text_space
from alexdb.topology import (
    BoundedByPair,
    Element,
    ElementId,
    Space,
    build_space,
    find_cycle,
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


def test_chain_from_store_of_one_level_is_that_level_alone():
    store = new_store("v1", simple_space(["a", "b"], [("a", "b")]))
    chain = chain_from_store(store, "v1")
    assert (chain.levels, chain.gens) == ((0,), ())
    (only,) = chain.spaces
    assert ids(only.keys()) == {"a", "b"}
    assert only.relation == reconstruct_version(store, "v1").relation


def test_chain_from_store_refuses_a_target_off_the_next_level():
    # a skips level 1 and generalises straight onto level 2
    store = builders.level_store(pairs=[], gen={"a": "T:2", "b": "P:1", "P:1": "T:2"})
    with pytest.raises(NotFoundError) as err:
        chain_from_store(store, "v1")
    assert str(err.value) == "mapping image not in target: ['T:2']"


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


def test_filtered_query_refuses_an_endpoint_outside_the_region():
    g = regions_chain().gens[0]
    A, B = ElementId("A"), ElementId("B")
    with pytest.raises(NotFoundError) as err:
        filtered_path_query(g, [A], A, B)
    assert str(err.value) == "query endpoints must lie in the region: A, B"


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


def test_a_cycle_of_level_transitions_is_named_by_its_levels_and_still_telescopes():
    # b:0 -> a:1 and b:1 -> a:0: the level transitions form a cycle, while
    # the space linked by them has no cycle
    a0, a1, b0, b1 = (ElementId(i, lod) for i, lod in (("a", 0), ("a", 1), ("b", 0), ("b", 1)))
    space = build_space(
        [Element(b0, gen_target=a1), Element(a1), Element(b1, gen_target=a0), Element(a0)], []
    )
    store = new_store("v1", space)
    with pytest.raises(T0ViolationError) as exc:
        lod_graph(store, "v1")
    assert str(exc.value) == "level transitions form a cycle through levels [1, 0]"
    for edge_matching in (True, False):
        tele = telescope(store, "v1", edge_matching)
        expected = oracles.telescope_by_closures(reconstruct_version(store, "v1"), edge_matching)
        assert list(tele.elements.items()) == list(expected.elements.items())
        assert tele.relation == expected.relation
    assert len(telescope(store, "v1").elements) == 8  # each element: its vertex and its edge


def test_a_telescope_glues_no_pair_that_passes_just_above_its_coarse_end():
    # face x > edge z > vertex w on level 0 and edge e > vertex y on level
    # 1; x and w generalise onto y and z onto e, so x lies above y through
    # z and then w or e, each one step above y: x to y is no covering pair
    store = builders.level_store(
        [("x", "z"), ("z", "w"), ("e:1", "y:1")], {"x": "y:1", "z": "e:1", "w": "y:1"}
    )
    tele = telescope(store, "v1")
    expected = oracles.telescope_by_closures(reconstruct_version(store, "v1"))
    assert tele.relation == expected.relation
    assert (ElementId("x⊗0-1"), ElementId("y⊗1-1", 1)) not in tele.relation
    assert (ElementId("z⊗0-1"), ElementId("e⊗1-1", 1)) in tele.relation


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
def level_spaces(draw, total: bool = False) -> Space:
    """Random spaces on one to four levels, with non-contiguous level tags.

    Pairs go forward in one drawn order of all keys, so some join levels.
    An element may generalise onto any element of a coarser level, and in
    half the spaces of a finer one too, so maps may be non-continuous, skip
    a level or run backward, and the linked space may be cyclic.  With
    ``total``, every element that has a level to go to generalises, so
    whole levels do.
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
        if others and (total or draw(st.booleans())):
            gens[k] = draw(st.sampled_from(others))
    stored = draw(st.permutations(keys))
    els = [Element(k, f"v{i % 2}", gens.get(k), {"n": i}) for i, k in enumerate(stored)]
    return build_space(els, [BoundedByPair(a, b) for a, b in pairs])


def _fibre_outcome(call):
    """A fibre's elements in order and its relation, or the error text."""
    try:
        fibre = call()
    except NotFoundError as exc:
        return str(exc)
    return list(fibre.elements.items()), fibre.relation


def _keys_and_pairs(outcome):
    """A ``_fibre_outcome`` without the elements' columns: the read-back
    store names its own version."""
    return outcome if isinstance(outcome, str) else ([k for k, _ in outcome[0]], outcome[1])


@given(level_spaces(), st.booleans())
@settings(max_examples=100)
def test_a_telescope_fibre_is_the_attribute_scan_and_makes_only_its_elements(space, edge_matching):
    try:
        keys = _telescope(space, edge_matching).elements
    except AlexdbError:
        return
    nodes = {k.id.rpartition(PRODUCT_SEPARATOR)[2] for k in keys}
    made: list[ElementId] = []
    real = Element.__init__

    def init(self, key, *args, **kwargs):
        made.append(key)
        real(self, key, *args, **kwargs)

    for w in sorted(nodes) + ["9-9"]:
        tele = _telescope(space, edge_matching)  # fresh: no element made yet
        made.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Element, "__init__", init)
            got = _fibre_outcome(lambda: telescope_fiber(tele, w))
        want = _fibre_outcome(lambda: oracles.telescope_fiber_by_attributes(tele, w))
        assert got == want
        assert made == ([] if isinstance(got, str) else [k for k, _ in got[0]])


@pytest.mark.parametrize("source", ["one level 0", "one level 1", "levels", "regions"])
def test_a_telescope_written_by_the_cli_and_read_back_has_the_same_fibres(source, tmp_path, capsys):
    # a telescope with no pair across levels is written as a store, with
    # each copy's attributes; one with such pairs in the generic layout of
    # keys and pairs alone, whose fibres the keys still name
    if source.startswith("one level"):
        store = builders.random_store(random.Random(int(source[-1])))
    elif source == "levels":  # two levels and no generalisation
        store = builders.level_store([("a", "b"), ("c", "b"), ("a:1", "b:1")], {}, ("d:1",))
    else:
        store = demos.regions_store()
    v = sorted(store.vx)[-1]
    save(store, tmp_path / "store")
    out = tmp_path / "tele"
    assert main(["telescope", str(tmp_path / "store"), "--version", v, "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    tele = telescope(store, v)
    if (out / "Elements.csv").exists():
        rows = [line.split(",") for line in (out / "Elements.csv").read_text().splitlines()[1:]]
        pairs = [line.split(",") for line in (out / "Pairs.csv").read_text().splitlines()[1:]]
        read = build_space(
            [Element(ElementId(i, int(lod))) for i, lod, _ in rows],
            [BoundedByPair(ElementId(a, int(al)), ElementId(b, int(bl))) for a, al, b, bl in pairs],
        )
        assert source == "regions"
    else:
        loaded = load(out)
        assert list(loaded.vx) == [v]
        read = reconstruct_version(loaded, v)
    nodes = sorted({k.id.rpartition(PRODUCT_SEPARATOR)[2] for k in tele.elements})
    for w in nodes + ["9-9"]:
        got = _fibre_outcome(lambda: telescope_fiber(read, w))
        if source != "regions":  # the attributes are read back too
            assert got == _fibre_outcome(lambda: oracles.telescope_fiber_by_attributes(read, w))
        want = _fibre_outcome(lambda: telescope_fiber(tele, w))
        assert _keys_and_pairs(got) == _keys_and_pairs(want)


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
    assert_telescope_reads_as_eager(tele, expected)
    assert list(tele.elements.items()) == list(expected.elements.items())
    assert tele.relation == expected.relation


# ---------------------------------------------------------------------------
# the generalisation checks on the version space against the level maps

MAP_RULES = ("cfk-generalisation", "cfk-continuity", "surjective", "monotonic")


def map_findings(store, rules):
    """``validate``'s generalisation findings, in its order."""
    return [
        (i.subject, i.rule, i.detail, i.witnesses)
        for i in validate(store, rules)
        if i.rule in MAP_RULES
    ]


def map_findings_by_level_maps(store, rules):
    found = []
    for v in sorted(store.vx):
        try:
            space = reconstruct_version(store, v)
        except AlexdbError:
            continue
        low = [r.lower() for r in rules]
        found += [(f"version {v}", *f) for f in oracles.map_findings_by_level_maps(space, low)]
    return found


def outcome(call):
    try:
        return call()
    except AlexdbError as exc:
        return type(exc), str(exc)


def check_store_against_level_maps(store, rules, a, b, region):
    assert map_findings(store, rules) == map_findings_by_level_maps(store, rules)
    for monotonic in (False, True):
        rule = ["monotonic"] if monotonic else []
        got = outcome(lambda: versions_with_path(store, a, b, region, rule))
        old = outcome(lambda: oracles.versions_with_path_by_level_maps(store, a, b, region, monotonic))
        assert got == old


def level_space(**spec) -> Space:
    return reconstruct_version(builders.level_store(**spec), "v1")


@given(level_spaces(total=True))
def test_merge_reports_the_level_rules_as_validate_does(space):
    # a store holds no pair across levels
    pairs = [p for p in space.relation if p.ida.lod == p.idb.lod]
    within = build_space(space.elements.values(), pairs)
    rules = ["monotonic", "surjective"]
    _, report = merge(within, within, rules)
    found = [i for i in validate(new_store("v1", within), rules) if i.rule in rules]
    assert report.consistency == tuple(
        ConsistencyConflict(i.rule, i.witnesses, i.detail) for i in found
    )


def test_merge_of_two_level_spaces_reports_the_level_findings():
    # level 0 of the one maps onto P:1 alone, missing Q:1; the preimage
    # {x, y} of X:1 in the other is disconnected
    a = level_space(pairs=[("ab", "a"), ("ab", "b")], gen={"a": "P:1", "b": "P:1", "ab": "P:1"},
                    extra=("Q:1",))
    b = level_space(pairs=[], gen={"x": "X:1", "y": "X:1"})
    merged, report = merge(a, b, ["surjective", "monotonic"])
    missed = ConsistencyConflict(
        "surjective", (ElementId("Q", 1),), "levels 0->1: targets missed: ['Q:1']"
    )
    split = ConsistencyConflict(
        "monotonic", (ElementId("X", 1),), "levels 0->1: disconnected preimage of ['X:1']"
    )
    assert (report.inherent, report.consistency) == ((), (missed, split))
    issues = validate(new_store("v1", merged), ["surjective", "monotonic"])
    assert [(i.rule, i.witnesses, i.detail) for i in issues] == [
        (c.rule, c.witnesses, c.detail) for c in (missed, split)
    ]


def test_merge_into_a_cycle_reports_it_under_t0_beside_the_level_rules():
    spec = dict(gen={"a": "P:1", "b": "P:1"}, extra=("Q:1",))
    a, b = level_space(pairs=[("a", "b")], **spec), level_space(pairs=[("b", "a")], **spec)
    merged, report = merge(a, b, ["t0", "surjective", "monotonic"])
    assert find_cycle(merged) is not None
    assert [(c.rule, c.detail) for c in report.consistency] == [
        ("t0", "relation has a cycle"),
        ("surjective", "levels 0->1: targets missed: ['Q:1']"),
    ]


@given(level_spaces(), st.data())
@settings(max_examples=100)
def test_the_linked_view_answers_as_the_assembled_linked_space(space, data):
    keys = sorted(space.keys())
    # the view holds the assembled space's pairs, and has an order exactly
    # when that space is acyclic
    linked, view = oracles.linked_by_assembly(space), _linked_index(space)
    at = view.keys.__getitem__
    assert view.keys == linked.index.keys
    assert {(at(i), at(j)) for i, below in enumerate(view.out) for j in below} == linked.relation
    assert {(at(i), at(j)) for j, above in enumerate(view.inn) for i in above} == linked.relation
    assert (view.order is None) == (linked.index.order is None)
    # a store holds pairs within a level only; a second version drops some
    # elements and may leave a generalisation target dangling
    within = [p for p in space.relation if p.ida.lod == p.idb.lod]
    store = new_store("v1", build_space(space.elements.values(), within))
    gone = data.draw(st.sets(st.sampled_from(keys), max_size=len(keys) - 1))
    if gone:
        store = builders.unchecked_removal(store, "v1", "v2", sorted(gone))
    region = data.draw(st.sets(st.sampled_from(keys), min_size=1))
    a, b = (data.draw(st.sampled_from(sorted(region))) for _ in range(2))
    for monotonic in (False, True):
        rule = ["monotonic"] if monotonic else []
        got = outcome(lambda: versions_with_path(store, a, b, region, rule))
        old = outcome(lambda: oracles.versions_with_path_by_level_maps(store, a, b, region, monotonic))
        assert got == old


@given(level_spaces(total=True), st.data())
@settings(max_examples=200)
def test_the_filter_on_the_version_space_answers_as_the_level_maps(space, data):
    # the maps are drawn at random, so most are neither continuous nor
    # monotone: the rule trusts the caller, and the answer must be the
    # filtered one, whatever the direct query says
    keys = sorted(space.keys())
    lod = data.draw(st.sampled_from(sorted({k.lod for k in keys})))
    region = data.draw(st.sets(st.sampled_from([k for k in keys if k.lod == lod]), min_size=1))
    if data.draw(st.booleans()):
        region |= data.draw(st.sets(st.sampled_from(keys)))
    a, b = (data.draw(st.sampled_from(sorted(region))) for _ in range(2))
    sub = frozenset(region)
    want = oracles.filtered_region_answer_by_level_maps(space, sub, a, b)
    assert alexdb.storage._filtered_region_answer(space, sub, a, b) == want
    # a store holds no pair across levels
    within = [p for p in space.relation if p.ida.lod == p.idb.lod]
    store = new_store("v1", build_space(space.elements.values(), within))
    rules = data.draw(st.lists(st.sampled_from(["surjective", "monotonic", "Surjective"])))
    check_store_against_level_maps(store, rules, a, b, region)


@pytest.mark.parametrize("seed", range(12))
def test_committed_histories_check_as_the_level_maps(seed):
    rng = random.Random(seed)
    store = builders.committed_history(rng, max_commits=4)[-1]
    if seed % 3 == 0:  # a dangling generalisation target
        head = store.vx[-1]
        coarse = sorted(k for k in reconstruct_version(store, head).keys() if k.lod == 1)
        store = builders.unchecked_removal(store, head, "dangling", [rng.choice(coarse)])
    keys = sorted({ElementId(w.id, w.lod) for w in store.x})
    fine = [k for k in keys if k.lod == 0]
    for region in (fine, [k for k in fine if rng.random() < 0.6] or fine[:1], keys):
        a, b = rng.choice(region), rng.choice(region)
        check_store_against_level_maps(store, ["monotonic", "surjective"], a, b, region)


def test_versions_with_path_reconstructs_only_versions_where_both_ends_live(
    tmp_path, monkeypatch
):
    # 3 dies in v1 and comes back in v2 bounded by 1 directly; 1 dies in v3
    store = new_store("v0", text_space("abc"))
    store = commit(store, "v0", changeset("v1", remove_elements=["3"]))
    back = changeset("v2", add_elements=[Element(ElementId("3"))], add_pairs=[("1", "3")])
    store = commit(store, "v1", back)
    store = commit(store, "v0", changeset("v3", remove_elements=["1"]))
    loaded = load(save(store, tmp_path / "store"))  # rows filled afresh
    calls = []

    def counted(s, v, _real=alexdb.storage.reconstruct_version):
        calls.append(v)
        return _real(s, v)

    monkeypatch.setattr(alexdb.storage, "reconstruct_version", counted)
    one, three = ElementId("1"), ElementId("3")
    region = [ElementId(k) for k in "123"]
    for s in (store, loaded):
        for rules in ([], ["monotonic"]):
            calls.clear()
            assert versions_with_path(s, one, three, region, rules) == {"v0", "v2"}
            assert sorted(calls) == ["v0", "v2"]
            monotonic = bool(rules)
            assert oracles.versions_with_path_by_level_maps(s, one, three, region, monotonic) == {
                "v0", "v2"
            }


def test_versions_with_path_raises_no_fault_of_a_version_it_skips():
    # v0 holds the pair (1, ghost) and no ghost, so reading v0 fails; 2 is
    # dead there, so a query from 1 to 2 skips v0 and answers from v2
    store = VersionStore(
        x=(XRow("1", 0, None, None, "v0"),),
        r=(RRow("1", "ghost", 0, "v0"),),
        delr=(DelRRow("1", "ghost", 0, "v1"),),
        vx=("v0", "v1"),
        vr=(("v0", "v1"),),
    )
    store = commit(store, "v1", changeset("v2", [Element(ElementId("2"))], add_pairs=[("1", "2")]))
    with pytest.raises(DanglingPairError):
        reconstruct_version(store, "v0")
    one, two = ElementId("1"), ElementId("2")
    for rules in ([], ["monotonic"]):
        assert versions_with_path(store, one, two, [one, two], rules) == {"v2"}
    with pytest.raises(DanglingPairError):  # a query whose endpoints live in v0 reads it
        versions_with_path(store, one, one, [one], [])


def test_the_filter_trusts_a_map_that_is_not_monotone():
    # x and y are unrelated, both over P: the coarse Yes on a saturated
    # region stands, though no path joins them
    store = builders.level_store(pairs=[], gen={"x": "P:1", "y": "P:1"})
    x, y = ElementId("x"), ElementId("y")
    assert versions_with_path(store, x, y, [x, y]) == frozenset()
    assert versions_with_path(store, x, y, [x, y], ["monotonic"]) == {"v1"}
    assert oracles.versions_with_path_by_level_maps(store, x, y, [x, y], True) == {"v1"}
    assert [i.rule for i in validate(store, ["monotonic"])] == ["monotonic"]
