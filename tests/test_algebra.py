from __future__ import annotations

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import builders
import oracles
from alexdb import (
    AttributeMergeWarning,
    BoundedByPair,
    Element,
    ElementId,
    NotFoundError,
    SpaceMap,
    T0ViolationError,
    build_space,
    check_map,
    closure,
    components_within,
    demos,
    disjoint_union,
    enumerate_open_sets,
    image_space,
    krull_dimension,
    open_reduction,
    path_query,
    product,
    pullback,
    quotient,
    restrict_map,
    select_subspace,
    simple_space,
    space_map,
    star,
)
from conftest import spaces, spaces_with_subset, unordered_spaces


def pairs_of(space):
    return frozenset((p.ida, p.idb) for p in space.relation)


def as_tuples(pairs):
    return frozenset((p.ida, p.idb) for p in pairs)


def names(keys):
    return frozenset(k.id for k in keys)


# ---------------------------------------------------------------------------
# transitive reduction


@given(spaces(max_elements=9))
def test_open_reduction_matches_networkx(space):
    reduced = as_tuples(open_reduction(space.relation))
    assert reduced == oracles.transitive_reduction_pairs(space.keys(), pairs_of(space))


@given(spaces(max_elements=9))
def test_open_reduction_preserves_closure_and_is_minimal(space):
    original = pairs_of(space)
    reduced = as_tuples(open_reduction(original))
    keys = list(space.keys())
    assert oracles.transitive_closure_pairs(keys, reduced) == oracles.transitive_closure_pairs(
        keys, original
    )
    for dropped in reduced:
        thinner = reduced - {dropped}
        assert oracles.transitive_closure_pairs(keys, thinner) != oracles.transitive_closure_pairs(
            keys, original
        )


@given(spaces(max_elements=9))
def test_open_reduction_is_idempotent(space):
    reduced = open_reduction(space.relation)
    assert open_reduction(reduced) == reduced


def test_open_reduction_rejects_cycles():
    a, b = ElementId("a"), ElementId("b")
    with pytest.raises(T0ViolationError):
        open_reduction({(a, b), (b, a)})


def test_open_reduction_drops_reflexive_pairs():
    a, b = ElementId("a"), ElementId("b")
    assert open_reduction({(a, a), (a, b)}) == frozenset({BoundedByPair(a, b)})


# ---------------------------------------------------------------------------
# subspace


def test_select_subspace_golden():
    sub = select_subspace(demos.edge_space(), [ElementId("e"), ElementId("u")])
    assert names(sub.keys()) == {"e", "u"}
    assert pairs_of(sub) == frozenset({(ElementId("e"), ElementId("u"))})


def test_select_subspace_keeps_reachability_not_stored_pairs():
    chain = simple_space(["a", "b", "c"], [("a", "b"), ("b", "c")])
    sub = select_subspace(chain, [ElementId("a"), ElementId("c")])
    assert pairs_of(sub) == frozenset({(ElementId("a"), ElementId("c"))})


def test_select_subspace_unknown_key():
    with pytest.raises(NotFoundError):
        select_subspace(demos.edge_space(), [ElementId("zz")])


def cyclic_ambient():
    """A space whose only cycle, d1 <-> d2, lies between a and b."""
    return simple_space(
        ["a", "d1", "d2", "b", "c"],
        [("a", "d1"), ("d1", "d2"), ("d2", "d1"), ("d2", "b")],
        t0_check=False,
    )


def test_subspace_queries_pass_through_a_dropped_cycle():
    space = cyclic_ambient()
    a, b, c = ElementId("a"), ElementId("b"), ElementId("c")
    assert pairs_of(select_subspace(space, [a, b, c])) == frozenset({(a, b)})
    assert path_query(space, [a, b, c], a, b)
    assert components_within(space, [a, b, c]) == (frozenset({a, b}), frozenset({c}))


def test_select_subspace_on_a_kept_cycle_names_it():
    with pytest.raises(T0ViolationError) as err:
        select_subspace(cyclic_ambient(), [ElementId("d1"), ElementId("d2")])
    assert str(err.value) == "cannot reduce a cyclic relation: ['d2', 'd1']"


@given(spaces_with_subset(max_elements=6))
def test_select_subspace_realises_the_relative_topology(space_subset):
    space, subset = space_subset
    sub = select_subspace(space, subset)
    full_opens = oracles.open_family(space.keys(), pairs_of(space))
    relative = {frozenset(o & subset) for o in full_opens}
    assert set(enumerate_open_sets(sub)) == relative


@given(st.data())
def test_select_subspace_matches_the_reduced_restricted_preorder(data):
    space = data.draw(unordered_spaces(cyclic=data.draw(st.booleans())))
    keys = sorted(space.keys())
    keep = data.draw(st.sets(st.sampled_from(keys)))
    expected = oracles.subspace_pairs(space, keep)
    if expected is None:
        with pytest.raises(T0ViolationError, match=r"^cannot reduce a cyclic relation: \["):
            select_subspace(space, keep)
        return
    sub = select_subspace(space, keep)
    assert list(sub.elements) == sorted(keep)
    assert all(sub.elements[k] is space.elements[k] for k in keep)
    assert pairs_of(sub) == expected


@given(st.data())
def test_select_subspace_names_unknown_keys_in_sorted_order(data):
    space = data.draw(unordered_spaces())
    keep = data.draw(st.sets(st.sampled_from(sorted(space.keys()))))
    unknown = data.draw(st.sets(st.sampled_from(
        [ElementId("zz", 0), ElementId("zz", 1), ElementId("q", 0)]), min_size=1))
    with pytest.raises(NotFoundError) as err:
        select_subspace(space, keep | unknown)
    assert str(err.value) == f"unknown element keys: {sorted(str(k) for k in unknown)}"


# ---------------------------------------------------------------------------
# product


def test_product_golden_edge_times_edge():
    es = demos.edge_space()
    square = product(es, es)
    assert len(square.elements) == 9
    assert krull_dimension(square) == 2
    key = ElementId("e⊗e")
    assert key in square
    # corner vertices have no boundary
    assert names(closure(square, [ElementId("u⊗v")])) == {"u⊗v"}


def test_product_key_carries_left_level_and_attributes():
    left = build_space(
        [Element(ElementId("a", 2), attributes={"colour": "red", "side": "L"})], []
    )
    right = build_space([Element(ElementId("b"), attributes={"colour": "blue"})], [])
    prod = product(left, right)
    (key,) = prod.keys()
    assert key == ElementId("a⊗b", 2)
    assert prod.elements[key].attributes == {"colour": "red", "side": "L"}


@given(spaces(max_elements=4), spaces(max_elements=4))
def test_product_opens_match_componentwise_preorder(a, b):
    prod = product(a, b)
    expected_pairs = set()
    a_closure = {k: closure(a, [k]) for k in a.keys()}
    b_closure = {k: closure(b, [k]) for k in b.keys()}
    for ka in a.keys():
        for kb in b.keys():
            for ka2 in a_closure[ka]:
                for kb2 in b_closure[kb]:
                    if (ka, kb) != (ka2, kb2):
                        expected_pairs.add(
                            (
                                ElementId(f"{ka.id}⊗{kb.id}", ka.lod),
                                ElementId(f"{ka2.id}⊗{kb2.id}", ka2.lod),
                            )
                        )
    keys = list(prod.keys())
    assert oracles.transitive_closure_pairs(keys, pairs_of(prod)) == frozenset(expected_pairs)


@given(spaces(max_elements=5), spaces(max_elements=5))
def test_product_dimension_is_additive(a, b):
    assert krull_dimension(product(a, b)) == krull_dimension(a) + krull_dimension(b)


@given(spaces(max_elements=4), spaces(max_elements=4))
def test_product_stars_multiply(a, b):
    prod = product(a, b)
    for ka in a.keys():
        for kb in b.keys():
            combined = star(prod, [ElementId(f"{ka.id}⊗{kb.id}", ka.lod)])
            expected = {
                ElementId(f"{xa.id}⊗{xb.id}", xa.lod)
                for xa in star(a, [ka])
                for xb in star(b, [kb])
            }
            assert combined == expected


# ---------------------------------------------------------------------------
# quotient


def test_quotient_golden_collapse_edge_endpoints():
    es = demos.edge_space()
    q = quotient(es, [{ElementId("u"), ElementId("v")}])
    assert names(q.keys()) == {"e", "u"}
    assert pairs_of(q) == frozenset({(ElementId("e"), ElementId("u"))})


def test_quotient_completes_partial_partitions():
    es = demos.edge_space()
    q = quotient(es, [])
    assert names(q.keys()) == {"e", "u", "v"}


def test_quotient_rejects_overlapping_classes():
    es = demos.edge_space()
    with pytest.raises(ValueError):
        quotient(es, [{ElementId("u"), ElementId("v")}, {ElementId("v"), ElementId("e")}])


def test_quotient_attribute_conflicts_warn_first_writer_wins():
    space = build_space(
        [
            Element(ElementId("a"), attributes={"colour": "red"}),
            Element(ElementId("b"), attributes={"colour": "blue"}),
        ],
        [],
    )
    with pytest.warns(AttributeMergeWarning):
        q = quotient(space, [{ElementId("a"), ElementId("b")}])
    (key,) = q.keys()
    assert key == ElementId("a")
    assert q.elements[key].attributes == {"colour": "red"}


@given(spaces_with_subset(max_elements=6))
def test_quotient_carries_the_final_topology(space_subset):
    space, subset = space_subset
    if len(subset) < 2:
        subset = frozenset(space.keys())
    rep = min(subset)
    projection = {k: (rep if k in subset else k) for k in space.keys()}
    projected = {
        (projection[a], projection[b])
        for (a, b) in pairs_of(space)
        if projection[a] != projection[b]
    }
    cyclic = not oracles.nx.is_directed_acyclic_graph(
        oracles.digraph(set(projection.values()), projected)
    )
    if cyclic:
        with pytest.raises(T0ViolationError) as err:
            quotient(space, [subset])
        assert err.value.cycle
        return
    q = quotient(space, [subset])
    q_opens = set(enumerate_open_sets(q))
    source_opens = oracles.open_family(space.keys(), pairs_of(space))
    expected = {
        candidate
        for candidate in oracles.open_family(q.keys(), [])
        if frozenset(k for k in space.keys() if projection[k] in candidate) in source_opens
    }
    assert q_opens == expected


# ---------------------------------------------------------------------------
# disjoint union


def test_disjoint_union_retags_levels():
    u = disjoint_union([demos.edge_space(), demos.edge_space()])
    assert len(u.elements) == 6
    assert {k.lod for k in u.keys()} == {0, 1}
    assert ElementId("e", 0) in u and ElementId("e", 1) in u


@given(st.lists(spaces(max_elements=4), min_size=1, max_size=3))
def test_disjoint_union_preserves_parts(parts):
    u = disjoint_union(parts)
    assert len(u.elements) == sum(len(p.elements) for p in parts)
    for i, part in enumerate(parts):
        sub = select_subspace(u, [ElementId(k.id, i) for k in part.keys()])
        assert oracles.spaces_homeomorphic(sub, part)


# ---------------------------------------------------------------------------
# maps


def test_space_map_validates_endpoints():
    es = demos.edge_space()
    h = demos.house()
    with pytest.raises(NotFoundError):
        SpaceMap(es, h, {ElementId("zz"): ElementId("I")})
    with pytest.raises(NotFoundError):
        SpaceMap(es, h, {ElementId("e"): ElementId("zz")})


def test_check_map_requires_total_maps():
    es = demos.edge_space()
    partial = space_map(es, es, {"e": "e"})
    with pytest.raises(ValueError):
        check_map(partial)
    assert check_map(restrict_map(partial)).continuous


def test_check_map_golden_fold():
    es = demos.edge_space()
    h = demos.house()
    fold = space_map(h, es, {"wl": "u", "wr": "v", "I": "e"})
    report = check_map(fold)
    assert report.continuous
    assert report.surjective
    assert report.monotonic is True
    assert report.monotonicity_exhaustive


def test_check_map_detects_discontinuity_with_witness():
    # both walls to vertices but the interior to a vertex: (I, wl) has no
    # image relation
    es = demos.edge_space()
    h = demos.house()
    broken = space_map(h, es, {"wl": "u", "wr": "v", "I": "v"})
    report = check_map(broken)
    assert not report.continuous
    assert report.continuity_witness in {
        (ElementId("I"), ElementId("wl")),
    }


def test_check_map_reports_missed_targets():
    es = demos.edge_space()
    point = demos.point_space()
    into = space_map(point, es, {"P": "u"})
    report = check_map(into)
    assert not report.surjective
    assert names(report.missed_targets) == {"e", "v"}


def test_check_map_monotonicity_counterexample():
    # two points onto one: preimage of the singleton is disconnected
    two = simple_space(["a", "b"])
    point = demos.point_space()
    squash = space_map(two, point, {"a": "P", "b": "P"})
    report = check_map(squash)
    assert report.continuous
    assert report.monotonic is False
    assert names(report.monotonicity_witness) == {"P"}


@pytest.mark.parametrize("guard", ["0", "2"])
def test_check_map_is_exact_under_any_size_guard(monkeypatch, rng, guard):
    # the size guard bounds open-set enumeration only, not map checking
    monkeypatch.setenv("ALEXDB_SIZE_GUARD", guard)
    es = demos.edge_space()
    h = demos.house()
    maps = [space_map(h, es, {"wl": "u", "wr": "v", "I": "e"})]
    maps += [
        builders.random_total_map(
            rng, builders.random_space(rng, 6), builders.random_space(rng, 4, prefix="t")
        )
        for _ in range(40)
    ]
    verdicts = set()
    for f in maps:
        report = check_map(f)
        assert (report.monotonic, report.monotonicity_witness) == oracles.monotonicity_by_opens(f)
        assert report.monotonicity_exhaustive
        verdicts.add(report.monotonic)
    assert verdicts == {True, False}


@given(spaces(max_elements=5), spaces(max_elements=4), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_relational_continuity_equals_open_preimage_continuity(a, b, rnd):
    f = builders.random_total_map(rnd, a, b)
    assert check_map(f).continuous == oracles.open_preimage_continuous(f)


# ---------------------------------------------------------------------------
# images and pullbacks


def test_image_space_golden():
    h = demos.house()
    point = demos.point_space()
    squash = space_map(h, point, {"wl": "P", "wr": "P", "I": "P"})
    img = image_space(squash)
    assert names(img.keys()) == {"P"}


@given(spaces(max_elements=5), spaces(max_elements=4), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_image_space_carries_the_final_topology(a, b, rnd):
    f = builders.random_total_map(rnd, a, b)
    projected = {
        (f(x), f(y)) for (x, y) in pairs_of(a) if f(x) != f(y)
    }
    cyclic = not oracles.nx.is_directed_acyclic_graph(
        oracles.digraph(set(f.mapping.values()), projected)
    )
    if cyclic:
        with pytest.raises(T0ViolationError) as err:
            image_space(f)
        assert err.value.cycle
        return
    img = image_space(f)
    assert set(img.keys()) == set(f.mapping.values())
    img_opens = set(enumerate_open_sets(img))
    source_opens = oracles.open_family(a.keys(), pairs_of(a))
    expected = {
        candidate
        for candidate in oracles.open_family(img.keys(), [])
        if frozenset(k for k in a.keys() if f(k) in candidate) in source_opens
    }
    assert img_opens == expected


def test_pullback_requires_common_target():
    es = demos.edge_space()
    h = demos.house()
    f = space_map(h, es, {"wl": "u", "wr": "v", "I": "e"})
    g = space_map(h, h, {"wl": "wl", "wr": "wr", "I": "I"})
    with pytest.raises(ValueError):
        pullback(f, g)


def test_pullback_is_the_equi_join_subspace():
    es = demos.edge_space()
    h = demos.house()
    f = space_map(h, es, {"wl": "u", "wr": "v", "I": "e"})
    g = space_map(demos.house_after(), es, {"wl": "u", "wrr": "v", "J": "e"})
    join = pullback(f, g)
    assert names(join.keys()) == {"wl⊗wl", "wr⊗wrr", "I⊗J"}
    prod = product(h, demos.house_after())
    matched = [
        ElementId(f"{x.id}⊗{y.id}", x.lod)
        for x in h.keys()
        for y in demos.house_after().keys()
        if f(x) == g(y)
    ]
    assert oracles.spaces_homeomorphic(join, select_subspace(prod, matched))


@given(spaces(max_elements=6), spaces(max_elements=5), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_check_map_witnesses_match_brute_force(a, b, rnd):
    # random maps, and maps monotone by construction, whose witnesses (if
    # any) come from the first failing subset
    for f in (builders.random_total_map(rnd, a, b), builders.cluster_map(rnd)):
        report = check_map(f)
        assert report.continuity_witness == oracles.continuity_witness_by_paths(f)
        assert report.continuous == (report.continuity_witness is None)
        assert (report.monotonic, report.monotonicity_witness) == oracles.monotonicity_by_opens(f)
        assert report.monotonicity_exhaustive


def test_check_map_witnesses_through_empty_targets_match_brute_force(rng):
    # empty targets join fibres: a witness is an unrealized pair plus the
    # lowest set of empty targets that joins it
    joined = 0
    for _ in range(150):
        f = builders.map_with_empty_targets(rng)
        report = check_map(f)
        assert (report.monotonic, report.monotonicity_witness) == oracles.monotonicity_by_opens(f)
        joined += len(report.monotonicity_witness or ()) > 2
    assert joined >= 10


@given(spaces(max_elements=6), spaces(max_elements=5), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_monotonicity_conditions_match_brute_force(a, b, rnd):
    # the fibre-and-pair oracle of the scale tests against the definition,
    # on random maps (mostly not surjective) and maps monotone by construction
    for f in (builders.random_total_map(rnd, a, b), builders.cluster_map(rnd)):
        split, unrealized = oracles.monotonicity_conditions(f)
        assert oracles.monotonicity_by_opens(f)[0] == (not split and not unrealized)
