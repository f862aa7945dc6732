from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from alexdb import (
    BoundedByPair,
    DanglingPairError,
    DuplicateKeyError,
    Element,
    ElementId,
    EmptySpaceError,
    NotFoundError,
    SizeGuardError,
    Space,
    T0ViolationError,
    build_space,
    classify,
    closure,
    connected_components,
    components_within,
    demos,
    element_dimension,
    enumerate_open_sets,
    is_connected,
    is_t0,
    krull_dimension,
    preorder,
    simple_space,
    star,
    topology,
)
from alexdb.algebra import open_reduction, select_subspace
from alexdb.lod import path_query
from conftest import spaces, spaces_with_subset


def keyset(names):
    return frozenset(ElementId(n) for n in names)


def as_names(keys):
    return frozenset(k.id for k in keys)


def family_names(family):
    return frozenset(frozenset(k.id for k in member) for member in family)


# ---------------------------------------------------------------------------
# construction


def test_duplicate_element_rejected():
    with pytest.raises(DuplicateKeyError):
        build_space([Element(ElementId("a")), Element(ElementId("a"))], [])


def test_dangling_pair_rejected():
    with pytest.raises(DanglingPairError):
        simple_space(["a"], [("a", "b")])


def test_dangling_pair_error_names_the_smallest_pair():
    a = ElementId("a")
    pairs = [BoundedByPair(ElementId("z"), a)] + [BoundedByPair(a, ElementId(n)) for n in "dcb"]
    for given_order in (pairs, pairs[::-1]):
        with pytest.raises(DanglingPairError) as err:
            build_space([Element(a)], given_order)
        assert str(err.value) == (
            "pair BoundedByPair(ida=ElementId(id='a', lod=0), idb=ElementId(id='b', lod=0))"
            " references unknown element b"
        )


def test_cycle_rejected_with_witness():
    with pytest.raises(T0ViolationError) as err:
        simple_space(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert set(err.value.cycle) >= {ElementId("a"), ElementId("b"), ElementId("c")}


def test_cycle_allowed_when_unchecked():
    space = simple_space(["a", "b"], [("a", "b"), ("b", "a")], t0_check=False)
    assert not is_t0(space)


def test_reflexive_pairs_dropped():
    space = simple_space(["a", "b"], [("a", "a"), ("a", "b")])
    assert space.relation == frozenset({BoundedByPair(ElementId("a"), ElementId("b"))})


def test_lookup_unknown_key():
    with pytest.raises(NotFoundError):
        closure(demos.edge_space(), [ElementId("missing")])


# ---------------------------------------------------------------------------
# keys and pairs are plain tuples


def test_a_key_is_the_tuple_of_id_and_level():
    key = ElementId("a", 1)
    assert key == ("a", 1) and hash(key) == hash(("a", 1))
    assert ElementId("a") == ("a", 0)
    assert (key.id, key.lod) == tuple(key)


def test_keys_sort_by_id_then_level():
    keys = [ElementId("b"), ElementId("a", 2), ElementId("a:1"), ElementId("a"), ElementId("a", 1)]
    assert [str(k) for k in sorted(keys)] == ["a", "a:1", "a:2", "a:1", "b"]
    assert sorted(keys) == sorted(keys, key=lambda k: (k.id, k.lod))
    assert min(keys) == ElementId("a")


def test_key_and_pair_texts_are_unchanged():
    key = ElementId("a", 1)
    assert (str(key), str(ElementId("a"))) == ("a:1", "a")
    assert repr(key) == "ElementId(id='a', lod=1)"
    pair = BoundedByPair(ElementId("a"), key)
    assert repr(pair) == str(pair) == (
        "BoundedByPair(ida=ElementId(id='a', lod=0), idb=ElementId(id='a', lod=1))"
    )


def test_a_pair_unpacks_as_ida_then_idb():
    pair = BoundedByPair(ElementId("a"), ElementId("b"))
    ida, idb = pair
    assert (ida, idb) == (pair.ida, pair.idb) == (ElementId("a"), ElementId("b"))
    assert pair == (ElementId("a"), ElementId("b"))
    assert sorted([BoundedByPair(ida, ElementId("c")), pair]) == [pair, (ida, ElementId("c"))]


def test_open_reduction_accepts_pairs_and_plain_tuples():
    a, b, c = (ElementId(n) for n in "abc")
    reduced = open_reduction([BoundedByPair(a, b), (b, c), (a, c), (a, a)])
    assert reduced == {BoundedByPair(a, b), BoundedByPair(b, c)}
    assert all(type(p) is BoundedByPair for p in reduced)
    assert open_reduction([(a, b), (b, c)]) == open_reduction([BoundedByPair(a, b), (b, c)])


# ---------------------------------------------------------------------------
# the edge space: frozen golden values


def test_edge_space_open_sets():
    family = family_names(enumerate_open_sets(demos.edge_space()))
    assert family == {
        frozenset(),
        frozenset({"e"}),
        frozenset({"e", "u"}),
        frozenset({"e", "v"}),
        frozenset({"e", "u", "v"}),
    }


def test_edge_space_closure_and_star():
    es = demos.edge_space()
    assert as_names(closure(es, keyset({"e"}))) == {"e", "u", "v"}
    assert as_names(closure(es, keyset({"u"}))) == {"u"}
    assert as_names(star(es, keyset({"u"}))) == {"e", "u"}
    assert as_names(star(es, keyset({"e"}))) == {"e"}
    assert as_names(star(es, keyset({"u", "v"}))) == {"e", "u", "v"}


def test_edge_space_classification():
    es = demos.edge_space()
    assert classify(es, ElementId("u")) == "vertex"
    assert classify(es, ElementId("v")) == "vertex"
    assert classify(es, ElementId("e")) == "edge"


def test_house_classification():
    h = demos.house()
    assert classify(h, ElementId("I")) == "edge"
    assert classify(h, ElementId("wl")) == "vertex"


def test_chain_classification_and_dimension():
    chain = simple_space(["3", "2", "1", "0"], [("3", "2"), ("2", "1"), ("1", "0")])
    assert krull_dimension(chain) == 3
    assert classify(chain, ElementId("0")) == "vertex"
    assert classify(chain, ElementId("1")) == "edge"
    assert classify(chain, ElementId("2")) == "higher"
    assert element_dimension(chain, ElementId("2")) == 2
    assert element_dimension(chain, ElementId("0")) == 0


def test_dimension_of_empty_space_is_an_error():
    with pytest.raises(EmptySpaceError):
        krull_dimension(build_space([], []))


def test_dimension_needs_acyclic_space():
    space = simple_space(["a", "b"], [("a", "b"), ("b", "a")], t0_check=False)
    with pytest.raises(T0ViolationError):
        krull_dimension(space)


def test_chain_lengths_are_computed_once_per_space(monkeypatch):
    calls = []
    computed = topology._chain_lengths

    def counted(*args):
        calls.append(args)
        return computed(*args)

    monkeypatch.setattr(topology, "_chain_lengths", counted)
    chain = simple_space(["2", "1", "0"], [("2", "1"), ("1", "0")])
    assert krull_dimension(chain) == 2
    assert krull_dimension(chain) == 2
    assert element_dimension(chain, ElementId("1")) == 1
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# oracle agreement


@given(spaces(max_elements=6))
def test_open_sets_match_brute_force(space):
    pairs = [(p.ida, p.idb) for p in space.relation]
    expected = oracles.open_family(space.keys(), pairs)
    assert set(enumerate_open_sets(space)) == expected


@given(spaces_with_subset(max_elements=6))
def test_star_is_smallest_open_superset(space_subset):
    space, subset = space_subset
    pairs = [(p.ida, p.idb) for p in space.relation]
    opens = oracles.open_family(space.keys(), pairs)
    assert star(space, subset) == oracles.smallest_open_superset(opens, subset)


@given(spaces_with_subset(max_elements=6))
def test_closure_is_smallest_closed_superset(space_subset):
    space, subset = space_subset
    pairs = [(p.ida, p.idb) for p in space.relation]
    opens = oracles.open_family(space.keys(), pairs)
    assert closure(space, subset) == oracles.smallest_closed_superset(
        space.keys(), opens, subset
    )


@given(spaces_with_subset(max_elements=6))
def test_subset_connectivity_matches_open_splitting(space_subset):
    space, subset = space_subset
    pairs = [(p.ida, p.idb) for p in space.relation]
    opens = oracles.open_family(space.keys(), pairs)
    assert is_connected(space, subset) == oracles.is_connected_subset(opens, subset)


# ---------------------------------------------------------------------------
# structural invariants


@given(spaces(max_elements=7))
def test_open_family_closed_under_union_and_intersection(space):
    family = set(enumerate_open_sets(space))
    sample = sorted(family, key=sorted)[:12]
    for a in sample:
        for b in sample:
            assert (a | b) in family
            assert (a & b) in family


@given(spaces_with_subset(max_elements=8))
def test_closure_is_idempotent_and_additive(space_subset):
    space, subset = space_subset
    once = closure(space, subset)
    assert closure(space, once) == once
    by_parts = frozenset()
    for k in subset:
        by_parts |= closure(space, [k])
    assert once == by_parts


@given(spaces(max_elements=8))
def test_star_closure_duality(space):
    keys = sorted(space.keys())
    for x in keys:
        for y in keys:
            assert (x in star(space, [y])) == (y in closure(space, [x]))


@given(spaces(max_elements=8))
def test_preorder_matches_closure_membership(space):
    order = preorder(space)
    for x in sorted(space.keys()):
        assert order.descendants(x) == closure(space, [x])
        assert order.ancestors(x) == star(space, [x])


@given(spaces(max_elements=8))
def test_preorder_holds_and_comparable_follow_closure(space):
    order = preorder(space)
    keys = sorted(space.keys())
    for x in keys:
        for y in keys:
            below = y in closure(space, [x])
            assert order.holds(x, y) == below
            assert order.comparable(x, y) == (below or x in closure(space, [y]))


def test_element_of_a_missing_key_is_refused():
    space = simple_space(["a"])
    assert space.element(ElementId("a")).key == ElementId("a")
    with pytest.raises(NotFoundError) as err:
        space.element(ElementId("b", 1))
    assert str(err.value) == "no element b:1 in space"


@given(spaces(max_elements=10))
def test_dimension_equals_exhaustive_longest_chain(space):
    pairs = [(p.ida, p.idb) for p in space.relation]
    assert krull_dimension(space) == oracles.longest_chain_steps(space.keys(), pairs)


# ---------------------------------------------------------------------------
# connectivity


def test_components_of_two_disjoint_edges():
    space = simple_space(
        ["e1", "u1", "v1", "e2", "u2", "v2"],
        [("e1", "u1"), ("e1", "v1"), ("e2", "u2"), ("e2", "v2")],
    )
    comps = connected_components(space)
    assert {as_names(c) for c in comps} == {
        frozenset({"e1", "u1", "v1"}),
        frozenset({"e2", "u2", "v2"}),
    }


def test_subspace_connectivity_uses_the_restricted_preorder():
    # A and m1 are not joined by a stored pair, but A reaches m1 through ab,
    # so the two-element subspace is still connected.
    space = demos.regions_space()
    subset = {ElementId("A"), ElementId("m1")}
    assert is_connected(space, subset)
    assert len(components_within(space, subset)) == 1


def test_empty_subset_is_vacuously_connected():
    assert is_connected(demos.edge_space(), frozenset())


# ---------------------------------------------------------------------------
# size guard


def test_open_set_enumeration_guard(monkeypatch):
    big = simple_space([f"k{i}" for i in range(21)], [])
    with pytest.raises(SizeGuardError):
        enumerate_open_sets(big)
    small = simple_space([f"k{i}" for i in range(6)], [])
    monkeypatch.setenv("ALEXDB_SIZE_GUARD", "5")
    with pytest.raises(SizeGuardError):
        enumerate_open_sets(small)
    monkeypatch.setenv("ALEXDB_SIZE_GUARD", "6")
    assert len(enumerate_open_sets(small)) == 2 ** 6


def test_guard_env_must_be_numeric(monkeypatch):
    monkeypatch.setenv("ALEXDB_SIZE_GUARD", "lots")
    big = simple_space([f"k{i}" for i in range(21)], [])
    with pytest.raises(SizeGuardError):
        enumerate_open_sets(big)


# ---------------------------------------------------------------------------
# the topological order, found on first read


def test_walks_and_subspaces_find_no_order_until_one_is_read(monkeypatch):
    # the index of a space built unchecked, or of a bare ``Space``, is
    # filled in on the first query, and runs Kahn's algorithm only when a
    # query reads its order: walks read only the adjacency, and a subspace
    # whose ambient order is not yet found checks its covers on its own
    # candidate pairs (with the algebra's Kahn run, not counted here)
    runs = []
    real = topology._kahn
    monkeypatch.setattr(topology, "_kahn", lambda out: runs.append(len(out)) or real(out))
    pairs = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("e", "d"), ("f", "e")]
    checked = simple_space("abcdef", pairs)
    assert runs == [6]  # the T0 check reads the order
    runs.clear()
    unchecked = simple_space("abcdef", pairs, t0_check=False)
    for space in (unchecked, Space(checked.elements, checked.relation)):
        assert closure(space, keyset("e")) == keyset("ed")
        assert star(space, keyset("c")) == keyset("abc")
        assert path_query(space, keyset("abcd"), ElementId("a"), ElementId("d"))
        sub = select_subspace(space, keyset("acde"))
        assert as_names(sub.elements) == set("acde")
        assert {(p.ida.id, p.idb.id) for p in sub.relation} == {("a", "c"), ("c", "d"), ("e", "d")}
        assert runs == []
        assert krull_dimension(space) == 3
        assert runs == [6]
        assert krull_dimension(space) == 3 and is_t0(space)
        assert runs == [6]
        runs.clear()
    cyclic = simple_space("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")], t0_check=False)
    assert closure(cyclic, keyset("b")) == keyset("abcd")
    assert star(cyclic, keyset("d")) == keyset("abcd")
    assert runs == []
    assert not is_t0(cyclic)
    assert runs == [4]
