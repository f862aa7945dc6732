"""Tests for version spaces, changesets, liveness, and merging."""
from __future__ import annotations

import dataclasses
import random
import tempfile
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import builders
import oracles
from alexdb import demos, lod, topology, versioning
from alexdb.algebra import select_subspace
from alexdb.cli import main
from alexdb.errors import (
    AlexdbError,
    DuplicateKeyError,
    IntegrityError,
    NotFoundError,
    T0ViolationError,
)
from alexdb.lod import _linked_index, _telescope
from alexdb.storage import (
    AttRow,
    DelRRow,
    DelXRow,
    RRow,
    VersionStore,
    XRow,
    canonicalize,
    commit,
    load,
    new_store,
    reconstruct_version,
    save,
)
from alexdb.topology import (
    BoundedByPair,
    Element,
    ElementId,
    Space,
    SpaceIndex,
    build_space,
    closure,
    find_cycle,
    krull_dimension,
    simple_space,
)
from alexdb.versioning import (
    ConsistencyConflict,
    InherentConflict,
    apply_changeset,
    changeset,
    consistency_rule,
    merge,
    reconstruction_covers,
    register_rule,
    text_space,
    version_closure,
    version_neighbourhood,
    version_space,
    version_star,
)
from conftest import spaces_with_subset


def diamond():
    return version_space(
        ["v0", "v1", "v2", "v3"],
        [("v0", "v1"), ("v0", "v2"), ("v1", "v3"), ("v2", "v3")],
    )


def outcome(fn, *args):
    """A space-valued call's result as comparable data: the space's elements in
    order and its relation, or the exception's type and message."""
    try:
        space = fn(*args)
    except AlexdbError as exc:
        return type(exc), str(exc)
    return list(space.elements.items()), space.relation


# ---------------------------------------------------------------------------
# the version space itself


def test_version_space_rejects_unknown_endpoints():
    with pytest.raises(NotFoundError):
        version_space(["v0"], [("v0", "v1")])


def test_version_space_rejects_reflexive_transitions():
    with pytest.raises(T0ViolationError):
        version_space(["v0"], [("v0", "v0")])


def test_version_space_rejects_cycles_with_a_witness():
    with pytest.raises(T0ViolationError) as err:
        version_space(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    assert err.value.cycle


def test_version_hulls_on_the_diamond():
    vs = diamond()
    assert version_star(vs, "v3") == {"v0", "v1", "v2", "v3"}
    assert version_star(vs, "v1") == {"v0", "v1"}
    assert version_closure(vs, ["v1"]) == {"v1", "v3"}
    assert version_neighbourhood(vs, ["v1", "v2"]) == {"v0", "v1", "v2"}
    assert version_closure(vs, ["v0"]) == {"v0", "v1", "v2", "v3"}


def test_version_hulls_reject_unknown_versions():
    with pytest.raises(NotFoundError):
        version_closure(diamond(), ["nope"])


def test_hulls_match_path_enumeration_on_the_diamond():
    vs = diamond()
    trans = set(vs.transitions)
    for v in vs.versions:
        assert version_star(vs, v) == oracles.ancestors_by_paths(vs.versions, trans, v)
        assert version_closure(vs, [v]) == oracles.descendants_by_paths(
            vs.versions, trans, v
        )


# ---------------------------------------------------------------------------
# reconstructability


def test_reconstruction_cover_goldens():
    chain = version_space(["v0", "v1", "v2"], [("v0", "v1"), ("v1", "v2")])
    assert reconstruction_covers(chain, ["v0"], "v2", ["v1"]) is True
    assert reconstruction_covers(chain, ["v0"], "v2", []) is False
    # nothing lies between a later base and an earlier target
    assert reconstruction_covers(chain, ["v1"], "v0", []) is True
    vs = diamond()
    # one branch alone does not cover the other branch of the diamond
    assert reconstruction_covers(vs, ["v0"], "v3", ["v1"]) is False
    assert reconstruction_covers(vs, ["v0"], "v3", ["v1", "v2"]) is True
    assert reconstruction_covers(vs, ["v0"], "v1", ["v3"]) is True


@given(st.randoms(use_true_random=False))
def test_reconstruction_cover_matches_path_enumeration(rnd):
    nodes, edges = builders.random_version_dag(rnd, max_n=7)
    vs = version_space(nodes, edges)
    tokens = sorted(vs.versions)
    v = rnd.choice(tokens)
    v0 = {t for t in tokens if rnd.random() < 0.4} or {rnd.choice(tokens)}
    w = {t for t in tokens if rnd.random() < 0.3}
    got = reconstruction_covers(vs, v0, v, w)
    want = oracles.covers_by_paths(vs.versions, set(vs.transitions), v0, v, w)
    assert got == want


# ---------------------------------------------------------------------------
# changesets


def test_changeset_rejects_adding_and_removing_one_key():
    with pytest.raises(DuplicateKeyError):
        changeset("v1", add_elements=[Element(ElementId("a"))], remove_elements=["a"])


def test_apply_changeset_requires_known_subjects():
    space = demos.chain4()
    with pytest.raises(NotFoundError):
        apply_changeset(space, changeset("v1", remove_elements=["ghost"]))
    with pytest.raises(NotFoundError):
        apply_changeset(space, changeset("v1", remove_pairs=[("x3", "x0")]))
    with pytest.raises(DuplicateKeyError):
        apply_changeset(space, changeset("v1", add_elements=[Element(ElementId("x0"))]))


def test_removing_an_element_inserts_bypass_pairs():
    space = demos.chain4()
    out = apply_changeset(space, changeset("v1", remove_elements=["x2"]))
    assert {k.id for k in out.keys()} == {"x3", "x1", "x0"}
    assert {(p.ida.id, p.idb.id) for p in out.relation} == {("x3", "x1"), ("x1", "x0")}


@given(spaces_with_subset(), st.randoms(use_true_random=False))
def test_apply_changeset_matches_the_rescanning_reference(space_subset, rnd):
    space, removed = space_subset
    pairs = sorted(space.relation)
    dropped = [p for p in pairs if rnd.random() < 0.3]  # some touch removed elements
    anchors = sorted(space.keys() - removed)
    added = [Element(ElementId("new"), attributes={"w": 1})] if rnd.random() < 0.5 else []
    links = [(rnd.choice(anchors), "new")] if added and anchors else []
    changes = changeset(
        "v", add_elements=added, remove_elements=removed, add_pairs=links, remove_pairs=dropped
    )
    want = outcome(oracles.apply_changeset_by_rescans, space, changes)
    assert outcome(apply_changeset, space, changes) == want


@given(spaces_with_subset(), st.randoms(use_true_random=False))
def test_apply_changeset_refuses_a_cycle_it_closes_as_the_rebuilding_reference_does(
    space_subset, rnd
):
    # a fresh key bounded by the upper end of a surviving pair and bounding
    # its lower end closes a cycle through both, after the removals
    space, removed = space_subset
    pairs = sorted(apply_changeset(space, changeset("w", remove_elements=removed)).relation)
    if not pairs:
        return
    a, b = rnd.choice(pairs)
    changes = changeset("v", add_elements=[Element(ElementId("new"))],
                        remove_elements=removed, add_pairs=[(b, "new"), ("new", a)])
    with pytest.raises(T0ViolationError) as want:
        oracles.apply_changeset_by_rebuild(space, changes)
    with pytest.raises(T0ViolationError) as got:
        apply_changeset(space, changes)
    assert (str(got.value), got.value.cycle) == (str(want.value), want.value.cycle)


def test_added_elements_are_stamped_with_the_target_version():
    space = simple_space(["a"])
    out = apply_changeset(
        space,
        changeset("v7", add_elements=[Element(ElementId("b"))], add_pairs=[("b", "a")]),
    )
    assert out.elements[ElementId("b")].version == "v7"


@given(spaces_with_subset())
def test_element_removal_is_subspace_selection_up_to_preorder(space_subset):
    space, removed = space_subset
    kept = sorted(space.keys() - removed)
    via_changes = apply_changeset(space, changeset("v", remove_elements=removed))
    via_subspace = select_subspace(space, kept)
    assert set(via_changes.keys()) == set(via_subspace.keys())
    closure_a = oracles.transitive_closure_pairs(
        via_changes.keys(), {(p.ida, p.idb) for p in via_changes.relation}
    )
    closure_b = oracles.transitive_closure_pairs(
        via_subspace.keys(), {(p.ida, p.idb) for p in via_subspace.relation}
    )
    assert closure_a == closure_b


# ---------------------------------------------------------------------------
# liveness across branches


def _store(vx, vr, x_rows, delx_rows):
    return VersionStore(
        x=tuple(XRow(i, 0, None, None, v) for i, v in x_rows),
        delx=tuple(DelXRow(i, 0, v) for i, v in delx_rows),
        vx=tuple(vx),
        vr=tuple(vr),
    )


def test_deleted_then_recreated_elements_come_back():
    store = _store(
        ["v0", "v1", "v2"],
        [("v0", "v1"), ("v1", "v2")],
        x_rows=[("a", "v0"), ("a", "v2")],
        delx_rows=[("a", "v1")],
    )
    assert ElementId("a") in reconstruct_version(store, "v0").keys()
    assert ElementId("a") not in reconstruct_version(store, "v1").keys()
    assert ElementId("a") in reconstruct_version(store, "v2").keys()


def test_parallel_branch_deletion_lands_after_the_join():
    store = _store(
        ["v0", "v1", "v2", "v3"],
        [("v0", "v1"), ("v0", "v2"), ("v1", "v3"), ("v2", "v3")],
        x_rows=[("a", "v0")],
        delx_rows=[("a", "v1")],
    )
    assert ElementId("a") in reconstruct_version(store, "v2").keys()
    assert ElementId("a") not in reconstruct_version(store, "v1").keys()
    assert ElementId("a") not in reconstruct_version(store, "v3").keys()


def test_deletion_without_a_prior_creation_is_an_integrity_error():
    store = _store(
        ["v0", "v1", "v2"],
        [("v0", "v1"), ("v1", "v2")],
        x_rows=[("a", "v2")],
        delx_rows=[("a", "v1")],
    )
    with pytest.raises(IntegrityError):
        reconstruct_version(store, "v1")
    with pytest.raises(IntegrityError):
        reconstruct_version(store, "v2")


def test_reconstructing_an_unknown_version_fails():
    store = _store(["v0"], [], x_rows=[("a", "v0")], delx_rows=[])
    with pytest.raises(NotFoundError):
        reconstruct_version(store, "v9")


def test_the_creation_row_read_is_a_maximal_one_ties_by_largest_name():
    # x -> a: the later creation wins although "x" sorts after "a"
    chain = _store(["x", "a"], [("x", "a")], x_rows=[("e", "x"), ("e", "a")], delx_rows=[])
    assert reconstruct_version(chain, "a").elements[ElementId("e")].version == "a"
    # r -> p, r -> q, p -> z, q -> z: parallel creations, the larger name wins
    diamond_store = _store(
        ["r", "p", "q", "z"],
        [("r", "p"), ("r", "q"), ("p", "z"), ("q", "z")],
        x_rows=[("e", "p"), ("e", "q")],
        delx_rows=[],
    )
    assert reconstruct_version(diamond_store, "z").elements[ElementId("e")].version == "q"


def test_integrity_errors_name_the_first_violation_in_row_order():
    store = _store(
        ["v0", "v1", "v2"],
        [("v0", "v1"), ("v1", "v2")],
        x_rows=[("b", "v2")],
        delx_rows=[("b", "v2"), ("b", "v1"), ("a", "v1")],
    )
    with pytest.raises(IntegrityError) as err:
        reconstruct_version(store, "v2")
    assert str(err.value) == "element a is deleted in 'v1' but created on no path before it"


@st.composite
def version_stores(draw):
    """Raw rows over a small version DAG: branches, merges (versions with
    several parents), deletions and re-additions, deletions with no creation
    before them, pairs whose elements are not alive, cyclic relations and,
    now and then, a cyclic version graph."""
    n = draw(st.integers(1, 6))
    versions = [f"v{i}" for i in range(n)]
    forward = [(versions[i], versions[j]) for i in range(n) for j in range(i + 1, n)]
    vr = draw(st.sets(st.sampled_from(forward))) if forward else set()
    if n > 1 and draw(st.integers(0, 9)) == 0:
        vr.add((versions[-1], versions[0]))
    version = st.sampled_from(versions)
    ident = st.sampled_from("abcd")
    lod = st.integers(0, 1)
    gen = st.one_of(st.none(), st.tuples(ident, lod))
    x = draw(st.lists(st.tuples(ident, lod, gen, version), max_size=12))
    r = draw(st.lists(st.tuples(ident, ident, lod, version), max_size=12))
    # deletions hit created subjects, at any version
    x_keys = st.sampled_from([w[:2] for w in x] or [("a", 0)])
    r_keys = st.sampled_from([w[:3] for w in r] or [("a", "b", 0)])
    delx = draw(st.lists(st.tuples(x_keys, version), max_size=4))
    delr = draw(st.lists(st.tuples(r_keys, version), max_size=4))
    value = st.integers(0, 3)
    atts = draw(st.lists(st.tuples(ident, lod, st.sampled_from("pq"), value), max_size=4))
    return canonicalize(
        VersionStore(
            x=tuple(XRow(i, l, g and g[0], g and g[1], v) for i, l, g, v in x),
            r=tuple(RRow(a, b, l, v) for a, b, l, v in r),
            delx=tuple(DelXRow(*k, v) for k, v in set(delx)),
            delr=tuple(DelRRow(*p, v) for p, v in set(delr)),
            vx=tuple(versions),
            vr=tuple(vr),
            atts=tuple({(i, l, k): AttRow(i, l, k, val) for i, l, k, val in atts}.values()),
        )
    )


@given(version_stores())
@settings(max_examples=300)
def test_indexed_reconstruction_matches_the_per_call_reference(store):
    for v in sorted(store.vx) + ["nope"]:
        want = outcome(oracles.reconstruct_version_by_hulls, store, v)
        assert outcome(reconstruct_version, store, v) == want
        assert outcome(oracles.reconstruct_by_columns, store, v) == want
    # again, now that the index has built the elements of every version
    for v in sorted(store.vx):
        assert outcome(reconstruct_version, store, v) == outcome(
            oracles.reconstruct_by_columns, store, v
        )


# ---------------------------------------------------------------------------
# the derived index of a committed store


def test_a_re_added_element_reads_back_its_recorded_attributes():
    store = new_store("v0", text_space("ab"))
    store = commit(store, "v0", changeset("v1", remove_elements=["2"]))
    store = commit(store, "v1", changeset("v2", add_elements=[Element(ElementId("2"))]))
    got = reconstruct_version(store, "v2")
    assert got.elements[ElementId("2")].attributes == {"letter": "b"}
    fresh = canonicalize(store)  # the same rows, indexed afresh
    assert outcome(reconstruct_version, store, "v2") == outcome(reconstruct_version, fresh, "v2")


def test_a_committed_store_holds_its_newest_space():
    store = commit(new_store("v0", text_space("ab")), "v0", changeset("v1", remove_elements=["1"]))
    assert reconstruct_version(store, "v1") is reconstruct_version(store, "v1")
    assert store.history.held[0] == "v1"


def test_a_commit_creating_a_key_takes_the_attribute_rows_it_already_had():
    # an attribute row of "ghost", a key no row creates: a store built in
    # code can hold one, though ``load`` refuses it
    store = new_store("v0", text_space("ab"))
    ghost_row = AttRow("ghost", 0, "q", "x")
    store = canonicalize(dataclasses.replace(store, atts=store.atts + (ghost_row,)))
    ghost = ElementId("ghost")
    for attributes, rows in (({}, [("q", "x")]), ({"q": "x", "r": 1}, [("q", "x"), ("r", 1)])):
        child = commit(store, "v0", changeset("v1", [Element(ghost, attributes=attributes)]))
        read = reconstruct_version(child, "v1")
        assert read.elements[ghost].attributes == dict(rows)
        fresh = reconstruct_version(canonicalize(child), "v1")
        assert list(read.elements.items()) == list(fresh.elements.items())
        assert [(a.name, a.value) for a in child.atts if a.id == "ghost"] == rows
        _index_columns_match_the_row_built_ones(child)
    # a clashing value is refused, as for a key some row created before
    with pytest.raises(DuplicateKeyError, match="'q' of \\(ghost, 0\\) already recorded as 'x'"):
        commit(store, "v0", changeset("v1", [Element(ghost, attributes={"q": "y"})]))


def test_a_created_element_is_held_as_its_column_reads_it_back(tmp_path):
    # "ghost" has an attribute row and no creation row until v1 creates it;
    # "2" dies in v1 and is created again in v2; each brings attributes of
    # its own, out of name order
    store = new_store("v0", text_space("ab"))
    store = canonicalize(dataclasses.replace(store, atts=store.atts + (AttRow("ghost", 0, "q", "x"),)))
    ghost, two = ElementId("ghost"), ElementId("2")
    first = commit(store, "v0", changeset("v1", [Element(ghost, attributes={"r": 1, "a": 0})],
                                          remove_elements=["2"]))
    second = commit(first, "v1", changeset("v2", [Element(two, attributes={"z": 1, "c": 2})]))
    loaded = load(save(second, tmp_path / "s"))
    for s, v, k, names in ((first, "v1", ghost, ["a", "q", "r"]),
                           (second, "v2", two, ["c", "letter", "z"])):
        index = s.history
        assert index.held[0] == v
        e = index.held[1].elements[k]
        # one creation row: the column keeps the held element; several: it
        # is built on each read
        built = index.built[index.elements[0].index(k)]
        assert built is e if k == ghost else built is None
        fresh = reconstruct_version(loaded, v).elements[k]
        assert list(e.attributes) == list(fresh.attributes) == names
        assert e == fresh


def test_a_commit_creating_a_key_from_the_newest_version_builds_one_space(monkeypatch):
    store = commit(new_store("v0", text_space("abc")), "v0", changeset("v1", remove_elements=["2"]))
    spaces = []
    real = Space.__init__

    def counted(self, *args, **kwargs):
        spaces.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Space, "__init__", counted)
    changes = changeset("v2", [Element(ElementId("4"), attributes={"letter": "d"})],
                        add_pairs=[("3", "4")])
    child = commit(store, "v1", changes)
    assert len(spaces) == 1 and spaces[0] is child.history.held[1]


@given(st.data())
def test_the_newest_creation_read_off_ancestries_is_the_one_read_off_descendants(data):
    # a random version DAG, its bits named in random order, so that ties
    # between maximal creations are broken by name, not by bit
    n = data.draw(st.integers(1, 8))
    ancestry = []
    for i in range(n):
        parents = data.draw(st.sets(st.integers(0, i - 1), max_size=3)) if i else set()
        mask = 1 << i
        for j in parents:
            mask |= ancestry[j]
        ancestry.append(mask)
    descendants = [sum(1 << j for j in range(n) if ancestry[j] >> i & 1) for i in range(n)]
    names = data.draw(st.permutations([f"v{i}" for i in range(n)]))
    inside = data.draw(st.integers(1, 2**n - 1))
    assert versioning._newest(inside, ancestry, names) == oracles.newest_by_descendants(
        inside, descendants, names
    )


def test_a_new_name_sorting_first_takes_the_next_bit():
    store = new_store("w9", text_space("abc"))
    store = commit(store, "w9", changeset("w10", remove_elements=["2"]))
    store = commit(store, "w10", changeset("a", add_elements=[Element(ElementId("2"))]))
    assert store.history.names == ["w9", "w10", "a"]
    fresh = canonicalize(store)
    assert fresh.history.names == ["a", "w10", "w9"]
    for v in store.vx:
        assert outcome(reconstruct_version, store, v) == outcome(reconstruct_version, fresh, v)
        assert outcome(reconstruct_version, store, v) == outcome(
            oracles.reconstruct_version_by_hulls, store, v
        )


def test_two_children_of_one_parent_leave_the_parent_as_it_was():
    parent = new_store("v0", text_space("abc"))
    parent = commit(parent, "v0", changeset("v1", remove_elements=["2"]))
    before = [outcome(reconstruct_version, parent, v) for v in parent.vx]
    back = changeset("v2", add_elements=[Element(ElementId("2"))], add_pairs=[("1", "2")])
    left = commit(parent, "v1", back)
    right = commit(parent, "v1", changeset("v3", remove_elements=["3"]))
    assert [outcome(reconstruct_version, parent, v) for v in parent.vx] == before
    assert parent.history.names == ["v0", "v1"]
    for store in (parent, left, right):
        for v in store.vx:
            assert outcome(reconstruct_version, store, v) == outcome(
                oracles.reconstruct_version_by_hulls, store, v
            )


def test_checkouts_share_the_elements_they_have_in_common():
    store = new_store("v0", text_space("abc"))
    store = commit(store, "v0", changeset("v1", remove_elements=["2"]))
    store = commit(store, "v1", changeset("v2", add_elements=[Element(ElementId("2"))]))
    store = commit(store, "v2", changeset("v3", remove_elements=["3"]))
    one, two = ElementId("1"), ElementId("2")
    for s in (store, canonicalize(store)):
        v0, v1, v2, v3 = (reconstruct_version(s, v) for v in ("v0", "v1", "v2", "v3"))
        # alive and unchanged: one object, and one attribute dict
        assert v0.elements[one] is v1.elements[one] is v2.elements[one] is v3.elements[one]
        assert v0.elements[one].attributes is v3.elements[one].attributes
        # created again in v2: v0 and v2 read two creations of one key
        assert v0.elements[two] is not v2.elements[two]
        assert (v0.elements[two].version, v2.elements[two].version) == ("v0", "v2")
        for v in s.vx:
            want = outcome(oracles.reconstruct_by_columns, s, v)
            assert outcome(reconstruct_version, s, v) == want


def test_a_key_created_again_is_read_anew_in_every_version():
    fine = [
        Element(ElementId(i), gen_target=ElementId(t, 1), attributes={"n": 1})
        for i, t in (("p", "P"), ("q", "Q"))
    ]
    coarse = [Element(ElementId(t, 1)) for t in "PQ"]
    pairs = [BoundedByPair(ElementId("p"), ElementId("q"))]
    store = new_store("v0", build_space(fine + coarse, pairs))
    store = commit(store, "v0", changeset("v1", remove_elements=["p"]))
    before = reconstruct_version(store, "v0")  # the index the next commit derives from is warm
    p = ElementId("p")
    again = Element(p, gen_target=ElementId("Q", 1), attributes={"m": 2})
    store = commit(store, "v1", changeset("v2", add_elements=[again]))
    store = commit(store, "v1", changeset("v3", remove_elements=["q"]))  # a sibling of v2
    fresh = canonicalize(store)
    for v in ("v0", "v1", "v2", "v3"):
        want = outcome(oracles.reconstruct_version_by_hulls, store, v)
        assert outcome(reconstruct_version, store, v) == want
        assert outcome(reconstruct_version, fresh, v) == want
    # attributes attach to a key, so v0 now reads the one recorded in v2
    old, new = (reconstruct_version(store, v).elements[p] for v in ("v0", "v2"))
    both = {"m": 2, "n": 1}
    assert (old.version, old.gen_target, old.attributes) == ("v0", ElementId("P", 1), both)
    assert (new.version, new.gen_target, new.attributes) == ("v2", ElementId("Q", 1), both)
    assert before.elements[p].attributes == {"n": 1}  # a space read earlier is as it was


@given(st.integers(0, 2**32))
def test_a_warm_index_never_leaks_one_version_into_another(seed):
    # every version is checked out before each commit, so each commit
    # derives its index from one that has built its elements
    for store in builders.committed_history(random.Random(seed), warm=True):
        fresh = canonicalize(store)
        for v in sorted(store.vx):
            want = outcome(oracles.reconstruct_version_by_hulls, store, v)
            assert outcome(reconstruct_version, store, v) == want
            assert outcome(reconstruct_version, fresh, v) == want


def _same_everywhere(store: VersionStore, directory: str) -> None:
    """Every version reads the same from ``store``, from a saved and loaded
    copy of it and from the per-call reference."""
    loaded = load(save(store, directory))
    for v in sorted(store.vx) + ["nope"]:
        want = outcome(oracles.reconstruct_version_by_hulls, store, v)
        assert outcome(reconstruct_version, store, v) == want
        assert outcome(reconstruct_version, loaded, v) == want
        assert outcome(oracles.reconstruct_by_columns, store, v) == want


@given(st.integers(0, 2**32))
def test_committed_histories_read_like_their_rows(seed):
    stores = builders.committed_history(random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        for i, store in enumerate(stores):
            _same_everywhere(store, f"{tmp}/s{i}")
        # parents again, now that their children exist
        for i, store in enumerate(stores[:-1]):
            _same_everywhere(store, f"{tmp}/s{i}")


def _joined(store: VersionStore, version: str, parents: list[str], rnd: random.Random):
    """``store`` plus ``version``, a join of ``parents`` written as rows,
    which now and then deletes a key alive in the first parent, or creates
    again a key deleted there: a join that reads the masks of every column
    must see both."""
    x, delx = [], []
    try:
        space = reconstruct_version(store, parents[0])
    except AlexdbError:
        space = None
    if space is not None and rnd.random() < 0.5:
        gone = sorted({ElementId(w.id, w.lod) for w in store.x} - space.keys())
        if gone and rnd.random() < 0.5:
            k = rnd.choice(gone)
            x.append(XRow(k.id, k.lod, None, None, version))
        elif space.elements:
            k = rnd.choice(sorted(space.keys()))
            delx.append(DelXRow(k.id, k.lod, version))
    return VersionStore(
        x=store.x + tuple(x), r=store.r, point=store.point, delx=store.delx + tuple(delx),
        delr=store.delr, vx=store.vx + (version,),
        vr=store.vr + tuple((p, version) for p in parents), atts=store.atts,
    )


def _joined_history(rnd: random.Random) -> list[VersionStore]:
    """Every store of a history grown by commits and joins, oldest first.
    The first is a text chain.  Each step either commits a random edit
    (``_random_edit``: removals, keys created again, pairs, a fresh key)
    from any version, or joins two versions (``_joined``), so deletions on
    parallel branches meet.  A store with a new join reads its index from
    its rows; the commits after it derive theirs, from a join's row too.
    Commits that ``commit`` rejects are left out."""
    n = rnd.randint(2, 8)
    text = "".join(rnd.choice("ab") for _ in range(n))
    stores = [new_store("v0", text_space(text, ids=[f"t{i}" for i in range(n)]))]
    for i in range(rnd.randint(1, 8)):
        store = stores[-1]
        version = f"w{i}"
        if len(store.vx) > 1 and rnd.random() < 0.3:
            stores.append(_joined(store, version, rnd.sample(sorted(store.vx), 2), rnd))
            continue
        parent = rnd.choice(sorted(store.vx))
        try:
            space = reconstruct_version(store, parent)
        except AlexdbError:
            continue
        try:
            stores.append(commit(store, parent, _random_edit(rnd, store, space, version)))
        except AlexdbError:
            pass
    return stores


def _rows_match_the_masks(store: VersionStore) -> None:
    """Each row of the store's index, read through its slots in column
    order, holds what the masks say, in every version whose rows may be
    read; the versions are matched by name, since a derived index numbers
    them in commit order.  The pair slots number the pair columns."""
    index = store.history
    assert sorted(index.pair_slots) == list(range(len(index.pair_slots)))
    want = oracles.history_rows_by_masks(store)
    assert sorted(want) == sorted(index.names) and len(index.rows) == len(want)
    for name, live in want.items():
        if live is not None:
            have = tuple(
                [row[t] if t < len(row) else 0 for t in slots]
                for row, slots in zip(index.rows[index.bit[name]], (index.slots, index.pair_slots))
            )
            assert have == live, name


@given(st.integers(0, 2**32))
@settings(max_examples=60)
def test_rows_read_every_version_as_the_references_do(seed):
    """Every version read through the rows is the version the references
    read: element order, attributes, relation and index order, or the
    same error.  The rows are derived by commits, filled afresh after
    ``save`` and ``load`` and after ``canonicalize``, and read off the
    masks at a join."""
    stores = _joined_history(random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        for n, store in enumerate(stores):
            for s in (store, canonicalize(store), load(save(store, f"{tmp}/s{n}"))):
                _rows_match_the_masks(s)
                for v in sorted(s.vx) + ["nope"]:
                    want = outcome(oracles.reconstruct_version_by_hulls, store, v)
                    assert outcome(reconstruct_version, s, v) == want
                    assert outcome(oracles.reconstruct_by_columns, s, v) == want
                    if isinstance(want[0], list):
                        got = reconstruct_version(s, v)
                        assert _index_facts(got) == _index_facts(
                            build_space(got.elements.values(), got.relation)
                        )


def test_a_checkout_reads_masks_only_at_a_join(monkeypatch):
    # v1 and v2 each remove a letter of one text; v3 joins them, so both
    # deletions take effect there, and v4 removes one more from the join
    store = new_store("v0", text_space("abcde"))
    store = commit(store, "v0", changeset("v1", remove_elements=["2"]))
    store = commit(store, "v0", changeset("v2", remove_elements=["4"]))
    store = dataclasses.replace(store, vx=store.vx + ("v3",), vr=store.vr + (("v1", "v3"), ("v2", "v3")))
    store = commit(store, "v3", changeset("v4", remove_elements=["5"]))
    calls = Counter()

    def counted(created, *args):
        calls[len(created)] += 1
        return live(created, *args)

    live = versioning._live
    monkeypatch.setattr(versioning, "_live", counted)
    fresh = canonicalize(store)
    fresh.history  # noqa: B018 - build the index before reading
    # the element and the pair rows of the join, v3, and nothing else
    assert calls == Counter({5: 1, 6: 1})
    for s in (fresh, store):
        texts = {v: [k.id for k in reconstruct_version(s, v).elements] for v in sorted(s.vx)}
        assert texts == {"v0": list("12345"), "v1": list("1345"), "v2": list("1235"),
                         "v3": list("135"), "v4": list("13")}
        assert reconstruct_version(s, "v3").relation == {
            BoundedByPair(ElementId("1"), ElementId("3")), BoundedByPair(ElementId("3"), ElementId("5"))
        }
    assert calls == Counter({5: 1, 6: 1})


@given(st.integers(0, 2**32))
def test_commit_writes_the_same_rows_from_a_derived_or_a_fresh_index(seed):
    rnd = random.Random(seed)
    stores = builders.committed_history(rnd, max_commits=4)
    store = stores[-1]
    fresh = canonicalize(store)
    parent = rnd.choice(store.vx)
    space = reconstruct_version(store, parent)
    removed = [k for k in sorted(space.keys()) if rnd.random() < 0.3]
    changes = changeset("zz", add_elements=[Element(ElementId("q"))], remove_elements=removed)

    def committed(base):
        try:
            child = commit(base, parent, changes)
        except AlexdbError as exc:
            return type(exc), str(exc)
        return child, [outcome(reconstruct_version, child, v) for v in sorted(child.vx)]

    assert committed(store) == committed(fresh)


def _with_stray_rows(store: VersionStore, rnd: random.Random) -> VersionStore:
    """``store`` plus, each at random, rows that no commit writes: an
    element created again in some version with a generalisation target no
    row creates, rows naming a version the store lacks, deletions that may
    precede every creation or delete what no row creates, a pair onto an
    element no row creates, a reflexive pair and attributes of unknown
    elements."""
    a = rnd.choice(store.x)
    v = lambda: rnd.choice(store.vx)  # noqa: E731 - a fresh draw each time
    extra = {
        "x": [XRow(a.id, a.lod, "ghost", a.lod + 1, v()), XRow(a.id, a.lod, None, None, "w99"),
              XRow("stray", 0, a.id, a.lod, "w99")],
        "r": [RRow(a.id, "ghost", a.lod, v()), RRow(a.id, a.id, a.lod, v()),
              RRow(a.id, "stray", a.lod, "w99")],
        "delx": [DelXRow(a.id, a.lod, v()), DelXRow("ghost", 0, v()), DelXRow(a.id, a.lod, "w99")],
        "delr": [DelRRow("ghost", a.id, a.lod, v()), DelRRow(a.id, "ghost", a.lod, v())],
        "atts": [AttRow(a.id, a.lod, "zz", 1), AttRow("ghost", 0, "q", "x")],
    }
    return VersionStore(**{
        f.name: getattr(store, f.name) + tuple(w for w in extra.get(f.name, ()) if rnd.random() < 0.4)
        for f in dataclasses.fields(store)
    })


def _index_columns_match_the_row_built_ones(store: VersionStore) -> None:
    """The columns the store's index keeps are the row-built oracle's,
    which also has the deletion masks and the descendants that only the
    index's build reads: the element columns some row creates are its
    ``elements``, and those created in no version are the keys that only
    attribute rows (its ``stray``), pair ends or generalisation targets
    name, with the attributes recorded for them.  Every pair end is its
    key's slot."""
    index = store.history
    want = oracles.history_columns_by_rows(store)
    keys, created, _, gens, atts = want.pop("elements")
    stray = {ElementId(*k): a for k, a in want.pop("stray").items()}
    want.update(pairs=want["pairs"][0])
    del want["descendants"]
    for column, columns in want.items():
        assert getattr(index, column) == columns, column
    columns = list(zip(*index.elements))
    assert [c for c in columns if c[1]] == list(zip(keys, created, gens, atts))
    targets = {g for gen in gens for g in (gen.values() if type(gen) is dict else [gen])}
    named = set(stray).union(*want["pairs"], targets - {None}) - set(keys)
    uncreated = [(k, 0, None, stray.get(k, ())) for k in sorted(named)]
    assert [c for c in columns if not c[1]] == uncreated
    assert sorted(index.slots) == list(range(len(columns)))
    key_of = dict(zip(index.slots, index.elements[0]))
    for pair, *at in zip(index.pairs, *index.ends, strict=True):
        assert tuple(map(key_of.__getitem__, at)) == pair


@given(st.integers(0, 2**32), st.booleans())
def test_the_history_index_matches_its_row_built_oracle(seed, stray):
    rnd = random.Random(seed)
    if rnd.random() < 0.5:
        store = builders.random_store(rnd)
    else:  # elements created again, some with a new generalisation target
        store = builders.committed_history(rnd, max_commits=4)[-1]
    if stray:
        store = _with_stray_rows(store, rnd)
    store = canonicalize(store)  # an index built from the rows
    _index_columns_match_the_row_built_ones(store)
    # rows naming a version the store lacks are left out
    known = VersionStore(**{
        f.name: [w for w in getattr(store, f.name) if getattr(w, "version", None) != "w99"]
        for f in dataclasses.fields(store)
    })
    for v in sorted(store.vx):
        want = outcome(oracles.reconstruct_version_by_hulls, known, v)
        assert outcome(reconstruct_version, store, v) == want


@given(st.integers(0, 2**32))
def test_files_out_of_order_load_into_the_same_index(seed):
    rnd = random.Random(seed)
    store = builders.committed_history(rnd, max_commits=4)[-1]
    with tempfile.TemporaryDirectory() as tmp:
        canonical = load(save(store, f"{tmp}/canonical"))
        shuffled = save(store, f"{tmp}/shuffled")
        for path in sorted(shuffled.iterdir()):
            header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
            rnd.shuffle(rows)
            path.write_text(header + "".join(rows), encoding="utf-8")
        reordered = load(shuffled)
    assert canonical == reordered == store
    for loaded in (canonical, reordered):
        _index_columns_match_the_row_built_ones(loaded)
        for v in sorted(store.vx):
            want = outcome(oracles.reconstruct_version_by_hulls, store, v)
            assert outcome(reconstruct_version, loaded, v) == want


def _index_facts(space: Space, idx: SpaceIndex | None = None):
    """The index of ``space``, or ``idx`` given for it, by key: its keys,
    what each key is bounded by and bounds, its depths and its
    ``inn_pairs`` as sets.  Checks on the way that ``pos``, ``out``,
    ``inn``, ``order`` and ``inn_pairs`` agree with the space, and the
    order with networkx."""
    idx = space.index if idx is None else idx
    _order_holds_in_networkx(idx)
    keys = idx.keys
    assert keys == list(space.elements)
    assert idx.pos == {k: i for i, k in enumerate(keys)}
    steps = {(keys[i], keys[j]) for i, below in enumerate(idx.out) for j in below}
    assert steps == set(space.relation)
    assert steps == {(keys[i], keys[j]) for j, above in enumerate(idx.inn) for i in above}
    if idx.order is None:
        assert find_cycle(space) is not None
    else:
        assert sorted(idx.order) == list(range(len(keys)))
        place = {i: n for n, i in enumerate(idx.order)}
        assert all(place[i] < place[j] for i, below in enumerate(idx.out) for j in below)
    for b, (above, pairs) in enumerate(zip(idx.inn, idx.inn_pairs)):
        assert pairs == [(keys[a], keys[b]) for a in above]
    return (
        keys,
        [frozenset(map(keys.__getitem__, below)) for below in idx.out],
        [frozenset(map(keys.__getitem__, above)) for above in idx.inn],
        idx.depth,
        [frozenset(pairs) for pairs in idx.inn_pairs],
    )


def _order_holds_in_networkx(idx: SpaceIndex) -> None:
    """``idx.order`` is None exactly when networkx finds the graph of
    ``idx.out`` cyclic, and else lists every position before each it is
    bounded by."""
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(idx.keys)))
    graph.add_edges_from((i, j) for i, below in enumerate(idx.out) for j in below)
    assert (idx.order is None) == (not nx.is_directed_acyclic_graph(graph))
    if idx.order is not None:
        place = {i: n for n, i in enumerate(idx.order)}
        assert sorted(place) == sorted(graph)
        assert all(place[i] < place[j] for i, j in graph.edges)


def _leveled(space: Space, rnd: random.Random) -> Space:
    """``space`` with its keys spread over levels 0 to 2, most of them
    generalising onto a key of a coarser level; in half the draws only the
    pairs within a level are kept, so the linked space never leaves a level
    and comes back, and in the others it may, or be cyclic."""
    key = {k: ElementId(k.id, rnd.randint(0, 2)) for k in space.elements}
    pairs = [BoundedByPair(key[a], key[b]) for a, b in space.relation]
    if rnd.random() < 0.5:
        pairs = [p for p in pairs if p.ida.lod == p.idb.lod]
    els = []
    for n, k in enumerate(key.values()):
        coarser = [t for t in key.values() if t.lod > k.lod]
        target = rnd.choice(coarser) if coarser and rnd.random() < 0.7 else None
        els.append(Element(k, "v1", target, {"n": n}))
    return build_space(els, pairs)


def _edited(space: Space, rnd: random.Random) -> Space | None:
    """``space`` after one random ``apply_changeset``: some keys removed, a
    fresh key below some kept ones, and pairs between kept keys, which may
    run against the order kept so far; None when they close a cycle."""
    keys = list(space.elements)
    gone = [k for k in keys if rnd.random() < 0.2]
    kept = [k for k in keys if k not in gone]
    fresh = Element(ElementId("fresh"))
    pairs = [(k, fresh.key) for k in kept if rnd.random() < 0.3]
    pairs += [tuple(rnd.sample(kept, 2)) for _ in range(rnd.randint(0, 2)) if len(kept) > 1]
    try:
        return apply_changeset(space, changeset("v2", [fresh], gone, pairs))
    except T0ViolationError:
        return None


def _lazy(space: Space) -> Space:
    """The same space with its index left to be built on first use."""
    return Space(space.elements, space.relation)


@given(st.integers(0, 2**32))
def test_every_route_to_a_space_index_builds_the_same_one(seed):
    rnd = random.Random(seed)
    space = builders.random_space(rnd)
    rel = sorted(space.relation)
    els = list(space.elements.values())
    loops = [BoundedByPair(k, k) for k in space.elements if rnd.random() < 0.3]
    for pairs, t0_check in (
        (rel + loops, True),  # each pair once: the index is filled in
        (rel + rel[: rnd.randint(0, len(rel))] + loops, True),  # some pairs twice
        (rel + [BoundedByPair(b, a) for a, b in rel[:1]], False),  # a cycle
    ):
        rnd.shuffle(pairs)
        built = build_space(els, pairs, t0_check=t0_check)
        assert _index_facts(built) == _index_facts(_lazy(built))

    # unchecked, the index is filled in on the first walk and its order
    # found only when read
    unchecked = build_space(els, rel, t0_check=False)
    closure(unchecked, list(unchecked.elements)[:1])
    assert "order" not in vars(unchecked.index)
    assert _index_facts(unchecked) == _index_facts(_lazy(unchecked))

    # derived by an edit: a plain space, whose index is filled in from its
    # elements and relation
    derived = _edited(space, rnd)
    if derived is not None:
        assert _index_facts(derived) == _index_facts(_lazy(derived))

    # the space linked across levels, a view of the index of a space on
    # levels, with its order found by Kahn's algorithm, and its telescope,
    # whose linked view the telescope may order itself and whose own order
    # is known by construction
    leveled = _leveled(space, rnd)
    view, linked = _linked_index(leveled), oracles.linked_by_assembly(leveled)
    assert _index_facts(linked, view) == _index_facts(linked)
    if view.order is None:
        with pytest.raises(T0ViolationError):
            _telescope(leveled)
    else:
        views = []

        def kept_view(*args):
            views.append(_linked_index(*args))
            return views[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lod, "_linked_index", kept_view)
            tele = _telescope(leveled)
        assert _index_facts(linked, views[0]) == _index_facts(linked)
        assert "_positions" in vars(tele)
        facts = _index_facts(tele)
        assert facts == _index_facts(_lazy(tele))
        assert facts == _index_facts(build_space(tele.elements.values(), tele.relation))

    history = builders.committed_history(rnd, max_commits=4)
    for committed in history[1:]:  # each holds a space derived from its parent's
        got = committed.history.held[1]
        facts = _index_facts(got)
        assert facts == _index_facts(_lazy(got))
        assert facts == _index_facts(build_space(got.elements.values(), got.relation))
    with tempfile.TemporaryDirectory() as tmp:
        store = load(save(history[-1], f"{tmp}/store"))
    # read from the columns, with the store's order restricted to the
    # version (derived by commits in ``history[-1]``, found in ``store``):
    # the space keeps the positions and fills its index from them
    for s in (store, history[-1]):
        for v in sorted(s.vx):
            if s.history.held is not None and s.history.held[0] == v:
                continue
            got = reconstruct_version(s, v)
            kept = s.history.union_order() is not None
            assert ("_positions" in vars(got), "index" in vars(got)) == (kept, not kept)
            facts = _index_facts(got)
            assert facts == _index_facts(_lazy(got))
            assert facts == _index_facts(build_space(got.elements.values(), got.relation))


def _union_order_is_valid(index) -> None:
    """``index.union_order()`` lists every element column's slot, each before
    those it is bounded by in some pair column, leaving out reflexive pairs;
    it is None exactly when those pairs form a cycle.  Labels, when kept,
    rise along the order."""
    order = index.union_order()
    n = len(index.slots)
    union = nx.DiGraph()
    union.add_nodes_from(range(n))
    union.add_edges_from((a, b) for a, b in zip(*index.ends) if a != b)
    assert (order is None) == (not nx.is_directed_acyclic_graph(union))
    if order is not None:
        assert sorted(order) == list(range(n))
        place = {t: i for i, t in enumerate(order)}
        assert all(place[a] < place[b] for a, b in union.edges)
        if index.labels is not None:
            labels = [index.labels[t] for t in order]
            assert all(x < y for x, y in zip(labels, labels[1:]))


def _with_stray_order_rows(store: VersionStore, rnd: random.Random) -> VersionStore:
    """``store`` plus, each at random, rows that no commit writes and that
    bear on the order of the union of its spaces: pairs onto and from
    ``ghost``, a key no row creates, a reflexive pair, an element created again in some
    version, deletions that no creation may precede and attributes of
    ``ghost``, which a commit creating it takes on."""
    a = rnd.choice(store.x)
    v = lambda: rnd.choice(store.vx)  # noqa: E731 - a fresh draw each time
    extra = {
        "x": [XRow(a.id, a.lod, None, None, v())],
        "r": [RRow(a.id, "ghost", a.lod, v()), RRow("ghost", a.id, a.lod, v()),
              RRow(a.id, a.id, a.lod, v())],
        "delx": [DelXRow(a.id, a.lod, v()), DelXRow("ghost", 0, v())],
        "delr": [DelRRow(a.id, "ghost", a.lod, v())],
        "atts": [AttRow("ghost", 0, "q", "x"), AttRow("ghost", a.lod, "r", 1)],
    }
    return VersionStore(**{
        f.name: getattr(store, f.name) + tuple(w for w in extra.get(f.name, ()) if rnd.random() < 0.4)
        for f in dataclasses.fields(store)
    })


def _order_history(rnd: random.Random) -> tuple[list[VersionStore], bool]:
    """Every store of a branching history, oldest first, and whether they
    carry stray rows, which ``load`` would refuse.  The first is a
    text chain, whose keys ``t0``, ``t1`` ... leave room for keys created
    between them, or a random store; now and then it carries stray rows
    (``_with_stray_order_rows``).  Each commit picks any version as its parent
    and makes a random edit, puts a new key between the ends of a pair,
    turns a pair round (so that the union of the spaces has a cycle,
    though no version has one) or creates ``ghost``, the key the stray
    pair names.  Commits that ``commit`` rejects are left out."""
    if rnd.random() < 0.5:
        n = rnd.randint(1, 8)
        text = "".join(rnd.choice("ab") for _ in range(n))
        store = new_store("v0", text_space(text, ids=[f"t{i}" for i in range(n)]))
    else:
        store = builders.random_store(rnd)
    stray = rnd.random() < 0.3
    if stray:
        store = _with_stray_order_rows(store, rnd)
    stores = [store]
    for i in range(rnd.randint(1, 6)):
        store = stores[-1]
        parent = rnd.choice(sorted(store.vx))
        try:
            space = reconstruct_version(store, parent)
        except AlexdbError:
            continue
        version = f"w{i}"
        pairs = sorted(space.relation)
        kind = rnd.choice(["random", "insert", "turn", "ghost"])
        if kind == "insert" and pairs:
            a, b = rnd.choice(pairs)
            new = ElementId(f"{a.id}{version}", a.lod)
            changes = changeset(version, [Element(new)], add_pairs=[(a, new), (new, b)],
                                remove_pairs=[(a, b)])
        elif kind == "turn" and pairs:
            a, b = rnd.choice(pairs)
            changes = changeset(version, remove_pairs=[(a, b)], add_pairs=[(b, a)])
        elif kind == "ghost":
            changes = changeset(version, [Element(ElementId("ghost", rnd.choice(store.x).lod))])
        else:
            changes = _random_edit(rnd, store, space, version)
        try:
            stores.append(commit(store, parent, changes))
        except AlexdbError:
            pass
    return stores, stray


@given(st.integers(0, 2**32))
@settings(max_examples=80)
def test_the_store_order_reads_every_version_as_the_reference_does(seed):
    stores, stray = _order_history(random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        for n, store in enumerate(stores):
            # the same rows, indexed afresh; ``load`` refuses stray rows
            fresh = canonicalize(store) if stray else load(save(store, f"{tmp}/s{n}"))
            # committed stores derive their order; fresh ones find it
            for s in (store, fresh):
                for v in sorted(s.vx):
                    want = outcome(oracles.reconstruct_version_by_hulls, store, v)
                    assert outcome(reconstruct_version, s, v) == want
                    if isinstance(want[0], list):  # the index's order is valid
                        got = reconstruct_version(s, v)
                        rebuilt = build_space(got.elements.values(), got.relation)
                        assert _index_facts(got) == _index_facts(rebuilt)
                _union_order_is_valid(s.history)


def test_a_pair_turned_round_leaves_every_version_readable(tmp_path, capsys):
    # the union of the two spaces is the cycle a -> b -> a, though neither
    # version has one: each version checks T0 by itself, as before
    store = new_store("v0", simple_space(["a", "b"], [("a", "b")]))
    store = commit(store, "v0", changeset("v1", remove_pairs=[("a", "b")], add_pairs=[("b", "a")]))
    a, b = ElementId("a"), ElementId("b")
    loaded = load(save(store, tmp_path / "s"))
    for s in (store, loaded, canonicalize(store)):
        v0, v1 = reconstruct_version(s, "v0"), reconstruct_version(s, "v1")
        assert (v0.relation, v1.relation) == ({(a, b)}, {(b, a)})
        assert krull_dimension(v0) == krull_dimension(v1) == 1
        assert s.history.union_order() is None
        _index_facts(v0)
        _index_facts(v1)
    for argv, want in (
        (["validate"], "ok\n"),
        (["dim", "--version", "v0"], "1\n"),
        (["dim", "--version", "v1"], "1\n"),
        (["path", "a", "b", "--version", "v0"], "Yes\n"),
        (["path", "b", "a", "--version", "v1"], "Yes\n"),
        (["versions-with-path", "a", "b"], "v0\nv1\n"),
    ):
        argv.insert(1, str(tmp_path / "s"))
        assert main(argv) == 0
        assert capsys.readouterr() == (want, "")


def test_a_cyclic_version_raises_the_error_it_raised_before():
    # v1 turns a -> b round; v2, a sibling, closes a -> b -> c -> a
    store = VersionStore(
        x=tuple(XRow(k, 0, None, None, "v0") for k in "abc"),
        r=(RRow("a", "b", 0, "v0"), RRow("b", "a", 0, "v1"), RRow("b", "c", 0, "v2"),
           RRow("c", "a", 0, "v2")),
        delr=(DelRRow("a", "b", 0, "v1"),),
        vx=("v0", "v1", "v2"),
        vr=(("v0", "v1"), ("v0", "v2")),
    )
    assert store.history.union_order() is None
    a, b, c = (ElementId(k) for k in "abc")
    assert reconstruct_version(store, "v1").relation == {(b, a)}
    with pytest.raises(T0ViolationError) as err:
        reconstruct_version(store, "v2")
    assert str(err.value) == "relation has a cycle, space is not T0: ['b', 'c', 'a']"
    assert err.value.cycle == [b, c, a]
    assert outcome(reconstruct_version, store, "v2") == outcome(
        oracles.reconstruct_version_by_hulls, store, "v2"
    )


def test_a_key_created_for_a_pair_that_named_it_joins_the_ends_and_the_order():
    # the pair (1, ghost) is a row before any row creates ghost; v1 deletes
    # it, v2 creates ghost, v3 links the pair again and v4 turns it round
    store = VersionStore(
        x=(XRow("1", 0, None, None, "v0"),),
        r=(RRow("1", "ghost", 0, "v0"),),
        delr=(DelRRow("1", "ghost", 0, "v1"),),
        vx=("v0", "v1"),
        vr=(("v0", "v1"),),
    )
    assert store.history.union_order() == [0, 1]  # ghost's column, created in no version
    store = commit(store, "v1", changeset("v2", [Element(ElementId("ghost"))]))
    store = commit(store, "v2", changeset("v3", add_pairs=[("1", "ghost")]))
    store = commit(store, "v3", changeset("v4", remove_pairs=[("1", "ghost")],
                                          add_pairs=[("ghost", "1")]))
    for v in ("v0", "v1", "v2", "v3"):  # read from the columns
        assert outcome(reconstruct_version, store, v) == outcome(
            oracles.reconstruct_version_by_hulls, store, v
        )
    assert store.history.union_order() is None  # 1 -> ghost -> 1
    _union_order_is_valid(store.history)
    _index_columns_match_the_row_built_ones(store)


def test_a_pair_naming_no_created_key_is_found_again_after_a_commit_forgets_the_ends():
    # v2 creates another key, and ghost's column, which the pair (1, ghost)
    # names, is still created in no version; v3 creates ghost in that
    # column, v4 links the pair again and v5 creates one more key
    store = VersionStore(
        x=(XRow("1", 0, None, None, "v0"),),
        r=(RRow("1", "ghost", 0, "v0"),),
        delr=(DelRRow("1", "ghost", 0, "v1"),),
        vx=("v0", "v1"),
        vr=(("v0", "v1"),),
    )
    for parent, changes, ghost_made in (
        ("v1", changeset("v2", [Element(ElementId("2"))]), False),
        ("v2", changeset("v3", [Element(ElementId("ghost"))]), True),
        ("v3", changeset("v4", add_pairs=[("1", "ghost")]), True),
        ("v4", changeset("v5", [Element(ElementId("3"))]), True),
    ):
        store = commit(store, parent, changes)
        keys, created = store.history.elements[:2]
        assert bool(created[keys.index(ElementId("ghost"))]) is ghost_made
        _index_columns_match_the_row_built_ones(store)
    for v in sorted(store.vx):
        assert outcome(reconstruct_version, store, v) == outcome(
            oracles.reconstruct_version_by_hulls, store, v
        )


def test_keys_put_in_one_gap_again_and_again_run_out_of_labels_and_find_the_order_anew():
    # each new key goes between the key put in before it and "2", halving
    # one gap between labels until none is left
    store = canonicalize(new_store("v0", text_space("ab")))
    reconstruct_version(store, "v0")  # the order is found, and then derived
    above, found_anew = ElementId("1"), 0
    for i in range(1, 80):
        new = ElementId(f"1.{i:02d}")
        changes = changeset(f"v{i}", [Element(new)], add_pairs=[(above, new), (new, "2")],
                            remove_pairs=[(above, "2")])
        store = commit(store, f"v{i - 1}", changes)
        above = new
        if store.history.order is None:  # no label was left: found on the next read
            found_anew += 1
            assert outcome(reconstruct_version, store, "v0") == outcome(
                oracles.reconstruct_version_by_hulls, store, "v0"
            )
        _union_order_is_valid(store.history)
    # a gap halves about fifty times before its labels run out, and the
    # order found anew labels the slots 0, 1, 2 ... again
    assert 1 <= found_anew <= 3
    assert len(reconstruct_version(store, "v79")) == 81


def test_a_chain_of_edits_with_no_store_indexes_each_space_as_build_space_does():
    # 80 keys put into one gap, each between the key put in before it and
    # "2", then most keys removed; each space is derived from the one before
    space = text_space("ab")

    def edit(changes):
        new = apply_changeset(space, changes)
        assert _index_facts(new) == _index_facts(build_space(new.elements.values(), new.relation))
        return new

    above = ElementId("1")
    for i in range(1, 81):
        new = ElementId(f"1.{i:02d}")
        space = edit(changeset(f"v{i}", [Element(new)], add_pairs=[(above, new), (new, "2")],
                               remove_pairs=[(above, "2")]))
        above = new
    for i in range(1, 61):
        space = edit(changeset(f"w{i}", remove_elements=[f"1.{i:02d}"]))
    assert [k.id for k in space.elements] == ["1", *(f"1.{i}" for i in range(61, 81)), "2"]


def _near_reads_each_version_index(store: VersionStore) -> None:
    """``HistoryIndex.near`` gives, for every key of every version that
    reads, the keys one relation step above and below it that the
    version's own index holds."""
    index = store.history
    for v in sorted(store.vx):
        try:
            idx = reconstruct_version(store, v).index
        except AlexdbError:  # a version that does not read is never a parent
            continue
        for k, i in idx.pos.items():
            above, below = index.near(v, k)
            assert sorted(above) == sorted(map(idx.keys.__getitem__, idx.inn[i])), (v, k)
            assert sorted(below) == sorted(map(idx.keys.__getitem__, idx.out[i])), (v, k)


def test_the_history_reads_each_key_s_neighbours_as_the_version_index_holds_them(tmp_path):
    # branching histories with keys created again, then a join of two
    # versions, whose row is read off the masks, and commits from it;
    # ``near`` is read after each commit, so the next one carries its lists
    joins = 0
    for seed in range(8):
        rnd = random.Random(seed)
        stores = builders.committed_history(rnd, max_commits=6)
        for store in stores:
            _near_reads_each_version_index(store)
        store = stores[-1]
        for a, b in sorted((a, b) for a in store.vx for b in store.vx if a < b):
            joined = dataclasses.replace(store, vx=store.vx + ("join",),
                                         vr=store.vr + ((a, "join"), (b, "join")))
            try:
                reconstruct_version(joined, "join")
            except AlexdbError:
                continue
            store, joins = joined, joins + 1
            break
        parents = sorted(store.vx)
        for i in range(6):
            parent = rnd.choice(parents)
            version = f"w{i}"
            changes = _random_edit(rnd, store, reconstruct_version(store, parent), version)
            try:
                store = commit(store, parent, changes)
            except AlexdbError:
                continue
            parents.append(version)
            _near_reads_each_version_index(store)
        _near_reads_each_version_index(load(save(store, tmp_path / str(seed))))
    assert joins >= 4


def test_a_key_created_on_a_store_naming_uncreated_keys_keeps_the_order(monkeypatch):
    # the pairs (1, ghost) and (1, wraith) name keys no row creates, which
    # have columns in the union's order; each commit derives the order
    # found once, whether it creates a new key or one of those two
    store = VersionStore(
        x=(XRow("1", 0, None, None, "v0"),),
        r=(RRow("1", "ghost", 0, "v0"), RRow("1", "wraith", 0, "v0")),
        delr=(DelRRow("1", "ghost", 0, "v1"), DelRRow("1", "wraith", 0, "v1")),
        vx=("v0", "v1"),
        vr=(("v0", "v1"),),
    )
    store.history  # noqa: B018 - build the index, and the version space's, before counting
    counts = Counter()
    real = topology._kahn

    def counted(out):
        counts["kahn"] += 1
        return real(out)

    monkeypatch.setattr(topology, "_kahn", counted)
    found = []
    for i, key in enumerate(["2", "3", "4", "ghost", "wraith", "5", "6"], 2):
        counts.clear()
        store = commit(store, f"v{i - 1}", changeset(f"v{i}", [Element(ElementId(key))],
                                                     add_pairs=[("1", key)]))
        found.append(counts["kahn"])
    assert found == [1, 0, 0, 0, 0, 0, 0]
    assert all(store.history.elements[1])
    _union_order_is_valid(store.history)
    for v in sorted(store.vx):
        assert outcome(reconstruct_version, store, v) == outcome(
            oracles.reconstruct_version_by_hulls, store, v
        )


def test_the_history_reads_neighbours_past_a_pair_that_named_an_uncreated_key(tmp_path):
    # v0 holds the pair (1, ghost) before any row creates ghost, so v0 does
    # not read; v3 creates ghost, which completes the pair's end, v4 links
    # the pair again and v5 removes 1, bridging 2 onto ghost
    store = VersionStore(
        x=(XRow("1", 0, None, None, "v0"),),
        r=(RRow("1", "ghost", 0, "v0"),),
        delr=(DelRRow("1", "ghost", 0, "v1"),),
        vx=("v0", "v1"),
        vr=(("v0", "v1"),),
    )
    for parent, changes in (
        ("v1", changeset("v2", [Element(ElementId("2"))], add_pairs=[("2", "1")])),
        ("v2", changeset("v3", [Element(ElementId("ghost"))])),
        ("v3", changeset("v4", add_pairs=[("1", "ghost")])),
        ("v4", changeset("v5", remove_elements=["1"])),
    ):
        _near_reads_each_version_index(store)
        store = commit(store, parent, changes)
    _near_reads_each_version_index(store)
    assert store.history.held[1].relation == {(ElementId("2"), ElementId("ghost"))}
    _near_reads_each_version_index(load(save(store, tmp_path / "ghost")))


def test_a_commit_on_a_store_whose_union_has_a_cycle_checks_the_new_space_itself():
    # sibling versions hold a -> b -> c and c -> a, so no one order of the
    # union orders every version
    store = new_store("v0", simple_space(["a", "b", "c"]))
    store = commit(store, "v0", changeset("v1", add_pairs=[("a", "b"), ("b", "c")]))
    store = commit(store, "v0", changeset("v2", add_pairs=[("c", "a")]))
    assert store.history.union_order() is None
    for parent, changes in (
        ("v1", changeset("v3", [Element(ElementId("d"))], add_pairs=[("c", "d")])),
        ("v2", changeset("v3", remove_elements=["a"], add_pairs=[("b", "c")])),
    ):
        got = commit(store, parent, changes)
        want = oracles.commit_by_rebuild(canonicalize(store), parent, changes)
        assert outcome(reconstruct_version, got, "v3") == outcome(reconstruct_version, want, "v3")
    # a cyclic new space is refused with the text and cycle ``build_space`` gives
    for parent, changes, cycle in (
        ("v1", changeset("v3", add_pairs=[("c", "a")]), ["b", "c", "a"]),
        ("v1", changeset("v3", [Element(ElementId("d"))], remove_elements=["b"],
                         add_pairs=[("c", "d"), ("d", "a")]), ["c", "d", "a"]),
        ("v2", changeset("v3", [Element(ElementId("0"))], add_pairs=[("a", "0"), ("0", "c")]),
         ["0", "c", "a"]),
    ):
        with pytest.raises(T0ViolationError) as err:
            commit(store, parent, changes)
        assert str(err.value) == f"relation has a cycle, space is not T0: {cycle}"
        assert err.value.cycle == [ElementId(k) for k in cycle]
        assert _committed(oracles.commit_by_rebuild, canonicalize(store), parent, changes) == (
            T0ViolationError, str(err.value)
        )


def _kept_order_holds(store: VersionStore) -> None:
    """The order the history index keeps lists every element slot with
    labels rising along it, and orders the space of every version that
    ``ordered`` names (every one, for the union's order)."""
    index = store.history
    order, labels, ordered = index.order, index.labels, index.ordered
    if type(order) is not list:
        return
    assert sorted(order) == list(range(len(index.slots)))
    assert all(labels[a] < labels[b] for a, b in zip(order, order[1:]))
    keys = index.elements[0]
    for v in sorted(store.vx):
        if ordered >> index.bit[v] & 1:
            space = reconstruct_version(store, v)
            slot = {k: index.slots[keys.index(k)] for k in space.elements}
            assert all(labels[slot[a]] < labels[slot[b]] for a, b in space.relation), v
    assert (index.order, index.ordered) == (order, ordered)  # the reads kept it


def test_the_order_a_history_keeps_orders_every_version_it_names(tmp_path):
    # text histories whose commits start from any version and remove a
    # letter, put a new one in, bring a removed one back at another place
    # or turn a pair round, so the union soon has a cycle; after each
    # commit the order kept holds for the versions it names, and every
    # commit gives the space the rebuilding reference gives
    cyclic = 0
    for seed in range(12):
        rnd = random.Random(seed)
        ids = [f"t{i:02d}" for i in range(12)]
        store = new_store("v0", text_space("ab" * 6, ids=ids))
        texts, newest = {"v0": ids}, "v0"
        for i in range(1, 30):
            parent = newest if rnd.random() < 0.7 else rnd.choice(sorted(texts))
            old, version = texts[parent], f"v{i}"
            j = rnd.randrange(1, len(old) - 1)
            gone = sorted(set().union(*texts.values()) - set(old))
            kind = rnd.choice(["remove", "insert", "again", "turn"])
            if kind == "remove" and len(old) > 4:
                changes = changeset(version, remove_elements=[old[j]])
                texts[version] = old[:j] + old[j + 1:]
            elif kind == "turn":  # the text is no longer a chain, and is not read as one
                changes = changeset(version, remove_pairs=[(old[j - 1], old[j])],
                                    add_pairs=[(old[j], old[j - 1])])
                texts[version] = old
            else:
                new = rnd.choice(gone) if kind == "again" and gone else f"n{i:02d}"
                changes = changeset(version, [Element(ElementId(new))],
                                    add_pairs=[(old[j - 1], new), (new, old[j])],
                                    remove_pairs=[(old[j - 1], old[j])])
                texts[version] = old[:j] + [new] + old[j:]
            want = _committed(oracles.commit_by_rebuild, canonicalize(store), parent, changes)
            got = _committed(commit, store, parent, changes)
            assert got == want
            if type(got) is tuple:  # refused: a turned pair closed a cycle
                del texts[version]
                continue
            store, newest = got, version
            assert outcome(reconstruct_version, store, version) == outcome(
                reconstruct_version, want, version
            )
            _kept_order_holds(store)
        cyclic += store.history.union_order() is None
        loaded = load(save(store, tmp_path / str(seed)))
        for v in sorted(store.vx):
            want = outcome(oracles.reconstruct_version_by_hulls, store, v)
            assert outcome(reconstruct_version, store, v) == want
            assert outcome(reconstruct_version, loaded, v) == want
        _kept_order_holds(store)
    assert cyclic >= 6


def test_a_checkout_runs_no_kahn_and_builds_no_index_until_its_first_query(monkeypatch):
    store = new_store("v0", text_space("abcdef"))
    for i, parent in enumerate(["v0", "v1", "v0"], 1):
        store = commit(store, parent, changeset(f"v{i}", remove_elements=[str(i + 1)]))
    store = canonicalize(store)  # an index built from the rows, holding no space
    store.history  # noqa: B018 - build the index, and the version space's, before counting
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(SpaceIndex, "__init__", counted("space index", SpaceIndex.__init__))
    monkeypatch.setattr(topology, "_kahn", counted("kahn", topology._kahn))
    spaces = [reconstruct_version(store, v) for v in sorted(store.vx)]
    # one Kahn order of the union of every version's space, none per version
    assert counts == Counter({"kahn": 1})
    assert [len(s) for s in spaces] == [6, 5, 4, 5]
    assert all(len(s.relation) == len(s) - 1 for s in spaces)
    assert counts == Counter({"kahn": 1})
    assert closure(spaces[2], [ElementId("1")]) == {ElementId(k) for k in "1456"}
    assert counts == Counter({"kahn": 1, "space index": 1})
    assert spaces[2].index.order is not None
    assert counts == Counter({"kahn": 1, "space index": 1})


def _random_edit(rnd: random.Random, store: VersionStore, space: Space, version: str):
    """A changeset against ``space``, a version of ``store``, of a kind
    drawn at random: removals (which insert bypass pairs), keys created
    again, pairs alone, a pair that closes a cycle or dangles, or a mix,
    often with a fresh element.  Some of them ``commit`` rejects."""
    keys = sorted(space.keys())
    pairs = sorted(space.relation)
    gone = sorted({ElementId(w.id, w.lod) for w in store.x} - space.keys())
    kind = rnd.choice(["remove", "again", "pairs", "cycle", "dangling", "mixed"])
    removed = [k for k in keys if rnd.random() < 0.3] if kind in ("remove", "mixed") else []
    kept = [k for k in keys if k not in removed]
    added = []
    if kind in ("again", "mixed"):
        for k in gone:
            if rnd.random() < 0.6:
                attributes = rnd.choice([{}, {"w": rnd.randint(0, 9)}, {"again": version}])
                added.append(Element(k, attributes=attributes))
    add_pairs, remove_pairs = [], []
    if kind in ("pairs", "mixed"):
        remove_pairs = [p for p in pairs if rnd.random() < 0.3]  # some through removed keys
        add_pairs = [(a, b) for a in kept for b in kept if a < b and rnd.random() < 0.1]
    if kind == "cycle" and pairs:
        p = rnd.choice(pairs)
        add_pairs.append((p.idb, p.ida))
    if kind == "dangling":
        end = rnd.choice(gone + [ElementId("ghost")])
        add_pairs.append((rnd.choice(keys or [end]), end))
    if kept and rnd.random() < 0.2:
        k = rnd.choice(kept)
        add_pairs.append((k, k))  # reflexive: dropped
    if rnd.random() < 0.6:
        lod = 1 if rnd.random() < 0.1 else 0  # a pair across levels is refused
        fresh = ElementId(f"n{version}", lod)
        target = rnd.choice(kept + gone) if kept and rnd.random() < 0.2 else None
        added.append(Element(fresh, gen_target=target, attributes={"w": rnd.randint(0, 9)}))
        if kept:
            anchor = rnd.choice(kept)
            add_pairs.append((anchor, fresh) if rnd.random() < 0.5 else (fresh, anchor))
    return changeset(version, added, removed, add_pairs, remove_pairs)


def _committed(fn, store, parent, changes):
    """The store ``fn`` commits, or the type and text of its error."""
    try:
        return fn(store, parent, changes)
    except AlexdbError as exc:
        return type(exc), str(exc)


def _saved(store: VersionStore, directory: str) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in save(store, directory).iterdir()}


@given(st.integers(0, 2**32))
@settings(max_examples=40)
def test_commit_matches_the_rebuilding_reference(seed):
    """Commits derive the child's space, index, rows and CSV lines from the
    parent's; ``oracles.commit_by_rebuild`` builds them anew, from a store
    whose index is read from its rows.  Most commits start from the
    version the previous one made, so derivations chain."""
    rnd = random.Random(seed)
    base = builders.random_space(rnd, max_n=8, p=0.35)
    elements = [Element(k, attributes={"w": i}) for i, k in enumerate(sorted(base.keys()))]
    store = new_store("v00", build_space(elements, base.relation))
    newest = "v00"
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(1, rnd.randint(2, 40)):
            parent = newest if rnd.random() < 0.7 else rnd.choice(store.vx)
            version = f"v{i:02d}"
            changes = _random_edit(rnd, store, reconstruct_version(store, parent), version)
            got = _committed(commit, store, parent, changes)
            want = _committed(oracles.commit_by_rebuild, canonicalize(store), parent, changes)
            assert got == want
            if isinstance(want, tuple):
                continue
            held = got.history.held[1]
            read = reconstruct_version(canonicalize(got), version)
            assert list(held.elements.items()) == list(read.elements.items())
            assert held.relation == read.relation
            assert _index_facts(held) == _index_facts(read)
            _index_columns_match_the_row_built_ones(got)
            # the kept lines write what a fresh store's rows write
            assert _saved(got, f"{tmp}/{i}") == _saved(canonicalize(got), f"{tmp}/cold{i}")
            store, newest = got, version


# ---------------------------------------------------------------------------
# merge


def test_merging_identical_spaces_reports_nothing():
    space = demos.house()
    merged, report = merge(space, space, rules=["t0", "linear-dag"])
    assert report.inherent == ()
    assert set(merged.keys()) == set(space.keys())
    assert merged.relation == space.relation


def test_inherent_conflicts_list_disagreeing_payloads():
    a = simple_space(["n"])
    a.elements[ElementId("n")].attributes["colour"] = "red"
    b = simple_space(["n"])
    b.elements[ElementId("n")].attributes["colour"] = "blue"
    _, report = merge(a, b)
    assert len(report.inherent) == 1
    conflict = report.inherent[0]
    assert conflict.attribute == "colour"
    assert {conflict.value_a, conflict.value_b} == {"red", "blue"}


def test_one_sided_attributes_do_not_conflict():
    a = simple_space(["n"])
    a.elements[ElementId("n")].attributes["colour"] = "red"
    b = simple_space(["n"])
    merged, report = merge(a, b)
    assert report.ok
    assert merged.elements[ElementId("n")].attributes["colour"] == "red"


def test_merge_surfaces_cycles_through_the_t0_rule():
    a = simple_space(["x", "y"], [("x", "y")])
    b = simple_space(["x", "y"], [("y", "x")])
    merged, report = merge(a, b, rules=["t0"])
    assert len(merged.relation) == 2
    assert any(c.rule == "t0" for c in report.consistency)


def test_merge_conflicts_do_not_depend_on_argument_order():
    help_doc = reconstruct_version(demos.help_store(), "v1")
    halo_doc = reconstruct_version(demos.halo_store(), "v2")
    ab, rep_ab = merge(help_doc, halo_doc, rules=["t0", "linear-dag"])
    ba, rep_ba = merge(halo_doc, help_doc, rules=["t0", "linear-dag"])
    assert set(ab.keys()) == set(ba.keys())
    assert ab.relation == ba.relation
    assert set(rep_ab.consistency) == set(rep_ba.consistency)
    assert set(rep_ab.inherent) == set(
        type(c)(c.subject, c.attribute, c.value_b, c.value_a) for c in rep_ba.inherent
    )


def test_two_document_merge_golden():
    help_doc = reconstruct_version(demos.help_store(), "v1")
    halo_doc = reconstruct_version(demos.halo_store(), "v2")
    merged, report = merge(help_doc, halo_doc, rules=["t0", "linear-dag"])
    assert {
        k.id: merged.elements[k].attributes.get("letter") for k in merged.keys()
    } == {"1": "h", "2": "e", "3": "l", "5": "o", "6": "p", "7": "a"}
    assert {(p.ida.id, p.idb.id) for p in merged.relation} == {
        ("1", "2"),
        ("1", "7"),
        ("2", "3"),
        ("3", "5"),
        ("3", "6"),
        ("7", "3"),
    }
    assert report.inherent == ()
    details = sorted(
        (c.rule, tuple(str(w) for w in c.witnesses)) for c in report.consistency
    )
    assert details == [
        ("linear-dag", ("1", "2", "7")),
        ("linear-dag", ("3", "2", "7")),
        ("linear-dag", ("3", "5", "6")),
    ]


def test_linear_dag_reports_a_cycle_and_a_split_into_components():
    a, b = ElementId("a"), ElementId("b")
    cyclic = build_space(
        [Element(a), Element(b)], [BoundedByPair(a, b), BoundedByPair(b, a)], t0_check=False
    )
    assert consistency_rule("linear-dag")(cyclic) == [
        ConsistencyConflict("linear-dag", (b, a), "relation has a cycle")
    ]
    # the smallest of three components is the witness
    apart = simple_space(["a", "b", "c", "d", "e"], [("a", "b"), ("c", "d")])
    assert consistency_rule("linear-dag")(apart) == [
        ConsistencyConflict("linear-dag", (ElementId("e"),), "3 components, not one chain")
    ]


def test_merge_reports_a_key_generalising_to_two_targets():
    p, q = ElementId("p", 1), ElementId("q", 1)
    left = build_space([Element(ElementId("a"), gen_target=p), Element(p), Element(q)], [])
    right = build_space([Element(ElementId("a"), gen_target=q), Element(p), Element(q)], [])
    merged, report = merge(left, right)
    assert report.inherent == (InherentConflict(ElementId("a"), "gen_target", p, q),)
    assert merged.elements[ElementId("a")].gen_target == p


def test_unknown_rules_are_rejected_and_custom_rules_run(rule_registry):
    with pytest.raises(NotFoundError):
        consistency_rule("no-such-rule")

    def max_two(space):
        if len(space.elements) <= 2:
            return []
        return [ConsistencyConflict("max-two", tuple(sorted(space.keys())), "too big")]

    register_rule("max-two", max_two)
    _, report = merge(demos.house(), demos.house(), rules=["max-two"])
    assert [c.rule for c in report.consistency] == ["max-two"]


# ---------------------------------------------------------------------------
# text chains


def test_text_space_is_a_labelled_chain():
    doc = text_space("hi", version="v0")
    assert [doc.elements[k].attributes["letter"] for k in sorted(doc.keys())] == ["h", "i"]
    assert {(p.ida.id, p.idb.id) for p in doc.relation} == {("1", "2")}
    assert consistency_rule("linear-dag")(doc) == []


def test_text_space_requires_one_id_per_character():
    with pytest.raises(DuplicateKeyError):
        text_space("abc", ids=["1", "2"])
