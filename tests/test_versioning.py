"""Tests for version spaces, changesets, liveness, and merging."""
from __future__ import annotations

import dataclasses
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import builders
import oracles
from alexdb import demos
from alexdb.algebra import select_subspace
from alexdb.errors import (
    AlexdbError,
    DuplicateKeyError,
    IntegrityError,
    NotFoundError,
    T0ViolationError,
)
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
    build_space,
    find_cycle,
    simple_space,
)
from alexdb.versioning import (
    ConsistencyConflict,
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


def _same_everywhere(store: VersionStore, directory: str) -> None:
    """Every version reads the same from ``store``, from a saved and loaded
    copy of it and from the per-call reference."""
    loaded = load(save(store, directory))
    for v in sorted(store.vx) + ["nope"]:
        want = outcome(oracles.reconstruct_version_by_hulls, store, v)
        assert outcome(reconstruct_version, store, v) == want
        assert outcome(reconstruct_version, loaded, v) == want


@given(st.integers(0, 2**32))
def test_committed_histories_read_like_their_rows(seed):
    stores = builders.committed_history(random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        for i, store in enumerate(stores):
            _same_everywhere(store, f"{tmp}/s{i}")
        # parents again, now that their children exist
        for i, store in enumerate(stores[:-1]):
            _same_everywhere(store, f"{tmp}/s{i}")


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
    index = store.history
    for column, want in oracles.history_columns_by_rows(store).items():
        assert getattr(index, column) == want, column
    keys = index.elements[0]
    for pair, *at in zip(index.pairs[0], *index.pair_ends()):
        for end, i in zip(pair, at):
            assert keys[i] == end if i >= 0 else end not in keys


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


def _index_facts(space: Space):
    """The index of ``space`` by key: its keys, what each key is bounded by
    and bounds, its depths and its ``inn_pairs`` as sets.  Checks on the
    way that ``pos``, ``out``, ``inn``, ``order`` and ``inn_pairs`` agree
    with the space."""
    idx = space.index
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

    store = builders.committed_history(rnd, max_commits=4)[-1]
    with tempfile.TemporaryDirectory() as tmp:
        store = load(save(store, f"{tmp}/store"))
    for v in sorted(store.vx):
        got = reconstruct_version(store, v)
        facts = _index_facts(got)
        assert facts == _index_facts(_lazy(got))
        assert facts == _index_facts(build_space(got.elements.values(), got.relation))


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


def test_unknown_rules_are_rejected_and_custom_rules_run():
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
