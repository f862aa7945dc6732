"""Tests for the CSV store: round-trips, commits, validation, queries."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import alexdb.storage
import builders
from alexdb import demos
from alexdb.errors import (
    DuplicateKeyError,
    ForeignKeyError,
    NotFoundError,
    StoreFormatError,
)
from alexdb.spacetime import PointRow
from alexdb.storage import (
    AttRow,
    DelXRow,
    RRow,
    VersionStore,
    XRow,
    canonicalize,
    commit,
    foreign_key_violations,
    load,
    new_store,
    reconstruct_version,
    save,
    validate,
    versions_with_path,
)
from alexdb.topology import BoundedByPair, Element, ElementId, build_space, simple_space
from alexdb.versioning import changeset


def read_text(store_dir, name):
    return (store_dir / name).read_text(encoding="utf-8")


def chain_text(space) -> str:
    """Letters of a linear chain, in chain order."""
    starts = set(space.keys()) - {p.idb for p in space.relation}
    nxt = {p.ida: p.idb for p in space.relation}
    (cur,) = starts
    out = [space.elements[cur].attributes["letter"]]
    while cur in nxt:
        cur = nxt[cur]
        out.append(space.elements[cur].attributes["letter"])
    return "".join(out)


# ---------------------------------------------------------------------------
# serialisation


def test_single_version_chain_saves_to_exact_csv(tmp_path):
    save(new_store("v0", demos.chain4()), tmp_path)
    assert read_text(tmp_path, "X.csv") == (
        "id,lod,gid,glod,version\n"
        "x0,0,,,v0\n"
        "x1,0,,,v0\n"
        "x2,0,,,v0\n"
        "x3,0,,,v0\n"
    )
    assert read_text(tmp_path, "R.csv") == (
        "ida,idb,lod,version\n"
        "x1,x0,0,v0\n"
        "x2,x1,0,v0\n"
        "x3,x2,0,v0\n"
    )
    assert read_text(tmp_path, "VX.csv") == "version\nv0\n"
    assert read_text(tmp_path, "Atts.csv") == "id,lod,name,value\n"
    assert read_text(tmp_path, "VR.csv") == "fromv,tov\n"
    assert read_text(tmp_path, "Point.csv") == "pid,lod,x,y,z,t\n"


def test_saving_is_deterministic(tmp_path):
    store = demos.text_store()
    save(store, tmp_path / "a")
    save(store, tmp_path / "b")
    for name in ("X", "R", "Point", "DelX", "DelR", "VX", "VR", "Atts"):
        assert read_text(tmp_path / "a", f"{name}.csv") == read_text(
            tmp_path / "b", f"{name}.csv"
        )


def test_a_failed_save_leaves_the_previous_store_in_place(tmp_path, monkeypatch):
    target = tmp_path / "store"
    save(demos.text_store(), target)
    before = {f.name: f.read_bytes() for f in target.iterdir()}
    newer = commit(demos.text_store(), "v0", changeset("v9", remove_elements=["1"]))
    real_writer = alexdb.storage.csv.writer
    opened = []

    def failing_writer(fh, **kwargs):
        opened.append(fh)
        if len(opened) == 4:  # the fourth of eight tables
            raise OSError("disk full")
        return real_writer(fh, **kwargs)

    monkeypatch.setattr(alexdb.storage.csv, "writer", failing_writer)
    with pytest.raises(OSError, match="disk full"):
        save(newer, target)
    monkeypatch.undo()
    assert {f.name: f.read_bytes() for f in target.iterdir()} == before
    assert load(target) == canonicalize(demos.text_store())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]  # staging removed


@pytest.mark.parametrize("name", sorted(demos.demo_stores()))
def test_demo_stores_round_trip(name, tmp_path):
    store = demos.demo_stores()[name]
    save(store, tmp_path)
    assert load(tmp_path) == canonicalize(store)


@given(rnd=st.randoms(use_true_random=False))
def test_random_stores_round_trip(rnd, tmp_path_factory):
    store = builders.random_store(rnd)
    target = tmp_path_factory.mktemp("store")
    save(store, target)
    assert load(target) == canonicalize(store)


def test_floats_survive_the_round_trip_exactly(tmp_path):
    tricky = 0.1 + 0.2  # 0.30000000000000004
    space = simple_space(["p"])
    space.elements[ElementId("p")].attributes["weight"] = tricky
    store = new_store("v0", space, [PointRow(ElementId("p"), tricky, -0.0, 1e-17, 3.0)])
    save(store, tmp_path)
    back = load(tmp_path)
    (pt,) = back.point
    assert (pt.x, pt.y, pt.z, pt.t) == (tricky, -0.0, 1e-17, 3.0)
    (att,) = back.atts
    assert att.value == tricky and isinstance(att.value, float)


def test_attribute_values_are_typed_by_their_shape(tmp_path):
    space = simple_space(["p"])
    attrs = space.elements[ElementId("p")].attributes
    attrs["count"] = 7
    attrs["ratio"] = 1.5
    attrs["name"] = "wall"
    attrs["padded"] = "007"  # not canonical int text, stays a string
    attrs["trailing"] = "1.50"  # not canonical float text, stays a string
    save(new_store("v0", space), tmp_path)
    values = {a.name: a.value for a in load(tmp_path).atts}
    assert values == {
        "count": 7,
        "ratio": 1.5,
        "name": "wall",
        "padded": "007",
        "trailing": "1.50",
    }
    assert isinstance(values["count"], int)
    assert isinstance(values["ratio"], float)


def test_strings_shaped_like_numbers_collapse_to_numbers(tmp_path):
    # documented limit: the text "7" is indistinguishable from the number 7
    space = simple_space(["p"])
    space.elements[ElementId("p")].attributes["label"] = "7"
    save(new_store("v0", space), tmp_path)
    (att,) = load(tmp_path).atts
    assert att.value == 7 and isinstance(att.value, int)


def test_cross_level_pairs_are_not_storable():
    space = build_space(
        [Element(ElementId("a", 0)), Element(ElementId("b", 1))],
        [BoundedByPair(ElementId("a", 0), ElementId("b", 1))],
    )
    with pytest.raises(StoreFormatError):
        new_store("v0", space)


# ---------------------------------------------------------------------------
# load-time failures


def test_loading_a_missing_directory_fails(tmp_path):
    with pytest.raises(StoreFormatError):
        load(tmp_path / "nowhere")


def test_loading_with_a_missing_table_fails(tmp_path):
    save(demos.text_store(), tmp_path)
    (tmp_path / "Atts.csv").unlink()
    with pytest.raises(StoreFormatError):
        load(tmp_path)


def test_loading_with_a_wrong_header_fails(tmp_path):
    save(demos.text_store(), tmp_path)
    body = read_text(tmp_path, "X.csv").splitlines()[1:]
    (tmp_path / "X.csv").write_text(
        "\n".join(["id,lod,version"] + body) + "\n", encoding="utf-8"
    )
    with pytest.raises(StoreFormatError):
        load(tmp_path)


def test_loading_with_a_short_row_fails(tmp_path):
    save(demos.text_store(), tmp_path)
    with open(tmp_path / "R.csv", "a", encoding="utf-8") as fh:
        fh.write("1,2\n")
    with pytest.raises(StoreFormatError):
        load(tmp_path)


def test_loading_with_a_bad_integer_fails(tmp_path):
    save(demos.text_store(), tmp_path)
    with open(tmp_path / "X.csv", "a", encoding="utf-8") as fh:
        fh.write("9,zero,,,v0\n")
    with pytest.raises(StoreFormatError):
        load(tmp_path)


def test_loading_with_one_sided_generalisation_fails(tmp_path):
    save(demos.text_store(), tmp_path)
    with open(tmp_path / "X.csv", "a", encoding="utf-8") as fh:
        fh.write("9,0,target,,v0\n")
    with pytest.raises(StoreFormatError):
        load(tmp_path)


def test_loading_duplicate_rows_fails(tmp_path):
    save(demos.text_store(), tmp_path)
    line = read_text(tmp_path, "X.csv").splitlines()[1]
    with open(tmp_path / "X.csv", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    with pytest.raises(DuplicateKeyError):
        load(tmp_path)


def test_loading_broken_foreign_keys_fails(tmp_path):
    save(demos.text_store(), tmp_path)
    with open(tmp_path / "R.csv", "a", encoding="utf-8") as fh:
        fh.write("1,ghost,0,v0\n")
    with pytest.raises(ForeignKeyError):
        load(tmp_path)


# ---------------------------------------------------------------------------
# commits


def test_commit_rejects_existing_versions_and_unknown_parents():
    store = demos.path_store()
    with pytest.raises(DuplicateKeyError):
        commit(store, "v1", changeset("v2"))
    with pytest.raises(NotFoundError):
        commit(store, "v9", changeset("v4"))


def test_commit_nets_out_transient_pairs():
    store = demos.text_store()
    # dropping letters 4 and 5 together at v1 never records the bypass
    # pair (3,5) that removing 4 alone would have created ...
    assert [(w.ida, w.idb, w.version) for w in store.delr if w.version == "v1"] == [
        ("3", "4", "v1"),
        ("4", "5", "v1"),
    ]
    assert [(w.ida, w.idb) for w in store.r if w.version == "v1"] == [("3", "6")]
    # ... while dropping letter 4 alone at v2 does create it
    assert ("3", "5", "v2") in {(w.ida, w.idb, w.version) for w in store.r}
    assert [(w.id, w.version) for w in store.delx] == [
        ("2", "v2"),
        ("4", "v1"),
        ("4", "v2"),
        ("5", "v1"),
    ]


def test_committed_stores_reconstruct_every_branch():
    store = demos.text_store()
    assert chain_text(reconstruct_version(store, "v0")) == "hello"
    assert chain_text(reconstruct_version(store, "v1")) == "help"
    assert chain_text(reconstruct_version(store, "v2")) == "halo"


def test_reintroduced_elements_keep_their_attributes():
    space = simple_space(["a", "b"], [("a", "b")])
    space.elements[ElementId("a")].attributes["letter"] = "a"
    store = new_store("v0", space)
    store = commit(store, "v0", changeset("v1", remove_elements=["a"]))
    back = Element(ElementId("a"), attributes={"letter": "a"})
    store = commit(
        store, "v1", changeset("v2", add_elements=[back], add_pairs=[("a", "b")])
    )
    assert [(w.id, w.name) for w in store.atts] == [("a", "letter")]
    restored = reconstruct_version(store, "v2")
    assert restored.elements[ElementId("a")].attributes["letter"] == "a"


def test_contradicting_attributes_on_reintroduction_are_rejected():
    space = simple_space(["a"])
    space.elements[ElementId("a")].attributes["letter"] = "a"
    store = new_store("v0", space)
    store = commit(store, "v0", changeset("v1", remove_elements=["a"]))
    clash = Element(ElementId("a"), attributes={"letter": "z"})
    with pytest.raises(DuplicateKeyError):
        commit(store, "v1", changeset("v2", add_elements=[clash]))


def test_duplicate_coordinate_rows_are_rejected():
    store = new_store(
        "v0", simple_space(["p"]), [PointRow(ElementId("p"), 0.0, 0.0, 0.0, 0.0)]
    )
    with pytest.raises(DuplicateKeyError):
        commit(
            store,
            "v0",
            changeset("v1", add_elements=[Element(ElementId("q"))]),
            points=[PointRow(ElementId("p"), 1.0, 0.0, 0.0, 0.0)],
        )


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize("name", sorted(demos.demo_stores()))
def test_demo_stores_validate_clean(name):
    assert validate(demos.demo_stores()[name]) == []


def test_regions_store_passes_the_optional_rules():
    issues = validate(demos.regions_store(), rules=["surjective", "monotonic"])
    assert issues == []


def test_faulty_regions_store_breaks_generalisation_continuity():
    issues = validate(demos.regions_store(faulty=True))
    kinds = {i.rule for i in issues}
    assert kinds == {"cfk-continuity"}
    (issue,) = issues
    witness = tuple(k.id for k in issue.witnesses)
    assert witness == ("B", "bc")


def test_validate_reports_version_cycles_on_the_version_table():
    store = VersionStore(vx=("v0", "v1"), vr=(("v0", "v1"), ("v1", "v0")))
    issues = validate(store)
    assert [i.rule for i in issues] == ["t0"]
    assert issues[0].subject == "VR"


def test_validate_reports_cyclic_element_relations_per_version():
    store = VersionStore(
        x=(XRow("a", 0, None, None, "v0"), XRow("b", 0, None, None, "v0")),
        r=(RRow("a", "b", 0, "v0"), RRow("b", "a", 0, "v0")),
        vx=("v0",),
    )
    issues = validate(store)
    assert [i.rule for i in issues] == ["t0"]
    assert issues[0].subject == "version v0"


def test_validate_reports_deletions_without_creations():
    store = VersionStore(
        x=(XRow("a", 0, None, None, "v1"),),
        delx=(DelXRow("a", 0, "v0"),),
        vx=("v0", "v1"),
        vr=(("v0", "v1"),),
    )
    issues = validate(store)
    assert {i.rule for i in issues} == {"integrity"}
    assert {i.subject for i in issues} == {"version v0", "version v1"}


def test_validate_reports_duplicates_and_every_foreign_key():
    dup = XRow("a", 0, None, None, "v0")
    store = VersionStore(
        x=(dup, dup, XRow("b", 0, "ghost", 1, "v9")),
        r=(RRow("b", "ghost", 0, "v0"),),
        point=(PointRow(ElementId("ghost"), 0.0, 0.0, 0.0, 0.0),),
        delx=(DelXRow("ghost", 0, "v0"),),
        atts=(AttRow("ghost", 0, "name", "x"),),
        vx=("v0",),
        vr=(("v0", "nope"),),
    )
    issues = validate(store)
    rules = sorted(i.rule for i in issues)
    assert rules.count("duplicate-row") == 1
    subjects = {i.subject for i in issues if i.rule == "foreign-key"}
    assert {
        "X.version→VX",
        "X.(gid,glod)→X",
        "R.idb→X",
        "Point.pid→X",
        "DelX.id→X",
        "Atts.id→X",
        "VR.tov→VX",
    } <= subjects


def test_foreign_key_checks_cover_every_schema_reference():
    from alexdb.storage import DelRRow

    store = VersionStore(
        x=(XRow("a", 0, "ghost", 9, "v9"),),
        r=(RRow("no", "way", 3, "v9"),),
        point=(PointRow(ElementId("ghost2"), 0.0, 0.0, 0.0, 0.0),),
        delx=(DelXRow("ghost3", 0, "v9"),),
        delr=(DelRRow("na", "nb", 0, "v9"),),
        vx=(),
        vr=(("lost", "gone"),),
        atts=(AttRow("ghost4", 0, "k", 1),),
    )
    subjects = {i.subject for i in foreign_key_violations(store)}
    assert subjects == {
        "X.version→VX",
        "X.(gid,glod)→X",
        "R.ida→X",
        "R.idb→X",
        "R.version→VX",
        "Point.pid→X",
        "DelX.id→X",
        "DelX.version→VX",
        "DelR.ida→X",
        "DelR.idb→X",
        "DelR.version→VX",
        "VR.fromv→VX",
        "VR.tov→VX",
        "Atts.id→X",
    }


# ---------------------------------------------------------------------------
# cross-version path queries


def test_versions_with_path_tracks_link_history():
    store = demos.path_store()
    a, b = ElementId("a"), ElementId("b")
    region = [a, b]
    assert versions_with_path(store, a, b, region) == {"v1", "v3"}


def test_versions_with_path_requires_endpoints_in_region():
    store = demos.path_store()
    a, b = ElementId("a"), ElementId("b")
    with pytest.raises(NotFoundError):
        versions_with_path(store, a, b, [a])


def test_filtered_and_direct_region_queries_agree():
    store = demos.regions_store()
    a = ElementId("A")
    c = ElementId("C")
    region = [k for k in (ElementId("A"), ElementId("ab"), ElementId("B"),
                          ElementId("bc"), ElementId("C"))]
    direct = versions_with_path(store, a, c, region)
    filtered = versions_with_path(store, a, c, region, rules=["monotonic"])
    assert direct == filtered == {"v1"}


@given(st.randoms(use_true_random=False))
def test_filtered_region_queries_agree_on_random_two_level_stores(rnd):
    store = builders.two_level_store(rnd)
    keys = sorted(k for k in {ElementId(w.id, w.lod) for w in store.x} if k.lod == 0)
    if len(keys) < 2:
        return
    a, b = rnd.choice(keys), rnd.choice(keys)
    region = [k for k in keys if rnd.random() < 0.7] + [a, b]
    direct = versions_with_path(store, a, b, region)
    filtered = versions_with_path(store, a, b, region, rules=["monotonic"])
    assert direct == filtered
