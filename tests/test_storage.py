"""Tests for the CSV store: round-trips, commits, validation, queries."""
from __future__ import annotations

import csv
import dataclasses
import math
import os
import random
import sys
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import alexdb.storage
import builders
import oracles
from alexdb import demos
from alexdb.cli import main
from alexdb.errors import (
    DuplicateKeyError,
    ForeignKeyError,
    NotFoundError,
    StoreFormatError,
)
from alexdb.spacetime import PointRow
from alexdb.storage import (
    AttRow,
    DelRRow,
    DelXRow,
    RRow,
    ValidationIssue,
    VersionStore,
    XRow,
    canonicalize,
    commit,
    foreign_key_violations,
    load,
    new_store,
    reconstruct_version,
    save,
    region_elements,
    validate,
    versions_with_path,
)
from alexdb.topology import BoundedByPair, Element, ElementId, build_space, simple_space
from alexdb.versioning import ConsistencyConflict, changeset, register_rule


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
    # the committed store writes the CSV lines it keeps; the same rows in a
    # fresh store are formatted as they are written
    for store in (newer, canonicalize(newer)):
        opened = []

        def failing_open(file, mode="r", **kwargs):
            opened.append(file)
            if len(opened) == 4:  # the fourth of eight tables
                raise OSError("disk full")
            return open(file, mode, **kwargs)

        monkeypatch.setattr(alexdb.storage, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save(store, target)
        monkeypatch.undo()
        assert {f.name: f.read_bytes() for f in target.iterdir()} == before
        assert load(target) == canonicalize(demos.text_store())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]  # staging removed


def test_saving_onto_a_file_is_a_format_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("keep me", encoding="utf-8")
    for target in (blocker, blocker / "store"):
        with pytest.raises(StoreFormatError) as caught:
            save(demos.text_store(), target)
        assert str(caught.value) == (
            f"cannot save a store into {target}: it or a directory above it is a file"
        )
    assert blocker.read_text(encoding="utf-8") == "keep me"
    assert [p.name for p in tmp_path.iterdir()] == ["file"]  # no staging left behind


def _older_and_newer():
    older = demos.text_store()
    return older, commit(older, "v0", changeset("v9", remove_elements=["1"]))


def test_a_save_keeps_the_entries_that_are_not_tables(tmp_path):
    older, newer = _older_and_newer()
    target = tmp_path / "store"
    save(older, target)
    (target / "notes.txt").write_text("keep me", encoding="utf-8")
    (target / "extra").mkdir()
    (target / "extra" / "X.csv").write_text("not a table", encoding="utf-8")
    save(newer, target)
    assert load(target) == canonicalize(newer)
    assert (target / "notes.txt").read_text(encoding="utf-8") == "keep me"
    assert (target / "extra" / "X.csv").read_text(encoding="utf-8") == "not a table"
    assert [p.name for p in tmp_path.iterdir()] == ["store"]  # no sibling left behind


def test_a_store_path_that_is_a_link_stays_a_link(tmp_path):
    older, newer = _older_and_newer()
    real = tmp_path / "real"
    save(older, real)
    link = tmp_path / "link"
    link.symlink_to(real, target_is_directory=True)
    save(newer, link)
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert load(real) == load(link) == canonicalize(newer)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]


def test_a_save_keeps_the_mode_of_the_store_directory(tmp_path):
    older, newer = _older_and_newer()
    target = tmp_path / "store"
    save(older, target)
    target.chmod(0o750)
    save(newer, target)
    assert target.stat().st_mode & 0o7777 == 0o750
    # a new store directory gets the mode ``os.makedirs`` gives
    os.makedirs(tmp_path / "made")
    save(newer, tmp_path / "new")
    assert (tmp_path / "new").stat().st_mode == (tmp_path / "made").stat().st_mode


@pytest.mark.parametrize("every_later_one", [False, True], ids=["one", "every-later-one"])
def test_a_failed_rename_leaves_a_whole_store(tmp_path, monkeypatch, every_later_one):
    """Each ``os.rename`` of a save fails in turn (alone, or with every
    rename after it): ``load`` reads the previous store or the new one
    whole, and the next save leaves the store directory alone."""
    older, newer = _older_and_newer()
    rename = os.rename
    calls = []

    def counted(*args):
        calls.append(args)
        rename(*args)

    target = tmp_path / "store"
    save(older, target)
    (target / "notes.txt").write_text("keep me", encoding="utf-8")
    (target / "extra").mkdir()
    monkeypatch.setattr(os, "rename", counted)
    save(newer, target)
    monkeypatch.undo()
    # the swap's two renames, then one per entry carried over
    assert len(calls) == 4
    for fail_at in range(len(calls)):
        save(older, target)
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) - 1 == fail_at or (every_later_one and len(calls) - 1 > fail_at):
                raise OSError("rename failed")
            rename(*args)

        monkeypatch.setattr(os, "rename", failing)
        with pytest.raises(OSError, match="rename failed"):
            save(newer, target)
        monkeypatch.undo()
        assert load(target) in (canonicalize(older), canonicalize(newer)), fail_at
        if not every_later_one:  # a failed second rename moves the previous store back
            assert target.is_dir(), fail_at
        save(newer, target)
        assert load(target) == canonicalize(newer)
        assert [p.name for p in tmp_path.iterdir()] == ["store"], fail_at
        assert sorted(p.name for p in target.iterdir() if not p.name.endswith(".csv")) == [
            "extra", "notes.txt"
        ]


def test_a_swap_that_stopped_half_way_is_settled_by_the_next_save(tmp_path, monkeypatch):
    older, newer = _older_and_newer()
    target, old = tmp_path / "store", tmp_path / ".store.old"
    # stopped with the previous store swapped out: it is what ``load`` reads
    save(older, target)
    (target / "notes.txt").write_text("keep me", encoding="utf-8")
    target.rename(old)
    assert load(target) == canonicalize(older)
    assert [p.name for p in tmp_path.iterdir()] == [".store.old"]  # load writes nothing
    # a save that then fails while writing still leaves the previous store
    monkeypatch.setattr(alexdb.storage, "open", lambda *a, **k: 1 / 0, raising=False)
    with pytest.raises(ZeroDivisionError):
        save(newer, target)
    monkeypatch.undo()
    assert load(target) == canonicalize(older)
    assert [p.name for p in tmp_path.iterdir()] == ["store"]
    save(newer, target)
    assert load(target) == canonicalize(newer)
    assert [p.name for p in tmp_path.iterdir()] == ["store"]
    assert (target / "notes.txt").read_text(encoding="utf-8") == "keep me"
    # stopped with the new store in place and the previous one beside it
    save(older, old)
    (old / "more.txt").write_text("and me", encoding="utf-8")
    assert load(target) == canonicalize(newer)
    save(newer, target)
    assert [p.name for p in tmp_path.iterdir()] == ["store"]
    assert (target / "more.txt").read_text(encoding="utf-8") == "and me"
    # with neither, there is no store
    for p in target.iterdir():
        p.unlink()
    target.rmdir()
    with pytest.raises(StoreFormatError, match="no store directory"):
        load(target)


def test_boolean_attribute_values_are_refused_where_rows_are_built(tmp_path):
    flagged = Element(ElementId("b"), attributes={"flag": True})
    refused = "boolean attribute values are not part of the schema"
    with pytest.raises(StoreFormatError, match=refused):
        new_store("v0", build_space([Element(ElementId("a")), flagged], []))
    store = new_store("v0", simple_space(["a"]))
    with pytest.raises(StoreFormatError, match=refused):
        commit(store, "v0", changeset("v1", add_elements=[flagged], add_pairs=[("b", "a")]))
    # only a store built by hand holds one, and saving it writes nothing
    by_hand = VersionStore(
        x=[XRow("b", 0, None, None, "v0")], vx=("v0",), atts=[AttRow("b", 0, "flag", False)]
    )
    with pytest.raises(StoreFormatError, match=refused):
        save(by_hand, tmp_path / "store")
    assert not (tmp_path / "store").exists()


@pytest.mark.parametrize(
    "value", ["two\nlines", "cr\r\nlf", "sep\u2028line", "v\vtab\x1cfs", "q\"uote,"]
)
def test_a_committed_store_saves_the_bytes_of_a_fresh_one(tmp_path, value):
    """A committed store writes the CSV lines it keeps: fields holding line
    ends, which a split of the text at line ends would cut, included."""
    store = new_store("v0", simple_space(["a", "b"], [("a", "b")], {"a": {"note": value}}))
    store = commit(store, "v0", changeset(
        "v1", add_elements=[Element(ElementId("c"), attributes={"note": value, "n": 1.5})],
        remove_elements=["b"], add_pairs=[("a", "c")],
    ))
    save(store, tmp_path / "kept")
    save(canonicalize(store), tmp_path / "fresh")
    for f in (tmp_path / "fresh").iterdir():
        assert (tmp_path / "kept" / f.name).read_bytes() == f.read_bytes(), f.name
    assert load(tmp_path / "kept") == store


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


def _saved_bytes(store, directory):
    save(store, directory)
    return {f.name: f.read_bytes() for f in directory.iterdir()}


@given(rnd=st.randoms(use_true_random=False))
def test_a_store_puts_rows_given_in_any_order_in_canonical_order(rnd, tmp_path_factory):
    store = builders.random_store(rnd)
    tables = {f.name: list(getattr(store, f.name)) for f in dataclasses.fields(store)}
    for rows in tables.values():
        rnd.shuffle(rows)
    shuffled = VersionStore(**tables)
    assert shuffled == store
    fresh = canonicalize(store).history  # built from the canonical rows
    for column in ("names", "ancestry", "elements", "pairs", "broken"):
        assert getattr(shuffled.history, column) == getattr(fresh, column)
    assert _saved_bytes(shuffled, tmp_path_factory.mktemp("shuffled")) == _saved_bytes(
        store, tmp_path_factory.mktemp("canonical")
    )


ROWS = [
    (XRow("a", 1, "P", 2, "v0"), "XRow(id='a', lod=1, gid='P', glod=2, version='v0')"),
    (RRow("a", "b", 0, "v1"), "RRow(ida='a', idb='b', lod=0, version='v1')"),
    (DelXRow("a", 0, "v1"), "DelXRow(id='a', lod=0, version='v1')"),
    (DelRRow("a", "b", 0, "v1"), "DelRRow(ida='a', idb='b', lod=0, version='v1')"),
    (AttRow("a", 0, "name", 1.5), "AttRow(id='a', lod=0, name='name', value=1.5)"),
    (
        PointRow(ElementId("a", 1), 0.0, 1.0, 2.0, 3.0),
        "PointRow(key=ElementId(id='a', lod=1), x=0.0, y=1.0, z=2.0, t=3.0)",
    ),
]


def _more(value):
    """A value of the same kind that sorts after ``value``."""
    if isinstance(value, ElementId):
        return value._replace(id=value.id + "z")
    return value + ("z" if isinstance(value, str) else 1)


@pytest.mark.parametrize("row, text", ROWS, ids=[type(r).__name__ for r, _ in ROWS])
def test_a_row_is_the_plain_tuple_of_its_fields(row, text):
    fields = tuple(getattr(row, name) for name in row._fields)
    assert row == fields and hash(row) == hash(fields)
    assert repr(row) == text
    first, last = row._fields[0], row._fields[-1]
    later_first = row._replace(**{first: _more(row[0])})
    later_last = row._replace(**{last: _more(row[-1])})
    assert type(later_last) is type(row) and later_last == (*row[:-1], _more(row[-1]))
    assert sorted([later_first, later_last, row]) == [row, later_last, later_first]


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
    # texts that int() or float() accept, yet are not a canonical number
    odd = ["-0", "+7", " 7", "1_000", "\u0663", ""]
    # canonical float texts, read back as floats
    special = {"inf": math.inf, "-inf": -math.inf, "1e+16": 1e16}
    for text in [*odd, *special, "nan"]:
        attrs[f"text {text}"] = text
    save(new_store("v0", space), tmp_path)
    values = {a.name: a.value for a in load(tmp_path).atts}
    nan = values.pop("text nan")
    assert values == {
        "count": 7,
        "ratio": 1.5,
        "name": "wall",
        "padded": "007",
        "trailing": "1.50",
        **{f"text {text}": text for text in odd},
        **{f"text {text}": value for text, value in special.items()},
    }
    assert isinstance(values["count"], int)
    assert isinstance(values["ratio"], float)
    assert all(type(values[f"text {text}"]) is float for text in special)
    assert isinstance(nan, float) and math.isnan(nan)


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


def _set_field(line: int, column: int, text: str):
    """An edit of a CSV file's lines: field ``column`` of ``line`` becomes ``text``."""

    def edit(lines):
        fields = lines[line].split(",")
        fields[column] = text
        lines[line] = ",".join(fields)
        return lines

    return edit


# (demo store, [(file, edit of its lines; None deletes it)], error text)
LOAD_FAULTS = {
    "X.lod": ("regions", [("X.csv", _set_field(2, 1, "q"))], "X.lod: expected integer, got 'q'"),
    "X.glod": ("regions", [("X.csv", _set_field(3, 3, "q"))], "X.glod: expected integer, got 'q'"),
    "R.lod": (
        "regions", [("R.csv", _set_field(2, 2, "1.0"))], "R.lod: expected integer, got '1.0'"
    ),
    "Point.lod": (
        "regions", [("Point.csv", _set_field(2, 1, ""))], "Point.lod: expected integer, got ''"
    ),
    "Point.x": (
        "regions", [("Point.csv", _set_field(2, 2, "q"))], "Point.x: expected float, got 'q'"
    ),
    "Point.y": (
        "regions", [("Point.csv", _set_field(3, 3, "q"))], "Point.y: expected float, got 'q'"
    ),
    "Point.z": (
        "regions", [("Point.csv", _set_field(1, 4, "0x1"))], "Point.z: expected float, got '0x1'"
    ),
    "Point.t": (
        "regions", [("Point.csv", _set_field(4, 5, "q"))], "Point.t: expected float, got 'q'"
    ),
    "DelX.lod": (
        "text", [("DelX.csv", _set_field(2, 1, "q"))], "DelX.lod: expected integer, got 'q'"
    ),
    "DelR.lod": (
        "text", [("DelR.csv", _set_field(2, 2, "q"))], "DelR.lod: expected integer, got 'q'"
    ),
    "Atts.lod": (
        "text", [("Atts.csv", _set_field(3, 1, "q"))], "Atts.lod: expected integer, got 'q'"
    ),
    "the first bad field": (
        "regions",
        [("X.csv", _set_field(4, 1, "late")), ("X.csv", _set_field(3, 3, "early"))],
        "X.glod: expected integer, got 'early'",
    ),
    "gid without glod": (
        "regions",
        [("X.csv", _set_field(1, 3, ""))],
        "X.csv: generalisation columns must be both set or both empty in "
        "['A', '0', 'Ac', '', 'v1']",
    ),
    "width": (
        "text",
        [("R.csv", lambda lines: lines + ["1,2"])],
        "{store}/R.csv:10: expected 4 fields, got 2",
    ),
    "header": (
        "text",
        [("VR.csv", _set_field(0, 1, "to"))],
        "{store}/VR.csv: expected header ['fromv', 'tov'], got ['fromv', 'to']",
    ),
    "missing file": ("text", [("DelR.csv", None)], "missing store file {store}/DelR.csv"),
    # the tables are read in a fixed order, so the same fault is named
    "Atts before VX": (
        "text",
        [("Atts.csv", _set_field(1, 1, "q")), ("VX.csv", _set_field(0, 0, "v"))],
        "Atts.lod: expected integer, got 'q'",
    ),
}


@pytest.mark.parametrize("store, edits, text", LOAD_FAULTS.values(), ids=list(LOAD_FAULTS))
def test_load_names_the_first_fault(store, edits, text, tmp_path):
    save({"regions": demos.regions_store, "text": demos.text_store}[store](), tmp_path)
    for name, edit in edits:
        if edit is None:
            (tmp_path / name).unlink()
        else:
            lines = edit(read_text(tmp_path, name).splitlines())
            (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(StoreFormatError) as err:
        load(tmp_path)
    assert str(err.value) == text.format(store=tmp_path)


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
    with pytest.raises(ForeignKeyError) as err:
        load(tmp_path)
    row = "RRow(ida='1', idb='ghost', lod=0, version='v0')"
    assert str(err.value) == f"R row {row} references unknown idb"


def _write_file(path, data):
    """Turn the table file ``path`` into a directory (``data`` None) or give
    it the bytes ``data``."""
    path.unlink()
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)


# unreadable table files: (file, its new contents; None: a directory), the
# fault named
UNREADABLE = {
    "not UTF-8": ("Atts.csv", b"id,lod,name,value\n1,0,letter,\xff\n", "not UTF-8 text"),
    "a directory": ("R.csv", None, "a directory, not a table file"),
    "a field over the CSV limit": (
        "X.csv",
        b"id,lod,gid,glod,version\n" + b"x" * (csv.field_size_limit() + 1) + b",0,,,v0\n",
        "2: field larger than field limit",
    ),
}


@pytest.mark.parametrize("name, data, fault", UNREADABLE.values(), ids=list(UNREADABLE))
def test_an_unreadable_table_file_is_a_format_error_naming_it(
    name, data, fault, tmp_path, capsys
):
    save(demos.text_store(), tmp_path)
    _write_file(tmp_path / name, data)
    with pytest.raises(StoreFormatError) as err:
        load(tmp_path)
    assert str(err.value).startswith(f"{tmp_path / name}:")
    assert fault in str(err.value)
    assert main(["validate", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {err.value}\n")


def test_fields_longer_than_the_csv_limit_are_refused_where_rows_are_built(tmp_path):
    limit = csv.field_size_limit()
    at, over = "a" * limit, "a" * (limit + 1)
    store = new_store("v0", simple_space(["a"], [], {"a": {"note": at}}))
    save(store, tmp_path / "at")
    assert load(tmp_path / "at") == store
    refused = (
        f"Atts.value: a field of {limit + 1} characters is longer than "
        f"the CSV field limit ({limit}) that load reads"
    )
    with pytest.raises(StoreFormatError) as err:
        new_store("v0", simple_space(["a"], [], {"a": {"note": over}}))
    assert str(err.value) == refused
    long_id = Element(ElementId(over))
    with pytest.raises(StoreFormatError, match=r"^X\.id: a field of "):
        commit(store, "v0", changeset("v1", add_elements=[long_id]))
    with pytest.raises(StoreFormatError, match=r"^VX\.version: a field of "):
        commit(store, "v0", changeset(over))
    # only a store built by hand holds one, and saving it writes nothing
    by_hand = VersionStore(
        x=[XRow("a", 0, None, None, "v0")], vx=("v0",), atts=[AttRow("a", 0, "note", over)]
    )
    with pytest.raises(StoreFormatError) as err:
        save(by_hand, tmp_path / "over")
    assert str(err.value) == refused
    assert not (tmp_path / "over").exists()


#: What an injected fault adds to a store's tables: by fault, the field of
#: the table and the row, from an existing element (i, l) created in
#: version v, and names no table holds.
def _injected(fault, i, l, v, ghost, nov):
    return {
        "X.version→VX": ("x", XRow(f"inj{ghost}", 0, None, None, nov)),
        "X.(gid,glod)→X": ("x", XRow(f"inj{ghost}", 0, ghost, 1, v)),
        "R.ida→X": ("r", RRow(ghost, i, l, v)),
        "R.idb→X": ("r", RRow(i, ghost, l, v)),
        "R.version→VX": ("r", RRow(i, i, l, nov)),
        "Point.pid→X": ("point", PointRow(ElementId(ghost, l), 0.5, 0.0, 0.0, 1.0)),
        "DelX.id→X": ("delx", DelXRow(ghost, l, v)),
        "DelX.version→VX": ("delx", DelXRow(i, l, nov)),
        "DelR.ida→X": ("delr", DelRRow(ghost, i, l, v)),
        "DelR.idb→X": ("delr", DelRRow(i, ghost, l, v)),
        "DelR.version→VX": ("delr", DelRRow(i, i, l, nov)),
        "VR.fromv→VX": ("vr", (nov, v)),
        "VR.tov→VX": ("vr", (v, nov)),
        "Atts.id→X": ("atts", AttRow(ghost, l, "k", 1)),
    }[fault]


FOREIGN_KEY_FAULTS = [
    "X.version→VX", "X.(gid,glod)→X", "R.ida→X", "R.idb→X", "R.version→VX", "Point.pid→X",
    "DelX.id→X", "DelX.version→VX", "DelR.ida→X", "DelR.idb→X", "DelR.version→VX",
    "VR.fromv→VX", "VR.tov→VX", "Atts.id→X",
]


def _write_tables(directory, tables):
    """The CSV files of ``tables`` (by field), rows in the order given."""
    directory.mkdir()
    for t in alexdb.storage._TABLES.values():
        with open(directory / t.file, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(t.header)
            writer.writerows(alexdb.storage._fields(t, tables[t.field]))


@given(
    rnd=st.randoms(use_true_random=False),
    faults=st.lists(
        st.sampled_from(FOREIGN_KEY_FAULTS + ["duplicate", "out of order"]), min_size=1, max_size=4
    ),
)
def test_key_checks_match_the_row_by_row_reference(rnd, faults, tmp_path_factory):
    store = builders.random_store(rnd)
    tables = {f.name: list(getattr(store, f.name)) for f in dataclasses.fields(store)}
    for n, fault in enumerate(faults):
        if fault == "duplicate":
            rows = tables[rnd.choice([f for f, rows in tables.items() if rows])]
            rows.insert(rnd.randrange(len(rows) + 1), rnd.choice(rows))
        elif fault == "out of order":
            # a store of one element and one version has no two rows to swap
            longer = [f for f, rows in tables.items() if len(rows) > 1]
            if longer:
                tables[rnd.choice(longer)].reverse()
        else:
            x = rnd.choice(tables["x"])
            field, row = _injected(fault, x.id, x.lod, x.version, f"ghost{n}", f"nov{n}")
            tables[field].insert(rnd.randrange(len(tables[field]) + 1), row)
    directory = tmp_path_factory.mktemp("faults") / "store"
    _write_tables(directory, tables)
    expected = oracles.load_key_error_by_rows(tables)
    if expected is None:
        assert load(directory) == VersionStore(**tables)
    else:
        with pytest.raises(expected[0]) as err:
            load(directory)
        assert str(err.value) == expected[1]
    issues = oracles.key_issues_by_rows(tables)
    found = validate(VersionStore(**tables))
    assert found[: len(issues)] == issues
    assert not [
        i for i in found[len(issues):] if i.rule == "duplicate-row" or "→" in i.subject
    ]


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


def test_commit_rejects_a_missing_generalisation_target():
    store = demos.regions_store()
    # the fine elements A and ab generalise to Ac:1
    with pytest.raises(ForeignKeyError) as err:
        commit(store, "v1", changeset("vx", remove_elements=[ElementId("Ac", 1)]))
    assert str(err.value) == "element A would generalise to Ac:1, which is not in version 'vx'"
    orphan = Element(ElementId("q"), gen_target=ElementId("nope", 1))
    with pytest.raises(ForeignKeyError, match="element q would generalise to nope:1"):
        commit(store, "v1", changeset("vx", add_elements=[orphan]))
    # removing the fine elements with their target is fine
    fine = [k for k, e in reconstruct_version(store, "v1").elements.items()
            if e.gen_target == ElementId("Ac", 1)]
    ok = commit(store, "v1", changeset("vx", remove_elements=[ElementId("Ac", 1), *fine]))
    assert validate(ok) == []


def test_commit_rejects_a_pair_across_levels():
    store = demos.regions_store()
    across = (ElementId("Ac", 1), ElementId("A", 0))
    with pytest.raises(StoreFormatError, match="spans levels"):
        commit(store, "v1", changeset("vx", add_pairs=[across]))


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


#: Level 0 maps onto P:1 alone, so Q:1 is missed; every preimage is connected.
MISSED_STORE = dict(pairs=[("ab", "a"), ("ab", "b")], gen={"a": "P:1", "b": "P:1", "ab": "P:1"},
                    extra=("Q:1",))
#: X:1 is connected, its preimage {x, y} is not; nothing is missed.
SPLIT_STORE = dict(pairs=[], gen={"x": "X:1", "y": "X:1"})
#: Both defects on one transition: Z:1 is missed and X:1's preimage splits.
BOTH_STORE = dict(pairs=[], gen={"x": "X:1", "y": "X:1"}, extra=("Z:1",))

MISSED = alexdb.storage.ValidationIssue(
    "surjective", "version v1", "levels 0->1: targets missed: ['Q:1']", (ElementId("Q", 1),)
)
SPLIT = alexdb.storage.ValidationIssue(
    "monotonic", "version v1", "levels 0->1: disconnected preimage of ['X:1']", (ElementId("X", 1),)
)
MISSED_Z = alexdb.storage.ValidationIssue(
    "surjective", "version v1", "levels 0->1: targets missed: ['Z:1']", (ElementId("Z", 1),)
)


@pytest.mark.parametrize("rules", [["surjective", "monotonic"], ["monotonic", "surjective"]])
@pytest.mark.parametrize(
    "spec, expected", [(MISSED_STORE, [MISSED]), (SPLIT_STORE, [SPLIT])], ids=["missed", "split"]
)
def test_validate_reports_each_optional_rule_on_a_failing_store(spec, expected, rules):
    assert validate(builders.level_store(**spec), rules=rules) == expected


def test_validate_emits_optional_findings_in_rule_order():
    store = builders.level_store(**BOTH_STORE)
    assert validate(store, rules=["surjective", "monotonic"]) == [MISSED_Z, SPLIT]
    assert validate(store, rules=["monotonic", "surjective"]) == [SPLIT, MISSED_Z]
    assert validate(store, rules=["Monotonic", "t0", "monotonic"]) == [SPLIT, SPLIT]
    assert validate(store) == []


def test_validate_flags_a_disconnected_pair_preimage_among_16_targets():
    store = builders.unrealized_pair_store()
    assert len([k for k in reconstruct_version(store, "v1").keys() if k.lod == 1]) == 16
    t, u = ElementId("t", 1), ElementId("u", 1)
    issue = alexdb.storage.ValidationIssue(
        "monotonic", "version v1", "levels 0->1: disconnected preimage of ['t:1', 'u:1']", (t, u)
    )
    assert validate(store, ["monotonic"]) == [issue]
    assert validate(store, ["surjective"]) == []


def three_level_history():
    """Two versions of a store whose levels 0 -> 1 -> 2 are each mapped onto."""
    store = builders.level_store(
        pairs=[("ab", "a"), ("ab", "b")],
        gen={"a": "P:1", "b": "P:1", "ab": "P:1", "P:1": "T:2"},
    )
    added = Element(ElementId("c"), gen_target=ElementId("P", 1))
    return commit(store, "v1", changeset("v2", add_elements=[added], add_pairs=[("c", "a")]))


@pytest.mark.parametrize(
    "rules, calls",
    [
        ([], 0),
        (["t0"], 0),
        (["surjective"], 0),
        (["surjective", "monotonic"], 4),
        (["monotonic", "t0", "SURJECTIVE", "monotonic"], 4),
    ],
)
def test_validate_checks_each_level_transition_once_per_version(monkeypatch, rules, calls):
    import alexdb.algebra

    store = three_level_history()
    counted = {"check_map": 0, "is_connected": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counted[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(alexdb.lod, "check_map", counting("check_map", alexdb.lod.check_map))
    monkeypatch.setattr(
        alexdb.algebra, "is_connected", counting("is_connected", alexdb.algebra.is_connected)
    )
    assert validate(store, rules=rules) == []
    # two transitions in each of two versions; monotonicity only under its rule
    assert counted["check_map"] == calls
    if not calls:
        assert counted["is_connected"] == 0


@pytest.mark.parametrize(
    "store",
    [
        VersionStore(vx=("v0", "v1"), vr=(("v0", "v1"), ("v1", "v0"))),
        VersionStore(x=(XRow("1", 0, None, None, "v0"),), r=(RRow("1", "2", 0, "v0"),), vx=("v0",)),
        VersionStore(),
    ],
    ids=["cyclic-versions", "no-version-reads", "no-versions"],
)
def test_validate_refuses_an_unknown_rule_before_reading_the_store(store):
    with pytest.raises(NotFoundError, match="unknown consistency rule 'bogus'"):
        validate(store, ["bogus"])


def counted_rule(calls: list, finding=None):
    """A rule that records the size of each space it runs on and reports
    ``finding``, when given, on every one."""

    def rule(space):
        calls.append(len(space.elements))
        return [] if finding is None else [finding]

    return rule


def test_validate_runs_a_rule_once_per_version_and_reports_it_each_time_it_is_named(
    rule_registry,
):
    store = three_level_history()
    calls = []
    finding = ConsistencyConflict("x", (ElementId("a"),), "a is flagged")
    register_rule("x", counted_rule(calls, finding))
    issues = validate(store, ["x", "X", "x"])
    assert sorted(calls) == [5, 6]  # v1 and v2, once each
    v1, v2 = (
        ValidationIssue("x", f"version {v}", "a is flagged", (ElementId("a"),)) for v in ("v1", "v2")
    )
    assert issues == [v1, v1, v1, v2, v2, v2]


def test_validate_runs_a_registry_rule_named_twice_once_per_version(rule_registry):
    calls = []
    register_rule("t0", counted_rule(calls))
    assert validate(three_level_history(), ["t0", "T0"]) == []
    assert len(calls) == 2


def test_validate_runs_a_rule_registered_under_a_level_rule_name(rule_registry):
    calls = []
    finding = ConsistencyConflict("surjective", (), "replaced")
    register_rule("surjective", counted_rule(calls, finding))
    store = builders.level_store(**MISSED_STORE)
    assert validate(store, ["surjective"]) == [
        ValidationIssue("surjective", "version v1", "replaced", ())
    ]
    assert calls == [5]


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


def test_validate_lets_a_fault_outside_the_error_hierarchy_propagate(monkeypatch):
    def faulty(store, v):
        raise KeyError(v)

    store = demos.path_store()
    monkeypatch.setattr(alexdb.storage, "reconstruct_version", faulty)
    with pytest.raises(KeyError):
        validate(store)


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


def test_validate_finds_duplicates_in_a_store_out_of_canonical_order():
    a, b = XRow("a", 0, None, None, "v0"), XRow("b", 0, None, None, "v0")
    store = VersionStore(
        x=(b, a, b),
        atts=(AttRow("b", 0, "k", 1), AttRow("a", 0, "k", 1), AttRow("b", 0, "k", 2)),
        vx=("v0", "v1", "v0"),
        vr=(("v0", "v1"),),
    )
    duplicates = [(i.subject, i.witnesses) for i in validate(store) if i.rule == "duplicate-row"]
    assert duplicates == [
        ("X", (("b", 0, "v0"),)),
        ("VX", ("v0",)),
        ("Atts", (("b", 0, "k"),)),
    ]


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


def test_foreign_key_details_name_the_witness_row():
    from alexdb.storage import DelRRow

    store = VersionStore(
        x=(XRow("a", 0, "ghost", 9, "v9"),),
        r=(RRow("no", "way", 3, "v9"),),
        point=(PointRow(ElementId("ghost2"), 0.0, 0.0, 0.0, 0.0),),
        delx=(DelXRow("ghost3", 0, "v9"),),
        delr=(DelRRow("na", "nb", 0, "v9"),),
        vr=(("lost", "gone"),),
        atts=(AttRow("ghost4", 0, "k", 1),),
    )
    x = "XRow(id='a', lod=0, gid='ghost', glod=9, version='v9')"
    r = "RRow(ida='no', idb='way', lod=3, version='v9')"
    delx = "DelXRow(id='ghost3', lod=0, version='v9')"
    delr = "DelRRow(ida='na', idb='nb', lod=0, version='v9')"
    assert [i.detail for i in foreign_key_violations(store)] == [
        f"X row {x} names unknown version",
        f"X row {x} generalises to unknown element (ghost, 9)",
        f"R row {r} references unknown ida",
        f"R row {r} references unknown idb",
        f"R row {r} names unknown version",
        "Point row for ghost2 references unknown element",
        f"DelX row {delx} references unknown element",
        f"DelX row {delx} names unknown version",
        f"DelR row {delr} references unknown ida",
        f"DelR row {delr} references unknown idb",
        f"DelR row {delr} names unknown version",
        "VR row (lost, gone) names unknown source version",
        "VR row (lost, gone) names unknown target version",
        "Atts row AttRow(id='ghost4', lod=0, name='k', value=1) references unknown element",
    ]


def test_foreign_key_checks_format_no_row_of_a_valid_store(monkeypatch):
    from alexdb.storage import DelRRow

    point = PointRow(ElementId("1"), 0.0, 0.0, 0.0, 0.0)
    store = commit(demos.text_store(), "v2", changeset("v3"), points=[point])
    assert store.delx and store.delr and store.atts and store.point
    for row in (XRow, RRow, PointRow, DelXRow, DelRRow, AttRow):
        monkeypatch.setattr(row, "__repr__", lambda self: pytest.fail("a row was formatted"))
    assert foreign_key_violations(store) == []


def test_foreign_key_violations_are_listed_by_table_then_row_then_key():
    x1, x2 = XRow("a", 0, "ghost", 0, "v9"), XRow("b", 0, "ghost", 1, "v8")
    r = RRow("nowhere", "a", 0, "v7")
    store = VersionStore(x=(x2, x1), r=(r,), vx=("v0",))
    assert [(i.subject, i.witnesses) for i in foreign_key_violations(store)] == [
        ("X.version→VX", (x1,)),
        ("X.(gid,glod)→X", (x1,)),
        ("X.version→VX", (x2,)),
        ("X.(gid,glod)→X", (x2,)),
        ("R.ida→X", (r,)),
        ("R.version→VX", (r,)),
    ]


def _grown_text_store(n: int) -> VersionStore:
    """The text store with a version adding ``n`` linked elements, each with
    an attribute and a coordinate row, and removing one."""
    keys = [ElementId(f"n{i}") for i in range(n)]
    changes = changeset(
        "v3",
        add_elements=[Element(k, attributes={"rank": i}) for i, k in enumerate(keys)],
        remove_elements=["1"],
        add_pairs=list(zip(keys[1:], keys)),
    )
    points = [PointRow(k, 0.0, 0.0, 0.0, float(i)) for i, k in enumerate(keys)]
    return commit(demos.text_store(), "v2", changes, points=points)


def test_foreign_key_checks_of_a_valid_store_make_no_call_per_row():
    def events(store):
        counted = Counter()
        sys.setprofile(lambda frame, event, arg: counted.update([event]))
        try:
            assert foreign_key_violations(store) == []
        finally:
            sys.setprofile(None)
        return counted

    small, large = _grown_text_store(4), _grown_text_store(64)
    assert len(large.x) > 4 * len(small.x)
    assert events(small) == events(large)


def test_validate_reports_a_missing_generalisation_target():
    store = builders.two_level_store(random.Random(0))
    coarse = next(ElementId(w.id, w.lod) for w in store.x if w.lod == 1)
    fine = sorted(
        k for k, e in reconstruct_version(store, "v1").elements.items() if e.gen_target == coarse
    )
    broken = builders.unchecked_removal(store, "v1", "v2", [coarse])
    issues = validate(broken, ["surjective", "monotonic"])
    found = [(i.subject, i.detail, i.witnesses) for i in issues if i.rule == "cfk-generalisation"]
    detail = "element {} generalises to {}, which is not in the version"
    assert found == [("version v2", detail.format(k, coarse), (k, coarse)) for k in fine]
    assert fine and {i.rule for i in issues} == {"cfk-generalisation"}


def test_validate_checks_continuity_on_the_rest_of_a_dangling_map():
    # a is bounded by b, but their images P:1 and Q:1 are unrelated
    store = builders.level_store([("a", "b")], {"a": "P:1", "b": "Q:1", "c": "R:1"})
    broken = builders.unchecked_removal(store, "v1", "v2", [ElementId("R", 1)])
    found = [(i.rule, i.subject, i.witnesses) for i in validate(broken)]
    a, b, c = ElementId("a"), ElementId("b"), ElementId("c")
    assert found == [
        ("cfk-continuity", "version v1", (a, b)),
        ("cfk-generalisation", "version v2", (c, ElementId("R", 1))),
        ("cfk-continuity", "version v2", (a, b)),
    ]


# ---------------------------------------------------------------------------
# cross-version path queries


def test_versions_with_path_tracks_link_history():
    store = demos.path_store()
    a, b = ElementId("a"), ElementId("b")
    region = [a, b]
    assert versions_with_path(store, a, b, region) == {"v1", "v3"}


def test_a_key_that_only_a_pair_or_an_attribute_row_names_is_in_no_region():
    # ghost is a pair end, deleted in v1, and carries a region, wraith
    # only carries one, and the generalisation target G is created by no
    # row; each has an index column that no version creates, so none is a
    # region element
    store = VersionStore(
        x=(XRow("a", 0, "G", 1, "v0"), XRow("b", 0, None, None, "v0")),
        r=(RRow("a", "ghost", 0, "v0"),),
        delr=(DelRRow("a", "ghost", 0, "v1"),),
        atts=(AttRow("a", 0, "region", "west"), AttRow("ghost", 0, "region", "west"),
              AttRow("wraith", 0, "region", "east")),
        vx=("v0", "v1"),
        vr=(("v0", "v1"),),
    )
    a, b = ElementId("a"), ElementId("b")
    assert {ElementId("ghost"), ElementId("wraith"), ElementId("G", 1)} <= set(
        store.history.elements[0]
    )
    assert region_elements(store) == {a, b}
    assert region_elements(store, "west") == {a}
    with pytest.raises(NotFoundError) as err:
        region_elements(store, "east")
    assert str(err.value) == "no elements carry region='east'"
    # a commit that creates ghost makes it a member
    store = commit(store, "v1", changeset("v2", [Element(ElementId("ghost"))]))
    assert region_elements(store, "west") == {a, ElementId("ghost")}


def test_versions_with_path_requires_endpoints_in_region():
    store = demos.path_store()
    a, b = ElementId("a"), ElementId("b")
    with pytest.raises(NotFoundError):
        versions_with_path(store, a, b, [a])


def test_versions_with_path_refuses_unknown_rules():
    store = demos.path_store()
    a, b = ElementId("a"), ElementId("b")
    for rules in (["bogus"], ["monotonic", "bogus"], ["t0", "Bogus"]):
        with pytest.raises(NotFoundError) as err:
            versions_with_path(store, a, b, [a, b], rules=rules)
        assert str(err.value) == (f"unknown consistency rule {rules[-1]!r}; "
                                  "known: linear-dag, monotonic, surjective, t0")
    # every name the registry knows, in any case
    for rules in (["Monotonic"], ["t0"], ["surjective", "LINEAR-DAG"]):
        assert versions_with_path(store, a, b, [a, b], rules=rules) == {"v1", "v3"}


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
