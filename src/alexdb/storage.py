"""The integrated store: one relational snapshot of space, scale and history.

Eight CSV tables hold everything: ``X`` (elements; their level, their
generalisation target, the version that introduced them), ``R`` (bounded-by
pairs per level, tagged with their introducing version), ``Point``
(coordinates), ``DelX``/``DelR`` (deletions), ``VX``/``VR`` (the version
space), ``Atts`` (attribute sidecar).  Files are UTF-8 CSV with exact
headers, empty fields as NULL, shortest round-tripping decimal floats, and
rows in canonical (sorted) order, so saving is deterministic and diffable.

``_TABLES`` is the one description of that format: each table's file,
columns and their parsers, row key and its columns, and how a row is built
on load and written on save; the fourteen foreign keys are declared beside
it, by column.  ``load``, ``save`` and the key checks (``_key_issues``) are
each one loop over these declarations.

Rows are ``typing.NamedTuple``s: each equals, hashes and sorts like the plain
tuple of its fields.  ``load`` parses each file a column at a time, builds
its rows from the columns, and checks the order, duplicate and foreign keys
on the columns with ``zip``, with no Python call per row and no key tuple
per referring row; ``validate`` transposes a store's rows into the same
columns once and runs the same check.  Every table is kept
in canonical order, sorted by its key in ``_TABLES``, so ``save`` writes the
rows as they stand.  Constructing a ``VersionStore`` sorts each table once.
``commit`` sorts nothing: it puts each new row into the parent's table where
bisection places it.  ``load`` takes files whose keys rise strictly, as
``save`` writes them, as they stand: that shows both the order and that no
key repeats, so they are neither sorted nor checked for duplicates again.

A store made by ``commit`` also keeps the CSV lines of its eight files: the
parent's, formatted once on first use, with each new row's line put in at
its row's place.  ``save`` writes those lines as they stand, and formats the
rows of any other store as it writes them, so a commit followed by a save
costs in proportion to the changeset, apart from copies of the parent's
lists in C.

Stores are immutable snapshots: ``commit`` applies a changeset against a
parent version and returns a new store — a single-writer discipline with no
in-place mutation anywhere.  A store's ``history`` index (ancestry bitsets,
a column per key and pair some row names, and one row of live columns per
version; only a hand-built store names a key no row creates) and its CSV
lines are cached on the store, which relies on that contract: never change
a store's row tuples, build a new store instead.  A loaded store builds the
index on first use, in one pass over its tables' columns (so a command that
reads no version, such as ``export --out``, builds none); a committed store
arrives with one derived from its parent's, holding its newest space: the
changeset applied to the parent's space, with the neighbours of each
removed element and the T0 proof read off the parent's index, whose slots
are the only slot numbering.

The generalisation columns (``gid``, ``glod``) are read and written here as
rows only.  ``validate`` reads its continuity check off each version's
space and runs every named rule, through one loop, from the
consistency-rule registry, where ``lod`` registers the level rules
"surjective" and "monotonic"; ``versions_with_path`` answers on each
version's space, through the monotone filter's stages or a path query
walked on a view of its index linked by its generalisation pairs
(``lod._linked_path_query``), which builds no second space, over a
region that ``region_elements`` reads off the history index.

Attribute values are typed by shape on load: a field that reads back as a
canonical integer or float literal becomes that number, anything else stays
a string.  Strings that look like canonical numbers are therefore not
representable — use a prefix if you need them.
"""
from __future__ import annotations

import csv
import io
import math
import os
import shutil
import stat
import tempfile
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import compress, islice
from operator import add, attrgetter, eq, ge, itemgetter, not_
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    AlexdbError,
    DuplicateKeyError,
    ForeignKeyError,
    NotFoundError,
    StoreFormatError,
    T0ViolationError,
)
from .spacetime import PointRow
from .topology import BoundedByPair, Element, ElementId, Scalar, Space, _tuples
from .versioning import (
    ChangeSet,
    HistoryIndex,
    VersionSpace,
    consistency_rule,
    reconstruct_version,
    _apply,
    _refuse_cycle,
)
from .algebra import _restricted_continuity_witness
from .lod import _filter_stages, _linked_path_query, _transitions


# ---------------------------------------------------------------------------
# rows


class XRow(NamedTuple):
    id: str
    lod: int
    gid: str | None
    glod: int | None
    version: str


class RRow(NamedTuple):
    ida: str
    idb: str
    lod: int
    version: str


class DelXRow(NamedTuple):
    id: str
    lod: int
    version: str


class DelRRow(NamedTuple):
    ida: str
    idb: str
    lod: int
    version: str


class AttRow(NamedTuple):
    id: str
    lod: int
    name: str
    value: Scalar


class _Table(NamedTuple):
    """One table of the schema: the ``VersionStore`` field holding its rows,
    its file and header, the parser of each typed column (any other column
    keeps the text as read), the key of a row (None: the whole row) and the
    columns it is made of, the rows built from the parsed columns, and the
    fields the rows are written as, from the rows of the table (None: the
    rows themselves)."""

    field: str
    file: str
    header: list[str]
    parse: dict[str, Callable]
    key: Callable | None
    key_columns: tuple[str, ...]
    rows: Callable[[list], list]
    write: Callable | None = None


def _int_or_none(raw: str) -> int | None:
    return int(raw) if raw else None


def _parse_value(raw: str) -> Scalar:
    # numbers only when the text is their canonical form, so loads invert
    # saves; every such text starts with a digit or "-", or is "inf" or "nan"
    if not raw or (raw[0] not in "-0123456789" and raw not in ("inf", "nan")):
        return raw
    try:
        if str(int(raw)) == raw:
            return int(raw)
    except ValueError:
        pass
    try:
        if repr(float(raw)) == raw:
            return float(raw)
    except (ValueError, OverflowError):
        pass
    return raw


#: What a column parser that rejects a field expected instead.
_EXPECTED = {int: "integer", _int_or_none: "integer", float: "float"}


_NO_BOOLEANS = "boolean attribute values are not part of the schema"
_KEY = attrgetter("key")
_GEN = attrgetter("gen_target")
_COORDINATES = itemgetter(slice(1, None))
_SUBJECT = itemgetter(slice(None, 3))
_VALUE = attrgetter("value")


def _rows(cls: type) -> Callable[[list], list]:
    """Rows of the tuple type ``cls`` from the parsed columns."""
    return lambda columns: _tuples(cls, zip(*columns))


#: The eight tables, the one description of the store format.  Canonical
#: order sorts each table by its key, and no two rows share one.  Rows are
#: written as they stand, or as ``write`` turns the rows of a table into
#: fields, in C: ``csv`` writes None as an empty field and a number as its
#: ``str``, for a float its shortest round-trip form; an attribute value is
#: written as its ``str`` (booleans are refused before).
_TABLES = {
    "X": _Table("x", "X.csv", ["id", "lod", "gid", "glod", "version"],
                {"lod": int, "gid": lambda raw: raw or None, "glod": _int_or_none},
                attrgetter("id", "lod", "version"), ("id", "lod", "version"), _rows(XRow)),
    "R": _Table("r", "R.csv", ["ida", "idb", "lod", "version"], {"lod": int}, None,
                ("ida", "idb", "lod", "version"), _rows(RRow)),
    "Point": _Table("point", "Point.csv", ["pid", "lod", "x", "y", "z", "t"],
                    {"lod": int, "x": float, "y": float, "z": float, "t": float},
                    attrgetter("key"), ("pid", "lod"),
                    lambda c: _tuples(PointRow, zip(_tuples(ElementId, zip(c[0], c[1])), *c[2:])),
                    lambda rows: map(add, map(_KEY, rows), map(_COORDINATES, rows))),
    "DelX": _Table("delx", "DelX.csv", ["id", "lod", "version"], {"lod": int}, None,
                   ("id", "lod", "version"), _rows(DelXRow)),
    "DelR": _Table("delr", "DelR.csv", ["ida", "idb", "lod", "version"], {"lod": int}, None,
                   ("ida", "idb", "lod", "version"), _rows(DelRRow)),
    "VX": _Table("vx", "VX.csv", ["version"], {}, None, ("version",), lambda c: list(c[0]), zip),
    "VR": _Table("vr", "VR.csv", ["fromv", "tov"], {}, None, ("fromv", "tov"),
                 lambda c: list(zip(*c))),
    "Atts": _Table("atts", "Atts.csv", ["id", "lod", "name", "value"],
                   {"lod": int, "value": _parse_value}, attrgetter("id", "lod", "name"),
                   ("id", "lod", "name"), _rows(AttRow),
                   lambda rows: map(add, map(_SUBJECT, rows), zip(map(str, map(_VALUE, rows))))),
}

#: The order ``load`` reads the tables in, and so which fault it reports of
#: a store with faults in several files.
_LOAD_ORDER = ("X", "R", "Point", "DelX", "DelR", "Atts", "VX", "VR")


class _ForeignKey(NamedTuple):
    """A reference of the schema: the ``columns`` of each row of ``table``
    must be among the ``refs`` ("X": the element keys, "VX": the versions).
    ``detail``, the text of a violation, is a template over the row ``w``,
    filled in only for a violation: formatting a row calls its repr."""

    table: str
    subject: str
    refs: str
    columns: tuple[str, ...]
    detail: str


#: The fourteen foreign keys, by table in ``_TABLES`` order, and within a
#: table in the order a row's violations are reported.
_FOREIGN_KEYS = [_ForeignKey(*fk) for fk in (
    ("X", "X.version→VX", "VX", ("version",), "X row {w} names unknown version"),
    ("X", "X.(gid,glod)→X", "X", ("gid", "glod"),
     "X row {w} generalises to unknown element ({w.gid}, {w.glod})"),
    ("R", "R.ida→X", "X", ("ida", "lod"), "R row {w} references unknown ida"),
    ("R", "R.idb→X", "X", ("idb", "lod"), "R row {w} references unknown idb"),
    ("R", "R.version→VX", "VX", ("version",), "R row {w} names unknown version"),
    ("Point", "Point.pid→X", "X", ("pid", "lod"),
     "Point row for {w.key} references unknown element"),
    ("DelX", "DelX.id→X", "X", ("id", "lod"), "DelX row {w} references unknown element"),
    ("DelX", "DelX.version→VX", "VX", ("version",), "DelX row {w} names unknown version"),
    ("DelR", "DelR.ida→X", "X", ("ida", "lod"), "DelR row {w} references unknown ida"),
    ("DelR", "DelR.idb→X", "X", ("idb", "lod"), "DelR row {w} references unknown idb"),
    ("DelR", "DelR.version→VX", "VX", ("version",), "DelR row {w} names unknown version"),
    ("VR", "VR.fromv→VX", "VX", ("fromv",),
     "VR row ({w[0]}, {w[1]}) names unknown source version"),
    ("VR", "VR.tov→VX", "VX", ("tov",),
     "VR row ({w[0]}, {w[1]}) names unknown target version"),
    ("Atts", "Atts.id→X", "X", ("id", "lod"), "Atts row {w} references unknown element"),
)]


@dataclass(frozen=True)
class VersionStore:
    """All eight tables, as immutable tuples of rows in canonical order.

    Construction sorts each table by its key, so two stores holding the same
    rows are equal, and every reader may rely on the order.  ``load`` and
    ``commit`` make stores whose tables are already in that order without
    sorting them again."""

    x: tuple[XRow, ...] = ()
    r: tuple[RRow, ...] = ()
    point: tuple[PointRow, ...] = ()
    delx: tuple[DelXRow, ...] = ()
    delr: tuple[DelRRow, ...] = ()
    vx: tuple[str, ...] = ()
    vr: tuple[tuple[str, str], ...] = ()
    atts: tuple[AttRow, ...] = ()

    def __post_init__(self):
        for t in _TABLES.values():
            object.__setattr__(self, t.field, tuple(sorted(getattr(self, t.field), key=t.key)))

    def version_space(self) -> VersionSpace:
        """The version space, built and checked for T0 on first use."""
        return self._versions

    @cached_property
    def _versions(self) -> VersionSpace:
        return VersionSpace(frozenset(self.vx), frozenset(self.vr))

    @cached_property
    def history(self) -> HistoryIndex:
        """The versions and rows indexed for reconstruction: built from the
        rows on first use and kept for the life of this (immutable) store;
        a store made by ``commit`` arrives with it."""
        return HistoryIndex(self)

    @cached_property
    def _lines(self) -> dict[str, list[str]]:
        """By table name, the CSV lines of the table's file, header first
        and without line ends: formatted on first use, which a ``commit``
        from this store makes; a store made by ``commit`` arrives with
        them, and ``save`` writes them.  Stores share these lists, so they
        are never changed."""
        return {
            name: _csv_lines([t.header, *_fields(t, getattr(self, t.field))])
            for name, t in _TABLES.items()
        }


def _stored(**tables: tuple) -> VersionStore:
    """A store holding ``tables``, one tuple of rows in canonical order per
    field, as they stand: they are not sorted again."""
    store = VersionStore.__new__(VersionStore)
    for field, rows in tables.items():  # as a frozen dataclass sets its fields
        object.__setattr__(store, field, rows)
    return store


def canonicalize(store: VersionStore) -> VersionStore:
    """A fresh store with the same rows, which are already in canonical
    order; its ``history`` index is built anew from them on first use, and
    it keeps no CSV lines."""
    return replace(store)


# ---------------------------------------------------------------------------
# building stores


def _element_rows(elements: Iterable[Element], version: str):
    """X and Atts rows recording ``elements`` as created in ``version``.
    A boolean attribute value is refused, and so is a text field that
    ``load`` could not read back, one longer than
    ``csv.field_size_limit()``: a version, element id or attribute name or
    value.  Pairs, generalisation targets and coordinate rows name
    elements, so these are the texts a valid store gets from a space."""
    limit = csv.field_size_limit()
    if len(version) > limit:
        raise _too_long("VX.version", version)
    xrows, attrows = [], []
    for e in elements:
        k = e.key
        gid, glod = e.gen_target or (None, None)
        if len(k.id) > limit:
            raise _too_long("X.id", k.id)
        xrows.append(XRow(k.id, k.lod, gid, glod, version))
        for name in sorted(e.attributes):
            value = e.attributes[name]
            if isinstance(value, bool):
                raise StoreFormatError(_NO_BOOLEANS)
            if len(name) > limit:
                raise _too_long("Atts.name", name)
            if type(value) is str and len(value) > limit:
                raise _too_long("Atts.value", value)
            attrows.append(AttRow(k.id, k.lod, name, value))
    return xrows, attrows


def _space_rows(space: Space, version: str):
    xrows, attrows = _element_rows(space.elements.values(), version)
    # sorted, so that a pair across levels is named the same in every process
    return xrows, [_pair_row(p, version) for p in sorted(space.relation)], attrows


def _pair_row(p: BoundedByPair, version: str) -> RRow:
    """The R row recording pair ``p`` as created in ``version``."""
    if p.ida.lod != p.idb.lod:
        raise StoreFormatError(
            f"pair {p} spans levels; stored pairs are per-level "
            f"(cross-level structure lives in the generalisation columns)"
        )
    return RRow(p.ida.id, p.idb.id, p.ida.lod, version)


def new_store(version: str, space: Space, points: Iterable[PointRow] = ()) -> VersionStore:
    """A store holding ``space`` as its single, initial version.  A boolean
    attribute value, or a field that ``load`` could not read back (see
    ``_element_rows``), is rejected with ``StoreFormatError``."""
    xrows, rrows, attrows = _space_rows(space, version)
    return VersionStore(x=xrows, r=rrows, point=points, vx=(version,), atts=attrows)


def commit(
    store: VersionStore,
    parent: str,
    changes: ChangeSet,
    points: Iterable[PointRow] = (),
) -> VersionStore:
    """New snapshot with ``changes`` recorded as the version they name.

    The changeset is applied to the reconstructed parent space and the
    difference is written as creation and deletion rows, so modifications
    that cancel within the changeset leave no trace.  Attributes attach to
    an (id, level) key once: each created element takes every attribute
    already recorded for its key, in name order, before the changeset is
    applied, so the new space holds it as its rows read back.  Only the
    attribute values the changeset brings are checked and written (rows
    matching a recorded value are skipped, contradicting ones are
    rejected).  A changeset that would leave an element generalising to
    one not in the new version is rejected with ``ForeignKeyError``, as is
    a pair across levels (``StoreFormatError``).

    The new store arrives with its ``history`` index, derived from the
    parent store's without reading a row, and holding the new version's
    space: committing again from the new version, or reconstructing it,
    reads no rows.  A parent the index does not hold is reconstructed
    from its row of live columns, and its own index is not built: the
    neighbours of each removed element are read off the history index
    (``HistoryIndex.near``), and the index's topological order, kept
    under the commit by ``derive``, proves the new space T0; failing that,
    one found over the new version's pair columns (``order_for``) does.
    The new store's tables are the parent's with the new rows put in
    place, and it keeps the CSV lines of its files, derived from the
    parent's, which ``save`` writes.  A boolean attribute value, or a field that
    ``load`` could not read back (see ``_element_rows``), is rejected
    with ``StoreFormatError``.
    """
    v = changes.version
    if v in store.vx:
        raise DuplicateKeyError(f"version {v!r} already exists")
    if parent not in store.vx:
        raise NotFoundError(f"unknown parent version {parent!r}")
    index = store.history
    # a created element carries every attribute recorded for its key, in
    # name order, as the index's columns read it back
    recorded = {el.key: index.attributes(el.key) for el in changes.add_elements}
    merged = replace(changes, add_elements=tuple(
        replace(el, attributes=dict(sorted({**recorded[el.key], **el.attributes}.items())))
        for el in changes.add_elements
    ))
    parent_space = reconstruct_version(store, parent)
    new_space, dropped, linked = _apply(parent_space, merged, partial(index.near, parent))
    removed = sorted(changes.remove_elements)
    created = sorted(changes.add_elements, key=attrgetter("key"))
    added = [el.key for el in created]
    # what ``history`` would build from the rows, without reading them; the
    # order kept under the commit proves the new space T0
    history = index.derive(parent, v, new_space, removed, added, dropped, linked)
    if history.order_for(v) is None:  # the new space checks itself, and names a cycle
        _refuse_cycle(new_space, parent_space, merged)
    _check_generalisation(new_space, changes)

    # rows of the values the changeset brings; one already recorded is skipped
    new_x, new_atts = _element_rows(created, v)
    for a in new_atts:
        prior = recorded[a.id, a.lod].get(a.name)
        if prior is not None and prior != a.value:
            raise DuplicateKeyError(
                f"attribute {a.name!r} of ({a.id}, {a.lod}) already recorded as {prior!r}"
            )
    new_atts = [a for a in new_atts if a.name not in recorded[a.id, a.lod]]

    points = list(points)
    have = set()
    for p in points:
        i = bisect_left(store.point, p.key, key=_KEY)
        if p.key in have or (i < len(store.point) and store.point[i].key == p.key):
            raise DuplicateKeyError(f"coordinate row for {p.key} already exists")
        have.add(p.key)

    new_rows = {
        "X": new_x,
        "R": [_pair_row(p, v) for p in linked],
        "Point": points,
        "DelX": [DelXRow(k.id, k.lod, v) for k in removed],
        "DelR": [DelRRow(p.ida.id, p.idb.id, p.ida.lod, v) for p in dropped],
        "VX": [v],
        "VR": [(parent, v)],
        "Atts": new_atts,
    }
    lines = store._lines
    # the new rows' lines, formatted by one writer
    new_lines = iter(_csv_lines([f for n, t in _TABLES.items() for f in _fields(t, new_rows[n])]))
    tables, kept = {}, {}
    for name, t in _TABLES.items():
        new = new_rows[name]
        tables[t.field], kept[name] = _inserted(
            t, getattr(store, t.field), lines[name], new, list(islice(new_lines, len(new)))
        )
    child = _stored(**tables)
    vars(child)["_lines"] = kept
    vars(child)["history"] = history
    return child


def _inserted(
    t: _Table, rows: tuple, lines: list[str], new: list, new_lines: list[str]
) -> tuple[tuple, list[str]]:
    """Table ``t``'s ``rows`` and the CSV ``lines`` of its file, with the
    rows ``new``, whose keys ``rows`` lacks, and their ``new_lines`` put in
    where canonical order places them."""
    if not new:
        return rows, lines
    rows, lines = list(rows), lines.copy()
    for row, line in zip(new, new_lines):
        i = bisect_left(rows, row if t.key is None else t.key(row), key=t.key)
        rows.insert(i, row)
        lines.insert(i + 1, line)  # after the header
    return tuple(rows), lines


def _too_long(where: str, text: str) -> StoreFormatError:
    """The error for ``text``, field ``where`` (table.column), being longer
    than ``csv.field_size_limit()``: ``load``'s CSV reader would not take
    it."""
    return StoreFormatError(
        f"{where}: a field of {len(text)} characters is longer than "
        f"the CSV field limit ({csv.field_size_limit()}) that load reads"
    )


def _refuse_long_fields(name: str, rows: Iterable) -> None:
    """Refuse table ``name``'s ``rows``, naming the first text field, by
    row and column, that is longer than ``csv.field_size_limit()`` (the
    other fields are numbers, or None, written short)."""
    t = _TABLES[name]
    limit = csv.field_size_limit()
    for row in _fields(t, rows):
        for column, value in zip(t.header, row):
            if type(value) is str and len(value) > limit:
                raise _too_long(f"{name}.{column}", value)


def _check_generalisation(space: Space, changes: ChangeSet) -> None:
    """Reject a commit whose result ``space`` has an element generalising
    to one it lacks: one the changeset removed, or the missing target of
    one it added.  The smallest such element is named."""
    bad = [(el.key, el.gen_target) for el in changes.add_elements]
    bad = [(k, t) for k, t in bad if t is not None and t not in space]
    gone = changes.remove_elements
    # a scan in C, then one in Python only when it finds such an element
    if gone and not gone.isdisjoint(map(_GEN, space.elements.values())):
        bad += [(k, e.gen_target) for k, e in space.elements.items() if e.gen_target in gone]
    if bad:
        k, t = min(bad)
        raise ForeignKeyError(
            f"element {k} would generalise to {t}, which is not in version {changes.version!r}"
        )


# ---------------------------------------------------------------------------
# CSV serialisation

def _fields(t: _Table, rows: Sequence) -> Iterable:
    """The fields that table ``t``'s ``rows`` are written as."""
    return rows if t.write is None else t.write(rows)


def _csv_lines(rows: list) -> list[str]:
    """The CSV line of each of the field ``rows``, without its line end, as
    ``save`` writes it.  One writer writes every row, and the text is split
    at line ends, unless a field holds a line end of its own (quoted): then
    each row is taken from the writer alone."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    lines = buffer.getvalue().split("\n")
    if len(lines) == len(rows) + 1:
        del lines[-1]  # after the last line end
        return lines
    lines = []
    for row in rows:
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(row)
        lines.append(buffer.getvalue()[:-1])
    return lines


def save(store: VersionStore, path: str | Path) -> Path:
    """Write the canonical CSV files of the store into directory ``path``.

    A store made by ``commit`` keeps the CSV lines of its files, derived
    from its parent's, and they are written as they stand; any other
    store's rows are formatted into lines first.  Either way every table
    is in canonical order, sorted by its key.  The eight tables are
    replaced as one unit, by swapping directories: they are written into a
    temporary sibling directory, which takes the store directory's
    permission bits; the store directory is renamed to the fixed sibling
    ``.{name}.old`` and the new one renamed to its path; then the entries
    of ``.{name}.old`` other than the tables move into the new directory
    and ``.{name}.old`` is removed.  A symbolic link at ``path`` stays a
    link: the directory it resolves to is swapped.  A failure while
    writing leaves the previous store untouched and no sibling behind; a
    failure of the second rename moves the previous store back.  A crash
    between the steps leaves the previous store or the new one whole:
    ``load`` reads ``.{name}.old`` while nothing stands at ``path``, and
    the next ``save`` first finishes or undoes the swap.  A process whose
    working directory is the store directory is left in the removed
    directory.  Nothing is flushed with ``fsync``, so what survives a power
    loss is up to the file system; the swapped-in files do not get the
    writeback that some file systems (ext4's ``auto_da_alloc``) start when
    a file is renamed over a live one.  Raises ``StoreFormatError`` when
    ``path`` or a directory above it is a file, and for a boolean attribute
    value or a text field longer than ``csv.field_size_limit()``, which
    ``load`` could not read back (``new_store`` and ``commit`` refuse both
    in the elements they record, so a store built by hand is the usual
    source); none of these writes anything.  Only a table with a line that
    long has its fields measured.
    """
    if bool in map(type, map(_VALUE, store.atts)):
        raise StoreFormatError(_NO_BOOLEANS)
    lines = vars(store).get("_lines") or {
        name: _csv_lines([t.header, *_fields(t, getattr(store, t.field))])
        for name, t in _TABLES.items()
    }
    limit = csv.field_size_limit()
    for name, t in _TABLES.items():
        if max(map(len, lines[name])) > limit:  # no field is longer than its line
            _refuse_long_fields(name, getattr(store, t.field))
    directory = os.fspath(path)
    real, old = _swap_paths(directory)
    _settle_swap(real, old)  # before makedirs, which would stand in for a swapped-out store
    try:
        os.makedirs(directory, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise StoreFormatError(
            f"cannot save a store into {directory}: it or a directory above it is a file"
        ) from None
    above, name = os.path.split(real)
    staging = tempfile.mkdtemp(prefix=f".{name}.", dir=above)
    try:
        for table, t in _TABLES.items():
            with open(os.path.join(staging, t.file), "wb") as fh:
                fh.write(("\n".join(lines[table]) + "\n").encode())
        os.chmod(staging, stat.S_IMODE(os.stat(real).st_mode))
        os.rename(real, old)
        try:
            os.rename(staging, real)
        except BaseException:
            os.rename(old, real)
            raise
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    _settle_swap(real, old)
    return Path(path)


def _swap_paths(directory: str) -> tuple[str, str]:
    """The store directory that ``directory`` names, with symbolic links
    resolved, and the fixed sibling ``.{name}.old`` that ``save`` moves it
    to while it swaps the new tables in."""
    real = os.path.realpath(directory)
    above, name = os.path.split(real)
    return real, os.path.join(above, f".{name}.old")


def _settle_swap(real: str, old: str) -> None:
    """Finish or undo the swap of a save that stopped between its steps,
    so that only the store directory ``real`` stands.  With no directory at
    ``real``, the swapped-out store ``old`` moves back.  With both, the new
    store is in place: the entries of ``old`` other than the tables move
    into it, and ``old`` is removed."""
    if not os.path.isdir(old):
        return
    if not os.path.lexists(real):
        os.rename(old, real)
    elif os.path.isdir(real):
        tables = {t.file for t in _TABLES.values()}
        for entry in os.listdir(old):
            if entry not in tables:
                os.rename(os.path.join(old, entry), os.path.join(real, entry))
        shutil.rmtree(old)


def _read_table(directory: Path, name: str) -> list[Sequence]:
    """The parsed columns of table ``name``, in header order, read from its
    CSV file.  Each column is parsed whole; only when that fails are the
    rows scanned, in order, for the first fault.  A file that cannot be read
    as CSV text is a ``StoreFormatError`` naming it."""
    t = _TABLES[name]
    fpath = directory / t.file
    try:
        with open(fpath, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except FileNotFoundError:
        raise StoreFormatError(f"missing store file {fpath}") from None
    except IsADirectoryError:
        raise StoreFormatError(f"{fpath}: a directory, not a table file") from None
    except UnicodeDecodeError as exc:
        raise StoreFormatError(f"{fpath}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise StoreFormatError(f"{fpath}:{reader.line_num}: {exc}") from None
    if not rows or rows[0] != t.header:
        got = rows[0] if rows else []
        raise StoreFormatError(f"{fpath}: expected header {t.header}, got {got}")
    width = len(t.header)
    if set(map(len, rows)) != {width}:
        for i, row in enumerate(rows[1:], start=2):
            if len(row) != width:
                raise StoreFormatError(f"{fpath}:{i}: expected {width} fields, got {len(row)}")
    rows = rows[1:]
    columns = list(zip(*rows)) or [()] * width
    try:
        if name == "X" and list(map(not_, columns[2])) != list(map(not_, columns[3])):
            raise ValueError("an X row sets both generalisation columns (gid, glod) or neither")
        return [
            _parsed(t.parse[c], col) if c in t.parse else col for c, col in zip(t.header, columns)
        ]
    except ValueError:
        raise _first_fault(name, rows) from None


def _parsed(parse: Callable, column: Sequence[str]) -> list:
    """``column`` parsed by ``parse``: each distinct text once, since
    levels and attribute values repeat."""
    parsed = {raw: parse(raw) for raw in set(column)}
    return list(map(parsed.__getitem__, column))


def _first_fault(name: str, rows: list[list[str]]) -> StoreFormatError:
    """The error for the first fault of table ``name``'s ``rows``: row by
    row, an X row's unpaired generalisation columns, then each field in
    column order that its parser rejects."""
    t = _TABLES[name]
    for row in rows:
        if name == "X" and (row[2] == "") != (row[3] == ""):
            return StoreFormatError(
                f"X.csv: generalisation columns must be both set or both empty in {row}"
            )
        for column, raw in zip(t.header, row):
            try:
                t.parse.get(column, str)(raw)
            except ValueError:
                expected = _EXPECTED[t.parse[column]]
                return StoreFormatError(f"{name}.{column}: expected {expected}, got {raw!r}")


def load(path: str | Path) -> VersionStore:
    """Read a store directory; validates headers, fields, keys and foreign
    keys, and raises ``StoreFormatError``, ``DuplicateKeyError`` or
    ``ForeignKeyError`` naming the first fault found.

    Each file is parsed a column at a time, and the keys are checked on the
    parsed columns (``_key_issues``).  Files in canonical order, as ``save``
    writes them, are not sorted again: their keys rising strictly shows
    both the order and that no two rows share a key.  A table file that is
    a directory, is not UTF-8 text or is not CSV that ``csv.reader`` takes
    (a field longer than ``csv.field_size_limit()``, say) is a
    ``StoreFormatError`` naming the file.

    When nothing stands at ``path`` but its sibling ``.{name}.old`` is a
    directory, a ``save`` stopped after swapping the previous store out,
    and that store is read.  ``load`` writes nothing: the next ``save``
    settles the swap."""
    directory = Path(path)
    if not directory.is_dir():
        real, old = _swap_paths(directory)
        if os.path.lexists(real) or not os.path.isdir(old):
            raise StoreFormatError(f"no store directory {directory}")
        directory = Path(old)  # a save stopped with the previous store swapped out
    columns = {n: _read_table(directory, n) for n in _LOAD_ORDER}
    rows = {_TABLES[n].field: _TABLES[n].rows(c) for n, c in columns.items()}
    ordered = not any(_neighbours(_TABLES[n], c, ge) for n, c in columns.items())
    if ordered:
        store = _stored(**{field: tuple(r) for field, r in rows.items()})
    else:
        store = VersionStore(**rows)
        columns = _columns(store)
    issues = _key_issues(store, columns, duplicates=not ordered)
    for rule, error in (("duplicate-row", DuplicateKeyError), ("foreign-key", ForeignKeyError)):
        details = [i.detail for i in issues if i.rule == rule]
        if details:
            raise error("; ".join(details))
    return store


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationIssue:
    """One violated rule, where, and a re-checkable witness description."""

    rule: str
    subject: str
    detail: str
    witnesses: tuple = ()


def _columns(store: VersionStore) -> dict[str, list]:
    """By table name, the store's table as columns in header order, as
    ``load`` parses them: the rows transposed once."""
    return {
        name: list(zip(*_fields(t, getattr(store, t.field)))) or [()] * len(t.header)
        for name, t in _TABLES.items()
    }


def _values(t: _Table, columns: Sequence, names: Sequence[str], start: int = 0) -> Iterable:
    """Row by row from row ``start`` on, the values in the columns ``names``
    of table ``t``: the column itself for one name, else tuples from
    ``zip``, which makes no new tuple while its last one is dropped."""
    picked = [columns[t.header.index(n)] for n in names]
    if start:
        picked = [islice(c, start, None) for c in picked]
    return picked[0] if len(names) == 1 else zip(*picked)


def _neighbours(t: _Table, columns: Sequence, op: Callable) -> bool:
    """Whether ``op`` holds between the key of some row of table ``t`` and
    the key of the row after it."""
    keys = t.key_columns
    return any(map(op, _values(t, columns, keys), _values(t, columns, keys, 1)))


def _key_issues(
    store: VersionStore, columns: Mapping[str, Sequence], duplicates: bool = True
) -> list[ValidationIssue]:
    """The duplicate keys (unless ``duplicates`` is false), then the foreign
    keys the store breaks, checked on ``columns``, its tables in canonical
    order as columns.  A key shared by neighbouring rows is reported with
    that key, by table, then row.  Each broken reference is reported with
    its witness row, by table, then row, then key.  A table is scanned row
    by row only when it breaks a key, so a store that keeps every key
    formats no row, builds no key tuple of a referring row, and makes no
    Python call per row."""
    issues = []
    for name, t in _TABLES.items() if duplicates else ():
        if not _neighbours(t, columns[name], eq):
            continue
        keys = t.key_columns
        for before, k in zip(_values(t, columns[name], keys), _values(t, columns[name], keys, 1)):
            if k == before:
                issues.append(
                    ValidationIssue("duplicate-row", name, f"{name}: duplicate key {k}", (k,))
                )
    known = {
        # (None, None): the target of an element that generalises to none
        "X": set(_values(_TABLES["X"], columns["X"], ("id", "lod"))) | {(None, None)},
        "VX": set(columns["VX"][0]),
    }
    found = []
    for fk in _FOREIGN_KEYS:
        refs, t = known[fk.refs], _TABLES[fk.table]
        if not refs.issuperset(_values(t, columns[fk.table], fk.columns)):
            rows = getattr(store, t.field)
            table = list(_TABLES).index(fk.table)
            found += [
                ((table, n), fk, rows[n])
                for n, k in enumerate(_values(t, columns[fk.table], fk.columns))
                if k not in refs
            ]
    # a stable sort: the keys a row breaks stay in declaration order
    found.sort(key=itemgetter(0))
    return issues + [
        ValidationIssue("foreign-key", fk.subject, fk.detail.format(w=w), (w,))
        for _, fk, w in found
    ]


def foreign_key_violations(store: VersionStore) -> list[ValidationIssue]:
    """Every foreign key of the schema the store breaks, each reported with
    its witness row: by table, then row, then key."""
    return _key_issues(store, _columns(store), duplicates=False)


def validate(store: VersionStore, rules: Sequence[str] = ()) -> list[ValidationIssue]:
    """Full consistency report.

    Always checked: duplicate keys, all foreign keys, time coordinates
    that are NaN (which ``time_slice`` refuses), acyclicity of the version
    graph, per-version reconstructability and T0, and on every
    version that each generalisation target exists and that the
    generalisation map is continuous on the rest (the continuous-foreign-key
    condition), read off the version space and its generalisation
    columns.  ``rules`` names optional checks from the consistency-rule
    registry ("t0", "linear-dag", the level rules "surjective" and
    "monotonic", or any registered one), each run on every version space.
    Every name is looked up before the store is read, so an unknown one
    raises ``NotFoundError`` whatever the store holds.  A rule runs once
    per version however often it is named, and its findings are reported
    each time it is named, in the order of the names.
    """
    named = {name.lower(): consistency_rule(name) for name in rules}
    issues = _key_issues(store, _columns(store))
    issues += [
        ValidationIssue("geometry", "Point", f"vertex {p.key} has time coordinate nan", (p.key,))
        for p in store.point
        if math.isnan(p.t)
    ]

    try:
        vs = store.version_space()
    except T0ViolationError as exc:
        issues.append(
            ValidationIssue("t0", "VR", f"version space is cyclic: {exc}", tuple(exc.cycle))
        )
        return issues
    except NotFoundError as exc:
        issues.append(ValidationIssue("foreign-key", "VR", str(exc)))
        return issues

    for v in sorted(vs.versions):
        try:
            space = reconstruct_version(store, v)
        except AlexdbError as exc:
            kind = "t0" if isinstance(exc, T0ViolationError) else "integrity"
            issues.append(
                ValidationIssue(kind, f"version {v}", f"cannot reconstruct {v!r}: {exc}")
            )
            continue
        gen = {k: e.gen_target for k, e in space.elements.items() if e.gen_target is not None}
        for k in sorted(x for x, t in gen.items() if t not in space):
            t = gen.pop(k)
            detail = f"element {k} generalises to {t}, which is not in the version"
            issues.append(ValidationIssue("cfk-generalisation", f"version {v}", detail, (k, t)))
        if gen:
            witness = _restricted_continuity_witness(space, gen)
            if witness is not None:
                issues.append(
                    ValidationIssue(
                        "cfk-continuity",
                        f"version {v}",
                        f"generalisation map discontinuous at {witness}",
                        witness,
                    )
                )
        found = {low: rule(space) for low, rule in named.items()}
        issues += [
            ValidationIssue(c.rule, f"version {v}", c.detail, c.witnesses)
            for name in rules
            for c in found[name.lower()]
        ]
    return issues


# ---------------------------------------------------------------------------
# cross-version queries


def region_elements(store: VersionStore, name: str | None = None) -> frozenset[ElementId]:
    """The elements some row of ``store`` creates, read off the columns of
    its history index that some version creates, so no version is read:
    all of them, or only those whose ``region`` attribute equals ``name``.
    Raises ``NotFoundError`` when no element carries that region."""
    keys, created, _, attributes = store.history.elements
    made = list(compress(zip(keys, attributes), created))
    if name is None:
        return frozenset(k for k, _ in made)
    found = frozenset(k for k, atts in made if ("region", name) in atts)
    if not found:
        raise NotFoundError(f"no elements carry region={name!r}")
    return found


def versions_with_path(
    store: VersionStore,
    a: ElementId,
    b: ElementId,
    region: Iterable[ElementId],
    rules: Sequence[str] = (),
) -> frozenset[str]:
    """All versions in which ``a`` reaches ``b`` inside ``region``.

    Candidate versions are those where both endpoints are alive; in each,
    connectivity runs over the live bounded-by pairs within a level plus
    the generalisation pairs across levels.  When "monotonic" is among the
    rules (caller vouches for the map), a region on one level whose whole
    level generalises onto targets in the version is answered by the
    stages of ``filtered_path_query``: the coarse images first, then the
    saturation test, then the region itself only when the filter is
    inconclusive.  Every stage queries the version space, and the direct
    query walks a view of its index with the generalisation pairs added,
    so neither the level maps nor a linked space is built.  Every rule
    name is looked up in the consistency-rule registry first, as
    ``validate`` does, so an unknown one is refused with its
    ``NotFoundError``; a registered rule other than "monotonic" leaves the
    route unchanged.  Whether the endpoints are
    alive is read off each version's row in the store's history index, so
    a version where one is dead is skipped and not reconstructed: a fault
    only such a version holds (a pair naming a key it lacks, say) is not
    raised, though ``reconstruct_version`` raises it there.
    ``region_elements`` reads a region off the store without reading a
    version.
    """
    for name in rules:  # an unknown name is refused before a version is read
        consistency_rule(name)
    region_keys = frozenset(region)
    if a not in region_keys or b not in region_keys:
        raise NotFoundError(f"query endpoints must lie in the region: {a}, {b}")
    index = store.history
    monotonic = "monotonic" in map(str.lower, rules)

    hits = []
    for v in sorted(store.version_space().versions):
        if not (index.alive(v, a) and index.alive(v, b)):
            continue
        space = reconstruct_version(store, v)
        sub = region_keys & space.keys()
        answer = _filtered_region_answer(space, sub, a, b) if monotonic else None
        if answer is None:
            answer = _linked_path_query(space, sub, a, b)
        if answer:
            hits.append(v)
    return frozenset(hits)


def _filtered_region_answer(
    space: Space, sub: frozenset[ElementId], a: ElementId, b: ElementId
) -> bool | None:
    """The monotone filter's answer for a single-level region ``sub``, run
    on the version space itself; None when it does not apply.  It applies
    when the region's whole level generalises onto targets the space
    holds.  The coarse stage, the saturation test and the fallback are
    those of ``filtered_path_query`` on the level map, read without
    building it: the subspace of a level subspace is a subspace of the
    version space."""
    lods = {k.lod for k in sub}
    if len(lods) != 1:
        return None
    (lod,) = lods
    out = [targets for (source, _), targets in _transitions(space).items() if source == lod]
    if (
        len(out) != 1
        or len(out[0]) != sum(k.lod == lod for k in space.elements)
        or not all(t in space for t in out[0].values())
    ):
        return None
    return _filter_stages(space, space, out[0], out[0], sub, a, b).answer
