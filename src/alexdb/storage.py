"""The integrated store: one relational snapshot of space, scale and history.

Eight CSV tables hold everything: ``X`` (elements; their level, their
generalisation target, the version that introduced them), ``R`` (bounded-by
pairs per level, tagged with their introducing version), ``Point``
(coordinates), ``DelX``/``DelR`` (deletions), ``VX``/``VR`` (the version
space), ``Atts`` (attribute sidecar).  Files are UTF-8 CSV with exact
headers, empty fields as NULL, shortest round-tripping decimal floats, and
rows in canonical (sorted) order, so saving is deterministic and diffable.

``_TABLES`` is the one description of that format: each table's file,
columns and their parsers, row key, and how a row is built on load and
written on save; the fourteen foreign keys are declared beside it.
``load``, ``save``, the duplicate-key check and ``foreign_key_violations``
are each one loop over these declarations.

Rows are ``typing.NamedTuple``s: each equals, hashes and sorts like the plain
tuple of its fields.  ``load`` parses each file a column at a time and builds
its rows from the columns, with no Python call per row.  ``VersionStore``
owns row order: constructing one sorts each table once by the key in
``_TABLES``, so ``save`` writes the rows as they stand and ``commit`` just
builds a store.  ``load`` takes files whose keys rise strictly, as ``save``
writes them, as they stand: that shows both the order and that no key
repeats, so they are neither sorted nor checked for duplicates again.

Stores are immutable snapshots: ``commit`` applies a changeset against a
parent version and returns a new store — a single-writer discipline with no
in-place mutation anywhere.  A store's ``history`` index (ancestry bitsets
and one column per field of the elements and pairs) is cached on the store,
which relies on that contract: never change a store's row tuples, build a
new store instead.  A loaded store builds the index on first use, in one
pass over its tables' columns (so a command that reads no version, such as
``export --out``, builds none); a committed store arrives with one derived
from its parent's, holding its newest space.

The generalisation columns (``gid``, ``glod``) are read and written here as
rows only: the level maps that ``validate`` checks, once per level
transition and version, and the linked space that ``versions_with_path``
searches come from ``lod``.

Attribute values are typed by shape on load: a field that reads back as a
canonical integer or float literal becomes that number, anything else stays
a string.  Strings that look like canonical numbers are therefore not
representable — use a prefix if you need them.
"""
from __future__ import annotations

import csv
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice
from operator import attrgetter, eq, ge, itemgetter, not_
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
from .topology import BoundedByPair, ElementId, Scalar, Space, _tuples
from .versioning import (
    ChangeSet,
    HistoryIndex,
    VersionSpace,
    apply_changeset,
    consistency_rule,
    reconstruct_version,
)
from .algebra import SpaceMap, check_map, restrict_map, _continuity_witness
from .lod import filtered_path_query, path_query, _level_maps, _linked


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
    keeps the text as read), the key of a row (None: the whole row), the
    rows built from the parsed columns, and the fields a row is written as
    (None: the row itself)."""

    field: str
    file: str
    header: list[str]
    parse: dict[str, Callable]
    key: Callable | None
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


def _fmt_value(v: Scalar) -> str:
    if isinstance(v, bool):
        raise StoreFormatError("boolean attribute values are not part of the schema")
    if isinstance(v, float):
        return repr(v)
    return str(v)


#: What a column parser that rejects a field expected instead.
_EXPECTED = {int: "integer", _int_or_none: "integer", float: "float"}


def _rows(cls: type) -> Callable[[list], list]:
    """Rows of the tuple type ``cls`` from the parsed columns."""
    return lambda columns: _tuples(cls, zip(*columns))


#: The eight tables, the one description of the store format.  Canonical
#: order sorts each table by its key, and no two rows share one.  Rows are
#: written as they stand: ``csv`` writes None as an empty field and a number
#: as its ``str``, for a float its shortest round-trip form.
_TABLES = {
    "X": _Table("x", "X.csv", ["id", "lod", "gid", "glod", "version"],
                {"lod": int, "gid": lambda raw: raw or None, "glod": _int_or_none},
                attrgetter("id", "lod", "version"), _rows(XRow)),
    "R": _Table("r", "R.csv", ["ida", "idb", "lod", "version"], {"lod": int}, None, _rows(RRow)),
    "Point": _Table("point", "Point.csv", ["pid", "lod", "x", "y", "z", "t"],
                    {"lod": int, "x": float, "y": float, "z": float, "t": float},
                    attrgetter("key"),
                    lambda c: _tuples(PointRow, zip(_tuples(ElementId, zip(c[0], c[1])), *c[2:])),
                    lambda w: (*w.key, *w[1:])),
    "DelX": _Table("delx", "DelX.csv", ["id", "lod", "version"], {"lod": int}, None,
                   _rows(DelXRow)),
    "DelR": _Table("delr", "DelR.csv", ["ida", "idb", "lod", "version"], {"lod": int}, None,
                   _rows(DelRRow)),
    "VX": _Table("vx", "VX.csv", ["version"], {}, None, lambda c: list(c[0]), lambda v: (v,)),
    "VR": _Table("vr", "VR.csv", ["fromv", "tov"], {}, None, lambda c: list(zip(*c))),
    "Atts": _Table("atts", "Atts.csv", ["id", "lod", "name", "value"],
                   {"lod": int, "value": _parse_value}, attrgetter("id", "lod", "name"),
                   _rows(AttRow), lambda w: (*w[:3], _fmt_value(w.value))),
}

#: The order ``load`` reads the tables in, and so which fault it reports of
#: a store with faults in several files.
_LOAD_ORDER = ("X", "R", "Point", "DelX", "DelR", "Atts", "VX", "VR")


class _ForeignKey(NamedTuple):
    """A reference of the schema: ``key`` of each row of ``table`` must be
    among the ``refs`` ("X": the element keys, "VX": the versions).
    ``detail``, the text of a violation, is a template over the row ``w``,
    filled in only for a violation: formatting a row calls its repr."""

    table: str
    subject: str
    refs: str
    key: Callable
    detail: str


_VERSION = attrgetter("version")

#: The fourteen foreign keys, by table in ``_TABLES`` order, and within a
#: table in the order a row's violations are reported.
_FOREIGN_KEYS = [_ForeignKey(*fk) for fk in (
    ("X", "X.version→VX", "VX", _VERSION, "X row {w} names unknown version"),
    ("X", "X.(gid,glod)→X", "X", attrgetter("gid", "glod"),
     "X row {w} generalises to unknown element ({w.gid}, {w.glod})"),
    ("R", "R.ida→X", "X", attrgetter("ida", "lod"), "R row {w} references unknown ida"),
    ("R", "R.idb→X", "X", attrgetter("idb", "lod"), "R row {w} references unknown idb"),
    ("R", "R.version→VX", "VX", _VERSION, "R row {w} names unknown version"),
    ("Point", "Point.pid→X", "X", attrgetter("key"),
     "Point row for {w.key} references unknown element"),
    ("DelX", "DelX.id→X", "X", attrgetter("id", "lod"), "DelX row {w} references unknown element"),
    ("DelX", "DelX.version→VX", "VX", _VERSION, "DelX row {w} names unknown version"),
    ("DelR", "DelR.ida→X", "X", attrgetter("ida", "lod"), "DelR row {w} references unknown ida"),
    ("DelR", "DelR.idb→X", "X", attrgetter("idb", "lod"), "DelR row {w} references unknown idb"),
    ("DelR", "DelR.version→VX", "VX", _VERSION, "DelR row {w} names unknown version"),
    ("VR", "VR.fromv→VX", "VX", itemgetter(0),
     "VR row ({w[0]}, {w[1]}) names unknown source version"),
    ("VR", "VR.tov→VX", "VX", itemgetter(1),
     "VR row ({w[0]}, {w[1]}) names unknown target version"),
    ("Atts", "Atts.id→X", "X", attrgetter("id", "lod"), "Atts row {w} references unknown element"),
)]


@dataclass(frozen=True)
class VersionStore:
    """All eight tables, as immutable tuples of rows in canonical order.

    Construction sorts each table by its key, so two stores holding the same
    rows are equal, and every reader may rely on the order."""

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


def canonicalize(store: VersionStore) -> VersionStore:
    """A fresh store with the same rows, which are already in canonical
    order; its ``history`` index is built anew from them on first use."""
    return replace(store)


# ---------------------------------------------------------------------------
# building stores


def _element_rows(space: Space, keys: Iterable[ElementId], version: str):
    """X and Atts rows recording the elements ``keys`` of ``space`` as
    created in ``version``."""
    xrows, attrows = [], []
    for k in keys:
        e = space.elements[k]
        gid, glod = e.gen_target or (None, None)
        xrows.append(XRow(k.id, k.lod, gid, glod, version))
        for name in sorted(e.attributes):
            attrows.append(AttRow(k.id, k.lod, name, e.attributes[name]))
    return xrows, attrows


def _space_rows(space: Space, version: str):
    xrows, attrows = _element_rows(space, space.elements, version)
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
    """A store holding ``space`` as its single, initial version."""
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
    an (id, level) key once; a re-added element keeps its old attributes
    (matching rows are skipped, contradicting ones are rejected).  A
    changeset that would leave an element generalising to one not in the
    new version is rejected with ``ForeignKeyError``, as is a pair across
    levels (``StoreFormatError``).

    The new store arrives with its ``history`` index, derived from the
    parent store's without reading a row, and holding the new version's
    space: committing again from the new version, or reconstructing it,
    reads no rows.
    """
    v = changes.version
    if v in store.vx:
        raise DuplicateKeyError(f"version {v!r} already exists")
    if parent not in store.vx:
        raise NotFoundError(f"unknown parent version {parent!r}")
    index = store.history
    base = reconstruct_version(store, parent)
    new_space = apply_changeset(base, changes)
    _check_generalisation(new_space, changes)
    removed = sorted(changes.remove_elements)
    added = sorted(el.key for el in changes.add_elements)
    dropped = sorted(base.relation - new_space.relation)
    linked = sorted(new_space.relation - base.relation)

    new_x, new_atts = _element_rows(new_space, added, v)
    recorded = {k: index.attributes(k) for k in added}
    for a in new_atts:
        prior = recorded[a.id, a.lod].get(a.name)
        if prior is not None and prior != a.value:
            raise DuplicateKeyError(
                f"attribute {a.name!r} of ({a.id}, {a.lod}) already recorded as {prior!r}"
            )
    new_atts = [a for a in new_atts if a.name not in recorded[a.id, a.lod]]

    pts = list(store.point)
    have = {p.key for p in pts} if points else set()
    for p in points:
        if p.key in have:
            raise DuplicateKeyError(f"coordinate row for {p.key} already exists")
        pts.append(p)
        have.add(p.key)

    child = VersionStore(
        x=store.x + tuple(new_x),
        r=store.r + tuple(_pair_row(p, v) for p in linked),
        point=pts,
        delx=store.delx + tuple(DelXRow(k.id, k.lod, v) for k in removed),
        delr=store.delr + tuple(DelRRow(p.ida.id, p.idb.id, p.ida.lod, v) for p in dropped),
        vx=store.vx + (v,),
        vr=store.vr + ((parent, v),),
        atts=store.atts + tuple(new_atts),
    )
    # what ``history`` would build from the rows, without reading them
    vars(child)["history"] = index.derive(parent, v, new_space, removed, added, dropped, linked)
    return child


def _check_generalisation(space: Space, changes: ChangeSet) -> None:
    """Reject a commit whose result ``space`` has an element generalising
    to one it lacks: one the changeset removed, or the missing target of
    one it added.  The smallest such element is named."""
    bad = [(el.key, el.gen_target) for el in changes.add_elements]
    bad = [(k, t) for k, t in bad if t is not None and t not in space]
    gone = changes.remove_elements
    if gone:
        bad += [(k, e.gen_target) for k, e in space.elements.items() if e.gen_target in gone]
    if bad:
        k, t = min(bad)
        raise ForeignKeyError(
            f"element {k} would generalise to {t}, which is not in version {changes.version!r}"
        )


# ---------------------------------------------------------------------------
# CSV serialisation

def save(store: VersionStore, path: str | Path) -> Path:
    """Write the canonical CSV files of the store into directory ``path``.

    Each file is replaced whole: the eight tables are written into a
    temporary sibling directory, then moved into place one by one with
    ``os.replace``, and the temporary directory is removed.  A failure
    while writing leaves the previous files untouched; a crash while moving
    can leave some files new and some old, since the set of eight is not
    replaced at once.  Nothing is flushed with ``fsync``, so what survives
    a power loss is up to the file system.
    """
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{directory.name}.", dir=directory.parent))
    try:
        for t in _TABLES.values():
            rows = getattr(store, t.field)
            with open(staging / t.file, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(t.header)
                writer.writerows(rows if t.write is None else map(t.write, rows))
        for t in _TABLES.values():
            os.replace(staging / t.file, directory / t.file)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return directory


def _read_table(directory: Path, name: str) -> list:
    """The rows of table ``name`` read from its CSV file.  Each column is
    parsed whole; only when that fails are the rows scanned, in order, for
    the first fault."""
    t = _TABLES[name]
    fpath = directory / t.file
    if not fpath.exists():
        raise StoreFormatError(f"missing store file {fpath}")
    with open(fpath, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
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
        columns = [
            _parsed(t.parse[c], col) if c in t.parse else col for c, col in zip(t.header, columns)
        ]
    except ValueError:
        raise _first_fault(name, rows) from None
    return t.rows(columns)


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
    """Read a store directory; validates headers, keys and foreign keys.

    Files in canonical order, as ``save`` writes them, are not sorted
    again: their keys rising strictly shows both the order and that no two
    rows share a key."""
    directory = Path(path)
    if not directory.is_dir():
        raise StoreFormatError(f"no store directory {directory}")
    tables = {n: _read_table(directory, n) for n in _LOAD_ORDER}
    if any(any(map(ge, *_neighbour_keys(_TABLES[n], rows))) for n, rows in tables.items()):
        store = VersionStore(**{_TABLES[n].field: rows for n, rows in tables.items()})
        dupes = _duplicate_rows(store)
        if dupes:
            raise DuplicateKeyError("; ".join(i.detail for i in dupes))
    else:
        store = VersionStore.__new__(VersionStore)
        for n, rows in tables.items():  # as a frozen dataclass sets its fields
            object.__setattr__(store, _TABLES[n].field, tuple(rows))
    fk = foreign_key_violations(store)
    if fk:
        raise ForeignKeyError("; ".join(i.detail for i in fk))
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


def _neighbour_keys(t: _Table, rows: Sequence) -> tuple[Iterable, Iterable]:
    """The keys of ``rows`` of table ``t`` and the keys of the rows after
    them, computed as they are read."""
    after = islice(rows, 1, None)
    if t.key is None:
        return rows, after
    return map(t.key, rows), map(t.key, after)


def _duplicate_rows(store: VersionStore) -> list[ValidationIssue]:
    """Each row whose key equals the key of the row before it: rows are in
    canonical order, so rows sharing a key are neighbours.  A table is
    scanned row by row only when it has one."""
    issues = []
    for name, t in _TABLES.items():
        rows = getattr(store, t.field)
        if not any(map(eq, *_neighbour_keys(t, rows))):
            continue
        for before, k in zip(*_neighbour_keys(t, rows)):
            if k == before:
                k = k if type(k) is str else tuple(k)  # a row or key shown as a plain tuple
                issues.append(
                    ValidationIssue("duplicate-row", name, f"{name}: duplicate key {k}", (k,))
                )
    return issues


def foreign_key_violations(store: VersionStore) -> list[ValidationIssue]:
    """Every foreign key of the schema, each reported with its witness row:
    by table, then row, then key.  A store that keeps every key formats no
    row, and makes no Python call per row."""
    known = {
        # (None, None): the target of an element that generalises to none
        "X": set(map(attrgetter("id", "lod"), store.x)) | {(None, None)},
        "VX": set(store.vx),
    }
    found = []
    for fk in _FOREIGN_KEYS:
        refs = known[fk.refs]
        rows = getattr(store, _TABLES[fk.table].field)
        if not refs.issuperset(map(fk.key, rows)):
            table = list(_TABLES).index(fk.table)
            found += [((table, n), fk, w) for n, w in enumerate(rows) if fk.key(w) not in refs]
    # a stable sort: the keys a row breaks stay in declaration order
    found.sort(key=itemgetter(0))
    return [
        ValidationIssue("foreign-key", fk.subject, fk.detail.format(w=w), (w,))
        for _, fk, w in found
    ]


def validate(store: VersionStore, rules: Sequence[str] = ()) -> list[ValidationIssue]:
    """Full consistency report.

    Always checked: duplicate keys, all foreign keys, time coordinates
    that are NaN (which ``time_slice`` refuses), acyclicity of the version
    graph, per-version reconstructability and T0, and on every
    version that each generalisation target exists and that the
    generalisation map is continuous on the rest (the continuous-foreign-key
    condition).  ``rules`` adds optional checks per version: "surjective"
    and "monotonic" for the generalisation map per level transition (the
    exact monotonicity check of ``check_map`` runs only under "monotonic",
    once per transition however often it is named), any other name is
    looked up in the consistency-rule registry.
    """
    issues = _duplicate_rows(store)
    issues += foreign_key_violations(store)
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

    low_rules = {name.lower() for name in rules}
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
            witness = _continuity_witness(restrict_map(SpaceMap(space, space, gen)))
            if witness is not None:
                issues.append(
                    ValidationIssue(
                        "cfk-continuity",
                        f"version {v}",
                        f"generalisation map discontinuous at {witness}",
                        witness,
                    )
                )
        maps = _level_maps(space) if low_rules & {"surjective", "monotonic"} else {}
        reports = {t: check_map(g) for t, g in maps.items()} if "monotonic" in low_rules else {}
        for name in rules:
            low = name.lower()
            if low == "surjective":
                missed = [(t, g.target.keys() - set(g.mapping.values())) for t, g in maps.items()]
                issues += [_map_issue(low, v, t, "targets missed:", m) for t, m in missed if m]
            elif low == "monotonic":
                issues += [
                    _map_issue(low, v, t, "disconnected preimage of", r.monotonicity_witness)
                    for t, r in reports.items()
                    if not r.monotonic
                ]
            else:
                for conflict in consistency_rule(name)(space):
                    issues.append(
                        ValidationIssue(
                            conflict.rule, f"version {v}", conflict.detail, conflict.witnesses
                        )
                    )
    return issues


def _map_issue(rule: str, v: str, transition, what: str, keys) -> ValidationIssue:
    """A finding of an optional rule on the level map of ``transition``."""
    a, b = transition
    detail = f"levels {a}->{b}: {what} {sorted(str(k) for k in keys)}"
    return ValidationIssue(rule, f"version {v}", detail, tuple(sorted(keys)))


# ---------------------------------------------------------------------------
# cross-version queries


def versions_with_path(
    store: VersionStore,
    a: ElementId,
    b: ElementId,
    region: Iterable[ElementId],
    rules: Sequence[str] = (),
    spaces: Mapping[str, Space] | None = None,
) -> frozenset[str]:
    """All versions in which ``a`` reaches ``b`` inside ``region``.

    Candidate versions are those where both endpoints are alive; in each,
    connectivity runs over the live bounded-by pairs within a level plus
    the generalisation pairs across levels.  When "monotonic" is among the
    rules (caller vouches for the map), single-level regions are answered
    through the coarse level first and only fall back to the fine level
    when the filter is inconclusive.  ``spaces``, when given, maps every
    version to its reconstructed space, so a caller that already holds
    them (to look a region up) does not reconstruct them twice.
    """
    region_keys = frozenset(region)
    if a not in region_keys or b not in region_keys:
        raise NotFoundError(f"query endpoints must lie in the region: {a}, {b}")
    vs = store.version_space()
    monotonic = any(r.lower() == "monotonic" for r in rules)

    hits = []
    for v in sorted(vs.versions):
        space = spaces[v] if spaces is not None else reconstruct_version(store, v)
        if a not in space or b not in space:
            continue
        sub = region_keys & space.keys()
        answer = _filtered_region_answer(space, sub, a, b) if monotonic else None
        if answer is None:
            answer = path_query(_linked(space), sub, a, b)
        if answer:
            hits.append(v)
    return frozenset(hits)


def _filtered_region_answer(space, sub, a, b):
    """Coarse-level filtering for single-level regions; None when inapplicable."""
    lods = {k.lod for k in sub}
    if len(lods) != 1:
        return None
    (lod,) = lods
    maps = [g for (source, _), g in _level_maps(space).items() if source == lod]
    # it applies when the whole level generalises onto one coarser level
    if len(maps) != 1 or len(maps[0].source) != sum(k.lod == lod for k in space.elements):
        return None
    return filtered_path_query(maps[0], sub, a, b).answer
