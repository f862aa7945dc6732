"""The integrated store: one relational snapshot of space, scale and history.

Eight CSV tables hold everything: ``X`` (elements; their level, their
generalisation target, the version that introduced them), ``R`` (bounded-by
pairs per level, tagged with their introducing version), ``Point``
(coordinates), ``DelX``/``DelR`` (deletions), ``VX``/``VR`` (the version
space), ``Atts`` (attribute sidecar).  Files are UTF-8 CSV with exact
headers, empty fields as NULL, shortest round-tripping decimal floats, and
rows in canonical (sorted) order, so saving is deterministic and diffable.

Stores are immutable snapshots: ``commit`` applies a changeset against a
parent version and returns a new store — a single-writer discipline with no
in-place mutation anywhere.  A store's ``history`` index (its version space,
ancestry bitsets and rows grouped by key) is built on first use and cached
on the store, which relies on that contract: never change a store's row
tuples, build a new store instead.

Attribute values are typed by shape on load: a field that reads back as a
canonical integer or float literal becomes that number, anything else stays
a string.  Strings that look like canonical numbers are therefore not
representable — use a prefix if you need them.
"""
from __future__ import annotations

import csv
import os
import shutil
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateKeyError,
    ForeignKeyError,
    NotFoundError,
    StoreFormatError,
    T0ViolationError,
)
from .spacetime import PointRow
from .topology import BoundedByPair, ElementId, Scalar, Space, build_space
from .versioning import (
    ChangeSet,
    HistoryIndex,
    VersionSpace,
    apply_changeset,
    consistency_rule,
    reconstruct_version,
)
from .algebra import SpaceMap, check_map, restrict_map, select_subspace
from .lod import filtered_path_query, path_query


# ---------------------------------------------------------------------------
# rows


@dataclass(frozen=True)
class XRow:
    id: str
    lod: int
    gid: str | None
    glod: int | None
    version: str


@dataclass(frozen=True)
class RRow:
    ida: str
    idb: str
    lod: int
    version: str


@dataclass(frozen=True)
class DelXRow:
    id: str
    lod: int
    version: str


@dataclass(frozen=True)
class DelRRow:
    ida: str
    idb: str
    lod: int
    version: str


@dataclass(frozen=True)
class AttRow:
    id: str
    lod: int
    name: str
    value: Scalar


@dataclass(frozen=True)
class VersionStore:
    """All eight tables, as immutable tuples of rows."""

    x: tuple[XRow, ...] = ()
    r: tuple[RRow, ...] = ()
    point: tuple[PointRow, ...] = ()
    delx: tuple[DelXRow, ...] = ()
    delr: tuple[DelRRow, ...] = ()
    vx: tuple[str, ...] = ()
    vr: tuple[tuple[str, str], ...] = ()
    atts: tuple[AttRow, ...] = ()

    def version_space(self) -> VersionSpace:
        return self.history.versions

    @cached_property
    def history(self) -> HistoryIndex:
        """The version space and rows indexed for reconstruction, built on
        first use and kept for the life of this (immutable) store."""
        return HistoryIndex(self)


def canonicalize(store: VersionStore) -> VersionStore:
    """Rows in canonical order; two stores are equal when these are equal."""
    return VersionStore(
        x=tuple(sorted(store.x, key=lambda w: (w.id, w.lod, w.version))),
        r=tuple(sorted(store.r, key=lambda w: (w.ida, w.idb, w.lod, w.version))),
        point=tuple(sorted(store.point, key=lambda w: (w.key.id, w.key.lod))),
        delx=tuple(sorted(store.delx, key=lambda w: (w.id, w.lod, w.version))),
        delr=tuple(sorted(store.delr, key=lambda w: (w.ida, w.idb, w.lod, w.version))),
        vx=tuple(sorted(store.vx)),
        vr=tuple(sorted(store.vr)),
        atts=tuple(sorted(store.atts, key=lambda w: (w.id, w.lod, w.name))),
    )


# ---------------------------------------------------------------------------
# building stores


def _space_rows(space: Space, version: str):
    xrows, rrows, attrows = [], [], []
    for k in sorted(space.elements):
        e = space.elements[k]
        gid = e.gen_target.id if e.gen_target is not None else None
        glod = e.gen_target.lod if e.gen_target is not None else None
        xrows.append(XRow(id=k.id, lod=k.lod, gid=gid, glod=glod, version=version))
        for name in sorted(e.attributes):
            attrows.append(AttRow(id=k.id, lod=k.lod, name=name, value=e.attributes[name]))
    for p in sorted(space.relation):
        if p.ida.lod != p.idb.lod:
            raise StoreFormatError(
                f"pair {p} spans levels; stored pairs are per-level "
                f"(cross-level structure lives in the generalisation columns)"
            )
        rrows.append(RRow(ida=p.ida.id, idb=p.idb.id, lod=p.ida.lod, version=version))
    return xrows, rrows, attrows


def new_store(version: str, space: Space, points: Iterable[PointRow] = ()) -> VersionStore:
    """A store holding ``space`` as its single, initial version."""
    xrows, rrows, attrows = _space_rows(space, version)
    return canonicalize(
        VersionStore(
            x=tuple(xrows),
            r=tuple(rrows),
            point=tuple(points),
            vx=(version,),
            atts=tuple(attrows),
        )
    )


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
    (matching rows are skipped, contradicting ones are rejected).
    """
    v = changes.version
    if v in store.vx:
        raise DuplicateKeyError(f"version {v!r} already exists")
    if parent not in store.vx:
        raise NotFoundError(f"unknown parent version {parent!r}")
    base = reconstruct_version(store, parent)
    new_space = apply_changeset(base, changes)

    xrows = list(store.x)
    rrows = list(store.r)
    delx = list(store.delx)
    delr = list(store.delr)
    atts = list(store.atts)
    att_index = {(a.id, a.lod, a.name): a.value for a in store.atts}

    for k in sorted(base.keys() - new_space.keys()):
        delx.append(DelXRow(id=k.id, lod=k.lod, version=v))
    for p in sorted(base.relation - new_space.relation):
        delr.append(DelRRow(ida=p.ida.id, idb=p.idb.id, lod=p.ida.lod, version=v))
    for k in sorted(new_space.keys() - base.keys()):
        e = new_space.elements[k]
        gid = e.gen_target.id if e.gen_target is not None else None
        glod = e.gen_target.lod if e.gen_target is not None else None
        xrows.append(XRow(id=k.id, lod=k.lod, gid=gid, glod=glod, version=v))
        for name in sorted(e.attributes):
            prior = att_index.get((k.id, k.lod, name))
            if prior is None:
                atts.append(AttRow(id=k.id, lod=k.lod, name=name, value=e.attributes[name]))
            elif prior != e.attributes[name]:
                raise DuplicateKeyError(
                    f"attribute {name!r} of ({k.id}, {k.lod}) already recorded as {prior!r}"
                )
    for p in sorted(new_space.relation - base.relation):
        rrows.append(RRow(ida=p.ida.id, idb=p.idb.id, lod=p.ida.lod, version=v))

    pts = list(store.point)
    have = {(p.key.id, p.key.lod) for p in pts}
    for p in points:
        if (p.key.id, p.key.lod) in have:
            raise DuplicateKeyError(f"coordinate row for {p.key} already exists")
        pts.append(p)
        have.add((p.key.id, p.key.lod))

    return canonicalize(
        VersionStore(
            x=tuple(xrows),
            r=tuple(rrows),
            point=tuple(pts),
            delx=tuple(delx),
            delr=tuple(delr),
            vx=store.vx + (v,),
            vr=store.vr + ((parent, v),),
            atts=tuple(atts),
        )
    )


# ---------------------------------------------------------------------------
# CSV serialisation

_FILES = {
    "X": ("X.csv", ["id", "lod", "gid", "glod", "version"]),
    "R": ("R.csv", ["ida", "idb", "lod", "version"]),
    "Point": ("Point.csv", ["pid", "lod", "x", "y", "z", "t"]),
    "DelX": ("DelX.csv", ["id", "lod", "version"]),
    "DelR": ("DelR.csv", ["ida", "idb", "lod", "version"]),
    "VX": ("VX.csv", ["version"]),
    "VR": ("VR.csv", ["fromv", "tov"]),
    "Atts": ("Atts.csv", ["id", "lod", "name", "value"]),
}


def _fmt_value(v: Scalar) -> str:
    if isinstance(v, bool):
        raise StoreFormatError("boolean attribute values are not part of the schema")
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_value(raw: str) -> Scalar:
    # numbers only when the text is their canonical form, so loads invert saves
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
    store = canonicalize(store)
    tables: dict[str, list[list[str]]] = {
        "X": [
            [w.id, str(w.lod), w.gid or "", "" if w.glod is None else str(w.glod), w.version]
            for w in store.x
        ],
        "R": [[w.ida, w.idb, str(w.lod), w.version] for w in store.r],
        "Point": [
            [w.key.id, str(w.key.lod), repr(w.x), repr(w.y), repr(w.z), repr(w.t)]
            for w in store.point
        ],
        "DelX": [[w.id, str(w.lod), w.version] for w in store.delx],
        "DelR": [[w.ida, w.idb, str(w.lod), w.version] for w in store.delr],
        "VX": [[v] for v in store.vx],
        "VR": [[a, b] for a, b in store.vr],
        "Atts": [[w.id, str(w.lod), w.name, _fmt_value(w.value)] for w in store.atts],
    }
    staging = Path(tempfile.mkdtemp(prefix=f".{directory.name}.", dir=directory.parent))
    try:
        for table, (fname, header) in _FILES.items():
            with open(staging / fname, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(tables[table])
        for fname, _ in _FILES.values():
            os.replace(staging / fname, directory / fname)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return directory


def _read_table(directory: Path, table: str) -> list[list[str]]:
    fname, header = _FILES[table]
    fpath = directory / fname
    if not fpath.exists():
        raise StoreFormatError(f"missing store file {fpath}")
    with open(fpath, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows or rows[0] != header:
        got = rows[0] if rows else []
        raise StoreFormatError(f"{fpath}: expected header {header}, got {got}")
    width = len(header)
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise StoreFormatError(f"{fpath}:{i}: expected {width} fields, got {len(row)}")
    return rows[1:]


def _int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise StoreFormatError(f"{where}: expected integer, got {raw!r}") from None


def _float(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise StoreFormatError(f"{where}: expected float, got {raw!r}") from None


def load(path: str | Path) -> VersionStore:
    """Read a store directory; validates headers, keys and foreign keys."""
    directory = Path(path)
    if not directory.is_dir():
        raise StoreFormatError(f"no store directory {directory}")

    xrows = []
    for row in _read_table(directory, "X"):
        rid, lod, gid, glod, version = row
        if (gid == "") != (glod == ""):
            raise StoreFormatError(
                f"X.csv: generalisation columns must be both set or both empty in {row}"
            )
        xrows.append(
            XRow(
                id=rid,
                lod=_int(lod, "X.lod"),
                gid=gid or None,
                glod=None if glod == "" else _int(glod, "X.glod"),
                version=version,
            )
        )
    rrows = [
        RRow(ida=a, idb=b, lod=_int(lod, "R.lod"), version=v)
        for a, b, lod, v in _read_table(directory, "R")
    ]
    points = [
        PointRow(
            key=ElementId(pid, _int(lod, "Point.lod")),
            x=_float(x, "Point.x"),
            y=_float(y, "Point.y"),
            z=_float(z, "Point.z"),
            t=_float(t, "Point.t"),
        )
        for pid, lod, x, y, z, t in _read_table(directory, "Point")
    ]
    delx = [
        DelXRow(id=i, lod=_int(lod, "DelX.lod"), version=v)
        for i, lod, v in _read_table(directory, "DelX")
    ]
    delr = [
        DelRRow(ida=a, idb=b, lod=_int(lod, "DelR.lod"), version=v)
        for a, b, lod, v in _read_table(directory, "DelR")
    ]
    vx = [v for (v,) in _read_table(directory, "VX")]
    vr = [(a, b) for a, b in _read_table(directory, "VR")]
    atts = [
        AttRow(id=i, lod=_int(lod, "Atts.lod"), name=n, value=_parse_value(raw))
        for i, lod, n, raw in _read_table(directory, "Atts")
    ]
    store = canonicalize(
        VersionStore(
            x=tuple(xrows),
            r=tuple(rrows),
            point=tuple(points),
            delx=tuple(delx),
            delr=tuple(delr),
            vx=tuple(vx),
            vr=tuple(vr),
            atts=tuple(atts),
        )
    )
    dupes = _duplicate_rows(store)
    if dupes:
        raise DuplicateKeyError("; ".join(i.detail for i in dupes))
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


def _duplicate_rows(store: VersionStore) -> list[ValidationIssue]:
    issues = []

    def check(name, keys):
        seen = set()
        for k in keys:
            if k in seen:
                issues.append(
                    ValidationIssue("duplicate-row", name, f"{name}: duplicate key {k}", (k,))
                )
            seen.add(k)

    check("X", [(w.id, w.lod, w.version) for w in store.x])
    check("R", [(w.ida, w.idb, w.lod, w.version) for w in store.r])
    check("Point", [(w.key.id, w.key.lod) for w in store.point])
    check("DelX", [(w.id, w.lod, w.version) for w in store.delx])
    check("DelR", [(w.ida, w.idb, w.lod, w.version) for w in store.delr])
    check("VX", list(store.vx))
    check("VR", list(store.vr))
    check("Atts", [(w.id, w.lod, w.name) for w in store.atts])
    return issues


def foreign_key_violations(store: VersionStore) -> list[ValidationIssue]:
    """Every foreign key of the schema, each reported with its witness row."""
    issues = []
    el_keys = {(w.id, w.lod) for w in store.x}
    versions = set(store.vx)

    def fk(subject, ok, detail, witness):
        if not ok:
            issues.append(ValidationIssue("foreign-key", subject, detail, (witness,)))

    for w in store.x:
        fk("X.version→VX", w.version in versions, f"X row {w} names unknown version", w)
        if w.gid is not None:
            fk(
                "X.(gid,glod)→X",
                (w.gid, w.glod) in el_keys,
                f"X row {w} generalises to unknown element ({w.gid}, {w.glod})",
                w,
            )
    for w in store.r:
        fk("R.ida→X", (w.ida, w.lod) in el_keys, f"R row {w} references unknown ida", w)
        fk("R.idb→X", (w.idb, w.lod) in el_keys, f"R row {w} references unknown idb", w)
        fk("R.version→VX", w.version in versions, f"R row {w} names unknown version", w)
    for w in store.point:
        fk(
            "Point.pid→X",
            (w.key.id, w.key.lod) in el_keys,
            f"Point row for {w.key} references unknown element",
            w,
        )
    for w in store.delx:
        fk("DelX.id→X", (w.id, w.lod) in el_keys, f"DelX row {w} references unknown element", w)
        fk("DelX.version→VX", w.version in versions, f"DelX row {w} names unknown version", w)
    for w in store.delr:
        fk("DelR.ida→X", (w.ida, w.lod) in el_keys, f"DelR row {w} references unknown ida", w)
        fk("DelR.idb→X", (w.idb, w.lod) in el_keys, f"DelR row {w} references unknown idb", w)
        fk("DelR.version→VX", w.version in versions, f"DelR row {w} names unknown version", w)
    for a, b in store.vr:
        fk("VR.fromv→VX", a in versions, f"VR row ({a}, {b}) names unknown source version", (a, b))
        fk("VR.tov→VX", b in versions, f"VR row ({a}, {b}) names unknown target version", (a, b))
    for w in store.atts:
        fk(
            "Atts.id→X",
            (w.id, w.lod) in el_keys,
            f"Atts row {w} references unknown element",
            w,
        )
    return issues


def _gen_map(space: Space) -> SpaceMap:
    """The (partial) generalisation map of a space, from its target columns."""
    mapping = {
        k: e.gen_target for k, e in space.elements.items() if e.gen_target is not None
    }
    return SpaceMap(source=space, target=space, mapping=mapping)


def validate(store: VersionStore, rules: Sequence[str] = ()) -> list[ValidationIssue]:
    """Full consistency report.

    Always checked: duplicate keys, all foreign keys, acyclicity of the
    version graph, per-version reconstructability and T0, and continuity of
    the generalisation map on every version (the continuous-foreign-key
    condition).  ``rules`` adds optional checks per version: "surjective"
    and "monotonic" for the generalisation map per level transition, any
    other name is looked up in the consistency-rule registry.
    """
    issues = _duplicate_rows(store)
    issues += foreign_key_violations(store)

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
        except Exception as exc:
            kind = "t0" if isinstance(exc, T0ViolationError) else "integrity"
            issues.append(
                ValidationIssue(kind, f"version {v}", f"cannot reconstruct {v!r}: {exc}")
            )
            continue
        gen = _gen_map(space)
        if gen.mapping:
            report = check_map(restrict_map(gen))
            if not report.continuous:
                issues.append(
                    ValidationIssue(
                        "cfk-continuity",
                        f"version {v}",
                        f"generalisation map discontinuous at {report.continuity_witness}",
                        report.continuity_witness,
                    )
                )
        for name in rules:
            low = name.lower()
            if low in ("surjective", "monotonic"):
                issues += _check_transitions(space, v, low)
            else:
                for conflict in consistency_rule(name)(space):
                    issues.append(
                        ValidationIssue(
                            conflict.rule, f"version {v}", conflict.detail, conflict.witnesses
                        )
                    )
    return issues


def _check_transitions(space: Space, v: str, rule: str) -> list[ValidationIssue]:
    issues = []
    transitions = sorted(
        {
            (k.lod, e.gen_target.lod)
            for k, e in space.elements.items()
            if e.gen_target is not None
        }
    )
    for a, b in transitions:
        domain = [
            k
            for k, e in space.elements.items()
            if k.lod == a and e.gen_target is not None and e.gen_target.lod == b
        ]
        target_keys = [k for k in space.elements if k.lod == b]
        source = select_subspace(space, domain)
        target = select_subspace(space, target_keys)
        g = SpaceMap(source, target, {k: space.elements[k].gen_target for k in domain})
        report = check_map(g)
        if rule == "surjective" and not report.surjective:
            issues.append(
                ValidationIssue(
                    "surjective",
                    f"version {v}",
                    f"levels {a}->{b}: targets missed: "
                    f"{sorted(str(k) for k in report.missed_targets)}",
                    tuple(sorted(report.missed_targets)),
                )
            )
        if rule == "monotonic" and report.monotonic is False:
            issues.append(
                ValidationIssue(
                    "monotonic",
                    f"version {v}",
                    f"levels {a}->{b}: disconnected preimage of "
                    f"{sorted(str(k) for k in report.monotonicity_witness)}",
                    tuple(sorted(report.monotonicity_witness)),
                )
            )
    return issues


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
        gen_pairs = {
            BoundedByPair(k, e.gen_target)
            for k, e in space.elements.items()
            if e.gen_target is not None
        }
        linked = build_space(
            space.elements.values(), space.relation | gen_pairs, t0_check=False
        )
        sub = region_keys & linked.keys()
        if a not in sub or b not in sub:
            continue
        answer = None
        if monotonic:
            answer = _filtered_region_answer(space, linked, sub, a, b)
        if answer is None:
            answer = path_query(linked, sub, a, b)
        if answer:
            hits.append(v)
    return frozenset(hits)


def _filtered_region_answer(space, linked, sub, a, b):
    """Coarse-level filtering for single-level regions; None when inapplicable."""
    lods = {k.lod for k in sub}
    if len(lods) != 1:
        return None
    (lod,) = lods
    level_keys = [k for k in space.elements if k.lod == lod]
    targets = {k: space.elements[k].gen_target for k in level_keys}
    if any(t is None for t in targets.values()):
        return None
    target_lods = {t.lod for t in targets.values()}
    if len(target_lods) != 1:
        return None
    (tlod,) = target_lods
    source = select_subspace(space, level_keys)
    target = select_subspace(space, [k for k in space.elements if k.lod == tlod])
    g = SpaceMap(source, target, targets)
    return filtered_path_query(g, sub, a, b).answer
