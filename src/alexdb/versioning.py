"""Version history as a finite space, plus reconstruction and merge.

The version graph (tokens plus transition edges) is itself a T0 space, so
the two directions of history are the two topological hulls: the minimal
neighbourhood of a version collects its ancestors, the closure collects its
descendants.  Reconstructability questions reduce to inclusions between
such hulls.

Element and pair rows carry the version that introduced them; deletion rows
carry the version that removed them.  An item is alive at ``v`` when some
creation on a path into ``v`` is not followed (at or after it, within the
ancestry of ``v``) by a deletion — so re-introducing an item after deleting
it works, and parallel-branch deletions take effect once merged in.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .errors import (
    DuplicateKeyError,
    IntegrityError,
    NotFoundError,
    T0ViolationError,
)
from .topology import (
    BoundedByPair,
    Element,
    ElementId,
    Space,
    build_space,
    closure,
    connected_components,
    find_cycle,
    simple_space,
    star,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime dependency
    from .storage import VersionStore


# ---------------------------------------------------------------------------
# the version space


@dataclass(frozen=True)
class VersionSpace:
    """Version tokens plus transition edges (from, to); always T0."""

    versions: frozenset[str]
    transitions: frozenset[tuple[str, str]]

    def __post_init__(self):
        for a, b in self.transitions:
            if a not in self.versions or b not in self.versions:
                raise NotFoundError(f"transition ({a}, {b}) references unknown version")
            if a == b:
                raise T0ViolationError(f"reflexive transition on {a!r}")
        cycle = find_cycle(self.as_space())
        if cycle is not None:
            raise T0ViolationError(
                f"version transitions form a cycle: {[str(k) for k in cycle]}",
                cycle=cycle,
            )

    def as_space(self) -> Space:
        """The version graph as a space, built once and shared by every call."""
        return self._space

    @cached_property
    def _space(self) -> Space:
        return simple_space(sorted(self.versions), sorted(self.transitions), t0_check=False)


def version_space(versions: Iterable[str], transitions: Iterable[tuple[str, str]]) -> VersionSpace:
    return VersionSpace(frozenset(versions), frozenset(tuple(t) for t in transitions))


def version_star(vs: VersionSpace, v: str) -> frozenset[str]:
    """Ancestry of ``v``: every version with a path into it, itself included.

    This is the minimal neighbourhood of ``v`` in the version space.
    """
    return frozenset(k.id for k in star(vs.as_space(), [ElementId(v)]))


def version_closure(vs: VersionSpace, v_set: Iterable[str]) -> frozenset[str]:
    """All versions reachable from ``v_set``: the closure (descendants)."""
    return frozenset(k.id for k in closure(vs.as_space(), [ElementId(v) for v in v_set]))


def version_neighbourhood(vs: VersionSpace, v_set: Iterable[str]) -> frozenset[str]:
    """All versions with a path into ``v_set``: the minimal open set around it."""
    return frozenset(k.id for k in star(vs.as_space(), [ElementId(v) for v in v_set]))


def reconstruction_covers(
    vs: VersionSpace,
    v0_set: Iterable[str],
    v: str,
    w_set: Iterable[str],
) -> bool:
    """Can ``v`` be reconstructed from bases ``v0_set`` via material in ``w_set``?

    The versions relevant to the reconstruction are those between the bases
    and ``v`` (ancestry of ``v`` intersected with descendants of the bases);
    ``w_set`` covers them when each is comparable to some member of
    ``w_set``.  Answered as the inclusion of the two hull sets.
    """
    between = version_neighbourhood(vs, [v]) & version_closure(vs, v0_set)
    w_list = list(w_set)
    if not w_list:
        return not between
    covered = version_neighbourhood(vs, w_list) | version_closure(vs, w_list)
    return between <= covered


# ---------------------------------------------------------------------------
# changesets


@dataclass(frozen=True)
class ChangeSet:
    """Elementary modifications leading to one target version."""

    version: str
    add_elements: tuple[Element, ...] = ()
    remove_elements: frozenset[ElementId] = frozenset()
    add_pairs: frozenset[BoundedByPair] = frozenset()
    remove_pairs: frozenset[BoundedByPair] = frozenset()

    def __post_init__(self):
        added = {el.key for el in self.add_elements}
        both = added & self.remove_elements
        if both:
            raise DuplicateKeyError(
                f"keys both added and removed in one changeset: {sorted(str(k) for k in both)}"
            )


def changeset(
    version: str,
    add_elements: Iterable[Element] = (),
    remove_elements: Iterable[str | ElementId] = (),
    add_pairs: Iterable[tuple | BoundedByPair] = (),
    remove_pairs: Iterable[tuple | BoundedByPair] = (),
) -> ChangeSet:
    """Normalising constructor: coerces bare strings and tuples at level 0."""

    def key(x):
        return x if isinstance(x, ElementId) else ElementId(x)

    def pair(p):
        return p if isinstance(p, BoundedByPair) else BoundedByPair(key(p[0]), key(p[1]))

    return ChangeSet(
        version=version,
        add_elements=tuple(add_elements),
        remove_elements=frozenset(key(k) for k in remove_elements),
        add_pairs=frozenset(pair(p) for p in add_pairs),
        remove_pairs=frozenset(pair(p) for p in remove_pairs),
    )


def apply_changeset(space: Space, changes: ChangeSet) -> Space:
    """Apply one changeset and return the new (validated T0) space.

    Removing an element first deletes its pairs and inserts bypass pairs
    from each of its predecessors to each of its successors, so remaining
    reachability is untouched and element removal equals subspace
    selection up to preorder.  Order: element removals, pair removals,
    element additions (stamped with the target version), pair additions.
    """
    missing = changes.remove_elements - space.keys()
    if missing:
        raise NotFoundError(f"cannot remove unknown elements: {sorted(str(k) for k in missing)}")
    elements = dict(space.elements)
    rel = set(space.relation)
    for x in sorted(changes.remove_elements):
        preds = {p.ida for p in rel if p.idb == x}
        succs = {p.idb for p in rel if p.ida == x}
        rel = {p for p in rel if x not in (p.ida, p.idb)}
        rel |= {BoundedByPair(y, z) for y in preds for z in succs if y != z}
        del elements[x]
    for p in sorted(changes.remove_pairs):
        if p not in rel:
            raise NotFoundError(f"cannot remove pair not in relation: {p}")
        rel.discard(p)
    for el in changes.add_elements:
        if el.key in elements:
            raise DuplicateKeyError(f"element {el.key} already alive")
        elements[el.key] = Element(
            key=el.key,
            version=changes.version,
            gen_target=el.gen_target,
            attributes=dict(el.attributes),
        )
    rel |= changes.add_pairs
    return build_space(elements.values(), rel, t0_check=True)


# ---------------------------------------------------------------------------
# liveness and reconstruction


def _liveness(creations, deletions, ancestry, descendants):
    """Items with a creation in ``ancestry`` not followed there by a deletion."""
    live = set()
    for item, created in creations.items():
        dels = {d for d in deletions.get(item, ()) if d in ancestry}
        for r in created:
            if r not in ancestry:
                continue
            if not any(d in descendants[r] for d in dels):
                live.add(item)
                break
    return live


def _pick_creation(created: set[str], ancestry: frozenset[str], descendants) -> str:
    """Deterministic creation row choice: a maximal one, ties lexicographic."""
    inside = sorted(r for r in created if r in ancestry)
    maximal = [
        r
        for r in inside
        if not any(other != r and other in descendants[r] for other in inside)
    ]
    return max(maximal)


def reconstruct_version(store: "VersionStore", v: str) -> Space:
    """The space at version ``v``, from creation/deletion rows and ancestry.

    Raises ``IntegrityError`` when a relevant deletion has no creation on
    any path before it — the store then contradicts itself.
    """
    vs = store.version_space()
    if v not in vs.versions:
        raise NotFoundError(f"unknown version {v!r}")
    ancestry = version_star(vs, v)
    descendants = {tok: version_closure(vs, [tok]) for tok in vs.versions}

    el_created: dict[ElementId, set[str]] = {}
    row_for: dict[tuple[ElementId, str], object] = {}
    for row in store.x:
        key = ElementId(row.id, row.lod)
        el_created.setdefault(key, set()).add(row.version)
        row_for[(key, row.version)] = row
    el_deleted: dict[ElementId, set[str]] = {}
    for row in store.delx:
        el_deleted.setdefault(ElementId(row.id, row.lod), set()).add(row.version)

    for key, dels in el_deleted.items():
        for d in dels:
            if d not in ancestry:
                continue
            created = el_created.get(key, set())
            if not any(d in descendants[r] for r in created):
                raise IntegrityError(
                    f"element {key} is deleted in {d!r} but created on no path before it"
                )

    live_keys = _liveness(el_created, el_deleted, ancestry, descendants)

    atts: dict[ElementId, dict] = {}
    for row in store.atts:
        atts.setdefault(ElementId(row.id, row.lod), {})[row.name] = row.value

    els = []
    for key in sorted(live_keys):
        r = _pick_creation(el_created[key], ancestry, descendants)
        xrow = row_for[(key, r)]
        gen = ElementId(xrow.gid, xrow.glod) if xrow.gid is not None else None
        els.append(Element(key=key, version=r, gen_target=gen, attributes=atts.get(key, {})))

    pr_created: dict[BoundedByPair, set[str]] = {}
    for row in store.r:
        p = BoundedByPair(ElementId(row.ida, row.lod), ElementId(row.idb, row.lod))
        pr_created.setdefault(p, set()).add(row.version)
    pr_deleted: dict[BoundedByPair, set[str]] = {}
    for row in store.delr:
        p = BoundedByPair(ElementId(row.ida, row.lod), ElementId(row.idb, row.lod))
        pr_deleted.setdefault(p, set()).add(row.version)
    for p, dels in pr_deleted.items():
        for d in dels:
            if d not in ancestry:
                continue
            if not any(d in descendants[r] for r in pr_created.get(p, set())):
                raise IntegrityError(
                    f"pair {p} is deleted in {d!r} but created on no path before it"
                )
    live_pairs = _liveness(pr_created, pr_deleted, ancestry, descendants)

    return build_space(els, live_pairs, t0_check=True)


# ---------------------------------------------------------------------------
# consistency rules


@dataclass(frozen=True)
class ConsistencyConflict:
    rule: str
    witnesses: tuple[ElementId, ...]
    detail: str


@dataclass(frozen=True)
class InherentConflict:
    subject: ElementId
    attribute: str
    value_a: object
    value_b: object


@dataclass(frozen=True)
class ConflictReport:
    """Merge outcome report; an empty report means the merge is usable."""

    inherent: tuple[InherentConflict, ...]
    consistency: tuple[ConsistencyConflict, ...]

    @property
    def ok(self) -> bool:
        return not self.inherent and not self.consistency


RuleFn = Callable[[Space], Sequence[ConsistencyConflict]]

_RULES: dict[str, RuleFn] = {}


def register_rule(name: str, fn: RuleFn) -> None:
    """Register a named consistency predicate usable by merge and validate."""
    _RULES[name.lower()] = fn


def consistency_rule(name: str) -> RuleFn:
    try:
        return _RULES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_RULES))
        raise NotFoundError(f"unknown consistency rule {name!r}; known: {known}") from None


def _rule_t0(space: Space) -> list[ConsistencyConflict]:
    cycle = find_cycle(space)
    if cycle is None:
        return []
    return [ConsistencyConflict("t0", tuple(cycle), "relation has a cycle")]


def _rule_linear_dag(space: Space) -> list[ConsistencyConflict]:
    """A single acyclic chain: degrees at most one, connected, no cycle."""
    out = []
    cycle = find_cycle(space)
    if cycle is not None:
        out.append(ConsistencyConflict("linear-dag", tuple(cycle), "relation has a cycle"))
    out_deg: dict[ElementId, list[ElementId]] = {k: [] for k in space.elements}
    in_deg: dict[ElementId, list[ElementId]] = {k: [] for k in space.elements}
    for p in space.relation:
        out_deg[p.ida].append(p.idb)
        in_deg[p.idb].append(p.ida)
    for k in sorted(space.elements):
        if len(out_deg[k]) > 1:
            out.append(
                ConsistencyConflict(
                    "linear-dag", (k, *sorted(out_deg[k])), f"{k} is bounded by several elements"
                )
            )
        if len(in_deg[k]) > 1:
            out.append(
                ConsistencyConflict(
                    "linear-dag", (k, *sorted(in_deg[k])), f"{k} bounds several elements"
                )
            )
    comps = connected_components(space)
    if len(comps) > 1:
        smallest = min(comps, key=lambda c: (len(c), sorted(c)))
        out.append(
            ConsistencyConflict(
                "linear-dag", tuple(sorted(smallest)), f"{len(comps)} components, not one chain"
            )
        )
    return out


register_rule("t0", _rule_t0)
register_rule("linear-dag", _rule_linear_dag)


# ---------------------------------------------------------------------------
# merge


def merge(a: Space, b: Space, rules: Iterable[str] = ()) -> tuple[Space, ConflictReport]:
    """Topological merge: union of elements by key and union of relations.

    Inherent conflicts list keys present on both sides whose non-version
    payloads disagree; consistency conflicts come from the named rules
    evaluated on the union.  The merged space is returned regardless — a
    non-empty report marks it unusable, it does not block construction
    (cycles included: run the "t0" rule to surface them).

    Only the two head spaces matter; no common ancestor is consulted.
    """
    els: dict[ElementId, Element] = {}
    inherent: list[InherentConflict] = []
    for k in sorted(a.keys() | b.keys()):
        ea = a.elements.get(k)
        eb = b.elements.get(k)
        if ea is not None and eb is not None:
            for name in sorted(set(ea.attributes) | set(eb.attributes)):
                va = ea.attributes.get(name)
                vb = eb.attributes.get(name)
                if va is not None and vb is not None and va != vb:
                    inherent.append(InherentConflict(k, name, va, vb))
            if (
                ea.gen_target is not None
                and eb.gen_target is not None
                and ea.gen_target != eb.gen_target
            ):
                inherent.append(InherentConflict(k, "gen_target", ea.gen_target, eb.gen_target))
            els[k] = Element(
                key=k,
                version=ea.version,
                gen_target=ea.gen_target if ea.gen_target is not None else eb.gen_target,
                attributes={**eb.attributes, **ea.attributes},
            )
        else:
            els[k] = ea if ea is not None else eb
    merged = build_space(els.values(), a.relation | b.relation, t0_check=False)
    consistency: list[ConsistencyConflict] = []
    for name in rules:
        consistency.extend(consistency_rule(name)(merged))
    return merged, ConflictReport(tuple(inherent), tuple(consistency))


# ---------------------------------------------------------------------------
# convenience


def text_space(text: str, ids: Sequence[str] | None = None, version: str | None = None) -> Space:
    """A string as a linear chain: letters as elements, order as the relation."""
    if ids is None:
        ids = [str(i + 1) for i in range(len(text))]
    if len(ids) != len(text):
        raise DuplicateKeyError("need exactly one id per character")
    els = [
        Element(key=ElementId(i), version=version, attributes={"letter": ch})
        for i, ch in zip(ids, text)
    ]
    pairs = [
        BoundedByPair(ElementId(ids[i]), ElementId(ids[i + 1])) for i in range(len(ids) - 1)
    ]
    return build_space(els, pairs)
