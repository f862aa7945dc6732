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
it works, and parallel-branch deletions take effect once merged in.  Each
store computes those hulls and groups its rows once, in its
``HistoryIndex``; reconstructing a version is then bitset tests.
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
    if changes.remove_elements:
        # one-step neighbours, kept up to date as removals add bypass pairs
        preds: dict[ElementId, set[ElementId]] = {k: set() for k in elements}
        succs: dict[ElementId, set[ElementId]] = {k: set() for k in elements}
        for p in rel:
            preds[p.idb].add(p.ida)
            succs[p.ida].add(p.idb)
        for x in sorted(changes.remove_elements):
            above, below = preds.pop(x), succs.pop(x)
            for y in above:
                succs[y].discard(x)
                rel.discard(BoundedByPair(y, x))
            for z in below:
                preds[z].discard(x)
                rel.discard(BoundedByPair(x, z))
            for y in above:
                for z in below - {y}:
                    rel.add(BoundedByPair(y, z))
                    succs[y].add(z)
                    preds[z].add(y)
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
# the history index and reconstruction


def _masks(rows: Iterable[tuple], bit: Mapping[str, int]) -> dict:
    """The mask of versions per subject over ``(subject, version)`` rows;
    rows naming a version outside ``bit`` are left out."""
    masks: dict = {}
    for subject, version in rows:
        b = bit.get(version)
        if b is not None:
            masks[subject] = masks.get(subject, 0) | 1 << b
    return masks


def _uncreated(created: int, deleted: int, ancestry: list[int]) -> int:
    """The deletions in ``deleted`` that no creation in ``created`` precedes."""
    bad = 0
    while deleted:
        low = deleted & -deleted
        if not created & ancestry[low.bit_length() - 1]:
            bad |= low
        deleted ^= low
    return bad


class HistoryIndex:
    """A store's version space and rows, indexed once for reconstruction.

    In the version space, the minimal neighbourhood of a version is its
    ancestry, so "is this row in effect at ``v``" is a bitset test.
    Version ``names[i]`` is bit ``1 << i``; names are sorted, so bit order
    is name order.  ``ancestry[i]`` and ``descendants[i]`` are the masks of
    the minimal neighbourhood and of the closure of version ``i``, itself
    included.  ``elements`` holds five parallel columns with one entry per
    element some row creates, in key order: the key, the masks of the
    versions creating and deleting it, its generalisation target (a dict
    from creation bit to target when several rows create it) and its
    attributes as ``(name, value)`` pairs.  ``pairs`` holds three columns
    in canonical row order: the pair and its creation and deletion masks.
    Columns of plain ints and tuples, rather than a container per
    element, keep the index small and mostly outside the garbage
    collector's reach.  ``broken`` lists, in canonical row order, each
    element or pair with the mask of its deletions that no creation
    precedes.  Rows naming a version the store lacks are left out;
    ``validate`` reports them as foreign-key violations.
    """

    __slots__ = ("versions", "names", "bit", "ancestry", "descendants",
                 "elements", "pairs", "broken")

    def __init__(self, store: "VersionStore"):
        self.versions = VersionSpace(frozenset(store.vx), frozenset(store.vr))
        idx = self.versions.as_space().index
        self.names = [k.id for k in idx.keys]
        self.bit = bit = {name: i for i, name in enumerate(self.names)}
        ancestry = [1 << i for i in range(len(self.names))]
        descendants = list(ancestry)
        for i in idx.order:  # Kahn's order: parents before children
            for j in idx.out[i]:
                ancestry[j] |= ancestry[i]
        for i in reversed(idx.order):
            for j in idx.out[i]:
                descendants[i] |= descendants[j]
        self.ancestry, self.descendants = ancestry, descendants

        # rows are grouped by their raw key columns, (id, lod) and
        # (ida, idb, lod), whose sorted order is the canonical row order;
        # each key object is built once and shared by elements and pairs
        interned: dict[tuple[str, int], ElementId] = {}

        def key(columns: tuple[str, int]) -> ElementId:
            k = interned.get(columns)
            if k is None:
                k = interned[columns] = ElementId(*columns)
            return k

        gens: dict[tuple[str, int], dict[int, ElementId | None]] = {}
        for w in store.x:
            b = bit.get(w.version)
            if b is not None:
                gen = key((w.gid, w.glod)) if w.gid is not None else None
                gens.setdefault((w.id, w.lod), {})[b] = gen
        atts: dict[tuple[str, int], dict] = {}
        for w in store.atts:
            atts.setdefault((w.id, w.lod), {})[w.name] = w.value
        el_created = {k: sum(1 << b for b in by_bit) for k, by_bit in gens.items()}
        el_deleted = _masks((((w.id, w.lod), w.version) for w in store.delx), bit)
        order = sorted(gens)
        self.elements = (
            [key(k) for k in order],
            [el_created[k] for k in order],
            [el_deleted.get(k, 0) for k in order],
            [next(iter(gens[k].values())) if len(gens[k]) == 1 else gens[k] for k in order],
            [tuple(atts[k].items()) if k in atts else () for k in order],
        )

        pr_created = _masks((((w.ida, w.idb, w.lod), w.version) for w in store.r), bit)
        pr_deleted = _masks((((w.ida, w.idb, w.lod), w.version) for w in store.delr), bit)
        rows = sorted(pr_created)
        self.pairs = (
            [BoundedByPair(key((ida, lod)), key((idb, lod))) for ida, idb, lod in rows],
            [pr_created[columns] for columns in rows],
            [pr_deleted.get(columns, 0) for columns in rows],
        )

        self.broken: list[tuple[str, int]] = []
        for created, deleted, subject in (
            (el_created, el_deleted, lambda i, lod: f"element {ElementId(i, lod)}"),
            (pr_created, pr_deleted,
             lambda a, b, lod: f"pair {BoundedByPair(ElementId(a, lod), ElementId(b, lod))}"),
        ):
            for columns, mask in sorted(deleted.items()):
                bad = _uncreated(created.get(columns, 0), mask, ancestry)
                if bad:
                    self.broken.append((subject(*columns), bad))


def _alive(inside: int, deleted: int, descendants: list[int]) -> bool:
    """Whether some creation in ``inside`` has no deletion in ``deleted``
    at or after it."""
    if not deleted:
        return True
    while inside:
        low = inside & -inside
        if not deleted & descendants[low.bit_length() - 1]:
            return True
        inside ^= low
    return False


def _newest(inside: int, descendants: list[int]) -> int:
    """The bit of the creation chosen among ``inside``: a maximal one,
    ties broken by the largest version name."""
    best = -1
    rest = inside
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        if inside & descendants[i] == low:
            best = i  # bits ascend with the names, so the last one wins
        rest ^= low
    return best


def reconstruct_version(store: "VersionStore", v: str) -> Space:
    """The space at version ``v``, from creation/deletion rows and ancestry.

    Answered from the store's ``HistoryIndex`` by bitset tests against the
    ancestry of ``v``.  Raises ``IntegrityError`` when a relevant deletion
    has no creation on any path before it — the store then contradicts
    itself.
    """
    index = store.history
    b = index.bit.get(v)
    if b is None:
        raise NotFoundError(f"unknown version {v!r}")
    ancestry = index.ancestry[b]
    names = index.names
    for subject, bad in index.broken:
        hit = bad & ancestry
        if hit:
            first = names[(hit & -hit).bit_length() - 1]
            raise IntegrityError(
                f"{subject} is deleted in {first!r} but created on no path before it"
            )
    descendants = index.descendants
    els = []
    for key, created, deleted, gen, atts in zip(*index.elements):
        inside = created & ancestry
        if not inside or not _alive(inside, deleted & ancestry, descendants):
            continue
        c = _newest(inside, descendants) if inside & (inside - 1) else inside.bit_length() - 1
        if type(gen) is dict:
            gen = gen[c]
        els.append(Element(key, names[c], gen, dict(atts)))
    pairs = []
    for pair, created, deleted in zip(*index.pairs):
        inside = created & ancestry
        if inside and _alive(inside, deleted & ancestry, descendants):
            pairs.append(pair)
    return build_space(els, pairs, t0_check=True)


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
