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
``HistoryIndex``; reconstructing a version is then bitset tests.  A child
version's ancestry is its parent's plus itself, so a commit derives the
child store's index from the parent's, in time linear in the changeset and
the number of versions, with no row read again.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, repeat
from operator import eq, is_not, itemgetter, lshift
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
    _assemble,
    _bits,
    _rank_masks,
    _tuples,
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

    return ChangeSet(
        version=version,
        add_elements=tuple(add_elements),
        remove_elements=frozenset(key(k) for k in remove_elements),
        add_pairs=frozenset(BoundedByPair(key(a), key(b)) for a, b in add_pairs),
        remove_pairs=frozenset(BoundedByPair(key(a), key(b)) for a, b in remove_pairs),
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


def _row_order(pair: BoundedByPair) -> tuple[str, str, int]:
    """A pair's raw ``(ida, idb, lod)`` columns, whose order is row order."""
    return pair[0][0], pair[1][0], pair[0][1]


def _creations(rows: Sequence[tuple], width: int, subject: int, bit: Mapping[str, int]):
    """Of the creation ``rows`` (``width`` columns, version last, in
    canonical order) that name a version in ``bit``: their columns and
    version bits, the subjects they create (a subject is a row's first
    ``subject`` columns) as columns in row order, and the mask of the
    versions creating each subject.  Rows sharing a subject are neighbours;
    most subjects have one row, and their masks are read straight off the
    bits."""
    columns = list(zip(*rows)) or [()] * width
    bits = list(map(bit.get, columns[-1]))
    if None in bits:
        keep = list(map(is_not, bits, repeat(None)))
        columns = [list(compress(c, keep)) for c in columns]
        bits = list(compress(bits, keep))
    subjects = columns[:subject]
    if not any(map(eq, zip(*subjects), zip(*(c[1:] for c in subjects)))):
        return columns, bits, subjects, list(map(lshift, repeat(1), bits))
    place = dict(zip(dict.fromkeys(zip(*subjects)), count()))
    created = [0] * len(place)
    for s, b in zip(zip(*subjects), bits):
        created[place[s]] |= 1 << b
    return columns, bits, list(zip(*place)), created


def _interned(ids: Sequence, lods: Sequence, place: Mapping[tuple, int], keys: list[ElementId]):
    """The key of each ``(id, lod)`` of the columns ``ids`` and ``lods``
    and its place among ``keys``: -1 when it is not one of them, and the
    key is then built (None for an empty id)."""
    at = list(map(place.get, zip(ids, lods), repeat(-1)))
    found = list(map((keys + [None]).__getitem__, at))
    if at.count(-1) > ids.count(None):
        found = [
            ElementId(i, lod) if k is None and i is not None else k
            for k, i, lod in zip(found, ids, lods)
        ]
    return found, at


class HistoryIndex:
    """A store's versions and rows, indexed once for reconstruction.

    In the version space, the minimal neighbourhood of a version is its
    ancestry, so "is this row in effect at ``v``" is a bitset test.
    Version ``names[i]`` is bit ``1 << i``.  A store read from rows numbers
    its versions in name order; ``derive`` gives a child version the next
    free bit, so bit order is not name order, and every tie between
    versions is broken by comparing names.  ``ancestry[i]`` and
    ``descendants[i]`` are the masks of the minimal neighbourhood and of
    the closure of version ``i``, itself included.  ``elements`` holds five
    parallel columns with one entry per element some row creates, in key
    order: the key, the masks of the versions creating and deleting it,
    its generalisation target (a dict from creation bit to target when
    several rows create it) and its attributes as ``(name, value)`` pairs
    in name order.  ``pairs`` holds three columns in row order: the pair
    and its creation and deletion masks.  ``ends``, when known, holds two
    more: the places of each pair's ends in ``elements`` (-1 for a key no
    row creates), so a reconstruction fills in its space's index without
    looking a key up.  Columns of plain ints and tuples, rather than a
    container per element, keep the index small and mostly outside the
    garbage collector's reach.  ``broken`` lists, in row order, each
    element or pair with the mask of its deletions that no creation
    precedes.  Rows naming a version the store lacks are left out;
    ``validate`` reports them as foreign-key violations.  ``held`` is None
    or one ``(version, space)``: the space ``reconstruct_version`` answers
    for that version without reading the columns.

    The columns are built from the table columns in one pass each: every
    key is built once, shared by the element, pair and generalisation
    columns, and a creation or attribute row costs no Python call unless
    its subject has several creation rows or it names a key no row
    creates.  ``ends`` comes from the same pass.
    """

    __slots__ = ("names", "bit", "ancestry", "descendants", "elements", "pairs", "ends",
                 "broken", "held")

    def __init__(self, store: "VersionStore"):
        versions = store.version_space().as_space()
        self.names = [k.id for k in versions.index.keys]
        self.bit = bit = {name: i for i, name in enumerate(self.names)}
        self.descendants, self.ancestry = _rank_masks(versions, range(len(self.names)))
        self.held = None

        # rows arrive in canonical order, so their subjects, (id, lod) and
        # (ida, idb, lod), first appear in key order
        (ids, lods, gids, glods, _), bits, subjects, created = _creations(store.x, 5, 2, bit)
        keys = _tuples(ElementId, zip(*subjects))
        place = dict(zip(keys, count()))
        gens: list = _interned(gids, glods, place, keys)[0]
        if len(created) < len(bits):  # elements created by several rows
            by_bit: list[dict] = [{} for _ in keys]
            for subject, b, gen in zip(zip(ids, lods), bits, gens):
                by_bit[place[subject]][b] = gen
            gens = [next(iter(g.values())) if len(g) == 1 else g for g in by_bit]
        aids, alods, names, values = list(zip(*store.atts)) or [()] * 4
        # each element's attribute rows are one run, which ends after the
        # key's last row; a run naming an attribute twice keeps the last
        stops = dict(zip(zip(aids, alods), count(1)))
        named = list(zip(names, values))
        runs = map(named.__getitem__, map(slice, [0, *stops.values()], stops.values()))
        if any(map(eq, zip(aids, alods, names), zip(aids[1:], alods[1:], names[1:]))):
            runs = map(dict.items, map(dict, runs))
        recorded = dict(zip(stops, map(tuple, runs)))
        dx = list(zip(*store.delx)) or [()] * 3
        el_deleted = _masks(zip(zip(dx[0], dx[1]), dx[2]), bit)
        self.elements = (
            keys,
            created,
            list(map(el_deleted.get, keys, repeat(0))),
            gens,
            list(map(recorded.get, keys, repeat(()))),
        )

        _, _, (idas, idbs, lods), p_created = _creations(store.r, 4, 3, bit)
        ka, ends_a = _interned(idas, lods, place, keys)
        kb, ends_b = _interned(idbs, lods, place, keys)
        dr = list(zip(*store.delr)) or [()] * 4
        pr_deleted = _masks(zip(zip(dr[0], dr[1], dr[2]), dr[3]), bit)
        self.pairs = (
            _tuples(BoundedByPair, zip(ka, kb)),
            p_created,
            list(map(pr_deleted.get, zip(idas, idbs, lods), repeat(0))),
        )
        self.ends = ends_a, ends_b

        pair_place = dict(zip(zip(idas, idbs, lods), count())) if pr_deleted else {}
        self.broken: list[tuple[str, int]] = []
        for subjects, created, deleted, subject in (
            (place, created, el_deleted, lambda i, lod: f"element {ElementId(i, lod)}"),
            (pair_place, p_created, pr_deleted,
             lambda a, b, lod: f"pair {BoundedByPair(ElementId(a, lod), ElementId(b, lod))}"),
        ):
            for columns, mask in deleted.items():
                i = subjects.get(columns)
                bad = _uncreated(0 if i is None else created[i], mask, self.ancestry)
                if bad:
                    self.broken.append((subject(*columns), bad))

    def pair_ends(self) -> tuple[list[int], list[int]]:
        """``ends``, found on first use from the keys of each pair."""
        if self.ends is None:
            place = dict(zip(self.elements[0], count()))
            pairs = self.pairs[0]
            self.ends = tuple(
                list(map(place.get, map(itemgetter(end), pairs), repeat(-1))) for end in (0, 1)
            )
        return self.ends

    def attributes(self, key: ElementId) -> dict:
        """The attributes recorded for ``key``, by name; empty when no row
        creates it."""
        keys = self.elements[0]
        i = bisect_left(keys, key)
        return dict(self.elements[4][i]) if i < len(keys) and keys[i] == key else {}

    def derive(
        self,
        parent: str,
        version: str,
        space: Space,
        removed: Sequence[ElementId],
        added: Sequence[ElementId],
        dropped: Sequence[BoundedByPair],
        linked: Sequence[BoundedByPair],
    ) -> "HistoryIndex":
        """The index of the store that commits ``space`` as a child of
        ``parent``, without reading a row.

        ``space`` is the changeset of ``version`` applied to ``parent``'s
        space.  ``removed`` and ``added`` are the elements the commit
        deletes and creates, ``dropped`` and ``linked`` the pairs.  The new
        version takes the next free bit: its ancestry is ``parent``'s plus
        itself, and it joins the descendants of each of those.  The columns
        are copied and only the keys the commit touches change, so this
        index stays valid for its own store; ``ends`` is left to be found
        on first use.  ``broken`` carries over: a commit deletes only what
        is alive in its parent.  The derived index holds the new version's
        space, so the next commit from it or a checkout of it reads no
        column.
        """
        n = len(self.names)
        bit = 1 << n
        new = HistoryIndex.__new__(HistoryIndex)
        new.names = self.names + [version]
        new.bit = {**self.bit, version: n}
        up = self.ancestry[self.bit[parent]] | bit
        descendants = self.descendants + [bit]
        for i in _bits(up ^ bit):
            descendants[i] |= bit
        new.ancestry = self.ancestry + [up]
        new.descendants = descendants
        new.broken = self.broken

        keys, created, deleted, gens, atts = (list(c) for c in self.elements)
        for k in removed:
            deleted[bisect_left(keys, k)] |= bit
        for k in added:
            e = space.elements[k]
            i = bisect_left(keys, k)
            if i < len(keys) and keys[i] == k:  # created again
                gen = gens[i]
                if type(gen) is not dict:
                    gen = {created[i].bit_length() - 1: gen}
                gens[i] = {**gen, n: e.gen_target}
                created[i] |= bit
                atts[i] = tuple(sorted({**dict(atts[i]), **e.attributes}.items()))
            else:
                keys.insert(i, k)
                created.insert(i, bit)
                deleted.insert(i, 0)
                gens.insert(i, e.gen_target)
                atts.insert(i, tuple(sorted(e.attributes.items())))
        new.elements = keys, created, deleted, gens, atts

        pairs, p_created, p_deleted = (list(c) for c in self.pairs)
        for p in dropped:
            p_deleted[bisect_left(pairs, _row_order(p), key=_row_order)] |= bit
        for p in linked:
            i = bisect_left(pairs, _row_order(p), key=_row_order)
            if i < len(pairs) and pairs[i] == p:
                p_created[i] |= bit
            else:
                pairs.insert(i, p)
                p_created.insert(i, bit)
                p_deleted.insert(i, 0)
        new.pairs = pairs, p_created, p_deleted
        new.ends = None  # places shift as keys are inserted: found on first use

        # the held space is what the columns give: created elements carry
        # every attribute recorded for their key, and keys are in key order
        elements = space.elements
        if added:
            elements = dict(elements)
            for k in added:
                e = elements[k]
                i = bisect_left(keys, k)
                elements[k] = Element(k, e.version, e.gen_target, dict(atts[i]))
            elements = {k: elements[k] for k in sorted(elements)}
            space = Space(elements, space.relation)
        new.held = version, space
        return new


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


def _newest(inside: int, descendants: list[int], names: list[str]) -> int:
    """The bit of the creation chosen among ``inside``: a maximal one,
    ties broken by the largest version name."""
    best = -1
    rest = inside
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        if inside & descendants[i] == low and (best < 0 or names[i] > names[best]):
            best = i
        rest ^= low
    return best


def reconstruct_version(store: "VersionStore", v: str) -> Space:
    """The space at version ``v``, from creation/deletion rows and ancestry.

    Answered from the store's ``HistoryIndex``: the space it holds when
    ``v`` is that one (a committed store holds its newest version), else
    bitset tests against the ancestry of ``v``.  Raises ``IntegrityError``
    when a relevant deletion has no creation on any path before it — the
    store then contradicts itself; the error names the first such version
    by name.
    """
    index = store.history
    if index.held is not None and index.held[0] == v:
        return index.held[1]
    return _reconstruct(index, v)


def _reconstruct(index: HistoryIndex, v: str) -> Space:
    """``reconstruct_version`` read from the index's columns.  The live
    pairs go to ``_assemble`` with the positions of their ends, read off
    the places the index keeps, so no key is looked up."""
    b = index.bit.get(v)
    if b is None:
        raise NotFoundError(f"unknown version {v!r}")
    ancestry = index.ancestry[b]
    names = index.names
    for subject, bad in index.broken:
        hit = bad & ancestry
        if hit:
            first = min(names[i] for i in _bits(hit))
            raise IntegrityError(
                f"{subject} is deleted in {first!r} but created on no path before it"
            )
    descendants = index.descendants
    keys = index.elements[0]
    # each element's position in the space, None when it is not alive; the
    # last entry stands for a key no row creates
    at = [None] * (len(keys) + 1)
    live = []
    els = {}
    for i, key, created, deleted, gen, atts in zip(count(), *index.elements):
        inside = created & ancestry
        if not inside:
            continue
        gone = deleted & ancestry
        if gone and not _alive(inside, gone, descendants):
            continue
        if inside & (inside - 1):
            c = _newest(inside, descendants, names)
        else:
            c = inside.bit_length() - 1
        if type(gen) is dict:
            gen = gen[c]
        at[i] = len(els)
        live.append(i)
        els[key] = Element(key, names[c], gen, dict(atts))
    pairs, ends_a, ends_b = [], [], []
    for pair, created, deleted, a, b in zip(*index.pairs, *index.pair_ends()):
        inside = created & ancestry
        if not inside:
            continue
        gone = deleted & ancestry
        if gone and not _alive(inside, gone, descendants):
            continue
        pairs.append(pair)
        ends_a.append(at[a])
        ends_b.append(at[b])
    pos = dict(zip(els, map(at.__getitem__, live)))
    return _assemble(els, pos, pairs, ends_a, ends_b)


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
    idx = space.index
    for k in sorted(space.elements):
        i = idx.pos[k]
        for adj, what in ((idx.out, "is bounded by"), (idx.inn, "bounds")):
            if len(adj[i]) > 1:
                near = sorted(idx.keys[j] for j in adj[i])
                out.append(
                    ConsistencyConflict("linear-dag", (k, *near), f"{k} {what} several elements")
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
