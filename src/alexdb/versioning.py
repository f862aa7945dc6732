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
store groups its rows once, in its ``HistoryIndex``, whose one record of
liveness is a row of live columns per version.  A version with one parent
holds what its parent holds plus what it creates, less what it deletes,
so those rows are filled in one walk down the version space, and only a
version joining several parents tests the creation and deletion masks of
every column against its ancestry; the index keeps no deletion mask once
the rows are filled.  Reconstructing a version then reads one byte per
column.  The versions share one space too, the union of every element and
pair the history creates: each version's space is a subspace of it, so one
topological order of the union, kept on the index, orders every version.
When the union has a cycle, though no version has one, the index keeps
one version's order instead.  A child version's ancestry is its parent's
plus itself and its row is its parent's row edited by the changeset, so a
commit derives the child store's index, that order and row included, from
the parent's, in time linear in the changeset, the number of versions and
the number of columns (copied in C), with no row read again.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, filterfalse, repeat
from operator import and_, eq, is_, is_not, itemgetter, lshift, ne
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from . import topology
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
    SpaceIndex,
    build_space,
    closure,
    connected_components,
    find_cycle,
    simple_space,
    star,
    _assemble,
    _bits,
    _checked_order,
    _dangling_error,
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
    Reflexive pairs are dropped.  The new space keeps the elements of
    ``space`` in their order and puts each added one where key order
    places it, so a space in key order gives one in key order.

    The neighbours of a removed element are read off the index of
    ``space``, which is filled in if it was not, and the T0 check runs
    Kahn's algorithm over the new space, as ``build_space`` would: each
    call costs a pass over the whole space, so a chain of edits costs the
    chain's length times the space's size.  ``storage.commit`` applies a
    changeset with neither pass, reading both off its store's history
    index.
    """
    new = _apply(space, changes, _steps(space))[0]
    _refuse_cycle(new, space, changes)
    return new


def _steps(space: Space) -> Callable[[ElementId], tuple[list[ElementId], list[ElementId]]]:
    """The lookup of the keys bounded by a key of ``space`` and those it is
    bounded by, one relation step each, read off ``space.index``."""

    def near(key: ElementId) -> tuple[list[ElementId], list[ElementId]]:
        idx = space.index
        i, key_of = idx.pos[key], idx.keys.__getitem__
        return list(map(key_of, idx.inn[i])), list(map(key_of, idx.out[i]))

    return near


def _apply(
    space: Space,
    changes: ChangeSet,
    near: Callable[[ElementId], tuple[list[ElementId], list[ElementId]]],
) -> tuple[Space, list, list]:
    """``apply_changeset`` without its T0 check, with the pairs it drops
    from the relation and those it links into it, each in pair order.

    The work follows the changeset, not the space: ``near`` gives the keys
    bounded by a key of ``space`` and those it is bounded by, one relation
    step each, and is asked only about the keys a removal touches; only
    the pairs that change are kept as sets.  The removed keys are left out
    of the element order by one filter in C, not one search per key, which
    would be quadratic on a mass removal.  The new space is a plain
    ``Space``, which fills its index in on first read.  Errors are those of
    applying the changes one by one to copies, in the same precedence;
    the caller proves the result T0, or names its cycle with
    ``_refuse_cycle``.
    """
    gone = changes.remove_elements
    elements = space.elements
    missing = [k for k in gone if k not in elements]
    if missing:
        raise NotFoundError(f"cannot remove unknown elements: {sorted(str(k) for k in missing)}")
    relation = space.relation
    dropped: set[BoundedByPair] = set()  # pairs of ``relation`` the changes take out
    linked: set[BoundedByPair] = set()  # pairs not in ``relation`` they put in

    def unlink(p: BoundedByPair) -> None:
        if p in linked:
            linked.discard(p)
        else:
            dropped.add(p)

    def link(p: BoundedByPair) -> None:
        if p in dropped:
            dropped.discard(p)
        elif p not in relation:
            linked.add(p)

    # the one-step neighbours of each key a removal touches, read with
    # ``near`` on first touch and kept up to date as bypass pairs go in
    found: dict[ElementId, tuple[set[ElementId], set[ElementId]]] = {}

    def sides(k: ElementId) -> tuple[set[ElementId], set[ElementId]]:
        if k not in found:
            above, below = near(k)
            found[k] = set(above), set(below)
        return found[k]

    for x in sorted(gone):
        above, below = sides(x)
        del found[x]
        for y in above:
            sides(y)[1].discard(x)
            unlink(BoundedByPair(y, x))
        for z in below:
            sides(z)[0].discard(x)
            unlink(BoundedByPair(x, z))
        for y in above:
            for z in below - {y}:
                link(BoundedByPair(y, z))
                sides(y)[1].add(z)
                sides(z)[0].add(y)
    for p in sorted(changes.remove_pairs):
        if p in linked or (p in relation and p not in dropped):
            unlink(p)
        else:
            raise NotFoundError(f"cannot remove pair not in relation: {p}")

    keys = list(filterfalse(gone.__contains__, elements))
    values = list(map(elements.__getitem__, keys))
    added: dict[ElementId, Element] = {}
    for el in changes.add_elements:
        if el.key in added or (el.key in elements and el.key not in gone):
            raise DuplicateKeyError(f"element {el.key} already alive")
        added[el.key] = Element(
            key=el.key,
            version=changes.version,
            gen_target=el.gen_target,
            attributes=dict(el.attributes),
        )
        i = bisect_left(keys, el.key)
        keys.insert(i, el.key)
        values.insert(i, added[el.key])
    new_elements = dict(zip(keys, values))
    pairs = [p for p in changes.add_pairs if p[0] != p[1]]  # reflexive pairs are dropped
    dangling = [p for p in pairs if p[0] not in new_elements or p[1] not in new_elements]
    if dangling:
        raise _dangling_error(dangling, new_elements)
    for p in pairs:
        link(p)

    new = Space(new_elements, relation.difference(dropped).union(linked))
    return new, sorted(dropped), sorted(linked)


def _refuse_cycle(new: Space, space: Space, changes: ChangeSet) -> None:
    """Raise ``T0ViolationError`` when ``new``, the space ``_apply`` made
    from ``space`` and ``changes``, has a cycle: Kahn's algorithm runs over
    the index of ``new``, and a cycle is named as ``build_space`` would name
    it, searched from the elements of ``space`` in their order and then the
    added ones in changeset order."""
    idx = new.index
    if idx.order is None:
        pos, gone = idx.pos, changes.remove_elements
        roots = [pos[k] for k in space.elements if k not in gone]
        _checked_order(idx, roots + [pos[el.key] for el in changes.add_elements])


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


def _creations(columns: Sequence[Sequence], subject: int, bit: Mapping[str, int]):
    """Of the creation rows, as ``columns`` in canonical order with the
    version last, that name a version in ``bit``: their columns and
    version bits, the subjects they create (a subject is a row's first
    ``subject`` columns) as columns in row order, the mask of the versions
    creating each subject, by version bit the places of the subjects
    created there, and which rows start a subject (None: every row).  Rows
    sharing a subject are neighbours; most subjects have one row, and
    their masks are read straight off the bits."""
    bits = list(map(bit.get, columns[-1]))
    if None in bits:
        keep = list(map(is_not, bits, repeat(None)))
        columns = [list(compress(c, keep)) for c in columns]
        bits = list(compress(bits, keep))
    subjects = columns[:subject]
    made: list[list[int]] = [[] for _ in bit]
    if not any(map(eq, zip(*subjects), zip(*(c[1:] for c in subjects)))):
        for i, b in enumerate(bits):
            made[b].append(i)
        return columns, bits, subjects, list(map(lshift, repeat(1), bits)), made, None
    starts = [True, *map(ne, zip(*subjects), zip(*(c[1:] for c in subjects)))]
    place = dict(zip(compress(zip(*subjects), starts), count()))
    created = [0] * len(place)
    for s, b in zip(zip(*subjects), bits):
        i = place[s]
        created[i] |= 1 << b
        made[b].append(i)
    return columns, bits, list(zip(*place)), created, made, starts


def _key_slots(x: Sequence[Sequence], r: Sequence[Sequence], atts: Sequence[Sequence]):
    """The slot of each element key that the X rows, as columns ``x``,
    create, numbered in row order; row by row, the slots of the X rows'
    generalisation targets and of the ends of the R rows, as columns ``r``,
    with -1 for a key no X row creates and for the target of an element
    that generalises to none; and by the key of each run of attribute
    rows, as columns ``atts`` in canonical order, the end of the run.  Each
    reference is looked up once: ``storage.load`` checks the foreign keys
    onto X with these, and the history index keeps them."""
    ids, lods, gids, glods = x[:4]
    place = dict(zip(zip(ids, lods), count()))
    if len(place) < len(ids):  # keys created by several rows, each numbered once
        place = dict(zip(place, count()))
    idas, idbs, plods = r[:3]
    targets = ((gids, glods), (idas, plods), (idbs, plods))
    at = [list(map(place.get, zip(*c), repeat(-1))) for c in targets]
    return place, at, dict(zip(zip(atts[0], atts[1]), count(1)))


def _new_column(elements: tuple, built: list, slots: list[int], key: ElementId, atts=()) -> int:
    """Put a column for ``key``, which no version creates yet, into the
    element columns ``elements`` and ``built`` at its place in key order,
    with the attributes ``atts`` and the next free slot; returns the place."""
    i = bisect_left(elements[0], key)
    for column, entry in zip((*elements, built, slots), (key, 0, None, atts, None, len(slots))):
        column.insert(i, entry)
    return i


def _rows(
    versions: SpaceIndex,
    ancestry: list[int],
    descendants: list[int],
    created: list[int],
    deleted: list[int],
    made: list[list[int]],
) -> list[bytes]:
    """By version bit, the row of the columns whose masks are ``created``
    and ``deleted``, numbered by place: a 1 at each column alive at that
    version.  ``made`` lists, by version bit, the places of the columns
    created there.

    The versions are walked in a topological order of the version space
    ``versions`` (whose positions are the bits).  A root starts from the
    columns it creates, and a version with one parent from its parent's row
    with those it creates set; either then clears those it deletes.  For
    one parent that is ``_alive``: alive at the parent or created here, and
    not deleted here.  Only a join, a version with several parents, reads
    its row off the masks, with ``_live``."""
    width = len(created)
    gone: list[list[int]] = [[] for _ in ancestry]
    for i in compress(count(), deleted):
        for b in _bits(deleted[i]):
            gone[b].append(i)
    rows = [b""] * len(ancestry)
    for j in versions.order:
        parents = versions.inn[j]
        if len(parents) > 1:
            rows[j] = _edited(b"", width, _live(created, deleted, ancestry[j], descendants), [])
        else:
            rows[j] = _edited(rows[parents[0]] if parents else b"", width, made[j], gone[j])
    return rows


def _edited(row: bytes, width: int, born: list[int], died: list[int]) -> bytes:
    """``row`` widened to ``width`` slots, with the slots ``born`` set and
    those ``died`` cleared."""
    edited = bytearray(width)
    edited[: len(row)] = row
    for t in born:
        edited[t] = 1
    for t in died:
        edited[t] = 0
    return bytes(edited)


def _labels(order: list[int], n: int) -> list[int]:
    """Labels of the slots below ``n``: each one's place in ``order``."""
    labels = [0] * n
    for place, t in enumerate(order):
        labels[t] = place
    return labels


def _ordered(
    order: list[int], labels: list, fresh: Sequence[int], linked: Sequence[tuple[int, int]]
) -> bool:
    """Put the slots ``fresh`` of one edit, which links the pairs of slots
    ``linked``, into ``order`` and its ``labels``, in place; False when the
    order does not hold for the linked pairs, and must be found anew.

    The order lists slots by rising label, one label per slot.  A fresh
    slot is one the order lacks: a new one, numbering on from
    ``len(labels)``, or one taken out of the order to be placed again.
    Each goes just before the first slot it is bounded by that is already
    placed, found by bisecting the labels, with a label halfway to that
    slot's predecessor; or last."""
    below: dict[int, list[int]] = {}
    for a, b in linked:
        below.setdefault(a, []).append(b)
    waiting = set(fresh)
    for t in fresh:  # rising, so a new slot's label is appended
        waiting.discard(t)
        bounds = [labels[u] for u in below.get(t, ()) if u not in waiting]
        if bounds:
            high = min(bounds)
            place = bisect_left(order, high, key=labels.__getitem__)
            low = labels[order[place - 1]] if place else high - 1
            label = (low + high) / 2
            if not low < label < high:  # no label is left between them
                return False
        else:
            place, label = len(order), labels[order[-1]] + 1 if order else 0
        order.insert(place, t)
        if t < len(labels):
            labels[t] = label
        else:
            labels.append(label)
    return all(labels[a] < labels[b] for a, b in linked)


class HistoryIndex:
    """A store's versions and rows, indexed once for reconstruction.

    In the version space, the minimal neighbourhood of a version is its
    ancestry, so "is this row in effect at ``v``" is a bitset test.
    Version ``names[i]`` is bit ``1 << i``.  A store read from rows numbers
    its versions in name order; ``derive`` gives a child version the next
    free bit, so bit order is not name order, and every tie between
    versions is broken by comparing names.  ``ancestry[i]`` is the mask of
    the minimal neighbourhood of version ``i``, itself included.
    ``elements`` holds four parallel columns with one entry per key that
    some row names, in key order: the key, the mask of the versions
    creating it, its generalisation target (a dict from creation bit to
    target when several rows create it) and its attributes as ``(name,
    value)`` pairs in name order.  A key that an X row's generalisation
    target, an R row's end or an attribute row names but no X row creates
    has a column too, with a creation mask of 0 and no target, until a
    commit creates it; a store ``load`` accepts has no such key.  ``slots``
    gives each element column a number that it keeps in every index
    derived from this one, while its place shifts as columns are put in: a
    fresh index numbers the columns some row creates in order, with a
    ``range``, then gives each key created in no version the next free
    slot, and a derived one does the same for a new key (``_new_column``).
    ``pairs`` lists the pairs some row creates, in row order;
    ``pair_slots`` numbers them as ``slots`` numbers the element columns.
    ``rows[i]`` holds two ``bytes`` objects for version ``i``, with a 1 at
    each slot of an element column and at each slot of a pair column alive
    there; a slot past a row's end came after that version, and is not
    alive there.  The rows are the index's one record of liveness: a row is
    never changed once made, and a derived index shares its parent's.
    ``ends`` holds the slots of each pair's ends, so a reconstruction fills
    in its space's index without looking a key up.  ``order`` lists every
    slot in a topological order of the union of every version's space: the
    element columns over the pair columns, leaving out reflexive pairs.
    Each version's space is a subspace of that union, so the order
    restricted to its live elements orders it, and proves it T0.  ``order``
    is None until it is found, by Kahn's algorithm on first use
    (``union_order``).  ``ordered`` is the mask of the versions whose
    spaces it orders: -1, every one, for the union's.  When the union has a
    cycle, ``order`` is one version's instead, found over the pair columns
    alive there (``order_for``), and ``ordered`` names the versions it
    holds for; any other version finds its own, and ``found`` keeps the
    last one found, as ``(bit, order)``, so that a commit from that version
    derives its child's order from it.  ``labels`` numbers the slots along
    the order, so that a slot's place in it is found by bisection;
    ``derive`` keeps both with ``_ordered``, so the order kept also proves
    each committed version's space T0.  ``by_end`` is None until ``near``
    first reads it, and then lists, by element slot, each pair column with
    an end there as its ``(pair slot, pair)``, leaving out reflexive pairs:
    a commit reads the neighbours of the keys it removes off it and the
    parent's row.
    Columns of plain ints and tuples, rather than a container per element,
    keep the index small and mostly outside the garbage collector's reach.
    ``broken`` lists, in row order, each element or pair with the mask of
    its deletions that no creation precedes.  Rows naming a version the
    store lacks are left out; ``validate`` reports them as foreign-key
    violations.  ``held`` is None or one ``(version, space)``: the space
    ``reconstruct_version`` answers for that version without reading the
    columns.  ``built`` has one entry per element column: None, or the
    ``Element`` that column reconstructs to, filled on first use.  Only a
    column with one creation row has one, since its element is the same in
    every version where it is alive; a column created by several rows is
    built on each read.  So spaces read from one store share ``Element``
    objects and their attribute dicts, with each other and with the held
    space.

    The index is built from the store's tables as ``columns`` in header
    order, by table name: those ``load`` parsed, or the rows transposed
    once.  Its columns are built from them in one pass each: every key is
    built once, shared by the element, pair and generalisation columns,
    and a creation or attribute row costs no Python call unless its
    subject has several creation rows.  The slots of the keys, the
    generalisation targets, the pair ends and the runs of attribute rows
    come from one pass of lookups (``_key_slots``), whose results also
    show, in C, whether some row names a key no row creates; only then are
    those keys gathered, and their columns put in after the rows are
    filled.  ``slots``, when given, is that pass already made on the same
    columns, which name no unknown version: ``load`` made it to check the
    foreign keys, and the index takes it as it stands.  The deletion masks and the descendants
    of each version are read only to fill the rows, in one walk of the
    version space (``_rows``), and ``broken``, and are not kept.
    """

    __slots__ = ("names", "bit", "ancestry", "elements", "slots", "pairs", "pair_slots", "rows",
                 "ends", "order", "labels", "ordered", "found", "by_end", "broken", "held", "built")

    def __init__(
        self,
        store: "VersionStore",
        columns: Mapping[str, Sequence[Sequence]],
        slots: tuple[dict, list[list[int]], dict] | None = None,
    ):
        versions = store.version_space().as_space()
        self.names = [k.id for k in versions.index.keys]
        self.bit = bit = {name: i for i, name in enumerate(self.names)}
        descendants, self.ancestry = _rank_masks(versions, range(len(self.names)))
        self.held = None

        # rows arrive in canonical order, so their subjects, (id, lod) and
        # (ida, idb, lod), first appear in key order
        x, bits, _, created, made, _ = _creations(columns["X"], 2, bit)
        ids, lods, gids, glods, _ = x
        r, _, (idas, idbs, plods), p_created, p_made, p_starts = _creations(columns["R"], 3, bit)
        # the slot of each key some X row creates and of each generalisation
        # target and pair end, and where each key's run of attribute rows
        # ends; a key that some row names and none creates, which a store
        # ``load`` accepts never has, takes the next free slot below
        place, at, stops = slots or _key_slots(x, r, columns["Atts"])
        if p_starts is not None:  # a pair created by several rows has one column
            at = [at[0], *(list(compress(a, p_starts)) for a in at[1:])]
        keys = _tuples(ElementId, place)
        # a run naming an attribute twice keeps the last
        aids, alods, names, values = columns["Atts"]
        named = list(zip(names, values))
        runs = map(named.__getitem__, map(slice, [0, *stops.values()], stops.values()))
        if any(map(eq, zip(aids, alods, names), zip(aids[1:], alods[1:], names[1:]))):
            runs = map(dict.items, map(dict, runs))
        recorded = dict(zip(stops, map(tuple, runs)))
        dx = columns["DelX"]
        el_deleted = _masks(zip(zip(dx[0], dx[1]), dx[2]), bit)
        dr = columns["DelR"]
        pr_deleted = _masks(zip(zip(dr[0], dr[1], dr[2]), dr[3]), bit)
        self.rows = list(zip(
            _rows(versions.index, self.ancestry, descendants, created,
                  list(map(el_deleted.get, keys, repeat(0))), made),
            _rows(versions.index, self.ancestry, descendants, p_created,
                  list(map(pr_deleted.get, zip(idas, idbs, plods), repeat(0))), p_made),
        ))

        pair_place = dict(zip(zip(idas, idbs, plods), count())) if pr_deleted else {}
        self.broken: list[tuple[str, int]] = []
        for subjects, masks, deleted, subject in (
            (place, created, el_deleted, lambda i, lod: f"element {ElementId(i, lod)}"),
            (pair_place, p_created, pr_deleted,
             lambda a, b, lod: f"pair {BoundedByPair(ElementId(a, lod), ElementId(b, lod))}"),
        ):
            for key, mask in deleted.items():
                i = subjects.get(key)
                bad = _uncreated(0 if i is None else masks[i], mask, self.ancestry)
                if bad:
                    self.broken.append((subject(*key), bad))

        targets = ((gids, glods), (idas, plods), (idbs, plods))
        uncreated: list[ElementId] = []
        if (at[0].count(-1) > gids.count(None) or -1 in at[1] or -1 in at[2]
                or not recorded.keys() <= place.keys()):
            missing = set(recorded).union(*(zip(*c) for c in targets)) - place.keys()
            uncreated = sorted(_tuples(ElementId, (k for k in missing if k[0] is not None)))
            place.update(zip(uncreated, count(len(keys))))
            at = [list(map(place.get, zip(*c), repeat(-1))) for c in targets]
        by_slot = keys + uncreated + [None]
        gens = list(map(by_slot.__getitem__, at[0]))
        if len(created) < len(bits):  # elements created by several rows
            by_bit: list[dict] = [{} for _ in keys]
            for subject, b, gen in zip(zip(ids, lods), bits, gens):
                by_bit[place[subject]][b] = gen
            gens = [next(iter(g.values())) if len(g) == 1 else g for g in by_bit]
        self.pairs = _tuples(BoundedByPair, zip(*(map(by_slot.__getitem__, a) for a in at[1:])))
        self.ends = at[1], at[2]
        self.pair_slots = range(len(p_created))
        self.elements = keys, created, gens, list(map(recorded.get, keys, repeat(())))
        self.built: list[Element | None] = [None] * len(keys)
        self.slots = range(len(keys))
        if uncreated:
            self.slots = list(self.slots)
            for k in uncreated:
                _new_column(self.elements, self.built, self.slots, k, recorded.get(k, ()))
        self.order = self.labels = self.by_end = self.found = None
        self.ordered = -1

    def union_order(self) -> list[int] | None:
        """``order`` when it is the union's, found by Kahn's algorithm on
        first use; None when the union of every version's space has a
        cycle."""
        if self.order is None and self.ordered == -1:
            order = self._sorted(zip(*self.ends))
            if order is None:
                self.ordered = 0
            else:
                self.order, self.labels = order, _labels(order, len(order))
        return self.order if self.ordered == -1 else None

    def order_for(self, v: str) -> list[int] | None:
        """``order`` when it orders the space of ``v``, else one found by
        Kahn's algorithm over the pair columns alive at ``v``; None when
        those columns have a cycle.  In a union with a cycle, the order
        found replaces ``order`` if that holds for no version or ``v`` is
        the one a commit just made (``held``), and is ``found`` otherwise."""
        b = self.bit[v]
        if self.order is not None and self.ordered >> b & 1:
            return self.order
        if self.found is not None and self.found[0] == b:
            return self.found[1]
        pair_row = self.rows[b][1].ljust(len(self.pair_slots), b"\0")
        order = self._sorted(compress(zip(*self.ends), _by_slot(pair_row, self.pair_slots)))
        if order is None or self.ordered == -1:
            return order
        if not self.ordered or self.held is not None and self.held[0] == v:
            self.order, self.labels, self.ordered = order, _labels(order, len(order)), 1 << b
        else:
            self.found = b, order
        return order

    def _sorted(self, ends: Iterable[tuple[int, int]]) -> list[int] | None:
        """Every element slot in a topological order of the pairs of slots
        ``ends``, leaving out reflexive pairs; None when those pairs have a
        cycle."""
        out: list[list[int]] = [[] for _ in self.slots]
        for a, b in ends:
            if a != b:
                out[a].append(b)
        order = topology._kahn(out)
        return order if len(order) == len(out) else None

    def counts(self, v: str) -> tuple[int, int] | None:
        """The number of elements and of pairs in the space of ``v``, read
        off its rows with no space built: the live element columns, and
        the live pair columns that are not reflexive.  None when the rows
        cannot vouch for that space, which ``reconstruct_version`` then
        reads or refuses: ``v`` is unknown or its ancestry deletes
        something it never created, a live pair has a dead end, or the
        live pairs have a cycle.  The union's order, or one found for
        ``v`` (``order_for``), proves the space T0, as in a checkout."""
        b = self.bit.get(v)
        if b is None or any(bad & self.ancestry[b] for _, bad in self.broken):
            return None
        row, pair_row = self.rows[b]
        # a slot past a row's end came after ``v``
        row = row.ljust(len(self.slots), b"\0")
        live = bytes(_by_slot(pair_row.ljust(len(self.pair_slots), b"\0"), self.pair_slots))
        ends_a, ends_b = (list(compress(e, live)) for e in self.ends)
        if 0 in _pick(row, ends_a) or 0 in _pick(row, ends_b):
            return None
        self.union_order()
        if self.order_for(v) is None:
            return None
        return row.count(1), len(ends_a) - sum(map(eq, ends_a, ends_b))

    def near(self, v: str, key: ElementId) -> tuple[list[ElementId], list[ElementId]]:
        """The keys bounded by ``key`` at version ``v`` and those it is
        bounded by, one relation step each, with no space read: the pair
        columns with an end at the slot of ``key`` that are alive in the
        pair row of ``v``.  ``key`` must be alive at ``v``."""
        if self.by_end is None:
            by_end: list[list[tuple[int, BoundedByPair]]] = [[] for _ in self.slots]
            for t, p, a, b in zip(self.pair_slots, self.pairs, *self.ends):
                if a != b:  # a reflexive pair is in no version's relation
                    by_end[a].append((t, p))
                    by_end[b].append((t, p))
            self.by_end = by_end
        row = self.rows[self.bit[v]][1]
        above, below = [], []
        for t, p in self.by_end[self.slots[bisect_left(self.elements[0], key)]]:
            if t < len(row) and row[t]:
                if p[1] == key:
                    above.append(p[0])
                else:
                    below.append(p[1])
        return above, below

    def attributes(self, key: ElementId) -> dict:
        """The attributes recorded for ``key``, by name, whether or not a
        row creates it."""
        keys = self.elements[0]
        i = bisect_left(keys, key)
        return dict(self.elements[3][i]) if i < len(keys) and keys[i] == key else {}

    def alive(self, v: str, key: ElementId) -> bool:
        """Whether ``key`` is alive at version ``v``, read off the row of
        ``v`` with no space built; raises as ``reconstruct_version`` does
        for an unknown version or one whose ancestry deletes something it
        never created."""
        row = self.rows[_bit(self, v)][0]
        keys = self.elements[0]
        i = bisect_left(keys, key)
        if i == len(keys) or keys[i] != key:
            return False
        t = self.slots[i]
        return t < len(row) and row[t] == 1

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
        space, in key order (as ``_apply`` makes it), and each element it
        creates carries every attribute recorded for its key, in name order
        (as ``storage.commit`` makes it): what its column reads back.
        ``removed`` and ``added`` are the elements the commit deletes and
        creates, ``dropped`` and ``linked`` the pairs.  The new version
        takes the next free bit, and its ancestry is ``parent``'s plus
        itself.  The columns are copied and only the keys the commit
        creates change, so this index stays valid for its own store.  A key
        no row names first takes a column with no creation and the next free
        slot, as a key some row only names already has; either then gets its
        first creation, its generalisation target and its element in
        ``built``.  A key created again gains a creation and may gain
        attributes, which every version then reads, so its element is built
        on each read.  ``broken`` carries over: a commit deletes only what
        is alive in its parent.  The rows carry over, and the new version's
        is its parent's with the slots the commit creates set and those it
        deletes cleared.  The slots, ``ends``, ``order`` and ``labels`` are
        copied and kept up to date: ``_ordered`` puts the new keys' slots
        into the order (the union's is found first), which then orders the
        child if it ordered the parent; when the union has a cycle and the
        order kept does not hold for the parent, the order ``found`` for
        the parent, if any, is the one extended.  A version's order also
        places anew a key the commit creates that it already holds, and then
        holds for no version where that key was alive.  An order a new pair
        runs against, or with no label left, is found again on first use.
        ``by_end`` is copied with the new pair columns added to the lists of
        their ends.  The derived index holds ``space``, so the next commit
        from it or a checkout of it reads no column.
        """
        n, pb = len(self.names), self.bit[parent]
        bit = 1 << n
        new = HistoryIndex.__new__(HistoryIndex)
        new.names = self.names + [version]
        new.bit = {**self.bit, version: n}
        new.ancestry = self.ancestry + [self.ancestry[pb] | bit]
        new.broken = self.broken
        new.held = version, space

        keys, created, gens, atts = new.elements = tuple(list(c) for c in self.elements)
        built = new.built = list(self.built)
        slots = list(self.slots)
        died = [slots[bisect_left(keys, k)] for k in removed]
        born = []  # the slots of the element columns the commit creates
        for k in added:
            e = space.elements[k]
            i = bisect_left(keys, k)
            if i == len(keys) or keys[i] != k:  # a key no row names takes the next free slot
                _new_column(new.elements, built, slots, k)
            if created[i]:  # created again
                gen = gens[i]
                if type(gen) is not dict:
                    gen = {created[i].bit_length() - 1: gen}
                gens[i] = {**gen, n: e.gen_target}
                built[i] = None
            else:
                gens[i], built[i] = e.gen_target, e
            created[i] |= bit
            atts[i] = tuple(e.attributes.items())
            born.append(slots[i])

        pairs = self.pairs.copy()
        pair_slots = list(self.pair_slots)
        ends = self.ends[0].copy(), self.ends[1].copy()
        p_died = [pair_slots[bisect_left(pairs, _row_order(p), key=_row_order)] for p in dropped]
        p_born = []
        p_made = []  # the slot, pair and end slots of each new pair column
        at = [(slots[bisect_left(keys, a)], slots[bisect_left(keys, b)]) for a, b in linked]
        for p, (a, b) in zip(linked, at):
            i = bisect_left(pairs, _row_order(p), key=_row_order)
            if i < len(pairs) and pairs[i] == p:
                p_born.append(pair_slots[i])
            else:  # a new column
                p_born.append(len(pair_slots))
                p_made.append((p_born[-1], p, a, b))
                pairs.insert(i, p)
                pair_slots.insert(i, p_born[-1])
                ends[0].insert(i, a)
                ends[1].insert(i, b)
        row, pair_row = self.rows[pb]
        new.rows = self.rows + [(
            _edited(row, len(slots), born, died), _edited(pair_row, len(pair_slots), p_born, p_died)
        )]

        self.union_order()  # found on first use
        order, labels, ordered, by_end = self.order, self.labels, self.ordered, self.by_end
        if self.found is not None and self.found[0] == pb:  # a checkout found the parent's
            order, labels, ordered = self.found[1], _labels(self.found[1], len(self.slots)), 1 << pb
        if order is not None:
            order, labels = order.copy(), labels.copy()
            # a version's order places a key created again anew, and then
            # holds for no version where that key was alive
            moved = [] if ordered == -1 else sorted(set(born).intersection(range(len(labels))))
            for t in moved:
                order.remove(t)
                ordered &= ~sum(1 << i for i in _bits(ordered) if self.rows[i][0][t:t + 1] == b"\1")
            if not _ordered(order, labels, moved + list(range(len(self.slots), len(slots))), at):
                order = None
            elif ordered >> pb & 1:  # it held for the parent, so for the child
                ordered |= bit
        if order is None:  # the union's is found again; a version's when ``order_for`` asks
            labels, ordered = None, min(ordered, 0)
        if by_end is not None:  # each new pair column joins the lists of its ends
            by_end = by_end + [[] for _ in range(len(slots) - len(self.slots))]
            for t, p, a, b in p_made:
                by_end[a] = by_end[a] + [(t, p)]
                by_end[b] = by_end[b] + [(t, p)]
        new.pairs, new.pair_slots, new.by_end = pairs, pair_slots, by_end
        new.slots, new.ends, new.order, new.labels = slots, ends, order, labels
        new.ordered, new.found = ordered, None
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


def _newest(inside: int, ancestry: list[int], names: list[str]) -> int:
    """The bit of the creation chosen among ``inside``: a maximal one, in
    no other's ancestry, ties broken by the largest version name."""
    below = 0
    for i in _bits(inside):
        below |= ancestry[i] & ~(1 << i)
    return max(_bits(inside & ~below), key=names.__getitem__)


def _live(created: list[int], deleted: list[int], ancestry: int, descendants: list[int]):
    """The places, in column order, of the items whose ``created`` and
    ``deleted`` masks make them alive at the version whose ancestry is
    ``ancestry``.  The items created there are picked in C, and so are
    those deleted there.  An item created once is then dead: a deletion in
    the ancestry follows some creation (else ``broken`` names it), so it
    follows the only one.  Only an item created several times needs
    ``_alive``."""
    live = list(compress(count(), map(and_, created, repeat(ancestry))))
    dead = {
        i for i in compress(count(), map(and_, deleted, repeat(ancestry)))
        if not created[i] & (created[i] - 1)
        or not _alive(created[i] & ancestry, deleted[i] & ancestry, descendants)
    }
    return list(filterfalse(dead.__contains__, live)) if dead else live


def reconstruct_version(store: "VersionStore", v: str) -> Space:
    """The space at version ``v``, from creation/deletion rows and ancestry.

    Answered from the store's ``HistoryIndex``: the space it holds when
    ``v`` is that one (a committed store holds its newest version), else
    the columns alive in the row of ``v``, one byte per column.  The
    store's one topological order (``HistoryIndex.union_order``),
    restricted to the live elements, orders the space, so no Kahn order or
    T0 search runs per version: the space keeps the positions and that
    order, and fills its index in from them on the first query that needs
    it.  When that union has a cycle, the order is found over the pair
    columns alive at ``v`` (``HistoryIndex.order_for``), unless the order
    the index keeps holds for ``v``; it replaces that order only when that
    one holds for no version, so a checkout does not undo the order the
    commits keep.  Only when those columns have a cycle does the version
    check T0 by itself, with the errors it always raised.  An element
    alive and unchanged in several versions is one ``Element``
    object, with one attribute dict, in every space read from the store;
    like the spaces, neither may be mutated.  Raises ``IntegrityError``
    when a relevant deletion has no creation on any path before it — the
    store then contradicts itself; the error names the first such version
    by name.
    """
    index = store.history
    if index.held is not None and index.held[0] == v:
        return index.held[1]
    return _reconstruct(index, v)


def _bit(index: HistoryIndex, v: str) -> int:
    """The bit of version ``v``, whose row may be read: raises
    ``NotFoundError`` for an unknown version, and ``IntegrityError`` when
    the ancestry of ``v`` deletes something it never created."""
    b = index.bit.get(v)
    if b is None:
        raise NotFoundError(f"unknown version {v!r}")
    ancestry = index.ancestry[b]
    for subject, bad in index.broken:
        hit = bad & ancestry
        if hit:
            first = min(index.names[i] for i in _bits(hit))
            raise IntegrityError(
                f"{subject} is deleted in {first!r} but created on no path before it"
            )
    return b


def _reconstruct(index: HistoryIndex, v: str) -> Space:
    """``reconstruct_version`` read from the index's columns: those alive
    in the row of ``v``, picked in C.  Elements come from ``built`` where
    it has them, and are built and kept there otherwise.  The live pairs
    go to ``_assemble`` with the positions of their ends, read off the
    slots the index keeps, so no key is looked up, and with the index's
    order restricted to the live positions."""
    b = _bit(index, v)
    slots, pair_slots = index.slots, index.pair_slots
    row, pair_row = index.rows[b]
    # a slot past a row's end came after ``v``
    row, pair_row = row.ljust(len(slots), b"\0"), pair_row.ljust(len(pair_slots), b"\0")
    names = index.names
    keys, created, gens, atts = index.elements
    built = index.built
    live = list(compress(count(), _by_slot(row, slots)))
    els = _pick(built, live)
    for j in list(compress(count(), map(is_, els, repeat(None)))):
        i = live[j]
        gen = gens[i]
        if type(gen) is dict:  # created by several rows: built on each read
            inside = created[i] & index.ancestry[b]
            if inside & (inside - 1):
                c = _newest(inside, index.ancestry, names)
            else:
                c = inside.bit_length() - 1
            els[j] = Element(keys[i], names[c], gen[c], dict(atts[i]))
        else:
            c = created[i].bit_length() - 1
            els[j] = built[i] = Element(keys[i], names[c], gen, dict(atts[i]))
    elements = dict(zip(_pick(keys, live), els))
    pos = dict(zip(elements, count()))
    # each element column's position in the space, by slot, None when it
    # is not alive
    ends_a, ends_b = index.ends
    at = [None] * len(slots)
    for t, p in zip(_pick(slots, live), pos.values()):
        at[t] = p
    kept = list(compress(count(), _by_slot(pair_row, pair_slots)))
    index.union_order()
    order = index.order_for(v)
    if order is not None:  # the store's order restricted to the live slots
        order = list(map(at.__getitem__, compress(order, map(row.__getitem__, order))))
    return _assemble(
        elements,
        pos,
        _pick(index.pairs, kept),
        _pick(at, _pick(ends_a, kept)),
        _pick(at, _pick(ends_b, kept)),
        order=order,
    )


def _by_slot(row: bytes, slots: Sequence[int]) -> Iterable[int]:
    """The bytes of ``row`` at ``slots``, in their order: the row itself
    when the slots are a fresh index's, which numbers its columns in
    order."""
    return row if type(slots) is range else map(row.__getitem__, slots)


def _pick(items: Sequence, places: list[int]) -> list:
    """The entries of ``items`` at ``places``, fetched in C."""
    if len(places) < 2:  # ``itemgetter`` of one place returns a bare entry
        return [items[i] for i in places]
    return list(itemgetter(*places)(items))


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
    """Register a named consistency predicate usable by merge and validate.

    Names are case-blind, and a name registered again runs the newer
    function.  Four rules are built in: "t0" and "linear-dag" here, and
    the level rules "surjective" and "monotonic" in ``lod``."""
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
