"""Levels of detail: generalisation chains, filtered queries, telescopes.

A chain links each level to the next-coarser one by a total generalisation
map that must be continuous and surjective (and is useful when monotonic).
Such maps let path queries run on the coarse level first: a negative coarse
answer is final by continuity, a positive one is final by monotonicity
whenever the queried region is saturated (a full preimage).  The vario-scale
view of a whole store is the telescope: every element is paired with the
nodes of a small level graph, producing one space that contains each level
and a redundant sliding copy along each level transition.

This module is the one interpreter of a space's generalisation columns
(each element's ``gen_target``): ``_transitions`` reads them into the level
transitions, ``_level_maps`` builds one map per transition and
``_linked_index`` the index of the space joined across levels by
generalisation pairs, made from copies of the space's own adjacency
lists, on which ``_linked_path_query`` walks and the telescope is built;
no linked space is built.  ``storage`` asks for these rather than
deriving them itself.  The two level rules, "surjective" (read off the
columns, no subspace built) and "monotonic" (``check_map`` on each level
map), are consistency rules registered with ``versioning.register_rule``
beside "t0" and "linear-dag", so ``merge`` and ``validate`` run them as
they run any other.
"""
from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import contains, eq, itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .algebra import (
    PRODUCT_SEPARATOR,
    MapReport,
    SpaceMap,
    check_map,
    select_subspace,
    _pair,
    _subspace_covers,
)
from .errors import IntegrityError, MissingGeometryError, NotFoundError, T0ViolationError
from .spacetime import PointRow
from .topology import (
    BoundedByPair,
    Element,
    ElementId,
    Space,
    SpaceIndex,
    build_space,
    find_cycle,
    simple_space,
    _assemble,
    _checked_order,
    _component,
    _dangling_error,
    _kahn,
    _nearest_kept,
    _positions,
    _require_keys,
)
from .versioning import ConsistencyConflict, reconstruct_version, register_rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .storage import VersionStore

# level transition (a, b) -> {element at level a: its generalisation target}
_Transitions = dict[tuple[int, int], dict[ElementId, ElementId]]

# a key from the 2-tuple of its fields, built in C
_key = functools.partial(tuple.__new__, ElementId)


@dataclass(frozen=True)
class LodChain:
    """Spaces from fine to coarse with one generalisation map per step.

    ``levels`` holds the actual level tags (strictly increasing); keys of
    ``spaces[i]`` must carry ``levels[i]`` as their tag, and ``gens[i]``
    must be a total map from ``spaces[i]`` onto ``spaces[i+1]``'s keys.
    """

    levels: tuple[int, ...]
    spaces: tuple[Space, ...]
    gens: tuple[SpaceMap, ...]

    def __post_init__(self):
        if len(self.spaces) != len(self.levels):
            raise ValueError("one space per level required")
        if len(self.gens) != max(len(self.spaces) - 1, 0):
            raise ValueError("one generalisation map per level transition required")
        if list(self.levels) != sorted(set(self.levels)):
            raise ValueError("levels must be strictly increasing")
        for lvl, sp in zip(self.levels, self.spaces):
            bad = [k for k in sp.elements if k.lod != lvl]
            if bad:
                raise NotFoundError(f"keys {sorted(str(k) for k in bad)} not tagged with level {lvl}")
        for i, g in enumerate(self.gens):
            if g.source != self.spaces[i] or g.target != self.spaces[i + 1]:
                raise ValueError(f"gens[{i}] must map level {self.levels[i]} to {self.levels[i+1]}")
            if not g.is_total:
                raise ValueError(f"gens[{i}] must be total")

    def level_index(self, lod: int) -> int:
        try:
            return self.levels.index(lod)
        except ValueError:
            raise NotFoundError(f"no level {lod} in chain {self.levels}") from None


def as_level(space: Space, level: int) -> Space:
    """Re-tag every key of a space with one level value."""
    els = [
        Element(ElementId(k.id, level), e.version, e.gen_target, dict(e.attributes))
        for k, e in space.elements.items()
    ]
    rel = [
        BoundedByPair(ElementId(p.ida.id, level), ElementId(p.idb.id, level))
        for p in space.relation
    ]
    return build_space(els, rel, t0_check=False)


def validate_chain(chain: LodChain) -> tuple[MapReport, ...]:
    """One report per generalisation map."""
    return tuple(check_map(g) for g in chain.gens)


def chain_is_valid(reports: Iterable[MapReport]) -> bool:
    """Valid: every step continuous and surjective (monotonicity is optional)."""
    return all(r.continuous and r.surjective for r in reports)


# ---------------------------------------------------------------------------
# path queries


def path_query(space: Space, a_set: Iterable[ElementId], a: ElementId, b: ElementId) -> bool:
    """Is there a path from ``a`` to ``b`` inside the subspace on ``a_set``?

    Path existence in a finite space is membership in one connected
    component of the subspace's comparability graph: the walk from ``a``
    through that component stops once it finds ``b``.
    """
    return _path(space.index, _positions(space, a_set), a, b)


def _linked_path_query(space: Space, a_set: Iterable[ElementId], a: ElementId, b: ElementId) -> bool:
    """``path_query`` on the space linked across levels by its
    generalisation pairs, walked on its index view (``_linked_index``)."""
    return _path(_linked_index(space), _positions(space, a_set), a, b)


def _path(idx: SpaceIndex, kept: set[int], a: ElementId, b: ElementId) -> bool:
    """Whether ``a`` reaches ``b`` in the subspace of the index on the
    positions ``kept``, which must hold both."""
    pos = idx.pos
    if pos.get(a) not in kept or pos.get(b) not in kept:
        raise NotFoundError(f"query endpoints must lie in the region: {a}, {b}")
    return pos[b] in _component(idx, kept, pos[a], (set(), set()))


@dataclass(frozen=True)
class PathQueryTrace:
    """Filtered path query outcome plus which stage decided it."""

    answer: bool
    coarse_answer: bool
    preimage_saturated: bool | None
    used_fallback: bool


def filtered_path_query(
    g: SpaceMap, a_set: Iterable[ElementId], a: ElementId, b: ElementId
) -> PathQueryTrace:
    """Path query on the fine space, filtered through a generalisation map.

    Stage one runs the query between the images inside the image region; a
    negative answer is final (continuity keeps connected sets connected
    forward).  A positive answer is final when the region is a full
    preimage (monotonicity pulls connectedness back); otherwise the direct
    fine-level query decides.
    """
    keys = _require_keys(g.source, a_set)
    if a not in keys or b not in keys:
        raise NotFoundError(f"query endpoints must lie in the region: {a}, {b}")
    return _filter_stages(g.source, g.target, g.mapping, g.source.elements, keys, a, b)


def _filter_stages(
    fine: Space,
    coarse: Space,
    gen: Mapping[ElementId, ElementId],
    domain: Iterable[ElementId],
    keys: frozenset[ElementId],
    a: ElementId,
    b: ElementId,
) -> PathQueryTrace:
    """The stages of ``filtered_path_query`` for the region ``keys`` of
    ``fine``, which holds ``a`` and ``b``, under the map ``gen`` from the
    keys ``domain`` of ``fine`` into ``coarse``.  The region is saturated
    when the fibres over the image region, counted over ``domain``, hold
    no more elements than the region itself.  ``fine`` and ``coarse`` may
    be one space: a path query inside a subspace of it is the same query
    on it, since the subspace of a subspace is a subspace of the whole."""
    image_region = {gen[k] for k in keys}
    if not path_query(coarse, image_region, gen[a], gen[b]):
        return PathQueryTrace(False, False, None, False)
    fibres = Counter(map(gen.__getitem__, domain))
    if sum(map(fibres.__getitem__, image_region)) == len(keys):
        return PathQueryTrace(True, True, True, False)
    return PathQueryTrace(path_query(fine, keys, a, b), True, False, True)


def monotone_path_query(
    g: SpaceMap,
    a_set: Iterable[ElementId],
    a: ElementId,
    b: ElementId,
    validate: bool = False,
) -> bool:
    """Filtered path query; ``g`` must be continuous, surjective, monotonic.

    The map is trusted by default; pass ``validate=True`` to have it
    checked by ``check_map``, which is exact at any size, before querying.
    """
    if validate:
        report = check_map(g)
        if not (report.continuous and report.surjective and report.monotonic):
            raise ValueError(f"generalisation map unfit for filtering: {report}")
    return filtered_path_query(g, a_set, a, b).answer


# ---------------------------------------------------------------------------
# interpolation


def interpolation_level(lod: int, next_lod: int, s: float) -> int:
    """Which level's topology applies along the slide: the fine one until 1."""
    return next_lod if s == 1 else lod


def interpolate(
    chain: LodChain,
    points: Iterable[PointRow] | Mapping[ElementId, PointRow],
    x: ElementId,
    s: float,
) -> tuple[float, float, float, float, float]:
    """Linear slide of ``x`` towards its generalisation, in R^5.

    Coordinates are (x, y, z, t, level): the level tag joins the spatial
    representative as an extra axis, so s=0 yields the fine representative
    at its own level and s=1 the coarse one at the next level, exactly.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"interpolation parameter must be in [0, 1], got {s}")
    i = chain.level_index(x.lod)
    if x not in chain.spaces[i]:
        raise NotFoundError(f"no element {x} at level {x.lod}")
    if i + 1 >= len(chain.levels):
        raise NotFoundError(f"element {x} is at the coarsest level, nothing to slide to")
    y = chain.gens[i](x)
    pts = dict(points) if isinstance(points, Mapping) else {p.key: p for p in points}
    if x not in pts:
        raise MissingGeometryError(f"no coordinate row for {x}")
    if y not in pts:
        raise MissingGeometryError(f"no coordinate row for {y}")
    px, py = pts[x], pts[y]
    src = (px.x, px.y, px.z, px.t, float(x.lod))
    tgt = (py.x, py.y, py.z, py.t, float(y.lod))
    return tuple((1.0 - s) * u + s * w for u, w in zip(src, tgt))


# ---------------------------------------------------------------------------
# level graphs and the telescope


def lod_graph(store: "VersionStore", v: str) -> tuple[Space, Space]:
    """The level space and its edge graph for the space at version ``v``.

    The level space has one element per level value in use, with a pair per
    level transition observed in the generalisation columns.  The edge
    graph subdivides it: one vertex ``(l, l)`` per level, one edge
    ``(a, b)`` per transition, the edge bounded by both vertices — a small
    1D complex indexing the telescope.  Raises ``T0ViolationError`` naming
    the levels when the level transitions form a cycle.
    """
    space = reconstruct_version(store, v)
    trans = _transitions(space)
    edge_graph = _edge_graph(space, trans)
    lods = _lods(space, trans)
    level_space = simple_space(
        [str(l) for l in lods],
        [(str(a), str(b)) for a, b in trans],
        attributes={str(l): {"lod": l} for l in lods},
        t0_check=False,
    )
    cycle = find_cycle(level_space)
    if cycle is not None:
        raise T0ViolationError(
            f"level transitions form a cycle through levels {[int(k.id) for k in cycle]}",
            cycle=cycle,
        )
    return level_space, edge_graph


def _lods(space: Space, trans: _Transitions) -> list[int]:
    """The levels in use: of the elements and of their generalisation
    targets."""
    return sorted({k.lod for k in space.elements} | {b for _, b in trans})


def _edge_graph(space: Space, trans: _Transitions) -> Space:
    """The edge graph of ``lod_graph``: it is T0 whatever the level
    transitions.  Raises ``IntegrityError`` as ``_refuse_same_level``
    does."""
    _refuse_same_level(trans)
    els = []
    pairs = []
    for l in _lods(space, trans):
        els.append(Element(ElementId(f"{l}-{l}"), attributes={"lod": l, "glod": l}))
    for a, b in trans:
        edge = ElementId(f"{a}-{b}")
        els.append(Element(edge, attributes={"lod": a, "glod": b}))
        pairs.append(BoundedByPair(edge, ElementId(f"{a}-{a}")))
        pairs.append(BoundedByPair(edge, ElementId(f"{b}-{b}")))
    return build_space(els, pairs)


def _refuse_same_level(trans: _Transitions) -> None:
    """Raise ``IntegrityError`` naming the smallest element that
    generalises onto its own level: in the level edge graph, the edge
    from ``l`` to ``l`` would share the name of the vertex of ``l``."""
    same = [kt for (a, b), targets in trans.items() if a == b for kt in targets.items()]
    if same:
        k, t = min(same)
        raise IntegrityError(
            f"element {k} generalises to {t} on its own level {k.lod}; "
            "the telescope needs generalisations between levels"
        )


def telescope(store: "VersionStore", v: str, edge_matching: bool = True) -> Space:
    """One vario-scale space containing every level of version ``v``.

    The store space, with generalisation pairs added to its relation, is
    equi-joined with the level edge graph: an element at level ``l`` pairs
    with the level vertex ``(l, l)`` and — unless ``edge_matching`` is
    off — with every level edge whose fine side is ``l``.  Its order is
    the product order restricted to these matches.  The fibre over a
    level node of fine level ``l`` is a copy of the subspace of the linked
    space on level ``l``: over a vertex, the level space; over an edge
    ``(a, b)``, a redundant copy of level ``a`` glued one dimension up.
    Two kinds of covering pairs glue an edge's fibre: an identity pair
    from each copy down to its original in the fibre over ``(a, a)``, and
    one pair into the fibre over ``(b, b)`` per covering pair from level
    ``a`` to level ``b`` in the subspace on those two levels.  These are
    all the covering pairs, so nothing is reduced.  The cost is one
    subspace per level, one short walk per candidate pair across an edge,
    and the result itself: linear in the result when down-sets stay
    small, as in a map pyramid.  The elements are made on first lookup,
    so ``dim`` or a summary of the result makes none.  The level
    transitions may form a cycle: only the edge graph is used.  Raises
    ``T0ViolationError`` when the linked space is cyclic, and
    ``IntegrityError`` when an element generalises onto its own level.
    """
    return _telescope(reconstruct_version(store, v), edge_matching)


def _telescope(base: Space, edge_matching: bool = True) -> Space:
    """The telescope of an already reconstructed version space, built on
    index positions.

    The linked space is a view of the base index with the generalisation
    pairs added (``_linked_index``).  When no path of it leaves a level
    and comes back (``_level_order``), the base order, grouped by level
    along the level transitions, orders the view, and each level's
    subspace of the linked space is its subspace of ``base``, whose
    depths agree within a level, so the level covers come from the base
    index.  Otherwise Kahn's algorithm orders the view, and the level
    covers come from it.  The result's order is known by construction:
    its pairs join copies over one level node, along the linked order, or
    run from a copy over an edge to one over a vertex, so every copy over
    an edge, then every copy over a vertex, each group along the linked
    order, is a topological order.  Its elements are made on first
    lookup (``_Copies``)."""
    trans = _transitions(base)
    idx = base.index
    keys = idx.keys
    linked = _linked_index(base, trans)
    level_order = _level_order(base, trans)
    by_level: dict[int, list[int]] = {}  # level -> its positions, along the linked order
    if level_order is not None and idx.order is not None:
        by_level = {l: [] for l in level_order}
        for p in idx.order:
            by_level[keys[p][1]].append(p)
        linked.order = list(chain.from_iterable(by_level.values()))
        covered = idx
    else:
        for p in _checked_order(linked):
            by_level.setdefault(keys[p][1], []).append(p)
        covered = linked
    _refuse_same_level(trans)
    # nodes[l]: the level nodes whose fine side is l, in id order, as
    # (id, coarse side) pairs
    nodes: dict[int, list[tuple[str, int]]] = {}
    named = [(f"{l}-{l}", l, l) for l in _lods(base, trans)]
    if edge_matching:
        named += [(f"{a}-{b}", a, b) for a, b in trans]
    for w, a, b in sorted(named):
        nodes.setdefault(a, []).append((w, b))
    # vertex[l]: the place of the vertex of level l among nodes[l]
    vertex = {l: [b for _, b in ws].index(l) for l, ws in nodes.items()}

    # the copies in key order, each element's over its level's nodes in
    # turn; first[p]: the number of position p's first copy
    in_order = list(map(keys.__getitem__, sorted(range(len(keys)), key=idx.rank.__getitem__)))
    tkeys = [_key((f"{name}{PRODUCT_SEPARATOR}{w}", l)) for name, l in in_order for w, _ in nodes[l]]
    offsets = list(accumulate([len(nodes[l]) for _, l in in_order], initial=0))
    first = list(map(offsets.__getitem__, idx.rank))
    # firsts[l]: the first copies of level l's positions, along the linked order
    firsts = {l: [first[p] for p in level] for l, level in by_level.items()}

    # the covering pairs, as pairs of copy numbers
    ends_a: list[int] = []
    ends_b: list[int] = []
    levels = {l: set(level) for l, level in by_level.items()}
    for l, level in levels.items():  # each fibre: a copy of its level's subspace
        covers = _subspace_covers(covered, level)
        tops, bottoms = ([first[p] for p in ends] for ends in covers)
        for o in range(len(nodes[l])):
            ends_a += [i + o for i in tops]
            ends_b += [j + o for j in bottoms]
    for a, ws in nodes.items():  # each edge's fibre, glued to its vertices
        for edge, (_, b) in enumerate(ws):
            if b == a:
                continue
            to_a, to_b = vertex[a], vertex[b]
            ends_a += [i + edge for i in firsts[a]]  # down to the original
            ends_b += [i + to_a for i in firsts[a]]
            for x, y in _cross_covers(linked, levels[a], levels[b]):
                ends_a.append(first[x] + edge)
                ends_b.append(first[y] + to_b)

    # the order: the copies over edges, then those over vertices
    over_edges: list[int] = []
    over_vertices: list[int] = []
    for l, starts in firsts.items():
        for o, (_, b) in enumerate(nodes[l]):
            (over_vertices if b == l else over_edges).extend([i + o for i in starts])

    at = tkeys.__getitem__
    pairs = list(map(_pair, zip(map(at, ends_a), map(at, ends_b))))
    tpos = dict(zip(tkeys, range(len(tkeys))))
    return _assemble(
        _Copies(tkeys, tpos, base.elements),
        tpos, pairs, ends_a, ends_b, order=over_edges + over_vertices,
    )


class _Copies(Mapping):
    """The elements of a telescope, a read-only mapping that makes each
    on first lookup and keeps it.  Copy ``n`` has the key ``keys[n]`` (at
    ``pos[keys[n]] == n``), named ``{id}⊗{node}`` for the element ``id``
    of ``elements`` on the key's level and a level node, whose name holds
    no separator.  It copies that element with no generalisation target
    and the node as its ``lod_edge`` attribute.  The mapping iterates,
    compares, prints and pickles as the dict of those elements would, so
    a query that reads only keys and the index, such as ``dim``, makes
    none of them."""

    def __init__(
        self,
        keys: list[ElementId],
        pos: dict[ElementId, int],
        elements: Mapping[ElementId, Element],
    ):
        self._keys, self._pos, self._elements = keys, pos, elements
        self._made: list[Element | None] = [None] * len(keys)

    def __getitem__(self, key: ElementId) -> Element:
        n = self._pos[key]
        made = self._made[n]
        if made is None:
            key = self._keys[n]
            name, _, node = key.id.rpartition(PRODUCT_SEPARATOR)
            e = self._elements[_key((name, key.lod))]
            attributes = {**e.attributes, "lod_edge": node}
            made = self._made[n] = Element(key, e.version, None, attributes)
        return made

    def __iter__(self) -> Iterator[ElementId]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: object) -> bool:
        return key in self._pos

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _level_order(base: Space, trans: _Transitions) -> list[int] | None:
    """The levels in use in a topological order of the level transitions,
    when no path of the linked space leaves a level and comes back to it:
    the transitions form no cycle and no bounded-by pair of ``base`` joins
    two levels.  Else None."""
    lods = _lods(base, trans)
    at = dict(zip(lods, range(len(lods))))
    succ: list[list[int]] = [[] for _ in lods]
    for a, b in trans:
        succ[at[a]].append(at[b])
    order = _kahn(succ)
    ends = list(map(itemgetter(1), chain.from_iterable(base.relation)))
    if len(order) < len(lods) or ends[0::2] != ends[1::2]:
        return None
    return [lods[i] for i in order]


def _cross_covers(idx: SpaceIndex, fine: set[int], coarse: set[int]) -> Iterator[tuple[int, int]]:
    """The covering pairs from a position of ``fine`` to one of ``coarse``
    in the subspace on both, as pairs of positions; the index must be
    acyclic.

    A covering pair joins each fine position ``x`` to one of its nearest
    kept descendants ``y`` (see ``_nearest_kept``), unless ``y`` lies below
    another of them, ``z``.  A path from ``z`` down to ``y`` passes only
    positions deeper than ``y``, so the walk that looks for one starts
    only from those and enters only those (``_strictly_below``): memory
    stays that of one walk, and the walk stays short where down-sets are
    deep but ``y`` is not.
    """
    out, depth = idx.out, idx.depth
    kept = fine | coarse
    for x in fine:
        succ = out[x]
        near = succ if kept.issuperset(succ) else _nearest_kept(out, kept, x)
        for y in near:
            if y in coarse:
                floor = depth[y]
                deeper = [z for z in near if depth[z] > floor]
                if not deeper or not _strictly_below(out, depth, y, deeper):
                    yield x, y


def _strictly_below(out: list[list[int]], depth: list[int], y: int, tops: list[int]) -> bool:
    """Whether position ``y`` lies strictly below one of ``tops``, each
    deeper than ``y``, found by a downward walk that enters only positions
    deeper than ``y``."""
    floor = depth[y]
    stack = tops.copy()
    seen = set(stack)
    while stack:
        for j in out[stack.pop()]:
            if j == y:
                return True
            if depth[j] > floor and j not in seen:
                seen.add(j)
                stack.append(j)
    return False


def telescope_fiber(tele: Space, edge_id: str) -> Space:
    """Subspace of a telescope sitting over one level-graph node.  Its
    copies are picked by the node their key names after the last
    separator, which is their ``lod_edge`` attribute, so only the fibre's
    elements are made."""
    keys = [k for k in tele.elements if k.id.rpartition(PRODUCT_SEPARATOR)[2] == edge_id]
    if not keys:
        raise NotFoundError(f"no telescope fiber over {edge_id!r}")
    return select_subspace(tele, keys)


def chain_from_store(store: "VersionStore", v: str) -> LodChain:
    """Assemble the generalisation chain of version ``v`` from its rows."""
    base = reconstruct_version(store, v)
    levels = tuple(sorted({k.lod for k in base.elements}))
    if len(levels) < 2:
        return LodChain(levels, tuple(select_subspace(base, base.elements) for _ in levels), ())
    for a, b in zip(levels, levels[1:]):
        targets = {k: base.elements[k].gen_target for k in sorted(base.elements) if k.lod == a}
        for k, t in targets.items():
            if t is None:
                raise NotFoundError(f"element {k} has no generalisation target")
        unknown = {t for t in targets.values() if t.lod != b or t not in base}
        if unknown:
            raise NotFoundError(f"mapping image not in target: {sorted(str(k) for k in unknown)}")
    maps = _level_maps(base)
    gens = tuple(maps[a, b] for a, b in zip(levels, levels[1:]))
    return LodChain(levels, tuple(g.source for g in gens) + (gens[-1].target,), gens)


# ---------------------------------------------------------------------------
# the generalisation columns


def _transitions(space: Space) -> _Transitions:
    """Each observed level transition ``(a, b)``, in sorted order, with the
    generalisation targets of the level-``a`` elements that target level
    ``b``."""
    found: dict[tuple[int, int], dict[ElementId, ElementId]] = {}
    for k, e in space.elements.items():
        t = e.gen_target
        if t is not None:
            found.setdefault((k.lod, t.lod), {})[k] = t
    return dict(sorted(found.items()))


def _linked_index(space: Space, trans: _Transitions | None = None) -> SpaceIndex:
    """The index of the space linked across levels by its generalisation
    pairs: the space's own index with a pair from each element to its
    generalisation target, so only the targets are looked up and no space
    is built.  It shares the keys and ``pos`` of the space's index and
    copies its ``out`` and ``inn`` lists in C, building anew only those
    the pairs touch.  Its order is found on first read, unless the caller,
    knowing one, sets it first, and its ``inn_pairs`` are built from the
    keys.  ``trans`` is the space's ``_transitions`` when already read.  A
    target equal to its element, or a pair the space already has, adds
    nothing.  Raises ``DanglingPairError`` naming the smallest pair onto a
    target the space lacks."""
    if trans is None:
        trans = _transitions(space)
    idx = space.index
    gen = [kt for targets in trans.values() for kt in targets.items()]
    ends = list(map(idx.pos.get, chain.from_iterable(gen)))
    ends_a, ends_b = ends[0::2], ends[1::2]
    if None in ends_b:
        missing = [_pair(kt) for kt, j in zip(gen, ends_b) if j is None]
        raise _dangling_error(missing, space.elements)
    if any(map(eq, ends_a, ends_b)) or any(map(contains, map(idx.out.__getitem__, ends_a), ends_b)):
        kept = [(i, j) for i, j in zip(ends_a, ends_b) if i != j and j not in idx.out[i]]
        ends_a, ends_b = [i for i, _ in kept], [j for _, j in kept]
    out, inn = idx.out.copy(), idx.inn.copy()
    for adj, ends, other in ((out, ends_a, ends_b), (inn, ends_b, ends_a)):
        added: dict[int, list[int]] = {}
        for i, j in zip(ends, other):
            added.setdefault(i, []).append(j)
        for i, more in added.items():
            adj[i] = adj[i] + more
    return SpaceIndex(idx.keys, idx.pos, out, inn)


def _levels(space: Space) -> dict[int, list[ElementId]]:
    """The keys of each level, in the space's order."""
    by_level: dict[int, list[ElementId]] = {}
    for k in space.elements:
        by_level.setdefault(k.lod, []).append(k)
    return by_level


def _level_maps(space: Space) -> dict[tuple[int, int], SpaceMap]:
    """One generalisation map per observed level transition ``(a, b)``, in
    sorted order: from the subspace of the level-``a`` elements that target
    level ``b`` to the subspace of level ``b``.  A transition with a target
    missing from the space (a dangling generalisation column) has no map."""
    by_level = _levels(space)
    level = functools.cache(lambda lod: select_subspace(space, by_level[lod]))
    maps = {}
    for (a, b), targets in _transitions(space).items():
        if all(t in space for t in targets.values()):
            # a domain that is the whole level shares that level's subspace
            whole = len(targets) == len(by_level[a])
            source = level(a) if whole else select_subspace(space, targets)
            maps[a, b] = SpaceMap(source, level(b), targets)
    return maps


# ---------------------------------------------------------------------------
# consistency rules on the level maps


def _rule_surjective(space: Space) -> list[ConsistencyConflict]:
    """For each level transition ``(a, b)`` that ``_level_maps`` maps, in
    sorted order, the keys of level ``b`` that no level-``a`` element
    generalises onto, read off the generalisation columns: no subspace is
    built."""
    by_level = _levels(space)
    missed = {
        t: set(by_level[t[1]]).difference(targets.values())
        for t, targets in _transitions(space).items()
        if all(map(space.__contains__, targets.values()))
    }
    return [_level_conflict("surjective", t, "targets missed:", m) for t, m in missed.items() if m]


def _rule_monotonic(space: Space) -> list[ConsistencyConflict]:
    """The witness of each level map that ``check_map`` finds not
    monotonic, by transition.  Nothing on a cyclic space: monotonicity is
    undefined there, and the "t0" rule names the cycle."""
    if space.index.order is None:
        return []
    reports = {t: check_map(g) for t, g in _level_maps(space).items()}
    return [
        _level_conflict("monotonic", t, "disconnected preimage of", r.monotonicity_witness)
        for t, r in reports.items()
        if not r.monotonic
    ]


def _level_conflict(rule: str, transition: tuple[int, int], what: str, keys) -> ConsistencyConflict:
    a, b = transition
    detail = f"levels {a}->{b}: {what} {sorted(str(k) for k in keys)}"
    return ConsistencyConflict(rule, tuple(sorted(keys)), detail)


register_rule("surjective", _rule_surjective)
register_rule("monotonic", _rule_monotonic)
