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
transitions, ``_level_maps`` builds one map per transition and ``_linked``
the space joined across levels by generalisation pairs.  ``storage`` asks
for these rather than deriving them itself.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .algebra import (
    PRODUCT_SEPARATOR,
    MapReport,
    SpaceMap,
    check_map,
    select_subspace,
    _pair,
    _subspace,
)
from .errors import IntegrityError, MissingGeometryError, NotFoundError
from .spacetime import PointRow
from .topology import (
    BoundedByPair,
    Element,
    ElementId,
    Space,
    SpaceIndex,
    build_space,
    simple_space,
    _assemble,
    _component,
    _nearest_kept,
    _positions,
    _require_keys,
    _topological_order,
    _walk,
)
from .versioning import reconstruct_version

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .storage import VersionStore

# level transition (a, b) -> {element at level a: its generalisation target}
_Transitions = dict[tuple[int, int], dict[ElementId, ElementId]]

# a key from the 2-tuple of its fields, built in C
_key = functools.partial(tuple.__new__, ElementId)

_NONE: frozenset[int] = frozenset()


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
    kept = _positions(space, a_set)
    pos = space.index.pos
    if pos.get(a) not in kept or pos.get(b) not in kept:
        raise NotFoundError(f"query endpoints must lie in the region: {a}, {b}")
    return pos[b] in _component(space.index, kept, pos[a], (set(), set()))


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
    image_region = frozenset(g(k) for k in keys)
    coarse = path_query(g.target, image_region, g(a), g(b))
    if not coarse:
        return PathQueryTrace(False, False, None, False)
    saturated = frozenset(k for k in g.source.elements if g(k) in image_region) <= keys
    if saturated:
        return PathQueryTrace(True, True, True, False)
    direct = path_query(g.source, keys, a, b)
    return PathQueryTrace(direct, True, False, True)


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
    1D complex indexing the telescope.
    """
    return _lod_graph(reconstruct_version(store, v))


def _lod_graph(space: Space, trans: _Transitions | None = None) -> tuple[Space, Space]:
    """``lod_graph`` of a reconstructed space; ``trans`` is its
    ``_transitions`` when already read.  Raises ``IntegrityError`` naming
    the smallest element that generalises onto its own level: the edge
    from ``l`` to ``l`` would share the name of the vertex of ``l``."""
    if trans is None:
        trans = _transitions(space)
    same = [kt for (a, b), targets in trans.items() if a == b for kt in targets.items()]
    if same:
        k, t = min(same)
        raise IntegrityError(
            f"element {k} generalises to {t} on its own level {k.lod}; "
            "the telescope needs generalisations between levels"
        )
    lods = sorted({k.lod for k in space.elements} | {b for _, b in trans})
    level_space = simple_space(
        [str(l) for l in lods],
        [(str(a), str(b)) for a, b in trans],
        attributes={str(l): {"lod": l} for l in lods},
    )
    els = []
    pairs = []
    for l in lods:
        els.append(Element(ElementId(f"{l}-{l}"), attributes={"lod": l, "glod": l}))
    for a, b in trans:
        edge = ElementId(f"{a}-{b}")
        els.append(Element(edge, attributes={"lod": a, "glod": b}))
        pairs.append(BoundedByPair(edge, ElementId(f"{a}-{a}")))
        pairs.append(BoundedByPair(edge, ElementId(f"{b}-{b}")))
    return level_space, build_space(els, pairs)


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
    subspace per level, one pass per edge over the positions below its
    fine level, and the result itself: linear in the result when down-sets
    stay small, as in a map pyramid.  Raises ``T0ViolationError`` when the
    linked space or the level space is cyclic, and ``IntegrityError`` when
    an element generalises onto its own level.
    """
    return _telescope(reconstruct_version(store, v), edge_matching)


def _telescope(base: Space, edge_matching: bool = True) -> Space:
    """The telescope of an already reconstructed version space."""
    trans = _transitions(base)
    linked = _linked(base, trans)
    _topological_order(linked)
    _, edge_graph = _lod_graph(base, trans)
    idx = linked.index
    keys = idx.keys
    levels: dict[int, set[int]] = {}  # level -> its positions
    for p, k in enumerate(keys):
        levels.setdefault(k.lod, set()).add(p)
    # nodes[l]: the level nodes whose fine side is l, in key order, as
    # (id, coarse side) pairs
    nodes: dict[int, list[tuple[str, int]]] = {}
    for w in sorted(edge_graph.elements):
        attrs = edge_graph.elements[w].attributes
        if edge_matching or attrs["lod"] == attrs["glod"]:
            nodes.setdefault(attrs["lod"], []).append((w.id, attrs["glod"]))
    # vertex[l]: the place of the vertex of level l among nodes[l]
    vertex = {l: [glod for _, glod in ws].index(l) for l, ws in nodes.items()}

    # matches in key order, each element's over its level's nodes in turn;
    # first[p]: the number of position p's first match
    first = [0] * len(keys)
    tkeys: list[ElementId] = []
    els: list[Element] = []
    for p in sorted(range(len(keys)), key=idx.rank.__getitem__):
        k = keys[p]
        e = linked.elements[k]
        first[p] = len(tkeys)
        for w, _ in nodes[k.lod]:
            key = _key((f"{k.id}{PRODUCT_SEPARATOR}{w}", k.lod))
            tkeys.append(key)
            els.append(Element(key, e.version, None, {**e.attributes, "lod_edge": w}))

    # the covering pairs, as pairs of match numbers
    ends_a: list[int] = []
    ends_b: list[int] = []
    pos = idx.pos
    for l, level in levels.items():  # each fibre: a copy of its level's subspace
        covers = _subspace(linked, level).relation
        tops = [first[pos[u]] for u, _ in covers]
        bottoms = [first[pos[v]] for _, v in covers]
        for o in range(len(nodes[l])):
            ends_a += [i + o for i in tops]
            ends_b += [j + o for j in bottoms]
    for a, ws in nodes.items():  # each edge's fibre, glued to its vertices
        for edge, (_, b) in enumerate(ws):
            if b == a:
                continue
            to_a, to_b = vertex[a], vertex[b]
            for x in levels[a]:  # down to the original
                ends_a.append(first[x] + edge)
                ends_b.append(first[x] + to_a)
            for x, y in _cross_covers(idx, levels[a], levels[b]):
                ends_a.append(first[x] + edge)
                ends_b.append(first[y] + to_b)

    at = tkeys.__getitem__
    pairs = list(map(_pair, zip(map(at, ends_a), map(at, ends_b))))
    tpos = dict(zip(tkeys, range(len(tkeys))))
    return _assemble(dict(zip(tkeys, els)), tpos, pairs, ends_a, ends_b, t0_check=False)


def _cross_covers(idx: SpaceIndex, fine: set[int], coarse: set[int]) -> Iterator[tuple[int, int]]:
    """The covering pairs from a position of ``fine`` to one of ``coarse``
    in the subspace on both, as pairs of positions; the index must be
    acyclic.

    A covering pair joins each fine position ``x`` to one of its nearest
    kept descendants ``y`` (see ``_nearest_kept``), unless ``y`` lies below
    another of them.  That is read off sets of the coarse positions
    strictly below each position, filled in reverse topological order over
    the positions strictly below ``fine`` only; a position with one
    successor that is not coarse shares its successor's set.  The sets stay
    as small as the down-sets, a few elements in a cell complex.
    """
    out = idx.out
    kept = fine | coarse
    is_coarse = coarse.__contains__
    reached = _walk(out, chain.from_iterable(map(out.__getitem__, fine)))
    below: list = [_NONE] * len(out)
    for p in reversed(idx.order):
        succ = out[p]
        if not succ or p not in reached:
            continue
        if len(succ) == 1 and not is_coarse(succ[0]):
            below[p] = below[succ[0]]
            continue
        found = set(filter(is_coarse, succ))
        for q in succ:
            found |= below[q]
        below[p] = found
    for x in fine:
        succ = out[x]
        near = succ if kept.issuperset(succ) else _nearest_kept(out, kept, x)
        for y in filter(is_coarse, near):
            if not any(y in below[z] for z in near):
                yield x, y


def telescope_fiber(tele: Space, edge_id: str) -> Space:
    """Subspace of a telescope sitting over one level-graph node."""
    keys = [k for k, e in tele.elements.items() if e.attributes.get("lod_edge") == edge_id]
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


def _linked(space: Space, trans: _Transitions | None = None) -> Space:
    """The space with its generalisation pairs added to the relation, so
    levels connect through the generalisation map; not checked for T0.
    ``trans`` is the space's ``_transitions`` when already read.  The
    positions are the space's own, and its pairs' ends are read off its
    index, so only the generalisation targets are looked up."""
    if trans is None:
        trans = _transitions(space)
    idx = space.index
    gen = [_pair(kt) for targets in trans.values() for kt in targets.items()]
    ends = list(map(idx.pos.get, chain.from_iterable(gen)))
    return _assemble(
        space.elements,
        idx.pos,
        list(chain.from_iterable(idx.inn_pairs)) + gen,
        list(chain.from_iterable(idx.inn)) + ends[0::2],
        [b for b, above in enumerate(idx.inn) for _ in above] + ends[1::2],
        t0_check=False,
    )


def _level_maps(space: Space) -> dict[tuple[int, int], SpaceMap]:
    """One generalisation map per observed level transition ``(a, b)``, in
    sorted order: from the subspace of the level-``a`` elements that target
    level ``b`` to the subspace of level ``b``.  A transition with a target
    missing from the space (a dangling generalisation column) has no map."""
    by_level: dict[int, list[ElementId]] = {}
    for k in space.elements:
        by_level.setdefault(k.lod, []).append(k)
    level = functools.cache(lambda lod: select_subspace(space, by_level[lod]))
    maps = {}
    for (a, b), targets in _transitions(space).items():
        if all(t in space for t in targets.values()):
            # a domain that is the whole level shares that level's subspace
            whole = len(targets) == len(by_level[a])
            source = level(a) if whole else select_subspace(space, targets)
            maps[a, b] = SpaceMap(source, level(b), targets)
    return maps
