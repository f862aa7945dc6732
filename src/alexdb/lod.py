"""Levels of detail: generalisation chains, filtered queries, telescopes.

A chain links each level to the next-coarser one by a total generalisation
map that must be continuous and surjective (and is useful when monotonic).
Such maps let path queries run on the coarse level first: a negative coarse
answer is final by continuity, a positive one is final by monotonicity
whenever the queried region is saturated (a full preimage).  The vario-scale
view of a whole store is the telescope: every element is paired with the
nodes of a small level graph, producing one space that contains each level
and a redundant sliding copy along each level transition.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from .algebra import (
    MapReport,
    SpaceMap,
    check_map,
    open_reduction,
    product_key,
    select_subspace,
    space_map,
)
from .errors import MissingGeometryError, NotFoundError
from .spacetime import PointRow
from .topology import (
    BoundedByPair,
    Element,
    ElementId,
    Space,
    build_space,
    closure,
    components_within,
    simple_space,
    _require_keys,
)
from .versioning import reconstruct_version

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .storage import VersionStore


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
    component of the subspace's comparability graph.
    """
    keys = _require_keys(space, a_set)
    if a not in keys or b not in keys:
        raise NotFoundError(f"query endpoints must lie in the region: {a}, {b}")
    for comp in components_within(space, keys):
        if a in comp:
            return b in comp
    return False


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
    checked (at exhaustive-check cost) before querying.
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
    space = reconstruct_version(store, v)
    lods = {k.lod for k in space.elements}
    trans = set()
    for k, e in space.elements.items():
        if e.gen_target is not None:
            lods.add(e.gen_target.lod)
            trans.add((k.lod, e.gen_target.lod))
    level_space = simple_space(
        [str(l) for l in sorted(lods)],
        [(str(a), str(b)) for a, b in sorted(trans)],
        attributes={str(l): {"lod": l} for l in sorted(lods)},
    )
    els = []
    pairs = []
    for l in sorted(lods):
        els.append(Element(ElementId(f"{l}-{l}"), attributes={"lod": l, "glod": l}))
    for a, b in sorted(trans):
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
    off — with every level edge whose fine side is ``l``.  Fibers over
    vertices are the level spaces; the fiber over an edge is a redundant
    copy of its fine level, glued one dimension up.
    """
    base = reconstruct_version(store, v)
    gen_pairs = {
        BoundedByPair(k, e.gen_target)
        for k, e in base.elements.items()
        if e.gen_target is not None
    }
    augmented = build_space(base.elements.values(), base.relation | gen_pairs, t0_check=True)
    _, edge_graph = lod_graph(store, v)

    matches: list[tuple[ElementId, ElementId]] = []
    for k in sorted(augmented.elements):
        for w in sorted(edge_graph.elements):
            attrs = edge_graph.elements[w].attributes
            is_vertex = attrs["lod"] == attrs["glod"]
            if not is_vertex and not edge_matching:
                continue
            if attrs["lod"] == k.lod:
                matches.append((k, w))

    els = []
    for k, w in matches:
        e = augmented.elements[k]
        els.append(
            Element(
                key=product_key(k, w),
                version=e.version,
                attributes={**e.attributes, "lod_edge": w.id},
            )
        )
    # (ka, wa) is bounded by (kb, wb) when kb is in the closure of ka and wb
    # in that of wa: enumerate those candidates and keep the matched ones
    matched = set(matches)
    below_a = {k: closure(augmented, [k]) for k in augmented.elements}
    below_b = {w: closure(edge_graph, [w]) for w in edge_graph.elements}
    strict = [
        BoundedByPair(product_key(ka, wa), product_key(kb, wb))
        for ka, wa in matches
        for kb in below_a[ka]
        for wb in below_b[wa]
        if (kb, wb) in matched and (kb, wb) != (ka, wa)
    ]
    return build_space(els, open_reduction(strict), t0_check=False)


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
    spaces = tuple(
        select_subspace(base, [k for k in base.elements if k.lod == lvl]) for lvl in levels
    )
    gens = []
    for i in range(len(levels) - 1):
        mapping = {}
        for k in spaces[i].elements:
            tgt = base.elements[k].gen_target
            if tgt is None:
                raise NotFoundError(f"element {k} has no generalisation target")
            mapping[k] = tgt
        gens.append(SpaceMap(spaces[i], spaces[i + 1], mapping))
    return LodChain(levels=levels, spaces=spaces, gens=tuple(gens))
