"""Constructions on spaces and structure-aware maps between them.

Subspace, product, quotient, disjoint union, image and pullback all come in
two flavours conceptually: topologies *induced* by maps into given spaces
(subspace, product, pullback) and topologies *co-induced* by maps out of
given spaces (quotient, image, disjoint union).  Every construction here
returns a plain ``Space`` whose stored relation is transitively reduced via
``open_reduction``, so equal topologies get equal stored relations.
"""
from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import AttributeMergeWarning, NotFoundError, T0ViolationError
from .limits import MONOTONICITY_GUARD, size_guard
from .topology import (
    BoundedByPair,
    Element,
    ElementId,
    Space,
    build_space,
    find_cycle_in,
    preorder,
    _kahn,
    _key_order,
    _nearest_kept,
    _require_keys,
)

#: Separator joining the two factor ids in a product element id.
PRODUCT_SEPARATOR = "⊗"  # ⊗


# ---------------------------------------------------------------------------
# relation algebra


def open_reduction(
    pairs: Iterable[BoundedByPair | tuple[ElementId, ElementId]],
) -> frozenset[BoundedByPair]:
    """Minimal relation generating the same topology (transitive reduction).

    Accepts pairs as ``BoundedByPair`` or plain 2-tuples.  Reflexive pairs
    are dropped first; a cycle in what remains is an error, since cyclic
    relations have no unique reduction.  The result is the covering
    relation of the generated order: exactly those strict pairs that no
    longer path can replace.

    Reachability sets are bitsets (Python ints) filled in reverse
    topological order, after Aho, Garey and Ullman, "The transitive
    reduction of a directed graph" (SIAM J. Comput. 1972).
    """
    normal = (p if isinstance(p, BoundedByPair) else BoundedByPair(p[0], p[1]) for p in pairs)
    rel = {(p.ida, p.idb) for p in normal if p.ida != p.idb}
    pos: dict[ElementId, int] = {}
    for pair in rel:
        for k in pair:
            pos.setdefault(k, len(pos))
    succ: list[list[int]] = [[] for _ in pos]
    for a, b in rel:
        succ[pos[a]].append(pos[b])
    return _reduction(list(pos), succ)


def _reduction(nodes: list[ElementId], succ: list[list[int]]) -> frozenset[BoundedByPair]:
    """Covering pairs of the order that ``succ`` (position -> successors,
    no repeats) generates over ``nodes``."""
    order = _kahn(succ)
    if len(order) < len(nodes):
        adj = {nodes[i]: {nodes[j] for j in succ[i]} for i in range(len(nodes))}
        cycle = find_cycle_in({k: adj[k] for k in sorted(adj)})
        raise T0ViolationError(
            f"cannot reduce a cyclic relation: {[str(k) for k in cycle]}",
            cycle=cycle,
        )
    # below[i]: bits of every position strictly below i
    below = [0] * len(nodes)
    out = []
    for a in reversed(order):
        longer = 0  # reachable from a in two or more steps
        for b in succ[a]:
            longer |= below[b]
        for b in succ[a]:
            if not longer >> b & 1:
                out.append(BoundedByPair(nodes[a], nodes[b]))
        below[a] = longer | sum(1 << b for b in succ[a])
    return frozenset(out)


# ---------------------------------------------------------------------------
# induced topologies


def select_subspace(space: Space, keep: Iterable[ElementId]) -> Space:
    """Subspace on ``keep``: restrict the preorder, then reduce.

    Comparabilities that pass through dropped elements survive as direct
    pairs, so the result carries the genuine subspace topology.  Only pairs
    from each kept element to its nearest kept descendants are candidates
    for the reduced relation.
    """
    keys = sorted(_require_keys(space, keep), key=_key_order)
    idx = space.index
    local = {idx.pos[k]: i for i, k in enumerate(keys)}
    succ: list[list[int]] = [[] for _ in keys]
    for a, below in _nearest_kept(idx.out, local.keys()):
        succ[local[a]] = [local[b] for b in below]
    # keys, pairs and acyclicity hold by construction: no re-validation
    return Space({k: space.elements[k] for k in keys}, _reduction(keys, succ))


def product_key(a: ElementId, b: ElementId, separator: str = PRODUCT_SEPARATOR) -> ElementId:
    """Key of a product element; the level tag of the left factor is kept."""
    return ElementId(f"{a.id}{separator}{b.id}", a.lod)


def product(a: Space, b: Space, separator: str = PRODUCT_SEPARATOR) -> Space:
    """Product space on pairs, with the componentwise relation.

    ``(x, y)`` is bounded by ``(x', y)`` when x is bounded by x', and by
    ``(x, y')`` when y is bounded by y'; minimal neighbourhoods multiply.
    Attribute dictionaries merge with the left factor winning.
    """
    els = []
    for ka in sorted(a.elements):
        ea = a.elements[ka]
        for kb in sorted(b.elements):
            eb = b.elements[kb]
            els.append(
                Element(
                    key=product_key(ka, kb, separator),
                    version=ea.version,
                    attributes={**eb.attributes, **ea.attributes},
                )
            )
    rel = set()
    for p in a.relation:
        for kb in b.elements:
            rel.add(BoundedByPair(product_key(p.ida, kb, separator), product_key(p.idb, kb, separator)))
    for p in b.relation:
        for ka in a.elements:
            rel.add(BoundedByPair(product_key(ka, p.ida, separator), product_key(ka, p.idb, separator)))
    return build_space(els, rel, t0_check=False)


# ---------------------------------------------------------------------------
# co-induced topologies


def _normalise_partition(
    space: Space, classes: Iterable[Iterable[ElementId]]
) -> list[frozenset[ElementId]]:
    norm = []
    seen: set[ElementId] = set()
    for cls in classes:
        c = frozenset(cls)
        if not c:
            continue
        unknown = c - space.keys()
        if unknown:
            raise NotFoundError(f"class members not in space: {sorted(str(k) for k in unknown)}")
        if c & seen:
            overlap = sorted(str(k) for k in c & seen)
            raise ValueError(f"classes overlap on {overlap}")
        seen |= c
        norm.append(c)
    # remaining elements form singleton classes
    for k in sorted(space.keys() - seen):
        norm.append(frozenset([k]))
    return norm


def quotient(space: Space, classes: Iterable[Iterable[ElementId]]) -> Space:
    """Identify each class to one element carrying the co-induced topology.

    The representative is the lexicographically least member key; its class
    mates' attributes fold in first-writer-wins, warning on clashes.
    Classes omitted from ``classes`` stay as singletons.  Identification
    that would create a cycle raises, carrying the witness cycle.
    """
    parts = _normalise_partition(space, classes)
    rep_of: dict[ElementId, ElementId] = {}
    els = []
    for cls in parts:
        members = sorted(cls)
        rep = members[0]
        for m in members:
            rep_of[m] = rep
        attrs: dict = {}
        for m in members:
            for name, value in space.elements[m].attributes.items():
                if name in attrs and attrs[name] != value:
                    warnings.warn(
                        f"attribute {name!r} clashes in class of {rep}: "
                        f"keeping {attrs[name]!r}, dropping {value!r}",
                        AttributeMergeWarning,
                        stacklevel=2,
                    )
                    continue
                attrs.setdefault(name, value)
        first = space.elements[rep]
        els.append(
            Element(key=rep, version=first.version, gen_target=first.gen_target, attributes=attrs)
        )
    projected = [
        BoundedByPair(rep_of[p.ida], rep_of[p.idb])
        for p in space.relation
        if rep_of[p.ida] != rep_of[p.idb]
    ]
    rel = open_reduction(projected)
    return build_space(els, rel, t0_check=False)


def disjoint_union(spaces: Sequence[Space] | Mapping[int, Space]) -> Space:
    """Tagged union: element keys are re-tagged with their family index.

    The index plays the role of the level column in the storage schema, so
    inputs are expected to live on a single level each; colliding keys after
    re-tagging raise.
    """
    if isinstance(spaces, Mapping):
        items = sorted(spaces.items())
    else:
        items = list(enumerate(spaces))
    els = []
    rel = []
    for idx, sp in items:
        for k in sorted(sp.elements):
            e = sp.elements[k]
            els.append(
                Element(
                    key=ElementId(k.id, idx),
                    version=e.version,
                    gen_target=e.gen_target,
                    attributes=dict(e.attributes),
                )
            )
        for p in sp.relation:
            rel.append(BoundedByPair(ElementId(p.ida.id, idx), ElementId(p.idb.id, idx)))
    return build_space(els, rel, t0_check=False)


# ---------------------------------------------------------------------------
# maps


@dataclass(frozen=True)
class SpaceMap:
    """A map of spaces given by an explicit key-to-key mapping.

    The mapping may be partial; ``check_map`` and the co-induced
    constructions require totality (restrict first via ``restrict_map``).
    """

    source: Space
    target: Space
    mapping: Mapping[ElementId, ElementId]

    def __post_init__(self):
        unknown_src = set(self.mapping) - self.source.keys()
        if unknown_src:
            raise NotFoundError(
                f"mapping domain not in source: {sorted(str(k) for k in unknown_src)}"
            )
        unknown_tgt = set(self.mapping.values()) - self.target.keys()
        if unknown_tgt:
            raise NotFoundError(
                f"mapping image not in target: {sorted(str(k) for k in unknown_tgt)}"
            )

    @property
    def domain(self) -> frozenset[ElementId]:
        return frozenset(self.mapping)

    @property
    def is_total(self) -> bool:
        return self.domain == self.source.keys()

    def __call__(self, key: ElementId) -> ElementId:
        return self.mapping[key]


def space_map(
    source: Space,
    target: Space,
    mapping: Mapping[str | ElementId, str | ElementId],
    source_lod: int = 0,
    target_lod: int = 0,
) -> SpaceMap:
    """Shorthand constructor coercing bare id strings on both sides."""

    def c(x, lod):
        return x if isinstance(x, ElementId) else ElementId(x, lod)

    return SpaceMap(
        source=source,
        target=target,
        mapping={c(k, source_lod): c(v, target_lod) for k, v in mapping.items()},
    )


def restrict_map(f: SpaceMap) -> SpaceMap:
    """Total map on the subspace carried by the domain of a partial map."""
    return SpaceMap(
        source=select_subspace(f.source, f.domain),
        target=f.target,
        mapping=dict(f.mapping),
    )


@dataclass(frozen=True)
class MapReport:
    """Outcome of ``check_map``.

    Witnesses are re-checkable: the continuity witness is a source relation
    pair whose images are unrelated in the target; the monotonicity witness
    is a connected target subset whose preimage is disconnected.  When the
    target exceeds the monotonicity guard only single-element closures are
    checked; ``monotonic`` is then ``None`` unless a violation was found,
    and ``monotonicity_exhaustive`` is False.
    """

    continuous: bool
    continuity_witness: tuple[ElementId, ElementId] | None
    surjective: bool
    missed_targets: frozenset[ElementId]
    monotonic: bool | None
    monotonicity_witness: frozenset[ElementId] | None
    monotonicity_exhaustive: bool = True


def _connected_in(
    comp_adj: Mapping[ElementId, frozenset[ElementId]], keys: frozenset[ElementId]
) -> bool:
    """Connectivity of ``keys`` under a comparability adjacency, restricted."""
    if len(keys) <= 1:
        return True
    start = next(iter(keys))
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in comp_adj[cur] & keys:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen) == len(keys)


def _comparability(space: Space) -> dict[ElementId, frozenset[ElementId]]:
    pre = preorder(space)
    adj: dict[ElementId, set[ElementId]] = {k: set() for k in space.elements}
    for a, b in pre.pairs:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return {k: frozenset(v) for k, v in adj.items()}


def check_map(f: SpaceMap) -> MapReport:
    """Report continuity, surjectivity and monotonicity of a total map.

    Continuity is the relational form: every source pair lands on equal or
    related images.  Monotonicity asks that preimages of connected target
    subsets stay connected — checked exhaustively up to the size guard.
    """
    if not f.is_total:
        raise ValueError("check_map requires a total map; use restrict_map first")

    tgt_pre = preorder(f.target)
    continuity_witness = None
    for p in sorted(f.source.relation):
        fa, fb = f(p.ida), f(p.idb)
        if fa != fb and not tgt_pre.holds(fa, fb):
            continuity_witness = (p.ida, p.idb)
            break

    missed = f.target.keys() - frozenset(f.mapping.values())

    src_comp = _comparability(f.source)
    tgt_comp = _comparability(f.target)
    preimage: dict[ElementId, set[ElementId]] = {k: set() for k in f.target.elements}
    for s, t in f.mapping.items():
        preimage[t].add(s)

    def preimage_of(subset: Iterable[ElementId]) -> frozenset[ElementId]:
        out: set[ElementId] = set()
        for t in subset:
            out |= preimage[t]
        return frozenset(out)

    monotonic: bool | None = True
    witness: frozenset[ElementId] | None = None
    exhaustive = True
    tkeys = sorted(f.target.elements)
    n = len(tkeys)
    if n <= size_guard(MONOTONICITY_GUARD):
        index = {k: i for i, k in enumerate(tkeys)}
        comp_mask = [0] * n
        for k in tkeys:
            for other in tgt_comp[k]:
                comp_mask[index[k]] |= 1 << index[other]
        for m in range(1, 1 << n):
            # bitmask flood fill: skip disconnected target subsets
            low = m & -m
            reached = low
            frontier = low
            while frontier:
                grow = 0
                rest = frontier
                while rest:
                    bit = rest & -rest
                    grow |= comp_mask[bit.bit_length() - 1]
                    rest ^= bit
                frontier = grow & m & ~reached
                reached |= frontier
            if reached != m:
                continue
            subset = frozenset(tkeys[i] for i in range(n) if m >> i & 1)
            if not _connected_in(src_comp, preimage_of(subset)):
                monotonic = False
                witness = subset
                break
    else:
        exhaustive = False
        monotonic = None
        for k in tkeys:
            subset = tgt_pre.descendants(k)
            if not _connected_in(src_comp, preimage_of(subset)):
                monotonic = False
                witness = frozenset(subset)
                break

    return MapReport(
        continuous=continuity_witness is None,
        continuity_witness=continuity_witness,
        surjective=not missed,
        missed_targets=frozenset(missed),
        monotonic=monotonic,
        monotonicity_witness=witness,
        monotonicity_exhaustive=exhaustive,
    )


# ---------------------------------------------------------------------------
# image and pullback


def image_space(f: SpaceMap) -> Space:
    """Image of a total map with the final (co-induced) topology."""
    if not f.is_total:
        raise ValueError("image_space requires a total map; use restrict_map first")
    img = frozenset(f.mapping.values())
    projected = [
        BoundedByPair(f(p.ida), f(p.idb))
        for p in f.source.relation
        if f(p.ida) != f(p.idb)
    ]
    rel = open_reduction(projected)
    return build_space([f.target.elements[k] for k in sorted(img)], rel, t0_check=False)


def pullback(f: SpaceMap, g: SpaceMap, separator: str = PRODUCT_SEPARATOR) -> Space:
    """Equi-join of the sources over a common target.

    Elements are the product pairs ``(a, b)`` with ``f(a) = g(b)``, with
    the subspace topology inherited from the product.
    """
    if f.target != g.target:
        raise ValueError("pullback requires maps into one common target space")
    if not (f.is_total and g.is_total):
        raise ValueError("pullback requires total maps; use restrict_map first")
    prod = product(f.source, g.source, separator)
    matched = [
        product_key(a, b, separator)
        for a in f.source.elements
        for b in g.source.elements
        if f(a) == g(b)
    ]
    return select_subspace(prod, matched)
