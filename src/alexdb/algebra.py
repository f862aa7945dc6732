"""Constructions on spaces and structure-aware maps between them.

Subspace, product, quotient, disjoint union, image and pullback all come in
two flavours conceptually: topologies *induced* by maps into given spaces
(subspace, product, pullback) and topologies *co-induced* by maps out of
given spaces (quotient, image, disjoint union).  Every construction here
returns a plain ``Space`` whose stored relation is transitively reduced via
``open_reduction``, so equal topologies get equal stored relations.
"""
from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from itertools import chain, filterfalse
from typing import Iterable, Mapping, Sequence

from .errors import AttributeMergeWarning, NotFoundError, T0ViolationError
from .topology import (
    BoundedByPair,
    Element,
    ElementId,
    Space,
    build_space,
    find_cycle_in,
    is_connected,
    _bits,
    _chain_lengths,
    _kahn,
    _nearest_kept,
    _one_depth,
    _positions,
    _rank_masks,
    _walk,
)

#: Separator joining the two factor ids in a product element id.
PRODUCT_SEPARATOR = "⊗"  # ⊗

# a pair from the 2-tuple of its keys, built in C: it skips the Python-level
# ``__new__`` of the NamedTuple
_pair = functools.partial(tuple.__new__, BoundedByPair)


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
    rel = {(a, b) for a, b in pairs if a != b}
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
                out.append(_pair((nodes[a], nodes[b])))
        below[a] = longer | sum(1 << b for b in succ[a])
    return frozenset(out)


# ---------------------------------------------------------------------------
# induced topologies


def select_subspace(space: Space, keep: Iterable[ElementId]) -> Space:
    """Subspace on ``keep``: restrict the preorder, then reduce.

    Comparabilities that pass through dropped elements survive as direct
    pairs, so the result carries the genuine subspace topology.  Its
    elements come in key order.  When its candidate pairs need no
    reduction, the pairs it shares with the ambient relation are the
    ambient relation's own pair objects.
    """
    return _subspace(space, _positions(space, keep))


def _subspace(space: Space, kept: set[int]) -> Space:
    """The subspace on the index positions ``kept``.

    Only pairs from each kept position to its nearest kept descendants are
    candidates for the reduced relation.  The ambient pairs between kept
    positions are candidates, and are taken as the ambient pair objects.
    When the kept set is open (it holds everything above each of its
    members), no dropped position has a kept one below it, so these are
    all: nothing is walked.  Otherwise each kept position with a dropped
    ``out`` neighbour walks down to its nearest kept ones, and only the
    pairs that pass through dropped positions are built.

    In a T0 space an element strictly above another is deeper (has a
    longer chain below it), so when every kept position's candidates share
    one depth, none lies above another and the candidates are the reduced
    relation.  The ambient depths answer first; where they disagree, as
    generalisation pairs make them do in the level subspaces of a linked
    LoD space, ``_covering`` asks the same of the depths within the
    candidate graph.  Only candidates that fail both are reduced, with
    dense masks as wide as the kept set.  The cost is one pass over the
    kept positions' ``out`` lists plus the walks, and on the reducing path
    that of ``_reduction``.
    """
    idx = space.index
    out, inn, keys = idx.out, idx.inn, idx.keys
    ranked = sorted(kept, key=idx.rank.__getitem__)
    names = list(map(keys.__getitem__, ranked))
    # keys, pairs and acyclicity hold by construction: no re-validation
    elements = dict(zip(names, map(space.elements.__getitem__, names)))
    whole = kept.issuperset
    rim = [b for b in kept if not whole(inn[b])]  # kept positions below a dropped one
    walked = {}  # kept positions with a dropped out neighbour: their candidates
    if rim:  # the kept set is not open
        walked = {a: _nearest_kept(out, kept, a) for a in kept if not whole(out[a])}
    depth, level = idx.depth, idx.level
    if not (
        level is not None
        and all(_one_depth(depth, found) for found in walked.values())
        # a part of a list of one depth has one depth
        and all(
            _one_depth(depth, [b for b in out[a] if b in kept])
            for a in filterfalse(level.__getitem__, kept)
            if a not in walked
        )
    ):
        local = dict(zip(ranked, range(len(ranked))))
        succ = [
            [local[b] for b in (walked[a] if a in walked else out[a]) if b in kept] for a in ranked
        ]
        if not _covering(succ):
            return Space(elements, _reduction(names, succ))
    inn_pairs = idx.inn_pairs
    pairs = list(chain.from_iterable(map(inn_pairs.__getitem__, kept.difference(rim))))
    pairs += [p for b in rim for p, a in zip(inn_pairs[b], inn[b]) if a in kept]
    pairs += [
        _pair((keys[a], keys[b])) for a, found in walked.items() for b in found.difference(out[a])
    ]
    return Space(elements, frozenset(pairs))


def _covering(succ: list[list[int]]) -> bool:
    """Whether every pair of the graph ``succ`` (position -> successors, no
    repeats) is a covering pair of the order it generates, judged from
    chain lengths within the graph: False when it is cyclic.

    A successor ``b`` of ``a`` lies below another successor ``c`` of ``a``
    only if ``c`` is deeper, so only if ``a`` is deeper than ``b`` by more
    than one step; and only if ``b`` has a predecessor besides ``a``, since
    the last step of a path from ``c`` down to ``b`` comes from one, and
    were that ``a``, ``c`` would reach ``a``.  So the pairs all cover when
    each pair onto a position with more than one predecessor is one step
    deep.
    """
    order = _kahn(succ)
    if len(order) < len(succ):
        return False
    depth = _chain_lengths(succ, order)
    shared = [0] * len(succ)
    for below in succ:
        for b in below:
            shared[b] += 1
    for a, below in enumerate(succ):
        step = depth[a] - 1
        for b in below:
            if depth[b] != step and shared[b] > 1:
                return False
    return True


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


def _continuity_witness(
    f: SpaceMap, img: Sequence[int] | None = None, below: Sequence[int] | None = None
) -> tuple[ElementId, ElementId] | None:
    """The first source pair, in sorted order, whose images are distinct and
    unrelated in the target; None when the total map ``f`` is continuous.

    ``img[i]`` is the rank of the image of source position ``i`` and
    ``below[r]`` holds the bits of the ranks at or below rank ``r``; when
    not given, ranks are target index positions.
    """
    if below is None:
        pos = f.target.index.pos
        below = _rank_masks(f.target, range(len(pos)))[0]
        img = [pos[f.mapping[k]] for k in f.source.index.keys]
    bad = [
        (i, j)
        for i, outs in enumerate(f.source.index.out)
        for j in outs
        if img[i] != img[j] and not below[img[i]] >> img[j] & 1
    ]
    keys = f.source.index.keys
    return min(((keys[i], keys[j]) for i, j in bad), default=None)


@dataclass(frozen=True)
class MapReport:
    """Outcome of ``check_map``.

    Witnesses are re-checkable: the continuity witness is a source relation
    pair whose images are unrelated in the target; the monotonicity witness
    is a connected target subset whose preimage is disconnected, the first
    one in bitmask order over the sorted target keys.  The monotonicity
    check is exact at any size: ``monotonic`` is never None and
    ``monotonicity_exhaustive`` is always True.
    """

    continuous: bool
    continuity_witness: tuple[ElementId, ElementId] | None
    surjective: bool
    missed_targets: frozenset[ElementId]
    monotonic: bool
    monotonicity_witness: frozenset[ElementId] | None
    monotonicity_exhaustive: bool = True


def check_map(f: SpaceMap) -> MapReport:
    """Report continuity, surjectivity and monotonicity of a total map.

    Continuity is the relational form: every source pair lands on equal or
    related images.  Monotonicity asks that preimages of connected target
    subsets stay connected.  Call a pair of targets with nonempty fibres
    *linked* when they are comparable or both comparable with one component
    of targets with empty fibres, and *realized* when some element of one
    fibre is comparable with some element of the other.  The map is
    monotone exactly when every fibre is connected and every linked pair is
    realized: a connected target subset is glued from its fibres along
    linked pairs.  Both conditions answer from bit masks of target ranks
    (key order) filled along the Kahn orders of source and target; a fibre
    that its own relation pairs leave in pieces goes to ``is_connected``.
    The witness search runs only when the map is not monotone.  Raises
    ``T0ViolationError`` when the source or target relation is cyclic.
    """
    if not f.is_total:
        raise ValueError("check_map requires a total map; use restrict_map first")

    tkeys = sorted(f.target.elements)
    n = len(tkeys)
    rank = {k: i for i, k in enumerate(tkeys)}
    tranks = [rank[k] for k in f.target.index.keys]
    down, up = _rank_masks(f.target, tranks)
    # below[r], comparable[r]: bits of the targets at or below rank r, and
    # comparable with it, r included
    below, comparable = [0] * n, [0] * n
    for r, d, u in zip(tranks, down, up):
        below[r] = d
        comparable[r] = d | u
    sidx = f.source.index
    img = [rank[f.mapping[k]] for k in sidx.keys]
    continuity_witness = _continuity_witness(f, img, below)

    sdown, sup = _rank_masks(f.source, img)
    # realized[r]: bits of the targets whose fibres hold an element
    # comparable with one of r's fibre
    realized = [0] * n
    for i, r in enumerate(img):
        realized[r] |= sdown[i] | sup[i]
    filled = sum(1 << r for r in set(img))
    empty = (1 << n) - 1 & ~filled

    # linked[r]: comparable targets with nonempty fibres, and those joined to
    # r through one component of empty-fibre targets
    linked = [m & filled for m in comparable]
    components = []  # (members, nonempty-fibre targets next to them)
    rest = empty
    while rest:
        members = _flood(comparable, rest & -rest, empty)
        rest &= ~members
        ends = 0
        for e in _bits(members):
            ends |= comparable[e] & filled
        components.append((members, ends))
        for r in _bits(ends):
            linked[r] |= ends

    # fibres in pieces along relation pairs inside them; is_connected decides
    same = [[k for k in (*sidx.out[j], *sidx.inn[j]) if img[k] == r] for j, r in enumerate(img)]
    pieces = [0] * n
    placed: set[int] = set()
    for i, r in enumerate(img):
        if i not in placed:
            pieces[r] += 1
            placed |= _walk(same, [i])
    split = [r for r in range(n) if pieces[r] > 1]
    if split:
        fibres: dict[int, list[ElementId]] = {r: [] for r in split}
        for k, r in zip(sidx.keys, img):
            if r in fibres:
                fibres[r].append(k)
        split = [r for r in split if not is_connected(f.source, fibres[r])]
    # an empty fibre (no bit in realized) has no pairs to realize
    unrealized = [linked[r] & ~realized[r] if realized[r] else 0 for r in range(n)]

    witness = None
    if split or any(unrealized):
        best = _first_failing_subset(comparable, components, split, unrealized)
        witness = frozenset(tkeys[r] for r in _bits(best))

    missed = f.target.keys() - frozenset(f.mapping.values())
    return MapReport(
        continuous=continuity_witness is None,
        continuity_witness=continuity_witness,
        surjective=not missed,
        missed_targets=frozenset(missed),
        monotonic=witness is None,
        monotonicity_witness=witness,
    )


def _first_failing_subset(
    comparable: Sequence[int],
    components: Sequence[tuple[int, int]],
    split: Sequence[int],
    unrealized: Sequence[int],
) -> int:
    """The first connected target subset, as a bit mask of ranks, whose
    preimage is disconnected.

    Every such subset contains a minimal one: a rank in ``split`` alone, or
    an unrealized linked pair with a set of empty-fibre targets that joins
    them.  A subset's mask is at least that of each subset of it, so the
    first is a minimal one.  For a pair, the lowest joining set is found
    greedily: starting from the components next to both ends, each empty
    target is dropped, highest first, when the pair stays joined without it.
    """
    best = 1 << split[0] if split else 1 << len(comparable)  # above every subset
    for u, bad in enumerate(unrealized):
        if best < 1 << u:
            break
        lower = bad & (1 << u) - 1
        direct = lower & comparable[u]
        if direct:  # the lowest comparable partner, alone with u
            best = min(best, 1 << u | direct & -direct)
        joins = [(members, ends) for members, ends in components if ends >> u & 1]
        near = 0
        for members, _ in joins:
            near |= members
        for t in _bits(lower & ~comparable[u]):
            pair = 1 << t | 1 << u
            if best <= pair | near & -near:
                break  # every joining set holds a bit of near
            via = 0
            for members, ends in joins:
                if ends >> t & 1:
                    via |= members
            for e in reversed(list(_bits(via))):
                if _flood(comparable, 1 << t, via & ~(1 << e) | 1 << u) >> u & 1:
                    via &= ~(1 << e)
            best = min(best, pair | via)
    return best


def _flood(comparable: Sequence[int], start: int, allowed: int) -> int:
    """The ranks reached from the mask ``start`` along comparabilities,
    stepping onto ``allowed`` ranks only."""
    reached = new = start
    while new:
        grow = 0
        for b in _bits(new):
            grow |= comparable[b]
        new = grow & allowed & ~reached
        reached |= new
    return reached


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
