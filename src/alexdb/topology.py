"""Finite topological spaces presented by a bounded-by relation.

A space is a pair ``(X, R)``: a finite set of elements and an irreflexive
relation ``R`` where ``(a, b)`` reads "a is bounded by b" (an edge is
bounded by its end vertices, a face by its rim edges, and so on).  ``R``
generates a topology: a set ``A`` is open when for every pair ``(a, b)``
with ``b`` in ``A``, ``a`` is in ``A`` as well.  Open sets collect, with
every element, everything that element bounds — the combinatorial "star"
convention.  Arbitrary unions *and* arbitrary intersections of opens are
open, so the topology is equivalent to a preorder (the reflexive-transitive
closure of ``R``) and all queries below reduce to reachability.

The space is T0 (distinct points have distinct neighbourhood filters)
exactly when ``R`` is acyclic; ``build_space`` enforces that by default.

Every query answers from one reachability kernel: ``Space.index``, an
integer-indexed out/in adjacency plus a topological order.  It is built on
the first query that needs it (``build_space``'s T0 check is one) and
cached on the space.  The cache relies on a contract: a ``Space`` is
immutable.  Never mutate its ``elements`` mapping or its relation; build a
new space instead.

Conventions used throughout:

* ``closure(A)``  = everything reachable from ``A`` along ``R``;
  the smallest closed set containing ``A``.
* ``star(A)``     = everything that reaches ``A`` along ``R``;
  the smallest *open* set containing ``A`` (minimal neighbourhood).
* dimension       = longest strict bounded-by chain, counted in steps.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import AbstractSet, Iterable, Iterator, Literal, Mapping, Union

from .errors import (
    DanglingPairError,
    DuplicateKeyError,
    EmptySpaceError,
    NotFoundError,
    T0ViolationError,
)
from .limits import OPEN_SET_GUARD, check_guard

Scalar = Union[str, int, float]


@dataclass(frozen=True, order=True)
class ElementId:
    """Key of an element: an id string plus a level-of-detail tag."""

    id: str
    lod: int = 0

    def __str__(self) -> str:
        return self.id if self.lod == 0 else f"{self.id}:{self.lod}"


# Sort key giving ElementId's own order, compared in C rather than through
# the dataclass's generated ``__lt__``: sorting thousands of keys is hot.
_key_order = attrgetter("id", "lod")


@dataclass(frozen=True)
class Element:
    """An element together with its bookkeeping columns.

    ``version`` is the token of the version that introduced the element,
    ``gen_target`` the key of its image under the generalisation map to the
    next-coarser level (both optional), and ``attributes`` holds scalar
    payload values.
    """

    key: ElementId
    version: str | None = None
    gen_target: ElementId | None = None
    attributes: Mapping[str, Scalar] = field(default_factory=dict)


@dataclass(frozen=True, order=True)
class BoundedByPair:
    """One relation row: ``ida`` is bounded by ``idb``."""

    ida: ElementId
    idb: ElementId


@dataclass(frozen=True)
class Space:
    """A finite space: elements keyed by ``ElementId`` plus the relation."""

    elements: Mapping[ElementId, Element]
    relation: frozenset[BoundedByPair]

    def keys(self) -> frozenset[ElementId]:
        return frozenset(self.elements)

    def element(self, key: ElementId) -> Element:
        try:
            return self.elements[key]
        except KeyError:
            raise NotFoundError(f"no element {key} in space") from None

    def __contains__(self, key: ElementId) -> bool:
        return key in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def index(self) -> SpaceIndex:
        """Integer-indexed adjacency and topological order of the relation,
        built on the first query that needs it and kept for the life of
        this (immutable) space."""
        return SpaceIndex(self)


@dataclass(frozen=True)
class Preorder:
    """Reflexive-transitive closure of a bounded-by relation.

    ``pairs`` contains every ``(a, b)`` with a path ``a -> ... -> b``
    (including the diagonal).  The lookup maps are derived data and do not
    take part in equality.
    """

    pairs: frozenset[tuple[ElementId, ElementId]]
    _down: Mapping[ElementId, frozenset[ElementId]] = field(compare=False, repr=False)
    _up: Mapping[ElementId, frozenset[ElementId]] = field(compare=False, repr=False)

    def holds(self, a: ElementId, b: ElementId) -> bool:
        """True when a == b or a is transitively bounded by b."""
        return (a, b) in self.pairs

    def descendants(self, a: ElementId) -> frozenset[ElementId]:
        """All keys reachable from ``a`` (reflexive)."""
        return self._down[a]

    def ancestors(self, a: ElementId) -> frozenset[ElementId]:
        """All keys that reach ``a`` (reflexive)."""
        return self._up[a]

    def comparable(self, a: ElementId, b: ElementId) -> bool:
        return (a, b) in self.pairs or (b, a) in self.pairs


# ---------------------------------------------------------------------------
# construction


def build_space(
    elements: Iterable[Element],
    pairs: Iterable[BoundedByPair],
    t0_check: bool = True,
) -> Space:
    """Validate and assemble a space.

    Raises ``DuplicateKeyError`` for repeated element keys,
    ``DanglingPairError`` for pairs touching unknown keys, and — unless
    ``t0_check`` is disabled — ``T0ViolationError`` carrying a witness cycle.
    Reflexive pairs are dropped: reflexivity is implicit in the preorder.
    """
    table: dict[ElementId, Element] = {}
    for el in elements:
        if el.key in table:
            raise DuplicateKeyError(f"duplicate element key {el.key}")
        table[el.key] = el
    rel = set()
    for p in pairs:
        if p.ida == p.idb:
            continue
        if p.ida not in table:
            raise DanglingPairError(f"pair {p} references unknown element {p.ida}")
        if p.idb not in table:
            raise DanglingPairError(f"pair {p} references unknown element {p.idb}")
        rel.add(p)
    space = Space(elements=table, relation=frozenset(rel))
    if t0_check:
        _topological_order(space)
    return space


def simple_space(
    ids: Iterable[str | ElementId],
    pairs: Iterable[tuple[str | ElementId, str | ElementId]] = (),
    attributes: Mapping[str, Mapping[str, Scalar]] | None = None,
    lod: int = 0,
    t0_check: bool = True,
) -> Space:
    """Shorthand constructor coercing bare strings to keys at one level."""

    def coerce(x: str | ElementId) -> ElementId:
        return x if isinstance(x, ElementId) else ElementId(x, lod)

    attributes = attributes or {}
    els = [
        Element(key=coerce(i), attributes=dict(attributes.get(str(i), {})))
        for i in ids
    ]
    rel = [BoundedByPair(coerce(a), coerce(b)) for a, b in pairs]
    return build_space(els, rel, t0_check=t0_check)


# ---------------------------------------------------------------------------
# the reachability kernel


def _walk(adj: list[list[int]], starts: Iterable[int]) -> set[int]:
    """Positions reachable from ``starts`` along ``adj``, starts included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def _kahn(out: list[list[int]]) -> list[int]:
    """Kahn's topological order of ``out``: each position before its
    successors.  Positions on or below a cycle are missing from it."""
    indegree = [0] * len(out)
    for below in out:
        for j in below:
            indegree[j] += 1
    order = [i for i, d in enumerate(indegree) if d == 0]
    for i in order:  # the list grows while it is walked
        for j in out[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                order.append(j)
    return order


def _nearest_kept(
    out: list[list[int]], kept: AbstractSet[int]
) -> Iterator[tuple[int, set[int]]]:
    """Each kept position with its nearest kept descendants: those reached by
    a downward path whose intermediate positions are all dropped.

    Each walk passes through dropped positions only and stops at the first
    kept ones it meets.  The pairs found generate the restriction of the
    preorder to ``kept``, so subspace connectivity and the subspace's
    reduced relation need no other pairs.
    """
    for a in kept:
        found: set[int] = set()
        seen: set[int] = set()
        stack = list(out[a])
        while stack:
            j = stack.pop()
            if j in kept:
                found.add(j)
            elif j not in seen:
                seen.add(j)
                stack.extend(out[j])
        found.discard(a)
        yield a, found


def _partition(
    keys: list[ElementId], members: Iterable[int], links: Iterable[tuple[int, int]]
) -> tuple[frozenset[ElementId], ...]:
    """Classes of ``members`` under the equivalence that ``links`` generate,
    ordered by their smallest key (union-find)."""
    parent = {i: i for i in members}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[ElementId]] = {}
    for i in parent:
        groups.setdefault(find(i), []).append(keys[i])
    comps = [frozenset(g) for g in groups.values()]
    return tuple(sorted(comps, key=lambda c: _key_order(min(c, key=_key_order))))


class SpaceIndex:
    """Integer-indexed adjacency of a space's relation.

    Position ``i`` stands for ``keys[i]`` (the space's element order);
    ``out[i]`` lists the positions ``i`` is bounded by and ``inn[i]`` those
    bounded by ``i``, one relation step each.  ``order`` is a topological
    order, every position before those it is bounded by, found by Kahn's
    algorithm; it is None when the relation has a cycle.
    """

    __slots__ = ("keys", "pos", "out", "inn", "order")

    def __init__(self, space: Space):
        self.keys = list(space.elements)
        self.pos = {k: i for i, k in enumerate(self.keys)}
        self.out: list[list[int]] = [[] for _ in self.keys]
        self.inn: list[list[int]] = [[] for _ in self.keys]
        for p in space.relation:
            a, b = self.pos[p.ida], self.pos[p.idb]
            self.out[a].append(b)
            self.inn[b].append(a)
        order = _kahn(self.out)
        self.order = order if len(order) == len(self.keys) else None


def find_cycle(space: Space) -> list[ElementId] | None:
    """Return one directed cycle of the relation, or None when acyclic."""
    idx = space.index
    if idx.order is not None:
        return None
    keys = idx.keys
    return find_cycle_in({k: {keys[j] for j in idx.out[i]} for i, k in enumerate(keys)})


def find_cycle_in(adj: Mapping[ElementId, set[ElementId]]) -> list[ElementId] | None:
    """Cycle search over a bare adjacency mapping (key -> successors)."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {k: WHITE for k in adj}
    parent: dict[ElementId, ElementId] = {}
    for root in adj:
        if colour[root] != WHITE:
            continue
        stack = [(root, iter(sorted(adj[root])))]
        colour[root] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if colour[nxt] == WHITE:
                    colour[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, iter(sorted(adj[nxt]))))
                    advanced = True
                    break
                if colour[nxt] == GREY:
                    # back edge: unwind the grey chain into a cycle
                    cycle = [nxt]
                    cur = node
                    while cur != nxt:
                        cycle.append(cur)
                        cur = parent[cur]
                    cycle.reverse()
                    return cycle
            if not advanced:
                colour[node] = BLACK
                stack.pop()
    return None


def _topological_order(space: Space) -> list[int]:
    """The index's topological order; raises ``T0ViolationError`` when cyclic."""
    order = space.index.order
    if order is None:
        cycle = find_cycle(space)
        raise T0ViolationError(
            f"relation has a cycle, space is not T0: {[str(k) for k in cycle]}",
            cycle=cycle,
        )
    return order


def preorder(space: Space) -> Preorder:
    """Reflexive-transitive closure of the space's relation.

    Materialises every related pair; the queries in this module answer from
    the index directly and never need it.
    """
    idx = space.index
    keys = idx.keys
    down = {k: frozenset(keys[j] for j in _walk(idx.out, [i])) for i, k in enumerate(keys)}
    up = {k: frozenset(keys[j] for j in _walk(idx.inn, [i])) for i, k in enumerate(keys)}
    pairs = frozenset((a, b) for a, reach in down.items() for b in reach)
    return Preorder(pairs=pairs, _down=down, _up=up)


def _require_keys(space: Space, keys: Iterable[ElementId]) -> frozenset[ElementId]:
    ks = frozenset(keys)
    missing = [k for k in ks if k not in space.elements]
    if missing:
        raise NotFoundError(f"unknown element keys: {sorted(str(k) for k in missing)}")
    return ks


# ---------------------------------------------------------------------------
# topological queries


def _hull(space: Space, a_set: Iterable[ElementId], downward: bool) -> frozenset[ElementId]:
    keys = _require_keys(space, a_set)
    idx = space.index
    seen = _walk(idx.out if downward else idx.inn, [idx.pos[k] for k in keys])
    return frozenset(idx.keys[i] for i in seen)


def closure(space: Space, a_set: Iterable[ElementId]) -> frozenset[ElementId]:
    """Smallest closed set containing ``a_set``: all keys reachable along R."""
    return _hull(space, a_set, downward=True)


def star(space: Space, a_set: Iterable[ElementId]) -> frozenset[ElementId]:
    """Smallest open set containing ``a_set``: all keys that reach it along R."""
    return _hull(space, a_set, downward=False)


def enumerate_open_sets(space: Space) -> frozenset[frozenset[ElementId]]:
    """The full family of open sets, by brute force over all subsets.

    Guarded: 2^n subsets are checked, so spaces beyond the bound are
    refused rather than silently slow.
    """
    n = len(space.elements)
    check_guard(n, OPEN_SET_GUARD, "enumerate_open_sets")
    keys = sorted(space.elements)
    index = {k: i for i, k in enumerate(keys)}
    # bound_mask[j]: bits of all a with (a, keys[j]) in R — must accompany j
    bound_mask = [0] * n
    for p in space.relation:
        bound_mask[index[p.idb]] |= 1 << index[p.ida]
    opens = []
    for m in range(1 << n):
        rest = m
        ok = True
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            if bound_mask[j] & ~m:
                ok = False
                break
            rest ^= low
        if ok:
            opens.append(frozenset(keys[i] for i in range(n) if m >> i & 1))
    return frozenset(opens)


def is_t0(space: Space) -> bool:
    return space.index.order is not None


# ---------------------------------------------------------------------------
# dimension and classification


def _chain_lengths(space: Space) -> list[int]:
    """Longest strict bounded-by chain starting at each position, in steps."""
    out, order = space.index.out, space.index.order
    if order is None:
        cycle = find_cycle(space)
        raise T0ViolationError(
            f"relation has a cycle through {cycle[-1]}; dimension is undefined",
            cycle=cycle,
        )
    depth = [0] * len(out)
    for i in reversed(order):
        if out[i]:
            depth[i] = 1 + max(depth[j] for j in out[i])
    return depth


def element_dimension(space: Space, x: ElementId) -> int:
    """Length in steps of the longest chain descending from ``x``."""
    _require_keys(space, [x])
    return _chain_lengths(space)[space.index.pos[x]]


def krull_dimension(space: Space) -> int:
    """Length of the longest strict chain in the space.

    A chain of k+1 pairwise-related distinct elements has length k.  Raises
    on the empty space and on cyclic relations, where no finite strict
    chain bound exists.
    """
    if not space.elements:
        raise EmptySpaceError("dimension of the empty space is undefined")
    return max(_chain_lengths(space))


def classify(space: Space, x: ElementId) -> Literal["vertex", "edge", "higher"]:
    """vertex: bounded by nothing; edge: bounded only by vertices; else higher."""
    _require_keys(space, [x])
    out = space.index.out
    below = out[space.index.pos[x]]
    if not below:
        return "vertex"
    if all(not out[j] for j in below):
        return "edge"
    return "higher"


# ---------------------------------------------------------------------------
# connectedness


def connected_components(space: Space) -> tuple[frozenset[ElementId], ...]:
    """Partition of the elements into connected components.

    On the full element set, topological connectedness coincides with
    connectedness of the undirected reflection of the relation.
    """
    idx = space.index
    links = ((a, b) for a, below in enumerate(idx.out) for b in below)
    return _partition(idx.keys, range(len(idx.keys)), links)


def components_within(space: Space, a_set: Iterable[ElementId]) -> tuple[frozenset[ElementId], ...]:
    """Connected components of the subspace on ``a_set``.

    Subspace connectedness is comparability-graph connectedness of the
    *restricted preorder*: two kept elements are adjacent when one is
    transitively bounded by the other in the ambient space, even when every
    intermediate element was dropped.  Linking each kept element to its
    nearest kept descendants generates the same components.
    """
    keys = _require_keys(space, a_set)
    idx = space.index
    kept = {idx.pos[k] for k in keys}
    links = ((a, b) for a, below in _nearest_kept(idx.out, kept) for b in below)
    return _partition(idx.keys, kept, links)


def is_connected(space: Space, a_set: Iterable[ElementId]) -> bool:
    """Whether the subspace on ``a_set`` is connected (empty: vacuously yes)."""
    comps = components_within(space, a_set)
    return len(comps) <= 1
