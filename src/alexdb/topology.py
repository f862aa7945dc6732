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
integer-indexed out/in adjacency plus a topological order.  ``SpaceIndex``
has one constructor, which takes each pair's end positions.
``build_space`` finds them by looking each end up once, ``versioning``
reads them off its history index, and both hand them to ``_assemble``,
which drops reflexive pairs, rejects dangling ones, fills the index in
and checks T0; a space made otherwise builds it on the first query that
needs it.  It is cached on the space.  The cache relies on a
contract: a ``Space`` is immutable.  Never mutate its ``elements`` mapping
or its relation; build a new space instead.  The index also keeps each
element's chain length (its dimension), computed on first use.

Subspaces (``algebra.select_subspace`` and ``spacetime.time_slice``) work
on index positions too.  They list their keys in key order by sorting
positions by a rank kept on the index, and take the pairs they share with
the ambient relation as its own pair objects, kept on the index by target
position.  Only the pairs that pass through dropped elements are built;
when the candidate pairs must be reduced, the reduction builds the pairs
it keeps.

Connectivity of a subspace is one component walk.  From each kept element
found, it walks down and up through dropped elements to the nearest kept
ones, with one seen-set per direction shared by the whole call: a dropped
element already reached in one direction links only kept elements that
are already found.  ``is_connected`` is one walk, ``components_within``
and ``connected_components`` repeat it from each element not yet placed,
and ``lod.path_query`` stops its walk at the second endpoint.

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
from itertools import chain, repeat
from typing import (
    AbstractSet, Collection, Iterable, Iterator, Literal, Mapping, NamedTuple, Sequence, Union
)

from .errors import (
    DanglingPairError,
    DuplicateKeyError,
    EmptySpaceError,
    NotFoundError,
    T0ViolationError,
)
from .limits import OPEN_SET_GUARD, check_guard

Scalar = Union[str, int, float]


class ElementId(NamedTuple):
    """Key of an element: an id string plus a level-of-detail tag.

    A key is the plain tuple ``(id, lod)``: it equals, hashes and orders
    like that tuple, so sets, dicts and sorts of keys run in C.
    """

    id: str
    lod: int = 0

    def __str__(self) -> str:
        return self.id if self.lod == 0 else f"{self.id}:{self.lod}"


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


class BoundedByPair(NamedTuple):
    """One relation row: ``ida`` is bounded by ``idb``; the plain tuple
    ``(ida, idb)``."""

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
        keys = list(self.elements)
        pos = dict(zip(keys, range(len(keys))))
        pairs = list(self.relation)
        ends = list(map(pos.__getitem__, chain.from_iterable(pairs)))
        return SpaceIndex(keys, pos, pairs, ends[0::2], ends[1::2])


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


def _tuples(cls: type, rows: Iterable[tuple]) -> list:
    """Instances of the tuple type ``cls`` (a key, pair or row type) with
    the fields of each of ``rows``, built with no Python call per row."""
    return list(map(tuple.__new__, repeat(cls), rows))


def build_space(
    elements: Iterable[Element],
    pairs: Iterable[BoundedByPair],
    t0_check: bool = True,
) -> Space:
    """Validate and assemble a space.

    Raises ``DuplicateKeyError`` for repeated element keys, and the errors
    of ``_assemble``: ``DanglingPairError`` for a pair that touches an
    unknown key and — unless ``t0_check`` is disabled —
    ``T0ViolationError``.  Each pair end is looked up once, and the space's
    index is filled in from those positions.
    """
    table: dict[ElementId, Element] = {}
    for el in elements:
        if el.key in table:
            raise DuplicateKeyError(f"duplicate element key {el.key}")
        table[el.key] = el
    pos = dict(zip(table, range(len(table))))
    pairs = list(pairs)
    ends = list(map(pos.get, chain.from_iterable(pairs)))
    return _assemble(table, pos, pairs, ends[0::2], ends[1::2], t0_check)


def _assemble(
    elements: dict[ElementId, Element],
    pos: dict[ElementId, int],
    pairs: list[BoundedByPair],
    ends_a: list[int | None],
    ends_b: list[int | None],
    t0_check: bool = True,
) -> Space:
    """The space on ``elements`` whose relation is ``pairs``: ``pos`` maps
    each key to its position, and ``pairs[n]`` joins positions ``ends_a[n]``
    and ``ends_b[n]`` (None for a key not among ``elements``).  Its index is
    filled in from those positions unless a pair is given twice.

    Reflexive pairs are dropped: reflexivity is implicit in the preorder.
    Raises ``DanglingPairError`` naming the smallest pair that touches an
    unknown key, and — unless ``t0_check`` is disabled —
    ``T0ViolationError`` carrying a witness cycle.
    """
    rel, kept_a, kept_b, dangling = [], [], [], []
    for p, i, j in zip(pairs, ends_a, ends_b):
        if i is None or j is None:
            if p[0] != p[1]:
                dangling.append(p)
        elif i != j:
            rel.append(p)
            kept_a.append(i)
            kept_b.append(j)
    if dangling:
        # the smallest, so one input names the same pair in every process
        p = min(dangling)
        unknown = p[0] if p[0] not in elements else p[1]
        raise DanglingPairError(f"pair {p} references unknown element {unknown}")
    space = Space(elements, frozenset(rel))
    if len(space.relation) == len(rel):  # no pair given twice
        vars(space)["index"] = SpaceIndex(list(elements), pos, rel, kept_a, kept_b)
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


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def _nearest_kept(out: list[list[int]], kept: AbstractSet[int], a: int) -> set[int]:
    """The nearest kept descendants of position ``a``: those reached by a
    downward path whose intermediate positions are all dropped.

    The walk passes through dropped positions only and stops at the first
    kept ones it meets.  The pairs found from every kept position generate
    the restriction of the preorder to ``kept``, so the subspace's reduced
    relation needs no other pairs.
    """
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
    return found


def _chain_lengths(out: list[list[int]], order: list[int]) -> list[int]:
    """Longest strict chain descending from each position, in steps, filled
    in reverse topological ``order``."""
    depth = [0] * len(out)
    at = depth.__getitem__
    for i in reversed(order):
        if out[i]:
            depth[i] = 1 + max(map(at, out[i]))
    return depth


def _component(
    idx: SpaceIndex, kept: Collection[int], start: int, passed: tuple[set[int], set[int]]
) -> Iterator[int]:
    """The kept positions connected to ``start`` in the subspace on ``kept``,
    each yielded as it is found, ``start`` first.

    From each kept position found, one walk goes down and one up, through
    dropped positions only, to the nearest kept ones.  ``passed`` holds the
    dropped positions already walked through downward and upward; the walks
    of one call share it, since a dropped position reached once in a
    direction links only kept positions that walk has already found.
    """
    found = {start}
    queue = [start]
    yield start
    for k in queue:  # the list grows while it is walked
        for adj, seen in zip((idx.out, idx.inn), passed):
            stack = list(adj[k])
            while stack:
                j = stack.pop()
                if j in kept:
                    if j not in found:
                        found.add(j)
                        queue.append(j)
                        yield j
                elif j not in seen:
                    seen.add(j)
                    stack.extend(adj[j])


def _components(idx: SpaceIndex, kept: Collection[int]) -> tuple[frozenset[ElementId], ...]:
    """Classes of the subspace on ``kept``, ordered by their smallest key."""
    passed: tuple[set[int], set[int]] = (set(), set())
    placed: set[int] = set()
    comps = []
    for i in kept:
        if i not in placed:
            comp = set(_component(idx, kept, i, passed))
            placed |= comp
            comps.append(frozenset(map(idx.keys.__getitem__, comp)))
    return tuple(sorted(comps, key=min))


class SpaceIndex:
    """Integer-indexed adjacency of a space's relation.

    Position ``i`` stands for ``keys[i]`` (the space's element order);
    ``out[i]`` lists the positions ``i`` is bounded by and ``inn[i]`` those
    bounded by ``i``, one relation step each.  ``order`` is a topological
    order, every position before those it is bounded by, found by Kahn's
    algorithm; it is None when the relation has a cycle.  ``pos`` maps
    each key to its position.  The constructor takes the relation's
    ``pairs``, each once, with ``pairs[n]`` joining positions ``ends_a[n]``
    and ``ends_b[n]``, so it looks no key up; ends read from ``pos`` are
    its very int objects, so sets of positions find them by identity.  The
    other attributes are computed on first use and kept: ``depth``, the
    longest strict chain descending from each position; ``rank``, each
    position's place in key order; ``level``, whether the positions below
    each one share one depth; and ``inn_pairs``, the relation's own pair
    objects in the order of ``inn``.
    """

    def __init__(
        self,
        keys: list[ElementId],
        pos: dict[ElementId, int],
        pairs: Sequence[BoundedByPair],
        ends_a: Sequence[int],
        ends_b: Sequence[int],
    ):
        out: list[list[int]] = [[] for _ in keys]
        inn: list[list[int]] = [[] for _ in keys]
        for a, b in zip(ends_a, ends_b):
            out[a].append(b)
            inn[b].append(a)
        self.keys, self.pos, self.out, self.inn = keys, pos, out, inn
        order = _kahn(out)
        self.order = order if len(order) == len(keys) else None
        self._pairs, self._ends_b = pairs, ends_b

    @cached_property
    def depth(self) -> list[int] | None:
        """Chain lengths in steps by position; None when the relation has a
        cycle.  In a T0 space ``a`` strictly above ``c`` implies
        ``depth[a] > depth[c]``."""
        return None if self.order is None else _chain_lengths(self.out, self.order)

    @cached_property
    def rank(self) -> list[int]:
        """Each position's place in the sorted keys, so sorting positions by
        rank lists their keys in key order."""
        rank = [0] * len(self.keys)
        for r, i in enumerate(sorted(range(len(self.keys)), key=self.keys.__getitem__)):
            rank[i] = r
        return rank

    @cached_property
    def level(self) -> list[bool] | None:
        """Whether the positions each position is bounded by share one
        depth, so that none of them lies above another; None when the
        relation has a cycle."""
        depth = self.depth
        if depth is None:
            return None
        return [_one_depth(depth, below) for below in self.out]

    @cached_property
    def inn_pairs(self) -> list[list[BoundedByPair]]:
        """By position, the relation's pairs onto it, in the order of
        ``inn``: both lists come from one walk of the same pairs."""
        pairs: list[list[BoundedByPair]] = [[] for _ in self.keys]
        for p, b in zip(self._pairs, self._ends_b):
            pairs[b].append(p)
        return pairs


def _one_depth(depth: list[int], below: Collection[int]) -> bool:
    """Whether the positions ``below`` share one depth."""
    return len(below) < 2 or len(set(map(depth.__getitem__, below))) == 1


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


def _rank_masks(space: Space, ranks: Sequence[int]) -> tuple[list[int], list[int]]:
    """By index position: the bits ``1 << ranks[j]`` of every position ``j``
    at or below the position (down) and at or above it (up), filled along
    the Kahn order.  Raises ``T0ViolationError`` when the relation is
    cyclic."""
    idx = space.index
    order = _topological_order(space)
    down = [1 << r for r in ranks]
    up = down.copy()
    for i in reversed(order):
        for j in idx.out[i]:
            down[i] |= down[j]
    for i in order:
        for j in idx.inn[i]:
            up[i] |= up[j]
    return down, up


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
    if not space.elements.keys() >= ks:
        missing = [k for k in ks if k not in space.elements]
        raise NotFoundError(f"unknown element keys: {sorted(str(k) for k in missing)}")
    return ks


def _positions(space: Space, keys: Iterable[ElementId]) -> set[int]:
    """The index positions of ``keys``, which must all be in the space."""
    return set(map(space.index.pos.__getitem__, _require_keys(space, keys)))


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
    # bit i stands for position i of the index; bound_mask[j]: bits of all a
    # with (a, keys[j]) in R — they must accompany j
    keys = space.index.keys
    bound_mask = [sum(1 << i for i in above) for above in space.index.inn]
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


def _depth(space: Space) -> list[int]:
    """The index's chain lengths; raises ``T0ViolationError`` when cyclic."""
    depth = space.index.depth
    if depth is None:
        cycle = find_cycle(space)
        raise T0ViolationError(
            f"relation has a cycle through {cycle[-1]}; dimension is undefined",
            cycle=cycle,
        )
    return depth


def element_dimension(space: Space, x: ElementId) -> int:
    """Length in steps of the longest chain descending from ``x``."""
    _require_keys(space, [x])
    return _depth(space)[space.index.pos[x]]


def krull_dimension(space: Space) -> int:
    """Length of the longest strict chain in the space.

    A chain of k+1 pairwise-related distinct elements has length k.  Raises
    on the empty space and on cyclic relations, where no finite strict
    chain bound exists.
    """
    if not space.elements:
        raise EmptySpaceError("dimension of the empty space is undefined")
    return max(_depth(space))


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
    return _components(space.index, range(len(space)))


def components_within(space: Space, a_set: Iterable[ElementId]) -> tuple[frozenset[ElementId], ...]:
    """Connected components of the subspace on ``a_set``.

    Subspace connectedness is comparability-graph connectedness of the
    *restricted preorder*: two kept elements are adjacent when one is
    transitively bounded by the other in the ambient space, even when every
    intermediate element was dropped.  Linking each kept element to its
    nearest kept descendants and ancestors generates the same components.
    """
    return _components(space.index, _positions(space, a_set))


def is_connected(space: Space, a_set: Iterable[ElementId]) -> bool:
    """Whether the subspace on ``a_set`` is connected (empty: vacuously yes)."""
    kept = _positions(space, a_set)
    if not kept:
        return True
    walk = _component(space.index, kept, next(iter(kept)), (set(), set()))
    return sum(1 for _ in walk) == len(kept)
