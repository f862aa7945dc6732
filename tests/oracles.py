"""Independent reference implementations used to cross-check the library.

Everything here recomputes results from first definitions — subset
enumeration, explicit path walking — or delegates to networkx.  None of it
reuses the library's algorithms, so agreement between the two routes is
meaningful.  The one exception is ``time_slice_by_descendants``, which
hands its kept elements to the library's ``select_subspace`` (itself
checked against networkx).
"""
from __future__ import annotations

from typing import Iterable

import networkx as nx


# ---------------------------------------------------------------------------
# topology from the defining condition


def open_family(keys, pairs) -> set[frozenset]:
    """All open sets by brute force: A is open iff it is closed downward
    under bounded-by, i.e. whenever (a, b) is a pair and b is in A, a is
    in A too."""
    keys = sorted(keys)
    pairs = list(pairs)
    family = set()
    for mask in range(1 << len(keys)):
        subset = frozenset(k for i, k in enumerate(keys) if mask >> i & 1)
        if all(a in subset for a, b in pairs if b in subset):
            family.add(subset)
    return family


def closed_family(keys, opens) -> set[frozenset]:
    whole = frozenset(keys)
    return {whole - o for o in opens}


def smallest_open_superset(opens, a_set) -> frozenset:
    a = frozenset(a_set)
    candidates = [o for o in opens if a <= o]
    best = frozenset.intersection(*candidates)
    assert best in opens, "intersection of opens must be open"
    return best


def smallest_closed_superset(keys, opens, a_set) -> frozenset:
    a = frozenset(a_set)
    candidates = [c for c in closed_family(keys, opens) if a <= c]
    best = frozenset.intersection(*candidates)
    assert best in closed_family(keys, opens)
    return best


def is_connected_subset(opens, subset) -> bool:
    """No splitting of the subset into two nonempty relatively open parts."""
    subset = frozenset(subset)
    if not subset:
        return True
    relative = {o & subset for o in opens}
    return not any(u and u != subset and (subset - u) in relative for u in relative)


# ---------------------------------------------------------------------------
# graph oracles (networkx)


def digraph(keys, pairs) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(keys)
    g.add_edges_from(pairs)
    return g


def transitive_closure_pairs(keys, pairs) -> frozenset:
    g = nx.transitive_closure(digraph(keys, pairs), reflexive=False)
    return frozenset(g.edges())


def transitive_reduction_pairs(keys, pairs) -> frozenset:
    return frozenset(nx.transitive_reduction(digraph(keys, pairs)).edges())


def longest_chain_steps(keys, pairs) -> int:
    """Exhaustive longest-path search over the bounded-by DAG."""
    out: dict = {k: [] for k in keys}
    for a, b in pairs:
        out[a].append(b)

    def deepest(node, seen) -> int:
        best = 0
        for nxt in out[node]:
            if nxt not in seen:
                best = max(best, 1 + deepest(nxt, seen | {nxt}))
        return best

    return max((deepest(k, {k}) for k in keys), default=0)


def spaces_homeomorphic(a, b) -> bool:
    """Finite spaces are homeomorphic iff their preorders are isomorphic."""
    ga = nx.transitive_closure(
        digraph(list(a.keys()), [(p.ida, p.idb) for p in a.relation]), reflexive=False
    )
    gb = nx.transitive_closure(
        digraph(list(b.keys()), [(p.ida, p.idb) for p in b.relation]), reflexive=False
    )
    return nx.is_isomorphic(ga, gb)


def time_slice_by_descendants(space, points, t: float):
    """``time_slice`` as first written: each element's life interval from its
    full descendant set (networkx here, the all-pairs preorder then), in
    sorted key order, so the first element without geometry is the one
    named."""
    from alexdb import MissingGeometryError, select_subspace

    pts = {p.key: p for p in points}
    graph = digraph(list(space.keys()), [(p.ida, p.idb) for p in space.relation])
    kept = []
    for k in sorted(space.keys()):
        below = nx.descendants(graph, k) | {k}
        times = [pts[v].t for v in below if graph.out_degree(v) == 0 and v in pts]
        if not times:
            raise MissingGeometryError(
                f"element {k} has no closure vertex with a coordinate row"
            )
        tmin, tmax = min(times), max(times)
        if (tmin < t < tmax) or (tmin == t == tmax):
            kept.append(k)
    return select_subspace(space, kept)


# ---------------------------------------------------------------------------
# continuity via open preimages


def open_preimage_continuous(f) -> bool:
    """Continuity checked directly against the defining property."""
    source_opens = open_family(
        list(f.source.keys()), [(p.ida, p.idb) for p in f.source.relation]
    )
    target_opens = open_family(
        list(f.target.keys()), [(p.ida, p.idb) for p in f.target.relation]
    )
    for u in target_opens:
        preimage = frozenset(k for k in f.source.keys() if f(k) in u)
        if preimage not in source_opens:
            return False
    return True


def continuity_witness_by_paths(f):
    """First source pair, in sorted order, whose images are distinct and
    not joined by a directed target path; None when there is none."""
    target = digraph(list(f.target.keys()), [(p.ida, p.idb) for p in f.target.relation])
    for p in sorted(f.source.relation):
        fa, fb = f(p.ida), f(p.idb)
        if fa != fb and not nx.has_path(target, fa, fb):
            return (p.ida, p.idb)
    return None


def monotonicity_by_opens(f, subsets=None):
    """``(monotonic, witness)`` from the defining property: the first target
    subset that is connected (no split into two relatively open parts) but
    whose preimage is not.  ``subsets`` defaults to every nonempty subset in
    bitmask order over the sorted target keys; only its connected members
    are tested."""
    source_opens = open_family(
        list(f.source.keys()), [(p.ida, p.idb) for p in f.source.relation]
    )
    target_opens = open_family(
        list(f.target.keys()), [(p.ida, p.idb) for p in f.target.relation]
    )
    if subsets is None:
        keys = sorted(f.target.keys())
        subsets = (
            frozenset(k for i, k in enumerate(keys) if m >> i & 1)
            for m in range(1, 1 << len(keys))
        )
    for subset in subsets:
        if not is_connected_subset(target_opens, subset):
            continue
        preimage = frozenset(k for k in f.source.keys() if f(k) in subset)
        if not is_connected_subset(source_opens, preimage):
            return False, frozenset(subset)
    return True, None


# ---------------------------------------------------------------------------
# version DAGs by explicit path enumeration


def _reaches(out: dict, start, goal) -> bool:
    """Is there a directed path start -> ... -> goal, walking simple paths."""
    if start == goal:
        return True
    stack = [(start, frozenset({start}))]
    while stack:
        node, seen = stack.pop()
        for nxt in out.get(node, ()):
            if nxt == goal:
                return True
            if nxt not in seen:
                stack.append((nxt, seen | {nxt}))
    return False


def ancestors_by_paths(nodes, edges, v) -> frozenset:
    out: dict = {}
    for a, b in edges:
        out.setdefault(a, []).append(b)
    return frozenset(x for x in nodes if _reaches(out, x, v))


def descendants_by_paths(nodes, edges, v) -> frozenset:
    return ancestors_by_paths(nodes, [(b, a) for a, b in edges], v)


def covers_by_paths(nodes, edges, v0_set, v, w_set) -> bool:
    """The reconstruction criterion recomputed by walking paths."""
    window = ancestors_by_paths(nodes, edges, v)
    history = frozenset()
    for x in v0_set:
        history |= descendants_by_paths(nodes, edges, x)
    between = window & history
    covered: frozenset = frozenset()
    for w in w_set:
        covered |= ancestors_by_paths(nodes, edges, w)
        covered |= descendants_by_paths(nodes, edges, w)
    return between <= covered
