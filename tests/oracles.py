"""Independent reference implementations used to cross-check the library.

Everything here recomputes results from first definitions — subset
enumeration, explicit path walking — or delegates to networkx.  None of it
reuses the library's algorithms, so agreement between the two routes is
meaningful.  The exceptions are ``time_slice_by_descendants``, which
hands its kept elements to the library's ``select_subspace`` (itself
checked against networkx), and the four functions kept as first written,
``apply_changeset_by_rescans``, ``reconstruct_version_by_hulls``,
``history_columns_by_rows`` and ``telescope_by_closures``: the first two
assemble their result with the library's ``build_space``, the next two
take the library's version hulls (checked against path enumeration), and
the last takes the library's level graph and reduction.
"""
from __future__ import annotations

import math
from itertools import combinations
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


def subspace_pairs(space, keep) -> frozenset | None:
    """The reduced relation of the subspace on ``keep``: the ambient preorder
    restricted to ``keep``, then reduced.  None when the restriction is
    cyclic, so that no reduction exists."""
    closure = transitive_closure_pairs(list(space.keys()), [(p.ida, p.idb) for p in space.relation])
    kept = {(a, b) for a, b in closure if a in keep and b in keep and a != b}
    if any((b, a) in kept for a, b in kept):
        return None
    return transitive_reduction_pairs(keep, kept)


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
    named.  A nan time, as the slice value or on a vertex, is refused
    first."""
    from alexdb import MissingGeometryError, select_subspace

    if math.isnan(t):
        raise MissingGeometryError("cannot slice at time nan")
    pts = {p.key: p for p in points}
    graph = digraph(list(space.keys()), [(p.ida, p.idb) for p in space.relation])
    nan = [
        k for k in space.keys() if graph.out_degree(k) == 0 and k in pts and math.isnan(pts[k].t)
    ]
    if nan:
        raise MissingGeometryError(f"vertex {min(nan)} has time coordinate nan")
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


def monotonicity_conditions(f):
    """``(split, unrealized)`` for a total map between T0 spaces: the target
    keys whose fibre is disconnected in the source, and the linked target
    pairs (two-element frozensets) that no comparable pair of elements of
    their fibres realizes.  Two targets with nonempty fibres are linked when
    they are comparable or both comparable with one connected component of
    the targets with empty fibres.  The map is monotone exactly when both
    are empty.

    Orders, components and connectivity come from networkx; reachability is
    one bit per node, or per target for the images of a source hull, filled
    along a networkx topological order, so a chain of thousands stays cheap.
    """
    src = digraph(f.source.keys(), [(p.ida, p.idb) for p in f.source.relation])
    tgt = digraph(f.target.keys(), [(p.ida, p.idb) for p in f.target.relation])
    targets = list(tgt)
    bit = {t: 1 << i for i, t in enumerate(targets)}

    def hulls(g, bits):
        """Bits of every node at or below, and at or above, each node."""
        order = list(nx.topological_sort(g))
        down, up = dict(bits), dict(bits)
        for x in reversed(order):
            for y in g.successors(x):
                down[x] |= down[y]
        for x in order:
            for y in g.predecessors(x):
                up[x] |= up[y]
        return down, up

    tdown, tup = hulls(tgt, bit)
    comparable = {t: tdown[t] | tup[t] for t in targets}
    fibres = {t: [] for t in targets}
    for x in src:
        fibres[f(x)].append(x)

    # (a): each fibre connected under the comparability of the source
    below, _ = hulls(src, {x: 1 << i for i, x in enumerate(src)})
    node_bit = {x: 1 << i for i, x in enumerate(src)}
    split = set()
    for t, members in fibres.items():
        g = nx.Graph()
        g.add_nodes_from(members)
        g.add_edges_from(
            (x, y)
            for x, y in combinations(members, 2)
            if below[x] & node_bit[y] or below[y] & node_bit[x]
        )
        if members and not nx.is_connected(g):
            split.add(t)

    # (b): linked pairs realized by comparable elements of their fibres
    filled = sum(bit[t] for t, members in fibres.items() if members)
    linked = {t: comparable[t] & filled for t in targets if fibres[t]}
    empty = nx.Graph()
    empty.add_nodes_from(t for t in targets if not fibres[t])
    empty.add_edges_from((a, b) for a, b in combinations(empty, 2) if comparable[a] & bit[b])
    for component in nx.connected_components(empty):
        ends = 0
        for e in component:
            ends |= comparable[e] & filled
        for t in linked:
            if ends & bit[t]:
                linked[t] |= ends
    sdown, sup = hulls(src, {x: bit[f(x)] for x in src})
    unrealized = set()
    for t, link in linked.items():
        realized = 0
        for x in fibres[t]:
            realized |= sdown[x] | sup[x]
        bad = link & ~realized
        while bad:
            low = bad & -bad
            unrealized.add(frozenset({t, targets[low.bit_length() - 1]}))
            bad ^= low
    return frozenset(split), frozenset(unrealized)


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


# ---------------------------------------------------------------------------
# changesets and reconstruction as first written


def apply_changeset_by_rescans(space, changes):
    """``apply_changeset`` as first written: each removed element's
    predecessors and successors found by a scan of the whole relation."""
    from alexdb import (
        BoundedByPair,
        DuplicateKeyError,
        Element,
        NotFoundError,
        build_space,
    )

    missing = changes.remove_elements - space.keys()
    if missing:
        raise NotFoundError(f"cannot remove unknown elements: {sorted(str(k) for k in missing)}")
    elements = dict(space.elements)
    rel = set(space.relation)
    for x in sorted(changes.remove_elements):
        preds = {p.ida for p in rel if p.idb == x}
        succs = {p.idb for p in rel if p.ida == x}
        rel = {p for p in rel if x not in (p.ida, p.idb)}
        rel |= {BoundedByPair(y, z) for y in preds for z in succs if y != z}
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


def _liveness(creations, deletions, ancestry, descendants):
    """Items with a creation in ``ancestry`` not followed there by a deletion."""
    live = set()
    for item, created in creations.items():
        dels = {d for d in deletions.get(item, ()) if d in ancestry}
        for r in created:
            if r not in ancestry:
                continue
            if not any(d in descendants[r] for d in dels):
                live.add(item)
                break
    return live


def _pick_creation(created, ancestry, descendants) -> str:
    """Deterministic creation row choice: a maximal one, ties lexicographic."""
    inside = sorted(r for r in created if r in ancestry)
    maximal = [
        r
        for r in inside
        if not any(other != r and other in descendants[r] for other in inside)
    ]
    return max(maximal)


def reconstruct_version_by_hulls(store, v: str):
    """``reconstruct_version`` as first written: the hulls of every version
    and the rows grouped afresh on each call.  Deletions of one subject are
    checked in version order and the live pairs are handed on in canonical
    row order, so an ``IntegrityError`` or a ``DanglingPairError`` names
    the first offending row in canonical order."""
    from alexdb import (
        BoundedByPair,
        Element,
        ElementId,
        IntegrityError,
        NotFoundError,
        VersionSpace,
        build_space,
        version_closure,
        version_star,
    )

    vs = VersionSpace(frozenset(store.vx), frozenset(store.vr))
    if v not in vs.versions:
        raise NotFoundError(f"unknown version {v!r}")
    ancestry = version_star(vs, v)
    descendants = {tok: version_closure(vs, [tok]) for tok in vs.versions}

    el_created: dict = {}
    row_for: dict = {}
    for row in store.x:
        key = ElementId(row.id, row.lod)
        el_created.setdefault(key, set()).add(row.version)
        row_for[(key, row.version)] = row
    el_deleted: dict = {}
    for row in store.delx:
        el_deleted.setdefault(ElementId(row.id, row.lod), set()).add(row.version)

    for key, dels in el_deleted.items():
        for d in sorted(dels):
            if d not in ancestry:
                continue
            created = el_created.get(key, set())
            if not any(d in descendants[r] for r in created):
                raise IntegrityError(
                    f"element {key} is deleted in {d!r} but created on no path before it"
                )

    live_keys = _liveness(el_created, el_deleted, ancestry, descendants)

    atts: dict = {}
    for row in store.atts:
        atts.setdefault(ElementId(row.id, row.lod), {})[row.name] = row.value

    els = []
    for key in sorted(live_keys):
        r = _pick_creation(el_created[key], ancestry, descendants)
        xrow = row_for[(key, r)]
        gen = ElementId(xrow.gid, xrow.glod) if xrow.gid is not None else None
        els.append(Element(key=key, version=r, gen_target=gen, attributes=atts.get(key, {})))

    pr_created: dict = {}
    for row in store.r:
        p = BoundedByPair(ElementId(row.ida, row.lod), ElementId(row.idb, row.lod))
        pr_created.setdefault(p, set()).add(row.version)
    pr_deleted: dict = {}
    for row in store.delr:
        p = BoundedByPair(ElementId(row.ida, row.lod), ElementId(row.idb, row.lod))
        pr_deleted.setdefault(p, set()).add(row.version)
    for p, dels in pr_deleted.items():
        for d in sorted(dels):
            if d not in ancestry:
                continue
            if not any(d in descendants[r] for r in pr_created.get(p, set())):
                raise IntegrityError(
                    f"pair {p} is deleted in {d!r} but created on no path before it"
                )
    live_pairs = _liveness(pr_created, pr_deleted, ancestry, descendants)

    return build_space(
        els, sorted(live_pairs, key=lambda p: (p.ida.id, p.idb.id, p.ida.lod)), t0_check=True
    )


def history_columns_by_rows(store) -> dict:
    """The columns of ``HistoryIndex`` as first written: every row object
    walked once more, grouped by key in dicts and each key interned on the
    way."""
    from alexdb import BoundedByPair, ElementId

    def masks(rows, bit):
        out: dict = {}
        for subject, version in rows:
            b = bit.get(version)
            if b is not None:
                out[subject] = out.get(subject, 0) | 1 << b
        return out

    def uncreated(created, deleted, ancestry):
        bad = 0
        for i in range(deleted.bit_length()):
            if deleted >> i & 1 and not created & ancestry[i]:
                bad |= 1 << i
        return bad

    idx = store.version_space().as_space().index
    names = [k.id for k in idx.keys]
    bit = {name: i for i, name in enumerate(names)}
    ancestry = [1 << i for i in range(len(names))]
    descendants = list(ancestry)
    for i in idx.order:
        for j in idx.out[i]:
            ancestry[j] |= ancestry[i]
    for i in reversed(idx.order):
        for j in idx.out[i]:
            descendants[i] |= descendants[j]

    interned: dict = {}

    def key(columns):
        k = interned.get(columns)
        if k is None:
            k = interned[columns] = ElementId(*columns)
        return k

    gens: dict = {}
    for w in store.x:
        b = bit.get(w.version)
        if b is not None:
            gen = key((w.gid, w.glod)) if w.gid is not None else None
            gens.setdefault((w.id, w.lod), {})[b] = gen
    atts: dict = {}
    for w in store.atts:
        atts.setdefault((w.id, w.lod), {})[w.name] = w.value
    el_created = {k: sum(1 << b for b in by_bit) for k, by_bit in gens.items()}
    el_deleted = masks((((w.id, w.lod), w.version) for w in store.delx), bit)
    elements = (
        [key(k) for k in gens],
        list(el_created.values()),
        [el_deleted.get(k, 0) for k in gens],
        [next(iter(g.values())) if len(g) == 1 else g for g in gens.values()],
        [tuple(atts[k].items()) if k in atts else () for k in gens],
    )
    pr_created = masks((((w.ida, w.idb, w.lod), w.version) for w in store.r), bit)
    pr_deleted = masks((((w.ida, w.idb, w.lod), w.version) for w in store.delr), bit)
    pairs = (
        [BoundedByPair(key((a, lod)), key((b, lod))) for a, b, lod in pr_created],
        list(pr_created.values()),
        [pr_deleted.get(columns, 0) for columns in pr_created],
    )
    broken = []
    for created, deleted, subject in (
        (el_created, el_deleted, lambda i, lod: f"element {ElementId(i, lod)}"),
        (pr_created, pr_deleted,
         lambda a, b, lod: f"pair {BoundedByPair(ElementId(a, lod), ElementId(b, lod))}"),
    ):
        for columns, mask in deleted.items():
            bad = uncreated(created.get(columns, 0), mask, ancestry)
            if bad:
                broken.append((subject(*columns), bad))
    return {"names": names, "ancestry": ancestry, "descendants": descendants,
            "elements": elements, "pairs": pairs, "broken": broken}


# ---------------------------------------------------------------------------
# the telescope as first written


def telescope_by_closures(base, edge_matching: bool = True):
    """``lod._telescope`` as first written: the space is linked across
    levels by its generalisation pairs, each match walks its whole down-set
    in the linked space and in the level edge graph, every match below it
    becomes a candidate pair, and the candidates are reduced.  It takes the
    edge graph and the reduction from the library."""
    from alexdb import BoundedByPair, Element, build_space
    from alexdb.algebra import _reduction, product_key
    from alexdb.lod import _lod_graph
    from alexdb.topology import _topological_order, _walk

    gen = {
        BoundedByPair(k, e.gen_target) for k, e in base.elements.items() if e.gen_target is not None
    }
    augmented = build_space(base.elements.values(), base.relation | gen, t0_check=False)
    _topological_order(augmented)
    _, edge_graph = _lod_graph(base)
    aug, edges = augmented.index, edge_graph.index
    nodes: dict = {}
    for w in sorted(edge_graph.elements):
        attrs = edge_graph.elements[w].attributes
        if edge_matching or attrs["lod"] == attrs["glod"]:
            nodes.setdefault(attrs["lod"], []).append(edges.pos[w])
    matches = [(aug.pos[k], w) for k in sorted(augmented.elements) for w in nodes.get(k.lod, ())]
    number = {m: i for i, m in enumerate(matches)}
    below_w = [_walk(edges.out, [w]) for w in range(len(edges.keys))]
    below_a: dict = {}
    succ = []
    for i, (a, w) in enumerate(matches):
        if a not in below_a:
            below_a[a] = _walk(aug.out, [a])
        found = (number.get((b, x)) for b in below_a[a] for x in below_w[w])
        succ.append([j for j in found if j is not None and j != i])
    keys = [product_key(aug.keys[a], edges.keys[w]) for a, w in matches]
    els = []
    for key, (a, w) in zip(keys, matches):
        e = augmented.elements[aug.keys[a]]
        attributes = {**e.attributes, "lod_edge": edges.keys[w].id}
        els.append(Element(key=key, version=e.version, attributes=attributes))
    return build_space(els, _reduction(keys, succ), t0_check=False)
