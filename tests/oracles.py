"""Independent reference implementations used to cross-check the library.

Everything here recomputes results from first definitions — subset
enumeration, explicit path walking — or delegates to networkx.  None of it
reuses the library's algorithms, so agreement between the two routes is
meaningful.  The exceptions are ``time_slice_by_descendants``, which
hands its kept elements to the library's ``select_subspace`` (itself
checked against networkx), and the functions kept as earlier versions
of the library's own.  ``apply_changeset_by_rescans``,
``apply_changeset_by_rebuild`` and ``reconstruct_version_by_hulls``
assemble their result with the library's ``build_space``;
``commit_by_rebuild`` reconstructs its parent with the library and sorts
its rows by the library's ``VersionStore``; ``reconstruct_version_by_hulls``
and ``history_columns_by_rows`` take the library's version hulls (checked
against path enumeration); ``reconstruct_by_columns`` and
``history_rows_by_masks`` read the masks of ``history_columns_by_rows``,
not the library's history index, and test liveness with the library's
``_alive``; ``newest_by_descendants`` is the library's pick of a creation
as first written, on descendant masks; and ``telescope_by_closures`` takes
the library's level edge graph and reduction.  ``key_issues_by_rows`` and
``load_key_error_by_rows`` are the row-by-row key checks the library ran
before it checked keys on parsed columns.  ``filtered_region_answer_by_level_maps``
and ``map_findings_by_level_maps`` are the level-map routes ``storage``
took before it read the version space's own index: they build the level
subspaces, maps and domain subspaces with the library.
``linked_by_assembly`` is the linked space ``lod`` built before it read
a view of the space's index, assembled by the library's ``_assemble``.
``read_table_by_csv_reader`` is the table reader ``storage`` used for
every file before it split plain ones with ``str.split``; it takes the
schema from the library's ``_TABLES``.  ``export_summary_by_checkouts``
is the CLI's ``export`` summary as it was before it read its counts off
the history rows: it loads the store and reconstructs every version with
the library.
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


def apply_changeset_by_rebuild(space, changes):
    """``apply_changeset`` as it was before it derived the new space from
    the old one: the one-step neighbours of every element gathered when
    an element is removed, and the new space built anew by
    ``build_space``, its elements in the input's order and then the added
    ones in changeset order."""
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
    if changes.remove_elements:
        preds: dict = {k: set() for k in elements}
        succs: dict = {k: set() for k in elements}
        for p in rel:
            preds[p.idb].add(p.ida)
            succs[p.ida].add(p.idb)
        for x in sorted(changes.remove_elements):
            above, below = preds.pop(x), succs.pop(x)
            for y in above:
                succs[y].discard(x)
                rel.discard(BoundedByPair(y, x))
            for z in below:
                preds[z].discard(x)
                rel.discard(BoundedByPair(x, z))
            for y in above:
                for z in below - {y}:
                    rel.add(BoundedByPair(y, z))
                    succs[y].add(z)
                    preds[z].add(y)
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


def commit_by_rebuild(store, parent, changes, points=()):
    """``storage.commit`` as it was before it derived the child's space,
    rows and CSV lines from the parent's: the changeset applied by
    ``apply_changeset_by_rebuild``, the new rows appended to the parent's
    and every table sorted again by ``VersionStore``.  Recorded attributes
    are read from the rows.  The child's history index is left to be built
    from its rows."""
    from alexdb import (
        DuplicateKeyError,
        ElementId,
        ForeignKeyError,
        NotFoundError,
        StoreFormatError,
        VersionStore,
        reconstruct_version,
    )
    from alexdb.storage import AttRow, DelRRow, DelXRow, RRow, XRow

    v = changes.version
    if v in store.vx:
        raise DuplicateKeyError(f"version {v!r} already exists")
    if parent not in store.vx:
        raise NotFoundError(f"unknown parent version {parent!r}")
    base = reconstruct_version(store, parent)
    new_space = apply_changeset_by_rebuild(base, changes)
    bad = [(el.key, el.gen_target) for el in changes.add_elements]
    bad = [(k, t) for k, t in bad if t is not None and t not in new_space]
    bad += [
        (k, e.gen_target)
        for k, e in new_space.elements.items()
        if e.gen_target in changes.remove_elements
    ]
    if bad:
        k, t = min(bad)
        raise ForeignKeyError(
            f"element {k} would generalise to {t}, which is not in version {v!r}"
        )
    removed = sorted(changes.remove_elements)
    added = sorted(el.key for el in changes.add_elements)
    dropped = sorted(base.relation - new_space.relation)
    linked = sorted(new_space.relation - base.relation)

    new_x, new_atts = [], []
    for k in added:
        e = new_space.elements[k]
        gid, glod = e.gen_target or (None, None)
        new_x.append(XRow(k.id, k.lod, gid, glod, v))
        for name in sorted(e.attributes):
            new_atts.append(AttRow(k.id, k.lod, name, e.attributes[name]))
    recorded = {k: {w.name: w.value for w in store.atts if ElementId(w.id, w.lod) == k}
                for k in added}
    for a in new_atts:
        prior = recorded[a.id, a.lod].get(a.name)
        if prior is not None and prior != a.value:
            raise DuplicateKeyError(
                f"attribute {a.name!r} of ({a.id}, {a.lod}) already recorded as {prior!r}"
            )
    new_atts = [a for a in new_atts if a.name not in recorded[a.id, a.lod]]
    pts = list(store.point)
    have = {p.key for p in pts}
    for p in points:
        if p.key in have:
            raise DuplicateKeyError(f"coordinate row for {p.key} already exists")
        pts.append(p)
        have.add(p.key)
    rrows = []
    for p in linked:
        if p.ida.lod != p.idb.lod:
            raise StoreFormatError(
                f"pair {p} spans levels; stored pairs are per-level "
                f"(cross-level structure lives in the generalisation columns)"
            )
        rrows.append(RRow(p.ida.id, p.idb.id, p.ida.lod, v))
    return VersionStore(
        x=store.x + tuple(new_x),
        r=store.r + tuple(rrows),
        point=pts,
        delx=store.delx + tuple(DelXRow(k.id, k.lod, v) for k in removed),
        delr=store.delr + tuple(DelRRow(p.ida.id, p.idb.id, p.ida.lod, v) for p in dropped),
        vx=store.vx + (v,),
        vr=store.vr + ((parent, v),),
        atts=store.atts + tuple(new_atts),
    )


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
    stray = {k: tuple(a.items()) for k, a in atts.items() if k not in gens}
    return {"names": names, "ancestry": ancestry, "descendants": descendants,
            "elements": elements, "stray": stray, "pairs": pairs, "broken": broken}


def newest_by_descendants(inside: int, descendants: list, names: list) -> int:
    """``versioning._newest`` as first written, on descendant masks: the bit
    of a creation among ``inside`` with no other creation among its
    descendants, ties broken by the largest version name."""
    best = -1
    rest = inside
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        if inside & descendants[i] == low and (best < 0 or names[i] > names[best]):
            best = i
        rest ^= low
    return best


def reconstruct_by_columns(store, v: str):
    """``reconstruct_version`` read from the masks of
    ``history_columns_by_rows``, as the history index read its own before
    it kept built elements and rows: one Python test per column, and every
    live element built afresh on each call.  Nothing is read off the
    store's index."""
    from alexdb import Element, IntegrityError, NotFoundError
    from alexdb.topology import _assemble, _bits
    from alexdb.versioning import _alive

    columns = history_columns_by_rows(store)
    names, descendants = columns["names"], columns["descendants"]
    if v not in names:
        raise NotFoundError(f"unknown version {v!r}")
    ancestry = columns["ancestry"][names.index(v)]
    for subject, bad in columns["broken"]:
        hit = bad & ancestry
        if hit:
            first = min(names[i] for i in _bits(hit))
            raise IntegrityError(
                f"{subject} is deleted in {first!r} but created on no path before it"
            )
    els = {}
    for key, created, deleted, gen, atts in zip(*columns["elements"]):
        inside = created & ancestry
        if not inside:
            continue
        gone = deleted & ancestry
        if gone and not _alive(inside, gone, descendants):
            continue
        if inside & (inside - 1):
            c = newest_by_descendants(inside, descendants, names)
        else:
            c = inside.bit_length() - 1
        if type(gen) is dict:
            gen = gen[c]
        els[key] = Element(key, names[c], gen, dict(atts))
    pos = dict(zip(els, range(len(els))))
    pairs = []
    for pair, created, deleted in zip(*columns["pairs"]):
        inside = created & ancestry
        if not inside:
            continue
        gone = deleted & ancestry
        if gone and not _alive(inside, gone, descendants):
            continue
        pairs.append(pair)
    return _assemble(els, pos, pairs, [pos.get(a) for a, _ in pairs], [pos.get(b) for _, b in pairs])


def history_rows_by_masks(store) -> dict:
    """The rows of the store's ``HistoryIndex`` read off the masks of
    ``history_columns_by_rows``, one Python test per column and version as
    ``reconstruct_by_columns`` makes them: by version name, the element
    and pair rows as lists of 0 and 1 in column order, or None for a
    version whose ancestry deletes what it never created, where no row is
    read."""
    from alexdb.versioning import _alive

    columns = history_columns_by_rows(store)
    descendants = columns["descendants"]
    rows = {}
    for name, ancestry in zip(columns["names"], columns["ancestry"]):
        if any(bad & ancestry for _, bad in columns["broken"]):
            rows[name] = None
            continue
        rows[name] = tuple(
            [
                int(bool(c & ancestry) and _alive(c & ancestry, d & ancestry, descendants))
                for c, d in zip(created, deleted)
            ]
            for created, deleted in (columns["elements"][1:3], columns["pairs"][1:])
        )
    return rows


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
    from alexdb.lod import _edge_graph, _transitions
    from alexdb.topology import _topological_order, _walk

    gen = {
        BoundedByPair(k, e.gen_target) for k, e in base.elements.items() if e.gen_target is not None
    }
    augmented = build_space(base.elements.values(), base.relation | gen, t0_check=False)
    _topological_order(augmented)
    edge_graph = _edge_graph(base, _transitions(base))
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


def telescope_fiber_by_attributes(tele, edge_id: str):
    """``lod.telescope_fiber`` as first written: the copies whose
    ``lod_edge`` attribute names the node, found by reading every
    element of the telescope."""
    from alexdb.algebra import select_subspace
    from alexdb.errors import NotFoundError

    keys = [k for k, e in tele.elements.items() if e.attributes.get("lod_edge") == edge_id]
    if not keys:
        raise NotFoundError(f"no telescope fiber over {edge_id!r}")
    return select_subspace(tele, keys)


# ---------------------------------------------------------------------------
# the generalisation checks through level maps


def filtered_region_answer_by_level_maps(space, sub, a, b):
    """``versions_with_path``'s monotone filter for the region ``sub`` of
    a version space, as it ran on the level map: None when the filter does
    not apply (a region on more than one level, or a level that does not
    wholly generalise onto targets in the space), else the answer of the
    coarse query on the map's target, the preimage test on its source and
    the direct query on its source."""
    from alexdb.lod import _level_maps, path_query

    lods = {k.lod for k in sub}
    if len(lods) != 1:
        return None
    (lod,) = lods
    maps = [g for (source, _), g in _level_maps(space).items() if source == lod]
    if len(maps) != 1 or len(maps[0].source) != sum(k.lod == lod for k in space.elements):
        return None
    g = maps[0]
    keys = frozenset(sub)
    image_region = frozenset(g(k) for k in keys)
    if not path_query(g.target, image_region, g(a), g(b)):
        return False
    if frozenset(k for k in g.source.elements if g(k) in image_region) <= keys:
        return True
    return path_query(g.source, keys, a, b)


def linked_by_assembly(space):
    """The space with its generalisation pairs added to the relation, so
    levels connect through the generalisation map; not checked for T0.
    The positions are the space's own, and its pairs' ends are read off
    its index, so only the generalisation targets are looked up."""
    from itertools import chain

    from alexdb.algebra import _pair
    from alexdb.lod import _transitions
    from alexdb.topology import _assemble

    idx = space.index
    gen = [_pair(kt) for targets in _transitions(space).values() for kt in targets.items()]
    ends = list(map(idx.pos.get, chain.from_iterable(gen)))
    return _assemble(
        space.elements,
        idx.pos,
        list(chain.from_iterable(idx.inn_pairs)) + gen,
        list(chain.from_iterable(idx.inn)) + ends[0::2],
        [b for b, above in enumerate(idx.inn) for _ in above] + ends[1::2],
        t0_check=False,
    )


def versions_with_path_by_level_maps(store, a, b, region, monotonic: bool):
    """``versions_with_path`` with the filter above, and else the direct
    query on the space linked across levels (``linked_by_assembly``)."""
    from alexdb.lod import path_query
    from alexdb.versioning import reconstruct_version

    hits = []
    for v in sorted(store.vx):
        space = reconstruct_version(store, v)
        if a not in space or b not in space:
            continue
        sub = frozenset(region) & space.keys()
        answer = filtered_region_answer_by_level_maps(space, sub, a, b) if monotonic else None
        if answer is None:
            answer = path_query(linked_by_assembly(space), sub, a, b)
        if answer:
            hits.append(v)
    return frozenset(hits)


def map_findings_by_level_maps(space, rules) -> list:
    """The generalisation findings ``validate`` reports on one version
    space, as ``(rule, detail, witnesses)`` in its order, found through
    ``restrict_map`` and the level maps: each dangling target, then the
    continuity witness of the map restricted to its domain subspace, then
    per rule in the order named the missed targets or the disconnected
    preimages of each level map."""
    from alexdb.algebra import SpaceMap, check_map, restrict_map
    from alexdb.lod import _level_maps
    from alexdb.topology import _rank_masks

    found = []
    gen = {k: e.gen_target for k, e in space.elements.items() if e.gen_target is not None}
    for k in sorted(x for x, t in gen.items() if t not in space):
        t = gen.pop(k)
        found.append(
            ("cfk-generalisation", f"element {k} generalises to {t}, which is not in the version",
             (k, t))
        )
    if gen:
        f = restrict_map(SpaceMap(space, space, gen))
        pos = f.target.index.pos
        below = _rank_masks(f.target, range(len(pos)))[0]
        keys = f.source.index.keys
        img = [pos[f.mapping[k]] for k in keys]
        bad = [
            (keys[i], keys[j])
            for i, outs in enumerate(f.source.index.out)
            for j in outs
            if img[i] != img[j] and not below[img[i]] >> img[j] & 1
        ]
        if bad:
            witness = min(bad)
            found.append(("cfk-continuity", f"generalisation map discontinuous at {witness}", witness))
    maps = _level_maps(space)

    def finding(rule, transition, what, missed):
        a, b = transition
        detail = f"levels {a}->{b}: {what} {sorted(str(k) for k in missed)}"
        return (rule, detail, tuple(sorted(missed)))

    for rule in rules:
        for t, g in maps.items():
            if rule == "surjective":
                missed = g.target.keys() - set(g.mapping.values())
                if missed:
                    found.append(finding(rule, t, "targets missed:", missed))
            else:
                report = check_map(g)
                if not report.monotonic:
                    found.append(
                        finding(rule, t, "disconnected preimage of", report.monotonicity_witness)
                    )
    return found


# ---------------------------------------------------------------------------
# store keys, row by row


def _key_row_getters():
    """The store schema's keys as row getters, as ``storage`` declared them
    before it checked keys on columns: by table, the ``VersionStore`` field
    and the key of a row (None: the whole row); and the fourteen foreign
    keys as (table, subject, referenced keys, key of a row, text template
    over the row ``w``), by table, and within a table in report order."""
    from operator import attrgetter, itemgetter

    tables = {
        "X": ("x", attrgetter("id", "lod", "version")),
        "R": ("r", None),
        "Point": ("point", attrgetter("key")),
        "DelX": ("delx", None),
        "DelR": ("delr", None),
        "VX": ("vx", None),
        "VR": ("vr", None),
        "Atts": ("atts", attrgetter("id", "lod", "name")),
    }
    version = attrgetter("version")
    foreign = [
        ("X", "X.version→VX", "VX", version, "X row {w} names unknown version"),
        ("X", "X.(gid,glod)→X", "X", attrgetter("gid", "glod"),
         "X row {w} generalises to unknown element ({w.gid}, {w.glod})"),
        ("R", "R.ida→X", "X", attrgetter("ida", "lod"), "R row {w} references unknown ida"),
        ("R", "R.idb→X", "X", attrgetter("idb", "lod"), "R row {w} references unknown idb"),
        ("R", "R.version→VX", "VX", version, "R row {w} names unknown version"),
        ("Point", "Point.pid→X", "X", attrgetter("key"),
         "Point row for {w.key} references unknown element"),
        ("DelX", "DelX.id→X", "X", attrgetter("id", "lod"),
         "DelX row {w} references unknown element"),
        ("DelX", "DelX.version→VX", "VX", version, "DelX row {w} names unknown version"),
        ("DelR", "DelR.ida→X", "X", attrgetter("ida", "lod"),
         "DelR row {w} references unknown ida"),
        ("DelR", "DelR.idb→X", "X", attrgetter("idb", "lod"),
         "DelR row {w} references unknown idb"),
        ("DelR", "DelR.version→VX", "VX", version, "DelR row {w} names unknown version"),
        ("VR", "VR.fromv→VX", "VX", itemgetter(0),
         "VR row ({w[0]}, {w[1]}) names unknown source version"),
        ("VR", "VR.tov→VX", "VX", itemgetter(1),
         "VR row ({w[0]}, {w[1]}) names unknown target version"),
        ("Atts", "Atts.id→X", "X", attrgetter("id", "lod"),
         "Atts row {w} references unknown element"),
    ]
    return tables, foreign


def key_issues_by_rows(tables: dict) -> list:
    """The duplicate-key and foreign-key findings of ``validate`` for the
    rows of ``tables`` (by ``VersionStore`` field, in any order), as
    ``storage`` found them before it checked keys on columns: each table is
    sorted by its key, every row's key is compared with its neighbour's,
    and every reference of every row is looked up, one row at a time."""
    from alexdb.storage import ValidationIssue

    schema, foreign = _key_row_getters()
    rows = {}
    issues = []
    for name, (field, key) in schema.items():
        key = key or (lambda w: w)
        rows[name] = sorted(tables.get(field, ()), key=key)
        for before, w in zip(rows[name], rows[name][1:]):
            if key(w) == key(before):
                k = key(w) if type(key(w)) is str else tuple(key(w))
                issues.append(
                    ValidationIssue("duplicate-row", name, f"{name}: duplicate key {k}", (k,))
                )
    known = {
        "X": {(w.id, w.lod) for w in rows["X"]} | {(None, None)},
        "VX": set(rows["VX"]),
    }
    found = []
    for name in schema:
        for w in rows[name]:
            for table, subject, refs, key, detail in foreign:
                if table == name and key(w) not in known[refs]:
                    found.append(
                        ValidationIssue("foreign-key", subject, detail.format(w=w), (w,))
                    )
    return issues + found


def load_key_error_by_rows(tables: dict):
    """What ``load`` raises for the rows of ``tables`` (by field, in file
    order), which parse, as ``(error type, text)``, or None: when some
    table's keys do not rise strictly, its duplicate keys, as a
    ``DuplicateKeyError``; then its broken references, as a
    ``ForeignKeyError``.  The findings are joined by "; "."""
    from alexdb import DuplicateKeyError, ForeignKeyError

    issues = key_issues_by_rows(tables)
    for rule, error in (("duplicate-row", DuplicateKeyError), ("foreign-key", ForeignKeyError)):
        details = [i.detail for i in issues if i.rule == rule]
        if details:
            return error, "; ".join(details)
    return None


# ---------------------------------------------------------------------------
# reading a table, and the export summary


def read_table_by_csv_reader(directory, name: str) -> list:
    """The parsed columns of table ``name``, in header order, from its CSV
    file in ``directory``, read by ``csv.reader`` row by row, as
    ``storage._read_table`` read every file before it split plain ones
    with ``str.split``; or the ``StoreFormatError`` it raised: a missing or
    unreadable file, text that is not UTF-8 or not CSV, a wrong header, a
    row of a wrong width, then the first field its column's parser
    rejects, row by row."""
    import csv
    from operator import not_

    from alexdb import StoreFormatError
    from alexdb.storage import _EXPECTED, _TABLES

    t = _TABLES[name]
    fpath = directory / t.file
    try:
        with open(fpath, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except FileNotFoundError:
        raise StoreFormatError(f"missing store file {fpath}") from None
    except IsADirectoryError:
        raise StoreFormatError(f"{fpath}: a directory, not a table file") from None
    except UnicodeDecodeError as exc:
        raise StoreFormatError(f"{fpath}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise StoreFormatError(f"{fpath}:{reader.line_num}: {exc}") from None
    if not rows or rows[0] != t.header:
        got = rows[0] if rows else []
        raise StoreFormatError(f"{fpath}: expected header {t.header}, got {got}")
    width = len(t.header)
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise StoreFormatError(f"{fpath}:{i}: expected {width} fields, got {len(row)}")
    rows = rows[1:]
    columns = list(zip(*rows)) or [()] * width
    try:
        if name == "X" and list(map(not_, columns[2])) != list(map(not_, columns[3])):
            raise ValueError
        return [
            [t.parse[c](raw) for raw in col] if c in t.parse else col
            for c, col in zip(t.header, columns)
        ]
    except ValueError:
        pass
    for row in rows:
        if name == "X" and (row[2] == "") != (row[3] == ""):
            raise StoreFormatError(
                f"X.csv: generalisation columns must be both set or both empty in {row}"
            )
        for column, raw in zip(t.header, row):
            try:
                t.parse.get(column, str)(raw)
            except ValueError:
                expected = _EXPECTED[t.parse[column]]
                raise StoreFormatError(
                    f"{name}.{column}: expected {expected}, got {raw!r}"
                ) from None
    raise AssertionError("a column failed to parse, but no field does")


def export_summary_by_checkouts(path) -> tuple[int, str, str]:
    """What ``alexdb export PATH`` wrote before it read its counts off the
    history rows, as ``(exit code, stdout, stderr)``: the store's row
    counts, then each version in name order with the number of elements
    and pairs of its space, reconstructed with the library's
    ``reconstruct_version``; a domain error ends the output with one
    ``error:`` line on stderr and exit code 1."""
    from alexdb import AlexdbError, load
    from alexdb.versioning import reconstruct_version

    out = []
    try:
        store = load(path)
        out.append(
            f"store: {len(store.vx)} versions, {len(store.x)} element rows, "
            f"{len(store.r)} pair rows, {len(store.point)} coordinate rows\n"
        )
        for v in store.vx:
            space = reconstruct_version(store, v)
            out.append(f"  {v}: {len(space.elements)} elements, {len(space.relation)} pairs\n")
    except AlexdbError as exc:
        return 1, "".join(out), f"error: {exc}\n"
    return 0, "".join(out), ""
