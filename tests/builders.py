"""Deterministic random generators shared by the tests.

All builders take an explicit ``random.Random`` so every test run draws the
same corpus.
"""
from __future__ import annotations

import random
import string

from alexdb import (
    AlexdbError,
    BoundedByPair,
    Element,
    ElementId,
    PointRow,
    Space,
    SpaceMap,
    build_space,
    changeset,
    commit,
    new_store,
    simple_space,
)
from alexdb.storage import (
    DelRRow,
    DelXRow,
    RRow,
    VersionStore,
)
from alexdb.versioning import apply_changeset, reconstruct_version


def random_space(rng: random.Random, max_n: int = 8, p: float = 0.3, prefix: str = "e") -> Space:
    """A random T0 space: forward edges over an ordered element list."""
    n = rng.randint(1, max_n)
    keys = [f"{prefix}{i}" for i in range(n)]
    pairs = [
        (keys[i], keys[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return simple_space(keys, pairs)


def random_subset(rng: random.Random, space: Space, may_be_empty: bool = True) -> frozenset:
    keys = sorted(space.keys())
    chosen = [k for k in keys if rng.random() < 0.5]
    if not chosen and not may_be_empty:
        chosen = [rng.choice(keys)]
    return frozenset(chosen)


def random_total_map(rng: random.Random, source: Space, target: Space) -> SpaceMap:
    targets = sorted(target.keys())
    mapping = {k: rng.choice(targets) for k in source.keys()}
    return SpaceMap(source, target, mapping)


def cluster_map(rng: random.Random, max_coarse: int = 4, max_cluster: int = 3) -> SpaceMap:
    """A monotone, continuous, surjective map built by construction.

    Each coarse element is expanded into a chain of fine elements; every
    coarse pair becomes one fine pair, from the bottom of one chain to the
    top of the other.  Mapping each chain back onto its coarse element is
    then continuous (pairs land on pairs), surjective (chains are nonempty)
    and monotone (preimages glue exactly like the coarse elements they came
    from: a coarse path runs down through each chain it passes, so every
    comparable coarse pair has comparable fine elements).
    """
    coarse = random_space(rng, max_coarse, p=0.4, prefix="c")
    coarse_keys = sorted(coarse.keys())
    fine_keys: dict = {}
    fine_pairs = []
    for c in coarse_keys:
        size = rng.randint(1, max_cluster)
        chain = [ElementId(f"{c.id}f{i}") for i in range(size)]
        fine_keys[c] = chain
        fine_pairs += [
            BoundedByPair(chain[i], chain[i + 1]) for i in range(size - 1)
        ]
    for pair in coarse.relation:
        fine_pairs.append(BoundedByPair(fine_keys[pair.ida][-1], fine_keys[pair.idb][0]))
    fine = build_space(
        (Element(k) for chain in fine_keys.values() for k in chain),
        fine_pairs,
    )
    mapping = {k: c for c, chain in fine_keys.items() for k in chain}
    return SpaceMap(fine, coarse, mapping)


def map_with_empty_targets(rng: random.Random, max_coarse: int = 5, max_extra: int = 3) -> SpaceMap:
    """A ``cluster_map`` onto a target with up to ``max_extra`` more
    elements that nothing maps onto, each above or below random others.

    The empty targets can join targets whose fibres no comparable pair
    links, so the map may fail to be monotone through them alone.
    """
    f = cluster_map(rng, max_coarse=max_coarse, max_cluster=2)
    coarse = sorted(f.target.keys())
    extra = [ElementId(f"x{i}") for i in range(rng.randint(1, max_extra))]
    pairs = set(f.target.relation)
    for i, x in enumerate(extra):
        # each extra meets the coarse elements and the later extras
        for k in coarse + extra[i + 1:]:
            if rng.random() < 0.35:
                pairs.add(BoundedByPair(x, k) if rng.random() < 0.5 else BoundedByPair(k, x))
    try:
        target = build_space([Element(k) for k in coarse + extra], pairs)
    except AlexdbError:  # a cycle through the coarse order: keep the plain target
        target = f.target
    return SpaceMap(f.source, target, dict(f.mapping))


def chain_map(n: int) -> SpaceMap:
    """A chain of ``2n`` elements mapped two-to-one onto a chain of ``n``.

    Source ``s{i}`` is bounded by ``s{i+1}`` and maps onto ``t{i // 2}`` at
    level 1, which is bounded by ``t{i // 2 + 1}``; zero-padded ids keep key
    order and chain order the same.  Continuous, surjective and monotone.
    """
    width = len(str(2 * n))
    src = [ElementId(f"s{i:0{width}d}") for i in range(2 * n)]
    tgt = [ElementId(f"t{i:0{width}d}", 1) for i in range(n)]
    source = build_space((Element(k) for k in src), map(BoundedByPair, src, src[1:]))
    target = build_space((Element(k) for k in tgt), map(BoundedByPair, tgt, tgt[1:]))
    return SpaceMap(source, target, {k: tgt[i // 2] for i, k in enumerate(src)})


def with_stray_preimage(f: SpaceMap, target: ElementId) -> SpaceMap:
    """``f`` with one more source element, related to nothing, mapped onto
    ``target``: that fibre comes apart, and the map stays continuous."""
    stray = Element(ElementId("stray"))
    source = build_space([*f.source.elements.values(), stray], f.source.relation)
    return SpaceMap(source, f.target, {**f.mapping, stray.key: target})


def random_version_dag(rng: random.Random, max_n: int = 8, p: float = 0.3):
    n = rng.randint(1, max_n)
    nodes = [f"v{i}" for i in range(n)]
    edges = [
        (nodes[i], nodes[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return nodes, edges


_LETTERS = string.ascii_lowercase


def _random_attrs(rng: random.Random) -> dict:
    attrs = {}
    for _ in range(rng.randint(0, 2)):
        name = "".join(rng.choice(_LETTERS) for _ in range(4))
        kind = rng.random()
        if kind < 0.4:
            attrs[name] = rng.randint(-1000, 1000)
        elif kind < 0.7:
            attrs[name] = rng.uniform(-10, 10)
        else:
            attrs[name] = "w" + "".join(rng.choice(_LETTERS) for _ in range(5))
    return attrs


def random_store(rng: random.Random, max_versions: int = 4) -> VersionStore:
    """A store grown by committing random changesets along a random chain."""
    base = random_space(rng, max_n=5, p=0.35, prefix="n")
    elements = [
        Element(key=k, attributes=_random_attrs(rng)) for k in sorted(base.keys())
    ]
    space = build_space(elements, base.relation)
    points = tuple(
        PointRow(key=k, x=rng.uniform(-5, 5), y=rng.uniform(-5, 5), z=0.0, t=float(i))
        for i, k in enumerate(sorted(space.keys()))
        if rng.random() < 0.6
    )
    store = new_store("v0", space, points)
    counter = len(space.elements)
    for i in range(1, rng.randint(1, max_versions)):
        parent = rng.choice(store.vx)
        current = reconstruct_version(store, parent)
        keys = sorted(current.keys())
        removable = [k for k in keys if rng.random() < 0.25]
        added = []
        add_pairs = []
        if rng.random() < 0.8:
            new_key = ElementId(f"n{counter}")
            counter += 1
            added.append(Element(key=new_key, attributes=_random_attrs(rng)))
            anchors = [k for k in keys if k not in removable]
            if anchors and rng.random() < 0.7:
                add_pairs.append((rng.choice(anchors), new_key))
        changes = changeset(
            f"v{len(store.vx)}",
            add_elements=added,
            remove_elements=removable,
            add_pairs=add_pairs,
        )
        store = commit(store, parent, changes)
    return store


def two_level_store(rng: random.Random, version: str = "v1") -> VersionStore:
    """A single-version store whose fine level generalises onto the coarse."""
    g = cluster_map(rng)
    elements = [
        Element(
            key=k,
            gen_target=ElementId(g.mapping[k].id, 1),
        )
        for k in sorted(g.source.keys())
    ]
    elements += [Element(key=ElementId(c.id, 1)) for c in sorted(g.target.keys())]
    pairs = [p for p in g.source.relation]
    pairs += [
        BoundedByPair(ElementId(p.ida.id, 1), ElementId(p.idb.id, 1))
        for p in g.target.relation
    ]
    return new_store(version, build_space(elements, pairs))


def level_key(text: str) -> ElementId:
    """``"x"`` is ``x`` at level 0, ``"x:1"`` is ``x`` at level 1."""
    name, _, lod = text.partition(":")
    return ElementId(name, int(lod or 0))


def level_store(
    pairs: list[tuple[str, str]],
    gen: dict[str, str],
    extra: tuple[str, ...] = (),
    version: str = "v1",
) -> VersionStore:
    """A one-version store on every key named in ``pairs``, ``gen`` and
    ``extra`` (written as for ``level_key``), with ``gen`` as the
    generalisation column."""
    names = {n for pair in pairs for n in pair} | set(gen) | set(gen.values()) | set(extra)
    elements = [
        Element(level_key(n), gen_target=level_key(gen[n]) if n in gen else None)
        for n in sorted(names)
    ]
    relation = [BoundedByPair(level_key(a), level_key(b)) for a, b in pairs]
    return new_store(version, build_space(elements, relation))


def unrealized_pair_store() -> VersionStore:
    """A level store whose map onto 16 targets is continuous and surjective
    but not monotone, though every fibre is connected.

    Level 1 is the chain ``t > w > u``; level 0 has ``a > b > d``,
    ``b2 > d`` and ``b2 > c``, with ``a`` over ``t``, ``b``, ``b2`` and
    ``d`` over ``w`` and ``c`` over ``u``.  The pair ``{t:1, u:1}`` is
    connected but its preimage ``{a, c}`` is not.  Thirteen isolated padding
    pairs ``p{i}`` over ``q{i}:1`` make up the 16 targets.
    """
    return level_store(
        pairs=[("a", "b"), ("b", "d"), ("b2", "d"), ("b2", "c"), ("t:1", "w:1"), ("w:1", "u:1")],
        gen={
            "a": "t:1", "b": "w:1", "b2": "w:1", "d": "w:1", "c": "u:1",
            **{f"p{i:02d}": f"q{i:02d}:1" for i in range(13)},
        },
    )


def unchecked_removal(store: VersionStore, parent: str, version: str, keys) -> VersionStore:
    """The rows of a commit that removes ``keys`` from ``parent``, written
    without the checks of ``commit``: a removal that leaves an element
    generalising to a missing one gives a store that ``load`` accepts and
    every reader must cope with."""
    base = reconstruct_version(store, parent)
    space = apply_changeset(base, changeset(version, remove_elements=keys))
    return VersionStore(
        x=store.x,
        r=store.r + tuple(
            RRow(p.ida.id, p.idb.id, p.ida.lod, version) for p in space.relation - base.relation
        ),
        point=store.point,
        delx=store.delx + tuple(DelXRow(k.id, k.lod, version) for k in keys),
        delr=store.delr + tuple(
            DelRRow(p.ida.id, p.idb.id, p.ida.lod, version) for p in base.relation - space.relation
        ),
        vx=store.vx + (version,),
        vr=store.vr + ((parent, version),),
        atts=store.atts,
    )


def committed_history(
    rng: random.Random, max_commits: int = 6, warm: bool = False
) -> list[VersionStore]:
    """Every store of a two-level history grown by chained commits, oldest
    first.

    The first version is a ``cluster_map`` pyramid with attributes.  Each
    commit picks any version as its parent, so histories branch and one
    parent may get several children.  It removes some elements and pairs,
    adds a fresh element and re-adds some elements removed earlier: with
    no attributes, with those recorded, or with a new one, and a fine
    element now and then with a new generalisation target.  Version names
    are drawn at random, so a new name can sort before older ones
    (``v10`` before ``v9``).  Commits that ``commit`` rejects (a missing
    generalisation target, a clashing attribute) are left out.  With
    ``warm``, every version of a store is checked out before each commit
    from it, so the index that commit derives from has built its elements.
    """
    g = cluster_map(rng)
    elements = [
        Element(k, gen_target=ElementId(g.mapping[k].id, 1), attributes=_random_attrs(rng))
        for k in sorted(g.source.keys())
    ]
    elements += [
        Element(ElementId(c.id, 1), attributes=_random_attrs(rng)) for c in sorted(g.target.keys())
    ]
    pairs = list(g.source.relation) + [
        BoundedByPair(ElementId(p.ida.id, 1), ElementId(p.idb.id, 1)) for p in g.target.relation
    ]
    stores = [new_store(f"v{rng.randrange(20)}", build_space(elements, pairs))]
    for i in range(rng.randint(1, max_commits)):
        store = stores[-1]
        if warm:
            for v in store.vx:
                reconstruct_version(store, v)
        parent = rng.choice(store.vx)
        space = reconstruct_version(store, parent)
        keys = sorted(space.keys())
        removed = [k for k in keys if rng.random() < (0.08 if k.lod else 0.2)]
        kept = [k for k in keys if k not in removed]
        coarse = [k for k in kept if k.lod == 1]
        gone = sorted({ElementId(w.id, w.lod) for w in store.x} - space.keys())
        added = []
        for k in [k for k in gone if rng.random() < 0.5]:
            recorded = {w.name: w.value for w in store.atts if (w.id, w.lod) == k}
            attributes = rng.choice([{}, recorded, {"z": rng.randint(0, 1)}])
            target = rng.choice(coarse) if k.lod == 0 and coarse else None
            added.append(Element(k, gen_target=target, attributes=attributes))
        lod = rng.randint(0, 1)
        fresh = ElementId(f"n{i}", lod)
        target = rng.choice(coarse) if lod == 0 and coarse else None
        added.append(Element(fresh, gen_target=target, attributes=_random_attrs(rng)))
        anchors = [k for k in kept if k.lod == lod]
        links = [(rng.choice(anchors), fresh)] if anchors else []
        cut = [p for p in sorted(space.relation) if p.ida in kept and p.idb in kept]
        cut = [p for p in cut if rng.random() < 0.15]
        version = f"v{rng.randrange(20)}"
        while version in store.vx:
            version = f"v{rng.randrange(20)}"
        changes = changeset(
            version, add_elements=added, remove_elements=removed, add_pairs=links, remove_pairs=cut
        )
        try:
            stores.append(commit(store, parent, changes))
        except AlexdbError:
            pass
    return stores


def twin_chains(n: int) -> Space:
    """Two chains of ``n`` elements, ``c0 > c1 > ...`` on level 0 and the
    same on level 1, each level-0 element generalising onto its twin:
    every down-set is deep."""
    els = [Element(ElementId(f"c{i}", 0), gen_target=ElementId(f"c{i}", 1)) for i in range(n)]
    els += [Element(ElementId(f"c{i}", 1)) for i in range(n)]
    pairs = [
        BoundedByPair(ElementId(f"c{i}", lod), ElementId(f"c{i + 1}", lod))
        for lod in (0, 1)
        for i in range(n - 1)
    ]
    return build_space(els, pairs)
