"""Expected answers for a workload plan, computed without the engine.

Run as its own process (``python3 perfbench/oracle.py --workload W --seed N``)
so that networkx's memory does not count in the measured process's peak
RSS.  It rebuilds the plan from the seed, checks that the generated inputs
are what they claim to be (connected complexes, continuous surjective
generalisation maps), and prints one JSON object: ``inputs_ok``, a list of
``problems`` and, per deck, the expected answer of every operation.  Answers
come from the construction itself or from networkx.
"""
from __future__ import annotations

import argparse
import json
import sys

import networkx as nx

import plan as planmod
from corpus import name as _name


class Order:
    """The preorder of a complex, from networkx reachability."""

    def __init__(self, keys, pairs):
        self.graph = nx.DiGraph()
        self.graph.add_nodes_from(keys)
        self.graph.add_edges_from(pairs)
        self.down = {k: frozenset(nx.descendants(self.graph, k)) for k in self.graph}
        self.up = {k: frozenset(nx.ancestors(self.graph, k)) for k in self.graph}

    def dimension(self) -> int:
        return nx.dag_longest_path_length(self.graph)

    def reduced_pairs(self, keep) -> int:
        """Pairs of the transitive reduction of the order restricted to ``keep``."""
        keep = set(keep)
        count = 0
        for a in keep:
            below = self.down[a] & keep
            for b in below:
                if not any(b in self.down[w] for w in below if w != b):
                    count += 1
        return count

    def connected(self, keep, a, b) -> bool:
        """Path from a to b in the subspace on ``keep``: comparability connectivity."""
        keep = set(keep)
        g = nx.Graph()
        g.add_nodes_from(keep)
        g.add_edges_from((x, y) for x in keep for y in self.down[x] & keep)
        return nx.has_path(g, a, b)

    def is_connected(self) -> bool:
        return nx.is_weakly_connected(self.graph)


def _slice_keep(order: Order, points: dict, t: float) -> list:
    keep = []
    for k in order.graph:
        verts = [v for v in order.down[k] | {k} if not order.down[v]]
        times = [points[v][3] for v in verts]
        lo, hi = min(times), max(times)
        if lo < t < hi or lo == t == hi:
            keep.append(k)
    return keep


# ---------------------------------------------------------------------------
# grid-read


def grid_read(p) -> dict:
    grid = p.corpus["grid"]
    order = Order(grid.keys, grid.pairs)
    problems = [] if order.is_connected() else ["grid is not connected"]
    band_of = {k: int(grid.attrs[k]["region"][1:]) for k in grid.keys}
    keys_of = {}

    def keep(bands):
        bands = tuple(bands)
        if bands not in keys_of:
            keys_of[bands] = [k for k in grid.keys if band_of[k] in bands]
        return keys_of[bands]

    paths, selects, slices = {}, {}, {}
    dim = order.dimension()
    decks = []
    for deck in p.decks:
        answers = []
        for op in deck:
            kind = op["op"]
            if kind == "closure":
                answers.append(sorted(_name(k) for k in order.down[op["key"]] | {op["key"]}))
            elif kind == "star":
                answers.append(sorted(_name(k) for k in order.up[op["key"]] | {op["key"]}))
            elif kind == "path":
                bands = tuple(op["bands"])
                if bands not in paths:
                    comps = nx.Graph()
                    ks = set(keep(bands))
                    comps.add_nodes_from(ks)
                    comps.add_edges_from((x, y) for x in ks for y in order.down[x] & ks)
                    paths[bands] = {k: i for i, c in enumerate(nx.connected_components(comps))
                                    for k in c}
                answers.append(paths[bands][op["a"]] == paths[bands][op["b"]])
            elif kind == "select":
                bands = tuple(op["bands"])
                if bands not in selects:
                    selects[bands] = [len(keep(bands)), order.reduced_pairs(keep(bands))]
                answers.append(selects[bands])
            elif kind == "slice":
                if op["t"] not in slices:
                    kept = _slice_keep(order, grid.points, op["t"])
                    slices[op["t"]] = [len(kept), order.reduced_pairs(kept)]
                answers.append(slices[op["t"]])
            else:
                answers.append(dim)
        decks.append(answers)
    return {"problems": problems, "decks": decks}


# ---------------------------------------------------------------------------
# document-history


def _text(text) -> list:
    return [[i, ch] for i, ch in text]


def document_history(p) -> dict:
    base = p.corpus["base"]
    chain = [(base[i][0], base[i + 1][0]) for i in range(len(base) - 1)]
    order = nx.DiGraph(chain)
    problems = [] if nx.is_weakly_connected(order) else ["document is not a connected chain"]
    texts = p.extra["round_texts"]
    answers = []
    for op in p.decks[0]:
        kind = op["op"]
        if kind == "commit":
            # rows a one-letter edit adds to the tables X, R, DelX, DelR, Atts
            insert = op["edit"].kind == "insert"
            answers.append({"x": int(insert), "r": 2 if insert else 1,
                            "delx": int(not insert), "delr": 1 if insert else 2,
                            "atts": int(insert)})
        elif kind == "checkout":
            answers.append(_text(texts[op["version"]]))
        elif kind == "path":
            # every subset of a chain is connected: any two letters are comparable
            answers.append(True)
        elif kind == "dim_head":
            answers.append(len(texts[op["head"]]) - 1)
        else:
            answers.append(len(p.corpus["long_doc"]) - 1)
    return {"problems": problems, "decks": [answers]}


# ---------------------------------------------------------------------------
# cli-lod


def _versions(p) -> list:
    """Keys and pairs alive in each version: markers arrive one per version."""
    pyr = p.corpus["pyramid"]
    markers = {m[1] for m in p.corpus["markers"]}
    keys = [k for k in pyr.keys if k not in markers]
    pairs = [q for q in pyr.pairs if q[1] not in markers]
    out = [("v0", list(keys), list(pairs))]
    for version, marker, face in p.corpus["markers"]:
        keys = keys + [marker]
        pairs = pairs + [(face, marker)]
        out.append((version, keys, pairs))
    return out


def _check_maps(pyr, order: Order) -> list:
    problems = []
    for lod in range(planmod.PYRAMID_LEVELS - 1):
        fine = [k for k in pyr.keys if k[1] == lod]
        coarse = {k for k in pyr.keys if k[1] == lod + 1}
        if {pyr.gen[k] for k in fine} != coarse:
            problems.append(f"level {lod} does not generalise onto all of level {lod + 1}")
        for a, b in pyr.pairs:
            if a[1] == lod:
                ga, gb = pyr.gen[a], pyr.gen[b]
                if ga != gb and gb not in order.down[ga]:
                    problems.append(f"generalisation is discontinuous at {a} -> {b}")
                    break
        level = order.graph.subgraph([k for k in pyr.keys if k[1] == lod])
        if not nx.is_weakly_connected(level):
            problems.append(f"level {lod} is not connected")
    return problems


def _telescope_dimension(keys, pairs, gen) -> int:
    """Longest chain of the telescope: the level-matched part of a product order."""
    augmented = Order(keys, list(pairs) + [(k, g) for k, g in gen.items()])
    lods = sorted({k[1] for k in keys})
    steps = sorted({(k[1], g[1]) for k, g in gen.items()})
    nodes = [(l, l) for l in lods] + steps
    edge_down = {w: {w} for w in nodes}
    for a, b in steps:
        edge_down[(a, b)] |= {(a, a), (b, b)}
    matches = {(k, w) for k in keys for w in nodes if w[0] == k[1]}
    memo = {}

    def longest(m) -> int:
        if m not in memo:
            k, w = m
            best = 0
            for k2 in augmented.down[k] | {k}:
                for w2 in edge_down[w]:
                    if (k2, w2) != m and (k2, w2) in matches:
                        best = max(best, 1 + longest((k2, w2)))
            memo[m] = best
        return memo[m]

    return max(longest(m) for m in matches)


def cli_lod(p) -> dict:
    pyr = p.corpus["pyramid"]
    versions = _versions(p)
    head, keys, pairs = versions[-1]
    order = Order(keys, pairs)
    problems = _check_maps(pyr, order)
    region_of = {k: pyr.attrs[k].get("region") for k in keys}
    region_keys = {r: [k for k in keys if region_of[k] == r] for r in "AB"}
    linked = {}
    for v, vkeys, vpairs in versions:
        gen_pairs = [(k, pyr.gen[k]) for k in vkeys if k in pyr.gen]
        linked[v] = (set(vkeys), Order(vkeys, list(vpairs) + gen_pairs))
    n_pairs = len(pairs)
    counts = [(v, len(vk), len(vp)) for v, vk, vp in versions]
    export = [f"store: {len(versions)} versions, {len(keys)} element rows, "
              f"{n_pairs} pair rows, {len(pyr.points)} coordinate rows"]
    export += [f"  {v}: {n} elements, {m} pairs" for v, n, m in counts]
    tele = _telescope_dimension(keys, pairs, {k: pyr.gen[k] for k in keys if k in pyr.gen})
    slices = {}
    decks = []
    for deck in p.decks:
        answers = []
        for op in deck:
            kind = op["op"]
            if kind in ("path", "qpath"):
                a, b = (op["a"], 0), (op["b"], 0)
                answers.append("Yes" if order.connected(region_keys[op["region"]], a, b)
                               else "No")
            elif kind == "vwp":
                a, b = (op["a"], 0), (op["b"], 0)
                region = set(region_keys[op["region"]]) | {a, b}
                hits = [v for v, (alive, lo) in linked.items()
                        if a in alive and b in alive and lo.connected(region & alive, a, b)]
                answers.append(hits or ["(none)"])
            elif kind == "qclosure":
                answers.append(sorted(_name(k) for k in order.down[op["key"]] | {op["key"]}))
            elif kind == "slice":
                if op["t"] not in slices:
                    kept = _slice_keep(order, pyr.points, op["t"])
                    slices[op["t"]] = [len(kept), order.reduced_pairs(kept)]
                answers.append(slices[op["t"]])
            elif kind == "reconstruct":
                answers.append([len(keys), n_pairs])
            elif kind == "dim":
                answers.append(order.dimension())
            elif kind == "telescope":
                answers.append(tele)
            elif kind == "validate":
                answers.append(["ok"])
            elif kind == "export":
                answers.append(export)
            else:
                answers.append(None)  # the deep query: exit code 1 with a typed error
        decks.append(answers)
    return {"problems": problems, "decks": decks}


ORACLES = {"grid-read": grid_read, "document-history": document_history, "cli-lod": cli_lod}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ORACLES))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    p = planmod.make(args.workload, args.seed)
    result = ORACLES[args.workload](p)
    result["inputs_ok"] = not result["problems"]
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
