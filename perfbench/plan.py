"""Seeded inputs and operation sequences of the three workloads.

A plan is plain data: the corpus to load and the operations to send, in
order.  Both the measuring process and the answer oracle build it from the
same ``--seed``, so the program under test only ever sees generated inputs.

The operations come in decks (a round, for ``document-history``).  A run
sends whole decks, so every run holds each kind of operation in the same
proportion and the percentiles fall at the same place in the mix.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

import corpus

GRID_SIDE = 40
GRID_BANDS = 4
DOC_LETTERS = 256
DOC_EDITS = 64
ROUND_COMMITS = 16
LONG_DOC_LETTERS = 1500
PYRAMID_SIDE = 8
PYRAMID_LEVELS = 3
PYRAMID_VERSIONS = 4
NESTING_DEPTH = 400
DECKS = 40  # decks drawn ahead; a run cycles through them when it needs more

# Region operations work on two of the four column bands, so each costs
# about the same whatever bands the seed picks.  Adjacent bands give Yes
# paths, bands with a gap between them give No paths.
ADJACENT_BANDS = [(0, 1), (1, 2), (2, 3)]
GAP_BANDS = [(0, 2), (1, 3), (0, 3)]
SLICE_TIMES = 4
# Slice times near the middle of the vertex times: a slice there keeps a
# similar share of the complex whatever the seed draws, so its cost does too.
SLICE_RANGE = (0.35, 0.65)


@dataclass
class Plan:
    workload: str
    seed: int
    corpus: dict = field(default_factory=dict)
    decks: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# grid-read


def _grid_deck(rng: random.Random, grid: corpus.Complex, by_band: dict, times: list) -> list:
    """24 point lookups and 8 region operations, two of each kind."""
    ops = []
    for i in range(24):
        ops.append({"op": "closure" if i % 2 == 0 else "star", "key": rng.choice(grid.keys)})
    for pool in (ADJACENT_BANDS, GAP_BANDS):
        lo, hi = rng.choice(pool)
        ops.append({"op": "path", "bands": [lo, hi],
                    "a": rng.choice(by_band[lo]), "b": rng.choice(by_band[hi])})
        ops.append({"op": "select", "bands": list(rng.choice(ADJACENT_BANDS))})
        ops.append({"op": "slice", "t": rng.choice(times)})
        ops.append({"op": "dim"})
    rng.shuffle(ops)
    return ops


def grid_read(seed: int) -> Plan:
    rng = random.Random(seed)
    grid = corpus.grid(GRID_SIDE, rng, bands=GRID_BANDS)
    by_band = {i: corpus.band_keys(grid, [f"b{i}"]) for i in range(GRID_BANDS)}
    # slice times never equal a vertex time (those have four decimals)
    times = sorted({round(rng.uniform(*SLICE_RANGE), 4) + 0.00005 for _ in range(SLICE_TIMES)})
    return Plan("grid-read", seed, {"grid": grid, "times": times},
                [_grid_deck(rng, grid, by_band, times) for _ in range(DECKS)])


# ---------------------------------------------------------------------------
# document-history


def document_history(seed: int) -> Plan:
    """A 256-letter document with 64 edits, then one round of 68 operations.

    The window paths are the round's costliest reads; twelve of them put
    the p90 inside their cluster rather than on its edge.

    A round starts from the set-up store, so every round sees a history of
    64 to 80 versions and the latency mix stays the same however many
    rounds a run completes.
    """
    rng = random.Random(seed)
    base = corpus.document(DOC_LETTERS, rng)
    edits, texts, head = corpus.history(base, DOC_EDITS, rng)
    setup_head = head
    long_doc = corpus.document(LONG_DOC_LETTERS, rng, prefix="d")
    kinds = (["commit"] * ROUND_COMMITS + ["checkout"] * 2 * ROUND_COMMITS
             + ["path"] * (ROUND_COMMITS * 3 // 4) + ["dim_head"] * (ROUND_COMMITS // 4)
             + ["dim_long"] * (ROUND_COMMITS // 4))
    rng.shuffle(kinds)
    round_texts = dict(texts)
    ops = []
    serial = 0
    for kind in kinds:
        if kind == "commit":
            serial += 1
            new, round_texts, head = corpus.history(
                None, 1, rng, prefix="w", first=serial, head=head, texts=round_texts)
            e = new[0]
            ops.append({"op": "commit", "edit": e, "parent_text": round_texts[e.parent]})
        elif kind == "checkout":
            ops.append({"op": "checkout", "version": rng.choice(sorted(round_texts))})
        elif kind == "path":
            ids = [i for i, _ in round_texts[head]]
            width = rng.randint(16, 64)
            start = rng.randrange(0, len(ids) - width)
            window = ids[start:start + width]
            ops.append({"op": "path", "head": head, "window": window,
                        "a": window[0], "b": window[-1]})
        else:
            ops.append({"op": kind, "head": head})
    return Plan("document-history", seed,
                {"base": base, "edits": edits, "texts": texts, "head": setup_head,
                 "long_doc": long_doc},
                [ops], {"round_texts": round_texts})


# ---------------------------------------------------------------------------
# cli-lod

STORE_NAME = "pyramid"


def _cli_deck(rng: random.Random, pyr: corpus.Complex, times: list) -> list:
    """Nineteen commands: each cheap one twice and the telescope three times.

    A deck's latencies fall into two clusters: the cheap commands (dim,
    path, qpath, qclosure, slice, export: 25-100 ms) and the costly ones
    (versions-with-path, validate, reconstruct, telescope: 0.3-0.8 s).
    Twelve cheap and three telescopes among 18 that succeed put the median
    inside the first cluster and the p90 between two telescopes, not on
    the edge between two kinds of command, where the seed would move it.
    """
    level0 = [k for k in pyr.keys if k[1] == 0 and not k[0].startswith("m")]
    by_band = {b: [k for k in level0 if pyr.attrs[k]["band"] == b] for b in range(4)}

    def endpoints():
        # same band: a Yes path; bands two apart in one region: a No path
        b = rng.randrange(4)
        other = b if rng.random() < 0.5 else (b + 2) % 4
        return rng.choice(by_band[b])[0], rng.choice(by_band[other])[0], "AB"[b % 2]

    ops = []
    for _ in range(2):
        for kind in ("path", "qpath"):
            a, b, region = endpoints()
            ops.append({"op": kind, "a": a, "b": b, "region": region})
        ops.append({"op": "qclosure", "key": rng.choice(pyr.keys)})
        ops.append({"op": "slice", "t": rng.choice(times)})
        ops += [{"op": "dim"}, {"op": "export"}]
    a, b, region = endpoints()
    ops.append({"op": "vwp", "a": a, "b": b, "region": region})
    ops += [{"op": name} for name in
            ("reconstruct", "telescope", "telescope", "telescope", "validate", "deep")]
    rng.shuffle(ops)
    return ops


def pyramid_versions(seed: int):
    """The pyramid and the marker added by each later version."""
    rng = random.Random(seed)
    pyr = corpus.pyramid(PYRAMID_SIDE, PYRAMID_LEVELS, rng)
    markers = []
    for i in range(1, PYRAMID_VERSIONS):
        face = (f"f{rng.randrange(PYRAMID_SIDE)}_{rng.randrange(PYRAMID_SIDE)}", 0)
        markers.append((f"v{i}", corpus.add_marker(pyr, f"m{i}", face, rng), face))
    return pyr, markers, rng


def cli_lod(seed: int) -> Plan:
    pyr, markers, rng = pyramid_versions(seed)
    times = sorted({round(rng.uniform(*SLICE_RANGE), 4) + 0.00005 for _ in range(SLICE_TIMES)})
    return Plan("cli-lod", seed, {"pyramid": pyr, "markers": markers, "times": times},
                [_cli_deck(rng, pyr, times) for _ in range(DECKS)])


PLANS = {"grid-read": grid_read, "document-history": document_history, "cli-lod": cli_lod}


def make(workload: str, seed: int) -> Plan:
    return PLANS[workload](seed)
