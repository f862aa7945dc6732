"""Doubling sweep: one key call per layer, timed at three doubling sizes.

Sizes are grid sides 10/20/40, chains of 128/256/512 letters and histories
of 16/32/64 versions.  ``<layer>.<function>.growth`` is log2 of the time at
the largest size over the time at the middle one: about 1 for a linear
call, 2 for a quadratic one, for the chains and histories; a grid's element
count grows fourfold per doubling of its side, so there linear reads 2.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
import statistics
import time
from pathlib import Path

import alexdb
import alexdb.cli
import alexdb.query

import corpus
import workloads

GRID_SIDES = (10, 20, 40)
CHAIN_LETTERS = (128, 256, 512)
HISTORY_VERSIONS = (16, 32, 64)
REPEATS = 3
BUDGET_S = 1.0  # stop repeating a size once its calls have taken this long


def _time(call) -> float:
    """Median wall time of up to ``REPEATS`` calls, at least one."""
    times = []
    while len(times) < REPEATS and sum(times) < BUDGET_S:
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _growth(times: list) -> float:
    return math.log2(times[-1] / times[-2])


def _quiet(argv: list):
    def call():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = alexdb.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"alexdb {' '.join(argv[:1])} exited {code}")
    return call


def run(seed: int, workdir: Path) -> dict:
    """Growth per layer, as ``name -> (value, unit)``."""
    rng = random.Random(seed)
    out = {}
    grids = []
    for side in GRID_SIDES:
        g = corpus.grid(side, rng)
        grids.append((g, workloads._space(g), workloads._points(g, g.keys)))
    face = [alexdb.ElementId(f"f{side // 2}_{side // 3}") for side in GRID_SIDES]
    out["topology.closure.growth"] = _growth(
        [_time(lambda: alexdb.closure(sp, [k])) for (_, sp, _), k in zip(grids, face)])
    out["spacetime.time_slice.growth"] = _growth(
        [_time(lambda: alexdb.time_slice(sp, pts, 0.50005)) for _, sp, pts in grids])

    chains, stores = [], []
    for n in CHAIN_LETTERS:
        space = workloads._text_space(corpus.document(n, rng))
        keys = sorted(space.elements)
        middle = keys[n // 4: 3 * n // 4]
        chains.append((space, middle))
        directory = workdir / f"chain{n}"
        alexdb.save(alexdb.new_store("v0", space), directory)
        stores.append(directory)
    out["algebra.select_subspace.growth"] = _growth(
        [_time(lambda: alexdb.select_subspace(sp, mid)) for sp, mid in chains])
    out["lod.path_query.growth"] = _growth(
        [_time(lambda: alexdb.path_query(sp, mid, mid[0], mid[-1])) for sp, mid in chains])
    ctx = alexdb.query.EvalContext(base_dir=workdir)
    out["query.evaluate.growth"] = _growth(
        [_time(lambda: alexdb.query.evaluate(f'dim(load("{d.name}"))', ctx)) for d in stores])
    out["cli.main.growth"] = _growth(
        [_time(_quiet(["reconstruct", str(d)])) for d in stores])

    base = corpus.document(256, rng)
    edits, texts, _ = corpus.history(base, HISTORY_VERSIONS[-1] - 1, rng)
    store = alexdb.new_store("v0", workloads._text_space(base))
    snapshots = []
    for e in edits:
        store = alexdb.commit(store, e.parent, workloads.edit_changeset(e, texts[e.parent]))
        if len(store.vx) in HISTORY_VERSIONS:
            snapshots.append((store, e.version))
    out["versioning.reconstruct_version.growth"] = _growth(
        [_time(lambda: alexdb.reconstruct_version(st, v)) for st, v in snapshots])
    extra = corpus.draw_edit(rng, "s1", "v0", base)
    changes = workloads.edit_changeset(extra, base)
    out["storage.commit.growth"] = _growth(
        [_time(lambda: alexdb.commit(st, "v0", changes)) for st, _ in snapshots])
    return {name: (value, "log2") for name, value in out.items()}
