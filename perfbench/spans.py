"""Run-time spans around every call into the engine's eight layers.

``Tracer.install`` wraps each public function of the layer modules and
rebinds the name in every ``alexdb`` module namespace that holds it, so
calls between modules and inside a module go through the wrapper too.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.

A span is one row ``(id, parent, op, name, top, outer, start, end)`` kept
in memory; ``top`` marks the outermost span of its layer, whose durations
add up to the layer's busy time, and ``outer`` the outermost span of its
function.  Spans of one benchmark operation share the
``op`` id.  Counters that the per-layer ratios need are recorded by the
wrapper at the call boundary.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import store_bytes

LAYERS = ("topology", "algebra", "spacetime", "versioning", "lod", "storage", "query", "cli")

# Constant-time key helpers, which would only add wrapper cost.
SKIP = {"algebra.product_key", "lod.interpolation_level",
        "versioning.consistency_rule", "versioning.register_rule"}
# Private CLI helpers that format output: their time is ``cli.render_ms``.
RENDER = ("_emit_space", "_render_value", "_print_report")


class Tracer:
    def __init__(self):
        self.rows = []
        self.names = []
        self.layer_of = []
        self.stack = []
        self.next_id = 0
        self.op = -1
        self.depth = Counter()  # layer -> open spans
        self.active = Counter()  # function name -> open spans
        self.count = Counter()
        self.patched = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"alexdb.{layer}")
            for attr, fn in vars(module).items():
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if attr.startswith("_"):
                    if layer != "cli" or attr not in RENDER:
                        continue
                    name = "cli.render"
                else:
                    name = f"{layer}.{attr}"
                if name not in SKIP:
                    originals[fn] = self._wrap(fn, name, layer)
        for module in [m for n, m in sys.modules.items() if n == "alexdb" or n.startswith("alexdb.")]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    self.patched.append((module, attr, value))
                    setattr(module, attr, originals[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self.patched):
            setattr(module, attr, value)
        self.patched = []

    def _wrap(self, fn, name: str, layer: str):
        name_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        materialise = name == "algebra.open_reduction"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if materialise:
                args = (list(args[0]),) + args[1:]
                tracer.count["algebra.reduction_in_pairs"] += len(args[0])
            result = tracer._call(fn, name_id, name, layer, args, kwargs)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _call(self, fn, name_id, name, layer, args, kwargs):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else -1
        top = self.depth[layer] == 0
        outer = self.active[name] == 0
        self.depth[layer] += 1
        self.active[name] += 1
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.depth[layer] -= 1
            self.active[name] -= 1
            self.rows.append((sid, parent, self.op, name_id, top, outer, start, end))

    def run_op(self, kind: str, call):
        """One benchmark operation: a root span that the layer spans hang from."""
        self.op += 1
        name_id = self._name_id("op." + kind)
        return self._call(call, name_id, "op." + kind, "op", (), {})

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.layer_of.append("op")
        return self.names.index(name)

    # -- counters at call boundaries -------------------------------------------

    def _adjacency(self, args, result):
        n = len(args[0].relation)
        self.count["topology.adjacency_builds"] += 1
        self.count["topology.pairs_scanned"] += n
        if self.active["topology.closure"] or self.active["topology.star"]:
            self.count["hull_pairs_scanned"] += n

    _after_topology_out_adjacency = _adjacency
    _after_topology_in_adjacency = _adjacency

    def _after_topology_preorder(self, args, result):
        self.count["topology.preorder_builds"] += 1
        self.count["topology.preorder_pairs"] += len(result.pairs)
        if self.active["algebra.select_subspace"]:
            self.count["select_preorder_pairs"] += len(result.pairs)

    def _hull(self, args, result):
        self.count["hull_results"] += len(result)

    _after_topology_closure = _hull
    _after_topology_star = _hull

    def _after_algebra_open_reduction(self, args, result):
        self.count["algebra.reduction_out_pairs"] += len(result)

    def _after_algebra_select_subspace(self, args, result):
        self.count["select_out_pairs"] += len(result.relation)

    def _after_versioning_reconstruct_version(self, args, result):
        store = args[0]
        self.count["versioning.rows_scanned"] += (
            len(store.x) + len(store.r) + len(store.delx) + len(store.delr) + len(store.atts))
        self.count["reconstruct_live"] += len(result.elements) + len(result.relation)

    def _version_hull(self, args, result):
        self.count["versioning.version_hulls"] += 1

    _after_versioning_version_star = _version_hull
    _after_versioning_version_closure = _version_hull
    _after_versioning_version_neighbourhood = _version_hull

    def _after_lod_filtered_path_query(self, args, result):
        self.count["filter_attempts"] += 1
        self.count["filter_coarse_final"] += not result.used_fallback

    def _after_storage_load(self, args, result):
        self.count["storage.bytes_read"] += store_bytes(args[0])

    def _after_storage_save(self, args, result):
        self.count["storage.bytes_written"] += store_bytes(args[1])

    # -- results ------------------------------------------------------------

    def layer_metrics(self, store_growth: int) -> dict:
        """Per-layer totals over the traced operations, as ``name -> (value, unit)``."""
        child = Counter()
        for _sid, parent, _op, _name, _top, _outer, start, end in self.rows:
            child[parent] += end - start
        busy, self_t, calls, by_name = Counter(), Counter(), Counter(), Counter()
        for sid, _parent, _op, name_id, top, outer, start, end in self.rows:
            layer, dur = self.layer_of[name_id], end - start
            calls[layer] += 1
            self_t[layer] += dur - child[sid]
            if top:
                busy[layer] += dur
            if outer:
                by_name[self.names[name_id]] += dur
        c = self.count

        def ratio(a, b):
            return a / b if b else 0.0

        def yield_(useful, work):
            # work that a later design skips entirely must not read as zero yield
            return useful / max(work, 1)

        out = {}
        for layer in LAYERS:
            out[f"{layer}.busy_ms"] = (busy[layer] * 1e3, "ms")
            out[f"{layer}.self_ms"] = (self_t[layer] * 1e3, "ms")
            out[f"{layer}.calls"] = (calls[layer], "count")
        for name in ("topology.adjacency_builds", "topology.pairs_scanned",
                     "topology.preorder_builds", "topology.preorder_pairs",
                     "algebra.reduction_in_pairs", "algebra.reduction_out_pairs",
                     "versioning.rows_scanned", "versioning.version_hulls"):
            out[name] = (c[name], "count")
        out["topology.hull_yield"] = (yield_(c["hull_results"], c["hull_pairs_scanned"]), "ratio")
        out["algebra.select_yield"] = (
            yield_(c["select_out_pairs"], c["select_preorder_pairs"]), "ratio")
        out["versioning.reconstruct_yield"] = (
            ratio(c["reconstruct_live"], c["versioning.rows_scanned"]), "ratio")
        out["lod.filter_coarse_final_ratio"] = (
            ratio(c["filter_coarse_final"], c["filter_attempts"]), "ratio")
        out["lod.telescope_ms"] = (by_name["lod.telescope"] * 1e3, "ms")
        out["storage.load_ms"] = (by_name["storage.load"] * 1e3, "ms")
        out["storage.save_ms"] = (by_name["storage.save"] * 1e3, "ms")
        out["storage.bytes_read"] = (c["storage.bytes_read"], "B")
        out["storage.bytes_written"] = (c["storage.bytes_written"], "B")
        out["storage.write_amp"] = (ratio(c["storage.bytes_written"], store_growth), "ratio")
        out["query.parse_ms"] = (by_name["query.parse"] * 1e3, "ms")
        out["query.eval_ms"] = (by_name["query.evaluate"] * 1e3, "ms")
        out["cli.render_ms"] = (by_name["cli.render"] * 1e3, "ms")
        return out

    def write(self, path: Path) -> None:
        """All spans as CSV, times in microseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((r[6] for r in self.rows), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_us,end_us\n")
            for sid, parent, op, name_id, _top, _outer, start, end in sorted(self.rows):
                fh.write(f"{sid},{parent},{op},{self.names[name_id]},"
                         f"{(start - t0) * 1e6:.1f},{(end - t0) * 1e6:.1f}\n")
