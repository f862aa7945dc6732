"""The three workloads, driven through the engine's public API and its CLI.

Each workload has four parts:

* ``setup`` builds the corpus with the engine, saves it, loads it back and
  reconstructs it once; ``run.py`` times it as ``setup_s``;
* ``validate`` checks the generated input with the engine's own checks
  (``storage.validate``, ``check_map``) before anything is timed;
* ``prepare`` turns one planned operation into a call with no arguments,
  doing the client's own bookkeeping untimed;
* ``check`` compares what the call returned with the oracle's answer and
  returns a description of the difference, or None.

Every call goes through a module attribute of the ``alexdb`` package, so
the tracer's rebinding reaches it.
"""
from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import alexdb
import alexdb.cli

import corpus
import plan as planmod

TABLES = ("X.csv", "R.csv", "Point.csv", "DelX.csv", "DelR.csv", "VX.csv", "VR.csv", "Atts.csv")


def store_bytes(directory: Path) -> int:
    """Total size of the eight table files of a store directory."""
    return sum((Path(directory) / name).stat().st_size for name in TABLES)


def _key(k) -> alexdb.ElementId:
    return alexdb.ElementId(k[0], k[1])


def _space(c: corpus.Complex, keys=None, pairs=None) -> alexdb.Space:
    keys = c.keys if keys is None else keys
    pairs = c.pairs if pairs is None else pairs
    elements = [
        alexdb.Element(key=_key(k), gen_target=_key(c.gen[k]) if k in c.gen else None,
                       attributes=dict(c.attrs.get(k, {})))
        for k in keys
    ]
    return alexdb.build_space(elements, [alexdb.BoundedByPair(_key(a), _key(b))
                                         for a, b in pairs])


def _points(c: corpus.Complex, keys) -> list:
    return [alexdb.PointRow(_key(k), *c.points[k]) for k in keys if k in c.points]


def _names(keys) -> list:
    return sorted(str(k) for k in keys)


class State:
    """What a client holds between operations."""


class Workload:
    """Hooks that a workload may leave as they are."""

    classes: dict = {}  # operation kind -> latency class; "command" when absent

    def client_state(self, s: State, p: planmod.Plan) -> None:
        """Untimed client-side data derived after set-up."""

    def start_deck(self, s: State) -> None:
        """Called before each deck."""

    def end_deck(self, s: State) -> None:
        """Called after each deck."""


# ---------------------------------------------------------------------------
# grid-read


class GridRead(Workload):
    """Spatial reads on one in-memory ``Space`` of a 40 x 40-face grid."""

    name = "grid-read"
    classes = {"closure": "lookup", "star": "lookup", "path": "region",
               "select": "region", "slice": "region", "dim": "region"}

    def setup(self, p: planmod.Plan, workdir: Path) -> State:
        s = State()
        grid = p.corpus["grid"]
        built = alexdb.new_store("v0", _space(grid), _points(grid, grid.keys))
        s.store_dir = workdir / "grid"
        alexdb.save(built, s.store_dir)
        s.store = alexdb.load(s.store_dir)
        s.space = alexdb.reconstruct_version(s.store, "v0")
        return s

    def client_state(self, s: State, p: planmod.Plan) -> None:
        """Region key sets and coordinate rows, which a caller keeps at hand."""
        grid = p.corpus["grid"]
        s.points = list(s.store.point)
        s.regions = {}
        for bands in planmod.ADJACENT_BANDS + planmod.GAP_BANDS:
            names = [f"b{i}" for i in bands]
            s.regions[bands] = frozenset(_key(k) for k in corpus.band_keys(grid, names))

    def validate(self, s: State, p: planmod.Plan) -> list:
        return [i.detail for i in alexdb.validate(s.store)]

    def prepare(self, s: State, op: dict):
        kind = op["op"]
        space = s.space
        if kind == "closure":
            key = [_key(op["key"])]
            return lambda: alexdb.closure(space, key)
        if kind == "star":
            key = [_key(op["key"])]
            return lambda: alexdb.star(space, key)
        if kind == "path":
            region, a, b = s.regions[tuple(op["bands"])], _key(op["a"]), _key(op["b"])
            return lambda: alexdb.path_query(space, region, a, b)
        if kind == "select":
            region = s.regions[tuple(op["bands"])]
            return lambda: alexdb.select_subspace(space, region)
        if kind == "slice":
            points, t = s.points, op["t"]
            return lambda: alexdb.time_slice(space, points, t)
        return lambda: alexdb.krull_dimension(space)

    def check(self, s: State, op: dict, result, expected):
        kind = op["op"]
        if kind in ("closure", "star"):
            got = _names(result)
        elif kind in ("select", "slice"):
            got = [len(result.elements), len(result.relation)]
        else:
            got = result
        return None if got == expected else f"{kind}: got {_short(got)}, want {_short(expected)}"


# ---------------------------------------------------------------------------
# document-history


def _chain_text(space: alexdb.Space) -> list:
    """Letters of a chain space in reading order, as ``[id, letter]`` pairs."""
    nxt = {p.ida: p.idb for p in space.relation}
    heads = set(space.elements) - set(nxt.values())
    if len(heads) != 1 or len(nxt) != len(space.elements) - 1:
        return ["not a single chain"]
    (cur,) = heads
    out = []
    while cur is not None:
        out.append([cur.id, space.elements[cur].attributes.get("letter")])
        cur = nxt.get(cur)
    return out


def _text_space(text: list) -> alexdb.Space:
    return alexdb.text_space("".join(ch for _, ch in text), ids=[i for i, _ in text])


def edit_changeset(e: corpus.Edit, text: list):
    """The changeset of a one-letter edit of ``text``, the parent's letters."""
    i = e.index
    if e.kind == "insert":
        a, b = text[i - 1][0], text[i][0]
        element = alexdb.Element(_key((e.new_id, 0)), attributes={"letter": e.letter})
        return alexdb.changeset(e.version, add_elements=[element],
                                add_pairs=[(a, e.new_id), (e.new_id, b)], remove_pairs=[(a, b)])
    return alexdb.changeset(e.version, remove_elements=[text[i][0]])


class DocumentHistory(Workload):
    """Commits beside checkouts and reads on a branching text history."""

    name = "document-history"
    classes = {"commit": "commit", "checkout": "checkout", "path": "region",
               "dim_head": "region", "dim_long": "region"}

    def setup(self, p: planmod.Plan, workdir: Path) -> State:
        s = State()
        texts = p.corpus["texts"]
        built = alexdb.new_store("v0", _text_space(p.corpus["base"]))
        for e in p.corpus["edits"]:
            built = alexdb.commit(built, e.parent, edit_changeset(e, texts[e.parent]))
        s.store_dir = workdir / "document"
        alexdb.save(built, s.store_dir)
        s.base = alexdb.load(s.store_dir)
        alexdb.reconstruct_version(s.base, p.corpus["head"])
        s.long_doc = _text_space(p.corpus["long_doc"])
        return s

    def client_state(self, s: State, p: planmod.Plan) -> None:
        s.base_bytes = store_bytes(s.store_dir)
        s.round_growth = 0

    def validate(self, s: State, p: planmod.Plan) -> list:
        return [i.detail for i in alexdb.validate(s.base)]

    def start_deck(self, s: State) -> None:
        s.store = s.base
        s.head = None

    def end_deck(self, s: State) -> None:
        s.round_growth += store_bytes(s.store_dir) - s.base_bytes

    def _head_space(self, s: State, version: str):
        """The head as the client holds it, reconstructed untimed when it moved."""
        if s.head is None or s.head[0] != version:
            s.head = (version, alexdb.reconstruct_version(s.store, version))
        return s.head[1]

    def prepare(self, s: State, op: dict):
        kind = op["op"]
        if kind == "commit":
            changes = edit_changeset(op["edit"], op["parent_text"])
            parent = op["edit"].parent
            s.before = s.store

            def commit_and_save():
                s.store = alexdb.commit(s.store, parent, changes)
                alexdb.save(s.store, s.store_dir)
                return s.store

            return commit_and_save
        if kind == "checkout":
            store, version = s.store, op["version"]
            return lambda: alexdb.reconstruct_version(store, version)
        if kind == "dim_long":
            return lambda: alexdb.krull_dimension(s.long_doc)
        space = self._head_space(s, op["head"])
        if kind == "dim_head":
            return lambda: alexdb.krull_dimension(space)
        window = frozenset(_key((i, 0)) for i in op["window"])
        a, b = _key((op["a"], 0)), _key((op["b"], 0))
        return lambda: alexdb.path_query(space, window, a, b)

    def check(self, s: State, op: dict, result, expected):
        kind = op["op"]
        if kind == "commit":
            got = {name: len(getattr(result, name)) - len(getattr(s.before, name))
                   for name in ("x", "r", "delx", "delr", "atts")}
            if op["edit"].version not in result.vx:
                return f"commit: version {op['edit'].version} missing"
        elif kind == "checkout":
            got = _chain_text(result)
        else:
            got = result
        return None if got == expected else f"{kind}: got {_short(got)}, want {_short(expected)}"


# ---------------------------------------------------------------------------
# cli-lod

_HEADER = re.compile(r"space: (\d+) elements, (\d+) pairs")


class CliLod(Workload):
    """CLI commands, run in process, each loading the pyramid store from disk."""

    name = "cli-lod"

    def setup(self, p: planmod.Plan, workdir: Path) -> State:
        s = State()
        pyr = p.corpus["pyramid"]
        markers = p.corpus["markers"]
        new = {m[1] for m in markers}
        keys = [k for k in pyr.keys if k not in new]
        pairs = [q for q in pyr.pairs if q[1] not in new]
        built = alexdb.new_store("v0", _space(pyr, keys, pairs), _points(pyr, keys))
        parent = "v0"
        for version, marker, face in markers:
            element = alexdb.Element(_key(marker), gen_target=_key(pyr.gen[marker]),
                                     attributes=dict(pyr.attrs[marker]))
            changes = alexdb.changeset(version, add_elements=[element],
                                       add_pairs=[(_key(face), _key(marker))])
            built = alexdb.commit(built, parent, changes, points=_points(pyr, [marker]))
            parent = version
        s.store_dir = workdir / planmod.STORE_NAME
        alexdb.save(built, s.store_dir)
        s.store = alexdb.load(s.store_dir)
        s.head = parent
        alexdb.reconstruct_version(s.store, parent)
        return s

    def validate(self, s: State, p: planmod.Plan) -> list:
        problems = [i.detail for i in alexdb.validate(s.store, ["surjective"])]
        chain = alexdb.chain_from_store(s.store, s.head)
        for lod, report in zip(chain.levels, alexdb.validate_chain(chain)):
            if not (report.continuous and report.surjective) or report.monotonic is False:
                problems.append(f"generalisation map of level {lod} is not continuous, "
                                f"surjective and monotone: {report}")
        return problems

    def argv(self, s: State, op: dict) -> list:
        store, base = str(s.store_dir), str(s.store_dir.parent)
        load = f'load("{planmod.STORE_NAME}")'
        kind = op["op"]
        if kind == "path":
            return ["path", store, op["a"], op["b"], "--region", op["region"]]
        if kind == "qpath":
            return ["query", f"path(select({load}, @{op['region']}), {op['a']}, {op['b']})",
                    "--store", base]
        if kind == "vwp":
            return ["versions-with-path", store, op["a"], op["b"], "--region", op["region"],
                    "--rule", "monotonic"]
        if kind == "qclosure":
            return ["query", f"closure({load}, {{{corpus.name(op['key'])}}})", "--store", base]
        if kind == "slice":
            return ["slice", store, "--at", repr(op["t"])]
        if kind == "telescope":
            return ["query", f"dim(telescope({load}))", "--store", base]
        if kind == "validate":
            return ["validate", store, "--rule", "surjective"]
        if kind == "deep":
            depth = planmod.NESTING_DEPTH
            return ["query", "dim(" * depth + load + ")" * depth, "--store", base]
        return [kind, store]  # dim, reconstruct, export

    def prepare(self, s: State, op: dict):
        argv = self.argv(s, op)

        def command():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = alexdb.cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        return command

    def check(self, s: State, op: dict, result, expected):
        kind = op["op"]
        code, out, err = result
        if kind == "deep":
            ok = code == 1 and "error" in err
            return None if ok else f"deep: exit {code}, stderr {_short(err)}"
        if code != 0:
            return f"{kind}: exit {code}, stderr {_short(err)}"
        lines = out.splitlines()
        if kind in ("slice", "reconstruct"):
            m = _HEADER.match(lines[0]) if lines else None
            got = [int(m.group(1)), int(m.group(2))] if m else lines[:1]
            if m and len(lines) - 1 != got[0]:
                return f"{kind}: {len(lines) - 1} element lines for {got[0]} elements"
        elif kind in ("dim", "telescope"):
            got = int(out) if out.strip().isdigit() else out
        elif kind in ("path", "qpath"):
            got = out.strip()
        else:
            got = lines
        return None if got == expected else f"{kind}: got {_short(got)}, want {_short(expected)}"


def _short(value, limit: int = 120) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


WORKLOADS = {w.name: w for w in (GridRead(), DocumentHistory(), CliLod())}
