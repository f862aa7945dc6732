"""Command-line front end.

``query`` evaluates a composable query expression.  ``dim``, ``slice``,
``reconstruct``, ``merge``, ``path`` and ``telescope`` are shorthand for a
query: each builds the expression tree from its arguments and evaluates it
the same way.  ``validate``, ``versions-with-path`` and ``export`` call the
library directly.  Exit codes: 0 on success (reports with findings still
exit 0 — the run itself succeeded), 1 on a domain error (bad store, unknown
element, discontinuous map, ...), 2 on usage errors.  The argument parser is
built once per process, so ``main`` may be called again and again in one;
each call runs with the cyclic garbage collector paused and leaves it as
it found it (see ``main``).
"""
from __future__ import annotations

import argparse
import csv
import functools
import gc
import sys
from operator import attrgetter
from pathlib import Path

from . import query as querymod
from . import storage
from .algebra import SpaceMap
from .errors import AlexdbError, QueryParseError, StoreFormatError
from .topology import ElementId, Space, classify, krull_dimension
from .versioning import ConflictReport, reconstruct_version


def _parse_element(text: str) -> ElementId:
    name, sep, lod = text.rpartition(":")
    if sep and lod.isdigit():
        return ElementId(name, int(lod))
    return ElementId(text, 0)


# ---------------------------------------------------------------------------
# rendering


def _space_summary(space: Space, out) -> None:
    try:
        dim = krull_dimension(space) if space.elements else None
    except AlexdbError:
        dim = None
    head = f"space: {len(space.elements)} elements, {len(space.relation)} pairs"
    if dim is not None:
        head += f", dimension {dim}"
    print(head, file=out)
    for k in sorted(space.elements):
        print(f"  {k} [{classify(space, k)}]", file=out)


def _space_tables(space: Space) -> tuple[list[list[str]], list[list[str]]]:
    """Header and rows of the element table and of the pair table."""
    elements = [["id", "lod", "kind"]] + [
        [k.id, str(k.lod), classify(space, k)] for k in sorted(space.elements)
    ]
    pairs = [["ida", "alod", "idb", "blod"]] + [
        [p.ida.id, str(p.ida.lod), p.idb.id, str(p.idb.lod)] for p in sorted(space.relation)
    ]
    return elements, pairs


def _space_csv(space: Space, points, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    elements, pairs = _space_tables(space)
    writer.writerows(elements)
    writer.writerow([])
    writer.writerows(pairs)
    points = sorted(points, key=attrgetter("key"))
    if points:
        writer.writerow([])
        writer.writerow(["pid", "lod", "x", "y", "z", "t"])
        for p in points:
            writer.writerow(
                [p.key.id, str(p.key.lod), repr(p.x), repr(p.y), repr(p.z), repr(p.t)]
            )


def _write_space_csv(space: Space, outdir: Path) -> None:
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise StoreFormatError(
            f"cannot write into {outdir}: it or a directory above it is a file"
        ) from None
    for name, rows in zip(("Elements.csv", "Pairs.csv"), _space_tables(space)):
        with open(outdir / name, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)


def _print_report(report: ConflictReport) -> None:
    for c in report.inherent:
        print(f"inherent: {c.subject} {c.attribute}: {c.value_a!r} != {c.value_b!r}")
    for c in report.consistency:
        print(f"consistency[{c.rule}]: {c.detail}")
    if report.ok:
        print("no conflicts")


def _render_value(value, args) -> None:
    """Print a query result; a space goes to ``--out`` when given, else to
    stdout in the ``--format`` chosen (commands without one print none)."""
    if isinstance(value, querymod.StoreView):
        value = value.value
    if isinstance(value, querymod.MergeValue):
        _print_report(value.report)
        value = value.value
    if isinstance(value, querymod.SpaceValue):
        points = list(value.points.values())
        out = getattr(args, "out", None)
        fmt = getattr(args, "format", None)
        if out is not None:
            outdir = Path(out)
            if any(a.lod != b.lod for a, b in value.space.relation):
                # stored pairs are per-level, so these fall back to the generic layout
                _write_space_csv(value.space, outdir)
            else:
                storage.save(storage.new_store(value.version, value.space, points), outdir)
            print(f"wrote {outdir}")
        elif fmt == "csv":
            _space_csv(value.space, points, sys.stdout)
        elif fmt == "summary":
            _space_summary(value.space, sys.stdout)
        return
    if isinstance(value, bool):
        print("Yes" if value else "No")
        return
    if isinstance(value, frozenset):
        for item in sorted(str(v) for v in value):
            print(item)
        if not value:
            print("(empty)")
        return
    if isinstance(value, SpaceMap):
        for source in sorted(value.mapping):
            print(f"{source} -> {value.mapping[source]}")
        if not value.mapping:
            print("(empty)")
        return
    print(value)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    store = storage.load(args.store)
    issues = storage.validate(store, args.rule)
    for issue in issues:
        print(f"{issue.rule} [{issue.subject}]: {issue.detail}")
    if not issues:
        print("ok")
    return 0


def _cmd_versions_with_path(args) -> int:
    store = storage.load(args.store)
    a = _parse_element(args.a)
    b = _parse_element(args.b)
    region = storage.region_elements(store, args.region) | {a, b}
    versions = storage.versions_with_path(store, a, b, region, args.rule)
    for v in sorted(versions):
        print(v)
    if not versions:
        print("(none)")
    return 0


def _cmd_export(args) -> int:
    store = storage.load(args.store)
    if args.out is not None:
        storage.save(store, Path(args.out))
        print(f"wrote {args.out}")
        return 0
    print(
        f"store: {len(store.vx)} versions, {len(store.x)} element rows, "
        f"{len(store.r)} pair rows, {len(store.point)} coordinate rows"
    )
    for v in store.vx:
        space = reconstruct_version(store, v)
        print(f"  {v}: {len(space.elements)} elements, {len(space.relation)} pairs")
    return 0


def _load(store: str) -> querymod.Call:
    return querymod.Call("load", (querymod.StringLit(store),))


def _element(text: str) -> querymod.Ident:
    key = _parse_element(text)
    return querymod.Ident(key.id, key.lod)


#: Subcommands that are shorthand for a query: each builds the query's tree.
_QUERIES = {
    "dim": lambda args: querymod.Call("dim", (_load(args.store),)),
    "slice": lambda args: querymod.Call(
        "slice", (_load(args.store),), (("t", querymod.NumberLit(args.at)),)
    ),
    "reconstruct": lambda args: _load(args.store),
    "merge": lambda args: querymod.Call("merge", (_load(args.store_a), _load(args.store_b))),
    "path": lambda args: querymod.Call(
        "path",
        (_load(args.store), _element(args.a), _element(args.b)),
        () if args.region is None else (("region", querymod.RegionRef(args.region)),),
    ),
    "telescope": lambda args: querymod.Call("telescope", (_load(args.store),)),
}


def _evaluate(expr: querymod.Expr, args, base_dir: Path) -> int:
    ctx = querymod.EvalContext(
        base_dir=base_dir,
        version=getattr(args, "version", None),
        rules=tuple(getattr(args, "rule", ())),
    )
    _render_value(querymod.evaluate(expr, ctx), args)
    return 0


def _cmd_shorthand(args) -> int:
    # store paths stay as given, so error messages name them as typed
    return _evaluate(_QUERIES[args.command](args), args, Path("."))


def _cmd_query(args) -> int:
    try:
        expr = querymod.parse(args.expression)
    except QueryParseError as exc:
        print(f"parse error at {exc.position}: {exc}", file=sys.stderr)
        print(args.expression, file=sys.stderr)
        print(" " * exc.position + "^", file=sys.stderr)
        return 1
    return _evaluate(expr, args, Path(args.store) if args.store else Path("."))


# ---------------------------------------------------------------------------
# argument parsing


_RULE_HELP = "consistency rule: t0, linear-dag, surjective or monotonic (repeatable)"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    parsing leaves it as it was (an ``append`` option copies its default
    list before adding to it)."""
    parser = argparse.ArgumentParser(
        prog="alexdb",
        description="Topological-relational store: space, time, versions, levels of detail.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("validate", _cmd_validate, "check store consistency")
    p.add_argument("store")
    p.add_argument("--rule", action="append", default=[], help=_RULE_HELP)

    p = add("dim", _cmd_shorthand, "dimension of a version's space")
    p.add_argument("store")
    p.add_argument("--version")

    p = add("slice", _cmd_shorthand, "snapshot of a space-time complex at a time")
    p.add_argument("store")
    p.add_argument("--at", type=float, required=True, help="time value")
    p.add_argument("--version")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "summary"], default="summary")

    p = add("reconstruct", _cmd_shorthand, "materialise one version")
    p.add_argument("store")
    p.add_argument("--version")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "summary"], default="summary")

    p = add("merge", _cmd_shorthand, "merge the latest versions of two stores")
    p.add_argument("store_a")
    p.add_argument("store_b")
    p.add_argument("--rule", action="append", default=[], help=_RULE_HELP)
    p.add_argument("--out")

    p = add("path", _cmd_shorthand, "is there a path between two elements within a region")
    p.add_argument("store")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--region", help="region attribute value; default: whole space")
    p.add_argument("--version")

    p = add("versions-with-path", _cmd_versions_with_path, "versions in which a path exists")
    p.add_argument("store")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--region")
    p.add_argument(
        "--rule", action="append", default=[],
        help="monotonic: answer through the coarse level first (repeatable)",
    )

    p = add("telescope", _cmd_shorthand, "stack all levels of detail into one space")
    p.add_argument("store")
    p.add_argument("--version")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "summary"], default="summary")

    p = add("export", _cmd_export, "canonical copy or summary of a store")
    p.add_argument("store")
    p.add_argument("--out")

    p = add("query", _cmd_query, "evaluate a composable query expression")
    p.add_argument("expression")
    p.add_argument("--store", help="base directory for load(...) paths")
    p.add_argument("--version")
    p.add_argument("--rule", action="append", default=[])
    p.add_argument("--format", choices=["csv", "summary"], default="summary")

    return parser


def main(argv=None) -> int:
    """Run one command; its exit code, or ``SystemExit`` from argparse.

    The whole command, from argument parsing to rendering, runs with the
    cyclic garbage collector paused: what a command builds (store rows,
    history index, spaces) holds no reference cycle and dies by reference
    counting when the command ends, so collections inside it would only
    scan those objects while they are built.  On the way out, however it
    ends, the collector is enabled again only if it was enabled on entry.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parser().parse_args(argv)
        try:
            return args.func(args)
        except AlexdbError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
