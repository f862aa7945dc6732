"""A small composable query language over spaces and stores.

Queries are written in function-call form and nest up to ``MAX_NESTING``
levels deep::

    dim(load("lineland"))
    slice(load("lineland"), t=0.5)
    path(select(load("demo"), @core), a, b, region=@core)
    closure(space({v, e}, {e -> v}), {e})

Atoms are element names (``wall`` or ``wall:2`` with an explicit level,
quoted when they contain unusual characters), numbers, strings, ``@name``
region references (all elements whose ``region`` attribute equals the
name), ``a -> b`` pairs, and ``{...}`` set literals.  ``parse`` produces an
AST, ``print_expr`` renders the canonical form (sorted set members and
keyword arguments), and ``evaluate`` maps each node onto the corresponding
library operation.  Parsing an expression that is already canonical and
printing it again returns the same text.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Union

from . import storage
from .algebra import (
    SpaceMap,
    disjoint_union,
    image_space,
    product,
    pullback,
    quotient,
    select_subspace,
)
from .errors import NotFoundError, QueryEvalError, QueryParseError
from .lod import _telescope, path_query
from .spacetime import PointRow, time_slice
from .topology import (
    BoundedByPair,
    Element,
    ElementId,
    Space,
    build_space,
    closure,
    krull_dimension,
    star,
)
from .versioning import ConflictReport, merge

Expr = Union["Ident", "StringLit", "NumberLit", "RegionRef", "PairLit", "SetLit", "Call"]


# ---------------------------------------------------------------------------
# abstract syntax


@dataclass(frozen=True)
class Ident:
    name: str
    lod: int | None = None


@dataclass(frozen=True)
class StringLit:
    value: str


@dataclass(frozen=True)
class NumberLit:
    value: int | float


@dataclass(frozen=True)
class RegionRef:
    name: str


@dataclass(frozen=True)
class PairLit:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class SetLit:
    items: tuple[Expr, ...]


@dataclass(frozen=True)
class Call:
    op: str
    args: tuple[Expr, ...] = ()
    kwargs: tuple[tuple[str, Expr], ...] = ()


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<arrow>->)
    | (?P<num>-?\d+\.\d*(?:[eE][+-]?\d+)?|-?\d+[eE][+-]?\d+|-?\.\d+|-?\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<punct>[(){},:=@])
    """,
    re.VERBOSE,
)

_BARE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*\Z")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QueryParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


def _unquote(raw: str, pos: int) -> str:
    body = raw[1:-1]
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            if i + 1 >= len(body) or body[i + 1] not in '"\\':
                raise QueryParseError("bad escape in string literal", pos + i + 1)
            out.append(body[i + 1])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# parser


#: Deepest nesting of calls and set literals a query may have.  Parsing,
#: printing and evaluating all recurse once per level, so this keeps each
#: of them well below the interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise QueryParseError(f"expected {want!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.take()

    def parse(self) -> Expr:
        expr = self.value()
        tok = self.peek()
        if tok.kind != "eof":
            raise QueryParseError(f"unexpected trailing {tok.text!r}", tok.pos)
        return expr

    def value(self) -> Expr:
        left = self.operand()
        if self.peek().kind == "arrow":
            self.take()
            right = self.operand()
            return PairLit(left, right)
        return left

    def nest(self) -> None:
        """Enter one more call or set literal, refusing excessive depth."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise QueryParseError(
                f"query nested deeper than {MAX_NESTING} levels", self.peek().pos
            )

    def operand(self) -> Expr:
        tok = self.peek()
        if tok.kind == "ident":
            nxt = self.tokens[self.i + 1]
            if nxt.kind == "punct" and nxt.text == "(":
                return self.call()
            return self.atom()
        if tok.kind in ("string", "num"):
            return self.atom()
        if tok.kind == "punct" and tok.text == "@":
            self.take()
            name = self.expect("ident")
            return RegionRef(name.text)
        if tok.kind == "punct" and tok.text == "{":
            return self.set_literal()
        raise QueryParseError(f"expected a value, found {tok.text or 'end of input'!r}", tok.pos)

    def call(self) -> Expr:
        self.nest()
        op = self.take().text
        self.expect("punct", "(")
        args: list[Expr] = []
        kwargs: list[tuple[str, Expr]] = []
        if not (self.peek().kind == "punct" and self.peek().text == ")"):
            while True:
                tok = self.peek()
                nxt = self.tokens[self.i + 1]
                if tok.kind == "ident" and nxt.kind == "punct" and nxt.text == "=":
                    name = self.take().text
                    self.take()  # '='
                    if any(k == name for k, _ in kwargs):
                        raise QueryParseError(f"duplicate keyword argument {name!r}", tok.pos)
                    kwargs.append((name, self.value()))
                else:
                    if kwargs:
                        raise QueryParseError(
                            "positional argument after keyword argument", tok.pos
                        )
                    args.append(self.value())
                if self.peek().kind == "punct" and self.peek().text == ",":
                    self.take()
                    continue
                break
        self.expect("punct", ")")
        self.depth -= 1
        return Call(op, tuple(args), tuple(kwargs))

    def atom(self) -> Expr:
        tok = self.take()
        if tok.kind == "num":
            text = tok.text
            value: int | float = float(text) if any(c in text for c in ".eE") else int(text)
            return NumberLit(value)
        if tok.kind == "string":
            name = _unquote(tok.text, tok.pos)
            if self.peek().kind == "punct" and self.peek().text == ":":
                self.take()
                lod = self.expect("num")
                return Ident(name, self._lod_value(lod))
            return StringLit(name)
        if tok.kind == "ident":
            if self.peek().kind == "punct" and self.peek().text == ":":
                self.take()
                lod = self.expect("num")
                return Ident(tok.text, self._lod_value(lod))
            return Ident(tok.text)
        raise QueryParseError(f"expected a value, found {tok.text!r}", tok.pos)

    def set_literal(self) -> Expr:
        self.nest()
        self.expect("punct", "{")
        items: list[Expr] = []
        if not (self.peek().kind == "punct" and self.peek().text == "}"):
            while True:
                items.append(self.value())
                if self.peek().kind == "punct" and self.peek().text == ",":
                    self.take()
                    continue
                break
        self.expect("punct", "}")
        self.depth -= 1
        return SetLit(tuple(items))

    @staticmethod
    def _lod_value(tok: _Token) -> int:
        try:
            lod = int(tok.text)
        except ValueError:
            raise QueryParseError("level tag must be an integer", tok.pos) from None
        if lod < 0:
            raise QueryParseError("level tag must be non-negative", tok.pos)
        return lod


def parse(text: str) -> Expr:
    """Parse query text into an expression tree."""
    return _Parser(text).parse()


def print_expr(expr: Expr) -> str:
    """Canonical text of an expression: sorted sets and keyword arguments."""
    if isinstance(expr, Ident):
        name = expr.name if _BARE_NAME.match(expr.name) else _quote(expr.name)
        return name if expr.lod is None else f"{name}:{expr.lod}"
    if isinstance(expr, StringLit):
        return _quote(expr.value)
    if isinstance(expr, NumberLit):
        return repr(expr.value)
    if isinstance(expr, RegionRef):
        return f"@{expr.name}"
    if isinstance(expr, PairLit):
        return f"{print_expr(expr.left)} -> {print_expr(expr.right)}"
    if isinstance(expr, SetLit):
        return "{" + ", ".join(sorted(print_expr(e) for e in expr.items)) + "}"
    if isinstance(expr, Call):
        parts = [print_expr(a) for a in expr.args]
        parts += [f"{k}={print_expr(v)}" for k, v in sorted(expr.kwargs)]
        return f"{expr.op}(" + ", ".join(parts) + ")"
    raise TypeError(f"not an expression: {expr!r}")


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class SpaceValue:
    """A space plus whatever coordinate rows still apply to its elements.

    ``version`` names the store version the space was derived from
    (``"merged"`` for a merge result), or is None for a space built by the
    query itself.
    """

    space: Space
    points: Mapping[ElementId, PointRow] = field(default_factory=dict)
    version: str | None = None


@dataclass(frozen=True)
class StoreView:
    """A loaded store pinned to one version."""

    store: storage.VersionStore
    version: str
    value: SpaceValue


@dataclass(frozen=True)
class MergeValue:
    value: SpaceValue
    report: ConflictReport


@dataclass(frozen=True)
class EvalContext:
    base_dir: Path = Path(".")
    store: storage.VersionStore | None = None
    version: str | None = None
    rules: tuple[str, ...] = ()


class _Eval:
    def __init__(self, ctx: EvalContext):
        self.ctx = ctx

    # -- helpers ----------------------------------------------------------

    def fail(self, message: str, path: tuple) -> QueryEvalError:
        return QueryEvalError(message, path)

    def misuse(self, op: Callable, path: tuple, *args):
        """``op(*args)``, reporting its ``ValueError`` (overlapping classes,
        a partial map, maps into different targets) as a query error."""
        try:
            return op(*args)
        except ValueError as exc:
            raise self.fail(str(exc), path) from None

    def as_space_value(self, value, path) -> SpaceValue:
        if isinstance(value, StoreView):
            return value.value
        if isinstance(value, MergeValue):
            return value.value
        if isinstance(value, SpaceValue):
            return value
        raise self.fail(f"expected a space, got {_kind(value)}", path)

    def as_element(self, value, path) -> ElementId:
        if isinstance(value, ElementId):
            return value
        if isinstance(value, str):
            return ElementId(value, 0)
        if isinstance(value, int):
            return ElementId(str(value), 0)
        raise self.fail(f"expected an element, got {_kind(value)}", path)

    def as_key_set(self, node: Expr, space_value: SpaceValue, path) -> frozenset[ElementId]:
        value = self.eval(node, path)
        if isinstance(value, RegionRef):
            return resolve_region(value.name, space_value.space)
        if isinstance(value, frozenset):
            return frozenset(self.as_element(v, path) for v in value)
        raise self.fail(f"expected an element set, got {_kind(value)}", path)

    def as_map(self, value, path) -> SpaceMap:
        if isinstance(value, SpaceMap):
            return value
        raise self.fail(f"expected a mapping, got {_kind(value)}", path)

    def as_pair_set(self, value, path) -> frozenset[tuple[ElementId, ElementId]]:
        if not isinstance(value, frozenset):
            raise self.fail(f"expected a set of pairs, got {_kind(value)}", path)
        pairs = []
        for item in value:
            # a key is a 2-tuple too: only a pair literal's plain tuple qualifies
            if isinstance(item, ElementId) or not (isinstance(item, tuple) and len(item) == 2):
                raise self.fail("expected pairs written as a -> b", path)
            pairs.append((self.as_element(item[0], path), self.as_element(item[1], path)))
        return frozenset(pairs)

    # -- dispatch ----------------------------------------------------------

    def eval(self, node: Expr, path: tuple = ()):  # noqa: C901 - plain dispatch
        if isinstance(node, Ident):
            return ElementId(node.name, node.lod or 0)
        if isinstance(node, StringLit):
            return node.value
        if isinstance(node, NumberLit):
            return node.value
        if isinstance(node, RegionRef):
            return node
        if isinstance(node, PairLit):
            return (
                self.eval(node.left, path + ("pair",)),
                self.eval(node.right, path + ("pair",)),
            )
        if isinstance(node, SetLit):
            return frozenset(self.eval(item, path + ("set",)) for item in node.items)
        if isinstance(node, Call):
            handler = getattr(self, f"op_{node.op.replace('-', '_')}", None)
            if handler is None:
                raise self.fail(f"unknown operation {node.op!r}", path + (node.op,))
            return handler(node, path + (node.op,))
        raise self.fail(f"cannot evaluate {node!r}", path)

    def arity(self, node: Call, path, low: int, high: int, keywords: tuple[str, ...] = ()):
        if not (low <= len(node.args) <= high):
            raise self.fail(
                f"{node.op} takes {low}"
                + (f" to {high}" if high != low else "")
                + f" positional arguments, got {len(node.args)}",
                path,
            )
        for name, _ in node.kwargs:
            if name not in keywords:
                raise self.fail(f"{node.op} got unexpected keyword {name!r}", path)

    def kwarg(self, node: Call, name: str) -> Expr | None:
        for k, v in node.kwargs:
            if k == name:
                return v
        return None

    # -- operations --------------------------------------------------------

    def op_load(self, node: Call, path):
        self.arity(node, path, 1, 1, ("version",))
        raw = self.eval(node.args[0], path)
        if not isinstance(raw, str):
            raise self.fail("load expects a quoted store path", path)
        directory = Path(raw)
        if not directory.is_absolute():
            directory = self.ctx.base_dir / directory
        store = storage.load(directory)
        version = self.ctx.version
        vnode = self.kwarg(node, "version")
        if vnode is not None:
            version = self.eval(vnode, path)
            if isinstance(version, ElementId):
                version = version.id
            if not isinstance(version, str):
                raise self.fail("version must be a string", path)
        version = self.pick_version(store, version, path)
        space = storage.reconstruct_version(store, version)
        points = {p.key: p for p in store.point if p.key in space}
        return StoreView(store, version, SpaceValue(space, points, version))

    def pick_version(self, store: storage.VersionStore, version: str | None, path) -> str:
        """The version a ``load`` reads: the explicit one (``version=...``,
        else the context's), else the store's only version, else the unique
        sink of its version DAG."""
        if version is not None:
            if version not in store.vx:
                raise NotFoundError(f"unknown version {version!r}")
            return version
        if len(store.vx) == 1:
            return store.vx[0]
        sources = {a for a, _ in store.vr}
        sinks = [v for v in store.vx if v not in sources]
        if len(sinks) == 1:
            return sinks[0]
        raise self.fail("store has several latest versions; name the version to read", path)

    def op_space(self, node: Call, path):
        self.arity(node, path, 1, 2)
        raw_elements = self.eval(node.args[0], path)
        if not isinstance(raw_elements, frozenset):
            raise self.fail("space expects a set of elements", path)
        keys = [self.as_element(v, path) for v in raw_elements]
        pairs: frozenset[tuple[ElementId, ElementId]] = frozenset()
        if len(node.args) == 2:
            pairs = self.as_pair_set(self.eval(node.args[1], path), path)
        space = build_space(
            (Element(k) for k in sorted(keys)),
            (BoundedByPair(a, b) for a, b in pairs),
        )
        return SpaceValue(space)

    def op_map(self, node: Call, path):
        self.arity(node, path, 3, 3)
        source = self.as_space_value(self.eval(node.args[0], path), path)
        target = self.as_space_value(self.eval(node.args[1], path), path)
        pairs = sorted(self.as_pair_set(self.eval(node.args[2], path), path))
        mapping = dict(pairs)
        if len(mapping) < len(pairs):  # the smallest element sent to two targets
            a = next(a for (a, _), (b, _) in zip(pairs, pairs[1:]) if a == b)
            targets = [str(t) for s, t in pairs if s == a]
            raise self.fail(f"map sends {a} to several targets: {targets}", path)
        return SpaceMap(source.space, target.space, mapping)

    def op_select(self, node: Call, path):
        self.arity(node, path, 2, 2)
        sv = self.as_space_value(self.eval(node.args[0], path), path)
        keep = self.as_key_set(node.args[1], sv, path)
        space = select_subspace(sv.space, keep)
        return SpaceValue(space, {k: p for k, p in sv.points.items() if k in space}, sv.version)

    def op_product(self, node: Call, path):
        self.arity(node, path, 2, 2)
        a = self.as_space_value(self.eval(node.args[0], path), path)
        b = self.as_space_value(self.eval(node.args[1], path), path)
        return SpaceValue(product(a.space, b.space))

    def op_quotient(self, node: Call, path):
        self.arity(node, path, 2, 2)
        sv = self.as_space_value(self.eval(node.args[0], path), path)
        raw = self.eval(node.args[1], path)
        if not isinstance(raw, frozenset):
            raise self.fail("quotient expects a set of class sets", path)
        classes = []
        for item in raw:
            if not isinstance(item, frozenset):
                raise self.fail("quotient classes must be sets", path)
            classes.append(frozenset(self.as_element(v, path) for v in item))
        classes.sort(key=sorted)  # set order varies by process: report one overlap
        return SpaceValue(self.misuse(quotient, path, sv.space, classes))

    def op_union(self, node: Call, path):
        self.arity(node, path, 1, 64)
        parts = [
            self.as_space_value(self.eval(arg, path), path).space for arg in node.args
        ]
        return SpaceValue(disjoint_union(parts))

    def op_image(self, node: Call, path):
        self.arity(node, path, 1, 1)
        f = self.as_map(self.eval(node.args[0], path), path)
        return SpaceValue(self.misuse(image_space, path, f))

    def op_pullback(self, node: Call, path):
        self.arity(node, path, 2, 2)
        f = self.as_map(self.eval(node.args[0], path), path)
        g = self.as_map(self.eval(node.args[1], path), path)
        return SpaceValue(self.misuse(pullback, path, f, g))

    def op_slice(self, node: Call, path):
        self.arity(node, path, 1, 1, ("t",))
        sv = self.as_space_value(self.eval(node.args[0], path), path)
        tnode = self.kwarg(node, "t")
        if tnode is None:
            raise self.fail("slice requires t=<time>", path)
        t = self.eval(tnode, path)
        if not isinstance(t, (int, float)):
            raise self.fail("t must be a number", path)
        space = time_slice(sv.space, sv.points.values(), float(t))
        return SpaceValue(space, {k: p for k, p in sv.points.items() if k in space}, sv.version)

    def op_closure(self, node: Call, path):
        return self._hull(node, path, closure)

    def op_star(self, node: Call, path):
        return self._hull(node, path, star)

    def _hull(self, node: Call, path, op: Callable):
        self.arity(node, path, 2, 2)
        sv = self.as_space_value(self.eval(node.args[0], path), path)
        keys = self.as_key_set(node.args[1], sv, path)
        return frozenset(op(sv.space, keys))

    def op_dim(self, node: Call, path):
        self.arity(node, path, 1, 1)
        sv = self.as_space_value(self.eval(node.args[0], path), path)
        return krull_dimension(sv.space)

    def op_merge(self, node: Call, path):
        self.arity(node, path, 2, 2, ("rules",))
        a = self.as_space_value(self.eval(node.args[0], path), path)
        b = self.as_space_value(self.eval(node.args[1], path), path)
        rules: tuple[str, ...] = self.ctx.rules
        rnode = self.kwarg(node, "rules")
        if rnode is not None:
            raw = self.eval(rnode, path)
            if not isinstance(raw, frozenset) or not all(isinstance(r, str) for r in raw):
                raise self.fail("rules must be a set of rule-name strings", path)
            rules = tuple(sorted(raw))
        space, report = merge(a.space, b.space, rules)
        return MergeValue(SpaceValue(space, version="merged"), report)

    def op_path(self, node: Call, path):
        self.arity(node, path, 3, 3, ("region",))
        sv = self.as_space_value(self.eval(node.args[0], path), path)
        a = self.as_element(self.eval(node.args[1], path), path)
        b = self.as_element(self.eval(node.args[2], path), path)
        rnode = self.kwarg(node, "region")
        if rnode is None:
            region = frozenset(sv.space.keys())
        else:
            region = self.as_key_set(rnode, sv, path)
        return path_query(sv.space, region, a, b)

    def op_telescope(self, node: Call, path):
        self.arity(node, path, 1, 1)
        value = self.eval(node.args[0], path)
        if not isinstance(value, StoreView):
            raise self.fail("telescope expects a loaded store", path)
        return SpaceValue(_telescope(value.value.space), version=value.version)


def resolve_region(name: str, *spaces: Space) -> frozenset[ElementId]:
    """Keys of the elements whose ``region`` attribute equals ``name``, in
    any of ``spaces``; ``NotFoundError`` when there are none."""
    keys = frozenset(
        k for s in spaces for k, e in s.elements.items() if e.attributes.get("region") == name
    )
    if not keys:
        raise NotFoundError(f"no elements carry region={name!r}")
    return keys


def _kind(value) -> str:
    names = {
        SpaceValue: "a space",
        StoreView: "a store",
        MergeValue: "a merge result",
        SpaceMap: "a mapping",
        ElementId: "an element",
        RegionRef: "a region reference",
        frozenset: "a set",
        bool: "a flag",
        int: "a number",
        float: "a number",
        str: "a string",
    }
    return names.get(type(value), type(value).__name__)


def evaluate(text_or_expr: str | Expr, ctx: EvalContext | None = None):
    """Evaluate query text (or a parsed expression) against a context."""
    expr = parse(text_or_expr) if isinstance(text_or_expr, str) else text_or_expr
    return _Eval(ctx or EvalContext()).eval(expr)
