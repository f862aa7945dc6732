"""Seeded corpus generators: grid complexes, document histories, map pyramids.

Everything here is plain Python data, with no import of the engine, so the
answer oracle (``oracle.py``) can rebuild the same corpus in its own process
and answer independently of the code under test.  A key is an ``(id, lod)``
tuple; a pair ``(a, b)`` reads "a is bounded by b".
"""
from __future__ import annotations

import random
import string
from dataclasses import dataclass, field

Key = tuple  # (id, lod)


def name(key: Key) -> str:
    """How the engine prints a key: the id, with ``:lod`` above level 0."""
    return key[0] if key[1] == 0 else f"{key[0]}:{key[1]}"


@dataclass
class Complex:
    """Elements, bounded-by pairs and the side columns of one store version."""

    keys: list = field(default_factory=list)
    pairs: list = field(default_factory=list)
    attrs: dict = field(default_factory=dict)  # key -> {name: value}
    gen: dict = field(default_factory=dict)  # key -> generalisation target key
    points: dict = field(default_factory=dict)  # key -> (x, y, z, t)


def grid(side: int, rng: random.Random, lod: int = 0, bands: int = 4,
         scale: int = 1, out: Complex | None = None) -> Complex:
    """A ``side`` x ``side``-face grid: vertices, edges and faces.

    Vertex ``v{x}_{y}``; horizontal edge ``h{x}_{y}`` from (x, y) to
    (x+1, y); vertical edge ``u{x}_{y}`` from (x, y) to (x, y+1); face
    ``f{x}_{y}`` with corner (x, y).  Each element carries a ``region``
    attribute naming its column band ``b0`` .. ``b{bands-1}``; each vertex a
    coordinate row whose ``t`` is drawn from the seed.
    """
    c = out if out is not None else Complex()

    def band(x: int) -> str:
        return f"b{min(x * bands // side, bands - 1)}"

    def add(name: str, x: int) -> Key:
        k = (name, lod)
        c.keys.append(k)
        c.attrs[k] = {"region": band(x)}
        return k

    for x in range(side + 1):
        for y in range(side + 1):
            k = add(f"v{x}_{y}", x)
            c.points[k] = (float(x * scale), float(y * scale), 0.0, round(rng.random(), 4))
    for x in range(side):
        for y in range(side + 1):
            k = add(f"h{x}_{y}", x)
            c.pairs += [(k, (f"v{x}_{y}", lod)), (k, (f"v{x + 1}_{y}", lod))]
    for x in range(side + 1):
        for y in range(side):
            k = add(f"u{x}_{y}", x)
            c.pairs += [(k, (f"v{x}_{y}", lod)), (k, (f"v{x}_{y + 1}", lod))]
    for x in range(side):
        for y in range(side):
            k = add(f"f{x}_{y}", x)
            c.pairs += [
                (k, (f"h{x}_{y}", lod)),
                (k, (f"h{x}_{y + 1}", lod)),
                (k, (f"u{x}_{y}", lod)),
                (k, (f"u{x + 1}_{y}", lod)),
            ]
    return c


def band_keys(c: Complex, names) -> list:
    """Keys whose ``region`` attribute is one of ``names``, in key order."""
    names = set(names)
    return [k for k in c.keys if c.attrs.get(k, {}).get("region") in names]


def _coarse_cell(name: str, lod: int) -> Key:
    """Where a cell of a grid lands on the grid coarsened 2 x 2.

    A cell with even coordinates along an axis sits on a coarse line there;
    with an odd one it sits strictly inside a coarse cell.  The result is a
    cellular map: continuous, surjective and monotone.
    """
    kind, rest = name[0], name[1:]
    x, y = (int(v) for v in rest.split("_"))
    if kind == "v":
        ex, ey = x % 2 == 0, y % 2 == 0
        if ex and ey:
            return (f"v{x // 2}_{y // 2}", lod)
        if ex:
            return (f"u{x // 2}_{y // 2}", lod)
        if ey:
            return (f"h{x // 2}_{y // 2}", lod)
        return (f"f{x // 2}_{y // 2}", lod)
    if kind == "h":
        return (f"h{x // 2}_{y // 2}", lod) if y % 2 == 0 else (f"f{x // 2}_{y // 2}", lod)
    if kind == "u":
        return (f"u{x // 2}_{y // 2}", lod) if x % 2 == 0 else (f"f{x // 2}_{y // 2}", lod)
    return (f"f{x // 2}_{y // 2}", lod)


def pyramid(side0: int, levels: int, rng: random.Random) -> Complex:
    """A map pyramid: level 0 is a grid, each next level is it coarsened 2 x 2.

    Every element of level l < levels-1 generalises onto level l+1 by
    ``_coarse_cell``.  Only level 0 carries regions: ``A`` holds column
    bands 0 and 2, ``B`` bands 1 and 3, so each region has two components.
    """
    c = Complex()
    for lod in range(levels):
        side = side0 >> lod
        start = len(c.keys)
        grid(side, rng, lod=lod, bands=4, scale=1 << lod, out=c)
        for k in c.keys[start:]:
            if lod == 0:
                band = int(c.attrs[k]["region"][1:])
                c.attrs[k] = {"region": "A" if band % 2 == 0 else "B", "band": band}
            else:
                c.attrs[k] = {}
            if lod + 1 < levels:
                c.gen[k] = _coarse_cell(k[0], lod + 1)
    return c


def add_marker(c: Complex, name: str, face: Key, rng: random.Random) -> Key:
    """A point feature inside a level-0 face: the face is bounded by it.

    It generalises where the face does and shares its region, so the maps
    stay continuous, surjective and monotone.
    """
    k = (name, face[1])
    c.keys.append(k)
    c.pairs.append((face, k))
    c.attrs[k] = dict(c.attrs[face])
    c.gen[k] = c.gen[face]
    x, y = (int(v) for v in face[0][1:].split("_"))
    c.points[k] = (x + 0.5, y + 0.5, 0.0, round(rng.random(), 4))
    return k


# ---------------------------------------------------------------------------
# documents


def letters(n: int, rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(n))


def document(n: int, rng: random.Random, prefix: str = "c") -> list:
    """A text as ``(id, letter)`` pairs in reading order."""
    return [(f"{prefix}{i}", ch) for i, ch in enumerate(letters(n, rng))]


@dataclass(frozen=True)
class Edit:
    """One committed one-letter edit: insert ``letter`` at ``index`` or delete there."""

    version: str
    parent: str
    kind: str  # "insert" | "delete"
    index: int
    new_id: str = ""
    letter: str = ""


def edit_text(text: list, e: Edit) -> list:
    """The document after ``e``; ``text`` is the parent's ``(id, letter)`` list."""
    if e.kind == "insert":
        return text[: e.index] + [(e.new_id, e.letter)] + text[e.index:]
    return text[: e.index] + text[e.index + 1:]


def draw_edit(rng: random.Random, version: str, parent: str, text: list) -> Edit:
    """An interior insert or delete, so neither end of the chain moves."""
    if rng.random() < 0.5 or len(text) < 4:
        return Edit(version, parent, "insert", rng.randint(1, len(text) - 1),
                    f"n_{version}", rng.choice(string.ascii_lowercase))
    return Edit(version, parent, "delete", rng.randint(1, len(text) - 2))


def history(base: list, n_edits: int, rng: random.Random, branch_rate: float = 0.25,
            prefix: str = "v", first: int = 1, head: str = "v0",
            texts: dict | None = None):
    """``n_edits`` edits on top of ``base`` (version ``head``).

    About ``branch_rate`` of them branch off a random older version; the
    others extend the head.  Returns the edits, the text of every version
    and the final head.
    """
    texts = dict(texts or {head: base})
    edits = []
    for i in range(first, first + n_edits):
        v = f"{prefix}{i}"
        older = [w for w in texts if w != head]
        branch = older and rng.random() < branch_rate
        parent = rng.choice(sorted(older)) if branch else head
        e = draw_edit(rng, v, parent, texts[parent])
        edits.append(e)
        texts[v] = edit_text(texts[parent], e)
        if not branch:
            head = v
    return edits, texts, head
