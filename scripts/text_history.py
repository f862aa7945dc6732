#!/usr/bin/env python3
"""Commit a seeded text history and save the store after every commit.

The text starts as random letters, spaces, commas, quotes and line ends,
one element per character, chained in reading order.  Each commit inserts
or deletes one character, mostly on the newest version and now and then on
an older one, so the history branches.  Now and then an insert brings back
a character that the parent lacks, under the id and letter it had before,
so some keys are created by several rows.  Before each commit a random
version is checked out and its text compared with the text the script
kept; those picks come from a generator of their own, seeded with
``--seed`` plus one, so the history and the saved store do not depend on
them.  After the last commit the saved store is loaded back and every
version's text is checked against the text the script kept.  Every
version is also read from the last committed store, whose history index
each commit derived, and compared with the version read from the loaded
store's rows: the same space, and the same dimension for each element,
which each index finds along its store's topological order.  The exit
code is 1 on a mismatch.

A store made by ``commit`` writes the CSV lines it derived from its
parent's, so the directory should hold exactly what ``alexdb export --out``
writes for the reloaded store:

    PYTHONPATH=src python scripts/text_history.py --out /tmp/history
    PYTHONPATH=src python -m alexdb.cli export /tmp/history --out /tmp/export
    diff -r /tmp/history /tmp/export
"""
from __future__ import annotations

import argparse
import random
import string
from pathlib import Path

from alexdb import Element, ElementId, changeset, commit, load, new_store, save, text_space
from alexdb.versioning import reconstruct_version

ALPHABET = string.ascii_lowercase + ' ,"\n'


def chain(space) -> list[tuple[str, str]]:
    """The ``(id, letter)`` pairs of a chain space in reading order."""
    nxt = {p.ida: p.idb for p in space.relation}
    (cur,) = set(space.elements) - set(nxt.values())
    out = []
    while cur is not None:
        out.append((cur.id, space.elements[cur].attributes["letter"]))
        cur = nxt.get(cur)
    return out


def read(store, v: str):
    """Version ``v`` of ``store`` and its elements' dimensions, by key."""
    space = reconstruct_version(store, v)
    return space, dict(zip(space.index.keys, space.index.depth))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="store directory to write")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--letters", type=int, default=300)
    parser.add_argument("--commits", type=int, default=120)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    checkouts = random.Random(args.seed + 1)
    text = [(str(i), rng.choice(ALPHABET)) for i in range(1, args.letters + 1)]
    store = new_store("v000", text_space("".join(c for _, c in text), ids=[i for i, _ in text]))
    texts = {"v000": text}
    letters = dict(text)  # every character the history has held, by id
    newest = "v000"
    wrong = set()
    for n in range(1, args.commits + 1):
        v = checkouts.choice(sorted(texts))
        if chain(reconstruct_version(store, v)) != texts[v]:
            wrong.add(v)
        parent = newest if rng.random() < 0.8 else rng.choice(sorted(texts))
        old, version = texts[parent], f"v{n:03d}"
        j = rng.randrange(1, len(old) - 1)  # neither end of the chain moves
        roll = rng.random()
        if roll < 0.5 or len(old) < 4:
            dead = sorted(letters.keys() - {i for i, _ in old})
            if dead and roll < 0.15:  # created again, under its old id
                new_id = rng.choice(dead)
                letter = letters[new_id]
            else:
                new_id, letter = f"n{n}", rng.choice(ALPHABET)
                letters[new_id] = letter
            element = Element(ElementId(new_id), attributes={"letter": letter})
            a, b = old[j - 1][0], old[j][0]
            changes = changeset(version, add_elements=[element],
                                add_pairs=[(a, new_id), (new_id, b)], remove_pairs=[(a, b)])
            texts[version] = old[:j] + [(new_id, letter)] + old[j:]
        else:
            changes = changeset(version, remove_elements=[old[j][0]])
            texts[version] = old[:j] + old[j + 1:]
        store = commit(store, parent, changes)
        save(store, args.out)
        newest = version

    loaded = load(args.out)
    wrong.update(
        v for v in texts
        if chain(reconstruct_version(loaded, v)) != texts[v] or read(store, v) != read(loaded, v)
    )
    print(f"wrote {args.out}: {len(loaded.vx)} versions, {len(wrong)} read back wrong")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
