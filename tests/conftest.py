from __future__ import annotations

import pickle
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from alexdb import BoundedByPair, Element, ElementId, Space, build_space, new_store, save, simple_space
from alexdb import versioning
from alexdb.cli import _write_space_csv
from alexdb.lod import telescope_fiber

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xA1EC5)


@pytest.fixture
def rule_registry(monkeypatch) -> dict:
    """The consistency-rule registry, as a copy that the test may register
    rules into; the registry is as it was once the test ends."""
    monkeypatch.setattr(versioning, "_RULES", dict(versioning._RULES))
    return versioning._RULES


@st.composite
def spaces(draw, max_elements: int = 8, min_elements: int = 1) -> Space:
    """Random T0 spaces: forward edges over an ordered element list."""
    n = draw(st.integers(min_elements, max_elements))
    keys = [f"e{i}" for i in range(n)]
    possible = [(keys[i], keys[j]) for i in range(n) for j in range(i + 1, n)]
    if possible:
        chosen = draw(st.sets(st.sampled_from(possible)))
    else:
        chosen = set()
    return simple_space(keys, chosen)


@st.composite
def spaces_with_subset(draw, max_elements: int = 8):
    space = draw(spaces(max_elements))
    keys = sorted(space.keys())
    subset = draw(st.sets(st.sampled_from(keys))) if keys else set()
    return space, frozenset(subset)


@st.composite
def unordered_spaces(draw, max_elements: int = 8, cyclic: bool = False) -> Space:
    """Random spaces whose element order is not key order.

    Keys are drawn on two levels, and ids repeat across them.  Elements are
    stored in one drawn order, pairs go forward in another, and some pairs
    are implied by a two-step path, so a subspace of them must be reduced.
    With ``cyclic``, one pair may be reversed as well, and the space is not
    checked for T0.
    """
    keys = sorted(draw(st.sets(
        st.builds(ElementId, st.sampled_from("abcdef"), st.integers(0, 1)),
        min_size=1, max_size=max_elements,
    )))
    forward = draw(st.permutations(keys))
    n = len(keys)
    possible = [(forward[i], forward[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = set(draw(st.sets(st.sampled_from(possible)))) if possible else set()
    implied = sorted({(a, d) for a, b in chosen for c, d in chosen if b == c} - chosen)
    if implied:
        chosen |= draw(st.sets(st.sampled_from(implied), min_size=1))
    if cyclic and chosen:
        a, b = draw(st.sampled_from(sorted(chosen)))
        chosen.add((b, a))
    stored = draw(st.permutations(keys))
    return build_space(
        [Element(k) for k in stored],
        [BoundedByPair(a, b) for a, b in chosen],
        t0_check=not cyclic,
    )


def assert_telescope_reads_as_eager(tele: Space, expected: Space) -> None:
    """The telescope ``tele``, whose elements are made on first lookup,
    reads as ``expected``, built with a plain dict of elements: keys in the
    same order, the same ``len``, ``in`` and ``keys()``, equality in both
    directions, the same ``repr``, a pickle round trip, no item
    assignment, the same fibres, and the same bytes written to disk (a
    store save when no pair joins two levels, else the generic layout).
    The keys are read before any element is made."""
    got, want = tele.elements, expected.elements
    assert list(got) == list(want)
    assert list(got.keys()) == list(want.keys())
    assert len(got) == len(want)
    assert all(k in got for k in want)
    assert ElementId("absent", 0) not in got and ElementId("absent", 0) not in got.keys()
    assert got == want and want == got
    assert repr(got) == repr(want)
    assert pickle.loads(pickle.dumps(got)) == want
    assert pickle.loads(pickle.dumps(tele)) == expected
    with pytest.raises(TypeError):
        got[next(iter(want), ElementId("absent"))] = None  # type: ignore[index]
    nodes = sorted({e.attributes["lod_edge"] for e in want.values()})
    for w in nodes:
        fibre, wanted = telescope_fiber(tele, w), telescope_fiber(expected, w)
        assert list(fibre.elements.items()) == list(wanted.elements.items())
        assert fibre.relation == wanted.relation
    with tempfile.TemporaryDirectory() as tmp:
        written = []
        for name, space in (("got", tele), ("want", expected)):
            if any(a.lod != b.lod for a, b in space.relation):
                _write_space_csv(space, Path(tmp) / name)
            else:
                save(new_store("v1", space), Path(tmp) / name)
            written.append({p.name: p.read_bytes() for p in sorted((Path(tmp) / name).iterdir())})
        assert written[0] == written[1]
