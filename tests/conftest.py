from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from alexdb import BoundedByPair, Element, ElementId, Space, build_space, simple_space

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
