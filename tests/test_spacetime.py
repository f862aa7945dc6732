"""Tests for prisms, change events, and time slicing."""
from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from alexdb import demos
from alexdb.algebra import product, space_map
from alexdb.errors import (
    AlexdbError,
    DiscontinuousMapError,
    DuplicateKeyError,
    MissingGeometryError,
)
from alexdb.spacetime import (
    AttachmentSpec,
    PointRow,
    attach_change,
    prism,
    time_complex,
    time_slice,
)
from alexdb.topology import (
    BoundedByPair, Element, ElementId, build_space, krull_dimension, simple_space
)
from conftest import spaces


def names(keys):
    return {k.id for k in keys}

def pair_names(space):
    return {(p.ida.id, p.idb.id) for p in space.relation}


# ---------------------------------------------------------------------------
# time complexes and prisms


def test_time_complex_is_a_span_with_two_instants():
    tc = time_complex("t0", "t1")
    assert names(tc.keys()) == {"t0..t1", "t0", "t1"}
    assert pair_names(tc) == {("t0..t1", "t0"), ("t0..t1", "t1")}
    assert krull_dimension(tc) == 1


def test_time_complex_rejects_colliding_tokens():
    with pytest.raises(DuplicateKeyError):
        time_complex("a", "a")
    with pytest.raises(DuplicateKeyError):
        time_complex("a", "b", span="a")


def test_prism_is_the_product_with_a_time_complex():
    es = demos.edge_space()
    pr = prism(es, "t0", "t1", span="s")
    assert pr == product(es, time_complex("t0", "t1", span="s"))
    assert len(pr.elements) == 9
    assert krull_dimension(pr) == krull_dimension(es) + 1


@given(spaces(max_elements=6))
def test_prism_adds_one_dimension(space):
    pr = prism(space, "lo", "hi")
    assert len(pr.elements) == 3 * len(space.elements)
    assert krull_dimension(pr) == krull_dimension(space) + 1


# ---------------------------------------------------------------------------
# change events


def test_single_vertex_change_glues_five_elements():
    pt = simple_space(["p"])
    ident = space_map(pt, pt, {"p": "p"})
    glued = attach_change(pt, pt, AttachmentSpec(pt, ident, ident), t="t")
    assert names(glued.keys()) == {
        "p⊗pre_t",
        "p⊗pre_t..t",
        "p⊗t",
        "p⊗t..post_t",
        "p⊗post_t",
    }
    assert pair_names(glued) == {
        ("p⊗pre_t..t", "p⊗pre_t"),
        ("p⊗pre_t..t", "p⊗t"),
        ("p⊗t..post_t", "p⊗post_t"),
        ("p⊗t..post_t", "p⊗t"),
    }


def test_attach_change_rejects_colliding_time_tokens():
    pt = simple_space(["p"])
    ident = space_map(pt, pt, {"p": "p"})
    with pytest.raises(DuplicateKeyError):
        attach_change(pt, pt, AttachmentSpec(pt, ident, ident), t="t", t_before="t")


def test_attachment_spec_requires_the_overlay_as_source():
    pt = simple_space(["p"])
    other = simple_space(["q"])
    to_pt = space_map(other, pt, {"q": "p"})
    ident = space_map(pt, pt, {"p": "p"})
    with pytest.raises(ValueError):
        AttachmentSpec(pt, to_pt, ident)


def test_attach_change_checks_map_targets():
    pt = simple_space(["p"])
    other = simple_space(["q"])
    ident = space_map(pt, pt, {"p": "p"})
    with pytest.raises(ValueError):
        attach_change(other, pt, AttachmentSpec(pt, ident, ident), t="t")


def test_attach_change_rejects_discontinuous_attachments():
    overlay = simple_space(["e", "u"], [("e", "u")])
    scattered = simple_space(["p", "q"])
    bad = space_map(overlay, scattered, {"e": "p", "u": "q"})
    ident = space_map(overlay, overlay, {"e": "e", "u": "u"})
    with pytest.raises(DiscontinuousMapError) as err:
        attach_change(scattered, overlay, AttachmentSpec(overlay, bad, ident), t="t")
    assert err.value.report is not None
    assert err.value.report.continuous is False


# ---------------------------------------------------------------------------
# the moving-wall worked example


def test_moving_wall_glued_complex_counts():
    glued = demos.lineland_glued()
    assert len(glued.elements) == 17
    assert len(glued.relation) == 26
    assert krull_dimension(glued) == 2


def test_moving_wall_collapsed_complex_counts():
    space = demos.lineland_space()
    assert len(space.elements) == 13
    assert len(space.relation) == 18
    assert krull_dimension(space) == 2


def test_moving_wall_time_slices_are_exact():
    space = demos.lineland_space()
    pts = demos.lineland_points()
    expected = {
        0.0: (
            {"I⊗t0", "wl⊗t0", "wr⊗t0"},
            {("I⊗t0", "wl⊗t0"), ("I⊗t0", "wr⊗t0")},
        ),
        0.5: (
            {"I⊗s01", "wl⊗s01", "wr⊗s01"},
            {("I⊗s01", "wl⊗s01"), ("I⊗s01", "wr⊗s01")},
        ),
        1.0: (
            {"I⊗s01", "X⊗t1", "wl⊗s01", "wr⊗t1", "wrr⊗t1"},
            {
                ("I⊗s01", "X⊗t1"),
                ("I⊗s01", "wl⊗s01"),
                ("X⊗t1", "wr⊗t1"),
                ("X⊗t1", "wrr⊗t1"),
            },
        ),
        1.5: (
            {"I⊗s01", "wl⊗s01", "wrr⊗s12"},
            {("I⊗s01", "wl⊗s01"), ("I⊗s01", "wrr⊗s12")},
        ),
        2.0: (
            {"J⊗t2", "wl⊗t2", "wrr⊗t2"},
            {("J⊗t2", "wl⊗t2"), ("J⊗t2", "wrr⊗t2")},
        ),
    }
    for t, (els, pairs) in expected.items():
        sliced = time_slice(space, pts, t)
        assert names(sliced.keys()) == els, f"slice at {t}"
        assert pair_names(sliced) == pairs, f"slice at {t}"


def test_moving_wall_slice_shapes():
    space = demos.lineland_space()
    pts = demos.lineland_points()
    for t in (0.0, 0.5):
        assert oracles.spaces_homeomorphic(time_slice(space, pts, t), demos.house())
    for t in (1.5, 2.0):
        assert oracles.spaces_homeomorphic(
            time_slice(space, pts, t), demos.house_after()
        )
    # at the change instant the slice is the glued five-element state
    assert len(time_slice(space, pts, 1.0).elements) == 5


# ---------------------------------------------------------------------------
# slicing semantics


def _edge_with_times():
    space = demos.edge_space()
    pts = [
        PointRow(ElementId("u"), 0.0, 0.0, 0.0, 0.0),
        PointRow(ElementId("v"), 0.0, 0.0, 0.0, 1.0),
    ]
    return space, pts


def test_slice_keeps_instants_on_their_boundary_but_not_spans():
    space, pts = _edge_with_times()
    assert names(time_slice(space, pts, 0.0).keys()) == {"u"}
    assert names(time_slice(space, pts, 1.0).keys()) == {"v"}
    assert names(time_slice(space, pts, 0.5).keys()) == {"e"}
    assert names(time_slice(space, pts, 2.0).keys()) == set()


def test_slice_accepts_a_mapping_of_rows():
    space, pts = _edge_with_times()
    by_key = {p.key: p for p in pts}
    assert names(time_slice(space, by_key, 0.5).keys()) == {"e"}


def test_slice_requires_geometry_on_closure_vertices():
    space, pts = _edge_with_times()
    with pytest.raises(MissingGeometryError):
        time_slice(space, pts[:1], 0.5)


def _sliced(call):
    """A slice as its elements in order and its relation, or its error."""
    try:
        sub = call()
    except AlexdbError as exc:
        return type(exc), str(exc)
    return list(sub.elements.items()), sub.relation


@st.composite
def complexes(draw):
    """Random complexes stored out of key order: vertices, edges on two of
    them, and faces on two or three edges, some also bounded by a vertex of
    one of their edges, a pair that a longer path implies."""
    keys = draw(st.lists(
        st.builds(ElementId, st.sampled_from("abcdefgh"), st.integers(0, 1)),
        min_size=5, max_size=12, unique=True,
    ))
    n = draw(st.integers(2, len(keys) - 3))
    vertices, edges, pairs = keys[:n], [], set()
    for k in keys[n:]:
        if len(edges) < 2 or draw(st.booleans()):
            ends = draw(st.lists(st.sampled_from(vertices), min_size=2, max_size=2, unique=True))
            pairs |= {(k, v) for v in ends}
            edges.append(k)
        else:
            rim = draw(st.lists(st.sampled_from(edges), min_size=2, max_size=3, unique=True))
            pairs |= {(k, e) for e in rim}
            if draw(st.booleans()):
                pairs.add((k, draw(st.sampled_from(sorted(v for e, v in pairs if e in rim)))))
    stored = draw(st.permutations(keys))
    return build_space([Element(k) for k in stored], [BoundedByPair(*p) for p in pairs])


# vertex times, and slice values at them and off them
_TIMES = [0.0, 0.5, 1.0]
_OFF = [0.25, 0.75]


@given(st.data())
def test_slice_matches_the_descendant_reference_at_and_off_vertex_times(data):
    space = data.draw(complexes())
    bounded = {p.ida for p in space.relation}
    pts = []
    for k in sorted(space.keys()):
        if k not in bounded:
            t = data.draw(st.sampled_from(_TIMES * 3 + [None, math.nan]))
            if t is not None:
                pts.append(PointRow(k, 0.0, 0.0, 0.0, t))
    t = data.draw(st.sampled_from(_TIMES + _OFF + [math.nan]))
    got = _sliced(lambda: time_slice(space, pts, t))
    assert got == _sliced(lambda: oracles.time_slice_by_descendants(space, pts, t))
    if isinstance(got[0], list):
        keys = [k for k, _ in got[0]]
        assert keys == sorted(keys)
        assert {(p.ida, p.idb) for p in got[1]} == oracles.subspace_pairs(space, set(keys))


def test_slice_refuses_nan_times_naming_the_smallest_vertex():
    space = simple_space(["e", "u", "v", "x", "w"], [("e", "u"), ("e", "v"), ("e", "x")])
    pts = [PointRow(ElementId(k), 0.0, 0.0, 0.0, t)
           for k, t in (("u", math.nan), ("v", 0.2), ("x", 0.9), ("w", math.nan))]
    with pytest.raises(MissingGeometryError, match="^vertex u has time coordinate nan$"):
        time_slice(space, pts, 0.5)
    with pytest.raises(MissingGeometryError, match="^cannot slice at time nan$"):
        time_slice(space, pts[1:3], math.nan)
