"""Space-time complexes: extrusion along time, change events, and slicing.

A space that is stable over an interval becomes a prism: the product of the
space with a three-element time complex (a span bounded by two instants).
A change event at time ``t`` glues the prism of the state before to the
prism of the state after through an overlay space — the before and after
states drawn together — via two partial maps sending overlay elements to
what they were and to what they become.  Slicing evaluates which elements
are alive at a time value, using per-vertex coordinate rows.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .algebra import (
    PRODUCT_SEPARATOR,
    SpaceMap,
    check_map,
    product,
    product_key,
    restrict_map,
    _subspace,
)
from .errors import DiscontinuousMapError, DuplicateKeyError, MissingGeometryError
from .topology import (
    BoundedByPair,
    ElementId,
    Space,
    build_space,
    simple_space,
    _topological_order,
)


class PointRow(NamedTuple):
    """Space-time coordinates for one element key."""

    key: ElementId
    x: float
    y: float
    z: float
    t: float


@dataclass(frozen=True)
class AttachmentSpec:
    """Overlay space plus the partial maps onto the states it mediates.

    ``past_map`` sends overlay elements that already existed to their past
    counterpart; ``future_map`` sends overlay elements to what they belong
    to afterwards.  Both must have the overlay as source.
    """

    overlay: Space
    past_map: SpaceMap
    future_map: SpaceMap

    def __post_init__(self):
        if self.past_map.source != self.overlay or self.future_map.source != self.overlay:
            raise ValueError("attachment maps must have the overlay as their source")


def time_complex(t0: str, t1: str, span: str | None = None) -> Space:
    """The 1D complex of an interval: span bounded by its two instants."""
    if span is None:
        span = f"{t0}..{t1}"
    if len({t0, t1, span}) != 3:
        raise DuplicateKeyError(f"time tokens must be distinct: {t0!r}, {t1!r}, {span!r}")
    return simple_space([span, t0, t1], [(span, t0), (span, t1)])


def prism(
    space: Space,
    t0: str,
    t1: str,
    span: str | None = None,
    separator: str = PRODUCT_SEPARATOR,
) -> Space:
    """Extrude a stable space over [t0, t1]: product with the time complex."""
    return product(space, time_complex(t0, t1, span), separator)


def _half_prism(space: Space, span: str, instant: str, separator: str) -> Space:
    # prism with one face removed: product with span->instant only
    return product(space, simple_space([span, instant], [(span, instant)]), separator)


def attach_change(
    past: Space,
    future: Space,
    spec: AttachmentSpec,
    t: str,
    t_before: str | None = None,
    t_after: str | None = None,
    span_past: str | None = None,
    span_future: str | None = None,
    separator: str = PRODUCT_SEPARATOR,
) -> Space:
    """Glue the prisms around a change event at time token ``t``.

    The result is the union of the past prism without its ``t`` face, the
    overlay tagged with ``t``, and the future prism without its ``t`` face,
    plus the attachment pairs: a past trajectory ``(x, span_past)`` is
    bounded by ``(o, t)`` whenever ``past_map(o) = x``, and symmetrically
    for the future.  Identifying overlay elements with their unchanged
    counterparts is left to an explicit quotient afterwards.

    Both attachment maps must be continuous on their domains; otherwise the
    change is rejected with the offending report attached.
    """
    t_before = t_before if t_before is not None else f"pre_{t}"
    t_after = t_after if t_after is not None else f"post_{t}"
    span_past = span_past if span_past is not None else f"{t_before}..{t}"
    span_future = span_future if span_future is not None else f"{t}..{t_after}"
    tokens = [t_before, t, t_after, span_past, span_future]
    if len(set(tokens)) != len(tokens):
        raise DuplicateKeyError(f"time tokens must be distinct: {tokens}")
    if spec.past_map.target != past:
        raise ValueError("past_map must map into the past space")
    if spec.future_map.target != future:
        raise ValueError("future_map must map into the future space")
    for name, m in (("past_map", spec.past_map), ("future_map", spec.future_map)):
        report = check_map(restrict_map(m))
        if not report.continuous:
            raise DiscontinuousMapError(
                f"{name} is not continuous at {report.continuity_witness}", report=report
            )

    past_part = _half_prism(past, span_past, t_before, separator)
    future_part = _half_prism(future, span_future, t_after, separator)
    overlay_part = product(spec.overlay, simple_space([t]), separator)

    els = []
    for part in (past_part, overlay_part, future_part):
        els.extend(part.elements.values())
    pairs = set(past_part.relation) | set(overlay_part.relation) | set(future_part.relation)
    t_key = ElementId(t, 0)
    for o, x in spec.past_map.mapping.items():
        pairs.add(
            BoundedByPair(
                product_key(x, ElementId(span_past, 0), separator),
                product_key(o, t_key, separator),
            )
        )
    for o, y in spec.future_map.mapping.items():
        pairs.add(
            BoundedByPair(
                product_key(y, ElementId(span_future, 0), separator),
                product_key(o, t_key, separator),
            )
        )
    return build_space(els, pairs, t0_check=True)


def time_slice(
    space: Space,
    points: Iterable[PointRow] | Mapping[ElementId, PointRow],
    t: float,
) -> Space:
    """Subspace of elements alive at time value ``t``.

    Every element's life interval [tmin, tmax] spans the ``t`` coordinates
    of the vertices in its closure.  Kept are elements strictly inside
    their interval, plus degenerate ones sitting exactly at ``t``
    (tmin = t = tmax) — so instants survive their own slice but spans do
    not bleed onto their boundaries.  Comparisons are exact, matching the
    relational formulation; pick slice values accordingly.

    A slice off every vertex time keeps an open set.  The closure of an
    element holds the closures of everything below it, so each element's
    life interval holds the intervals of everything below it.  No element
    then sits at ``t``, so a kept element is one with tmin < t < tmax, and
    everything above it, whose interval is wider, is kept too.  The
    subspace then needs no walk through dropped elements: each kept
    element's nearest kept elements are its kept neighbours.

    The intervals depend on the space and the rows alone, not on ``t``.
    The first slice of a space computes them in one pass over every
    element and keeps them on the space's index (``SpaceIndex``'s
    ``life_intervals``) with the rows they came from: the rows as given, or
    the items of a mapping.  A later slice whose rows compare equal, such
    as the same list again, an equal copy or a mapping with equal items,
    reads them back and runs only the kept test and the subspace core;
    when the same row objects come back, that comparison is a walk over
    pointers.  Rows are compared by value, so do not change them in place
    (a ``PointRow`` cannot be).  A slice that raises keeps nothing.

    An element whose closure has no vertex with a coordinate row raises
    ``MissingGeometryError`` naming it (the smallest such key), as does a
    vertex whose time coordinate is NaN (the smallest such key) and a NaN
    ``t``; a cyclic relation raises ``T0ViolationError``.
    """
    if math.isnan(t):
        raise MissingGeometryError("cannot slice at time nan")
    mapping = isinstance(points, Mapping)
    rows = tuple(points.items()) if mapping else tuple(points)
    idx = space.index
    last = idx.life_intervals
    if last is None or last[0] != rows:
        pts = dict(rows) if mapping else {p.key: p for p in rows}
        last = idx.life_intervals = (rows, *_life_intervals(space, pts))
    _, tmin, tmax = last
    kept = {i for i, (lo, hi) in enumerate(zip(tmin, tmax)) if (lo < t < hi) or (lo == t == hi)}
    return _subspace(space, kept)


def _life_intervals(
    space: Space, pts: Mapping[ElementId, PointRow]
) -> tuple[list[float], list[float]]:
    """Each position's life interval, as ``tmin`` and ``tmax`` lists, from
    the coordinate rows ``pts`` by key; raises ``MissingGeometryError`` on
    a NaN vertex time or an element with no closure vertex in ``pts``."""
    idx = space.index
    out = idx.out
    # life intervals bottom-up; an empty interval (inf, -inf) means no vertex
    # with a coordinate row lies below
    tmin = [math.inf] * len(out)
    tmax = [-math.inf] * len(out)
    lo, hi = tmin.__getitem__, tmax.__getitem__
    for i in reversed(_topological_order(space)):
        below = out[i]
        if below:
            tmin[i] = min(map(lo, below))
            tmax[i] = max(map(hi, below))
        elif idx.keys[i] in pts:
            tmin[i] = tmax[i] = pts[idx.keys[i]].t
    if any(map(math.isnan, tmin)):  # a nan reaches min and max out of order
        nan = [k for k, below, lo in zip(idx.keys, out, tmin) if not below and math.isnan(lo)]
        raise MissingGeometryError(f"vertex {min(nan)} has time coordinate nan")
    if any(map(operator.gt, tmin, tmax)):
        missing = [k for k, lo, hi in zip(idx.keys, tmin, tmax) if lo > hi]
        raise MissingGeometryError(
            f"element {min(missing)} has no closure vertex with a coordinate row"
        )
    return tmin, tmax
