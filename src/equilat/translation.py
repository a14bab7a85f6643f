"""Combinatorial translation structures and their periods.

A translation structure assigns a sixth root of unity zeta(e, v) to every
edge end, read here per dart at its tail vertex.  Two rules pin it down:
the two ends of an edge carry opposite weights, and successive outgoing
edges at a corner of a face differ by e^{i*pi/3}.  Consequently every face
carries the pattern (w, w*zeta^2, w*zeta^4) on its three sides, and a
closed surface admits either no such structure or exactly six (the global
rotations of one).  Weights are stored as exponents k of zeta^k, 0..5.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

from equilat.eisenstein import ROOTS6, ZERO, Eisenstein
from equilat.surface import (
    BOUNDARY,
    GluedSurface,
    SurfaceError,
    _head_corner,
    corner_vertex_map,
    vertex_orbits,
)

__all__ = [
    "TranslationStructure",
    "PeriodMap",
    "detect_structures",
    "face_types",
    "edge_path_period",
    "build_period_map",
    "is_locally_bounded_tran",
    "flat_area",
    "MAX_LB_DEGREE",
]

MAX_LB_DEGREE = 42


@dataclass(frozen=True)
class TranslationStructure:
    """Directional weights per dart: zeta(e, tail of d) = zeta^weights[d]."""

    weights: tuple  # exponent in 0..5 per dart

    def period(self, dart: int) -> Eisenstein:
        return ROOTS6[self.weights[dart]]


def detect_structures(surface: GluedSurface) -> Optional[TranslationStructure]:
    """The translation structure with zeta^0 on dart 0, or None if there is none.

    Seeds face 0 with the Type A pattern (zeta^0, zeta^2, zeta^4),
    propagates across gluings and checks every edge.  The other five
    structures are the global rotations k -> k + r of the one returned.
    """
    if not surface.is_closed():
        raise SurfaceError("translation structures are defined for closed surfaces")
    if not surface.is_connected():
        raise SurfaceError("surface must be connected")
    T = surface.face_count
    # weight on dart 3f+s is zeta^(phase[f] + 2s); crossing an edge negates,
    # so phases propagate by phase[f'] = phase[f] + 2s - 2s' + 3 (mod 6).
    phase = [None] * T
    phase[0] = 0
    queue = [0]
    while queue:
        f = queue.pop()
        for s in range(3):
            p = surface.gluing[3 * f + s]
            f2, s2 = divmod(p, 3)
            forced = (phase[f] + 2 * s - 2 * s2 + 3) % 6
            if phase[f2] is None:
                phase[f2] = forced
                queue.append(f2)
            elif phase[f2] != forced:
                return None
    for degree in surface.index.degrees:
        assert degree % 6 == 0, "translation structure at a non-flat vertex"
    triples = [(k, (k + 2) % 6, (k + 4) % 6) for k in range(6)]
    return TranslationStructure(
        tuple(chain.from_iterable(map(triples.__getitem__, phase))))


def face_types(surface: GluedSurface, st: TranslationStructure) -> dict:
    """Type A/B labels; every interior edge joins opposite types."""
    return {
        f: "A" if st.weights[3 * f] % 2 == 0 else "B"
        for f in range(surface.face_count)
    }


def edge_path_period(surface: GluedSurface, st: TranslationStructure, path: Sequence) -> Eisenstein:
    """Exact period of an edge walk (sum of directed edge vectors)."""
    cv = corner_vertex_map(surface)
    total = ZERO
    prev_head = None
    for d in path:
        tail = cv[d]
        if prev_head is not None and tail != prev_head:
            raise SurfaceError("path is not a connected edge walk")
        prev_head = cv[_head_corner(d)]
        total = total + st.period(d)
    return total


@dataclass(frozen=True)
class PeriodMap:
    """Spanning-tree potentials plus co-tree loop holonomies.

    potential[v] is the period of the tree path from the base vertex to v;
    holonomies lists (dart, value) for each co-tree edge, the period of the
    loop base -> tail, edge, head -> base.
    """

    potentials: tuple
    holonomies: tuple


def _potentials(surface: GluedSurface, st: TranslationStructure, base: int) -> tuple:
    """Breadth-first spanning-tree potentials from vertex `base`.

    Returns (potentials, tree): potentials[v] is the period of the tree path
    from base to v, and tree[d] is True when dart d carries a tree edge from
    its tail.
    """
    cv, out_darts = surface.index.corner_vertex, surface.index.out_darts
    potentials = [None] * len(out_darts)
    potentials[base] = ZERO
    tree = [False] * surface.dart_count
    queue = [base]
    for v in queue:  # breadth first; queue grows while it is read
        pv = potentials[v]
        for d in out_darts[v]:
            w = cv[d - 2 if d % 3 == 2 else d + 1]  # head of d
            if potentials[w] is None:
                potentials[w] = pv + ROOTS6[st.weights[d]]
                tree[d] = True
                queue.append(w)
    return potentials, tree


def build_period_map(surface: GluedSurface, st: TranslationStructure,
                     base_vertex: Optional[int] = None) -> PeriodMap:
    if not surface.is_connected():
        raise SurfaceError("period map requires a connected surface")
    base = 0 if base_vertex is None else base_vertex
    potentials, tree = _potentials(surface, st, base)
    cv = surface.index.corner_vertex
    holonomies = []
    for d, p in enumerate(surface.gluing):
        if p != BOUNDARY and d < p and not (tree[d] or tree[p]):
            tail, head = cv[d], cv[_head_corner(d)]
            holonomies.append((d, potentials[tail] + st.period(d) - potentials[head]))
    return PeriodMap(tuple(potentials), tuple(holonomies))


@dataclass(frozen=True)
class LocallyBoundedReport:
    ok: bool
    max_degree: int
    degree_ok: bool
    periods_ok: bool
    first_failure: Optional[str]


def is_locally_bounded_tran(surface: GluedSurface, st: TranslationStructure) -> LocallyBoundedReport:
    """Degree cap 42 plus the 3Z + 3wZ period condition.

    The period condition is checked on generators of the first homology
    relative to the set of vertices of degree > 6: all co-tree loop
    holonomies, and tree-path periods between those vertices.
    """
    reports = vertex_orbits(surface)
    max_deg = max(r.degree for r in reports)
    degree_ok = max_deg <= MAX_LB_DEGREE
    high = tuple(r.vertex for r in reports if r.degree > 6)
    base = high[0] if high else 0
    pm = build_period_map(surface, st, base)
    failure = None
    for d, h in pm.holonomies:
        if not h.in_sublattice(3):
            failure = f"loop holonomy {h} at dart {d} outside 3Z+3wZ"
            break
    if failure is None:
        for v in high:
            rel = pm.potentials[v] - pm.potentials[base]
            if not rel.in_sublattice(3):
                failure = f"relative period {rel} to vertex {v} outside 3Z+3wZ"
                break
    periods_ok = failure is None
    if not degree_ok and failure is None:
        failure = f"max degree {max_deg} exceeds {MAX_LB_DEGREE}"
    return LocallyBoundedReport(
        ok=degree_ok and periods_ok,
        max_degree=max_deg,
        degree_ok=degree_ok,
        periods_ok=periods_ok,
        first_failure=failure,
    )


def flat_area(surface: GluedSurface) -> int:
    """Flat area as an exact multiple of sqrt(3)/4: one unit per triangle."""
    return surface.face_count
