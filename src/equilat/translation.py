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
    GluedSurface,
    SurfaceError,
    _head_corner,
    _next_side,
)

__all__ = [
    "TranslationStructure",
    "PeriodMap",
    "detect_structures",
    "face_types",
    "edge_path_period",
    "build_period_map",
    "is_locally_bounded_tran",
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
    # so phases propagate by phase[f'] = phase[f] + 2s - 2s' + 3 (mod 6);
    # for d = 3f+s glued to p = 3f'+s', 2s - 2s' = 2(d - p) (mod 6).
    phase = [None] * T
    phase[0] = 0
    gluing = surface.gluing
    queue = [0]
    while queue:
        f = queue.pop()
        flipped = phase[f] + 3
        for d in range(3 * f, 3 * f + 3):
            p = gluing[d]
            f2 = p // 3
            forced = (flipped + 2 * (d - p)) % 6
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
    cv = surface.index.corner_vertex
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


# coordinates of zeta^k = _ROOT_A[k] + _ROOT_B[k] w, k = 0..5
_ROOT_A = tuple(r.a for r in ROOTS6)
_ROOT_B = tuple(r.b for r in ROOTS6)


def _potentials(surface: GluedSurface, st: TranslationStructure, base: int) -> tuple:
    """Breadth-first spanning-tree potentials from vertex `base`.

    Returns (pa, pb, tree): the tree path from base to v has period
    pa[v] + pb[v] w (None where the tree does not reach v), and tree[d] is
    True when dart d carries a tree edge from its tail.
    """
    corners, weights = surface.index.corners, st.weights
    heads = _next_side(surface.index.corner_vertex)
    pa = [None] * len(corners)
    pb = [None] * len(corners)
    pa[base] = pb[base] = 0
    tree = [False] * surface.dart_count
    queue = [base]
    for v in queue:  # breadth first; queue grows while it is read
        a, b = pa[v], pb[v]
        for d in sorted(corners[v]):  # leaving v; the tree depends on the order
            w = heads[d]
            if pa[w] is None:
                k = weights[d]
                pa[w] = a + _ROOT_A[k]
                pb[w] = b + _ROOT_B[k]
                tree[d] = True
                queue.append(w)
    return pa, pb, tree


def _periods(surface: GluedSurface, st: TranslationStructure, base: int) -> tuple:
    """The period map from vertex `base` in integer coordinates.

    Returns (pa, pb, loops): the potentials of `_potentials`, and (d, a, b)
    for each co-tree edge, by its smaller dart d, where a + b w is the
    period of the loop base -> tail, edge, head -> base.
    """
    if not surface.is_connected():
        raise SurfaceError("period map requires a connected surface")
    pa, pb, tree = _potentials(surface, st, base)
    cv, weights = surface.index.corner_vertex, st.weights
    heads = _next_side(cv)
    loops = []
    for d, p in enumerate(surface.gluing):
        # BOUNDARY < 0, so d < p also skips unmatched darts
        if d < p and not (tree[d] or tree[p]):
            tail, head, k = cv[d], heads[d], weights[d]
            loops.append((d, pa[tail] + _ROOT_A[k] - pa[head],
                          pb[tail] + _ROOT_B[k] - pb[head]))
    return pa, pb, loops


def build_period_map(surface: GluedSurface, st: TranslationStructure,
                     base_vertex: Optional[int] = None) -> PeriodMap:
    base = 0 if base_vertex is None else base_vertex
    pa, pb, loops = _periods(surface, st, base)
    return PeriodMap(tuple(map(Eisenstein, pa, pb)),
                     tuple((d, Eisenstein(a, b)) for d, a, b in loops))


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
    degrees = surface.index.degrees
    max_deg = max(degrees)
    degree_ok = max_deg <= MAX_LB_DEGREE
    high = [v for v, degree in enumerate(degrees) if degree > 6]
    base = high[0] if high else 0
    pa, pb, loops = _periods(surface, st, base)
    failure = None
    for d, a, b in loops:
        if a % 3 or b % 3:
            failure = f"loop holonomy {Eisenstein(a, b)} at dart {d} outside 3Z+3wZ"
            break
    if failure is None:
        # potentials are periods from base
        for v in high:
            if pa[v] % 3 or pb[v] % 3:
                failure = (f"relative period {Eisenstein(pa[v], pb[v])} to vertex {v} "
                           "outside 3Z+3wZ")
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
