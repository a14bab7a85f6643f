"""Parallelogram decomposition of a combinatorial translation surface.

Edge trajectories in direction 1 seeded at vertices of degree > 6 form a
1-complex A0; trajectories in directions e^{i*pi/3} and -e^{i*pi/3} form
A1 and A2 but stop on hitting A0.  The union A is the 1-skeleton of a
2-polytope B whose faces develop to flat parallelograms, each with a
corner vertex of degree > 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress
from operator import ne
from typing import Optional

from equilat.eisenstein import Eisenstein
from equilat.surface import (
    BOUNDARY,
    GluedSurface,
    SurfaceError,
    _boundary_cycles,
    _face_components,
    _head_corner,
    _next_side,
    euler_and_genus,
)
from equilat.translation import _ROOT_A, _ROOT_B, TranslationStructure, _potentials

__all__ = [
    "TrajectoryComplex",
    "PolytopeB",
    "Region",
    "Run",
    "FaceGeometry",
    "build_trajectories",
    "build_polytope",
    "develop_face",
    "decompose",
]

# Corner pairs (zeta(e1,v), zeta(e2,v)) that can occur where two boundary
# edges of a face meet, with the face clockwise from e1; stored as
# exponent pairs.  1 pairs with -e^{i*pi/3}, and so on around.
ALLOWED_CORNER_PAIRS = frozenset({(0, 4), (4, 3), (3, 1), (1, 0)})


@dataclass(frozen=True)
class TrajectoryComplex:
    a0_edges: frozenset  # edge = frozenset of its two darts
    a1_edges: frozenset
    a2_edges: frozenset

    @property
    def edges(self) -> frozenset:
        return self.a0_edges | self.a1_edges | self.a2_edges


def _check_input(surface: GluedSurface) -> list:
    """The vertices of degree > 6 of a surface the decomposition accepts."""
    if not surface.is_closed() or not surface.is_connected():
        raise SurfaceError("decomposition needs a closed connected surface")
    if euler_and_genus(surface).genus == 1:
        raise SurfaceError("genus-1 translation surfaces have no vertices of degree > 6; "
                           "parallelogram decomposition is undefined")
    high = [v for v, degree in enumerate(surface.index.degrees) if degree > 6]
    if not high:
        raise SurfaceError("no vertices of degree > 6; decomposition is undefined")
    return high


def build_trajectories(surface: GluedSurface, st: TranslationStructure) -> TrajectoryComplex:
    """Fixpoints of the three inductive trajectory rules."""
    high = _check_input(surface)
    heads = _next_side(surface.index.corner_vertex)
    corners = surface.index.corners  # corners[v]: the darts leaving v
    high_set = set(high)

    def grow(weight_k: int, stop_at=None):
        vertices = set(high)
        edges = set()
        queue = list(high)
        while queue:
            v = queue.pop()
            for d in corners[v]:
                if st.weights[d] != weight_k:
                    continue
                edges.add(frozenset((d, surface.gluing[d])))
                w = heads[d]
                if w not in vertices:
                    vertices.add(w)
                    # trajectories stop on hitting A0, except at seeds
                    if stop_at is None or w not in stop_at or w in high_set:
                        queue.append(w)
        return frozenset(vertices), frozenset(edges)

    a0_v, a0_e = grow(0)
    _, a1_e = grow(1, stop_at=a0_v)
    _, a2_e = grow(4, stop_at=a0_v)
    return TrajectoryComplex(a0_e, a1_e, a2_e)


@dataclass(frozen=True)
class Run:
    """A maximal same-direction chain of A-edges between polytope vertices."""

    start: int
    end: int
    darts: tuple  # consecutive darts from start to end
    weight_k: int  # direction exponent at every tail along the run


@dataclass(frozen=True)
class Region:
    """A face of the polytope: triangles of S bounded by trajectory edges."""

    region_id: int
    faces: tuple
    boundary_darts: tuple  # single closed walk, region on the left


@dataclass(frozen=True)
class PolytopeB:
    vertices: frozenset
    edges: tuple  # Run per polytope edge
    faces: tuple  # Region per polytope face


def build_polytope(surface: GluedSurface, st: TranslationStructure,
                   A: TrajectoryComplex) -> PolytopeB:
    """Vertices, maximal-run edges and complementary regions of A.

    Asserts the structural facts the construction guarantees: trajectory
    edge weights stay in {1, -1, w, -w}, every such edge end at a vertex
    of degree > 6 lies in A, runs cover A exactly, and relative periods
    between polytope vertices lie in 3Z + 3wZ.
    """
    high = _check_input(surface)
    cv = surface.index.corner_vertex
    weights = st.weights
    # mark the A darts, cut them, and collect their tails by direction
    in_a = [False] * surface.dart_count
    cut = list(surface.gluing)
    horizontal, diagonal = set(), set()
    for edges, allowed, tails, msg in (
            (A.a0_edges, (0, 3), horizontal, "direction-1 trajectory edge with wrong weight"),
            (A.a1_edges | A.a2_edges, (1, 4), diagonal,
             "diagonal trajectory edge with wrong weight")):
        for e in edges:
            for d in e:
                if weights[d] not in allowed:
                    raise SurfaceError(msg)
                in_a[d] = True
                cut[d] = BOUNDARY
                tails.add(cv[d])
    corners = surface.index.corners  # corners[v]: the darts leaving v
    for v in high:
        for d in corners[v]:
            if weights[d] in (0, 1, 3, 4) and not in_a[d]:
                raise SurfaceError("axis-direction edge at a degree >6 vertex missed by A")
    # polytope vertices: an A-edge end of weight +-1 and one of weight +-w
    vb = horizontal & diagonal
    if not set(high) <= vb:
        raise SurfaceError("a degree >6 vertex escaped the polytope vertex set")
    for v in vb:
        for d in corners[v]:
            if weights[d] in (0, 3) and not in_a[d]:
                raise SurfaceError("horizontal edge at a polytope vertex missed by A")
    # maximal runs
    heads = _next_side(cv)
    runs = []
    seen_starts = set()
    for v in sorted(vb):
        for d in sorted(corners[v]):  # the runs and their order depend on it
            if not in_a[d] or d in seen_starts:
                continue
            darts = [d]
            k = weights[d]
            w = heads[d]
            while w not in vb:
                nxt = [d2 for d2 in corners[w] if in_a[d2] and weights[d2] == k]
                if len(nxt) != 1:
                    raise SurfaceError("trajectory run has no unique continuation")
                darts.append(nxt[0])
                w = heads[nxt[0]]
            reverse_start = surface.gluing[darts[-1]]
            seen_starts.add(reverse_start)
            runs.append(Run(v, w, tuple(darts), k))
    covered = set()
    for run in runs:
        for d in run.darts:
            covered.add(frozenset((d, surface.gluing[d])))
    if covered != A.edges:
        raise SurfaceError("maximal runs do not cover the trajectory complex exactly")
    # complementary regions: the components of S cut along A, each bounded
    # by the one boundary cycle of the cut surface that lies in it.  The
    # runs check above proves that A.edges holds only frozenset((d,
    # gluing[d])), so both darts of every A edge are cut and the cut stays
    # an involution.  Only its components and boundary cycles are read, so
    # it is never indexed.
    cut = GluedSurface._trusted(surface.face_count, tuple(cut))
    components = _face_components(cut.gluing)
    region_of = [0] * surface.face_count
    for rid, faces in enumerate(components):
        for f in faces:
            region_of[f] = rid
    walks = [[] for _ in components]
    for cycle in _boundary_cycles(cut):
        walks[region_of[cycle[0] // 3]].append(tuple(cycle))
    region_objs = []
    for rid, faces in enumerate(components):
        if not walks[rid]:
            raise SurfaceError("region without boundary; trajectory complex is empty here")
        if len(walks[rid]) > 1:
            raise SurfaceError("region boundary is not a single closed walk")
        region_objs.append(Region(rid, faces, walks[rid][0]))
    # relative periods between polytope vertices lie in the index-9
    # sublattice; potentials are periods from base
    pa, pb, _ = _potentials(surface, st, min(vb))
    for v in sorted(vb):
        if pa[v] % 3 or pb[v] % 3:
            raise SurfaceError(f"polytope vertex {v} at period outside 3Z+3wZ")
    return PolytopeB(frozenset(vb), tuple(runs), tuple(region_objs))


@dataclass(frozen=True)
class FaceGeometry:
    region_id: int
    closes: bool
    corner_vertices: tuple  # (vertex id, turn in units of pi/3, corner pair)
    length: Optional[int]  # side length in direction +-1
    width: Optional[int]  # side length in direction +-w
    triangle_count: int
    development: tuple  # partial period sums around the boundary


def develop_face(surface: GluedSurface, st: TranslationStructure,
                 region: Region) -> FaceGeometry:
    """Develop a region boundary in the plane and verify it is a parallelogram.

    Checks closure, exactly four direction changes alternating by pi/3 and
    2*pi/3, allowed corner weight pairs, and integral side lengths.
    """
    cv = surface.index.corner_vertex
    walk = region.boundary_darts
    ks = list(map(st.weights.__getitem__, walk))
    xs = list(accumulate(map(_ROOT_A.__getitem__, ks)))
    ys = list(accumulate(map(_ROOT_B.__getitem__, ks)))
    closes = not walk or (xs[-1], ys[-1]) == (0, 0)
    n = len(walk)
    # positions i where the direction changes between walk[i] and walk[i+1]
    ks_next = ks[1:] + ks[:1]
    change_pos = list(compress(range(n), map(ne, ks, ks_next)))
    corners = []
    sides = []  # (weight exponent, length) per side, in walk order
    for j, i in enumerate(change_pos):
        k1, k2 = ks[i], ks_next[i]
        v = cv[_head_corner(walk[i])]
        # with the face on the left of the walk it lies clockwise from the
        # incoming edge, which carries the negated weight at v
        corners.append((v, (k2 - k1) % 6, ((k1 + 3) % 6, k2)))
        start = change_pos[j - 1]  # side ends at corner i, starts after previous
        sides.append((k1, (i - start) % n or n))
    ok = closes and len(corners) == 4
    if ok:
        turns = [c[1] for c in corners]
        ok = sorted(turns) == [1, 1, 2, 2] and turns[0] != turns[1] and turns[1] != turns[2]
        ok = ok and all(c[2] in ALLOWED_CORNER_PAIRS for c in corners)
        ok = ok and sides[0][1] == sides[2][1] and sides[1][1] == sides[3][1]
    if not ok:
        raise SurfaceError(f"region {region.region_id} does not develop to a parallelogram")
    horizontal = [ln for k, ln in sides if k in (0, 3)]
    diagonal = [ln for k, ln in sides if k in (1, 4)]
    length = horizontal[0] if horizontal else None
    width = diagonal[0] if diagonal else None
    return FaceGeometry(
        region_id=region.region_id,
        closes=closes,
        corner_vertices=tuple(corners),
        length=length,
        width=width,
        triangle_count=len(region.faces),
        development=tuple(map(Eisenstein, xs, ys)),
    )


def decompose(surface: GluedSurface, st: TranslationStructure) -> tuple:
    """Full pipeline: trajectories, polytope, developed face geometries."""
    A = build_trajectories(surface, st)
    B = build_polytope(surface, st, A)
    geoms = tuple(develop_face(surface, st, r) for r in B.faces)
    return B, geoms
