"""Bounded-degree replacement machinery.

TD_d is the fan of d triangles around one interior vertex of degree d.
TH_d (d >= 8) is a disk with the same boundary built from layered annuli:
the cycle sizes halve, d_i = floor(d_{i-1} / 2), until at most 7 remains,
and the last layer is a plain fan.  All TH_d interior degrees stay <= 7.

bounded_degree_map chains 4-subdivision, TD -> TH star replacement at
every vertex of degree > 7, and 3-subdivision; the output has maximum
degree 7, the same genus, and a coarsening certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from equilat.surface import (
    BOUNDARY,
    GluedSurface,
    SurfaceError,
    _face_subdivision,
    _head_corner,
    corner_vertex_map,
    euler_and_genus,
    load_surface,
    save_surface,
    subdivide,
    vertex_orbits,
)

__all__ = [
    "TriangulatedDisk",
    "build_TD",
    "build_TH",
    "th_layer_sizes",
    "bounded_degree_map",
    "DegreeBoundResult",
    "recover_original",
    "check_tri_lb",
    "LbCertificate",
    "separation_check",
    "th_center_candidates",
]


@dataclass(frozen=True)
class TriangulatedDisk:
    """A TD_d or TH_d block with its layer bookkeeping.

    boundary_darts[t] runs from boundary vertex t to t+1 (mod d); layers
    lists the vertex ids of each cycle, outermost first.
    """

    surface: GluedSurface
    kind: str
    d: int
    center: int
    boundary_darts: tuple
    layers: tuple


def surface_from_faces(faces: Sequence) -> tuple:
    """Build a surface from counterclockwise vertex triples.

    Directed edges must be unique; opposite directed edges are glued.
    Returns (surface, corner_labels) with corner_labels[3f+s] the input
    vertex label at corner s of face f.
    """
    directed = {}
    for f, tri in enumerate(faces):
        for s in range(3):
            key = (tri[s], tri[(s + 1) % 3])
            if key in directed:
                raise SurfaceError(f"duplicate directed edge {key}")
            directed[key] = 3 * f + s
    gluing = [BOUNDARY] * (3 * len(faces))
    for (u, v), d in directed.items():
        p = directed.get((v, u))
        if p is not None:
            gluing[d] = p
    labels = []
    for tri in faces:
        labels.extend(tri)
    return GluedSurface(len(faces), tuple(gluing)), tuple(labels)


def _label_to_vertex(surface: GluedSurface, labels) -> dict:
    cv = corner_vertex_map(surface)
    return {labels[c]: cv[c] for c in range(surface.dart_count)}


def build_TD(d: int) -> TriangulatedDisk:
    """Fan of d triangles: one interior vertex of degree d, d boundary edges."""
    if d < 2:
        raise SurfaceError("TD_d needs d >= 2; a one-triangle fan degenerates")
    if d == 2:
        # the two boundary edges join the same vertex pair, so they must be
        # glued explicitly rather than matched by endpoint labels
        surface = GluedSurface(2, (BOUNDARY, 5, 4, BOUNDARY, 2, 1))
        return TriangulatedDisk(surface, "TD", 2, 2, (0, 3), ((0, 1),))
    center = ("c",)
    faces = [((0, t), (0, (t + 1) % d), center) for t in range(d)]
    surface, labels = surface_from_faces(faces)
    lv = _label_to_vertex(surface, labels)
    boundary = tuple(3 * t for t in range(d))  # side 0 of face t runs x_t -> x_{t+1}
    return TriangulatedDisk(
        surface, "TD", d, lv[center], boundary, (tuple(lv[(0, t)] for t in range(d)),)
    )


def th_layer_sizes(d: int) -> list:
    """Cycle sizes d_0 = d, d_{i+1} = d_i // 2, down to the first value <= 7."""
    sizes = [d]
    while sizes[-1] > 7:
        sizes.append(sizes[-1] // 2)
    return sizes


def build_TH(d: int) -> TriangulatedDisk:
    """The layered bounded-degree disk with a d-edge boundary.

    Annulus TA_i sits between cycles of sizes D = d_{i-1} and e = d_i.
    Outer vertex j reaches inner vertex j//2 and, when j is odd, also
    (j+1)//2 (mod e); the final layer is the fan TD_{d_{k-1}}.
    """
    if d < 8:
        raise SurfaceError("TH_d is defined for d >= 8")
    sizes = th_layer_sizes(d)
    center = ("c",)
    faces = []
    for i in range(1, len(sizes)):
        D, e = sizes[i - 1], sizes[i]
        for j in range(D):  # triangles pointing inward, one per outer edge
            apex = ((j + 1) // 2) % e
            faces.append(((i - 1, j), (i - 1, (j + 1) % D), (i, apex)))
        for t in range(e):  # triangles pointing outward, one per inner edge
            faces.append(((i, (t + 1) % e), (i, t), (i - 1, 2 * t + 1)))
    last = len(sizes) - 1
    for t in range(sizes[last]):
        faces.append(((last, t), (last, (t + 1) % sizes[last]), center))
    surface, labels = surface_from_faces(faces)
    lv = _label_to_vertex(surface, labels)
    # side 0 of inward face t < d runs (0,t) -> (0,t+1), as in build_TD
    boundary = tuple(3 * t for t in range(d))
    layers = tuple(tuple(lv[(i, j)] for j in range(sizes[i])) for i in range(len(sizes)))
    return TriangulatedDisk(surface, "TH", d, lv[center], boundary, layers)


# --- the replacement map -----------------------------------------------------

@dataclass(frozen=True)
class DegreeBoundResult:
    surface: GluedSurface  # B(S)
    centers: tuple  # (vertex id in the 4-subdivision, degree) per replacement
    sigma: float  # faces(B(S)) / T
    mu: Optional[float]  # |V_neq6(B)| / (|V_neq6(S)| + g)


def _star_fan(surface: GluedSurface, corners) -> tuple:
    """Fan faces, center sides and outer darts around an interior vertex."""
    fan_faces, outer = [], []
    for c in corners:
        f, s = divmod(c, 3)
        fan_faces.append(f)
        outer.append(3 * f + (s + 1) % 3)
    return fan_faces, outer


def replace_stars(surface: GluedSurface, centers, blocks) -> GluedSurface:
    """Swap the closed star fan at each center vertex for the given disk block.

    centers are VertexReports of interior vertices; blocks are matching
    TriangulatedDisk instances with the same boundary length d.  Stars must
    be embedded and pairwise disjoint.
    """
    star_of = {}
    hole_info = {}  # hole dart -> (center index, position j)
    all_star_faces = set()
    plans = []
    for ci, rep in enumerate(centers):
        fan_faces, outer = _star_fan(surface, rep.corners)
        if len(set(fan_faces)) != len(fan_faces):
            raise SurfaceError(f"star at vertex {rep.vertex} is not embedded")
        holes = []
        for j, o in enumerate(outer):
            h = surface.gluing[o]
            if h == BOUNDARY or h // 3 in fan_faces:
                raise SurfaceError(f"star at vertex {rep.vertex} touches itself")
            holes.append(h)
            hole_info[h] = (ci, j)
        for f in fan_faces:
            if f in all_star_faces:
                raise SurfaceError("stars are not pairwise disjoint")
            all_star_faces.add(f)
        plans.append((rep, fan_faces, holes, blocks[ci]))
    kept = [f for f in range(surface.face_count) if f not in all_star_faces]
    face_map = {f: i for i, f in enumerate(kept)}
    offsets = []
    total = len(kept)
    for _, _, _, block in plans:
        offsets.append(total)
        total += block.surface.face_count

    def th_dart(ci: int, local: int) -> int:
        return 3 * offsets[ci] + local

    gluing = [BOUNDARY] * (3 * total)

    def glue(a, b):
        gluing[a] = b
        gluing[b] = a

    for f in kept:
        for s in range(3):
            d = 3 * f + s
            p = surface.gluing[d]
            nd = 3 * face_map[f] + s
            if p == BOUNDARY:
                continue
            if p // 3 in all_star_faces:
                ci, j = hole_info[d]
                block = plans[ci][3]
                t = (-j - 1) % block.d
                glue(nd, th_dart(ci, block.boundary_darts[t]))
            else:
                glue(nd, 3 * face_map[p // 3] + p % 3)
    for ci, (_, _, _, block) in enumerate(plans):
        bs = block.surface
        for dloc, p in enumerate(bs.gluing):
            if p != BOUNDARY:
                glue(th_dart(ci, dloc), th_dart(ci, p))
    return GluedSurface(total, tuple(gluing))


def bounded_degree_map(surface: GluedSurface) -> DegreeBoundResult:
    """4-subdivide, replace every degree > 7 star with TH_d, 3-subdivide.

    The result has maximum vertex degree 7 and the genus of the input;
    sigma and mu report the measured face and non-flat-vertex growth.
    """
    if not surface.is_closed() or not surface.is_connected():
        raise SurfaceError("bounded_degree_map needs a closed connected surface")
    stats = euler_and_genus(surface)
    neq6 = sum(1 for r in vertex_orbits(surface) if r.degree != 6)
    stage1 = subdivide(surface, 4)
    high = [r for r in vertex_orbits(stage1) if r.degree > 7]
    high.sort(key=lambda r: r.vertex)
    blocks = [build_TH(r.degree) for r in high]
    stage2 = replace_stars(stage1, high, blocks) if high else stage1
    # provenance first, so that only the returned B(S) builds an index
    result = subdivide(stage2, 3).with_provenance(
        ("degree_bound", save_surface(surface), tuple((r.vertex, r.degree) for r in high))
    )
    out_stats = euler_and_genus(result)
    if out_stats.genus != stats.genus:
        raise SurfaceError("replacement changed the genus; implementation bug")
    max_deg = max(r.degree for r in vertex_orbits(result))
    if max_deg > 7:
        raise SurfaceError(f"output max degree {max_deg} exceeds 7; implementation bug")
    out_neq6 = sum(1 for r in vertex_orbits(result) if r.degree != 6)
    denom = neq6 + stats.genus
    mu = out_neq6 / denom if denom else None
    return DegreeBoundResult(
        surface=result,
        centers=tuple((r.vertex, r.degree) for r in high),
        sigma=result.face_count / surface.face_count,
        mu=mu,
    )


def recover_original(surface: GluedSurface) -> GluedSurface:
    """Invert bounded_degree_map from the stored construction record."""
    if not surface.provenance or surface.provenance[0] != "degree_bound":
        raise SurfaceError("surface carries no degree-bound construction record")
    return load_surface(surface.provenance[1])


# --- pattern matching and coarsening ----------------------------------------

def match_pattern(pattern: GluedSurface, target: GluedSurface,
                  pattern_dart: int, target_dart: int) -> Optional[dict]:
    """Simplicial map pattern -> target with the given dart correspondence.

    Interior gluings of the pattern must map to gluings of the target; the
    pattern's boundary is unconstrained.  Returns {pattern face: (target
    face, rotation)} or None when no consistent injective map exists.
    """
    pf0, ps0 = divmod(pattern_dart, 3)
    tf0, ts0 = divmod(target_dart, 3)
    assign = {pf0: (tf0, (ts0 - ps0) % 3)}
    used = {tf0}
    queue = [pf0]
    while queue:
        pf = queue.pop()
        tf, rot = assign[pf]
        for s in range(3):
            pp = pattern.gluing[3 * pf + s]
            if pp == BOUNDARY:
                continue
            tp = target.gluing[3 * tf + (s + rot) % 3]
            if tp == BOUNDARY:
                return None
            pf2, ps2 = divmod(pp, 3)
            want = (tp // 3, (tp % 3 - ps2) % 3)
            if pf2 in assign:
                if assign[pf2] != want:
                    return None
            else:
                if want[0] in used:
                    return None
                assign[pf2] = want
                used.add(want[0])
                queue.append(pf2)
    if len(assign) != pattern.face_count:
        return None  # pattern disconnected; not expected here
    return assign


# the 3-subdivided triangle and, per side, the darts carrying its sub-edges
_REF3_GLUING, _REF3_SIDES = _face_subdivision(3)
_REF3 = GluedSurface(9, _REF3_GLUING)


@dataclass(frozen=True)
class LbCertificate:
    ok: bool
    max_degree: int
    reason: Optional[str]
    coarse: Optional[GluedSurface]
    macro_vertices: Optional[frozenset]
    face_owner: Optional[tuple]  # face -> macro face id


def _try_coarsening(surface: GluedSurface, seed_dart: int):
    """Grow a partition into 9-face macro triangles from one corner dart."""
    owner = [-1] * surface.face_count
    macro = []  # per macro face: sides = 3 lists of small darts in order
    first_of_side = {}

    def claim(dart):
        assign = match_pattern(_REF3, surface, 0, dart)
        if assign is None:
            return None
        mid = len(macro)
        sides = []
        for s in range(3):
            imgs = []
            for pd in _REF3_SIDES[s]:
                pf, ps = divmod(pd, 3)
                tf, rot = assign[pf]
                imgs.append(3 * tf + (ps + rot) % 3)
            sides.append(tuple(imgs))
            first_of_side[imgs[0]] = (mid, s)
        for pf, (tf, _) in assign.items():
            if owner[tf] != -1:
                return None
            owner[tf] = mid
        macro.append(tuple(sides))
        return mid

    if claim(seed_dart) is None:
        return None
    head = 0
    while head < len(macro):
        sides = macro[head]
        for s in range(3):
            imgs = sides[s]
            rev = tuple(surface.gluing[d] for d in reversed(imgs))
            if BOUNDARY in rev:
                return None
            if rev[0] in first_of_side:
                mid2, s2 = first_of_side[rev[0]]
                if macro[mid2][s2] != rev:
                    return None
            else:
                if owner[rev[0] // 3] != -1:
                    return None  # claimed but not along a macro side
                if claim(rev[0]) is None:
                    return None
        head += 1
    if any(o == -1 for o in owner):
        return None  # disconnected leftovers
    # assemble the coarse surface
    coarse_gluing = [BOUNDARY] * (3 * len(macro))
    for mid, sides in enumerate(macro):
        for s in range(3):
            rev0 = surface.gluing[sides[s][-1]]
            mid2, s2 = first_of_side[rev0]
            coarse_gluing[3 * mid + s] = 3 * mid2 + s2
    coarse = GluedSurface(len(macro), tuple(coarse_gluing))
    cv = corner_vertex_map(surface)
    macro_vertices = frozenset(cv[sides[s][0]] for sides in macro for s in range(3))
    return coarse, macro_vertices, tuple(owner)


def check_tri_lb(surface: GluedSurface) -> LbCertificate:
    """Locally bounded triangulation test: degree cap 7 plus a coarsening.

    Positive exactly when max degree <= 7 and the faces partition into
    9-face macro triangles forming a 3-subdivision structure whose macro
    vertices include every vertex of degree != 6.
    """
    if not surface.is_closed():
        raise SurfaceError("check_tri_lb needs a closed surface")
    reports = vertex_orbits(surface)
    max_deg = max(r.degree for r in reports)
    if max_deg > 7:
        return LbCertificate(False, max_deg, f"max degree {max_deg} > 7", None, None, None)
    if surface.face_count % 9 != 0:
        return LbCertificate(False, max_deg, "face count not divisible by 9", None, None, None)
    neq6 = [r.vertex for r in reports if r.degree != 6]
    if neq6:
        by_vertex = {r.vertex: r for r in reports}
        seeds = list(by_vertex[neq6[0]].corners)
    else:
        seeds = list(range(surface.dart_count))
    for seed in seeds:
        got = _try_coarsening(surface, seed)
        if got is None:
            continue
        coarse, macro_vertices, owner = got
        if not set(neq6) <= macro_vertices:
            continue
        return LbCertificate(True, max_deg, None, coarse, macro_vertices, owner)
    return LbCertificate(False, max_deg, "no 3-subdivision coarsening found", None, None, None)


@dataclass(frozen=True)
class SeparationReport:
    ok: bool
    min_distance: Optional[int]  # min pairwise distance between non-flat vertices
    all_macro: bool


def separation_check(surface: GluedSurface, cert: LbCertificate) -> SeparationReport:
    """Pairwise distance >= 3 between non-flat vertices, all macro vertices."""
    if not cert.ok:
        raise SurfaceError("separation check needs a positive coarsening certificate")
    reports = vertex_orbits(surface)
    neq6 = [r.vertex for r in reports if r.degree != 6]
    all_macro = set(neq6) <= cert.macro_vertices
    ix = surface.index
    targets = set(neq6)
    min_dist = None
    for v in neq6:
        dist = {v: 0}
        frontier = [v]
        for step in (1, 2):
            nxt = []
            for u in frontier:
                for d in ix.out_darts[u]:
                    w = ix.corner_vertex[_head_corner(d)]
                    if w not in dist:
                        dist[w] = step
                        nxt.append(w)
            frontier = nxt
        for w, dd in dist.items():
            if w != v and w in targets:
                min_dist = dd if min_dist is None else min(min_dist, dd)
    ok = all_macro and (min_dist is None or min_dist >= 3)
    return SeparationReport(ok, min_dist if min_dist is not None else None, all_macro)


def th_center_candidates(surface: GluedSurface) -> dict:
    """Plausible TH_d boundary sizes per candidate center vertex.

    A vertex of interior degree 4..7 could be the fan center of an
    embedded TH_d; each matching d is reported.  On replacement output
    the candidate set has size at most two.
    """
    reports = [r for r in vertex_orbits(surface) if not r.boundary and 4 <= r.degree <= 7]
    out = {}
    th_cache = {}
    target_cv = corner_vertex_map(surface)
    for rep in reports:
        found = set()
        # faces(TH_d) > d, so larger d cannot embed
        for d in range(8, surface.face_count + 1):
            sizes = th_layer_sizes(d)
            if sizes[-1] != rep.degree:
                continue
            if d not in th_cache:
                block = build_TH(d)
                center_corner = block.surface.index.vertices[block.center].corners[0]
                th_cache[d] = (block, center_corner, corner_vertex_map(block.surface))
            block, pc, pattern_cv = th_cache[d]
            if block.surface.face_count > surface.face_count:
                continue
            for c in rep.corners:
                assign = match_pattern(block.surface, surface, pc, c)
                if assign is not None and _vertex_injective(assign, pattern_cv, target_cv):
                    found.add(d)
                    break
        out[rep.vertex] = found
    return out


def _vertex_injective(assign: dict, pattern_cv, target_cv) -> bool:
    """True when the face map induces an injective vertex map."""
    vmap = {}
    for pf, (tf, rot) in assign.items():
        for s in range(3):
            vmap[pattern_cv[3 * pf + s]] = target_cv[3 * tf + (s + rot) % 3]
    return len(set(vmap.values())) == len(vmap)
