"""Bounded-degree replacement machinery.

TD_d is the fan of d triangles around one interior vertex of degree d.
TH_d (d >= 8) is a disk with the same boundary built from layered annuli:
the cycle sizes halve, d_i = floor(d_{i-1} / 2), until at most 7 remains,
and the last layer is a plain fan.  All TH_d interior degrees stay <= 7.

bounded_degree_map chains 4-subdivision, TD -> TH star replacement at
every vertex of degree > 7, and 3-subdivision; the output has maximum
degree 7, the same genus, and a coarsening certificate.  recover_original
inverts it from the output's gluing alone: 3-coarsening, a TH -> TD swap
at every TH block it finds, and 4-coarsening.  One coarsening serves both
factors, and one finder of TH blocks serves the inverse and
th_center_candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice, repeat
from operator import eq, itemgetter
from typing import Optional, Sequence

from equilat.surface import (
    BOUNDARY,
    GluedSurface,
    SurfaceError,
    _face_subdivision,
    euler_and_genus,
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
    """A TD_d or TH_d block: boundary_darts[t] runs from boundary vertex t
    to t+1 (mod d), where d = len(boundary_darts)."""

    surface: GluedSurface
    center: int
    boundary_darts: tuple


def surface_from_faces(faces: Sequence) -> GluedSurface:
    """Build a surface from counterclockwise vertex triples.

    Directed edges must be unique; opposite directed edges are glued.
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
    return GluedSurface(len(faces), tuple(gluing))


def _layered_disk(sizes) -> TriangulatedDisk:
    """Annuli between cycles of the given sizes, outermost first, closed by
    a fan around the center.

    Annulus TA_i sits between cycles of sizes D = sizes[i-1] and e =
    sizes[i].  Outer vertex j reaches inner vertex j//2 and, when j is odd,
    also (j+1)//2 (mod e); the final layer is the fan TD_{sizes[-1]}.
    """
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
    surface = surface_from_faces(faces)
    # side 0 of face t < d runs (0,t) -> (0,t+1), and the last face's
    # last corner is the center
    d = sizes[0]
    return TriangulatedDisk(surface, surface.index.corner_vertex[-1],
                            tuple(range(0, 3 * d, 3)))


def build_TD(d: int) -> TriangulatedDisk:
    """Fan of d triangles: one interior vertex of degree d, d boundary edges."""
    if d < 2:
        raise SurfaceError("TD_d needs d >= 2; a one-triangle fan degenerates")
    if d == 2:
        # the two boundary edges join the same vertex pair, so they must be
        # glued explicitly rather than matched by endpoint labels
        surface = GluedSurface(2, (BOUNDARY, 5, 4, BOUNDARY, 2, 1))
        return TriangulatedDisk(surface, 2, (0, 3))
    return _layered_disk([d])


def th_layer_sizes(d: int) -> list:
    """Cycle sizes d_0 = d, d_{i+1} = d_i // 2, down to the first value <= 7."""
    sizes = [d]
    while sizes[-1] > 7:
        sizes.append(sizes[-1] // 2)
    return sizes


def build_TH(d: int) -> TriangulatedDisk:
    """The layered bounded-degree disk with a d-edge boundary, on the
    cycle sizes th_layer_sizes(d)."""
    if d < 8:
        raise SurfaceError("TH_d is defined for d >= 8")
    return _layered_disk(th_layer_sizes(d))


# --- the replacement map -----------------------------------------------------

# darts per 4-subdivided face, and the stage-1 corner at each corner s of a
# face: the tail of the first sub-edge of side s
_SUB4_FACE_DARTS = 3 * 4 * 4
_SUB4_CORNER = tuple(side[0] for side in _face_subdivision(4)[1])


@dataclass(frozen=True)
class DegreeBoundResult:
    """B(S) with its growth figures.

    centers names each replaced star by its vertex in S, in vertex order:
    S's vertices of degree > 7 are exactly those of its 4-subdivision, and
    stars are replaced in that order.
    """

    surface: GluedSurface  # B(S)
    centers: tuple  # (vertex id in S, degree) per replaced star
    sigma: float  # faces(B(S)) / T
    mu: Optional[float]  # |V_neq6(B)| / (|V_neq6(S)| + g)


def _replace_disks(surface: GluedSurface, disks, blocks) -> GluedSurface:
    """Swap each disk of a surface for a block with the same boundary length.

    disks[i] is (faces, outer): the faces of a disk, and outer[t] its dart
    along boundary edge t, whose partner the boundary dart t of blocks[i]
    takes over.  The disks must be face-disjoint, and every outer dart
    glued to a face outside all of them.  Kept faces keep their order and
    the blocks follow, in order.
    """
    removed = set()
    for faces, _ in disks:
        removed.update(faces)
    kept = [f for f in range(surface.face_count) if f not in removed]
    face_map = {f: i for i, f in enumerate(kept)}
    gluing = [BOUNDARY] * (3 * len(kept))
    hole_of = {}  # kept dart across an outer dart -> the block dart it meets
    for (_, outer), block in zip(disks, blocks):
        off = len(gluing)
        for o, b in zip(outer, block.boundary_darts):
            hole_of[surface.gluing[o]] = off + b
        gluing.extend([BOUNDARY if p == BOUNDARY else p + off
                       for p in block.surface.gluing])
    for f in kept:
        for s in range(3):
            d = 3 * f + s
            p = surface.gluing[d]
            if p == BOUNDARY:
                continue
            nd = 3 * face_map[f] + s
            if p // 3 in removed:
                b = hole_of[d]
                gluing[nd] = b
                gluing[b] = nd
            else:
                gluing[nd] = 3 * face_map[p // 3] + p % 3
    return GluedSurface(len(gluing) // 3, tuple(gluing))


def replace_stars(surface: GluedSurface, centers, blocks) -> GluedSurface:
    """Swap the closed star fan at each center vertex for the given disk block.

    centers are (vertex, corners) pairs of interior vertices, corners in
    rotation order; blocks are matching TriangulatedDisk instances with
    boundary length d = len(corners).  Stars must be embedded and pairwise
    disjoint.
    """
    if len(blocks) != len(centers):
        raise SurfaceError(f"{len(blocks)} blocks for {len(centers)} stars")
    disks = []
    all_star_faces = set()
    for (v, corners), block in zip(centers, blocks):
        if len(block.boundary_darts) != len(corners):
            raise SurfaceError(f"block of boundary length {len(block.boundary_darts)} "
                               f"for the degree-{len(corners)} star at vertex {v}")
        fan = {c // 3 for c in corners}
        if len(fan) != len(corners):
            raise SurfaceError(f"star at vertex {v} is not embedded")
        # the side after the center's corner runs along the star's boundary;
        # the fan runs against the block's boundary, so its position j meets
        # boundary edge -j-1 (mod d)
        outer = [c - 2 if c % 3 == 2 else c + 1 for c in reversed(corners)]
        for o in outer:
            h = surface.gluing[o]
            if h == BOUNDARY or h // 3 in fan:
                raise SurfaceError(f"star at vertex {v} touches itself")
        if not all_star_faces.isdisjoint(fan):
            raise SurfaceError("stars are not pairwise disjoint")
        all_star_faces |= fan
        disks.append((fan, outer))
    return _replace_disks(surface, disks, blocks)


def bounded_degree_map(surface: GluedSurface) -> DegreeBoundResult:
    """4-subdivide, replace every degree > 7 star with TH_d, 3-subdivide.

    The result has maximum vertex degree 7 and the genus of the input;
    sigma and mu report the measured face and non-flat-vertex growth.
    """
    if not surface.is_closed() or not surface.is_connected():
        raise SurfaceError("bounded_degree_map needs a closed connected surface")
    stats = euler_and_genus(surface)
    ix = surface.index
    neq6 = len(ix.degrees) - ix.degrees.count(6)
    # New vertices of the 4-subdivision are flat, so its vertices of degree
    # > 7 are those of the surface.  Corner c = 3f + s lies at stage-1
    # corner 48f + _SUB4_CORNER[s]; the map increases, so rotation order
    # and the replacement order (smallest stage-1 corner first) carry over.
    centers = tuple((v, deg) for v, deg in enumerate(ix.degrees) if deg > 7)
    stars = [(v, [_SUB4_FACE_DARTS * (c // 3) + _SUB4_CORNER[c % 3] for c in ix.corners[v]])
             for v, _ in centers]
    stage1 = subdivide(surface, 4)
    blocks = [build_TH(deg) for _, deg in centers]
    stage2 = replace_stars(stage1, stars, blocks) if stars else stage1
    result = subdivide(stage2, 3)
    out_stats = euler_and_genus(result)
    if out_stats.genus != stats.genus:
        raise SurfaceError("replacement changed the genus; implementation bug")
    out_degrees = result.index.degrees
    max_deg = max(out_degrees)
    if max_deg > 7:
        raise SurfaceError(f"output max degree {max_deg} exceeds 7; implementation bug")
    out_neq6 = len(out_degrees) - out_degrees.count(6)
    denom = neq6 + stats.genus
    mu = out_neq6 / denom if denom else None
    return DegreeBoundResult(
        surface=result,
        centers=centers,
        sigma=result.face_count / surface.face_count,
        mu=mu,
    )


# --- pattern matching and coarsening ----------------------------------------

# dart d + o1 is the next side of d's face and d + o2 the one after,
# for (o1, o2) the entry d % 3
_NEXT_SIDES = ((1, 2), (1, -1), (-2, -1))


def _compile_pattern(gluing, start_dart: int) -> tuple:
    """Straight-line program that matches a pattern from one of its darts.

    Walks the pattern's faces once, breadth first from the face of
    start_dart, listing each face's darts in rotation order from the one
    it is entered by.  Returns (darts, steps, checks, complete): darts[i]
    is the pattern dart whose image the walk puts at position i; the
    (j+1)-th face is entered through the partner of position steps[j];
    checks holds the position pairs of the other interior gluings;
    complete tells whether every face was reached.
    """
    darts, steps, checks = [], [], []
    pos = {}

    def enter(d):
        o1, o2 = _NEXT_SIDES[d % 3]
        for x in (d, d + o1, d + o2):
            pos[x] = len(darts)
            darts.append(x)

    enter(start_dart)
    for i, d in enumerate(darts):  # grows while it is read
        p = gluing[d]
        if p == BOUNDARY:
            continue
        j = pos.get(p)
        if j is None:
            steps.append(i)
            enter(p)
        elif j > i:
            checks.append((i, j))
    return tuple(darts), tuple(steps), tuple(checks), len(darts) == len(gluing)


def _images(steps, checks, gluing, dart: int) -> Optional[list]:
    """The target image of each program position, pattern start -> dart,
    from a compiled pattern's steps and checks; None when an interior
    pattern gluing meets the target's boundary or another gluing."""
    o1, o2 = _NEXT_SIDES[dart % 3]
    img = [dart, dart + o1, dart + o2]
    for i in steps:
        x = gluing[img[i]]
        if x < 0:
            return None
        o1, o2 = _NEXT_SIDES[x % 3]
        img += (x, x + o1, x + o2)
    for i, j in checks:
        if gluing[img[i]] != img[j]:
            return None
    return img


def _walk(program, gluing, dart: int) -> Optional[list]:
    """Run a compiled pattern on a target gluing, pattern start -> dart.

    Returns the images that _images gives, or None where it does, and
    also when two pattern faces land on one target face.
    """
    img = _images(program[1], program[2], gluing, dart)
    if img is None or len(set(img)) != len(img):
        return None  # distinct faces have disjoint darts
    return img


def match_pattern(pattern: GluedSurface, target: GluedSurface,
                  pattern_dart: int, target_dart: int) -> Optional[dict]:
    """Simplicial map pattern -> target with the given dart correspondence.

    Interior gluings of the pattern must map to gluings of the target; the
    pattern's boundary is unconstrained.  Returns {pattern face: (target
    face, rotation)} or None when no consistent injective map exists or
    the pattern is disconnected.  No engine code calls it; it stays
    public because tests and the benchmark's span list (bench/spans.py)
    name it, until the benchmark is revised.
    """
    program = _compile_pattern(pattern.gluing, pattern_dart)
    darts, _, _, complete = program
    img = _walk(program, target.gluing, target_dart) if complete else None
    if img is None:
        return None
    return {darts[i] // 3: (img[i] // 3, (img[i] - darts[i]) % 3)
            for i in range(0, len(img), 3)}


def _coarsening_program(k: int) -> tuple:
    """The k-subdivided triangle matched from its dart 0: the walk's steps,
    its interior checks, and a getter of the images of the 3k darts
    carrying the sides' sub-edges, k per side in order."""
    inner, sides = _face_subdivision(k)
    darts, steps, checks, _ = _compile_pattern(inner, 0)
    return steps, checks, itemgetter(*(darts.index(d) for side in sides for d in side))


# for check_tri_lb and the inverse's 4-coarsening
_COARSENING_PROGRAMS = {k: _coarsening_program(k) for k in (3, 4)}


@dataclass(frozen=True)
class LbCertificate:
    ok: bool
    max_degree: int
    coarse: Optional[GluedSurface]
    macro_vertices: Optional[frozenset]
    face_owner: Optional[tuple]  # face -> macro face id


def _try_coarsening(surface: GluedSurface, seed_dart: int, k: int):
    """Grow a partition into k^2-face macro triangles from one corner dart.

    The surface must be closed: a claim tests for the boundary inside its
    macro triangle, but the partners across macro sides are read with no
    boundary test.  Coarse dart c = 3m+s is side s of macro triangle m; its
    sub-edges are carried, in order, by small darts sides[kc], ...,
    sides[kc+k-1].
    """
    steps, checks, side_images = _COARSENING_PROGRAMS[k]
    gluing = surface.gluing
    owner = [-1] * surface.face_count
    sides = []
    side_of = {}  # first small dart of a side -> its coarse dart
    coarse = []  # coarse gluing, filled in coarse dart order

    def claim(dart) -> bool:
        img = _images(steps, checks, gluing, dart)
        if img is None:
            return False
        # each image triple is a whole face, so this also rejects a face
        # that one claim reaches twice
        mid = len(sides) // (3 * k)
        for x in img[::3]:
            if owner[x // 3] != -1:
                return False
            owner[x // 3] = mid
        new = side_images(img)
        side_of[new[0]] = 3 * mid
        side_of[new[k]] = 3 * mid + 1
        side_of[new[2 * k]] = 3 * mid + 2
        sides.extend(new)
        return True

    if not claim(seed_dart):
        return None
    # breadth first over coarse darts, so they come in order; the side
    # across side c must carry the partners of c's darts in reverse order.
    # A list iterator also yields what claims append while it runs.
    darts = iter(sides)
    rest = range(k - 2, -1, -1)
    for side in zip(*repeat(darts, k)):
        b0 = gluing[side[-1]]
        c2 = side_of.get(b0)
        if c2 is None:
            c2 = len(sides) // k
            if not claim(b0):
                return None
        base = k * c2 + 1
        for i in rest:
            if sides[base] != gluing[side[i]]:
                return None
            base += 1
        coarse.append(c2)
    if -1 in owner:
        return None  # disconnected leftovers
    if any(map(eq, coarse, count())):
        return None  # a side glued to itself, folded at its middle
    # Trusted: c -> c2 holds when c2's darts are the partners of c's darts
    # in reverse.  That relation is symmetric, and a side's first dart names
    # it, so c2 -> c as well: the gluing is an involution, and it has no
    # fixed point.
    coarse = GluedSurface._trusted(len(coarse) // 3, tuple(coarse))
    cv = surface.index.corner_vertex
    macro_vertices = frozenset([cv[d] for d in sides[::k]])
    return coarse, macro_vertices, tuple(owner)


def _coarsen(surface: GluedSurface, k: int, reports) -> Optional[tuple]:
    """The first k-coarsening whose macro vertices hold every vertex of
    degree != 6, seeded at the corners of the first such vertex (at every
    dart when there is none); None when no seed gives one."""
    neq6 = [r.vertex for r in reports if r.degree != 6]
    seeds = reports[neq6[0]].corners if neq6 else range(surface.dart_count)
    for seed in seeds:
        got = _try_coarsening(surface, seed, k)
        if got is not None and got[1].issuperset(neq6):
            return got
    return None


def check_tri_lb(surface: GluedSurface) -> LbCertificate:
    """Locally bounded triangulation test: degree cap 7 plus a coarsening.

    Positive exactly when max degree <= 7 and the faces partition into
    9-face macro triangles forming a 3-subdivision structure whose macro
    vertices include every vertex of degree != 6.  The cap and the face
    count are read off the flat index, before any vertex report is built.
    """
    if not surface.is_closed():
        raise SurfaceError("check_tri_lb needs a closed surface")
    max_deg = max(surface.index.degrees)
    if max_deg > 7 or surface.face_count % 9 != 0:
        return LbCertificate(False, max_deg, None, None, None)
    got = _coarsen(surface, 3, vertex_orbits(surface))
    if got is None:
        return LbCertificate(False, max_deg, None, None, None)
    return LbCertificate(True, max_deg, *got)


@dataclass(frozen=True)
class SeparationReport:
    ok: bool
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
    for v in neq6:
        for ring in islice(_rings(ix, v), 2):
            if not targets.isdisjoint(ring):  # v itself is in no ring
                return SeparationReport(False, all_macro)
    return SeparationReport(all_macro, all_macro)


def _rings(ix, v: int):
    """BFS rings 1, 2, ... around vertex v of an index, each the new heads
    of the darts leaving the ring before; ends at the first empty ring.

    The heads of the darts leaving a boundary vertex (one per corner) miss
    its last neighbor.  On a closed surface the rings are exact; inside an
    embedded TH_d only its own boundary ring may hold boundary vertices,
    so its rings come out exact too.
    """
    cv, corners = ix.corner_vertex, ix.corners
    seen = {v}
    ring = [v]
    while True:
        nxt = []
        for u in ring:
            for c in corners[u]:
                w = cv[c - 2 if c % 3 == 2 else c + 1]  # head of dart c
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            return
        yield nxt
        ring = nxt


# --- finding TH blocks --------------------------------------------------------

def _th_rings(ix, v: int) -> list:
    """BFS rings 1, 2, ... around v, while ring 1 holds deg(v) vertices
    and each later ring twice, or twice plus one, as many as the one before.

    A vertex-injective TH_d centered at v has ring i equal to its layer i,
    counted from the center, since the rest of the surface is reached only
    through its boundary.  So its rings read th_layer_sizes(d) reversed,
    and d is the size of one of these rings past the first.
    """
    rings = []
    want = ix.degrees[v]
    for ring in _rings(ix, v):
        if len(ring) not in (want, want + bool(rings)):
            break
        rings.append(ring)
        want = 2 * len(ring)
    return rings


def _th_pattern(d: int, cache: dict) -> tuple:
    """TH_d compiled from its center: (program, corner->vertex map, the
    program position of each boundary dart)."""
    if d not in cache:
        block = build_TH(d)
        ix = block.surface.index
        program = _compile_pattern(block.surface.gluing, ix.corners[block.center][0])
        pos = {x: i for i, x in enumerate(program[0])}
        cache[d] = (program, ix.corner_vertex, [pos[b] for b in block.boundary_darts])
    return cache[d]


def _th_walks(surface: GluedSurface, v: int, d: int, cache: dict):
    """The vertex-injective images of TH_d, centered at v, one per corner
    of v that TH_d's center corner can map to."""
    program, pattern_cv, _ = _th_pattern(d, cache)
    ix = surface.index
    for c in ix.corners[v]:
        img = _walk(program, surface.gluing, c)
        if img is not None and _vertex_injective(program[0], img, pattern_cv,
                                                 ix.corner_vertex):
            yield img


def th_center_candidates(surface: GluedSurface) -> dict:
    """Plausible TH_d boundary sizes per candidate center vertex.

    A vertex of interior degree 4..7 could be the fan center of an
    embedded TH_d; each d whose TH_d embeds there vertex-injectively is
    reported, trying only the d that the BFS rings allow (_th_rings).  On
    replacement output the candidate set has size at most two.
    """
    ix = surface.index
    out = {}
    cache = {}
    for v, deg in enumerate(ix.degrees):
        if ix.boundary[v] or not 4 <= deg <= 7:
            continue
        out[v] = {len(ring) for ring in _th_rings(ix, v)[1:]
                  if next(_th_walks(surface, v, len(ring), cache), None) is not None}
    return out


def _vertex_injective(darts, img, pattern_cv, target_cv) -> bool:
    """True when the dart map darts[i] -> img[i] is injective on vertices."""
    vmap = {pattern_cv[d]: target_cv[x] for d, x in zip(darts, img)}
    return len(set(vmap.values())) == len(vmap)


def _th_blocks(surface: GluedSurface) -> list:
    """The TH blocks of a stage-2 surface, as (d, image darts, outer darts).

    A center has degree 4..7, and TH_d walks onto it vertex-injectively
    with the image of its boundary vertex t of degree 6 + t % 2: a flat
    vertex of the 4-subdivision, which gains one face when t is odd.
    TH_e sits inside TH_2e around the same center, so each center takes
    its largest such d.  outer[t] is the image of boundary dart t.
    """
    ix = surface.index
    degrees = ix.degrees
    cache = {}
    found = []
    for v, deg in enumerate(degrees):
        if not 4 <= deg <= 7:
            continue
        for ring in reversed(_th_rings(ix, v)[1:]):
            d = len(ring)
            # the boundary test in bulk, before any walk
            if sorted(degrees[u] for u in ring) != [6] * (d - d // 2) + [7] * (d // 2):
                continue
            bpos = _th_pattern(d, cache)[2]
            img = next((img for img in _th_walks(surface, v, d, cache)
                        if all(degrees[ix.corner_vertex[img[p]]] == 6 + t % 2
                               for t, p in enumerate(bpos))), None)
            if img is not None:
                found.append((d, img, [img[p] for p in bpos]))
                break
    return found


# --- the inverse map ------------------------------------------------------------

def recover_original(surface: GluedSurface) -> GluedSurface:
    """Invert bounded_degree_map from the gluing alone, up to relabeling.

    3-coarsening: check_tri_lb's coarse surface is stage 2.  Block swap:
    each TH_d block found by _th_blocks goes back to the fan TD_d.
    4-coarsening: the coarse surface is the input.  A surface that no
    step accepts raises SurfaceError naming that step.
    """
    if not surface.is_closed() or not surface.is_connected():
        raise SurfaceError("3-coarsening: needs a closed connected surface")
    cert = check_tri_lb(surface)
    if not cert.ok:
        raise SurfaceError("3-coarsening: not a 3-subdivision of maximum degree 7 "
                           "with every non-flat vertex a macro vertex")
    stage2 = cert.coarse
    cv = stage2.index.corner_vertex
    disks, blocks = [], []
    used = set()  # vertices of the blocks so far
    for d, img, outer in _th_blocks(stage2):
        vertices = {cv[x] for x in img}
        if not used.isdisjoint(vertices):
            raise SurfaceError(f"block swap: TH blocks overlap at vertex "
                               f"{min(used & vertices)}")
        used |= vertices
        disks.append(({x // 3 for x in img[::3]}, outer))
        blocks.append(build_TD(d))
    stage1 = _replace_disks(stage2, disks, blocks)
    got = _coarsen(stage1, 4, vertex_orbits(stage1))
    if got is None:
        raise SurfaceError("4-coarsening: the swapped surface is not a "
                           "4-subdivision with every non-flat vertex a macro vertex")
    return got[0]
