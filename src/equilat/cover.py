"""Canonical degree-6 branched cover of a glued surface.

Identifying every face with the standard unit equilateral triangle gives a
global 6-differential (dz^6 per face).  Its sixth roots live on a degree-6
branched cover assembled from six sheets per face: sheet k over a face
carries zeta^(-k) dz, which gives each component of the cover its
translation structure.  Branch points sit over vertices whose degree is
not a multiple of 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from math import gcd, lcm
from operator import add

from equilat.degree_bound import check_tri_lb
from equilat.surface import (
    BOUNDARY,
    GluedSurface,
    SurfaceError,
    _next_side,
    connected_components,
    euler_and_genus,
)
from equilat.translation import TranslationStructure, is_locally_bounded_tran

__all__ = [
    "CoverComponent",
    "BranchedCover",
    "CoverReport",
    "holonomy_cocycle",
    "canonical_cover",
    "verify_cover",
]


def holonomy_cocycle(surface: GluedSurface) -> tuple:
    """Sheet-rotation cocycle for the sixth roots of the face form dz^6.

    Entry d is the Z/6 rotation a root branch picks up crossing dart d into
    the adjacent face: sheet k glues to sheet k + entry d.  Gluing side s
    of one face to side s' of another composes the two standard charts
    through a rotation by (2s - 2s' + 3) * pi/3: the pi flip across the
    shared edge plus the offset between side directions.  The entries
    over the corners of a vertex sum to its degree mod 6.
    """
    if not surface.is_closed():
        raise SurfaceError("the branched cover is defined for closed surfaces")
    # dart d = 3f + s glued to p = 3f' + s' has 2s' - 2s = 2(p - d) mod 6
    return tuple((2 * (p - d) + 3) % 6 for d, p in enumerate(surface.gluing))


@dataclass(frozen=True)
class CoverComponent:
    surface: GluedSurface
    degree: int  # covering degree onto the base
    sheets: frozenset  # (base face, sheet) pairs making up the component
    structure: TranslationStructure
    genus: int


@dataclass(frozen=True)
class RamificationRecord:
    vertex: int
    base_degree: int
    index: int  # ramification index e(x) shared by all preimages
    preimage_count: int


@dataclass(frozen=True)
class BranchedCover:
    total: GluedSurface  # 6T faces, face 6f+k = sheet k over base face f
    dart_map: tuple  # cover dart -> base dart
    components: tuple  # CoverComponent, by smallest sheet; all isomorphic
    ramification: tuple  # RamificationRecord per base vertex


def _assemble_total(surface: GluedSurface, transitions: tuple) -> tuple:
    """The total space and its dart map, by slice passes.

    Cover dart 3(6f + k) + s = 18f + 3k + s is side s of sheet k over face
    f and lies over base dart 3f + s.  Over d glued to p, sheet k meets
    sheet k + transitions[d] of p's face: cover dart 18(p // 3) + p % 3
    plus 3((k + transitions[d]) % 6).
    """
    T = surface.face_count
    gluing = [0] * (18 * T)
    dart_map = [0] * (18 * T)
    for s in range(3):
        sheet0 = [18 * (p // 3) + p % 3 for p in surface.gluing[s::3]]
        trans = transitions[s::3]
        for k in range(6):
            shift = [3 * ((k + t) % 6) for t in range(6)]
            gluing[3 * k + s::18] = map(add, sheet0, map(shift.__getitem__, trans))
            dart_map[3 * k + s::18] = range(s, 3 * T, 3)
    # transitions[d] + transitions[p] = 0 mod 6, so sheet k of d and sheet
    # k + transitions[d] of p glue back to each other: an involution
    return GluedSurface._trusted(6 * T, tuple(gluing)), tuple(dart_map)


def canonical_cover(surface: GluedSurface) -> BranchedCover:
    """Assemble the six sheets and split into translation components.

    Components come by smallest sheet: the sheet shift k -> k + 1 is a deck
    transformation permuting them transitively, so all are isomorphic.  The
    translation structure of each is read off its sheets, with no search.

    Verifies on the way out that each component covers the base evenly
    with cover vertex degrees lcm(deg, 6), and satisfies the genus bound
    6g + 5m and the Riemann-Hurwitz identity.
    """
    if not surface.is_closed() or not surface.is_connected():
        raise SurfaceError("the canonical cover needs a closed connected surface")
    total, dart_map = _assemble_total(surface, holonomy_cocycle(surface))
    base_stats = euler_and_genus(surface)
    degrees, cv = surface.index.degrees, surface.index.corner_vertex
    # ramification per base vertex: all preimages share index 6/gcd(6, deg)
    ram = []
    for v, deg in enumerate(degrees):
        e = 6 // gcd(6, deg)
        ram.append(RamificationRecord(v, deg, e, 6 // e))
    # split into components, keeping the sheet content of each
    m = sum(1 for deg in degrees if deg != 6)
    n_branch = sum(1 for deg in degrees if deg % 6 != 0)
    # dart 3i+s weighs zeta^(phase + 2s) as in detect_structures; crossing
    # dart d moves the sheet by transitions[d] and the phase by its negative,
    # so phase + sheet is constant on a component; k0 puts zeta^0 on dart 0
    triples = [(k, (k + 2) % 6, (k + 4) % 6) for k in range(6)]
    parts = []
    for faces, sub in zip(total.index.components, connected_components(total)):
        if len(faces) % surface.face_count != 0:
            raise SurfaceError("component does not cover the base evenly")
        degree = len(faces) // surface.face_count
        k0 = faces[0] % 6
        structure = TranslationStructure(tuple(chain.from_iterable(
            triples[(k0 - f) % 6] for f in faces)))
        # component face i is total face faces[i]
        crit = 0
        for deg, corners in zip(sub.index.degrees, sub.index.corners):
            c = corners[0]
            base_deg = degrees[cv[dart_map[3 * faces[c // 3] + c % 3]]]
            if deg != lcm(base_deg, 6):
                raise SurfaceError("cover vertex degree is not lcm(deg, 6)")
            if deg // base_deg > 1:
                crit += 1
        stats = euler_and_genus(sub)
        if stats.genus > 6 * base_stats.genus + 5 * m:
            raise SurfaceError("cover component genus exceeds 6g + 5m")
        if 2 * stats.genus - 2 + crit != degree * (2 * base_stats.genus - 2) + degree * n_branch:
            raise SurfaceError("Riemann-Hurwitz identity fails on a component")
        sheets = frozenset(map(divmod, faces, repeat(6)))
        parts.append(CoverComponent(sub, degree, sheets, structure, stats.genus))
    if sum(p.degree for p in parts) != 6 or len(parts) > 6:
        raise SurfaceError("component degrees do not sum to a degree-6 cover")
    return BranchedCover(total, dart_map, tuple(parts), tuple(ram))


@dataclass(frozen=True)
class CoverReport:
    ok: bool
    component_count: int
    component_degrees: tuple
    branch_points: int
    rh_checks: tuple  # (degree, genus, critical points) per component
    locally_bounded_checked: bool


def verify_cover(surface: GluedSurface, cover: BranchedCover) -> CoverReport:
    """Re-derive the cover invariants from scratch and cross-check.

    Checks the projection against both gluings, that the component sheets
    partition the 6T total faces and that each component is the total space
    restricted to its sheets, and the ramification table against the
    base: each vertex's degree, and the degree and number of its preimages.
    Recomputes genera by Euler characteristic, branch counts from base
    degrees and the Riemann-Hurwitz identity per component, checks each
    stored translation structure dart by dart, and decides by check_tri_lb
    whether the base is locally bounded, in which case every component
    must be too.  Any mismatch with the stored data raises with the first
    violated identity.
    """

    def fail(msg):
        raise SurfaceError(f"cover verification failed: {msg}")

    T = surface.face_count
    base_stats = euler_and_genus(surface)
    degrees, cv = surface.index.degrees, surface.index.corner_vertex
    n_branch = sum(1 for deg in degrees if deg % 6 != 0)
    if cover.total.face_count != 6 * T:
        fail("total space does not have 6T faces")
    dart_map, tg = cover.dart_map, cover.total.gluing
    if len(dart_map) != cover.total.dart_count:
        fail("dart map does not have one entry per total-space dart")
    if list(map(dart_map.__getitem__, tg)) != list(map(surface.gluing.__getitem__, dart_map)):
        cd = next(cd for cd, d in enumerate(dart_map) if dart_map[tg[cd]] != surface.gluing[d])
        fail(f"projection does not commute with gluing at cover dart {cd}")
    if len(cover.ramification) != len(degrees):
        fail("ramification table does not have one record per base vertex")
    for v, (deg, rec) in enumerate(zip(degrees, cover.ramification)):
        if rec.vertex != v or rec.base_degree != deg:
            fail(f"ramification record {v} does not match its base vertex")
        if rec.index != 6 // gcd(6, rec.base_degree):
            fail(f"stored ramification index wrong at vertex {rec.vertex}")
        if rec.index * rec.preimage_count != 6:
            fail(f"fiber over vertex {rec.vertex} does not sum to 6")
    if len(cover.components) > 6:
        fail("more than six components")
    if sum(c.degree for c in cover.components) != 6:
        fail("component degrees do not sum to 6")
    # the total-space faces of each component, in ascending order
    backs = [sorted(6 * f + k if 0 <= k < 6 else -1 for f, k in c.sheets)
             for c in cover.components]
    if sorted(chain.from_iterable(backs)) != list(range(6 * T)):
        fail("component sheets do not partition the 6T total faces")
    locally_bounded = check_tri_lb(surface).ok
    preimages = [0] * len(degrees)
    rh = []
    for i, (comp, back) in enumerate(zip(cover.components, backs)):
        if len(comp.sheets) != comp.surface.face_count:
            fail(f"component {i} has not one sheet per face")
        if comp.surface.face_count != comp.degree * T:
            fail(f"component {i} does not have degree x T faces")
        # the component is the total space on its sheets: component face j
        # is the j-th smallest of its total-space faces, and each component
        # dart is glued as its total-space dart is
        g = comp.surface.gluing
        if len(back) == len(tg) // 3:
            glued_alike = g == tg  # all sheets: the renumbering is the identity
        else:
            glued_alike = all(tg[3 * back[d // 3] + d % 3] == 3 * back[p // 3] + p % 3
                              for d, p in enumerate(g))
        if BOUNDARY in g or not glued_alike:
            fail(f"component {i} is not the total space on its sheets")
        stats = euler_and_genus(comp.surface)
        if stats.genus != comp.genus:
            fail(f"stored genus wrong on component {i}")
        # the stored weights obey both rules: opposite ends of an edge
        # differ by zeta^3, the next side of a face by zeta^2
        w = comp.structure.weights
        if len(w) != len(g) or (list(map(w.__getitem__, g)) != [(k + 3) % 6 for k in w]
                                or _next_side(w) != [(k + 2) % 6 for k in w]):
            fail(f"stored translation structure wrong on component {i}")
        # critical points of the restricted covering from degree ratios
        crit = 0
        cix = comp.surface.index
        for deg, corners in zip(cix.degrees, cix.corners):
            c = corners[0]
            v = cv[dart_map[3 * back[c // 3] + c % 3]]
            base_deg = degrees[v]
            if deg != cover.ramification[v].index * base_deg:
                fail(f"component {i} vertex degree is not index x base degree")
            preimages[v] += 1
            if deg // base_deg > 1:
                crit += 1
        lhs = 2 * stats.genus - 2 + crit
        rhs = comp.degree * (2 * base_stats.genus - 2) + comp.degree * n_branch
        if lhs != rhs:
            fail(f"Riemann-Hurwitz fails on component {i}: {lhs} != {rhs}")
        rh.append((comp.degree, stats.genus, crit))
        if locally_bounded:
            rep = is_locally_bounded_tran(comp.surface, comp.structure)
            if not rep.ok:
                fail(f"component {i} of a locally bounded base is not locally bounded: "
                     f"{rep.first_failure}")
    for rec, count in zip(cover.ramification, preimages):
        if count != rec.preimage_count:
            fail(f"stored preimage count wrong at vertex {rec.vertex}")
    return CoverReport(
        ok=True,
        component_count=len(cover.components),
        component_degrees=tuple(c.degree for c in cover.components),
        branch_points=n_branch,
        rh_checks=tuple(rh),
        locally_bounded_checked=locally_bounded,
    )
