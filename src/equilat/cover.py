"""Canonical degree-6 branched cover of a glued surface.

Identifying every face with the standard unit equilateral triangle gives a
global 6-differential (dz^6 per face).  Its sixth roots live on a degree-6
branched cover assembled from six sheets per face: sheet k over a face
carries zeta^(-k) dz, which gives each component of the cover its
translation structure.  Branch points sit over vertices whose degree is
not a multiple of 6.  The cover keeps only its total space and its
components: total face 6f+k is sheet k over base face f, and the rest follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
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
    faces: tuple  # its total-space faces, ascending: face i is faces[i]
    structure: TranslationStructure
    genus: int


@dataclass(frozen=True)
class BranchedCover:
    """The total space and its components, listed by smallest face.

    Total face 6f + k is sheet k over base face f, so cover dart 18f + 3k + s
    lies over base dart 3f + s: the projection is 3 * (cd // 18) + cd % 3.
    Over a base vertex of degree deg lie gcd(6, deg) cover vertices, each
    of ramification index 6 / gcd(6, deg).
    """

    total: GluedSurface  # 6T faces
    components: tuple  # CoverComponent; all isomorphic


def _assemble_total(surface: GluedSurface, transitions: tuple) -> GluedSurface:
    """The total space, by slice passes.

    Over base dart d glued to p, sheet k meets sheet k + transitions[d] of
    p's face: cover dart 18(p // 3) + p % 3 plus 3((k + transitions[d]) % 6).
    """
    T = surface.face_count
    gluing = [0] * (18 * T)
    for s in range(3):
        sheet0 = [18 * (p // 3) + p % 3 for p in surface.gluing[s::3]]
        trans = transitions[s::3]
        for k in range(6):
            shift = [3 * ((k + t) % 6) for t in range(6)]
            gluing[3 * k + s::18] = map(add, sheet0, map(shift.__getitem__, trans))
    # transitions[d] + transitions[p] = 0 mod 6, so sheet k of d and sheet
    # k + transitions[d] of p glue back to each other: an involution
    return GluedSurface._trusted(6 * T, tuple(gluing))


def canonical_cover(surface: GluedSurface) -> BranchedCover:
    """Assemble the six sheets and split into translation components.

    Components come by smallest face: the sheet shift k -> k + 1 is a deck
    transformation permuting them transitively, so all are isomorphic.  The
    translation structure of each is read off its sheets, with no search.

    Verifies on the way out that each component covers the base evenly
    with cover vertex degrees lcm(deg, 6), and satisfies the genus bound
    6g + 5m and the Riemann-Hurwitz identity.
    """
    if not surface.is_closed() or not surface.is_connected():
        raise SurfaceError("the canonical cover needs a closed connected surface")
    total = _assemble_total(surface, holonomy_cocycle(surface))
    base_stats = euler_and_genus(surface)
    degrees, cv = surface.index.degrees, surface.index.corner_vertex
    # split into components, keeping the total-space faces of each
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
        crit = 0
        for deg, corners in zip(sub.index.degrees, sub.index.corners):
            c = corners[0]
            base_deg = degrees[cv[3 * (faces[c // 3] // 6) + c % 3]]
            if deg != lcm(base_deg, 6):
                raise SurfaceError("cover vertex degree is not lcm(deg, 6)")
            if deg // base_deg > 1:
                crit += 1
        stats = euler_and_genus(sub)
        if stats.genus > 6 * base_stats.genus + 5 * m:
            raise SurfaceError("cover component genus exceeds 6g + 5m")
        if 2 * stats.genus - 2 + crit != degree * (2 * base_stats.genus - 2) + degree * n_branch:
            raise SurfaceError("Riemann-Hurwitz identity fails on a component")
        parts.append(CoverComponent(sub, degree, faces, structure, stats.genus))
    if sum(p.degree for p in parts) != 6 or len(parts) > 6:
        raise SurfaceError("component degrees do not sum to a degree-6 cover")
    return BranchedCover(total, tuple(parts))


@dataclass(frozen=True)
class CoverReport:
    component_count: int
    component_degrees: tuple
    branch_points: int
    rh_checks: tuple  # (degree, genus, critical points) per component
    locally_bounded_checked: bool


def verify_cover(surface: GluedSurface, cover: BranchedCover) -> CoverReport:
    """Re-derive the cover invariants from scratch and cross-check.

    Checks that the projection 3 * (cd // 18) + cd % 3 commutes with both
    gluings, that the component faces partition the 6T total faces and
    that each component is the total space restricted to its faces, and
    each fibre against the base degrees: every cover vertex over v has
    degree (6 / gcd(6, deg v)) * deg v, and gcd(6, deg v) of them lie over
    v.  Recomputes genera by Euler characteristic, branch counts from base
    degrees and the Riemann-Hurwitz identity per component, checks each
    stored translation structure dart by dart, and decides by check_tri_lb
    whether the base is locally bounded, in which case every component
    must be too.  Any mismatch raises with the first violated identity.
    """

    def fail(msg):
        raise SurfaceError(f"cover verification failed: {msg}")

    T = surface.face_count
    base_stats = euler_and_genus(surface)
    degrees, cv = surface.index.degrees, surface.index.corner_vertex
    n_branch = sum(1 for deg in degrees if deg % 6 != 0)
    if cover.total.face_count != 6 * T:
        fail("total space does not have 6T faces")
    tg = cover.total.gluing
    proj = [3 * (cd // 18) + cd % 3 for cd in range(18 * T)]
    if list(map(proj.__getitem__, tg)) != list(map(surface.gluing.__getitem__, proj)):
        cd = next(cd for cd, d in enumerate(proj) if proj[tg[cd]] != surface.gluing[d])
        fail(f"projection does not commute with gluing at cover dart {cd}")
    if len(cover.components) > 6:
        fail("more than six components")
    if sum(c.degree for c in cover.components) != 6:
        fail("component degrees do not sum to 6")
    if sorted(chain.from_iterable(c.faces for c in cover.components)) != list(range(6 * T)):
        fail("component sheets do not partition the 6T total faces")
    locally_bounded = check_tri_lb(surface).ok
    preimages = [0] * len(degrees)
    rh = []
    for i, comp in enumerate(cover.components):
        faces = comp.faces
        if len(faces) != comp.surface.face_count:
            fail(f"component {i} has not one sheet per face")
        if list(faces) != sorted(faces):
            fail(f"component {i} faces are not in ascending order")
        if comp.surface.face_count != comp.degree * T:
            fail(f"component {i} does not have degree x T faces")
        # the component is the total space on its faces: component face j
        # is total face faces[j], and each component dart is glued as its
        # total-space dart is
        g = comp.surface.gluing
        if len(faces) == len(tg) // 3:
            glued_alike = g == tg  # all sheets: the renumbering is the identity
        else:
            glued_alike = all(tg[3 * faces[d // 3] + d % 3] == 3 * faces[p // 3] + p % 3
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
            v = cv[proj[3 * faces[c // 3] + c % 3]]
            base_deg = degrees[v]
            if deg != 6 // gcd(6, base_deg) * base_deg:
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
    for v, (deg, count) in enumerate(zip(degrees, preimages)):
        if count != gcd(6, deg):
            fail(f"{count} cover vertices over vertex {v}, not gcd(6, {deg})")
    return CoverReport(
        component_count=len(cover.components),
        component_degrees=tuple(c.degree for c in cover.components),
        branch_points=n_branch,
        rh_checks=tuple(rh),
        locally_bounded_checked=locally_bounded,
    )
