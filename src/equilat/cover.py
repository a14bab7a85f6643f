"""Canonical degree-6 branched cover of a glued surface.

Identifying every face with the standard unit equilateral triangle gives a
global 6-differential (dz^6 per face).  Its sixth roots live on a degree-6
branched cover assembled from six sheets per face; each component of that
cover carries a translation structure.  Branch points sit over vertices
whose degree is not a multiple of 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional

from equilat.surface import (
    GluedSurface,
    SurfaceError,
    connected_components,
    corner_vertex_map,
    euler_and_genus,
    vertex_orbits,
)
from equilat.translation import (
    TranslationStructure,
    detect_structures,
    is_locally_bounded_tran,
)

__all__ = [
    "Holonomy6",
    "CoverComponent",
    "BranchedCover",
    "CoverReport",
    "holonomy_cocycle",
    "canonical_cover",
    "verify_cover",
]


@dataclass(frozen=True)
class Holonomy6:
    """Sheet-rotation cocycle for the sixth roots of the face form dz^6.

    transitions[d] is the Z/6 rotation a root branch picks up crossing dart
    d into the adjacent face: sheet k glues to sheet k + transitions[d].
    references[f] is the accumulated rotation of face f along a breadth
    first search from face 0 (a coboundary normalization; the assembled
    cover does not depend on it).
    """

    transitions: tuple
    references: tuple

    def monodromy(self, surface: GluedSurface, vertex: int) -> int:
        corners = surface.index.vertices[vertex].corners
        return sum(self.transitions[c] for c in corners) % 6


def holonomy_cocycle(surface: GluedSurface) -> Holonomy6:
    """Per-dart sheet rotations; monodromy around a vertex is deg mod 6.

    Gluing side s of one face to side s' of another composes the two
    standard charts through a rotation by (2s - 2s' + 3) * pi/3: the pi
    flip across the shared edge plus the offset between side directions.
    """
    if not surface.is_closed():
        raise SurfaceError("the branched cover is defined for closed surfaces")
    trans = []
    for d in range(surface.dart_count):
        p = surface.gluing[d]
        s, s2 = d % 3, p % 3
        trans.append((2 * s2 - 2 * s + 3) % 6)
    refs = [None] * surface.face_count
    refs[0] = 0
    queue = [0]
    for f in queue:  # breadth first; queue grows while it is read
        for s in range(3):
            d = 3 * f + s
            f2 = surface.gluing[d] // 3
            if refs[f2] is None:
                refs[f2] = (refs[f] + trans[d]) % 6
                queue.append(f2)
    refs = tuple(0 if r is None else r for r in refs)
    return Holonomy6(tuple(trans), refs)


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
    base: GluedSurface
    total: GluedSurface  # 6T faces, face 6f+k = sheet k over base face f
    dart_map: tuple  # cover dart -> base dart
    components: tuple  # CoverComponent, by smallest sheet; all isomorphic
    ramification: tuple  # RamificationRecord per base vertex
    cocycle: Holonomy6


def _assemble_total(surface: GluedSurface, h: Holonomy6) -> tuple:
    T = surface.face_count
    gluing = [0] * (18 * T)
    dart_map = [0] * (18 * T)
    for f in range(T):
        for s in range(3):
            d = 3 * f + s
            p = surface.gluing[d]
            for k in range(6):
                cd = 3 * (6 * f + k) + s
                k2 = (k + h.transitions[d]) % 6
                gluing[cd] = 3 * (6 * (p // 3) + k2) + p % 3
                dart_map[cd] = d
    # transitions[d] + transitions[p] = 0 mod 6, so sheet k of d and sheet
    # k + transitions[d] of p glue back to each other: an involution
    return GluedSurface._trusted(6 * T, tuple(gluing)), tuple(dart_map)


def canonical_cover(surface: GluedSurface) -> BranchedCover:
    """Assemble the six sheets and split into translation components.

    Components come by smallest sheet: the sheet shift k -> k + 1 is a deck
    transformation permuting them transitively, so all are isomorphic.

    Verifies on the way out that each component covers the base evenly,
    admits a translation structure, satisfies the genus bound
    6g + 5m and the Riemann-Hurwitz identity, and that a locally bounded
    base yields locally bounded components.
    """
    if not surface.is_closed() or not surface.is_connected():
        raise SurfaceError("the canonical cover needs a closed connected surface")
    h = holonomy_cocycle(surface)
    total, dart_map = _assemble_total(surface, h)
    base_stats = euler_and_genus(surface)
    base_reports = vertex_orbits(surface)
    cv = corner_vertex_map(surface)
    # ramification per base vertex: all preimages share index 6/gcd(6, deg)
    ram = []
    for rep in base_reports:
        e = 6 // gcd(6, rep.degree)
        ram.append(RamificationRecord(rep.vertex, rep.degree, e, 6 // e))
    cover_reports = vertex_orbits(total)
    cover_cv = corner_vertex_map(total)
    for crep in cover_reports:
        base_v = cv[dart_map[crep.corners[0]]]
        if crep.degree != lcm(base_reports[base_v].degree, 6):
            raise SurfaceError("cover vertex degree is not lcm(deg, 6)")
    # split into components, keeping the sheet content of each
    m = sum(1 for rep in base_reports if rep.degree != 6)
    n_branch = sum(1 for rep in base_reports if rep.degree % 6 != 0)
    parts = []
    for faces, sub in zip(total.index.components, connected_components(total)):
        if len(faces) % surface.face_count != 0:
            raise SurfaceError("component does not cover the base evenly")
        degree = len(faces) // surface.face_count
        structure = detect_structures(sub)
        if structure is None:
            raise SurfaceError("cover component is not a translation surface")
        stats = euler_and_genus(sub)
        if stats.genus > 6 * base_stats.genus + 5 * m:
            raise SurfaceError("cover component genus exceeds 6g + 5m")
        crit = _critical_count(total, cover_reports, cover_cv, dart_map, cv,
                               base_reports, set(faces))
        if 2 * stats.genus - 2 + crit != degree * (2 * base_stats.genus - 2) + degree * n_branch:
            raise SurfaceError("Riemann-Hurwitz identity fails on a component")
        sheets = frozenset((f // 6, f % 6) for f in faces)
        parts.append(CoverComponent(sub, degree, sheets, structure, stats.genus))
    if sum(p.degree for p in parts) != 6 or len(parts) > 6:
        raise SurfaceError("component degrees do not sum to a degree-6 cover")
    return BranchedCover(surface, total, dart_map, tuple(parts), tuple(ram), h)


def _critical_count(total, cover_reports, cover_cv, dart_map, base_cv,
                    base_reports, face_set) -> int:
    crit = 0
    for crep in cover_reports:
        if crep.corners[0] // 3 not in face_set:
            continue
        base_deg = base_reports[base_cv[dart_map[crep.corners[0]]]].degree
        if crep.degree // base_deg > 1:
            crit += 1
    return crit


@dataclass(frozen=True)
class CoverReport:
    ok: bool
    component_count: int
    component_degrees: tuple
    component_genera: tuple
    branch_points: int
    rh_checks: tuple  # (degree, genus, critical points) per component
    locally_bounded_checked: bool
    first_failure: Optional[str]


def verify_cover(surface: GluedSurface, cover: BranchedCover,
                 base_locally_bounded: bool = False) -> CoverReport:
    """Re-derive the cover invariants from scratch and cross-check.

    Recomputes genera by Euler characteristic, ramification from vertex
    orbit degree ratios, branch counts from base degrees, and the
    Riemann-Hurwitz identity per component, and checks each stored
    translation structure dart by dart; any mismatch with the stored data
    raises with the first violated identity.
    """

    def fail(msg):
        raise SurfaceError(f"cover verification failed: {msg}")

    base_stats = euler_and_genus(surface)
    base_reports = vertex_orbits(surface)
    cv = corner_vertex_map(surface)
    n_branch = sum(1 for rep in base_reports if rep.degree % 6 != 0)
    if cover.total.face_count != 6 * surface.face_count:
        fail("total space does not have 6T faces")
    for cd, d in enumerate(cover.dart_map):
        if cover.dart_map[cover.total.gluing[cd]] != surface.gluing[d]:
            fail(f"projection does not commute with gluing at cover dart {cd}")
    for rec in cover.ramification:
        if rec.index != 6 // gcd(6, rec.base_degree):
            fail(f"stored ramification index wrong at vertex {rec.vertex}")
        if rec.index * rec.preimage_count != 6:
            fail(f"fiber over vertex {rec.vertex} does not sum to 6")
    if len(cover.components) > 6:
        fail("more than six components")
    if sum(c.degree for c in cover.components) != 6:
        fail("component degrees do not sum to 6")
    rh = []
    for i, comp in enumerate(cover.components):
        stats = euler_and_genus(comp.surface)
        if stats.genus != comp.genus:
            fail(f"stored genus wrong on component {i}")
        reports = vertex_orbits(comp.surface)
        if any(r.degree % 6 != 0 for r in reports):
            fail(f"component {i} has a vertex degree not divisible by 6")
        # the stored weights obey both rules: opposite ends of an edge
        # differ by zeta^3, the next side of a face by zeta^2
        g, w = comp.surface.gluing, comp.structure.weights
        if len(w) != len(g) or any(
                w[g[d]] != (w[d] + 3) % 6 or w[d - d % 3 + (d + 1) % 3] != (w[d] + 2) % 6
                for d in range(len(g))):
            fail(f"stored translation structure wrong on component {i}")
        # critical points of the restricted covering from degree ratios;
        # component face i sits over the i-th smallest total-space face
        back = dict(enumerate(sorted(6 * f + k for f, k in comp.sheets)))
        crit = 0
        for r in reports:
            total_dart = 3 * back[r.corners[0] // 3] + r.corners[0] % 3
            base_deg = base_reports[cv[cover.dart_map[total_dart]]].degree
            if r.degree % base_deg != 0:
                fail(f"component {i} vertex degree not a multiple of the base degree")
            if r.degree // base_deg > 1:
                crit += 1
        lhs = 2 * stats.genus - 2 + crit
        rhs = comp.degree * (2 * base_stats.genus - 2) + comp.degree * n_branch
        if lhs != rhs:
            fail(f"Riemann-Hurwitz fails on component {i}: {lhs} != {rhs}")
        rh.append((comp.degree, stats.genus, crit))
        if base_locally_bounded:
            rep = is_locally_bounded_tran(comp.surface, comp.structure)
            if not rep.ok:
                fail(f"component {i} of a locally bounded base is not locally bounded: "
                     f"{rep.first_failure}")
    return CoverReport(
        ok=True,
        component_count=len(cover.components),
        component_degrees=tuple(c.degree for c in cover.components),
        component_genera=tuple(c.genus for c in cover.components),
        branch_points=n_branch,
        rh_checks=tuple(rh),
        locally_bounded_checked=base_locally_bounded,
        first_failure=None,
    )
