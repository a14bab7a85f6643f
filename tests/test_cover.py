import random
from dataclasses import replace

import pytest

import equilat.degree_bound
from equilat.surface import (
    GluedSurface,
    SurfaceError,
    SurfaceIndex,
    VertexReport,
    canonical_form,
    corner_vertex_map,
    euler_and_genus,
    random_surface,
    relabel,
    subdivide,
    vertex_orbits,
)
from equilat.degree_bound import bounded_degree_map, check_tri_lb
from equilat.translation import TranslationStructure, detect_structures
from equilat.cover import canonical_cover, holonomy_cocycle, verify_cover
from equilat.parallelogram import decompose


def sheet_orbit_oracle(surface):
    """Orbit count of the subgroup of Z/6 generated by all loop rotations.

    The sheet transitions take values in the abelian group Z/6, so the
    number of cover components is the index of the subgroup generated by
    the cocycle evaluated on co-tree loops and vertex monodromies: the
    mismatch of each dart against the rotations that a breadth-first
    search over the faces from face 0 accumulates."""
    from math import gcd

    h = holonomy_cocycle(surface)
    ref = [None] * surface.face_count
    ref[0] = 0
    queue = [0]
    for f in queue:
        for d in range(3 * f, 3 * f + 3):
            f2 = surface.gluing[d] // 3
            if ref[f2] is None:
                ref[f2] = (ref[f] + h[d]) % 6
                queue.append(f2)
    gens = 0
    for d in range(surface.dart_count):
        p = surface.gluing[d]
        mismatch = (ref[d // 3] + h[d] - ref[p // 3]) % 6
        gens = gcd(gens, mismatch)
    sub_order = 6 // gcd(gens, 6) if gcd(gens, 6) else 1
    return 6 // sub_order


def test_cocycle_is_antisymmetric(hex_torus):
    h = holonomy_cocycle(hex_torus)
    for d, p in enumerate(hex_torus.gluing):
        assert (h[d] + h[p]) % 6 == 0


def test_monodromy_equals_degree_mod_six(census8):
    # the rotations over the corners of a vertex sum to its monodromy
    for surface in census8[4] + census8[6][:20]:
        h = holonomy_cocycle(surface)
        for rep in vertex_orbits(surface):
            assert sum(h[c] for c in rep.corners) % 6 == rep.degree % 6


def test_translation_surface_splits_into_six_copies(hex_torus):
    cover = canonical_cover(hex_torus)
    assert len(cover.components) == 6
    base = canonical_form(hex_torus)
    for comp in cover.components:
        assert comp.degree == 1
        assert canonical_form(comp.surface) == base


def test_pillowcase_cover_matches_sheet_oracle(pillowcase):
    cover = canonical_cover(pillowcase)
    assert len(cover.components) == sheet_orbit_oracle(pillowcase)
    # degrees 2,2,2 give monodromy subgroup {0,2,4}: two degree-3 components
    assert sorted(c.degree for c in cover.components) == [3, 3]


def test_components_share_one_canonical_form(census8, pillowcase):
    # the sheet shift k -> k + 1 permutes the components transitively, so
    # listing them by smallest total-space face is also canonical order
    several = 0
    for surface in [pillowcase] + census8[2] + census8[4] + census8[6]:
        cover = canonical_cover(surface)
        if len(cover.components) == 1:
            continue
        several += 1
        first = [min(c.sheets) for c in cover.components]
        assert first == sorted(first)
        forms = {canonical_form(c.surface) for c in cover.components}
        assert len(forms) == 1
    assert several == 23


def test_component_count_matches_oracle_on_random(census8):
    for surface in census8[8][:60]:
        cover = canonical_cover(surface)
        assert len(cover.components) == sheet_orbit_oracle(surface)


def test_cover_vertex_degrees_are_multiples_of_six():
    for seed in (0, 1, 2, 3):
        surface = random_surface(8, seed)
        cover = canonical_cover(surface)
        for comp in cover.components:
            assert all(r.degree % 6 == 0 for r in vertex_orbits(comp.surface))
            assert detect_structures(comp.surface) is not None


def test_ramification_indices():
    # a degree-8 vertex gets ramification index 6/gcd(6,8) = 3
    for seed in range(100):
        surface = random_surface(8, seed)
        reps = vertex_orbits(surface)
        if not any(r.degree == 8 for r in reps):
            continue
        cover = canonical_cover(surface)
        v = next(r.vertex for r in reps if r.degree == 8)
        rec = cover.ramification[v]
        assert rec.index == 3 and rec.preimage_count == 2
        cv = corner_vertex_map(surface)
        fiber = [r.degree for r in vertex_orbits(cover.total)
                 if cv[cover.dart_map[r.corners[0]]] == v]
        assert sorted(fiber) == [24, 24]
        return
    pytest.skip("no degree-8 vertex found in the sample")


def test_verify_cover_passes_on_corpus(census8):
    for surface in census8[6]:
        report = verify_cover(surface, canonical_cover(surface))
        assert report.ok
        assert sum(report.component_degrees) == 6
        assert report.component_count <= 6


def test_verify_cover_checks_the_stored_structure():
    surface = random_surface(8, 3)
    cover = canonical_cover(surface)
    comp = cover.components[0]
    weights = list(comp.structure.weights)
    for d in range(3):
        weights[d] = (weights[d] + 1) % 6
    tampered = replace(comp, structure=TranslationStructure(tuple(weights)))
    cover = replace(cover, components=(tampered,) + cover.components[1:])
    with pytest.raises(SurfaceError, match="structure wrong on component 0"):
        verify_cover(surface, cover)


def test_verify_cover_rejects_an_empty_ramification_table():
    surface = random_surface(8, 3)
    cover = canonical_cover(surface)
    with pytest.raises(SurfaceError, match="one record per base vertex"):
        verify_cover(surface, replace(cover, ramification=()))


def test_verify_cover_checks_each_ramification_record_against_the_base():
    # a self-consistent record for a flat vertex, stored for a degree-23 one
    surface = random_surface(8, 3)
    cover = canonical_cover(surface)
    assert vertex_orbits(surface)[0].degree == 23
    flat = replace(cover.ramification[0], base_degree=6, index=1, preimage_count=6)
    cover = replace(cover, ramification=(flat,) + cover.ramification[1:])
    with pytest.raises(SurfaceError, match="record 0 does not match its base vertex"):
        verify_cover(surface, cover)


def test_verify_cover_checks_the_dart_map_length():
    surface = random_surface(8, 3)
    cover = canonical_cover(surface)
    with pytest.raises(SurfaceError, match="one entry per total-space dart"):
        verify_cover(surface, replace(cover, dart_map=cover.dart_map[:-1]))


def test_verify_cover_names_the_first_dart_where_the_projection_fails():
    surface = random_surface(8, 3)
    cover = canonical_cover(surface)
    tg = cover.total.gluing
    for c in (0, 17, len(tg) - 1):
        dart_map = list(cover.dart_map)
        dart_map[c] = (dart_map[c] + 1) % surface.dart_count
        first = min(cd for cd, d in enumerate(dart_map)
                    if dart_map[tg[cd]] != surface.gluing[d])
        with pytest.raises(SurfaceError, match=f"gluing at cover dart {first}$"):
            verify_cover(surface, replace(cover, dart_map=tuple(dart_map)))


def test_verify_cover_checks_that_the_sheets_partition_the_total_space():
    surface = random_surface(8, 3)
    cover = canonical_cover(surface)
    comp = cover.components[0]
    short = replace(comp, sheets=comp.sheets - {max(comp.sheets)})
    cover = replace(cover, components=(short,) + cover.components[1:])
    with pytest.raises(SurfaceError, match="do not partition the 6T total faces"):
        verify_cover(surface, cover)


def test_verify_cover_checks_the_sheet_count_of_each_component(pillowcase):
    # moving a sheet between the two components keeps the partition
    cover = canonical_cover(pillowcase)
    a, b = cover.components
    moved = max(a.sheets)
    cover = replace(cover, components=(replace(a, sheets=a.sheets - {moved}),
                                       replace(b, sheets=b.sheets | {moved})))
    with pytest.raises(SurfaceError, match="component 0 has not one sheet per face"):
        verify_cover(pillowcase, cover)


def _translation_corpus(census8):
    yield from (s for T in (2, 4, 6, 8) for s in census8[T])
    yield from (random_surface(T, seed) for T in (10, 20, 40) for seed in range(10))
    yield from (subdivide(random_surface(8, seed), 3) for seed in range(4))


def test_structure_read_off_the_sheets_equals_the_search(census8):
    # the search in detect_structures is the oracle for the closed form
    several = 0
    for surface in _translation_corpus(census8):
        cover = canonical_cover(surface)
        several += len(cover.components) > 1
        for comp in cover.components:
            assert comp.structure == detect_structures(comp.surface)
    assert several > 100


def test_verify_cover_decides_local_boundedness_itself(hex_torus):
    bounded = subdivide(hex_torus, 3)
    unbounded = random_surface(18, 0)
    for base, expected in ((bounded, True), (unbounded, False)):
        assert check_tri_lb(base).ok is expected
        report = verify_cover(base, canonical_cover(base))
        assert report.locally_bounded_checked is expected


def test_locally_bounded_base_gives_locally_bounded_cover():
    surface = random_surface(4, 3)
    bounded = bounded_degree_map(surface).surface
    assert check_tri_lb(bounded).ok
    cover = canonical_cover(bounded)
    report = verify_cover(bounded, cover)
    assert report.ok and report.locally_bounded_checked


def test_cover_is_natural_under_relabeling():
    rng = random.Random(17)
    for seed in (0, 5, 9):
        surface = random_surface(8, seed)
        perm = list(range(8))
        rng.shuffle(perm)
        rots = [rng.randrange(3) for _ in range(8)]
        other = relabel(surface, perm, rots)
        forms1 = sorted(canonical_form(c.surface)
                        for c in canonical_cover(surface).components)
        forms2 = sorted(canonical_form(c.surface)
                        for c in canonical_cover(other).components)
        assert forms1 == forms2


def test_riemann_hurwitz_on_odd_vertex_surface():
    # find a surface with a branch point and check RH by hand
    for seed in range(200):
        surface = random_surface(8, seed)
        reps = vertex_orbits(surface)
        if all(r.degree % 6 == 0 for r in reps):
            continue
        cover = canonical_cover(surface)
        g = euler_and_genus(surface).genus
        n = sum(1 for r in reps if r.degree % 6 != 0)
        report = verify_cover(surface, cover)
        for d, g_tilde, crit in report.rh_checks:
            assert 2 * g_tilde - 2 + crit == d * (2 * g - 2) + d * n
        return
    pytest.skip("no branched example found")


def test_connected_cover_indexes_only_base_and_total_space(index_builds):
    surface = next(s for s in (random_surface(8, seed) for seed in range(20))
                   if sheet_orbit_oracle(s) == 1)
    cover = canonical_cover(surface)
    [component] = cover.components
    assert component.surface.gluing is cover.total.gluing
    assert sorted(map(id, index_builds)) == sorted((id(surface.gluing),
                                                    id(cover.total.gluing)))


def test_verify_cover_checks_each_component_against_the_total_space(pillowcase):
    # a face-relabelled copy of a component, with its own structure, keeps
    # every invariant but is not the total space on the component's sheets
    cover = canonical_cover(pillowcase)
    comp = cover.components[0]
    T = comp.surface.face_count
    copy = relabel(comp.surface, list(reversed(range(T))), [0] * T)
    assert copy != comp.surface
    tampered = replace(comp, surface=copy, structure=detect_structures(copy))
    cover = replace(cover, components=(tampered,) + cover.components[1:])
    with pytest.raises(SurfaceError, match="component 0 is not the total space"):
        verify_cover(pillowcase, cover)


def test_cover_and_decompose_read_only_flat_index_fields(monkeypatch):
    # cover_decompose-style bases, whose check_tri_lb stops at the degree
    # cap, and locally bounded B(S), whose components go through
    # is_locally_bounded_tran; built before the reports are refused
    bases = [subdivide(random_surface(8, seed), 3) for seed in range(3)]
    bases += [bounded_degree_map(random_surface(4, seed)).surface for seed in range(2)]

    def refuse(index):
        raise AssertionError("vertex reports were read")

    monkeypatch.setattr(SurfaceIndex, "vertices", property(refuse))
    # check_tri_lb keeps its vertex_orbits call; here it gets reports made
    # from the flat fields, so only the path under test is watched
    monkeypatch.setattr(equilat.degree_bound, "vertex_orbits", lambda s: [
        VertexReport(v, *fields) for v, fields in enumerate(
            zip(s.index.degrees, s.index.boundary, s.index.corners))])
    decomposed = []
    lb_checked = 0
    for base in bases:
        cover = canonical_cover(base)
        report = verify_cover(base, cover)
        lb_checked += report.locally_bounded_checked
        for comp in cover.components:
            st = detect_structures(comp.surface)
            assert st == comp.structure
            if comp.genus >= 2:
                _, geoms = decompose(comp.surface, st)
                assert sum(g.triangle_count for g in geoms) == comp.surface.face_count
                decomposed.append(comp.genus)
    assert lb_checked == 2 and len(decomposed) >= 5
