import pytest

from equilat.cover import canonical_cover
from equilat.eisenstein import ZERO, Eisenstein
from equilat.surface import (
    BOUNDARY,
    GluedSurface,
    SurfaceError,
    _head_corner,
    corner_vertex_map,
    random_surface,
    subdivide,
)
from equilat.translation import (
    MAX_LB_DEGREE,
    PeriodMap,
    TranslationStructure,
    build_period_map,
    detect_structures,
    edge_path_period,
    face_types,
    is_locally_bounded_tran,
)

SIXTH_ROOTS = {Eisenstein(1, 0), Eisenstein(0, 1), Eisenstein(-1, 1),
               Eisenstein(-1, 0), Eisenstein(0, -1), Eisenstein(1, -1)}


def _rotations(st):
    return [TranslationStructure(tuple((k + r) % 6 for k in st.weights)) for r in range(6)]


def test_torus_admits_six_structures(hex_torus):
    st_ = detect_structures(hex_torus)
    assert st_.weights[0] == 0
    assert len(set(_rotations(st_))) == 6  # the six global rotations are distinct


def test_pillowcase_admits_no_structure(pillowcase):
    # its vertices have degree 2, which no flat directional weighting allows
    assert detect_structures(pillowcase) is None


def test_zero_or_six_structures(brute_force_structures):
    # exactly one phase vector with face 0 at phase 0 obeys the rules when a
    # structure is found, and none otherwise; its six rotations are the rest
    found = 0
    for surface, passing in brute_force_structures:
        st_ = detect_structures(surface)
        if st_ is None:
            assert passing == []
        else:
            found += 1
            assert passing == [st_.weights]
    assert found == 5


def _structure_from_rules(surface, k0):
    """The structure with zeta^k0 on dart 0, propagated face by face from
    the two defining rules as exponents mod 6: sides of a face differ by
    zeta^2 counterclockwise, and the two ends of an edge are opposite."""
    weights = [None] * surface.dart_count
    weights[0:3] = [(k0 + 2 * s) % 6 for s in range(3)]
    stack = [0]
    while stack:
        f = stack.pop()
        for s in range(3):
            p = surface.gluing[3 * f + s]
            if weights[p] is None:
                k = weights[3 * f + s] + 3
                f2, s2 = divmod(p, 3)
                for t in range(3):
                    weights[3 * f2 + t] = (k + 2 * (t - s2)) % 6
                stack.append(f2)
    return TranslationStructure(tuple(weights))


def test_structure_rotations_equal_rule_construction(census8):
    found = 0
    for T in (2, 4, 6):
        for surface in census8[T]:
            st_ = detect_structures(surface)
            if st_ is not None:
                found += 1
                assert _rotations(st_) == [_structure_from_rules(surface, k) for k in range(6)]
    assert found > 0


def test_face_types_bipartition(hex_torus):
    st_ = detect_structures(hex_torus)
    types = face_types(hex_torus, st_)
    for d, p in enumerate(hex_torus.gluing):
        assert types[d // 3] != types[p // 3]


def test_single_edge_periods_are_sixth_roots(hex_torus):
    st_ = detect_structures(hex_torus)
    for d in range(hex_torus.dart_count):
        assert st_.period(d) in SIXTH_ROOTS
        assert st_.period(d) + st_.period(hex_torus.gluing[d]) == Eisenstein(0, 0)


def test_edge_path_period_closes_around_face(hex_torus):
    st_ = detect_structures(hex_torus)
    assert edge_path_period(hex_torus, st_, (0, 1, 2)) == Eisenstein(0, 0)


def test_loop_periods_in_unit_lattice(census8):
    # every co-tree loop holonomy is an honest Eisenstein integer
    for T, classes in census8.items():
        for surface in classes:
            st_ = detect_structures(surface)
            if st_ is None:
                continue
            pm = build_period_map(surface, st_)
            for _, h in pm.holonomies:
                assert isinstance(h, Eisenstein)


def _period_map_oracle(surface, st, base):
    """A period map built the plain way: a first-in first-out queue of
    vertices and the set of tree edges, each edge the set of its darts."""
    cv = corner_vertex_map(surface)
    corners = surface.index.corners
    potentials = [None] * len(corners)
    potentials[base] = ZERO
    tree_edges = set()
    queue = [base]
    while queue:
        v = queue.pop(0)
        for d in sorted(corners[v]):  # the darts leaving v
            w = cv[_head_corner(d)]
            if potentials[w] is None:
                potentials[w] = potentials[v] + st.period(d)
                tree_edges.add(frozenset((d, surface.gluing[d])))
                queue.append(w)
    holonomies = []
    for d in range(surface.dart_count):
        p = surface.gluing[d]
        if p != BOUNDARY and d < p and frozenset((d, p)) not in tree_edges:
            tail, head = cv[d], cv[_head_corner(d)]
            holonomies.append((d, potentials[tail] + st.period(d) - potentials[head]))
    return PeriodMap(tuple(potentials), tuple(holonomies))


def _cover_components(seeds):
    for seed in seeds:
        for comp in canonical_cover(subdivide(random_surface(8, seed), 3)).components:
            yield comp.surface, comp.structure


def test_period_map_matches_oracle(tran_lb_corpus):
    checked = 0
    for surface, st_ in [*tran_lb_corpus, *_cover_components((1, 2, 3))]:
        V = len(surface.index.vertices)
        high = [r.vertex for r in surface.index.vertices if r.degree > 6]
        for base in sorted({0, V // 2, V - 1, *high[:2]}):
            assert build_period_map(surface, st_, base) == \
                _period_map_oracle(surface, st_, base)
            checked += 1
    assert checked > 3 * len(tran_lb_corpus)


def test_torus_is_not_locally_bounded(hex_torus):
    st_ = detect_structures(hex_torus)
    report = is_locally_bounded_tran(hex_torus, st_)
    assert not report.ok and report.degree_ok and not report.periods_ok
    assert "3Z+3wZ" in report.first_failure


def test_three_subdivision_is_locally_bounded(hex_torus):
    sub = subdivide(hex_torus, 3)
    st_ = detect_structures(sub)
    report = is_locally_bounded_tran(sub, st_)
    assert report.ok and report.max_degree <= MAX_LB_DEGREE


def test_subdivision_scales_holonomies(hex_torus):
    # after 3-subdivision every essential loop period is scaled by 3:
    # all holonomies land in 3Z + 3wZ and the nonzero ones have norm 9
    sub = subdivide(hex_torus, 3)
    pm3 = build_period_map(sub, detect_structures(sub))
    nonzero = [h for _, h in pm3.holonomies if h != Eisenstein(0, 0)]
    assert nonzero and all(h.in_sublattice(3) for h in nonzero)
    assert {h.norm() for h in nonzero} == {9}


def test_detect_rejects_open_surface():
    from equilat.surface import BOUNDARY

    tri = GluedSurface(1, (BOUNDARY, BOUNDARY, BOUNDARY))
    with pytest.raises(SurfaceError):
        detect_structures(tri)
