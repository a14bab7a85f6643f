import dataclasses

import pytest

from equilat.cover import canonical_cover
from equilat.eisenstein import ZERO
from equilat.surface import (
    BOUNDARY,
    GluedSurface,
    SurfaceError,
    euler_and_genus,
    random_surface,
    relabel,
    subdivide,
    vertex_orbits,
)
from equilat.translation import TranslationStructure, detect_structures
from equilat.parallelogram import (
    ALLOWED_CORNER_PAIRS,
    build_polytope,
    build_trajectories,
    decompose,
    develop_face,
)


def test_rejects_genus_one(hex_torus):
    st = detect_structures(hex_torus)
    with pytest.raises(SurfaceError, match="genus-1"):
        build_trajectories(hex_torus, st)


def test_rejects_subdivided_torus(hex_torus):
    # still genus 1 after subdivision: no vertex of degree > 6 can exist
    sub = subdivide(hex_torus, 3)
    st = detect_structures(sub)
    with pytest.raises(SurfaceError, match="genus-1"):
        build_trajectories(sub, st)


def test_trajectory_edges_carry_axis_weights(tran_lb_corpus):
    surface, st = tran_lb_corpus[0]
    A = build_trajectories(surface, st)
    for e in A.a0_edges:
        assert {st.weights[d] for d in e} == {0, 3}
    for e in A.a1_edges | A.a2_edges:
        assert {st.weights[d] for d in e} == {1, 4}
    assert A.a0_edges.isdisjoint(A.a1_edges | A.a2_edges)


def test_polytope_structure_on_corpus(tran_lb_corpus):
    for surface, st in tran_lb_corpus:
        g = euler_and_genus(surface).genus
        high = {r.vertex for r in vertex_orbits(surface) if r.degree > 6}
        B, geoms = decompose(surface, st)
        assert high <= B.vertices
        assert len(B.faces) <= 12 * (g - 1)
        assert sum(geom.triangle_count for geom in geoms) == surface.face_count
        for geom in geoms:
            assert geom.closes
            assert geom.length >= 3 and geom.width >= 3
            assert 2 * geom.length * geom.width == geom.triangle_count
            turns = [c[1] for c in geom.corner_vertices]
            assert sorted(turns) == [1, 1, 2, 2] and turns[0] != turns[1]
            assert all(c[2] in ALLOWED_CORNER_PAIRS for c in geom.corner_vertices)
            assert any(c[0] in high for c in geom.corner_vertices)


def test_edges_are_maximal_same_direction_runs(tran_lb_corpus):
    surface, st = tran_lb_corpus[0]
    A = build_trajectories(surface, st)
    B = build_polytope(surface, st, A)
    covered = set()
    for run in B.edges:
        ks = {st.weights[d] for d in run.darts}
        assert len(ks) == 1 and run.weight_k in ks
        assert run.start in B.vertices and run.end in B.vertices
        for d in run.darts:
            covered.add(frozenset((d, surface.gluing[d])))
    assert covered == A.edges


def test_development_returns_to_origin(tran_lb_corpus):
    surface, st = tran_lb_corpus[0]
    B, geoms = decompose(surface, st)
    for geom in geoms:
        assert geom.development[-1] == ZERO


def test_decomposition_is_relabeling_invariant(tran_lb_corpus):
    import random as _random

    surface, st = tran_lb_corpus[0]
    _, geoms = decompose(surface, st)
    shapes = sorted((g.length, g.width) for g in geoms)
    rng = _random.Random(99)
    perm = list(range(surface.face_count))
    rng.shuffle(perm)
    rots = [rng.randrange(3) for _ in range(surface.face_count)]
    other = relabel(surface, perm, rots)
    st2 = detect_structures(other)
    _, geoms2 = decompose(other, st2)
    shapes2 = sorted((g.length, g.width) for g in geoms2)
    assert shapes == shapes2


def test_all_six_structures_decompose(tran_lb_corpus):
    surface, base = tran_lb_corpus[0]
    shapes = set()
    for r in range(6):
        st = TranslationStructure(tuple((k + r) % 6 for k in base.weights))
        _, geoms = decompose(surface, st)
        shapes.add(tuple(sorted(g.triangle_count for g in geoms)))
    assert len(shapes) >= 1  # every rotation yields a valid decomposition


def _region_oracle(surface, A):
    """Regions by flood fill across non-A darts, each with its boundary walk.

    The walk leaves each A dart through the next side of its face and turns
    across non-A darts until it meets the next A dart.
    """
    in_a = [False] * surface.dart_count
    for e in A.edges:
        for d in e:
            in_a[d] = True
    owner = [-1] * surface.face_count
    regions = []
    for f0 in range(surface.face_count):
        if owner[f0] != -1:
            continue
        faces = [f0]
        owner[f0] = len(regions)
        stack = [f0]
        while stack:
            f = stack.pop()
            for s in range(3):
                if in_a[3 * f + s]:
                    continue
                f2 = surface.gluing[3 * f + s] // 3
                if owner[f2] == -1:
                    owner[f2] = len(regions)
                    faces.append(f2)
                    stack.append(f2)
        boundary = [3 * f + s for f in faces for s in range(3) if in_a[3 * f + s]]
        start = min(boundary)
        walk = []
        d = start
        while True:
            walk.append(d)
            f, s = divmod(d, 3)
            e = 3 * f + (s + 1) % 3
            while not in_a[e]:
                p = surface.gluing[e]
                assert owner[p // 3] == len(regions)
                f, s = divmod(p, 3)
                e = 3 * f + (s + 1) % 3
            d = e
            if d == start:
                break
        assert sorted(walk) == sorted(boundary)
        regions.append((tuple(sorted(faces)), tuple(walk)))
    return regions


def test_regions_match_flood_fill_oracle(tran_lb_corpus):
    for surface, st in tran_lb_corpus:
        A = build_trajectories(surface, st)
        B = build_polytope(surface, st, A)
        assert [(r.faces, r.boundary_darts) for r in B.faces] == _region_oracle(surface, A)
        assert [r.region_id for r in B.faces] == list(range(len(B.faces)))


def test_half_cut_edge_is_rejected(tran_lb_corpus):
    surface, st = tran_lb_corpus[0]
    A = build_trajectories(surface, st)
    d = next(d for d in range(surface.dart_count)
             if st.weights[d] == 0 and frozenset((d, surface.gluing[d])) not in A.edges)
    half = dataclasses.replace(A, a0_edges=A.a0_edges | {frozenset((d,))})
    with pytest.raises(SurfaceError):
        build_polytope(surface, st, half)


@pytest.fixture(scope="module")
def genus_two_plus(tran_lb_corpus):
    """The corpus plus genus >= 2 cover components of 3-subdivided random
    surfaces."""
    out = list(tran_lb_corpus)
    for seed in range(3):
        for comp in canonical_cover(subdivide(random_surface(8, seed), 3)).components:
            if comp.genus >= 2:
                out.append((comp.surface, comp.structure))
    return out


def test_decompose_indexes_only_its_input(genus_two_plus, index_builds):
    for surface, st in genus_two_plus:
        fresh = GluedSurface(surface.face_count, surface.gluing)
        del index_builds[:]
        decompose(fresh, st)
        assert index_builds == [fresh.gluing]


def test_trusted_cut_equals_validated_one(genus_two_plus, monkeypatch):
    built = []
    original = GluedSurface._trusted.__func__

    def recording(cls, face_count, gluing):
        built.append(original(cls, face_count, gluing))
        return built[-1]

    monkeypatch.setattr(GluedSurface, "_trusted", classmethod(recording))
    for surface, st in genus_two_plus:
        A = build_trajectories(surface, st)
        del built[:]
        build_polytope(surface, st, A)
        cut = tuple(BOUNDARY if frozenset((d, p)) in A.edges else p
                    for d, p in enumerate(surface.gluing))
        assert [s.gluing for s in built] == [cut]
        assert GluedSurface(surface.face_count, cut) == built[0]
