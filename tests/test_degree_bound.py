import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equilat.degree_bound
from equilat.surface import (
    BOUNDARY,
    GluedSurface,
    SurfaceError,
    _face_subdivision,
    _next_side,
    canonical_form,
    conformal_double,
    corner_vertex_map,
    euler_and_genus,
    load_surface,
    random_surface,
    relabel,
    save_surface,
    subdivide,
    vertex_orbits,
)
from equilat.degree_bound import (
    LbCertificate,
    SeparationReport,
    _block_coarsening,
    _compile_pattern,
    _replace_disks,
    _rings,
    _th_blocks,
    _th_pattern,
    _th_rings,
    _th_walks,
    _try_coarsening,
    _vertex_injective,
    _walk,
    bounded_degree_map,
    build_TD,
    build_TH,
    check_tri_lb,
    match_pattern,
    recover_original,
    replace_stars,
    separation_check,
    th_center_candidates,
    th_layer_sizes,
)


def interior_degrees(disk):
    return [r.degree for r in vertex_orbits(disk.surface) if not r.boundary]


def test_td_is_a_fan():
    for d in (2, 3, 7, 12, 30):
        td = build_TD(d)
        assert td.surface.face_count == d
        stats = euler_and_genus(td.surface)
        assert stats.chi == 1
        assert interior_degrees(td) == [d]
        assert len(td.boundary_darts) == d


def test_td_rejects_degenerate():
    with pytest.raises(SurfaceError):
        build_TD(1)


def test_th_layer_sizes_halve():
    assert th_layer_sizes(8) == [8, 4]
    assert th_layer_sizes(16) == [16, 8, 4]
    assert th_layer_sizes(100) == [100, 50, 25, 12, 6]
    for d in range(8, 200):
        sizes = th_layer_sizes(d)
        assert sizes[0] == d and sizes[-1] <= 7
        for a, b in zip(sizes, sizes[1:]):
            assert b == a // 2


def test_th_small_example_counts():
    # d = 16: one annulus 16 -> 8, one annulus 8 -> 4, fan of 4
    th = build_TH(16)
    assert th.surface.face_count == 40
    stats = euler_and_genus(th.surface)
    assert stats.chi == 1 and stats.vertices == 29


def test_th_eight_counts():
    th = build_TH(8)
    assert th.surface.face_count == 16
    assert euler_and_genus(th.surface).vertices == 13


def test_th_invariants_over_range():
    for d in list(range(8, 80)) + [128, 311, 1000]:
        th = build_TH(d)
        stats = euler_and_genus(th.surface)
        assert stats.chi == 1
        assert len(th.boundary_darts) == d
        assert stats.vertices <= 3 * d
        for rep in vertex_orbits(th.surface):
            assert rep.degree <= (4 if rep.boundary else 7)


def test_th_rejects_small():
    with pytest.raises(SurfaceError):
        build_TH(7)


def test_th_and_td_share_boundary():
    # regluing the TH boundary in place of the TD boundary must close up
    for d in (8, 9, 13):
        td, th = build_TD(d), build_TH(d)
        assert len(td.boundary_darts) == len(th.boundary_darts) == d


def test_replace_stars_round_trips_td():
    # put TH_d in place of the fan of TD_d's closed double, then check the
    # high-degree star really was swapped out
    surface = random_surface(4, 0)
    quad = subdivide(surface, 4)
    centers = [r for r in vertex_orbits(quad) if r.degree > 7]
    assert centers
    blocks = [build_TH(r.degree) for r in centers]
    swapped = replace_stars(quad, [(r.vertex, r.corners) for r in centers], blocks)
    assert euler_and_genus(swapped).genus == euler_and_genus(quad).genus
    assert max(r.degree for r in vertex_orbits(swapped)) <= 7


def test_replace_stars_refusals(census8):
    # one star of each kind the swap refuses, as (vertex, corners) pairs
    cases = [(census8[2][0], (0,), "star at vertex 0 is not embedded"),
             (census8[2][2], (0,), "star at vertex 0 touches itself"),
             (subdivide(random_surface(8, 0), 2), (12,), "star at vertex 12 touches itself"),
             (census8[4][10], (0, 1), "stars are not pairwise disjoint")]
    for surface, vertices, message in cases:
        stars = [(v, surface.index.corners[v]) for v in vertices]
        with pytest.raises(SurfaceError, match=f"^{message}$"):
            replace_stars(surface, stars, [build_TD(len(corners)) for _, corners in stars])


def _degree_30_star():
    surface = subdivide(random_surface(10, 1), 4)
    v = surface.index.degrees.index(30)
    return surface, [(v, surface.index.corners[v])]


def test_replace_stars_refuses_a_block_count_mismatch():
    surface, stars = _degree_30_star()
    with pytest.raises(SurfaceError, match="^0 blocks for 1 stars$"):
        replace_stars(surface, stars, [])
    with pytest.raises(SurfaceError, match="^2 blocks for 1 stars$"):
        replace_stars(surface, stars, [build_TH(30)] * 2)


def test_replace_stars_refuses_a_boundary_length_mismatch():
    surface, stars = _degree_30_star()
    v = stars[0][0]
    for block in (build_TH(31), build_TD(29)):
        d = len(block.boundary_darts)
        with pytest.raises(SurfaceError, match=f"^block of boundary length {d} "
                                               f"for the degree-30 star at vertex {v}$"):
            replace_stars(surface, stars, [block])
    assert replace_stars(surface, stars, [build_TH(30)]).is_closed()


def test_bounded_degree_map_postconditions():
    for seed in (0, 1, 5):
        surface = random_surface(8, seed)
        result = bounded_degree_map(surface)
        assert euler_and_genus(result.surface).genus == \
            euler_and_genus(surface).genus
        assert max(r.degree for r in vertex_orbits(result.surface)) <= 7
        assert result.sigma == result.surface.face_count / surface.face_count
        assert check_tri_lb(result.surface).ok


def test_bounded_degree_map_does_not_index_the_four_subdivision(index_builds):
    for T, seed in ((10, 2), (20, 5)):
        surface = random_surface(T, seed)
        del index_builds[:]
        result = bounded_degree_map(surface)
        assert result.centers
        assert not any(len(g) == 48 * T for g in index_builds)
        assert {id(surface.gluing), id(result.surface.gluing)} <= set(map(id, index_builds))


class _StarsHanded(Exception):
    pass


def test_centers_are_the_high_degree_vertices_of_the_four_subdivision(census8, monkeypatch):
    # the stars handed to replace_stars are those that vertex_orbits finds
    # on the 4-subdivision itself: same degrees, same corners in the same
    # order; the map stops there, since the rest does not depend on it
    handed = []

    def recording(stage1, centers, blocks):
        handed.append(centers)
        raise _StarsHanded

    monkeypatch.setattr(equilat.degree_bound, "replace_stars", recording)
    census = [s for T in (2, 4, 6, 8) for s in census8[T]
              if max(r.degree for r in vertex_orbits(s)) > 7]
    randoms = [random_surface(T, seed) for T in range(10, 61, 10) for seed in (0, 1)]
    for surface in census + randoms:
        with pytest.raises(_StarsHanded):
            bounded_degree_map(surface)
        want = [r for r in vertex_orbits(subdivide(surface, 4)) if r.degree > 7]
        assert [tuple(corners) for _, corners in handed[-1]] == [r.corners for r in want]
        # named by the surface's own vertices, in vertex order
        assert [(v, len(corners)) for v, corners in handed[-1]] == \
            [(r.vertex, r.degree) for r in vertex_orbits(surface) if r.degree > 7]
    assert len(census) > 1000 and sum(map(len, handed)) > 1500
    # the whole map reports the stars it was handed
    monkeypatch.undo()
    for surface, stars in zip(randoms, handed[len(census):]):
        assert bounded_degree_map(surface).centers == \
            tuple((v, len(corners)) for v, corners in stars)


def _recovers(surface, b):
    return canonical_form(recover_original(b)) == canonical_form(surface)


def test_recovery_after_tsf_round_trip_on_small_census(census8):
    # the inverse reads only the gluing of B(S); the classes are pairwise
    # non-isomorphic, so this also shows that B separates them
    classes = [s for T in (2, 4, 6) for s in census8[T]]
    assert len(classes) == 95
    for surface in classes:
        b = bounded_degree_map(surface).surface
        assert _recovers(surface, load_surface(save_surface(b)))


def _relabeling(T, rng):
    return rng.sample(range(T), T), [rng.randrange(3) for _ in range(T)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from((2, 4, 6, 8)), st.integers(0, 10**6), st.randoms(use_true_random=False))
def test_recovery_is_invariant_under_relabeling(T, seed, rng):
    surface = random_surface(T, seed)
    b = bounded_degree_map(surface).surface
    assert _recovers(surface, relabel(b, *_relabeling(b.face_count, rng)))
    moved = relabel(surface, *_relabeling(T, rng))
    assert _recovers(surface, bounded_degree_map(moved).surface)


def _halved_sum(d):
    """Sum of the layer sizes d_i, i >= 1, of TH_d: d_i = d_(i-1) // 2
    down to the first at most 7."""
    total = 0
    while d > 7:
        d //= 2
        total += d
    return total


def test_face_count_of_the_map_is_exact_and_below_198T(census8):
    # faces(B(S)) = 9 (16T + 2 sum_v sum_(i>=1) d_i(deg v)) over the
    # vertices of degree > 7, and the degrees of a closed surface sum to 3T
    surfaces = [s for T in (2, 4, 6, 8) for s in census8[T]]
    surfaces += [random_surface(T, 0) for T in (10, 50, 200, 1000)]
    for surface in surfaces:
        T = surface.face_count
        degrees = [r.degree for r in vertex_orbits(surface)]
        want = 9 * (16 * T + 2 * sum(_halved_sum(d) for d in degrees if d > 7))
        got = bounded_degree_map(surface).surface.face_count
        assert got == want < 198 * T


def _overlapping_blocks():
    """B(S) built on a 3-subdivision in place of a 4-subdivision: the
    layered disks of two neighbouring stars come to share vertices."""
    sub = subdivide(random_surface(14, 0), 3)
    high = [r for r in vertex_orbits(sub) if r.degree > 7]
    return subdivide(replace_stars(sub, [(r.vertex, r.corners) for r in high],
                                   [build_TH(r.degree) for r in high]), 3)


def test_recover_original_refuses_hostile_input(census8, monkeypatch):
    rng = random.Random(19)
    b = bounded_degree_map(random_surface(10, 3)).surface
    bounded = next(s for s in census8[8] if max(r.degree for r in vertex_orbits(s)) <= 7)
    cases = [(build_TH(16).surface, "3-coarsening"),
             (census8[8][100], "3-coarsening"),
             (_overlapping_blocks(), "block swap"),
             (subdivide(bounded, 3), "4-coarsening")]
    cases += [(_repair_two_edges(b, rng), "3-coarsening") for _ in range(3)]
    tried = []

    def counting(surface, seed, k):
        tried.append((id(surface), seed, k))
        return _try_coarsening(surface, seed, k)

    monkeypatch.setattr(equilat.degree_bound, "_try_coarsening", counting)
    for surface, step in cases:
        del tried[:]
        with pytest.raises(SurfaceError, match=f"^{step}:"):
            recover_original(surface)
        # no step backtracks: each seed is tried at most once per surface
        assert len(set(tried)) == len(tried)


def test_check_tri_lb_on_three_subdivision(census8):
    bounded = [s for T in (2, 4, 6, 8) for s in census8[T]
               if max(r.degree for r in vertex_orbits(s)) <= 7]
    assert len(bounded) == 62
    for surface in bounded:
        cert = check_tri_lb(subdivide(surface, 3))
        assert cert.ok
        assert canonical_form(cert.coarse) == canonical_form(surface)


def test_check_tri_lb_reads_the_degree_cap_before_vertex_reports(census8, monkeypatch):
    calls = []

    def counting(surface):
        calls.append(surface)
        return vertex_orbits(surface)

    monkeypatch.setattr(equilat.degree_bound, "vertex_orbits", counting)
    for T in (2, 4, 6, 8):  # no face count divisible by 9
        for surface in census8[T]:
            cert = check_tri_lb(surface)
            assert not cert.ok
            assert cert.max_degree == max(r.degree for r in vertex_orbits(surface))
    assert calls == []


def test_check_tri_lb_rejects_plain_torus(hex_torus):
    assert not check_tri_lb(hex_torus).ok  # 2 faces is not a multiple of 9


def test_separation_check_on_replacement():
    surface = random_surface(8, 2)
    result = bounded_degree_map(surface)
    cert = check_tri_lb(result.surface)
    report = separation_check(result.surface, cert)
    assert report.ok and report.all_macro


def _nonflat_at_distance_two(surface):
    """True when no two vertices of degree != 6 are adjacent, but two
    share a neighbour."""
    cv = corner_vertex_map(surface)
    nbrs = [set() for _ in surface.index.degrees]
    for d, w in enumerate(_next_side(cv)):
        nbrs[cv[d]].add(w)
    neq6 = {v for v, deg in enumerate(surface.index.degrees) if deg != 6}
    return all(nbrs[v].isdisjoint(neq6 - {v}) for v in neq6) and \
        any(nbrs[u] & neq6 - {v} for v in neq6 for u in nbrs[v])


def test_separation_check_refusals(census8):
    # a negative certificate is refused
    small = census8[8][0]
    with pytest.raises(SurfaceError, match="positive coarsening certificate"):
        separation_check(small, check_tri_lb(small))
    # a certificate that leaves a non-flat vertex out of its macro vertices
    b = bounded_degree_map(random_surface(8, 2)).surface
    cert = check_tri_lb(b)
    neq6 = [r.vertex for r in vertex_orbits(b) if r.degree != 6]
    for v in neq6[:3]:
        dropped = replace(cert, macro_vertices=cert.macro_vertices - {v})
        assert separation_check(b, dropped) == SeparationReport(False, False)
    # two non-flat vertices at distance 2, none adjacent: only the second
    # ring sees them, and every vertex is a macro vertex
    surface = next(s for T in (2, 4, 6) for s in census8[T] if _nonflat_at_distance_two(s))
    reports = vertex_orbits(surface)
    everything = LbCertificate(True, max(r.degree for r in reports), None,
                               frozenset(r.vertex for r in reports), None)
    assert separation_check(surface, everything) == SeparationReport(False, True)


def test_match_pattern_finds_embedded_fan():
    td = build_TD(5)
    assignment = match_pattern(td.surface, td.surface, 0, 0)
    assert assignment == {f: (f, 0) for f in range(5)}


def test_match_pattern_rejects_mismatch():
    td5, td6 = build_TD(5), build_TD(6)
    assert match_pattern(td5.surface, td6.surface, 0, 0) is None


def test_th_center_candidates_at_most_two():
    # the layered disks nest: TH_16's inner layers are exactly TH_8, so its
    # center matches both, but never more than two sizes
    th16 = build_TH(16)
    closed = _close_disk(th16)
    cands = th_center_candidates(closed)
    for vertex, ds in cands.items():
        assert len(ds) <= 2
    center_sets = [ds for ds in cands.values() if 16 in ds]
    assert center_sets and {8, 16} in center_sets


def _close_disk(disk):
    """Double the disk across its boundary to get a closed surface."""
    return conformal_double(disk.surface)


def _unbounded_th_center_candidates(surface, programs):
    """th_center_candidates before the ring bound: it tries every d from 8
    to the face count whose halving chain ends at the vertex's degree."""
    out = {}
    target_cv = corner_vertex_map(surface)
    for rep in vertex_orbits(surface):
        if rep.boundary or not 4 <= rep.degree <= 7:
            continue
        found = set()
        for d in range(8, surface.face_count + 1):
            if th_layer_sizes(d)[-1] != rep.degree:
                continue
            if d not in programs:
                block = build_TH(d)
                center_corner = vertex_orbits(block.surface)[block.center].corners[0]
                programs[d] = (block.surface.face_count,
                               _compile_pattern(block.surface.gluing, center_corner),
                               corner_vertex_map(block.surface))
            faces, program, pattern_cv = programs[d]
            if faces > surface.face_count:
                continue
            for c in rep.corners:
                img = _walk(program, surface.gluing, c)
                if img is not None and _vertex_injective(program[0], img,
                                                         pattern_cv, target_cv):
                    found.add(d)
                    break
        out[rep.vertex] = found
    return out


def test_th_center_candidates_equal_the_unbounded_search(census8):
    programs = {}
    doubles = [_close_disk(build_TH(d)) for d in range(8, 41)]
    # bordered too: the rings read only the darts leaving each vertex
    bordered = [build_TH(d).surface for d in range(8, 30, 3)]
    found = 0
    for surface in doubles + bordered + [s for T in (2, 4, 6) for s in census8[T]]:
        want = _unbounded_th_center_candidates(surface, programs)
        assert th_center_candidates(surface) == want
        found += sum(map(len, want.values()))
    assert found > 2 * len(doubles)


def _unpruned_th_blocks(surface):
    """_th_blocks without its ring-1 and ring-2 degree pretests: the ring
    BFS runs at every vertex of degree 4..7 until the ring sizes stop
    fitting."""
    ix = surface.index
    degrees = ix.degrees
    cache = {}
    found = []
    for v, deg in enumerate(degrees):
        if not 4 <= deg <= 7:
            continue
        for ring in reversed(_th_rings(deg, _rings(ix, v))[1:]):
            d = len(ring)
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


def test_th_block_pretest_keeps_every_block(census8):
    # stage 2 of every census class up to T=8 (blocks up to TH_24, whose
    # ring 2 is an inner cycle from d = 16 on) and of larger random
    # surfaces, with deeper layers
    surfaces = [s for T in (2, 4, 6, 8) for s in census8[T]]
    surfaces += [random_surface(T, seed) for T in (20, 40) for seed in (0, 1)]
    sizes = set()
    # B(S) itself: 3-subdivided blocks, whose rings the pretests also read
    for T, seed in ((10, 0), (14, 1), (20, 2)):
        b = bounded_degree_map(random_surface(T, seed)).surface
        assert _th_blocks(b) == _unpruned_th_blocks(b)
    for surface in surfaces:
        stage1 = subdivide(surface, 4)
        high = [r for r in vertex_orbits(stage1) if r.degree > 7]
        stage2 = replace_stars(stage1, [(r.vertex, r.corners) for r in high],
                               [build_TH(r.degree) for r in high]) if high else stage1
        got = _th_blocks(stage2)
        assert got == _unpruned_th_blocks(stage2)
        assert sorted(d for d, _, _ in got) == sorted(r.degree for r in high)
        sizes.update(d for d, _, _ in got)
    # TH_17 and TH_19 put ring 2 inside an odd cycle, so it holds
    # e // 2 + 1 sevens; TH_33 has four cycles
    assert {17, 19, 33} <= sizes


# --- reference oracles for the compiled matcher ------------------------------

def _oracle_match_pattern(pattern, target, pattern_dart, target_dart):
    """Face-by-face search, one face at a time off a stack."""
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
        return None
    return assign


_REF3 = GluedSurface(9, _face_subdivision(3)[0])


def _oracle_try_coarsening(surface, seed_dart, k):
    """Claim each macro triangle with the oracle matcher against the
    k-subdivided triangle."""
    inner, side_darts = _face_subdivision(k)
    ref = GluedSurface(k * k, inner)
    owner = [-1] * surface.face_count
    macro = []
    first_of_side = {}

    def claim(dart):
        assign = _oracle_match_pattern(ref, surface, 0, dart)
        if assign is None:
            return None
        mid = len(macro)
        sides = []
        for s in range(3):
            imgs = []
            for pd in side_darts[s]:
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
            rev = tuple(surface.gluing[d] for d in reversed(sides[s]))
            if BOUNDARY in rev:
                return None
            if rev[0] in first_of_side:
                mid2, s2 = first_of_side[rev[0]]
                if macro[mid2][s2] != rev or (mid2, s2) == (head, s):
                    return None
            else:
                if owner[rev[0] // 3] != -1:
                    return None
                if claim(rev[0]) is None:
                    return None
        head += 1
    if any(o == -1 for o in owner):
        return None
    coarse_gluing = [BOUNDARY] * (3 * len(macro))
    for mid, sides in enumerate(macro):
        for s in range(3):
            mid2, s2 = first_of_side[surface.gluing[sides[s][-1]]]
            coarse_gluing[3 * mid + s] = 3 * mid2 + s2
    cv = corner_vertex_map(surface)
    macro_vertices = frozenset(cv[sides[s][0]] for sides in macro for s in range(3))
    return GluedSurface(len(macro), tuple(coarse_gluing)), macro_vertices, tuple(owner)


def _disjoint_union(*surfaces):
    gluing = []
    for s in surfaces:
        off = len(gluing)
        gluing.extend(p if p == BOUNDARY else p + off for p in s.gluing)
    return GluedSurface(len(gluing) // 3, tuple(gluing))


def _repair_two_edges(surface, rng):
    """Re-pair two glued edges a-b, c-d as a-c, b-d (a closed non-subdivision)."""
    g = list(surface.gluing)
    while True:
        a, c = rng.sample(range(len(g)), 2)
        b, d = g[a], g[c]
        if len({a, b, c, d}) == 4:
            break
    g[a], g[c], g[b], g[d] = c, a, d, b
    return GluedSurface(surface.face_count, tuple(g))


def test_match_pattern_matches_oracle(census8):
    rng = random.Random(20261018)
    blocks = [build_TD(d).surface for d in (3, 5, 6, 7)]
    blocks += [build_TH(d).surface for d in (8, 9, 16)]
    patterns = blocks + [_REF3, _disjoint_union(_REF3, build_TD(6).surface),
                         _disjoint_union(build_TD(4).surface, build_TD(4).surface)]
    targets = list(census8[6][:12]) + [subdivide(s, 3) for s in census8[4]]
    targets += [random_surface(T, seed) for T, seed in ((10, 3), (18, 4), (40, 5))]
    targets += [conformal_double(b) for b in blocks]
    outcomes = Counter()
    for pattern in patterns:
        for target in targets:
            for _ in range(20):
                pd = rng.randrange(pattern.dart_count)
                td = rng.randrange(target.dart_count)
                want = _oracle_match_pattern(pattern, target, pd, td)
                assert match_pattern(pattern, target, pd, td) == want
                outcomes[want is not None] += 1
    # each block embeds in its own double at the same darts
    for block in blocks:
        double = conformal_double(block)
        for d in range(0, block.dart_count, 5):
            want = _oracle_match_pattern(block, double, d, d)
            assert want is not None
            assert match_pattern(block, double, d, d) == want
            outcomes[True] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0


def _coarsening_cases(census8):
    rng = random.Random(9)
    for T in (2, 4, 6):
        for s in census8[T]:
            sub = subdivide(s, 3)
            yield sub, range(sub.dart_count), 3
    for seed in range(4):
        closed = random_surface(18, 100 + seed)
        yield closed, range(closed.dart_count), 3
        yield closed, range(closed.dart_count), 4
    for s in census8[4] + census8[6][:6]:
        broken = _repair_two_edges(subdivide(s, 3), rng)
        yield broken, range(broken.dart_count), 3
    for T, seed in ((10, 1), (14, 2)):
        b = bounded_degree_map(random_surface(T, seed)).surface
        yield b, range(seed, b.dart_count, 97), 3
    # near misses, 2 to 5 re-paired edge pairs: a macro side may find the
    # side across it by its first dart and differ in its second or third
    bases = [s for T in (2, 4, 6) for s in census8[T]]
    bases += [random_surface(T, seed) for T in (8, 10, 12) for seed in range(4)]
    for i, s in enumerate(bases):
        broken = subdivide(s, 3)
        for _ in range(2 + i % 4):
            broken = _repair_two_edges(broken, rng)
        yield broken, range(broken.dart_count), 3
    # the 4-coarsening of the inverse, on 4-subdivisions, their near misses
    # and surfaces whose faces do not count a multiple of 16
    for i, s in enumerate(bases[:14] + census8[6][::8] + bases[-4:]):
        sub = subdivide(s, 4)
        yield sub, range(0, sub.dart_count, 1 + i % 3), 4
        for _ in range(1 + i % 3):
            sub = _repair_two_edges(sub, rng)
        yield sub, range(0, sub.dart_count, 2), 4
    for s in census8[4]:
        sub = subdivide(s, 3)
        yield sub, range(sub.dart_count), 4


def test_try_coarsening_matches_oracle(census8):
    outcomes = Counter()
    for surface, seeds, k in _coarsening_cases(census8):
        for seed in seeds:
            want = _oracle_try_coarsening(surface, seed, k)
            assert _try_coarsening(surface, seed, k) == want
            outcomes[k, want is not None] += 1
    assert all(outcomes[k, ok] > 0 for k in (3, 4) for ok in (False, True))


@pytest.mark.parametrize("T, seed", [(10, 7), (14, 8)])
def test_certificate_recovers_stage_two(T, seed):
    surface = random_surface(T, seed)
    stage1 = subdivide(surface, 4)
    high = sorted((r for r in vertex_orbits(stage1) if r.degree > 7),
                  key=lambda r: r.vertex)
    assert high
    stage2 = replace_stars(stage1, [(r.vertex, r.corners) for r in high],
                           [build_TH(r.degree) for r in high])
    cert = check_tri_lb(bounded_degree_map(surface).surface)
    assert cert.ok
    assert canonical_form(cert.coarse) == canonical_form(stage2)
    sizes = Counter(cert.face_owner)
    assert sorted(sizes) == list(range(cert.coarse.face_count))
    assert set(sizes.values()) == {9}


# --- closed-form blocks, the slice star swap and the block coarsening --------

def _surface_from_faces(faces):
    """Reference construction from counterclockwise vertex triples: the
    directed edges must be unique, and opposite directed edges are glued."""
    directed = {}
    for f, tri in enumerate(faces):
        for s in range(3):
            key = (tri[s], tri[(s + 1) % 3])
            assert key not in directed
            directed[key] = 3 * f + s
    gluing = [BOUNDARY] * (3 * len(faces))
    for (u, v), d in directed.items():
        p = directed.get((v, u))
        if p is not None:
            gluing[d] = p
    return GluedSurface(len(faces), tuple(gluing))


def _reference_layered_disk(sizes):
    """The layered disk from its vertex triples, and the center's vertex,
    named by the index: the center is the last face's last corner."""
    center = ("c",)
    faces = []
    for i in range(1, len(sizes)):
        D, e = sizes[i - 1], sizes[i]
        for j in range(D):  # inward, one per outer edge
            faces.append(((i - 1, j), (i - 1, (j + 1) % D), (i, ((j + 1) // 2) % e)))
        for t in range(e):  # outward, one per inner edge
            faces.append(((i, (t + 1) % e), (i, t), (i - 1, 2 * t + 1)))
    last = len(sizes) - 1
    for t in range(sizes[last]):
        faces.append(((last, t), (last, (t + 1) % sizes[last]), center))
    surface = _surface_from_faces(faces)
    return surface, surface.index.corner_vertex[-1]


def test_layered_disks_match_the_vertex_triple_reference():
    # every d up to 300, then a stride reaching the deepest halving chains
    # up to d = 1100 (seven annuli from d = 1024 on)
    sizes = list(range(3, 301)) + list(range(301, 1101, 13)) + [1023, 1024, 1100]
    for d in sizes:
        for block, layers in [(build_TD(d), [d])] + ([(build_TH(d), th_layer_sizes(d))]
                                                      if d >= 8 else []):
            surface, center = _reference_layered_disk(layers)
            assert block.surface == surface
            assert block.center == center == block.surface.index.corner_vertex[-1]
            assert block.boundary_darts == tuple(range(0, 3 * d, 3))


def _reference_replace_disks(surface, disks, blocks):
    """_replace_disks dart by dart: kept faces renumbered through a dict,
    each kept dart across an outer dart glued to the block dart there."""
    removed = set()
    for faces, _ in disks:
        removed.update(faces)
    kept = [f for f in range(surface.face_count) if f not in removed]
    face_map = {f: i for i, f in enumerate(kept)}
    gluing = [BOUNDARY] * (3 * len(kept))
    hole_of = {}
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


def _star_disks(surface, vertices):
    """replace_stars' disks at the given vertices: fan faces, outer darts."""
    corners = [surface.index.corners[v] for v in vertices]
    return [({c // 3 for c in cs}, [c - 2 if c % 3 == 2 else c + 1 for c in reversed(cs)])
            for cs in corners]


def _touching_stars(surface):
    """Two embedded, face-disjoint stars of degree > 2 with an edge between
    their outer darts, or None."""
    ix = surface.index
    embedded = [v for v, cs in enumerate(ix.corners)
                if not ix.boundary[v] and len({c // 3 for c in cs}) == len(cs) > 2]
    for i, u in enumerate(embedded):
        for v in embedded[i + 1:]:
            (fu, ou), (fv, ov) = _star_disks(surface, (u, v))
            if fu.isdisjoint(fv) and \
                    {surface.gluing[o] for o in ou} & set(ov) and \
                    all(surface.gluing[o] // 3 not in fu for o in ou) and \
                    all(surface.gluing[o] // 3 not in fv for o in ov):
                return u, v
    return None


def test_replace_disks_matches_a_per_dart_reference(census8):
    swaps = 0
    for T in (2, 4, 6, 8):
        for surface in census8[T]:
            stage1 = subdivide(surface, 4)
            high = [v for v, deg in enumerate(stage1.index.degrees) if deg > 7]
            if not high:
                continue
            disks = _star_disks(stage1, high)
            blocks = [build_TH(stage1.index.degrees[v]) for v in high]
            stage2 = _replace_disks(stage1, disks, blocks)
            assert stage2 == _reference_replace_disks(stage1, disks, blocks)
            assert stage2 == replace_stars(
                stage1, [(v, stage1.index.corners[v]) for v in high], blocks)
            # the inverse's swap, TH blocks back to fans
            found = _th_blocks(stage2)
            disks = [({x // 3 for x in img[::3]}, outer) for _, img, outer in found]
            fans = [build_TD(d) for d, _, _ in found]
            assert _replace_disks(stage2, disks, fans) == \
                _reference_replace_disks(stage2, disks, fans)
            swaps += 1
    assert swaps == 1261  # the classes up to T=8 with a vertex of degree > 7
    # with boundary: the center of a bordered TH_20 swapped for a fan
    th = build_TH(20)
    disks = _star_disks(th.surface, [th.center])
    fans = [build_TD(th.surface.index.degrees[th.center])]
    assert _replace_disks(th.surface, disks, fans) == \
        _reference_replace_disks(th.surface, disks, fans)
    # two stars whose outer darts meet: both blocks keep that edge unmatched
    surface, touching = next((s, t) for s in census8[8] for t in [_touching_stars(s)] if t)
    disks = _star_disks(surface, touching)
    fans = [build_TD(surface.index.degrees[v]) for v in touching]
    got = _replace_disks(surface, disks, fans)
    assert got == _reference_replace_disks(surface, disks, fans)
    assert not got.is_closed()


def test_block_coarsening_reads_subdivisions_back(census8):
    for T in (2, 4, 6):
        for surface in census8[T]:
            for k in (3, 4):
                sub = subdivide(surface, k)
                coarse, macro, owner = _block_coarsening(sub, k)
                assert coarse == surface
                assert owner == tuple(f // (k * k) for f in range(sub.face_count))
                # the seeded search from dart 0 claims the same macro
                # triangles, numbered in its own order
                assert macro == _try_coarsening(sub, 0, k)[1]


def _swap_partners(surface, a, c):
    """Glue dart a to c's partner and c to a's."""
    g = list(surface.gluing)
    b, d = g[a], g[c]
    g[a], g[d], g[c], g[b] = d, a, b, c
    return GluedSurface(surface.face_count, tuple(g))


def test_block_coarsening_refusals(census8):
    rng = random.Random(28)
    # relabelled B(S): only the seeded search finds its coarsening
    b = bounded_degree_map(random_surface(10, 3)).surface
    moved = relabel(b, *_relabeling(b.face_count, rng))
    assert _block_coarsening(b, 3) is not None
    assert _block_coarsening(moved, 3) is None
    cert = check_tri_lb(moved)
    assert cert.ok and cert.coarse.face_count == b.face_count // 9
    for k in (3, 4):
        inner, sides = _face_subdivision(k)
        n = len(inner)
        sub = subdivide(census8[6][7], k)
        assert _block_coarsening(sub, k) is not None
        m = 5 * n  # block 5
        # an inner gluing swapped with another of the same block
        a = next(x for x in range(n) if inner[x] != BOUNDARY)
        c = next(x for x in range(n) if inner[x] not in (BOUNDARY, a) and x != a)
        assert _block_coarsening(_swap_partners(sub, m + a, m + c), k) is None
        # the partners of two sub-edges of one side swapped, and of the last
        # sub-edges of two sides
        assert _block_coarsening(_swap_partners(sub, m + sides[1][0], m + sides[1][1]), k) is None
        assert _block_coarsening(_swap_partners(sub, m + sides[0][-1], m + sides[2][-1]), k) is None
    # a side folded onto itself, and the side across it too: the sub-edges
    # meet in reverse, so only the fixed-point test refuses it
    sub = subdivide(census8[6][7], 4)
    _, sides = _face_subdivision(4)
    folded = list(sub.gluing)
    side = [48 * 5 + d for d in sides[1]]
    for darts in (side, [sub.gluing[d] for d in reversed(side)]):
        for x, y in ((0, 3), (1, 2)):
            folded[darts[x]], folded[darts[y]] = darts[y], darts[x]
    assert _block_coarsening(GluedSurface(sub.face_count, tuple(folded)), 4) is None


def test_the_map_is_coarsened_to_its_own_stages(census8, monkeypatch):
    # check_tri_lb reads B(S)'s 3-coarsening off its layout: stage 2 with
    # its own labels, and no seeded search
    seeded = []
    monkeypatch.setattr(equilat.degree_bound, "_try_coarsening",
                        lambda *args: seeded.append(args))
    surfaces = [s for T in (2, 4, 6) for s in census8[T]] + census8[8][::40]
    surfaces += [random_surface(T, seed) for T in (10, 20) for seed in (0, 1)]
    starless = 0
    for surface in surfaces:
        stage1 = subdivide(surface, 4)
        high = [v for v, deg in enumerate(stage1.index.degrees) if deg > 7]
        stage2 = replace_stars(stage1, [(v, stage1.index.corners[v]) for v in high],
                               [build_TH(stage1.index.degrees[v]) for v in high])
        b = bounded_degree_map(surface).surface
        assert check_tri_lb(b).coarse == stage2
        if not high:
            assert recover_original(b) == surface
            starless += 1
    assert seeded == [] and starless > 10
