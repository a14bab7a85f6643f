import pytest

from equilat.surface import (
    GluedSurface,
    SurfaceError,
    canonical_form,
    euler_and_genus,
    random_surface,
    save_surface,
    subdivide,
    vertex_orbits,
)
from equilat.degree_bound import (
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
    swapped = replace_stars(quad, centers, blocks)
    assert euler_and_genus(swapped).genus == euler_and_genus(quad).genus
    assert max(r.degree for r in vertex_orbits(swapped)) <= 7


def test_bounded_degree_map_postconditions():
    for seed in (0, 1, 5):
        surface = random_surface(8, seed)
        result = bounded_degree_map(surface)
        assert euler_and_genus(result.surface).genus == \
            euler_and_genus(surface).genus
        assert max(r.degree for r in vertex_orbits(result.surface)) <= 7
        assert result.sigma == result.surface.face_count / surface.face_count
        assert check_tri_lb(result.surface).ok


def test_provenance_recovers_input_bit_exactly():
    surface = random_surface(8, 11)
    result = bounded_degree_map(surface)
    recovered = recover_original(result.surface)
    assert save_surface(recovered) == save_surface(surface)


def test_check_tri_lb_on_three_subdivision(census8):
    bounded = [s for T in (2, 4, 6, 8) for s in census8[T]
               if max(r.degree for r in vertex_orbits(s)) <= 7]
    assert len(bounded) == 62
    for surface in bounded:
        cert = check_tri_lb(subdivide(surface, 3))
        assert cert.ok
        assert canonical_form(cert.coarse) == canonical_form(surface)


def test_check_tri_lb_rejects_plain_torus(hex_torus):
    assert not check_tri_lb(hex_torus).ok  # 2 faces is not a multiple of 9


def test_separation_check_on_replacement():
    surface = random_surface(8, 2)
    result = bounded_degree_map(surface)
    cert = check_tri_lb(result.surface)
    report = separation_check(result.surface, cert)
    assert report.ok and report.all_macro


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
    from equilat.surface import conformal_double

    return conformal_double(disk.surface)
