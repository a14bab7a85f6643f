import random
from fractions import Fraction
from math import factorial

import pytest

import equilat.census as census
from equilat.cli import main
from equilat.degree_bound import check_tri_lb
from equilat.surface import (
    GluedSurface,
    SurfaceError,
    _bfs_code,
    _build_index,
    canonical_form,
    euler_and_genus,
    _head_corner,
    load_canonical_form,
    relabel,
)
from equilat.census import (
    CensusRow,
    brute_force_classes,
    connected_mass,
    count_table,
    enumerate_surfaces,
    rooted_gluings,
    write_table,
    _expand,
    _has_loop_or_multiedge,
    _leaf_scan,
    _next_unset,
    _root,
    _search,
)
from equilat.translation import detect_structures


@pytest.mark.parametrize("T", [2, 4])
def test_matches_brute_force_oracle(T):
    fast = sorted(canonical_form(s) for s in enumerate_surfaces(T))
    brute = sorted(canonical_form(s) for s in brute_force_classes(T))
    assert fast == brute


def test_small_counts(census8):
    assert [len(census8[T]) for T in (2, 4, 6, 8)] == [3, 11, 81, 1228]


def test_contains_hexagonal_torus(census8, hex_torus):
    forms = {canonical_form(s) for s in census8[2]}
    assert canonical_form(hex_torus) in forms


def test_rejects_odd_and_oversized():
    with pytest.raises(SurfaceError):
        enumerate_surfaces(3)
    with pytest.raises(SurfaceError, match="EQUILAT_MAX_T"):
        enumerate_surfaces(12)


def test_override_cap(monkeypatch):
    monkeypatch.setenv("EQUILAT_MAX_T", "4")
    with pytest.raises(SurfaceError):
        enumerate_surfaces(6)
    monkeypatch.setenv("EQUILAT_MAX_T", "6")
    assert len(enumerate_surfaces(6)) == 81


def test_no_duplicates_and_all_closed(census8):
    for T, classes in census8.items():
        forms = [canonical_form(s) for s in classes]
        assert len(set(forms)) == len(forms)
        for s in classes:
            assert s.is_closed() and s.is_connected()


def test_round_trip_from_canonical_form(census8):
    for s in census8[6]:
        blob = canonical_form(s)
        assert canonical_form(load_canonical_form(blob)) == blob


def test_worker_independence():
    seq = [s.gluing for s in enumerate_surfaces(6, workers=1)]
    par = [s.gluing for s in enumerate_surfaces(6, workers=4)]
    assert seq == par


def test_worker_count_is_bounded_by_tasks(monkeypatch):
    # a fake pool, so no process is ever started for the huge worker count
    import equilat.census as census

    requested = []

    class SerialPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(census, "ProcessPoolExecutor", SerialPool)
    par = [s.gluing for s in enumerate_surfaces(6, workers=10**6)]
    assert requested and requested[0] <= len(census._frontier(6, census._FRONTIER_DEPTH))
    assert par == [s.gluing for s in enumerate_surfaces(6)]


def test_genus_bound(census8):
    for T, classes in census8.items():
        for s in classes:
            g = euler_and_genus(s).genus
            assert T >= 4 * g - 4


def test_count_table_aggregates(census8):
    rows = count_table(6)
    by_T = {}
    for row in rows:
        assert isinstance(row, CensusRow)
        assert 0 <= row.tran_count <= row.count
        assert 0 <= row.lb_count <= row.count
        by_T[row.T] = by_T.get(row.T, 0) + row.count
    assert by_T == {2: 3, 4: 11, 6: 81}
    torus_row = next(r for r in rows if r.T == 2 and r.genus == 1)
    assert torus_row.tran_count >= 1


def test_csv_format(tmp_path):
    rows = count_table(4)
    out = tmp_path / "table.csv"
    write_table(rows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "T,genus,count,tran_count,lb_count"
    assert len(lines) == len(rows) + 1


def test_filter_predicate():
    from equilat.translation import detect_structures

    tran = [s for s in enumerate_surfaces(4) if detect_structures(s) is not None]
    assert len(tran) == 1
    assert euler_and_genus(tran[0]).genus == 1


def _oracle_has_loop_or_multiedge(surface):
    """Edge by edge: a loop, or a vertex pair that an earlier edge joins."""
    cv = surface.index.corner_vertex
    seen = set()
    for d in range(surface.dart_count):
        p = surface.gluing[d]
        if d > p:
            continue
        v, w = cv[d], cv[_head_corner(d)]
        if v == w or (min(v, w), max(v, w)) in seen:
            return True
        seen.add((min(v, w), max(v, w)))
    return False


def test_loop_or_multiedge_matches_oracle(census8):
    rng = random.Random(15)
    loop_free = {}
    for T, classes in census8.items():
        for surface in classes:
            want = _oracle_has_loop_or_multiedge(surface)
            assert _has_loop_or_multiedge(surface.index.corner_vertex) == want
            loop_free[T] = loop_free.get(T, 0) + (not want)
            perm = list(range(T))
            rng.shuffle(perm)
            other = relabel(surface, perm, [rng.randrange(3) for _ in range(T)])
            assert _has_loop_or_multiedge(other.index.corner_vertex) == want
            assert _oracle_has_loop_or_multiedge(other) == want
    assert loop_free == {2: 1, 4: 1, 6: 1, 8: 2}


def _is_minimal(surface):
    """No start dart reads a smaller BFS code than the gluing itself."""
    code = list(surface.gluing)
    for start in range(1, surface.dart_count):
        other = _bfs_code(surface, start, code)
        if other is not None and other < code:
            return False
    return True


def _leaf_only_search(T):
    """The census search before prefix rejection: every rooted gluing is
    completed to a leaf, and only the leaf test `_is_minimal` rejects."""
    n_darts = 3 * T
    found = []
    stack = [([-1] * n_darts, 1, 0)]
    while stack:
        gluing, opened, n = stack.pop()
        if n == n_darts:
            if opened == T:
                surface = GluedSurface(T, tuple(gluing))
                if _is_minimal(surface):
                    found.append(surface.gluing)
            continue
        if n >= 3 * opened:
            continue
        choices = []
        if opened < T:
            choices.append(3 * opened)
        for p in range(n + 1, 3 * opened):
            if gluing[p] == -1:
                choices.append(p)
        for p in choices:
            g2 = list(gluing)
            g2[n] = p
            g2[p] = n
            stack.append((g2, max(opened, p // 3 + 1), _next_unset(g2, n + 1)))
    return sorted(found)


def test_pruning_keeps_every_class(census8):
    for T in (2, 4, 6):
        assert [s.gluing for s in census8[T]] == _leaf_only_search(T)
    leaf_only = _leaf_only_search(8)
    assert [s.gluing for s in census8[8]] == leaf_only
    assert [s.gluing for s in enumerate_surfaces(8, workers=2)] == leaf_only


@pytest.mark.parametrize("workers", [1, 2])
def test_every_class_is_minimal(census8, workers):
    for T in (2, 4, 6, 8):
        classes = census8[T] if workers == 1 else enumerate_surfaces(T, workers=workers)
        assert all(_is_minimal(s) for s in classes)


def _prefix_order(gluing, start, n):
    """The code from `start` compared with the root code over darts
    0..n-1, read from its first entry: -1 or 1 at the first entry where
    they differ, 0 if they tie until n or an undecided partner."""
    label = [-1] * len(gluing)
    f3 = start - start % 3
    order = [start, f3 + (start + 1) % 3, f3 + (start + 2) % 3]
    label[order[0]], label[order[1]], label[order[2]] = 0, 1, 2
    for m in range(n):
        p = gluing[order[m]]
        if p == -1:
            return 0
        entry = label[p]
        if entry == -1:
            entry = len(order)
            f3 = p - p % 3
            q, r = f3 + (p + 1) % 3, f3 + (p + 2) % 3
            label[p], label[q], label[r] = entry, entry + 1, entry + 2
            order += (p, q, r)
        if entry != gluing[m]:
            return -1 if entry < gluing[m] else 1
    return 0


def test_resumed_codes_match_codes_read_from_scratch():
    # every node of the T <= 8 search: the starts each child keeps, and
    # whether the node is pruned, agree with codes read from entry 0
    for T in (2, 4, 6, 8):
        stack = [_root(T)]
        while stack:
            node = stack.pop()
            gluing, opened, n, live = node
            children = _expand(T, *node)
            if n == 3 * opened and opened < T:
                assert children is None
                continue
            starts = [state[0][0] for state in live]
            orders = [_prefix_order(gluing, s, n) for s in starts]
            if any(o < 0 for o in orders):
                assert children is None
                continue
            assert children is not None
            kept = [s for s, o in zip(starts, orders) if o == 0]
            for child in children:
                assert [state[0][0] for state in child[3]] == kept
            stack.extend(children)


def _automorphism_count(gluing):
    """Darts d such that dart 0 -> d extends to a bijection of darts that
    commutes with the face rotation and with the gluing."""
    n = len(gluing)
    rotate = [d + 1 if d % 3 != 2 else d - 2 for d in range(n)]
    count = 0
    for target in range(n):
        image = {0: target}
        used = {target}
        stack = [0]
        ok = True
        while stack and ok:
            x = stack.pop()
            y = image[x]
            for a, b in ((rotate[x], rotate[y]), (gluing[x], gluing[y])):
                if a not in image:
                    if b in used:
                        ok = False
                        break
                    image[a] = b
                    used.add(b)
                    stack.append(a)
                elif image[a] != b:
                    ok = False
                    break
        count += ok
    return count


def _pairings(m):
    """(m-1)!!, the fixed-point-free involutions on m darts; 0 if m is odd."""
    out = 1 - m % 2
    for k in range(m - 1, 0, -2):
        out *= k
    return out


def _connected_mass(T):
    """[x^T] log(sum_n (3n-1)!! x^n / n!) / 3^T: the classes of connected
    closed gluings of T triangles, each weighted by 1/|Aut|."""
    a = [Fraction(_pairings(3 * n), factorial(n)) for n in range(T + 1)]
    # log of a power series with a[0] = 1: n c_n = n a_n - sum_k k c_k a_{n-k}
    c = [Fraction(0)] * (T + 1)
    for n in range(1, T + 1):
        c[n] = a[n] - sum((k * c[k] * a[n - k] for k in range(1, n)), Fraction(0)) / n
    return c[T] / 3 ** T


def test_mass_identity_at_ten():
    assert _connected_mass(10) == Fraction(82825, 3)
    classes = enumerate_surfaces(10)
    assert len(classes) == 28174
    assert sum(Fraction(1, _automorphism_count(s.gluing)) for s in classes) == \
        Fraction(82825, 3)


def test_mass_series_matches_test_series():
    for T in range(1, 15):
        assert connected_mass(T) == _connected_mass(T)
    assert connected_mass(12) == Fraction(2518400, 3)
    assert connected_mass(14) == Fraction(1282031525, 42)


def test_search_automorphism_count_matches_oracle():
    found = []

    def collect(gluing, aut):
        assert aut == _automorphism_count(gluing)
        found.append(aut)

    for T in (2, 4, 6, 8):
        _search(T, _root(T), collect)
    assert len(found) == 1323


@pytest.mark.parametrize("fault", ["drop_class", "aut_plus_one"])
def test_mass_check_catches_a_faulty_search(monkeypatch, capsys, fault):
    # the first T=8 class the search finds is dropped, or reported with
    # one automorphism too many
    faulty = []

    def search(T, node, collect):
        def collect_with_fault(gluing, aut):
            if T == 8 and not faulty:
                faulty.append(gluing)
                if fault == "drop_class":
                    return
                aut += 1
            collect(gluing, aut)

        _search(T, node, collect_with_fault)

    monkeypatch.setattr(census, "_search", search)
    with pytest.raises(SurfaceError, match="T=8"):
        count_table(8)
    faulty.clear()
    code = main(["census", "--tmax", "8"])
    assert code == 1
    assert faulty
    assert capsys.readouterr().out.strip().splitlines()[-1].startswith("RESULT: fail T=8")


def _rows_one_class_at_a_time(classes_by_T):
    """Census rows built the old way: each class of the sorted list
    classified in turn, its index built with the face fill."""
    rows = []
    for T, classes in classes_by_T.items():
        buckets = {}
        for surface in classes:
            g = euler_and_genus(surface).genus
            b = buckets.setdefault(g, {"count": 0, "tran": 0, "lb": 0,
                                       "hist": {}, "loops": 0})
            b["count"] += 1
            b["tran"] += detect_structures(surface) is not None
            b["lb"] += check_tri_lb(surface).ok
            md = max(surface.index.degrees)
            b["hist"][md] = b["hist"].get(md, 0) + 1
            b["loops"] += _has_loop_or_multiedge(surface.index.corner_vertex)
        for g in sorted(buckets):
            b = buckets[g]
            rows.append(CensusRow(T, g, b["count"], b["tran"], b["lb"],
                                  tuple(sorted(b["hist"].items())), b["loops"]))
    return rows


@pytest.mark.parametrize("workers", [1, 2])
def test_streamed_rows_match_rows_from_class_list(census8, workers):
    assert count_table(8, workers=workers) == _rows_one_class_at_a_time(census8)


def test_leaf_scan_matches_index(census8):
    # the scan's four outputs, against the full index of every T <= 8 class
    checked = 0
    for T, classes in census8.items():
        head = [_head_corner(d) for d in range(3 * T)]
        for surface in classes:
            index = _build_index(surface.gluing)
            V, top, flat, corner_vertex = _leaf_scan(list(surface.gluing), head)
            assert V == len(index.degrees)
            assert top == max(index.degrees)
            assert flat == all(d % 6 == 0 for d in index.degrees)
            assert corner_vertex == list(index.corner_vertex)
            checked += 1
    assert checked == 1323


def test_rooted_gluings_match_mass_series():
    for T in range(2, 31, 2):
        R = rooted_gluings(T)
        assert sum(R.values()) == 3 * T * connected_mass(T)
        assert all(r > 0 and r.denominator == 1 for r in R.values())
    assert rooted_gluings(10) == {0: 54912, 1: 326496, 2: 396792, 3: 50050}
    assert rooted_gluings(14) == {0: 11824384, 1: 150820608, 2: 544475232,
                                  3: 518329776, 4: 56581525}


def test_genus_check_catches_a_misplaced_class(monkeypatch):
    # the first T=8 class is scanned with two vertices too many, so it is
    # counted one genus too low; its weight moves between genera and the
    # total is unchanged
    moved = []

    def faulty_scan(gluing, head):
        V, top, flat, corner_vertex = _leaf_scan(gluing, head)
        if len(gluing) == 24 and not moved:
            moved.append(tuple(gluing))
            V += 2
        return V, top, flat, corner_vertex

    weights = {}

    def count(task):  # a serial table runs one task per T
        T, tallies = census_count(task)
        weights[T] = {g: b[5] for g, b in tallies.items()}
        return T, tallies

    census_count = census._count
    monkeypatch.setattr(census, "_count", count)
    monkeypatch.setattr(census, "_leaf_scan", faulty_scan)
    with pytest.raises(SurfaceError, match="^T=8: by genus the census classes weigh g=0: "
                       ".* but the recurrence gives g=0: 4096, g=1: 14912, g=2: 8112$"):
        count_table(8)
    assert moved
    # the total mass check passed, so only the per-genus check can see it
    assert sum(weights[8].values()) == 24 * connected_mass(8)
    assert weights[8] != rooted_gluings(8)
    assert {T: weights[T] for T in (2, 4, 6)} == {T: rooted_gluings(T) for T in (2, 4, 6)}


# count_table(10)'s T=10 rows as recorded before leaves were classified
# from `_leaf_scan`; neither the CSV oracle nor the mass identities read
# the histogram and loop columns
_T10_ROWS = [
    CensusRow(10, 0, 1904, 0, 0, (
        (5, 2), (6, 17), (7, 75), (8, 158), (9, 210), (10, 241), (11, 242), (12, 215),
        (13, 173), (14, 132), (15, 117), (16, 105), (17, 56), (18, 51), (19, 43),
        (20, 29), (21, 15), (22, 12), (23, 7), (24, 4)), 1898),
    CensusRow(10, 1, 11096, 2, 0, (
        (6, 2), (7, 15), (8, 82), (9, 251), (10, 505), (11, 697), (12, 941), (13, 1092),
        (14, 998), (15, 831), (16, 1049), (17, 790), (18, 708), (19, 650), (20, 603),
        (21, 533), (22, 448), (23, 315), (24, 266), (25, 210), (26, 110)), 11096),
    CensusRow(10, 2, 13448, 17, 0, (
        (10, 20), (11, 79), (12, 182), (13, 284), (14, 583), (15, 585), (16, 912),
        (17, 764), (18, 750), (19, 737), (20, 768), (21, 806), (22, 862), (23, 868),
        (24, 950), (25, 945), (26, 1016), (27, 1155), (28, 1182)), 13448),
    CensusRow(10, 3, 1726, 12, 0, ((30, 1726),), 1726),
]


def test_rows_at_ten_match_recorded_rows():
    assert [row for row in count_table(10) if row.T == 10] == _T10_ROWS
