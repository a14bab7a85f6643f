import pickle
import random
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import equilat.surface
from equilat.census import enumerate_surfaces
from equilat.cover import canonical_cover
from equilat.degree_bound import (
    bounded_degree_map,
    build_TD,
    build_TH,
    check_tri_lb,
    separation_check,
)
from equilat.surface import (
    BOUNDARY,
    GluedSurface,
    SurfaceError,
    _boundary_cycles,
    canonical_form,
    conformal_double,
    connected_components,
    corner_vertex_map,
    euler_and_genus,
    load_canonical_form,
    load_surface,
    random_surface,
    relabel,
    save_surface,
    subdivide,
    vertex_orbits,
)


def test_hexagonal_torus_stats(hex_torus):
    st_ = euler_and_genus(hex_torus)
    assert (st_.vertices, st_.edges, st_.faces) == (1, 3, 2)
    assert st_.chi == 0 and st_.genus == 1
    (rep,) = vertex_orbits(hex_torus)
    assert rep.degree == 6 and not rep.boundary


def test_pillowcase_stats(pillowcase):
    st_ = euler_and_genus(pillowcase)
    assert (st_.vertices, st_.edges, st_.faces) == (3, 3, 2)
    assert st_.chi == 2 and st_.genus == 0
    assert sorted(r.degree for r in vertex_orbits(pillowcase)) == [2, 2, 2]


def test_tsf_round_trip(hex_torus):
    text = save_surface(hex_torus)
    assert text.startswith("tsf v1\n")
    assert load_surface(text).gluing == hex_torus.gluing


def test_tsf_rejects_malformed():
    with pytest.raises(SurfaceError):
        load_surface("tsf v1\nT 2\ng 0 0\n")
    with pytest.raises(SurfaceError):
        load_surface("not a surface")
    with pytest.raises(SurfaceError, match="^line 4: dart glued twice$"):
        load_surface("tsf v1\nT 2\ng 0 3\ng 1 3\ng 2 5\n")
    with pytest.raises(SurfaceError, match="^line 5: dart glued twice$"):
        load_surface("tsf v1\nT 2\ng 0 4\ng 1 3\ng 4 5\n")
    with pytest.raises(SurfaceError, match="line 3: non-ASCII byte 0xff"):
        load_surface(b"tsf v1\nT 2\n\xff")
    # more faces than the gluing lines can reach, refused before allocating
    with pytest.raises(SurfaceError, match="line 2: 10000000000000 faces"):
        load_surface("tsf v1\nT 10000000000000\n")
    with pytest.raises(SurfaceError, match="line 2: 3 faces"):
        load_surface("tsf v1\nT 3\ng 0 3\n")


@pytest.mark.parametrize("sep", [b"\x0c", b"\x1c"])
def test_tsf_lines_are_counted_by_newline_only(sep):
    # str.splitlines would also break at a form feed or \x1c and count a line
    # more than the newlines (and the non-ASCII byte error) do
    with pytest.raises(SurfaceError, match="^line 5: dart out of range$"):
        load_surface(b"tsf v1\nT 2" + sep + b"\ng 0 3\ng 1 4\ng 2 7\n")
    with pytest.raises(SurfaceError, match="^line 4: dart out of range$"):
        load_surface(b"tsf v1\nT 2\ng 0 3" + sep + b"\ng 1 7\n")


TORUS_TSF = "tsf v1\nT 2\ng 0 3\ng 1 4\ng 2 5\n"


# int() reads each of these numerals and split() breaks at a no-break
# space, but TSF is ASCII with numerals of digits only
@pytest.mark.parametrize("old, new, line", [
    ("T 2", "T \u0662", 2),  # Arabic-Indic two
    ("g 2 5", "g 2 \u0665", 5),  # Arabic-Indic five
    ("T 2", "T 0_2", 2),
    ("g 0 3", "g +0 3", 3),
    ("g 0 3", "g -0 3", 3),
    ("g 1 4", "g 1 0_4", 4),
    ("g 0 3", "g\u00a00 3", 3),
])
def test_tsf_numerals_are_ascii_digits_only(old, new, line):
    text = TORUS_TSF.replace(old, new)
    assert text != TORUS_TSF
    for form in (text, text.encode()):
        with pytest.raises(SurfaceError, match=f"^line {line}: "):
            load_surface(form)


def test_tsf_comments_may_hold_any_character(hex_torus):
    text = "tsf v1 # +1, -0, 1_0\nT 2 # genus-1\ng 0 3\ng 1 4 # \u0662\ng 2 5\n"
    assert load_surface(text) == hex_torus
    with pytest.raises(SurfaceError, match="^line 4: non-ASCII byte"):
        load_surface(text.encode())
    assert load_surface(text.replace("\u0662", "").encode()) == hex_torus


def test_tsf_reads_crlf(hex_torus):
    assert load_surface(save_surface(hex_torus).replace("\n", "\r\n")) == hex_torus


# random partial pairings of 3T darts: often disconnected, with unglued sides
# and unglued triangles
partial_gluings = st.integers(min_value=1, max_value=8).flatmap(
    lambda T: st.tuples(st.permutations(range(3 * T)),
                        st.integers(min_value=0, max_value=3 * T // 2)))


@settings(max_examples=200, deadline=None)
@given(partial_gluings)
# two glued triangles and a loose one: one gluing line cannot reach 3 faces
@example(((0, 3, 1, 2, 4, 5, 6, 7, 8), 1))
def test_tsf_round_trip_or_refusal(drawn):
    order, n_pairs = drawn
    pairs = sorted(tuple(sorted(ab)) for ab in zip(order[0:2 * n_pairs:2],
                                                   order[1:2 * n_pairs:2]))
    gluing = [BOUNDARY] * len(order)
    for a, b in pairs:
        gluing[a], gluing[b] = b, a
    surface = GluedSurface(len(order) // 3, tuple(gluing))
    text = f"tsf v1\nT {surface.face_count}\n" + "".join(f"g {a} {b}\n" for a, b in pairs)
    try:
        loaded = load_surface(text)
    except SurfaceError:
        with pytest.raises(SurfaceError):
            save_surface(surface)
        return
    assert loaded == surface
    assert save_surface(surface) == text


# a non-ASCII space before a comment, or on a line of its own, is refused
# in str as in bytes, on the header line too
@pytest.mark.parametrize("text, line", [
    ("tsf v1\nT 2\ng 0 3\ng 1 4\ng 2 5\xa0\n", 5),
    ("tsf v1\xa0\nT 2\ng 0 3\ng 1 4\ng 2 5\n", 1),
    ("\u3000tsf v1 # header\nT 2\ng 0 3\ng 1 4\ng 2 5\n", 1),
    ("tsf v1\nT\u00a02\ng 0 3\ng 1 4\ng 2 5\n", 2),
    ("tsf v1\nT 2\n\xa0\ng 0 3\ng 1 4\ng 2 5\n", 3),
])
def test_tsf_non_ascii_spaces_are_refused_in_str_and_bytes(text, line):
    for form in (text, text.encode()):
        with pytest.raises(SurfaceError, match=f"^line {line}: non-ASCII"):
            load_surface(form)


def test_saved_text_is_read_in_one_pass(monkeypatch, hex_torus):
    surfaces = [hex_torus, GluedSurface(1, (BOUNDARY,) * 3),
                GluedSurface(2, (3, BOUNDARY, BOUNDARY, 0, BOUNDARY, BOUNDARY)),
                subdivide(random_surface(8, 1), 3)]
    texts = [save_surface(s) for s in surfaces]
    lines_read = []
    original = equilat.surface._load_lines

    def recording(text):
        lines_read.append(text)
        return original(text)

    monkeypatch.setattr(equilat.surface, "_load_lines", recording)
    for surface, text in zip(surfaces, texts):
        assert load_surface(text) == surface
        assert load_surface(text.encode()) == surface
    assert lines_read == []
    # the same form failing a bulk check goes to the line reader
    with pytest.raises(SurfaceError, match="^line 4: dart glued twice$"):
        load_surface("tsf v1\nT 2\ng 0 3\ng 1 3\ng 2 5\n")
    assert len(lines_read) == 1


def _tsf_reference(text):
    """The surface TSF text describes, or None where it must be refused.

    Comments and surrounding spaces are dropped and blank lines skipped;
    then a `tsf v1` header, `T <faces>` with at most max(1, 2 x lines)
    faces, and `g <a> <b>` lines of digits with prev a < a < b < 3T, no
    dart named twice.
    """
    rows = [raw.split("#")[0].strip() for raw in text.split("\n")]
    rows = [row for row in rows if row]
    if len(rows) < 2 or rows[0] != "tsf v1":
        return None
    key, _, count = rows[1].partition(" ")
    if key != "T" or not count.isdigit() or not 1 <= int(count) <= max(1, 2 * len(rows[2:])):
        return None
    T = int(count)
    gluing = [BOUNDARY] * (3 * T)
    prev = -1
    for row in rows[2:]:
        parts = row.split(" ")
        if len(parts) != 3 or parts[0] != "g" or not (parts[1] + parts[2]).isdigit():
            return None
        a, b = int(parts[1]), int(parts[2])
        if not prev < a < b < 3 * T or gluing[a] != BOUNDARY or gluing[b] != BOUNDARY:
            return None
        gluing[a], gluing[b] = b, a
        prev = a
    return GluedSurface(T, tuple(gluing))


def _tsf_text(data, T, pairs):
    """TSF text of T faces and gluing lines `pairs`, with drawn mutations:
    lines swapped, a dart repeated or out of range, a >= b, too many faces;
    then comments, blank lines and CRLF line ends."""
    pairs = [list(pair) for pair in pairs]
    for _ in range(data.draw(st.integers(0, 2))):
        kind = data.draw(st.sampled_from(["swap", "repeat", "range", "order", "faces"]))
        if kind == "faces":
            T = data.draw(st.sampled_from([0, 2 * len(pairs) + 1, 2 * len(pairs) + 2,
                                           10**30]))
            continue
        if not pairs:
            continue
        i, j = (data.draw(st.integers(0, len(pairs) - 1)) for _ in range(2))
        side = data.draw(st.integers(0, 1))
        if kind == "swap":
            pairs[i], pairs[j] = pairs[j], pairs[i]
        elif kind == "repeat":
            pairs[i][side] = pairs[j][data.draw(st.integers(0, 1))]
        elif kind == "range":
            pairs[i][side] = 3 * T + data.draw(st.integers(0, 3))
        else:
            pairs[i][side] = pairs[i][1 - side]
    lines = ["tsf v1", f"T {T}"] + [f"g {a} {b}" for a, b in pairs]
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(lines) - 1))
        if data.draw(st.booleans()):
            lines[i] += data.draw(st.sampled_from([" # note", "# \u0662 -1 +2", "#"]))
        else:
            lines.insert(i, data.draw(st.sampled_from(["", "   ", "# a comment"])))
    end = data.draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + end


@settings(max_examples=400, deadline=None)
@given(partial_gluings, st.data())
def test_tsf_reader_matches_a_line_parser(drawn, data):
    order, n_pairs = drawn
    pairs = sorted(tuple(sorted(ab)) for ab in zip(order[0:2 * n_pairs:2],
                                                   order[1:2 * n_pairs:2]))
    text = _tsf_text(data, len(order) // 3, pairs)
    expected = _tsf_reference(text)
    for form in (text, text.encode()) if text.isascii() else (text,):
        try:
            loaded = load_surface(form)
        except SurfaceError as exc:
            assert expected is None
            assert re.match(r"line [0-9]+: ", str(exc)), str(exc)
        else:
            assert expected is not None
            assert (loaded.face_count, loaded.gluing) == (expected.face_count, expected.gluing)


def test_single_triangle_boundary():
    tri = GluedSurface(1, (BOUNDARY, BOUNDARY, BOUNDARY))
    assert load_surface("tsf v1\nT 1\n") == tri
    assert not tri.is_closed()
    assert len(tri.boundary_darts()) == 3
    reps = vertex_orbits(tri)
    assert all(r.boundary and r.degree == 2 for r in reps)


def test_subdivision_counts(hex_torus):
    for k in (2, 3, 5):
        sub = subdivide(hex_torus, k)
        assert sub.face_count == 2 * k * k
        assert euler_and_genus(sub).genus == 1


def test_subdivision_composes(hex_torus):
    a = subdivide(subdivide(hex_torus, 2), 3)
    b = subdivide(hex_torus, 6)
    assert canonical_form(a) == canonical_form(b)


def test_double_of_triangle_is_pillowcase(pillowcase):
    tri = GluedSurface(1, (BOUNDARY, BOUNDARY, BOUNDARY))
    doubled = conformal_double(tri)
    assert doubled.is_closed()
    assert canonical_form(doubled) == canonical_form(pillowcase)


def test_double_genus_formula():
    # genus h with b boundary components doubles to genus 2h + b - 1
    rng = random.Random(7)
    for _ in range(10):
        closed = random_surface(8, rng.randrange(10**6))
        open_gluing = list(closed.gluing)
        d = rng.randrange(24)
        p = open_gluing[d]
        open_gluing[d] = open_gluing[p] = BOUNDARY
        cut = GluedSurface(8, tuple(open_gluing))
        if not cut.is_connected():
            continue
        stats = euler_and_genus(cut)
        doubled = conformal_double(cut)
        assert euler_and_genus(doubled).genus == \
            2 * stats.genus + stats.boundary_components - 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.randoms(use_true_random=False))
def test_canonical_form_is_relabeling_invariant(seed, rng):
    surface = random_surface(6, seed)
    perm = list(range(6))
    rng.shuffle(perm)
    rotations = [rng.randrange(3) for _ in range(6)]
    other = relabel(surface, perm, rotations)
    assert canonical_form(surface) == canonical_form(other)


def test_canonical_form_separates_torus_and_pillowcase(hex_torus, pillowcase):
    assert canonical_form(hex_torus) != canonical_form(pillowcase)


def test_canonical_form_round_trip(hex_torus):
    blob = canonical_form(hex_torus)
    rebuilt = load_canonical_form(blob)
    assert canonical_form(rebuilt) == blob


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_surface_is_closed_connected(seed):
    surface = random_surface(10, seed)
    assert surface.is_closed() and surface.is_connected()
    stats = euler_and_genus(surface)
    assert stats.chi % 2 == 0 and stats.genus >= 0


def test_random_surface_deterministic():
    assert random_surface(12, 5).gluing == random_surface(12, 5).gluing


def _pop_draw(T, seed):
    """random_surface by list pops: the smallest dart left, then the i-th."""
    rng = random.Random(seed)
    while True:
        darts = list(range(3 * T))
        gluing = [BOUNDARY] * (3 * T)
        while darts:
            a = darts.pop(0)
            b = darts.pop(rng.randrange(len(darts)))
            gluing[a] = b
            gluing[b] = a
        surface = GluedSurface(T, tuple(gluing))
        if len(_component_oracle(surface.gluing)) == 1:
            return surface


def test_random_surface_matches_pop_draw():
    cases = [(T, seed) for T in range(2, 60, 2) for seed in range(30)]
    cases += [(T, seed) for T in (200, 1000) for seed in range(5)]
    for T, seed in cases:
        assert random_surface(T, seed) == _pop_draw(T, seed), (T, seed)


def test_connected_components_split(hex_torus, pillowcase):
    gluing = list(hex_torus.gluing) + [p + 6 for p in pillowcase.gluing]
    both = GluedSurface(4, tuple(gluing))
    assert not both.is_connected()
    parts = connected_components(both)
    assert sorted(canonical_form(p) for p in parts) == \
        sorted([canonical_form(hex_torus), canonical_form(pillowcase)])


def _per_dart_check(T, gluing):
    """The constructor's check made dart by dart, over int partners: the
    message of the first failure, or None for a valid gluing."""
    if T < 1:
        return "face count must be positive"
    if len(gluing) != 3 * T:
        return f"gluing must list all {3 * T} darts"
    for d, p in enumerate(gluing):
        if p == BOUNDARY:
            continue
        if not 0 <= p < 3 * T:
            return f"dart {d}: partner {p} out of range"
        if p == d:
            return f"dart {d} glued to itself"
        if gluing[p] != d:
            return f"gluing is not an involution at dart {d}"
    return None


def test_gluing_validation():
    # each check's message, at the first failing dart
    for T, gluing, message in [
        (0, (), "face count must be positive"),
        (2, (3, 4, 5, 0, 1), "gluing must list all 6 darts"),
        (2, (6, 4, 5, BOUNDARY, 1, 2), "dart 0: partner 6 out of range"),
        # -2 reads back dart 5, whose partner is dart 2 itself
        (2, (3, 4, -2, 0, 1, 2), "dart 2: partner -2 out of range"),
        (2, (0, 4, 5, BOUNDARY, 1, 2), "dart 0 glued to itself"),
        (2, (3, 4, 5, 0, 1, 1), "gluing is not an involution at dart 2"),
        (2, (3, 4, 5.0, 0, 1, 2), "dart 2: partner 5.0 is not an int"),
        (2, (BOUNDARY,) * 5 + ("2",), "dart 5: partner '2' is not an int"),
        # the first failing dart is named, whatever fails later
        (2, (6, 4, 5.0, 0, 1, 2), "dart 0: partner 6 out of range"),
    ]:
        with pytest.raises(SurfaceError) as err:
            GluedSurface(T, gluing)
        assert str(err.value) == message


@settings(max_examples=300, deadline=None)
@given(partial_gluings, st.data())
def test_bulk_gluing_check_names_the_dart_loop_failure(drawn, data):
    order, n_pairs = drawn
    n = len(order)
    gluing = [BOUNDARY] * n
    for a, b in zip(order[0:2 * n_pairs:2], order[1:2 * n_pairs:2]):
        gluing[a], gluing[b] = b, a
    for _ in range(data.draw(st.integers(0, 3))):
        d, e = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if data.draw(st.booleans()):
            gluing[d] = data.draw(st.integers(-n - 2, n + 1))
        else:
            gluing[d], gluing[e] = gluing[e], gluing[d]
    want = _per_dart_check(n // 3, gluing)
    if want is None:
        assert GluedSurface(n // 3, tuple(gluing)).gluing == tuple(gluing)
    else:
        with pytest.raises(SurfaceError) as err:
            GluedSurface(n // 3, tuple(gluing))
        assert str(err.value) == want


def test_gluing_is_stored_as_a_tuple(hex_torus):
    listed = GluedSurface(2, [3, 4, 5, 0, 1, 2])
    assert type(listed.gluing) is tuple
    assert listed == hex_torus and hash(listed) == hash(hex_torus)
    assert GluedSurface(2, iter(hex_torus.gluing)) == hex_torus


def test_integer_like_partners_are_stored_as_ints():
    # a bool partner is stored as its int, so the saved text reads back
    surface = GluedSurface(2, (True, 0, 5, 4, 3, 2))
    assert surface.gluing == (1, 0, 5, 4, 3, 2)
    assert all(type(p) is int for p in surface.gluing)
    text = save_surface(surface)
    assert "True" not in text
    assert load_surface(text) == surface
    with pytest.raises(SurfaceError, match=r"^dart 0: partner 1\.0 is not an int$"):
        GluedSurface(2, (1.0, 0, 5, 4, 3, 2))


# --- the cached index against an independent oracle --------------------------

def _orbit_oracle(gluing):
    """Vertex orbits by walking the rotation sigma(c) = head corner of gluing[c].

    Fans (boundary vertices) start at the corner sigma does not reach; the
    remaining corners lie on cycles, listed from their smallest corner.
    Vertices are numbered by smallest corner.
    """
    sigma = {c: 3 * (p // 3) + (p % 3 + 1) % 3
             for c, p in enumerate(gluing) if p != BOUNDARY}
    reached = set(sigma.values())
    orbits = []
    for c in range(len(gluing)):
        if c not in reached:
            fan = [c]
            while fan[-1] in sigma:
                fan.append(sigma[fan[-1]])
            orbits.append((True, fan))
    covered = {c for _, fan in orbits for c in fan}
    for c in range(len(gluing)):
        if c not in covered:
            cycle = [c]
            while sigma[cycle[-1]] != c:
                cycle.append(sigma[cycle[-1]])
            covered.update(cycle)
            orbits.append((False, cycle))
    orbits.sort(key=lambda item: min(item[1]))
    return [(v, len(corners) + boundary, boundary, tuple(corners))
            for v, (boundary, corners) in enumerate(orbits)]


def _component_oracle(gluing):
    """Face sets of the components, by merging labels across every edge."""
    label = list(range(len(gluing) // 3))
    changed = True
    while changed:
        changed = False
        for d, p in enumerate(gluing):
            if p != BOUNDARY:
                low = min(label[d // 3], label[p // 3])
                for f in (d // 3, p // 3):
                    if label[f] != low:
                        label[f], changed = low, True
    groups = {}
    for f, root in enumerate(label):
        groups.setdefault(root, []).append(f)
    return [tuple(faces) for _, faces in sorted(groups.items())]


def _boundary_cycle_oracle(gluing):
    """Boundary cycles by walking each fan corner by corner.

    From the head corner of a boundary dart, rotate through outgoing darts
    until one is unmatched; that dart continues the boundary.  Each cycle
    starts at its smallest dart.
    """
    pending = {d for d, p in enumerate(gluing) if p == BOUNDARY}
    cycles = []
    while pending:
        d0 = min(pending)
        cycle = []
        d = d0
        while True:
            cycle.append(d)
            pending.discard(d)
            c = 3 * (d // 3) + (d % 3 + 1) % 3
            while gluing[c] != BOUNDARY:
                p = gluing[c]
                c = 3 * (p // 3) + (p % 3 + 1) % 3
            d = c
            if d == d0:
                break
        cycles.append(cycle)
    return cycles


def _check_index(surface):
    gluing = surface.gluing
    unread = equilat.surface._build_index(gluing)
    orbits = _orbit_oracle(gluing)
    ix = surface.index
    assert list(ix.degrees) == [degree for _, degree, _, _ in orbits]
    assert list(ix.boundary) == [boundary for _, _, boundary, _ in orbits]
    assert list(ix.corners) == [corners for _, _, _, corners in orbits]
    reports = vertex_orbits(surface)
    assert [(r.vertex, r.degree, r.boundary, r.corners) for r in reports] == orbits
    cv = corner_vertex_map(surface)
    assert all(cv[c] == r.vertex for r in reports for c in r.corners)
    # sorted corners are the darts leaving each vertex
    assert [sorted(corners) for corners in ix.corners] == \
        [[d for d in range(len(gluing)) if cv[d] == r.vertex] for r in reports]
    assert _boundary_cycles(surface) == _boundary_cycle_oracle(gluing)
    components = _component_oracle(gluing)
    assert list(surface.index.components) == components
    assert surface.is_connected() == (len(components) == 1)
    # the lazily built view is invisible to ==, hash and pickles
    assert "vertices" in vars(ix) and not vars(unread)
    assert ix == unread and hash(ix) == hash(unread)
    assert pickle.dumps(ix) == pickle.dumps(unread)
    back = pickle.loads(pickle.dumps(ix))
    assert back == ix and not vars(back) and back.vertices == ix.vertices
    parts = connected_components(surface)
    assert [p.face_count for p in parts] == [len(faces) for faces in components]
    for part, faces in zip(parts, components):
        new = {f: i for i, f in enumerate(faces)}
        for i, f in enumerate(faces):
            for s in range(3):
                p = gluing[3 * f + s]
                q = part.gluing[3 * i + s]
                assert q == (BOUNDARY if p == BOUNDARY else 3 * new[p // 3] + p % 3)


def _pair_up(order):
    gluing = [BOUNDARY] * len(order)
    for a, b in zip(order[0::2], order[1::2]):
        gluing[a], gluing[b] = b, a
    return tuple(gluing)


# random pairings of 6h darts: closed gluings of 2h faces, often disconnected
closed_gluings = st.integers(min_value=1, max_value=8).flatmap(
    lambda h: st.permutations(range(6 * h))).map(_pair_up)


@settings(max_examples=150, deadline=None)
@given(closed_gluings)
def test_index_matches_oracle_on_closed_gluings(gluing):
    surface = GluedSurface(len(gluing) // 3, gluing)
    _check_index(surface)
    _check_index(subdivide(surface, 2))


@settings(max_examples=150, deadline=None)
@given(closed_gluings, st.randoms(use_true_random=False))
def test_index_matches_oracle_with_boundary(gluing, rng):
    cut = list(gluing)
    for d in rng.sample(range(len(cut)), rng.randrange(1, len(cut) + 1)):
        if cut[d] != BOUNDARY:
            cut[cut[d]] = cut[d] = BOUNDARY
    _check_index(GluedSurface(len(cut) // 3, tuple(cut)))


DISK = GluedSurface(1, (BOUNDARY,) * 3)
BORDERED = ([build_TD(d).surface for d in range(2, 12)]
            + [build_TH(d).surface for d in (8, 9, 15, 16, 31, 64)]
            + [DISK] + [subdivide(DISK, k) for k in range(2, 7)])


@pytest.mark.parametrize("surface", BORDERED, ids=range(len(BORDERED)))
def test_index_matches_oracle_on_bordered_blocks(surface):
    _check_index(surface)


def _assert_as_validated(surface):
    """The constructor accepts a trusted construction's gluing and gives an
    equal surface."""
    assert type(surface.gluing) is tuple
    assert GluedSurface(surface.face_count, surface.gluing) == surface
    return surface


@settings(max_examples=100, deadline=None)
@given(partial_gluings, closed_gluings, st.integers(min_value=0, max_value=10**6))
def test_trusted_constructions_equal_validated_ones(drawn, closed, seed):
    order, n_pairs = drawn
    bordered = [BOUNDARY] * len(order)
    for a, b in zip(order[0:2 * n_pairs:2], order[1:2 * n_pairs:2]):
        bordered[a], bordered[b] = b, a
    connected = random_surface(2 * (seed % 5 + 1), seed)
    for surface in (GluedSurface(len(order) // 3, tuple(bordered)),
                    GluedSurface(len(closed) // 3, closed), connected):
        for k in (2, 3, 4):
            _assert_as_validated(subdivide(surface, k))
        for part in connected_components(surface):
            _assert_as_validated(part)
            if part.is_closed():
                _assert_as_validated(canonical_cover(part).total)
            else:
                _assert_as_validated(conformal_double(part))
        try:
            text = save_surface(surface)
        except SurfaceError:
            continue
        _assert_as_validated(load_surface(text))


# random TSF gluing lines, sorted so that most pass the ascending check
tsf_lines = st.integers(min_value=1, max_value=6).flatmap(
    lambda T: st.tuples(st.just(T), st.lists(
        st.tuples(st.integers(-1, 3 * T), st.integers(-1, 3 * T)), max_size=3 * T)))


@settings(max_examples=300, deadline=None)
@given(tsf_lines)
@example((2, [(0, 3), (1, 3), (2, 5)]))
@example((2, [(0, 4), (1, 3), (4, 5)]))
def test_loaded_surfaces_pass_the_constructor(drawn):
    T, pairs = drawn
    text = f"tsf v1\nT {T}\n" + "".join(f"g {a} {b}\n" for a, b in sorted(pairs))
    try:
        loaded = load_surface(text)
    except SurfaceError:
        return
    _assert_as_validated(loaded)


@pytest.mark.parametrize("workers", [1, 2])
def test_census_leaves_equal_validated_surfaces(workers):
    for surface in enumerate_surfaces(6, workers=workers):
        _assert_as_validated(surface)


def _subdivide_oracle(surface, k):
    """The k-subdivision glued dart by dart from cell coordinates.

    Upward cell (x,y) has corners (x,y),(x+1,y),(x,y+1); downward cell
    (x,y) has corners (x+1,y),(x+1,y+1),(x,y+1); upward cells are numbered
    first, row by row, then downward cells.
    """
    up = [(x, y) for y in range(k) for x in range(k - y)]
    down = [(x, y) for y in range(k - 1) for x in range(k - 1 - y)]
    up_index = {c: i for i, c in enumerate(up)}
    down_index = {c: len(up) + i for i, c in enumerate(down)}
    per = k * k

    def up_dart(f, x, y, s):
        return 3 * (f * per + up_index[x, y]) + s

    def down_dart(f, x, y, s):
        return 3 * (f * per + down_index[x, y]) + s

    def side_dart(f, s, t):
        """Dart of face f's subdivision carrying sub-edge t of side s."""
        if s == 0:
            return up_dart(f, t, 0, 0)
        if s == 1:
            return up_dart(f, k - 1 - t, t, 1)
        return up_dart(f, 0, k - 1 - t, 2)

    gluing = [BOUNDARY] * (3 * per * surface.face_count)

    def glue(a, b):
        gluing[a] = b
        gluing[b] = a

    for f in range(surface.face_count):
        for x, y in up:
            if x + y <= k - 2:
                glue(up_dart(f, x, y, 1), down_dart(f, x, y, 2))
            if y > 0:
                glue(up_dart(f, x, y, 0), down_dart(f, x, y - 1, 1))
            if x > 0:
                glue(up_dart(f, x, y, 2), down_dart(f, x - 1, y, 0))
    for d, p in enumerate(surface.gluing):
        if p != BOUNDARY and d < p:
            for t in range(k):
                glue(side_dart(d // 3, d % 3, t), side_dart(p // 3, p % 3, k - 1 - t))
    return tuple(gluing)


@settings(max_examples=100, deadline=None)
@given(closed_gluings, st.integers(min_value=2, max_value=6),
       st.randoms(use_true_random=False))
def test_subdivide_matches_oracle(gluing, k, rng):
    cut = list(gluing)
    for d in rng.sample(range(len(cut)), rng.randrange(len(cut) + 1)):
        if cut[d] != BOUNDARY:
            cut[cut[d]] = cut[d] = BOUNDARY
    for surface in (GluedSurface(len(gluing) // 3, gluing),
                    GluedSurface(len(cut) // 3, tuple(cut))):
        assert subdivide(surface, k).gluing == _subdivide_oracle(surface, k)


@pytest.mark.parametrize("k", range(2, 7))
def test_subdivide_matches_oracle_on_bordered_blocks(k):
    for surface in BORDERED:
        assert subdivide(surface, k).gluing == _subdivide_oracle(surface, k)


def test_face_limit_bounds_subdivide_and_random_surface(hex_torus, monkeypatch):
    monkeypatch.setattr(equilat.surface, "MAX_FACES", 18)
    assert subdivide(hex_torus, 3).face_count == 18
    assert random_surface(18, 0).face_count == 18
    with pytest.raises(SurfaceError, match="exceeds 18 faces"):
        subdivide(hex_torus, 4)
    with pytest.raises(SurfaceError, match="exceeds 18 faces"):
        random_surface(20, 0)


@pytest.mark.parametrize("build", [
    # 2 * 708^2 faces is just over the limit
    lambda torus: subdivide(torus, 708),
    lambda torus: random_surface(10**10, 0),
], ids=["subdivide", "random_surface"])
def test_oversized_outputs_are_refused_before_allocating(hex_torus, build):
    limit = equilat.surface.MAX_FACES
    assert 2 * 708 ** 2 > limit
    tracemalloc.start()
    try:
        with pytest.raises(SurfaceError, match=f"exceeds {limit} faces"):
            build(hex_torus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_components_of_disconnected_gluings(hex_torus, pillowcase):
    both = GluedSurface(5, hex_torus.gluing + tuple(p + 6 for p in pillowcase.gluing)
                        + DISK.gluing)
    _check_index(both)
    assert both.index.components == ((0, 1), (2, 3), (4,))


def test_returned_lists_are_copies(pillowcase):
    surface = GluedSurface(pillowcase.face_count, pillowcase.gluing)
    reports, cv = vertex_orbits(surface), corner_vertex_map(surface)
    parts = connected_components(surface)
    reports.clear()
    cv[0] = 99
    parts.append(None)
    assert len(vertex_orbits(surface)) == 3
    assert corner_vertex_map(surface)[0] == 0
    assert len(connected_components(surface)) == 1


def test_cache_is_invisible_to_eq_hash_repr_and_pickle():
    fresh = random_surface(10, 4)
    used = GluedSurface(fresh.face_count, fresh.gluing)
    euler_and_genus(used)
    assert "index" in vars(used) and "index" not in vars(fresh)
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert pickle.dumps(used) == pickle.dumps(fresh)
    back = pickle.loads(pickle.dumps(used))
    assert back == used and "index" not in vars(back)
    assert back.index == used.index


def test_index_is_built_once_per_surface(index_builds):
    built = index_builds
    surface = random_surface(6, 11)
    result = bounded_degree_map(surface)
    cert = check_tri_lb(result.surface)
    separation_check(result.surface, cert)
    euler_and_genus(result.surface)
    euler_and_genus(surface)
    assert len({id(g) for g in built}) == len(built)
    assert any(g is result.surface.gluing for g in built)


@pytest.mark.parametrize("surface", BORDERED[:4] + [random_surface(T, T) for T in (2, 8, 20)],
                         ids=range(7))
def test_one_component_split_shares_the_index(surface):
    fresh = GluedSurface(surface.face_count, surface.gluing)
    [part] = connected_components(fresh)
    assert part == GluedSurface(surface.face_count, surface.gluing)
    assert part.index is fresh.index
    assert part.index == equilat.surface._build_index(surface.gluing)
