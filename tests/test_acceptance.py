"""Acceptance suite: nine exact combinatorial checks, one line each.

Every check prints a single machine-readable line
`ACCEPTANCE <n>: pass|fail <summary>` and asserts the pass condition.
"""

import random
import sys

from equilat.surface import (
    canonical_form,
    euler_and_genus,
    load_surface,
    relabel,
    save_surface,
    vertex_orbits,
)
from equilat.translation import (
    build_period_map,
    detect_structures,
    face_types,
)
from equilat.degree_bound import (
    bounded_degree_map,
    build_TH,
    check_tri_lb,
    recover_original,
    separation_check,
    th_layer_sizes,
)
from equilat.parallelogram import decompose
from equilat.cover import canonical_cover, verify_cover
from equilat.census import brute_force_classes, enumerate_surfaces

# zeta^k = e^{k*pi*i/3} as (a, b) with zeta^k = a + b*w, w = e^{i*pi/3}
ROOT = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def report(n, ok, summary):
    line = f"ACCEPTANCE {n}: {'pass' if ok else 'fail'} {summary}"
    print("\n" + line)
    if sys.stdout is not sys.__stdout__:  # also show through pytest capture
        print(line, file=sys.__stdout__)
    assert ok, f"acceptance criterion {n} failed: {summary}"


def test_acceptance_1_euler_genus(census8):
    checked = 0
    ok = True
    for T, classes in census8.items():
        for s in classes:
            stats = euler_and_genus(s)
            ok = ok and stats.vertices - 3 * T // 2 + T == 2 - 2 * stats.genus
            ok = ok and stats.genus >= 0 and T >= 4 * stats.genus - 4
            checked += 1
    report(1, ok, f"Euler formula and T >= 4g-4 on {checked} census classes")


def test_acceptance_2_six_structure_law(census8, brute_force_structures):
    # T <= 6: exactly one phase vector with face 0 at phase 0 obeys the
    # rules when a structure is found, none otherwise
    ok = True
    for s, passing in brute_force_structures:
        st = detect_structures(s)
        ok = ok and passing == ([] if st is None else [st.weights])
    checked = with_structure = 0
    for classes in census8.values():
        for s in classes:
            st = detect_structures(s)
            if st is not None:
                with_structure += 1
                types = face_types(s, st)
                ok = ok and all(types[d // 3] != types[p // 3]
                                for d, p in enumerate(s.gluing))
            checked += 1
    report(2, ok, f"0-or-6 structures by brute force on "
                  f"{len(brute_force_structures)} classes; {with_structure} of "
                  f"{checked} admit one, all bipartite")


def _times(x, y):
    """(a + b*w)(c + d*w) with w^2 = w - 1."""
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c + b * d


def _hnf(vectors):
    """Hermite normal form of the subgroup of Z^2 the vectors generate:
    rows with positive pivots in increasing columns, the entries above
    each pivot reduced into [0, pivot), by integer row reduction (Cohen,
    A Course in Computational Algebraic Number Theory, 2.4)."""
    rows = [list(v) for v in vectors if any(v)]
    basis = []
    for col in (0, 1):
        pivots = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(pivots) > 1:  # Euclid on the column, keeping the remainders
            pivots.sort(key=lambda r: abs(r[col]))
            p = pivots[0]
            for r in pivots[1:]:
                q = r[col] // p[col]
                r[:] = [x - q * y for x, y in zip(r, p)]
            rows += [r for r in pivots if not r[col] and any(r)]
            pivots = [r for r in pivots if r[col]]
        if pivots:
            p = pivots[0] if pivots[0][col] > 0 else [-x for x in pivots[0]]
            basis.append((col, p))
    for i, (_, row) in enumerate(basis):
        for col, p in basis[i + 1:]:
            q = row[col] // p[col]
            row[:] = [x - q * y for x, y in zip(row, p)]
    return tuple(tuple(row) for _, row in basis)


def _cycle_periods(surface, weights):
    """Loop periods on a depth-first spanning tree that shares no code
    with the engine: vertices are the classes of darts with a common
    tail (the tail of d is that of the side after gluing[d]), and each
    co-tree edge closes one loop."""
    g = surface.gluing
    after = [d - d % 3 + (d + 1) % 3 for d in range(len(g))]
    vertex = [None] * len(g)
    for d in range(len(g)):
        v, e = d, d
        while vertex[e] is None:
            vertex[e] = v
            e = after[g[e]]
    at = {}
    for d in range(len(g)):
        at.setdefault(vertex[d], []).append(d)
    root = vertex[len(g) - 1]
    pot = {root: (0, 0)}
    tree = set()
    stack = [root]
    while stack:
        v = stack.pop()
        for d in reversed(at[v]):
            w = vertex[after[d]]  # the head of d
            if w not in pot:
                pot[w] = tuple(x + y for x, y in zip(pot[v], ROOT[weights[d]]))
                tree.update((d, g[d]))
                stack.append(w)
    return [tuple(t + r - h for t, r, h in zip(pot[vertex[d]], ROOT[weights[d]],
                                               pot[vertex[after[d]]]))
            for d in range(len(g)) if d < g[d] and d not in tree]


def test_acceptance_3_period_lattice(census8):
    # the holonomies of build_period_map generate the period lattice: the
    # same lattice as the loops of an independent spanning tree, and (up to
    # the rotation of the structure) as the holonomies of a relabeled copy
    rng = random.Random(3)
    generators = 0
    indices = {}
    ok = True
    for classes in census8.values():
        for s in classes:
            st = detect_structures(s)
            if st is None:
                continue
            for d, p in enumerate(s.gluing):
                # zeta^k for k in 0..5, and the two ends of an edge opposite
                k, j = st.weights[d], st.weights[p]
                ok = ok and k in range(6) and \
                    (ROOT[k][0] + ROOT[j][0], ROOT[k][1] + ROOT[j][1]) == (0, 0)
            pm = build_period_map(s, st)
            form = _hnf([(a, b) for _, a, b in pm.holonomies])
            ok = ok and form == _hnf(_cycle_periods(s, st.weights))
            generators += len(pm.holonomies)
            # relabel; the copy's structure is the original's turned by zeta^r
            perm = list(range(s.face_count))
            rng.shuffle(perm)
            rots = [rng.randrange(3) for _ in perm]
            copy = relabel(s, perm, rots)
            st2 = detect_structures(copy)
            r = st2.weights[3 * perm[0] + rots[0]]  # at the image of dart 0
            back = ROOT[-r % 6]
            ok = ok and form == _hnf([_times((a, b), back)
                                      for _, a, b in build_period_map(copy, st2).holonomies])
            index = form[0][0] * form[1][1] if len(form) == 2 else 0
            indices[index] = indices.get(index, 0) + 1
    summary = ", ".join(f"{i or 'infinite'}: {n}" for i, n in sorted(indices.items()))
    report(3, ok, f"edge periods are sixth roots; {generators} loop holonomies span "
                  f"the lattice of an independent spanning tree and of a relabeled "
                  f"copy; surfaces per index in Z[w]: {summary}")


def _layers(reports, center):
    """The vertices of a disk by breadth-first distance from its center,
    farthest first."""
    cv = {c: r.vertex for r in reports for c in r.corners}
    dist = {center: 0}
    queue = [center]
    for v in queue:
        for c in reports[v].corners:
            w = cv[c - c % 3 + (c + 1) % 3]  # the head of dart c
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    layers = [[] for _ in range(max(dist.values()) + 1)]
    for v, k in dist.items():
        layers[-1 - k].append(v)
    return layers


def test_acceptance_4_th_suite():
    # exhaustive for small d, then a deterministic geometric sample up to 10^4
    sample = list(range(8, 320)) + [400, 500, 640, 1000, 1600, 2500, 5000, 10**4]
    ok = True
    for d in sample:
        th = build_TH(d)
        stats = euler_and_genus(th.surface)
        reports = vertex_orbits(th.surface)
        deg = {r.vertex: (r.degree, r.boundary) for r in reports}
        ok = ok and len(th.boundary_darts) == d
        ok = ok and stats.chi == 1 and stats.vertices <= 3 * d
        ok = ok and all(dg <= (4 if b else 7) for dg, b in deg.values())
        sizes = th_layer_sizes(d)
        layers = _layers(reports, th.center)
        ok = ok and [len(layer) for layer in layers] == sizes + [1]
        for i in range(1, len(sizes) - 1):  # outer ring of each annulus past the first
            ok = ok and any(deg[v][0] == 7 for v in layers[i])
    report(4, ok, f"layered disk invariants for {len(sample)} values of d up to 10^4")


def test_acceptance_5_degree_bound(corpus200):
    ok = True
    mu_values = []
    for s in corpus200:
        result = bounded_degree_map(s)
        b = result.surface
        ok = ok and max(r.degree for r in vertex_orbits(b)) <= 7
        ok = ok and euler_and_genus(b).genus == euler_and_genus(s).genus
        cert = check_tri_lb(b)
        ok = ok and cert.ok and separation_check(b, cert).ok
        # the inverse sees only the gluing of B(S), read back from TSF
        recovered = recover_original(load_surface(save_surface(b)))
        ok = ok and canonical_form(recovered) == canonical_form(s)
        if result.mu is not None:
            mu_values.append(result.mu)
    mu_max = max(mu_values)
    ok = ok and mu_max <= 8.0  # frozen from the measured corpus maximum 7.43
    report(5, ok, f"bounded-degree map and its inverse on {len(corpus200)} surfaces, "
                  f"measured mu max {mu_max:.2f}")


def test_acceptance_6_parallelograms(tran_lb_corpus):
    ok = True
    faces_total = 0
    for surface, st in tran_lb_corpus:
        g = euler_and_genus(surface).genus
        high = {r.vertex for r in vertex_orbits(surface) if r.degree > 6}
        B, geoms = decompose(surface, st)
        ok = ok and len(B.faces) <= 12 * (g - 1)
        ok = ok and sum(geo.triangle_count for geo in geoms) == surface.face_count
        for region, geo in zip(B.faces, geoms):
            turns = [c[1] for c in geo.corner_vertices]
            ok = ok and _develop(st, region.boundary_darts)[-1] == (0, 0)
            ok = ok and len(turns) == 4
            ok = ok and sorted(turns) == [1, 1, 2, 2] and turns[0] != turns[1]
            ok = ok and geo.length >= 3 and geo.width >= 3
            ok = ok and any(c[0] in high for c in geo.corner_vertices)
            faces_total += 1
    report(6, ok, f"{faces_total} parallelogram faces verified on "
                  f"{len(tran_lb_corpus)} locally bounded surfaces")


def test_acceptance_7_covers(corpus200):
    ok = True
    for s in corpus200:
        cover = canonical_cover(s)
        rep = verify_cover(s, cover)
        ok = ok and rep.component_count <= 6
        ok = ok and sum(rep.component_degrees) == 6
        if detect_structures(s) is not None:
            base = canonical_form(s)
            ok = ok and len(cover.components) == 6
            ok = ok and all(canonical_form(c.surface) == base
                            for c in cover.components)
    report(7, ok, f"canonical covers verified on {len(corpus200)} surfaces")


def test_acceptance_8_census_oracle():
    ok = True
    for T in (2, 4):
        fast = sorted(canonical_form(s) for s in enumerate_surfaces(T))
        brute = sorted(canonical_form(s) for s in brute_force_classes(T))
        ok = ok and fast == brute
    seq = [s.gluing for s in enumerate_surfaces(6, workers=1)]
    par = [s.gluing for s in enumerate_surfaces(6, workers=8)]
    ok = ok and seq == par
    report(8, ok, "T=2,4 match the brute-force oracle; 1 and 8 workers agree")


def _develop(st, walk):
    """The partial period sums (a, b), for a + b*w, along an edge walk."""
    points = []
    a = b = 0
    for d in walk:
        da, db = ROOT[st.weights[d]]
        a, b = a + da, b + db
        points.append((a, b))
    return points


def _shoelace(points):
    """Twice the signed area of a closed polygon of points a + b*w, in units
    of sqrt(3)/2: the sum of a_i*b_(i+1) - a_(i+1)*b_i, as Im(w) = sqrt(3)/2."""
    return sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(points, points[1:] + points[:1]))


def test_acceptance_9_area_identity(tran_lb_corpus):
    # each unit triangle has area sqrt(3)/4, so the developed parallelograms'
    # shoelace sums (in units of sqrt(3)/4) must add up to the face count;
    # the decomposition must tile exactly: each ell x w face holds 2*ell*w units
    ok = True
    for surface, st in tran_lb_corpus:
        B, geoms = decompose(surface, st)
        ok = ok and sum(_shoelace(_develop(st, r.boundary_darts))
                        for r in B.faces) == surface.face_count
        ok = ok and sum(2 * g.length * g.width for g in geoms) == surface.face_count
    report(9, ok, "developed parallelogram areas sum to sqrt(3)/4 per "
                  "triangle and the tiles' 2*ell*w units sum to the flat area")
