"""Exhaustive census of closed connected glued surfaces for small T.

Surfaces are generated directly in canonical-code space: darts are
processed in order, each undecided dart either glues to a later undecided
dart of an already-opened face or opens the next face at its side 0.  The
resulting gluing equals the breadth-first code of the surface read from
dart 0, so connectivity is automatic and a class is kept exactly when no
other start dart yields a lexicographically smaller code.

That test is applied to every prefix, not only to complete gluings
(orderly generation).  Each search node carries, for every start dart
whose code still ties the root code over the decided darts, the state its
comparison stopped in; a child resumes each start from there instead of
re-reading its code from the first entry.  A node is pruned as soon as
some start is strictly smaller, and a start that is strictly larger is
dropped for the subtree.  Each isomorphism class then appears exactly
once, at a complete gluing that no start beats, and needs no further test.
The starts still tied there read the same full code as dart 0, so they
are its images under the automorphisms other than the identity, and the
search reports |Aut| with each class.

`count_table` classifies each class the moment the search finds it,
serially or in the workers, and keeps only per-genus tallies, never the
class list.  A leaf is classified from one pass over its corner successor
permutation (`_leaf_scan`), which gives the vertex count, hence the
genus, the largest degree, whether every degree is 0 mod 6, and the
corner-to-vertex map for the loop test; a surface is built only for the
translation and coarsening checks that can pass.  Every table ends with
two checks that share no code with the search, or SurfaceError is
raised: the classes of each T weigh `connected_mass(T)` by 1/|Aut|, and
those of each genus weigh `rooted_gluings(T)` by 3T/|Aut|, the rooted
counts of the Goulden-Jackson recurrence.
"""

from __future__ import annotations

import csv
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from operator import eq
from typing import Callable, Optional

from equilat.surface import GluedSurface, SurfaceError, _head_corner, _next_side
from equilat.translation import detect_structures
from equilat.degree_bound import check_tri_lb

__all__ = [
    "CensusRow",
    "enumerate_surfaces",
    "count_table",
    "write_table",
    "brute_force_classes",
    "connected_mass",
    "rooted_gluings",
    "DEFAULT_MAX_T",
]

DEFAULT_MAX_T = 10

# darts decided before the search is split into worker tasks.  At T=10
# depth 3 gives 11 tasks, the largest about 40% of the search; depth 6
# gives 61, the largest about 20%, and the frontier still takes under 1 ms
_FRONTIER_DEPTH = 6

# concurrent.futures.ProcessPoolExecutor, bound by `_pool` on first use:
# importing it costs a run that starts no workers about 25 ms and 2.5 MB
ProcessPoolExecutor = None


def _census_range(T_max: int) -> range:
    """Even T = 2, 4, ..., T_max; an oversized T_max fails before any search."""
    value = os.environ.get("EQUILAT_MAX_T")
    try:
        # int() also reads "+12", " 12", "1_2" and non-ASCII digits, which
        # a TSF numeral may not hold either
        if value and not (value.isascii() and value.isdigit()):
            raise ValueError
        limit = int(value) if value else DEFAULT_MAX_T
    except ValueError:  # also more digits than int() converts
        raise SurfaceError(f"EQUILAT_MAX_T={value!r} is not an integer") from None
    if not 2 <= T_max <= limit:
        raise SurfaceError(f"T={T_max} outside the configured census range 2..{limit} "
                           "(set EQUILAT_MAX_T to raise the cap)")
    return range(2, T_max + 1, 2)


def _face_from(p: int) -> tuple:
    """Dart p and the other two darts of its face, in rotation order."""
    f3 = p - p % 3
    return p, f3 + (p + 1) % 3, f3 + (p + 2) % 3


def _face_table(T: int) -> tuple:
    """`_face_from(p)` for every dart p of T faces, read by `_resume`."""
    return tuple(map(_face_from, range(3 * T)))


def _root(T: int) -> tuple:
    """The search node with no dart decided: (gluing, opened faces, first
    undecided dart, live start states).

    A start state is (order, m, faces): the darts in the order the code
    from the start labels them, the number m of its entries that tie the
    root code, and a bitmask of the faces it has labelled.  States are
    immutable, so children share them.
    """
    return [-1] * (3 * T), 1, 0, tuple((_face_from(s), 0, 1 << s // 3)
                                       for s in range(1, 3 * T))


def _resume(face_table: tuple, gluing, opened: int, n: int, live) -> Optional[list]:
    """The states of the starts that still tie the root code, or None when
    the node is dead or pruned.

    The root code is the partial gluing itself, decided on darts 0..n-1.
    Each live start resumes its code at entry m and reads on until it
    reaches entry n or a dart whose partner is undecided.  The node is
    pruned when some start reads a strictly smaller entry; a start that
    reads a strictly larger one is dropped for the subtree.
    """
    if n == 3 * opened < len(gluing):
        # every dart of the opened faces is matched internally, so the
        # unopened faces can never connect; dead branch
        return None
    tied = []
    for order, m, faces in live:
        size = len(order)
        while m < n:
            p = gluing[order[m]]
            if p == -1:
                break
            # both codes tie before entry m, so both have labelled
            # size darts and the root entry is at most size
            entry = gluing[m]
            if faces >> p // 3 & 1:
                # p is labelled, and its label is the start's entry
                if entry < size and order[entry] == p:
                    m += 1
                    continue
                if entry == size or order.index(p) < entry:
                    return None
                m = -1  # strictly larger: the start is dropped
                break
            if entry < size:
                m = -1
                break
            # p opens the next face, at its side 0, as the root code does
            order += face_table[p]
            size += 3
            faces |= 1 << p // 3
            m += 1
        if m >= 0:
            tied.append((order, m, faces))
    return tied


def _children(T: int, gluing, opened: int, n: int, live) -> list:
    """The nodes that decide dart n, the first undecided one: it glues to
    side 0 of the next face or to a later undecided dart of an opened
    face.  They all share the start states `live`."""
    children = []
    top = 3 * opened  # side 0 of the next face, a choice while a face is left
    for p in range(n + 1, top + (opened < T)):
        if gluing[p] == -1:
            g2 = gluing.copy()
            g2[n] = p
            g2[p] = n
            children.append((g2, opened + (p == top), _next_unset(g2, n + 1), live))
    return children


def _expand(T: int, gluing, opened: int, n: int, live) -> Optional[list]:
    """Children of one search node, [] for a complete gluing, or None when
    the node is dead or pruned: `_resume`, then `_children` on the starts
    that still tie."""
    tied = _resume(_face_table(T), gluing, opened, n, live)
    return None if tied is None else _children(T, gluing, opened, n, tied)


def _search(T: int, node: tuple, collect: Callable) -> None:
    """Depth-first completion of a search node; `collect(gluing, aut)`
    gets each class and its automorphism count.

    A node is pruned as soon as some start dart's BFS code is strictly
    smaller than the root code over the decided prefix, since every
    completion then has a smaller code.  A complete gluing that `_resume`
    does not prune is canonical with no further test: there every start
    still live has been compared over all 3T entries and ties or is
    dropped, and every start dropped earlier read a strictly larger entry
    on a decided prefix, which no completion changes.  The starts that tie
    over all 3T entries are the images of dart 0 under the automorphisms
    other than the identity, so |Aut| is one more than their number.
    """
    face_table = _face_table(T)
    stack = [node]
    pop, extend = stack.pop, stack.extend
    while stack:
        gluing, opened, n, live = pop()
        tied = _resume(face_table, gluing, opened, n, live)
        if tied is None:
            continue
        if n == len(gluing):
            collect(gluing, 1 + len(tied))
        else:
            extend(_children(T, gluing, opened, n, tied))


def _next_unset(gluing, start: int) -> int:
    try:
        return gluing.index(-1, start)
    except ValueError:
        return len(gluing)


def _frontier(T: int, depth: int) -> list:
    """Search nodes after deciding the first `depth` darts, pruned as in
    `_search`; a complete gluing reached earlier is kept as it is."""
    nodes = [_root(T)]
    for _ in range(depth):
        grown = []
        for node in nodes:
            children = _expand(T, *node)
            if children is not None:
                grown.extend(children or [node])
        nodes = grown
    return nodes


def _pool(workers: int):
    """A process pool of `workers` processes, imported on first use."""
    global ProcessPoolExecutor
    if ProcessPoolExecutor is None:
        from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def _map_search(task: Callable, Ts, workers: int) -> list:
    """task((T, node)) over the whole search of each T, largest T first:
    one call per T from the root when workers <= 1, else one per frontier
    node in a pool of `workers` processes.  Returns the results in order."""
    if workers <= 1:
        return [task((T, _root(T))) for T in reversed(Ts)]
    # the largest T first, so its long tasks do not start last
    tasks = [(T, node) for T in reversed(Ts) for node in _frontier(T, _FRONTIER_DEPTH)]
    with _pool(min(workers, len(tasks))) as pool:
        return list(pool.map(task, tasks, chunksize=1))


def _run_task(task: tuple) -> list:
    """The gluing of each class below one search node; task is (T, node)."""
    T, node = task
    out = []
    _search(T, node, lambda gluing, aut: out.append(tuple(gluing)))
    return out


def enumerate_surfaces(T: int, workers: int = 1) -> list:
    """All closed connected gluings of T triangles up to isomorphism.

    Returns one canonically labeled representative per class, in sorted
    code order.
    """
    if T not in _census_range(T):
        raise SurfaceError("no closed surface has an odd number of faces")
    found = [GluedSurface._trusted(T, g)
             for gluings in _map_search(_run_task, (T,), workers) for g in gluings]
    found.sort(key=lambda s: s.gluing)
    return found


def connected_mass(T: int) -> Fraction:
    """Sum of 1/|Aut| over the classes of closed connected gluings of T
    triangles: [x^T] log(sum_n (3n-1)!! x^n / n!) / 3^T.

    n labelled triangles have (3n-1)!! gluings when 3n is even and none
    otherwise.  Relabelling the faces (n!) and rotating each (3^n) acts on
    them with the automorphism groups as stabilisers, so the series
    weighs each class of n faces by 3^n x^n / |Aut|, and its logarithm
    keeps the connected ones (Flajolet and Sedgewick, Analytic
    Combinatorics, ch. II).  The series shares no code with the search.
    """
    a = [Fraction(prod(range(3 * n - 1, 0, -2)) if n % 2 == 0 else 0, factorial(n))
         for n in range(T + 1)]
    # log of a series with constant term 1: n c_n = n a_n - sum_k k c_k a_(n-k)
    c = [Fraction(0)]
    for n in range(1, T + 1):
        c.append(a[n] - sum((k * c[k] * a[n - k] for k in range(1, n)), Fraction(0)) / n)
    return c[T] / 3 ** T


def rooted_gluings(T: int) -> dict:
    """Genus g -> R(T/2, g), the rooted closed connected gluings of T
    triangles of genus g, from the Goulden-Jackson recurrence.

    R(n, g) counts the gluings of T = 2n triangles with a marked dart,
    which is the census's sum of 3T/|Aut| over the classes of that genus
    (Goulden and Jackson, "The KP hierarchy, branched covers, and
    triangulations", Adv. Math. 219 (2008)):

        (n+1) R(n,g) = 4n(3n-2)(3n-4) R(n-2,g-1) + 4(3n-1) R(n-1,g)
                       + 4 sum_{i+j=n-2} sum_{h+k=g} (3i+2)(3j+2) R(i,h) R(j,k)

    with i, j >= 0, R(0,0) = 1, R(-1,0) = -1/2 and every other value out
    of range 0.  The recurrence shares no code with the search.  Only
    nonzero values are returned.
    """
    n_max = T // 2
    R = {(-1, 0): Fraction(-1, 2), (0, 0): Fraction(1)}
    for n in range(1, n_max + 1):
        # genus g needs V = n + 2 - 2g >= 1 vertices
        for g in range((n + 1) // 2 + 1):
            split = sum(4 * (3 * i + 2) * (3 * (n - 2 - i) + 2)
                        * R.get((i, h), 0) * R.get((n - 2 - i, g - h), 0)
                        for i in range(n - 1) for h in range(g + 1))
            R[n, g] = Fraction(4 * n * (3 * n - 2) * (3 * n - 4) * R.get((n - 2, g - 1), 0)
                               + 4 * (3 * n - 1) * R.get((n - 1, g), 0) + split, n + 1)
    return {g: R[n_max, g] for g in range((n_max + 1) // 2 + 1) if R[n_max, g]}


def brute_force_classes(T: int) -> list:
    """Independent oracle: all fixed-point-free involutions on 3T darts,
    connected ones only, deduplicated by exhaustive relabeling search."""
    from equilat.surface import canonical_form

    n = 3 * T
    classes = {}

    def pairings(remaining):
        if not remaining:
            yield []
            return
        a = remaining[0]
        for i in range(1, len(remaining)):
            b = remaining[i]
            rest = remaining[1:i] + remaining[i + 1:]
            for tail in pairings(rest):
                yield [(a, b)] + tail

    for pairing in pairings(list(range(n))):
        gluing = [0] * n
        for a, b in pairing:
            gluing[a] = b
            gluing[b] = a
        surface = GluedSurface(T, tuple(gluing))
        if not surface.is_connected():
            continue
        key = canonical_form(surface)
        classes.setdefault(key, surface)
    return [classes[k] for k in sorted(classes)]


@dataclass(frozen=True)
class CensusRow:
    T: int
    genus: int
    count: int
    tran_count: int  # classes admitting a translation structure
    lb_count: int  # classes passing the locally bounded triangulation check
    max_degree_hist: tuple  # sorted (max vertex degree, class count) pairs
    loop_count: int  # diagnostic: classes with a self-glued face or doubled edge


def _has_loop_or_multiedge(tail) -> bool:
    """True when an edge joins a vertex to itself, or two edges join one pair.

    tail is the corner-to-vertex map of a closed surface.  Dart d runs
    from tail[d] to head[d], the tail of the next side of its face.  The
    3T darts cover each edge twice, once per direction, so its 3T/2 edges
    join distinct pairs exactly when 3T/2 distinct pairs occur.
    """
    head = _next_side(tail)
    if any(map(eq, tail, head)):
        return True
    pairs = set(zip(map(min, tail, head), map(max, tail, head)))
    return 2 * len(pairs) != len(tail)


def _leaf_scan(gluing, head) -> tuple:
    """(V, largest degree, every degree = 0 mod 6, corner->vertex list) of
    a closed gluing, from one pass over its corner successor permutation.

    head[d] is the head corner of dart d, so the next corner around the
    vertex of corner c is head[gluing[c]].  Vertices are numbered by their
    smallest corner, as `surface._build_index` numbers them, so the list
    equals the index's `corner_vertex`.
    """
    succ = list(map(head.__getitem__, gluing))
    corner_vertex = [-1] * len(gluing)
    v = top = 0
    flat = True
    # the iterator reads corner_vertex live, so it sees the vertices
    # numbered so far
    for c0, seen in enumerate(corner_vertex):
        if seen >= 0:
            continue
        corner_vertex[c0] = v
        c = succ[c0]
        degree = 1
        while c != c0:
            corner_vertex[c] = v
            c = succ[c]
            degree += 1
        if degree > top:
            top = degree
        if degree % 6:
            flat = False
        v += 1
    return v, top, flat, corner_vertex


def _count(task: tuple) -> tuple:
    """Classify each class below one search node the moment it is found.

    task is (T, node).  Returns (T, tallies): tallies maps a genus to
    [count, tran, lb, Counter of max degrees, loops, weight], where weight
    is the sum of 3T/|Aut|.  An automorphism other than the identity fixes
    no dart, so |Aut| divides the 3T darts and the weight is an integer.

    A leaf is classified from `_leaf_scan` alone; a `GluedSurface` is
    built only for the checks that can pass.  A leaf is closed and
    connected, so V - T/2 = 2 - 2g.  A translation structure makes every
    cone angle a multiple of 2 pi, so `detect_structures` runs only when
    every degree is 0 mod 6.  `check_tri_lb` fails at its own first test
    unless the largest degree is at most 7 and 9 | T, so it runs only
    then.
    """
    T, node = task
    darts = 3 * T
    head = list(map(_head_corner, range(darts)))
    tallies = {}

    def collect(gluing, aut):
        if darts % aut:
            raise SurfaceError(f"T={T}: |Aut|={aut} does not divide the "
                               f"{darts} darts of {gluing}")
        V, top, flat, corner_vertex = _leaf_scan(gluing, head)
        g = (2 - V + T // 2) // 2
        b = tallies.get(g)
        if b is None:
            b = tallies[g] = [0, 0, 0, Counter(), 0, 0]
        b[0] += 1
        if flat:
            b[1] += detect_structures(GluedSurface._trusted(T, tuple(gluing))) is not None
        if top <= 7 and T % 9 == 0:
            b[2] += check_tri_lb(GluedSurface._trusted(T, tuple(gluing))).ok
        b[3][top] += 1
        b[4] += _has_loop_or_multiedge(corner_vertex)
        b[5] += darts // aut

    _search(T, node, collect)
    return T, tallies


def count_table(T_max: int, workers: int = 1) -> list:
    """Census rows for all even T up to T_max, split by genus.

    Each class is classified where the search finds it, serially or in
    the workers; one pool serves every T, and each worker task returns
    only its tallies, which the parent adds up in any order.  No class
    list is held.  Each T then has to pass two checks in exact
    arithmetic, or SurfaceError is raised: the classes weigh
    `connected_mass(T)` by 1/|Aut|, and those of each genus g weigh
    `rooted_gluings(T)[g]` by 3T/|Aut|.
    """
    Ts = _census_range(T_max)
    tallies = {T: {} for T in Ts}
    for T, part in _map_search(_count, Ts, workers):
        for g, b in part.items():
            a = tallies[T].setdefault(g, [0, 0, 0, Counter(), 0, 0])
            for i, value in enumerate(b):
                a[i] += value
    rows = []
    for T in Ts:
        weights = {g: b[5] for g, b in sorted(tallies[T].items())}
        mass = Fraction(sum(weights.values()), 3 * T)
        if mass != connected_mass(T):
            raise SurfaceError(f"T={T}: the census classes weigh {mass} by 1/|Aut|, "
                               f"but the mass identity gives {connected_mass(T)}")
        expected = rooted_gluings(T)
        if weights != expected:
            got, want = (", ".join(f"g={g}: {w}" for g, w in by_genus.items())
                         for by_genus in (weights, expected))
            raise SurfaceError(f"T={T}: by genus the census classes weigh {got} by "
                               f"3T/|Aut|, but the recurrence gives {want}")
        for g in sorted(tallies[T]):
            count, tran, lb, hist, loops, _ = tallies[T][g]
            rows.append(CensusRow(T, g, count, tran, lb,
                                  tuple(sorted(hist.items())), loops))
    return rows


def write_table(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "genus", "count", "tran_count", "lb_count"])
        for row in rows:
            writer.writerow([row.T, row.genus, row.count,
                             row.tran_count, row.lb_count])
