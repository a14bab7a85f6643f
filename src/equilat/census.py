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
class list.  Every table ends with a check of the mass identity: the
classes of each T weigh `connected_mass(T)` by 1/|Aut|, a series
coefficient that shares no code with the search, or SurfaceError is
raised.
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

from equilat.surface import (
    GluedSurface,
    SurfaceError,
    _build_index,
    _next_side,
    euler_and_genus,
)
from equilat.translation import detect_structures
from equilat.degree_bound import check_tri_lb

__all__ = [
    "CensusRow",
    "enumerate_surfaces",
    "count_table",
    "write_table",
    "brute_force_classes",
    "connected_mass",
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


def enumerate_surfaces(T: int, filter: Optional[Callable] = None,
                       workers: int = 1) -> list:
    """All closed connected gluings of T triangles up to isomorphism.

    Returns one canonically labeled representative per class, in sorted
    code order, optionally filtered by a predicate on the surface.
    """
    if T not in _census_range(T):
        raise SurfaceError("no closed surface has an odd number of faces")
    found = [GluedSurface._trusted(T, g)
             for gluings in _map_search(_run_task, (T,), workers) for g in gluings]
    found.sort(key=lambda s: s.gluing)
    if filter is not None:
        found = [s for s in found if filter(s)]
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


def _has_loop_or_multiedge(surface: GluedSurface) -> bool:
    """True when an edge joins a vertex to itself, or two edges join one pair.

    Dart d runs from tail[d] to head[d], the tail of the next side of its
    face.  The 3T darts of a closed surface cover each edge twice, once per
    direction, so its 3T/2 edges join distinct pairs exactly when 3T/2
    distinct pairs occur.
    """
    tail = surface.index.corner_vertex
    head = _next_side(tail)
    if any(map(eq, tail, head)):
        return True
    pairs = set(zip(map(min, tail, head), map(max, tail, head)))
    return 2 * len(pairs) != len(tail)


def _count(task: tuple) -> tuple:
    """Classify each class below one search node the moment it is found.

    task is (T, node).  Returns (T, tallies, weight): tallies maps a genus
    to [count, tran, lb, Counter of max degrees, loops], and weight is the
    sum of 3T/|Aut|.  An automorphism other than the identity fixes no
    dart, so |Aut| divides the 3T darts and the weight is an integer.
    """
    T, node = task
    darts = 3 * T
    # a census leaf is connected by construction: each dart glues within
    # the opened faces or opens the next face, so every face is reached
    # from face 0, and the index needs no face fill
    one_component = (tuple(range(T)),)
    tallies = {}
    weight = 0

    def collect(gluing, aut):
        nonlocal weight
        if darts % aut:
            raise SurfaceError(f"T={T}: |Aut|={aut} does not divide the "
                               f"{darts} darts of {gluing}")
        weight += darts // aut
        surface = GluedSurface._trusted(T, tuple(gluing))
        surface.__dict__["index"] = _build_index(surface.gluing, one_component)
        g = euler_and_genus(surface).genus
        b = tallies.get(g)
        if b is None:
            b = tallies[g] = [0, 0, 0, Counter(), 0]
        b[0] += 1
        b[1] += detect_structures(surface) is not None
        b[2] += check_tri_lb(surface).ok
        b[3][max(surface.index.degrees)] += 1
        b[4] += _has_loop_or_multiedge(surface)

    _search(T, node, collect)
    return T, tallies, weight


def count_table(T_max: int, workers: int = 1) -> list:
    """Census rows for all even T up to T_max, split by genus.

    Each class is classified where the search finds it, serially or in
    the workers; one pool serves every T, and each worker task returns
    only its tallies and its weight, which the parent adds up in any
    order.  No class list is held.  Each T then has to satisfy the mass
    identity: the classes weigh `connected_mass(T)` by 1/|Aut|, in exact
    arithmetic, or SurfaceError is raised.
    """
    Ts = _census_range(T_max)
    tallies = {T: {} for T in Ts}
    weights = dict.fromkeys(Ts, 0)
    for T, part, weight in _map_search(_count, Ts, workers):
        weights[T] += weight
        for g, b in part.items():
            a = tallies[T].setdefault(g, [0, 0, 0, Counter(), 0])
            for i, value in enumerate(b):
                a[i] += value
    rows = []
    for T in Ts:
        mass = Fraction(weights[T], 3 * T)
        if mass != connected_mass(T):
            raise SurfaceError(f"T={T}: the census classes weigh {mass} by 1/|Aut|, "
                               f"but the mass identity gives {connected_mass(T)}")
        for g in sorted(tallies[T]):
            count, tran, lb, hist, loops = tallies[T][g]
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
