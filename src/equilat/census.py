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
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import eq
from typing import Callable, Optional

from equilat.surface import (
    GluedSurface,
    SurfaceError,
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
    "DEFAULT_MAX_T",
]

DEFAULT_MAX_T = 10

# darts decided before the search is split into worker tasks.  At T=10
# depth 3 gives 11 tasks, the largest about 40% of the search; depth 6
# gives 61, the largest about 20%, and the frontier still takes under 1 ms
_FRONTIER_DEPTH = 6


def _census_range(T_max: int) -> range:
    """Even T = 2, 4, ..., T_max; an oversized T_max fails before any search."""
    value = os.environ.get("EQUILAT_MAX_T")
    try:
        limit = int(value) if value else DEFAULT_MAX_T
    except ValueError:
        raise SurfaceError(f"EQUILAT_MAX_T={value!r} is not an integer") from None
    if not 2 <= T_max <= limit:
        raise SurfaceError(f"T={T_max} outside the configured census range 2..{limit} "
                           "(set EQUILAT_MAX_T to raise the cap)")
    return range(2, T_max + 1, 2)


def _face_from(p: int) -> tuple:
    """Dart p and the other two darts of its face, in rotation order."""
    f3 = p - p % 3
    return p, f3 + (p + 1) % 3, f3 + (p + 2) % 3


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


def _expand(T: int, gluing, opened: int, n: int, live: tuple):
    """Children of one search node, [] for a complete gluing, or None when
    the node is dead or pruned.

    The root code is the partial gluing itself, decided on darts 0..n-1.
    Each live start resumes its code at entry m and reads on until it
    reaches entry n or a dart whose partner is undecided.  The node is
    pruned when some start reads a strictly smaller entry; a start that
    reads a strictly larger one is dropped for the subtree.  The children
    share the states of the starts that still tie.  Dart n, the first
    undecided one, glues to side 0 of the next face or to a later undecided
    dart of an opened face.
    """
    if n == 3 * opened and opened < T:
        # every dart of the opened faces is matched internally, so the
        # unopened faces can never connect; dead branch
        return None
    tied = []
    for order, m, faces in live:
        while m < n:
            p = gluing[order[m]]
            if p == -1:
                break
            # both codes tie before entry m, so both have labelled
            # len(order) darts and the root entry is at most len(order)
            entry = gluing[m]
            if faces >> p // 3 & 1:
                # p is labelled, and its label is the start's entry
                if entry < len(order) and order[entry] == p:
                    m += 1
                    continue
                if entry == len(order) or order.index(p) < entry:
                    return None
                m = -1  # strictly larger: the start is dropped
                break
            if entry < len(order):
                m = -1
                break
            # p opens the next face, at its side 0, as the root code does
            order += _face_from(p)
            faces |= 1 << p // 3
            m += 1
        if m >= 0:
            tied.append((order, m, faces))
    live = tuple(tied)
    children = []
    # p = 3 * opened, included while a face is left, opens the next face
    for p in range(n + 1, 3 * opened + (opened < T)):
        if gluing[p] == -1:
            g2 = list(gluing)
            g2[n] = p
            g2[p] = n
            children.append((g2, max(opened, p // 3 + 1), _next_unset(g2, n + 1), live))
    return children


def _search(T: int, node: tuple, collect: Callable) -> None:
    """Depth-first completion of a search node; `collect` gets each class.

    A node is pruned as soon as some start dart's BFS code is strictly
    smaller than the root code over the decided prefix, since every
    completion then has a smaller code.  A complete gluing that `_expand`
    does not prune is canonical with no further test: there every start
    still live has been compared over all 3T entries and ties or is
    dropped, and every start dropped earlier read a strictly larger entry
    on a decided prefix, which no completion changes.
    """
    stack = [node]
    while stack:
        node = stack.pop()
        children = _expand(T, *node)
        if children:
            stack.extend(children)
        elif children is not None:
            collect(GluedSurface._trusted(T, tuple(node[0])))


def _next_unset(gluing, start: int) -> int:
    n = start
    while n < len(gluing) and gluing[n] != -1:
        n += 1
    return n


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


def _run_task(args) -> list:
    T, node = args
    out = []
    _search(T, node, out.append)
    return [s.gluing for s in out]


def enumerate_surfaces(T: int, filter: Optional[Callable] = None,
                       workers: int = 1) -> list:
    """All closed connected gluings of T triangles up to isomorphism.

    Returns one canonically labeled representative per class, in sorted
    code order, optionally filtered by a predicate on the surface.
    """
    if T not in _census_range(T):
        raise SurfaceError("no closed surface has an odd number of faces")
    found = []
    if workers <= 1:
        _search(T, _root(T), found.append)
    else:
        tasks = [(T, node) for node in _frontier(T, _FRONTIER_DEPTH)]
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            for gluings in pool.map(_run_task, tasks, chunksize=1):
                found.extend(GluedSurface._trusted(T, g) for g in gluings)
    found.sort(key=lambda s: s.gluing)
    if filter is not None:
        found = [s for s in found if filter(s)]
    return found


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
    head = list(tail)
    head[0::3] = tail[1::3]
    head[1::3] = tail[2::3]
    head[2::3] = tail[0::3]
    if any(map(eq, tail, head)):
        return True
    pairs = set(zip(map(min, tail, head), map(max, tail, head)))
    return 2 * len(pairs) != len(tail)


def count_table(T_max: int, workers: int = 1) -> list:
    """Census rows for all even T up to T_max, split by genus."""
    rows = []
    for T in _census_range(T_max):
        buckets = {}
        classes = enumerate_surfaces(T, workers=workers)
        while classes:
            # counted in any order; popping frees each class and its index
            surface = classes.pop()
            g = euler_and_genus(surface).genus
            b = buckets.setdefault(g, {"count": 0, "tran": 0, "lb": 0,
                                       "hist": {}, "loops": 0})
            b["count"] += 1
            if detect_structures(surface) is not None:
                b["tran"] += 1
            if check_tri_lb(surface).ok:
                b["lb"] += 1
            md = max(surface.index.degrees)
            b["hist"][md] = b["hist"].get(md, 0) + 1
            if _has_loop_or_multiedge(surface):
                b["loops"] += 1
        for g in sorted(buckets):
            b = buckets[g]
            rows.append(CensusRow(T, g, b["count"], b["tran"], b["lb"],
                                  tuple(sorted(b["hist"].items())), b["loops"]))
    return rows


def write_table(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "genus", "count", "tran_count", "lb_count"])
        for row in rows:
            writer.writerow([row.T, row.genus, row.count,
                             row.tran_count, row.lb_count])
