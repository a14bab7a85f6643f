"""Surfaces glued from unit equilateral triangles.

A surface with T faces has darts 0..3T-1; dart 3f+s is side s of face f,
running counterclockwise from corner s to corner s+1 (mod 3).  A gluing is
a fixed-point-free partial involution on darts: glued darts a and b
identify a traversed forward with b traversed backward, so all gluings
preserve orientation.  Unmatched darts are boundary edges.
"""

from __future__ import annotations

import random
import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import add, eq, floordiv, itemgetter, lt
from typing import NamedTuple, Optional, Sequence

__all__ = [
    "GluedSurface",
    "SurfaceIndex",
    "VertexReport",
    "SurfaceStats",
    "load_surface",
    "save_surface",
    "euler_and_genus",
    "vertex_orbits",
    "connected_components",
    "subdivide",
    "conformal_double",
    "canonical_form",
    "random_surface",
    "relabel",
    "MAX_FACES",
]

BOUNDARY = -1

# Largest face count that subdivide and random_surface will build.
MAX_FACES = 10**6


class SurfaceError(ValueError):
    """Raised for malformed gluing data or violated preconditions."""


@dataclass(frozen=True)
class GluedSurface:
    """An oriented surface built from unit equilateral triangles.

    gluing[d] is the partner dart of d, or -1 when d is a boundary edge.
    Instances are immutable; all operations on them are pure functions.
    The combinatorial index is built on first use and cached on the
    instance; it is left out of ==, hash, repr and pickles.

    The constructor stores the gluing as a tuple and checks, in bulk, that
    it is a fixed-point-free partial involution of ints; only a gluing that
    fails is walked dart by dart, to name its first bad dart.  `_trusted`
    skips that check.  It is used only where the output is valid by
    construction from an already valid surface: `subdivide`,
    `conformal_double`, `connected_components`, the cover's total space,
    the decomposition's cut surface, the census leaves and the coarse
    surface of a k-coarsening.  `load_surface` uses it too, because its
    line checks, or their bulk form, already prove the same involution.
    Everything built from caller data (`relabel`, `surface_from_code`,
    `replace_stars`) goes through the constructor.
    """

    face_count: int
    gluing: tuple

    def __post_init__(self) -> None:
        T = self.face_count
        if T < 1:
            raise SurfaceError("face count must be positive")
        g = tuple(self.gluing)
        object.__setattr__(self, "gluing", g)
        n = len(g)
        if n != 3 * T:
            raise SurfaceError(f"gluing must list all {3 * T} darts")
        # In bulk: back[d] is g[g[d]], read in g + (-1,) so that an unmatched
        # dart reads -1; every glued dart must read itself back.  A partner
        # from n on cannot, and a partner p in -n-1..-2 reads back dart
        # q = n+1+p, which then reads p back, not q.  A non-int cannot index.
        darts = tuple(range(n))
        try:
            back = itemgetter(*g)(g + (BOUNDARY,))
        except (IndexError, TypeError):
            pass
        else:
            if ((back == darts or sum(map(eq, back, darts)) == n - g.count(BOUNDARY))
                    and not any(map(eq, g, darts))):
                return
        # the first failing dart, in dart order
        for d, p in enumerate(g):
            if not isinstance(p, int):
                raise SurfaceError(f"dart {d}: partner {p!r} is not an int")
            if p == BOUNDARY:
                continue
            if not 0 <= p < n:
                raise SurfaceError(f"dart {d}: partner {p} out of range")
            if p == d:
                raise SurfaceError(f"dart {d} glued to itself")
            if g[p] != d:
                raise SurfaceError(f"gluing is not an involution at dart {d}")

    @classmethod
    def _trusted(cls, face_count: int, gluing: tuple) -> "GluedSurface":
        """Build without the involution check; the gluing must be a valid tuple."""
        self = object.__new__(cls)
        self.__dict__.update(face_count=face_count, gluing=gluing)
        return self

    @property
    def dart_count(self) -> int:
        return 3 * self.face_count

    def partner(self, dart: int) -> int:
        return self.gluing[dart]

    def is_closed(self) -> bool:
        return BOUNDARY not in self.gluing

    def boundary_darts(self) -> list:
        if self.is_closed():
            return []
        return [d for d, p in enumerate(self.gluing) if p == BOUNDARY]

    def is_connected(self) -> bool:
        return len(self.index.components) == 1

    @cached_property
    def index(self) -> "SurfaceIndex":
        # The gluing never changes, so the cache never needs invalidating.
        return _build_index(self.gluing)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("index", None)
        return state


class VertexReport(NamedTuple):
    """One vertex orbit: its corners in rotation order and its degree.

    The degree counts edge ends at the vertex; for a boundary vertex this
    is the number of faces in its fan plus one.
    """

    vertex: int
    degree: int
    boundary: bool
    corners: tuple


@dataclass(frozen=True)
class SurfaceStats:
    vertices: int
    edges: int
    faces: int
    chi: int
    genus: Optional[int]
    boundary_components: int


def _head_corner(dart: int) -> int:
    f, s = divmod(dart, 3)
    return 3 * f + (s + 1) % 3


def _next_side(values: Sequence) -> list:
    """values[d'] for every dart d, where d' is the next side of d's face.

    Three slice passes.  Of the corner-to-vertex map this gives the head
    vertex of each dart, since a dart ends where the next side starts.
    """
    out = list(values)
    out[0::3] = values[1::3]
    out[1::3] = values[2::3]
    out[2::3] = values[0::3]
    return out


class _IndexScan(NamedTuple):
    corners: tuple
    degrees: tuple
    boundary: tuple
    corner_vertex: tuple
    components: tuple


class SurfaceIndex(_IndexScan):
    """Combinatorial facts of one gluing, computed together on first use.

    One scan over the corners fills flat tuples, vertices numbered by their
    smallest corner: corners[v] lists the corners of vertex v in rotation
    order (a boundary vertex's run from the corner whose incoming dart is
    unmatched to the corner whose outgoing dart is unmatched), degrees[v]
    and boundary[v] are its degree and whether it lies on the boundary, and
    corner_vertex[c] is the vertex at corner c.  Dart d leaves the vertex
    at corner d, so corners[v] also lists the darts leaving v.  components
    lists the faces of each connected component in ascending order,
    components ordered by their smallest face.

    vertices (one VertexReport per vertex) is built on first read.  ==,
    hash and pickles see only the scanned fields.
    """

    @cached_property
    def vertices(self) -> tuple:
        # tuple.__new__ is VertexReport._make without its length check
        return tuple(map(tuple.__new__, repeat(VertexReport), zip(
            range(len(self.degrees)), self.degrees, self.boundary, self.corners)))

    def __getstate__(self) -> None:
        return None  # the cached view is rebuilt on demand


def _build_index(gluing: tuple) -> SurfaceIndex:
    """The index of a gluing."""
    n = len(gluing)
    # succ[c] is the next corner around the vertex of corner c: the head
    # corner of the partner of c's outgoing dart, or -1 past an unmatched
    # dart.  On a closed surface it is a permutation.
    head = list(range(1, n + 1))
    head[2::3] = range(0, n, 3)
    closed = BOUNDARY not in gluing
    if closed:
        succ = list(map(head.__getitem__, gluing))
    else:
        succ = [BOUNDARY if p == BOUNDARY else head[p] for p in gluing]
    corner_vertex = [-1] * n
    orbits = []
    boundary = []
    for c0 in range(n):
        if corner_vertex[c0] != -1:
            continue
        # The upward scan meets each orbit at its smallest corner, so vertex
        # ids follow smallest corners.  On a closed surface the orbit is
        # listed from c0; with boundary, rewind along incoming darts to the
        # start of the fan.
        start = c0
        while not closed:
            p = gluing[start + 2 if start % 3 == 0 else start - 1]  # incoming dart
            if p == BOUNDARY:
                break
            if p == c0:  # full circle: an interior vertex
                start = c0
                break
            start = p  # the previous corner is the tail of p
        v = len(orbits)
        corners = [start]
        corner_vertex[start] = v
        c = succ[start]
        while c != start and c != BOUNDARY:
            corners.append(c)
            corner_vertex[c] = v
            c = succ[c]
        orbits.append(tuple(corners))
        boundary.append(c == BOUNDARY)
    # a boundary vertex's fan has one more edge end than faces
    degrees = tuple(map(add, map(len, orbits), boundary))
    return SurfaceIndex(tuple(orbits), degrees, tuple(boundary),
                        tuple(corner_vertex), _face_components(gluing))


def _face_components(gluing) -> tuple:
    T = len(gluing) // 3
    # across[d] is the face across dart d; an unmatched dart leads back to
    # its own face, which is already seen when the fill reads it
    if BOUNDARY in gluing:
        across = [d // 3 if p == BOUNDARY else p // 3 for d, p in enumerate(gluing)]
    else:
        across = list(map(floordiv, gluing, repeat(3)))
    side0, side1, side2 = across[0::3], across[1::3], across[2::3]
    seen = [False] * T
    comps = []
    for f0 in range(T):
        if seen[f0]:
            continue
        seen[f0] = True
        faces = [f0]
        append = faces.append
        for f in faces:  # breadth first; faces grows while it is read
            g = side0[f]
            if not seen[g]:
                seen[g] = True
                append(g)
            g = side1[f]
            if not seen[g]:
                seen[g] = True
                append(g)
            g = side2[f]
            if not seen[g]:
                seen[g] = True
                append(g)
        if len(faces) == T:  # one component: no sort needed
            return (tuple(range(T)),)
        comps.append(tuple(sorted(faces)))
    return tuple(comps)


def vertex_orbits(surface: GluedSurface) -> list:
    """Vertex orbits of corners, each listed in rotation order.

    A corner orbit is a cycle (interior vertex) or a path whose first
    corner has an unmatched incoming dart (boundary vertex).  Returns a
    fresh list over the surface's cached index.
    """
    return list(surface.index.vertices)


def corner_vertex_map(surface: GluedSurface) -> list:
    """corner -> vertex id, consistent with vertex_orbits numbering."""
    return list(surface.index.corner_vertex)


def _boundary_cycles(surface: GluedSurface) -> list:
    """Boundary components as cycles of boundary darts, each from its smallest."""
    gluing = surface.gluing
    seen = set()
    cycles = []
    for d0 in surface.boundary_darts():
        if d0 in seen:
            continue
        cycle = []
        d = d0
        while True:
            cycle.append(d)
            seen.add(d)
            # walk the fan at the head of d: from the head corner of d, step
            # to the head corner of the partner until the outgoing dart is
            # unmatched; that dart continues the boundary
            c = d - 2 if d % 3 == 2 else d + 1
            while gluing[c] != BOUNDARY:
                p = gluing[c]
                c = p - 2 if p % 3 == 2 else p + 1
            d = c
            if d == d0:
                break
        cycles.append(cycle)
    return cycles


def euler_and_genus(surface: GluedSurface) -> SurfaceStats:
    """Vertex/edge counts, Euler characteristic and genus.

    Requires a connected surface.  For closed surfaces the genus comes
    from chi = 2 - 2g; with boundary it comes from chi = 2 - 2g - b.
    """
    if not surface.is_connected():
        raise SurfaceError("surface is disconnected; split it first")
    T = surface.face_count
    if surface.is_closed():  # every dart glued in pairs; no boundary cycle
        E, b = 3 * T // 2, 0
    else:
        unmatched = surface.gluing.count(BOUNDARY)
        E = (3 * T - unmatched) // 2 + unmatched
        b = len(_boundary_cycles(surface))
    V = len(surface.index.degrees)
    chi = V - E + T
    genus2 = 2 - chi - b
    if genus2 % 2 != 0 or genus2 < 0:
        raise SurfaceError(f"inconsistent Euler data: chi={chi}, boundary={b}")
    return SurfaceStats(V, E, T, chi, genus2 // 2, b)


def connected_components(surface: GluedSurface) -> list:
    """Split into connected surfaces, faces renumbered in ascending order."""
    components = surface.index.components
    if len(components) == 1:
        return [surface]  # the renumbering is the identity
    parts = []
    for faces in components:
        index = {f: i for i, f in enumerate(faces)}
        gluing = []
        for f in faces:
            for s in range(3):
                p = surface.gluing[3 * f + s]
                if p == BOUNDARY:
                    gluing.append(BOUNDARY)
                else:
                    gluing.append(3 * index[p // 3] + p % 3)
        parts.append(GluedSurface._trusted(len(faces), tuple(gluing)))
    return parts


# --- TSF format ------------------------------------------------------------

# The text `save_surface` writes: the header, the face count, then one
# `g a b` line per glued pair, each line ended by "\n".
_SAVED_TSF = re.compile(r"tsf v1\nT ([0-9]+)\n((?:g [0-9]+ [0-9]+\n)*)")


def load_surface(text) -> GluedSurface:
    """Parse the TSF text format.

    Line 1 is `tsf v1`, line 2 is `T <count>`, then `g <a> <b>` lines with
    a < b sorted ascending by a.  `#` starts a comment.  Text in the form
    `save_surface` writes is read in one pass; any other text, or text
    that fails a check there, is read line by line, so every error names
    its line.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            ln = text.count(b"\n", 0, exc.start) + 1
            bad = text[exc.start]
            raise SurfaceError(f"line {ln}: non-ASCII byte {bad:#04x}") from exc
    m = _SAVED_TSF.fullmatch(text)
    if m is not None:
        gluing = _saved_gluing(m[1], m[2].split())
        if gluing is not None:
            return GluedSurface._trusted(len(gluing) // 3, gluing)
    return _load_lines(text)


def _saved_gluing(count: str, tokens: list) -> Optional[tuple]:
    """The gluing of saved TSF text, from its face count numeral and the
    tokens of its `g a b` lines; None when a line check would fail.

    The line checks, made in bulk: the lines can reach T faces, the darts
    ascend by a, a < b, and b < 3T (numerals have no sign).  Then each
    glued dart is counted once, which catches a dart named twice, so the
    gluing is a fixed-point-free partial involution.
    """
    n = len(tokens) // 3
    try:
        T = int(count)
        if not 1 <= T <= max(1, 2 * n):
            return None
        a = list(map(int, tokens[1::3]))
        b = list(map(int, tokens[2::3]))
    except ValueError:  # more digits than int() converts
        return None
    if not (all(map(lt, a, a[1:])) and all(map(lt, a, b))
            and (not b or max(b) < 3 * T)):
        return None
    gluing = [BOUNDARY] * (3 * T)
    deque(map(gluing.__setitem__, a, b), maxlen=0)
    deque(map(gluing.__setitem__, b, a), maxlen=0)
    if gluing.count(BOUNDARY) != 3 * T - 2 * n:
        return None
    return tuple(gluing)


def _load_lines(text: str) -> GluedSurface:
    """`load_surface` line by line, for any text; errors name their line."""
    lines = []
    # only "\n" ends a line, as in the byte count of `load_surface`;
    # strip() drops a "\r".  What precedes a comment must be ASCII before
    # strip() drops non-ASCII spaces, as in bytes, on every line
    ascii_text = text.isascii()
    for ln, rawline in enumerate(text.split("\n"), start=1):
        body = rawline.split("#", 1)[0]
        if not ascii_text and not body.isascii():
            raise SurfaceError(f"line {ln}: non-ASCII character")
        stripped = body.strip()
        if stripped:
            lines.append((ln, stripped))
    if not lines or lines[0][1] != "tsf v1":
        raise SurfaceError("line 1: expected header 'tsf v1'")
    if len(lines) < 2 or not lines[1][1].startswith("T "):
        raise SurfaceError("line 2: expected 'T <count>'")
    # int() also reads "+1", "-0" and "1_0", but TSF numerals are digits
    # only; one scan of the whole text decides whether to check the lines
    if "+" in text or "-" in text or "_" in text:
        for ln, line in lines[1:]:
            if not all(token.isdigit() for token in line.split()[1:]):
                raise SurfaceError(f"line {ln}: counts and darts must be "
                                   "ASCII digits")
    try:
        T = int(lines[1][1][2:])
    except ValueError as exc:
        raise SurfaceError(f"line {lines[1][0]}: bad face count") from exc
    if T < 1:
        raise SurfaceError(f"line {lines[1][0]}: face count must be positive")
    # each gluing line touches at most two faces; only a lone triangle has
    # no glued side, so a larger T is refused before allocating 3T darts
    if T > max(1, 2 * (len(lines) - 2)):
        raise SurfaceError(f"line {lines[1][0]}: {T} faces cannot be joined "
                           f"by {len(lines) - 2} gluing lines")
    gluing = [BOUNDARY] * (3 * T)
    prev_a = -1
    for ln, line in lines[2:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "g":
            raise SurfaceError(f"line {ln}: expected 'g <dartA> <dartB>'")
        try:
            a, b = int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise SurfaceError(f"line {ln}: darts must be integers") from exc
        if not (0 <= a < 3 * T and 0 <= b < 3 * T):
            raise SurfaceError(f"line {ln}: dart out of range")
        if a == b:
            raise SurfaceError(f"line {ln}: dart {a} glued to itself")
        if a >= b:
            raise SurfaceError(f"line {ln}: darts must satisfy dartA < dartB")
        if a <= prev_a:
            raise SurfaceError(f"line {ln}: gluing lines must ascend by dartA")
        if gluing[a] != BOUNDARY or gluing[b] != BOUNDARY:
            raise SurfaceError(f"line {ln}: dart glued twice")
        gluing[a] = b
        gluing[b] = a
        prev_a = a
    # the line checks above prove a fixed-point-free partial involution
    return GluedSurface._trusted(T, tuple(gluing))


def save_surface(surface: GluedSurface) -> str:
    """Serialize to TSF; canonical for the given labeling.

    Refuses the gluings that `load_surface` would refuse: more than
    max(1, 2 x gluing lines) faces, which needs unglued triangles.
    """
    T = surface.face_count
    # BOUNDARY < 0, so a < b also skips unmatched darts
    out = ["tsf v1", f"T {T}"]
    out += [f"g {a} {b}" for a, b in enumerate(surface.gluing) if a < b]
    if T > max(1, 2 * (len(out) - 2)):
        raise SurfaceError(f"{T} faces cannot be joined by {len(out) - 2} "
                           "gluing lines; TSF cannot hold this gluing")
    return "\n".join(out) + "\n"


# --- subdivision ------------------------------------------------------------

def _face_subdivision(k: int) -> tuple:
    """Dart table of the k-subdivision of one face: (inner, sides).

    Upward cell (x,y) has corners (x,y),(x+1,y),(x,y+1); downward cell
    (x,y) has corners (x+1,y),(x+1,y+1),(x,y+1), both counterclockwise.
    Cells are numbered upward first, row by row, then downward.  inner[d]
    is the partner of dart d inside the face, or -1 on its border;
    sides[s][t] is the dart carrying sub-edge t of the face's side s.
    """
    up = {}
    for y in range(k):
        for x in range(k - y):
            up[x, y] = 3 * len(up)
    inner = [BOUNDARY] * (3 * k * k)
    d = 3 * len(up)
    for y in range(k - 1):
        for x in range(k - 1 - y):
            # downward cell (x,y): sides 2, 1, 0 meet upward cells
            # (x,y), (x,y+1) and (x+1,y)
            for a, b in ((up[x, y] + 1, d + 2), (up[x, y + 1], d + 1),
                         (up[x + 1, y] + 2, d)):
                inner[a] = b
                inner[b] = a
            d += 3
    sides = (tuple(up[t, 0] for t in range(k)),
             tuple(up[k - 1 - t, t] + 1 for t in range(k)),
             tuple(up[0, k - 1 - t] + 2 for t in range(k)))
    return tuple(inner), sides


def subdivide(surface: GluedSurface, k: int) -> GluedSurface:
    """Split every face into k^2 unit triangles.

    Original vertices persist with unchanged degree; new vertices are flat
    (interior degree 6) or lie on the boundary.  Refuses outputs of more
    than MAX_FACES faces.
    """
    if k < 2:
        raise SurfaceError("subdivision factor must be at least 2")
    T = surface.face_count
    if k * k * T > MAX_FACES:
        raise SurfaceError(f"{k}-subdivision of {T} faces exceeds {MAX_FACES} faces")
    inner, sides = _face_subdivision(k)
    n = len(inner)
    N = n * T
    # slice passes, as in cover._assemble_total: table dart a of every face
    # at once
    gluing = [BOUNDARY] * N
    for a, b in enumerate(inner):
        if b != BOUNDARY:
            gluing[a::n] = range(b, N, n)
    # sub-edge t of a glued side meets sub-edge k-1-t of its partner side,
    # dart at[p] for partner dart p; at[-1] leaves the sub-edges of an
    # unmatched side unmatched
    for t in range(k):
        at = [BOUNDARY] * (3 * T + 1)
        for s in range(3):
            at[s:3 * T:3] = range(sides[s][k - 1 - t], N, n)
        for s in range(3):
            gluing[sides[s][t]::n] = map(at.__getitem__, surface.gluing[s::3])
    return GluedSurface._trusted(T * k * k, tuple(gluing))


# --- conformal double -------------------------------------------------------

def mirror_dart(face_count: int, dart: int) -> int:
    """Dart of the mirror copy traversing the same edge backwards."""
    f, s = divmod(dart, 3)
    return 3 * (face_count + f) + (2 - s) % 3


def conformal_double(surface: GluedSurface) -> GluedSurface:
    """Glue the surface to its mirror image along the boundary.

    A connected surface of genus h with b boundary components doubles to a
    closed surface of genus 2h + b - 1.
    """
    if surface.is_closed():
        raise SurfaceError("surface is closed; nothing to double")
    T = surface.face_count
    gluing = [BOUNDARY] * (6 * T)
    for d, p in enumerate(surface.gluing):
        if p == BOUNDARY:
            m = mirror_dart(T, d)
            gluing[d] = m
            gluing[m] = d
        else:
            gluing[d] = p
            m, mp = mirror_dart(T, d), mirror_dart(T, p)
            gluing[m] = mp
    return GluedSurface._trusted(2 * T, tuple(gluing))


# --- canonical form ---------------------------------------------------------

def _bfs_code(surface: GluedSurface, start: int, best=None):
    """Partner sequence under BFS dart relabeling from `start`.

    Returns None early if the code provably exceeds `best`.
    """
    T = surface.face_count
    face_of = {start // 3: (0, start % 3)}  # old face -> (new face, base side)
    new_faces = [start // 3]
    code = []
    n = 0
    while n < 3 * len(new_faces):
        nf, i = divmod(n, 3)
        old_face = new_faces[nf]
        old = 3 * old_face + (face_of[old_face][1] + i) % 3
        p = surface.gluing[old]
        if p == BOUNDARY:
            entry = 3 * T  # sorts after every real dart
        else:
            pf = p // 3
            if pf in face_of:
                npf, pbs = face_of[pf]
                entry = 3 * npf + (p % 3 - pbs) % 3
            else:
                face_of[pf] = (len(new_faces), p % 3)
                new_faces.append(pf)
                entry = 3 * (len(new_faces) - 1)
        code.append(entry)
        if best is not None:
            prior = best[n]
            if entry > prior:
                return None
            if entry < prior:
                best = None  # now strictly smaller; stop comparing
        n += 1
    return code


def canonical_form(surface: GluedSurface) -> bytes:
    """Relabeling-invariant encoding.

    Two connected surfaces are orientation-preserving simplicially
    isomorphic exactly when their canonical forms agree.
    """
    if not surface.is_connected():
        raise SurfaceError("canonical form requires a connected surface")
    best = None
    for start in range(surface.dart_count):
        code = _bfs_code(surface, start, best)
        if code is not None and (best is None or code < best):
            best = code
    header = f"cf1 {surface.face_count}:".encode()
    return header + b",".join(str(x).encode() for x in best)


def surface_from_code(face_count: int, code: Sequence) -> GluedSurface:
    """Rebuild the labeled surface encoded by a BFS partner sequence."""
    gluing = [BOUNDARY] * (3 * face_count)
    for d, p in enumerate(code):
        if p != 3 * face_count:
            gluing[d] = p
            gluing[p] = d
    return GluedSurface(face_count, tuple(gluing))


def load_canonical_form(blob: bytes) -> GluedSurface:
    head, _, body = blob.partition(b":")
    if not head.startswith(b"cf1 "):
        raise SurfaceError("not a canonical form blob")
    T = int(head[4:])
    return surface_from_code(T, [int(x) for x in body.split(b",")])


def relabel(surface: GluedSurface, face_perm: Sequence, rotations: Sequence) -> GluedSurface:
    """Apply an orientation-preserving relabeling (for tests and search).

    Face f becomes face_perm[f]; its sides rotate by rotations[f].
    """
    T = surface.face_count
    new = [BOUNDARY] * (3 * T)

    def image(d):
        f, s = divmod(d, 3)
        return 3 * face_perm[f] + (s + rotations[f]) % 3

    for d, p in enumerate(surface.gluing):
        if p != BOUNDARY:
            new[image(d)] = image(p)
    return GluedSurface(T, tuple(new))


# --- random model -----------------------------------------------------------

_MAX_RETRIES = 100000


def _take(tree: list, k: int) -> int:
    """Remove the k-th live dart (k = 0 for the smallest) and return it.

    tree is a Fenwick tree of live flags: tree[i] counts the live darts
    among i - (i & -i) .. i - 1.  The descent halves its step; a node whose
    count exceeds what is left of k holds the dart, so that count drops by
    one on the way.
    """
    pos, n = 0, len(tree) - 1
    step = 1 << (n.bit_length() - 1)
    while step:
        nxt = pos + step
        if nxt <= n:
            c = tree[nxt]
            if c <= k:
                pos = nxt
                k -= c
            else:
                tree[nxt] = c - 1
        step >>= 1
    return pos


def random_surface(T: int, seed: int) -> GluedSurface:
    """Uniform closed gluing of T triangles, conditioned on connectivity.

    Draws a uniform fixed-point-free involution on the 3T darts, pairing
    the smallest unpaired dart with a uniformly chosen other one, and
    resamples until the result is connected.  Deterministic per seed;
    each draw takes O(T log T).
    """
    if T < 2 or T % 2 != 0:
        raise SurfaceError("T must be even and at least 2")
    if T > MAX_FACES:
        raise SurfaceError(f"T={T} exceeds {MAX_FACES} faces")
    rng = random.Random(seed)
    n = 3 * T
    for _ in range(_MAX_RETRIES):
        tree = [i & -i for i in range(n + 1)]  # every dart live
        gluing = [BOUNDARY] * n
        for left in range(n - 1, 0, -2):  # darts left after taking a
            a = _take(tree, 0)
            b = _take(tree, rng.randrange(left))
            gluing[a] = b
            gluing[b] = a
        # tested on the bare gluing, so a rejected draw builds no index
        if len(_face_components(gluing)) == 1:
            return GluedSurface(T, tuple(gluing))
    raise SurfaceError("exceeded retry limit while sampling a connected surface")
