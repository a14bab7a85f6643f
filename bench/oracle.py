"""Output checks that share no code with the equilat package.

A surface is read from TSF text into its gluing tuple and treated as a
combinatorial map: dart 3f+s is side s of face f, phi(d) is the next side
of the same face and alpha(d) is the glued partner.  The vertices of a
closed surface are the cycles of sigma = phi . alpha, and a vertex's degree
is the length of its cycle.  Everything below is derived from those cycles.
"""

from __future__ import annotations

import csv
import io
import re

# (T, genus, count, tran_count, lb_count) rows of `equilat census --tmax 8`.
# The class counts per T (3, 11, 81, 1228) and their genus split are
# checked against the exponential-formula mass identity in
# tests/test_census_mass.py.
CENSUS_TABLE = (
    (2, 0, 2, 0, 0),
    (2, 1, 1, 1, 0),
    (4, 0, 6, 0, 0),
    (4, 1, 5, 1, 0),
    (6, 0, 26, 0, 0),
    (6, 1, 46, 2, 0),
    (6, 2, 9, 1, 0),
    (8, 0, 191, 0, 0),
    (8, 1, 669, 3, 0),
    (8, 2, 368, 7, 0),
)
CENSUS_HEADER = ("T", "genus", "count", "tran_count", "lb_count")

_COMPONENT_LINE = re.compile(
    r"^component (\d+): degree (\d+) genus (\d+) faces (\d+) -> (.+)$")
_PARALLELOGRAM_LINE = re.compile(
    r"^face (\d+): (\d+) x (\d+) parallelogram, (\d+) triangles$")


class OracleError(Exception):
    """An output failed an independent check."""


def parse_tsf(text: str) -> tuple:
    """(face count, gluing list) from TSF text; -1 marks an unglued dart."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if len(lines) < 2 or lines[0] != "tsf v1" or not lines[1].startswith("T "):
        raise OracleError("not a TSF file")
    T = int(lines[1][2:])
    gluing = [-1] * (3 * T)
    for ln in lines[2:]:
        tag, a, b = ln.split()
        a, b = int(a), int(b)
        if tag != "g" or gluing[a] != -1 or gluing[b] != -1 or a == b:
            raise OracleError(f"bad gluing line {ln!r}")
        gluing[a], gluing[b] = b, a
    return T, gluing


class MapStats:
    """Vertex degrees, Euler characteristic and genus of a closed surface."""

    def __init__(self, T: int, gluing: list):
        if -1 in gluing:
            raise OracleError("surface is not closed")
        self.faces = T
        self.degrees = _cycle_lengths(
            [3 * (p // 3) + (p % 3 + 1) % 3 for p in gluing])
        self.chi = len(self.degrees) - 3 * T // 2 + T
        self.connected = _face_component_count(T, gluing) == 1
        self.genus = (2 - self.chi) // 2 if self.connected else None

    @classmethod
    def from_text(cls, text: str) -> "MapStats":
        return cls(*parse_tsf(text))


def _cycle_lengths(perm: list) -> list:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        n, d = 0, start
        while not seen[d]:
            seen[d] = True
            d = perm[d]
            n += 1
        lengths.append(n)
    return lengths


def _face_component_count(T: int, gluing: list) -> int:
    parent = list(range(T))

    def find(f):
        while parent[f] != f:
            parent[f] = parent[parent[f]]
            f = parent[f]
        return f

    for d, p in enumerate(gluing):
        if p >= 0:
            parent[find(d // 3)] = find(p // 3)
    return sum(1 for f in range(T) if find(f) == f)


def check_result_line(rc: int, stdout: str) -> None:
    lines = stdout.strip().splitlines()
    if rc != 0 or not lines or not lines[-1].startswith("RESULT: pass"):
        tail = lines[-1] if lines else "no output"
        raise OracleError(f"command failed (exit {rc}): {tail}")


def check_degree_bound(source_tsf: str, output_tsf: str) -> MapStats:
    """B(S) is closed and connected, has max degree <= 7 and chi(B) = chi(S)."""
    S = MapStats.from_text(source_tsf)
    B = MapStats.from_text(output_tsf)
    if not B.connected:
        raise OracleError("B(S) is disconnected")
    if max(B.degrees) > 7:
        raise OracleError(f"B(S) has a vertex of degree {max(B.degrees)}")
    if B.chi != S.chi:
        raise OracleError(f"chi(B) = {B.chi} but chi(S) = {S.chi}")
    return B


def parse_manifest(text: str) -> list:
    """(index, degree, genus, faces) per component line of a cover manifest."""
    rows = []
    for ln in text.splitlines():
        m = _COMPONENT_LINE.match(ln.strip())
        if m:
            rows.append(tuple(int(x) for x in m.groups()[:4]))
    if not rows:
        raise OracleError("manifest lists no components")
    return rows


def check_cover(source_tsf: str, manifest: str, components: list) -> list:
    """Degree, face and flatness checks on a cover's components.

    components[i] is the TSF text of component i.  Returns the oracle's
    genus per component.
    """
    S = MapStats.from_text(source_tsf)
    rows = parse_manifest(manifest)
    if [r[0] for r in rows] != list(range(len(components))):
        raise OracleError("manifest and component files disagree")
    if sum(r[1] for r in rows) != 6:
        raise OracleError(f"component degrees sum to {sum(r[1] for r in rows)}, not 6")
    if sum(r[3] for r in rows) != 6 * S.faces:
        raise OracleError("component faces do not sum to 6T")
    genera = []
    for (i, degree, genus, faces), text in zip(rows, components):
        C = MapStats.from_text(text)
        if C.faces != faces or faces != degree * S.faces:
            raise OracleError(f"component {i} has {C.faces} faces, expected "
                              f"{faces} = {degree} * {S.faces}")
        if not C.connected:
            raise OracleError(f"component {i} is disconnected")
        if any(d % 6 for d in C.degrees):
            raise OracleError(f"component {i} has a vertex degree not divisible by 6")
        if C.genus != genus:
            raise OracleError(f"component {i} has genus {C.genus}, manifest says {genus}")
        genera.append(C.genus)
    return genera


def check_decompose(stdout: str, faces: int, genus: int) -> int:
    """The report's parallelograms tile all faces; at most 12(g-1) of them."""
    count = covered = 0
    for ln in stdout.splitlines():
        m = _PARALLELOGRAM_LINE.match(ln.strip())
        if not m:
            continue
        _, length, width, triangles = (int(x) for x in m.groups())
        if triangles != 2 * length * width:
            raise OracleError(f"a {length} x {width} parallelogram cannot hold "
                              f"{triangles} triangles")
        count += 1
        covered += triangles
    if covered != faces:
        raise OracleError(f"parallelograms cover {covered} of {faces} faces")
    if not 1 <= count <= 12 * (genus - 1):
        raise OracleError(f"{count} parallelograms on genus {genus}")
    return count


def check_census(csv_text: str, table=CENSUS_TABLE) -> int:
    """Compare the census CSV row by row; returns the number of classes."""
    reader = csv.reader(io.StringIO(csv_text))
    header = tuple(next(reader, ()))
    if header != CENSUS_HEADER:
        raise OracleError(f"census header {header}")
    rows = [tuple(int(x) for x in row) for row in reader if row]
    for i in range(max(len(rows), len(table))):
        got = rows[i] if i < len(rows) else None
        want = table[i] if i < len(table) else None
        if got != want:
            raise OracleError(f"census row {i}: got {got}, expected {want}")
    return sum(row[2] for row in rows)
