"""Each output check accepts real output and rejects a corrupted one."""

import pytest

import oracle
import workloads
from equilat.surface import (GluedSurface, euler_and_genus, load_surface,
                             save_surface, vertex_orbits)

HEX_TORUS = "tsf v1\nT 2\ng 0 3\ng 1 4\ng 2 5\n"


def run_first_input(workload, tmp_path, index=0):
    cli = workloads.import_cli()
    inputs, _ = workloads.generate_inputs(workload, 7, tmp_path, index + 1)
    item = inputs[index]
    _, outputs = workloads.run_chain(cli, workload, item, tmp_path / "out")
    return item, outputs


def flip_edge_to_raise(text: str, target: int) -> str:
    """Flip one edge so that an opposite vertex reaches degree `target`.

    The edge between faces f = (A, B, C) and h = (B, A, D) is replaced by
    the edge C-D: C and D gain one degree, A and B lose one, and V, E, F
    and so chi stay as they were.
    """
    surface = load_surface(text)
    chi = euler_and_genus(surface).chi
    degree = {}
    for rep in vertex_orbits(surface):
        for c in rep.corners:
            degree[c] = (rep.vertex, rep.degree)
    for d, p in enumerate(surface.gluing):
        f, s = divmod(d, 3)
        h, t = divmod(p, 3)
        C, D = degree[3 * f + (s + 2) % 3], degree[3 * h + (t + 2) % 3]
        if f == h or C[1] != target - 1 or C[0] == D[0]:
            continue
        g = list(surface.gluing)
        # f becomes (C, A, D) and h becomes (D, B, C), each with sides 0, 1, 2
        new = {3 * f + (s + 2) % 3: 3 * f, 3 * h + (t + 1) % 3: 3 * f + 1,
               3 * h + (t + 2) % 3: 3 * h, 3 * f + (s + 1) % 3: 3 * h + 1}
        partner = {new[old]: new.get(g[old], g[old]) for old in new}
        partner[3 * f + 2], partner[3 * h + 2] = 3 * h + 2, 3 * f + 2
        for a, b in partner.items():
            g[a], g[b] = b, a
        flipped = GluedSurface(surface.face_count, tuple(g))
        if (target in {r.degree for r in vertex_orbits(flipped)}
                and euler_and_genus(flipped).chi == chi):
            return save_surface(flipped)
    raise AssertionError(f"no edge flip reaches degree {target}")


def test_degree_bound_check(tmp_path):
    item, outputs = run_first_input("degree_bound", tmp_path)
    assert workloads.verify("degree_bound", item, outputs) == 1
    source, output = open(item.paths[0]).read(), outputs["B"].read_text()
    with pytest.raises(oracle.OracleError, match="degree 8"):
        oracle.check_degree_bound(source, flip_edge_to_raise(output, 8))
    assert oracle.MapStats.from_text(source).chi != 0
    with pytest.raises(oracle.OracleError, match="chi"):
        oracle.check_degree_bound(HEX_TORUS, output)
    with pytest.raises(oracle.OracleError, match="not closed"):
        oracle.check_degree_bound(source, output.rsplit("g ", 1)[0])


def test_result_line_check():
    oracle.check_result_line(0, "report\nRESULT: pass ok\n")
    for rc, out in ((1, "RESULT: pass ok\n"), (0, "RESULT: fail no\n"), (0, "")):
        with pytest.raises(oracle.OracleError):
            oracle.check_result_line(rc, out)


def test_cover_check(tmp_path):
    item, outputs = run_first_input("cover_decompose", tmp_path)
    assert workloads.verify("cover_decompose", item, outputs) == 1
    cover = outputs["covers"][0]
    source, manifest = open(item.paths[0]).read(), cover["manifest"]
    rows = oracle.parse_manifest(manifest)
    texts = [(cover["dir"] / f"component{i}.tsf").read_text() for i, *_ in rows]
    oracle.check_cover(source, manifest, texts)
    i, degree, genus, faces = next(row for row in rows if row[2] >= 2)
    bad = manifest.replace(f"component {i}: degree {degree}",
                           f"component {i}: degree {degree - 1}")
    with pytest.raises(oracle.OracleError, match="sum to"):
        oracle.check_cover(source, bad, texts)
    flipped = [flip_edge_to_raise(texts[0], 7)] + texts[1:]
    with pytest.raises(oracle.OracleError, match="divisible by 6"):
        oracle.check_cover(source, manifest, flipped)

    report = cover["decompose"][i]
    assert oracle.check_decompose(report, faces, genus) >= 1
    lines = report.splitlines()
    first = next(n for n, ln in enumerate(lines) if ln.startswith("face "))
    missing = "\n".join(lines[:first] + lines[first + 1:])
    with pytest.raises(oracle.OracleError, match="cover"):
        oracle.check_decompose(missing, faces, genus)
    count = oracle.check_decompose(report, faces, genus)
    too_many_for = (count - 1) // 12 + 1  # a genus with 12(g-1) < count
    with pytest.raises(oracle.OracleError, match="parallelograms on genus"):
        oracle.check_decompose(report, faces, too_many_for)


def test_census_check(tmp_path):
    item, outputs = run_first_input("census", tmp_path)
    assert workloads.verify("census", item, outputs) == 1323
    text = outputs["csv"].read_text()
    lines = text.splitlines()
    one_missing = text.replace("8,1,669,3,0", "8,1,668,3,0")
    assert one_missing != text
    for bad in (one_missing, "\n".join(lines[:-1]) + "\n",
                "\n".join(lines + ["10,0,1,0,0"]) + "\n",
                text.replace("tran_count", "tran")):
        with pytest.raises(oracle.OracleError):
            oracle.check_census(bad)
