"""Command-line interface binding the surface operations to files.

Every subcommand prints a plain-text report ending with a single line
`RESULT: pass|fail <summary>` and exits 0 exactly when the result is pass.
"""

from __future__ import annotations

import argparse
import os
import sys

from equilat.surface import (
    GluedSurface,
    SurfaceError,
    canonical_form,
    conformal_double,
    euler_and_genus,
    load_surface,
    random_surface,
    save_surface,
    subdivide,
    vertex_orbits,
)
from equilat.translation import (
    build_period_map,
    detect_structures,
    face_types,
    is_locally_bounded_tran,
)
from equilat.degree_bound import bounded_degree_map, check_tri_lb, separation_check
from equilat.parallelogram import decompose
from equilat.cover import canonical_cover, verify_cover
from equilat.census import _census_range, count_table, write_table


def _load(path: str) -> GluedSurface:
    with open(path, "rb") as fh:  # load_surface reports non-ASCII bytes by line
        return load_surface(fh.read())


def _save(surface: GluedSurface, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(save_surface(surface))


def _finish(ok: bool, summary: str) -> int:
    print(f"RESULT: {'pass' if ok else 'fail'} {summary}")
    return 0 if ok else 1


def cmd_validate(args) -> int:
    surface = _load(args.input)
    closed = surface.is_closed()
    connected = surface.is_connected()
    print(f"faces={surface.face_count} closed={closed} connected={connected}")
    return _finish(True, f"valid gluing with {surface.face_count} faces")


def cmd_stats(args) -> int:
    surface = _load(args.input)
    st = euler_and_genus(surface)
    hist = {}
    for rep in vertex_orbits(surface):
        hist[rep.degree] = hist.get(rep.degree, 0) + 1
    print(f"T={st.faces} V={st.vertices} E={st.edges} chi={st.chi} g={st.genus}")
    print("degree histogram: " +
          " ".join(f"{d}:{c}" for d, c in sorted(hist.items())))
    return _finish(True, f"T={st.faces} V={st.vertices} E={st.edges} "
                         f"chi={st.chi} g={st.genus}")


def cmd_subdivide(args) -> int:
    surface = _load(args.input)
    out = subdivide(surface, args.k)
    _save(out, args.output)
    return _finish(True, f"{surface.face_count} faces -> {out.face_count} faces")


def cmd_double(args) -> int:
    surface = _load(args.input)
    out = conformal_double(surface)
    _save(out, args.output)
    return _finish(True, f"doubled to {out.face_count} closed faces")


def cmd_iso(args) -> int:
    a, b = _load(args.a), _load(args.b)
    same = canonical_form(a) == canonical_form(b)
    print("isomorphic" if same else "not isomorphic")
    return _finish(same, "isomorphic" if same else "not isomorphic")


def cmd_random(args) -> int:
    surface = random_surface(args.T, args.seed)
    _save(surface, args.output)
    st = euler_and_genus(surface)
    return _finish(True, f"T={args.T} seed={args.seed} genus={st.genus}")


def cmd_tran(args) -> int:
    surface = _load(args.input)
    st = detect_structures(surface)
    # a closed surface has no structure or the six rotations of one
    print(f"structures: {0 if st is None else 6}")
    if st is None:
        return _finish(False, "no translation structure")
    types = face_types(surface, st)
    n_a = sum(1 for t in types.values() if t == "A")
    print(f"face types: {n_a} type A, {len(types) - n_a} type B")
    print(f"flat area: {surface.face_count} * sqrt(3)/4")
    pm = build_period_map(surface, st)
    for d, h in pm.holonomies[:10]:
        print(f"loop holonomy at dart {d}: {h}")
    rep = is_locally_bounded_tran(surface, st)
    print(f"locally bounded: {rep.ok} (max degree {rep.max_degree})")
    if not rep.ok:
        print(f"  first failure: {rep.first_failure}")
    return _finish(True, f"6 structures, locally bounded: {rep.ok}")


def cmd_degree_bound(args) -> int:
    surface = _load(args.input)
    result = bounded_degree_map(surface)
    _save(result.surface, args.output)
    cert = check_tri_lb(result.surface)
    sep = separation_check(result.surface, cert)
    g0 = euler_and_genus(surface).genus
    g1 = euler_and_genus(result.surface).genus
    print(f"faces: {surface.face_count} -> {result.surface.face_count} "
          f"(sigma = {result.sigma:.2f})")
    print(f"genus: {g0} -> {g1}; replaced stars: {len(result.centers)}; "
          f"mu = {result.mu:.2f}")
    print(f"max degree {cert.max_degree}; locally bounded: {cert.ok}; "
          f"separation: {sep.ok}")
    ok = cert.ok and sep.ok and g0 == g1
    return _finish(ok, f"max degree {cert.max_degree}, genus preserved: {g0 == g1}")


def cmd_decompose(args) -> int:
    surface = _load(args.input)
    st = detect_structures(surface)
    if st is None:
        return _finish(False, "no translation structure to decompose")
    B, geoms = decompose(surface, st)
    print(f"polytope: {len(B.vertices)} vertices, {len(B.edges)} edges, "
          f"{len(B.faces)} faces")
    total = 0
    for g in geoms:
        print(f"face {g.region_id}: {g.length} x {g.width} parallelogram, "
              f"{g.triangle_count} triangles")
        total += g.triangle_count
    ok = total == surface.face_count
    return _finish(ok, f"{len(B.faces)} parallelograms tiling {total} triangles")


def cmd_cover(args) -> int:
    surface = _load(args.input)
    cover = canonical_cover(surface)
    report = verify_cover(surface, cover)
    os.makedirs(args.outdir, exist_ok=True)
    lines = [f"components: {report.component_count}",
             f"branch points: {report.branch_points}"]
    for i, comp in enumerate(cover.components):
        path = os.path.join(args.outdir, f"component{i}.tsf")
        _save(comp.surface, path)
        lines.append(f"component {i}: degree {comp.degree} genus {comp.genus} "
                     f"faces {comp.surface.face_count} -> {path}")
    lines.append("branch table (vertex, base degree, ramification index, preimages):")
    for rec in cover.ramification:
        if rec.index > 1:
            lines.append(f"  {rec.vertex} {rec.base_degree} {rec.index} "
                         f"{rec.preimage_count}")
    lines.append(f"Riemann-Hurwitz checks: {report.rh_checks}")
    manifest = "\n".join(lines)
    with open(os.path.join(args.outdir, "manifest.txt"), "w") as fh:
        fh.write(manifest + "\n")
    print(manifest)
    return _finish(report.ok, f"{report.component_count} components, "
                              f"degrees {report.component_degrees}")


def cmd_census(args) -> int:
    if args.filter and args.out:
        # the CSV is the full table; a filtered run counts classes only
        raise SurfaceError("--out cannot be combined with --filter")
    rows = count_table(args.tmax, workers=args.jobs)
    if args.filter:
        # the table's per-genus tran and lb counts, summed over genera
        field = {"tran": "tran_count", "lb": "lb_count"}[args.filter]
        passed = dict.fromkeys(_census_range(args.tmax), 0)
        for row in rows:
            passed[row.T] += getattr(row, field)
        for T, count in passed.items():
            print(f"T={T}: {count} classes pass filter {args.filter}")
        return _finish(True, f"{sum(passed.values())} classes with filter {args.filter}")
    for row in rows:
        print(f"T={row.T} g={row.genus} count={row.count} "
              f"tran={row.tran_count} lb={row.lb_count}")
    if args.out:
        write_table(rows, args.out)
        print(f"wrote {args.out}")
    return _finish(True, f"{sum(r.count for r in rows)} classes up to T={args.tmax}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equilat",
        description="exact combinatorics of surfaces glued from unit triangles")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a surface file")
    p.add_argument("input")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="vertex/edge/face counts, Euler data, genus")
    p.add_argument("input")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("subdivide", help="k-fold subdivision")
    p.add_argument("input")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("double", help="conformal double along the boundary")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("iso", help="isomorphism test between two surfaces")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("random", help="uniform random closed connected gluing")
    p.add_argument("-T", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("tran", help="detect translation structures and periods")
    p.add_argument("input")
    p.set_defaults(func=cmd_tran)

    p = sub.add_parser("degree-bound", help="bounded-degree replacement map")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_degree_bound)

    p = sub.add_parser("decompose", help="parallelogram decomposition")
    p.add_argument("input")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("cover", help="canonical degree-6 branched cover")
    p.add_argument("input")
    p.add_argument("-o", "--outdir", required=True)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("census", help="enumerate small closed surfaces")
    p.add_argument("--tmax", type=int, required=True)
    p.add_argument("--filter", choices=["tran", "lb"])
    p.add_argument("--out")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_census)

    return parser


# One parser per process, built on the first call to main: parse_args
# reads it without changing it.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (SurfaceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"RESULT: fail {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
