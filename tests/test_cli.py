import os
import resource
import subprocess
import sys

import pytest

import equilat
from equilat.cli import main
from equilat.surface import GluedSurface, save_surface


@pytest.fixture
def torus_path(tmp_path):
    path = tmp_path / "torus.tsf"
    path.write_text(save_surface(GluedSurface(2, (3, 4, 5, 0, 1, 2))))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_every_report_ends_with_result_line(capsys, torus_path):
    code, out = run(capsys, "stats", torus_path)
    last = out.strip().splitlines()[-1]
    assert last.startswith("RESULT: pass") and code == 0


def test_stats_torus(capsys, torus_path):
    code, out = run(capsys, "stats", torus_path)
    assert "T=2 V=1 E=3 chi=0 g=1" in out and code == 0


def test_validate(capsys, torus_path):
    code, out = run(capsys, "validate", torus_path)
    assert code == 0 and "closed=True" in out


def test_iso_on_relabeled_copy(capsys, tmp_path, torus_path):
    from equilat.surface import relabel

    torus = GluedSurface(2, (3, 4, 5, 0, 1, 2))
    other = tmp_path / "other.tsf"
    other.write_text(save_surface(relabel(torus, [1, 0], [2, 1])))
    code, out = run(capsys, "iso", torus_path, str(other))
    assert code == 0 and "isomorphic" in out


def test_iso_detects_difference(capsys, tmp_path, torus_path):
    other = tmp_path / "pillow.tsf"
    other.write_text(save_surface(GluedSurface(2, (3, 5, 4, 0, 2, 1))))
    code, out = run(capsys, "iso", torus_path, str(other))
    assert code == 1 and "RESULT: fail" in out


def test_subdivide_then_tran(capsys, tmp_path, torus_path):
    sub = tmp_path / "sub.tsf"
    code, _ = run(capsys, "subdivide", torus_path, "-k", "3", "-o", str(sub))
    assert code == 0
    code, out = run(capsys, "tran", str(sub))
    assert code == 0 and "structures: 6" in out and "locally bounded: True" in out


def test_tran_report_on_the_two_face_torus(capsys, torus_path):
    # periods print as a+bw, negative coordinates included
    code, out = run(capsys, "tran", torus_path)
    assert code == 0
    assert out.splitlines() == [
        "structures: 6",
        "face types: 1 type A, 1 type B",
        "flat area: 2 * sqrt(3)/4",
        "loop holonomy at dart 0: 1+0w",
        "loop holonomy at dart 1: -1+1w",
        "loop holonomy at dart 2: 0+-1w",
        "locally bounded: False (max degree 6)",
        "  first failure: loop holonomy 1+0w at dart 0 outside 3Z+3wZ",
        "RESULT: pass 6 structures, locally bounded: False",
    ]


def test_random_round_trip(capsys, tmp_path):
    path = tmp_path / "r.tsf"
    code, out = run(capsys, "random", "-T", "8", "--seed", "3", "-o", str(path))
    assert code == 0 and path.exists()
    code, _ = run(capsys, "validate", str(path))
    assert code == 0


def test_degree_bound_command(capsys, tmp_path):
    src = tmp_path / "s.tsf"
    run(capsys, "random", "-T", "4", "--seed", "0", "-o", str(src))
    out_path = tmp_path / "b.tsf"
    code, out = run(capsys, "degree-bound", str(src), "-o", str(out_path))
    assert code == 0 and "max degree 7" in out and out_path.exists()


def test_decompose_command(capsys, tmp_path):
    src = tmp_path / "s.tsf"
    run(capsys, "random", "-T", "8", "--seed", "648", "-o", str(src))
    sub = tmp_path / "s3.tsf"
    run(capsys, "subdivide", str(src), "-k", "3", "-o", str(sub))
    code, out = run(capsys, "decompose", str(sub))
    assert code == 0 and "parallelogram" in out


def test_cover_command(capsys, tmp_path, torus_path):
    outdir = tmp_path / "cov"
    code, out = run(capsys, "cover", torus_path, "-o", str(outdir))
    assert code == 0
    assert (outdir / "manifest.txt").exists()
    comps = list(outdir.glob("component*.tsf"))
    assert len(comps) == 6 and "degree 1" in out


def test_cover_branch_table_matches_the_fibres(capsys, tmp_path, pillowcase):
    from collections import Counter

    from equilat.cover import canonical_cover
    from equilat.surface import corner_vertex_map, random_surface, vertex_orbits

    for j, surface in enumerate([random_surface(8, s) for s in range(4)] + [pillowcase]):
        path = tmp_path / f"base{j}.tsf"
        path.write_text(save_surface(surface))
        code, out = run(capsys, "cover", str(path), "-o", str(tmp_path / f"cover{j}"))
        assert code == 0
        manifest = (tmp_path / f"cover{j}" / "manifest.txt").read_text().splitlines()
        start = manifest.index("branch table (vertex, base degree, "
                               "ramification index, preimages):")
        printed = [tuple(map(int, line.split())) for line in manifest[start + 1:-1]]
        # each cover vertex lies over the base vertex of its first corner:
        # cover dart 18f + 3k + s lies over base dart 3f + s
        degrees = [r.degree for r in vertex_orbits(surface)]
        cv = corner_vertex_map(surface)
        over = Counter()
        ratio = {}
        for r in vertex_orbits(canonical_cover(surface).total):
            v = cv[3 * (r.corners[0] // 18) + r.corners[0] % 3]
            over[v] += 1
            ratio[v] = r.degree // degrees[v]
        counted = [(v, degrees[v], ratio[v], over[v]) for v in sorted(over) if ratio[v] > 1]
        assert printed == counted
        assert manifest[-1].startswith("Riemann-Hurwitz checks: ")
        assert counted  # every base here has a branch point


def test_census_command(capsys, tmp_path):
    out_csv = tmp_path / "table.csv"
    code, out = run(capsys, "census", "--tmax", "4", "--out", str(out_csv))
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "T,genus,count,tran_count,lb_count"


@pytest.mark.parametrize("name", ["tran", "lb"])
def test_census_refuses_filter_with_out(capsys, tmp_path, name):
    out_csv = tmp_path / "table.csv"
    code = main(["census", "--tmax", "4", "--filter", name, "--out", str(out_csv)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: --out cannot be combined with --filter")
    assert captured.out.strip().splitlines()[-1].startswith("RESULT: fail")
    assert not out_csv.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", ["tran", "lb"])
def test_census_filter_counts_match_filtered_class_lists(capsys, monkeypatch, name, jobs):
    import equilat.census as census
    from equilat.degree_bound import check_tri_lb
    from equilat.translation import detect_structures

    pred = {"tran": lambda s: detect_structures(s) is not None,
            "lb": lambda s: check_tri_lb(s).ok}[name]
    Ts = (2, 4, 6, 8)
    counts = [sum(map(pred, census.enumerate_surfaces(T))) for T in Ts]

    def no_class_list(*args, **kwargs):
        raise AssertionError("a filtered census built a class list")

    # the counts come from the table, in one pass with no class list
    monkeypatch.setattr(census, "enumerate_surfaces", no_class_list)
    code, out = run(capsys, "census", "--tmax", "8", "--filter", name, "--jobs", jobs)
    assert code == 0
    assert out.splitlines() == [
        f"T={T}: {c} classes pass filter {name}" for T, c in zip(Ts, counts)
    ] + [f"RESULT: pass {sum(counts)} classes with filter {name}"]


def test_census_rejects_non_integer_max_t(capsys, monkeypatch):
    monkeypatch.setenv("EQUILAT_MAX_T", "abc")
    code = main(["census", "--tmax", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: EQUILAT_MAX_T='abc'")
    assert captured.out.strip().splitlines()[-1].startswith("RESULT: fail EQUILAT_MAX_T")


@pytest.mark.parametrize("value", ["+12", " 12", "12 ", "1_2", "١٢", "-4"])
def test_census_max_t_takes_only_ascii_digits(capsys, monkeypatch, value):
    # int() reads each of these; a TSF numeral holds none of them either
    monkeypatch.setenv("EQUILAT_MAX_T", value)
    code = main(["census", "--tmax", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: EQUILAT_MAX_T={value!r} is not an integer")
    assert captured.out.strip().splitlines() == [
        f"RESULT: fail EQUILAT_MAX_T={value!r} is not an integer"]


@pytest.mark.parametrize("extra", [[], ["--filter", "tran"]])
def test_census_checks_cap_before_searching(capsys, monkeypatch, extra):
    import equilat.census as census

    def no_search(*args):
        raise AssertionError("the census searched before checking its cap")

    monkeypatch.setattr(census, "_search", no_search)
    monkeypatch.setenv("EQUILAT_MAX_T", "4")
    code = main(["census", "--tmax", "6", *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: T=6 outside the configured census range 2..4")
    assert captured.out.strip().splitlines() == [
        "RESULT: fail T=6 outside the configured census range 2..4 "
        "(set EQUILAT_MAX_T to raise the cap)"]


def test_error_exits_nonzero(capsys, tmp_path):
    bad = tmp_path / "bad.tsf"
    bad.write_text("garbage")
    code, out = run(capsys, "stats", str(bad))
    assert code == 1 and "RESULT: fail" in out


def test_non_ascii_byte_is_reported_by_line(capsys, tmp_path):
    bad = tmp_path / "bad.tsf"
    bad.write_bytes(b"tsf v1\nT 2\ng 0 3  # caf\xe9\ng 1 4\ng 2 5\n")
    code = main(["stats", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: line 3")
    assert captured.out.strip().splitlines()[-1].startswith("RESULT: fail")


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_cached_parser_keeps_no_state(capsys, monkeypatch, tmp_path, torus_path):
    import equilat.cli as cli

    main(["stats", torus_path])
    parser = cli._parser
    calls = [["not-a-command"],
             ["census", "--tmax", "4", "--filter", "tran"],
             ["census", "--tmax", "4", "--out", str(tmp_path / "x.csv")],
             ["stats", torus_path]]

    def outputs(fresh):
        seen = []
        for argv in calls:
            if fresh:
                monkeypatch.setattr(cli, "_parser", None)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = f"exit {exc.code}"
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        return seen + [(tmp_path / "x.csv").read_text()]

    capsys.readouterr()
    cached = outputs(fresh=False)
    assert cli._parser is parser
    # the --out run would fail if the filter carried over from the run before
    assert "classes pass filter tran" in cached[1][1]
    assert cached[2][0] == 0 and cached[2][2] == ""
    assert outputs(fresh=True) == cached


def _limit_memory():
    limit = 1_500_000_000
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("argv", [
    ("subdivide", "{torus}", "-k", "100000", "-o", "{out}"),
    ("random", "-T", "10000000000", "-o", "{out}"),
], ids=["subdivide", "random"])
def test_oversized_outputs_fail_cleanly(tmp_path, torus_path, argv):
    # under a 1.5 GB address-space cap, as a runaway allocation would
    # otherwise exhaust the host before failing
    out = tmp_path / "out.tsf"
    argv = [a.format(torus=torus_path, out=out) for a in argv]
    src = os.path.dirname(os.path.dirname(equilat.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "equilat.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=_limit_memory)
    assert proc.returncode == 1
    assert proc.stdout.strip().splitlines()[-1].startswith("RESULT: fail")
    assert "exceeds 1000000 faces" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


# sha256 of the stdout and of every written file of each command below, on
# three seeded inputs, with the tmp directory replaced by "<tmp>" in each.
# Recorded from an implementation whose outputs were checked by the other
# tests; a change that keeps behaviour keeps every byte.
RECORDED_DIGESTS = {
    's1 cover':
        'f549d900026c90d4297e980e398d0d2d756adf35a9359461919130d681eddeee',
    's1 decompose component0.tsf':
        'a6e1eb08879c6a99dce8a50db82ab4dc1403694fe8c3ed4dd96ffc9f34e34f75',
    's1 degree-bound':
        '93b22f6a4357dc54a6547b6ffb2f48364abed0f85f6d7b71d6338caa5fdc857c',
    's1 stats':
        '927fb52db7c51b53451464bb593c878be5b056106bb3c5c255a9dd9ab7e6dcf9',
    's1 tran component0.tsf':
        'fd253044bd1ac73c4a60028dad8e479e39ff7c1632f37292b24b377022ed5cad',
    's1/B.tsf':
        '1acaf785488034a64f3ead5d5588ba57f4047d202a9090f6a73d2697605341db',
    's1/cover/component0.tsf':
        '81529356b09127594757cbe8592fbbdd4f0f1c168e9627a1e266deb689fe3585',
    's1/cover/manifest.txt':
        '7b613b88246c5305f187d3d91cbb9822c55fa25b2cf8ab7302a7ac025bae2098',
    's2 cover':
        '0c8bf63f0ac8be7170351ada451ec4b6f6afc3be0a0359fe8188252a4108460f',
    's2 decompose component0.tsf':
        'bb74804680fb1a331a5ddf989e20a8325059f90fd76c9a565d7cdc659b07ba98',
    's2 degree-bound':
        '03acaa2da5dc3595f0985bd10e4f185b1660cda1a9221ac2c6e3c3e2d127c743',
    's2 stats':
        '68b5d8a335f21a08cbabc4bf4b42ae20ba643b027d5af0892d0d5101dedc869e',
    's2 tran component0.tsf':
        '14b121e7f49be4bc92e920d9d8335a7d825ddfa8768f2fcba76a95d391d88f2c',
    's2/B.tsf':
        'c5566236d1d616c4182d9e3960580bd4626eed4d64c1cbd394aaa8c47ee9902b',
    's2/cover/component0.tsf':
        'e8a3d5655c69c4407fb09cc22ebcc0586641374a8a3d14f05b9b37f337685b4d',
    's2/cover/manifest.txt':
        '25130336a88d6a026742e0ae54a3822d68cb4bf91c657be6f98fb5e26ccc97d4',
    's3 cover':
        'f9fa0a921e1bf7ace88ff2cad9c2ead470f6ecfb7e76ce3e0a66459df4520f24',
    's3 decompose component0.tsf':
        '038221a511bb79dec3885f55ed410b09c1ee7da085a89b851a5d38b97401b58a',
    's3 degree-bound':
        '36fbc353a7e0fb13245699811eb2350080f7d804e8426465c185080e3e4d0127',
    's3 stats':
        'a87bf5702c97eb9f24dff1f63b14d753e536d8ced8cc1f692cd206eec03cd133',
    's3 tran component0.tsf':
        'e32e19b6fb359c58000e5faa4bdd6701dd874115413a3300b16e67febfd15271',
    's3/B.tsf':
        '29ad21f937c9a4a4e39c6788d34498d7fba3643c8b58e418d084efbc3883db41',
    's3/cover/component0.tsf':
        'cc6891df0d4a263dfa936d426ef2928f107d10722e0569a91c484d257f8532b2',
    's3/cover/manifest.txt':
        '1964af216ea6136aeb89bfa97013b2e8ed29e9a182669f15e446521ce024fccf',
}


def _recorded_outputs(capsys, tmp_path):
    """{"s<seed> <command>" or "s<seed>/<file>": sha256 hex} over three seeds."""
    import hashlib

    def digest(text):
        return hashlib.sha256(text.replace(str(tmp_path), "<tmp>").encode()).hexdigest()

    def cli(key, *argv):
        code = main(list(argv))
        digests[key] = digest(f"exit {code}\n{capsys.readouterr().out}")

    digests = {}
    for seed in (1, 2, 3):
        d = tmp_path / f"s{seed}"
        d.mkdir()
        base, sub = d / "base.tsf", d / "sub.tsf"
        main(["random", "-T", "8", "--seed", str(seed), "-o", str(base)])
        main(["subdivide", str(base), "-k", "3", "-o", str(sub)])
        capsys.readouterr()
        cli(f"s{seed} stats", "stats", str(sub))
        cli(f"s{seed} degree-bound", "degree-bound", str(base), "-o", str(d / "B.tsf"))
        cli(f"s{seed} cover", "cover", str(sub), "-o", str(d / "cover"))
        for path in sorted((d / "cover").glob("component*.tsf")):
            cli(f"s{seed} tran {path.name}", "tran", str(path))
            cli(f"s{seed} decompose {path.name}", "decompose", str(path))
        for path in sorted(d.rglob("*")):
            if path.is_file() and path not in (base, sub):
                digests[f"s{seed}/{path.relative_to(d).as_posix()}"] = \
                    digest(path.read_text())
    return digests


def test_outputs_match_recorded_digests(capsys, tmp_path):
    assert _recorded_outputs(capsys, tmp_path) == RECORDED_DIGESTS
