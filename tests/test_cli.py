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


def test_census_rejects_non_integer_max_t(capsys, monkeypatch):
    monkeypatch.setenv("EQUILAT_MAX_T", "abc")
    code = main(["census", "--tmax", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: EQUILAT_MAX_T='abc'")
    assert captured.out.strip().splitlines()[-1].startswith("RESULT: fail EQUILAT_MAX_T")


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
