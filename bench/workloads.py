"""Workload inputs and the CLI command chain each input is carried through.

Each input is derived from (seed, index) only.  degree_bound inputs come
in rounds of one input per size class, so every complete round has the
same mix of sizes.  A cover_decompose input is one base surface, carried
through the chain once per subdivision factor; timing a base surface's
chains together keeps the per-input latency from splitting into one mode
per factor.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# degree_bound: equal numbers of each input size, giving B(S) of 1.8k-7.4k faces.
DEGREE_BOUND_T = (10, 14, 20, 28, 40)
# cover_decompose: subdivide(random_surface(8, .), k) for each k.
COVER_BASE_T = 8
COVER_K = (3, 6)
# Rounds of inputs generated at set-up; a run cycles through them if it
# gets that far.
POOL_ROUNDS = 60
CENSUS_TMAX = 8

WORKLOADS = ("census", "degree_bound", "cover_decompose")


def import_cli():
    """Import equilat.cli from this checkout's src/, never from elsewhere."""
    package = SRC / "equilat"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no equilat package at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import equilat
    import equilat.cli

    if Path(equilat.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported equilat from {equilat.__file__}, "
                         f"not from {package}")
    return equilat.cli


@dataclass(frozen=True)
class Input:
    index: int
    size_class: str  # "T=20", "k=3/k=6" or "census"
    paths: tuple  # TSF files of the input surfaces (none for census)


def round_size(workload: str) -> int:
    return len(DEGREE_BOUND_T) if workload == "degree_bound" else 1


def input_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def generate_inputs(workload: str, seed: int, workdir: Path, count: int) -> tuple:
    """Write the first `count` inputs of a workload; returns (inputs, digest).

    The digest covers every generated TSF byte, so two runs with equal
    digests measured equal inputs.
    """
    from equilat.surface import random_surface, save_surface, subdivide

    digest = hashlib.sha256(workload.encode())
    inputs = []
    for i in range(count):
        if workload == "census":
            inputs.append(Input(i, "census", ()))
            continue
        if workload == "degree_bound":
            T = DEGREE_BOUND_T[i % len(DEGREE_BOUND_T)]
            surfaces = [(f"T={T}", random_surface(T, input_seed(seed, i)))]
        else:
            base = random_surface(COVER_BASE_T, input_seed(seed, i))
            surfaces = [(f"k={k}", subdivide(base, k)) for k in COVER_K]
        paths = []
        for name, surface in surfaces:
            text = save_surface(surface)
            digest.update(text.encode())
            path = workdir / f"in{i}-{name}.tsf"
            path.write_text(text)
            paths.append(str(path))
        inputs.append(Input(i, "/".join(name for name, _ in surfaces), tuple(paths)))
    return inputs, digest.hexdigest()


def pool_size(workload: str) -> int:
    return 1 if workload == "census" else POOL_ROUNDS * round_size(workload)


def _call(cli, argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    oracle.check_result_line(rc, out.getvalue())
    return out.getvalue()


def run_chain(cli, workload: str, item: Input, outdir: Path) -> tuple:
    """Carry one input through its commands; returns (seconds, outputs).

    Only the commands are timed; the outputs are checked afterwards by
    `verify`.  A failing command raises.
    """
    os.makedirs(outdir, exist_ok=True)
    start = time.perf_counter()
    if workload == "census":
        csv_path = outdir / "census.csv"
        _call(cli, ["census", "--tmax", str(CENSUS_TMAX), "--out", str(csv_path)])
        outputs = {"csv": csv_path}
    elif workload == "degree_bound":
        out_path = outdir / "B.tsf"
        _call(cli, ["degree-bound", item.paths[0], "-o", str(out_path)])
        outputs = {"B": out_path}
    else:
        outputs = {"covers": []}
        for j, path in enumerate(item.paths):
            cover_dir = outdir / f"cover{j}"
            _call(cli, ["cover", path, "-o", str(cover_dir)])
            manifest = (cover_dir / "manifest.txt").read_text()
            reports = {}
            for i, _, genus, _ in oracle.parse_manifest(manifest):
                if genus >= 2:
                    reports[i] = _call(cli, ["decompose",
                                             str(cover_dir / f"component{i}.tsf")])
            outputs["covers"].append(
                {"dir": cover_dir, "manifest": manifest, "decompose": reports})
    return time.perf_counter() - start, outputs


def verify(workload: str, item: Input, outputs: dict) -> int:
    """Check one input's outputs with the oracle; returns the items it counts.

    census counts its classes; the other workloads count one per input.
    """
    if workload == "census":
        return oracle.check_census(Path(outputs["csv"]).read_text())
    if workload == "degree_bound":
        oracle.check_degree_bound(Path(item.paths[0]).read_text(),
                                  Path(outputs["B"]).read_text())
        return 1
    for path, cover in zip(item.paths, outputs["covers"], strict=True):
        rows = oracle.parse_manifest(cover["manifest"])
        texts = [(cover["dir"] / f"component{i}.tsf").read_text() for i, *_ in rows]
        genera = oracle.check_cover(Path(path).read_text(), cover["manifest"], texts)
        for (i, _, _, faces), genus in zip(rows, genera):
            if (i in cover["decompose"]) != (genus >= 2):
                raise oracle.OracleError(f"component {i} of genus {genus}: decompose "
                                         "run does not match genus >= 2")
            if genus >= 2:
                oracle.check_decompose(cover["decompose"][i], faces, genus)
    return 1
