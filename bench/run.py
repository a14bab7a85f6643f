"""The equilat benchmark: one workload, timed or traced, with checked outputs.

    python3 bench/run.py --workload census|degree_bound|cover_decompose \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; equilat is imported from its src/.  Each
input is carried through its CLI command chain in this process
(`equilat.cli.main`), single-process, and its outputs are checked by
bench/oracle.py, which shares no code with the package.  A failed input
is counted and the run goes on.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the public
functions of each layer (bench/spans.py) and prints the per-layer
metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads
from workloads import ROOT, WORK

# Fresh interpreters timed for setup_s, spread over the timed run; the
# median is reported.
SETUP_REPEATS = 21
# Inputs in one traced pass; each traced pass is paired with an untraced
# pass over the same inputs to measure the tracing overhead.
TRACE_INPUTS = {"census": 1, "degree_bound": 10, "cover_decompose": 2}
# The 90th percentile is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100
# On a shared CPU the speed left to one process drifts, by up to 60% over
# tens of seconds.  A fixed kernel, timed just before each round of inputs
# and around each set-up probe, tracks that drift.  Every gated time is
# scaled by REFERENCE_S / (kernel time), so it reads in seconds of a
# machine on which the kernel takes REFERENCE_S; the raw times are printed
# too.
REFERENCE_S = 0.005
REFERENCE_REPEATS = 5

# A traced pass whose span self times do not add up to its own clock
# reading, within this share, makes the run incorrect.
TRACE_TOLERANCE = 0.01

# Metric names and units, in the order BENCHMARK.json lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def log(message: str) -> None:
    print(f"bench: {message}", flush=True)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "equilat").rglob("*.py")):
        digest.update(path.relative_to(workloads.SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout, or "none" when it is not itself a git work tree."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              timeout=10, capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "none"
    return lines[1]


def reference_kernel() -> int:
    """A fixed stretch of bytecode that allocates nothing.

    It creates no objects (the loop yields None, the arithmetic stays among
    the cached small ints), so neither the garbage collector nor the size
    or layout of the heap the package leaves behind can change its time.
    """
    x = 0
    for _ in itertools.repeat(None, 100_000):
        x = (x + 7) & 127
    return x


def speed_factor() -> float:
    """REFERENCE_S over the median time of the reference kernel, right now."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return REFERENCE_S / statistics.median(times)


class Runner:
    """Carries inputs through their command chains and counts the outcome."""

    def __init__(self, cli, workload: str, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def one(self, item, recorder=None):
        """(seconds, items) for one input, or None when it failed."""
        self.attempted += 1
        outdir = self.workdir / f"out{item.index}"
        args = (self.cli, self.workload, item, outdir)
        try:
            if recorder is None:
                seconds, outputs = workloads.run_chain(*args)
            else:
                seconds, outputs = recorder.span("bench.input", item.index,
                                                 workloads.run_chain, *args)
            return seconds, workloads.verify(self.workload, item, outputs)
        except (Exception, SystemExit):  # a failed input must not end the run
            self.failed += 1
            print(f"bench: input {item.index} ({item.size_class}) failed:",
                  file=sys.stderr, flush=True)
            traceback.print_exc()
            return None
        finally:
            shutil.rmtree(outdir, ignore_errors=True)


def probe_setup(workload: str, seed: int, digest: str, index: int) -> tuple:
    """Seconds from starting a fresh interpreter to inputs written, once.

    The probe is scaled by the mean of the speed factors taken just before
    and just after it.  Returns (raw, scaled).
    """
    probe = Path(__file__).resolve().parent / "probe.py"
    target = WORK / f"probe-{os.getpid()}-{index}"
    target.mkdir(parents=True)
    try:
        before = speed_factor()
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(probe), workload, str(seed),
                               str(target)], capture_output=True, text=True,
                              timeout=120)
        raw = time.perf_counter() - start
        scaled = raw * (before + speed_factor()) / 2
    finally:
        shutil.rmtree(target, ignore_errors=True)
    if done.returncode != 0 or done.stdout.split()[-1:] != [digest]:
        raise SystemExit(f"error: setup probe failed or generated other inputs:"
                         f"\n{done.stdout}{done.stderr}")
    return raw, scaled


def timed_run(runner: Runner, inputs: list, seconds: float, probe) -> dict:
    """Complete rounds of inputs until `seconds` of rounds have passed.

    Each round is timed raw and scaled by the speed factor taken just
    before it; the metrics use the scaled times.  Between rounds,
    `probe(index)` times a set-up SETUP_REPEATS times, evenly spread over
    the run, so that setup_s samples the same stretch of machine load as
    the rounds; the time the probes take does not count against `seconds`.
    """
    size = workloads.round_size(runner.workload)
    raw, scaled = [], []  # per successful input
    setup = []  # (raw, scaled) per set-up probe
    items, raw_total, scaled_total, rounds = 0, 0.0, 0.0, 0
    position = 0
    start, probe_s = time.perf_counter(), 0.0

    def elapsed():
        return time.perf_counter() - start - probe_s

    while True:
        while (len(setup) < SETUP_REPEATS
               and elapsed() >= len(setup) * seconds / SETUP_REPEATS):
            probe_start = time.perf_counter()
            setup.append(probe(len(setup)))
            probe_s += time.perf_counter() - probe_start
        factor = speed_factor()
        done = []
        for _ in range(size):
            done.append(runner.one(inputs[position % len(inputs)]))
            position += 1
        ok = [got for got in done if got is not None]
        raw.extend(t for t, _ in ok)
        scaled.extend(t * factor for t, _ in ok)
        if len(ok) == size:
            items += sum(n for _, n in ok)
            raw_total += sum(t for t, _ in ok)
            scaled_total += sum(t for t, _ in ok) * factor
            rounds += 1
        if elapsed() >= seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(probe(len(setup)))
    metrics = {"setup_s": statistics.median(t for _, t in setup)}
    log(f"raw setup_s {statistics.median(r for r, _ in setup)} s "
        f"({len(setup)} probes)")
    if rounds:
        metrics["items_per_s"] = items / scaled_total
        metrics["item_p50_ms"] = 1000 * statistics.median(scaled)
        log(f"timed {len(raw)} inputs; {rounds} complete rounds took {raw_total} s, "
            f"{scaled_total} s scaled")
        log(f"raw items_per_s {items / raw_total} 1/s, raw item_p50_ms "
            f"{1000 * statistics.median(raw)} ms")
    if len(scaled) >= P90_MIN_SAMPLES:
        p90 = 1000 * statistics.quantiles(scaled, n=10)[8]
        log(f"item_p90_ms {p90} ms (n={len(scaled)})")
    else:
        log(f"item_p90_ms not reported: {len(scaled)} samples, fewer than ten "
            "beyond the 90th percentile")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def one_pass(runner: Runner, seed: int, recorder=None) -> float:
    """Generate the traced inputs, then carry each through its chain.

    Returns the pass time: input generation plus the command chains, both
    measured by this function's own clock reads.
    """
    count = TRACE_INPUTS[runner.workload]
    passdir = runner.workdir / "pass"
    passdir.mkdir()
    try:
        args = (runner.workload, seed, passdir, count)
        start = time.perf_counter()
        if recorder is None:
            inputs, _ = workloads.generate_inputs(*args)
        else:
            inputs, _ = recorder.span("bench.setup", "setup",
                                      workloads.generate_inputs, *args)
        total = time.perf_counter() - start
        for item in inputs:
            got = runner.one(item, recorder)
            if got is not None:
                total += got[0]
        return total
    finally:
        shutil.rmtree(passdir, ignore_errors=True)


def traced_run(runner: Runner, seed: int, seconds: float, spans_path: Path) -> tuple:
    """Pairs of untraced and traced passes over fixed inputs, for `seconds`.

    Returns (metrics, whether every traced pass's span self times add up
    to its time).  The root spans bench.setup and bench.input take all the
    time outside the wrapped functions, so the sum checks the span
    bookkeeping; bench.input.self_s shows how much of the work the wrapped
    functions leave uncovered.
    """
    recorder = spans.Recorder()
    plain, traced, self_s = [], [], []
    counts = None
    mismatched = 0
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(one_pass(runner, seed))
        recorder.install()
        try:
            traced.append(one_pass(runner, seed, recorder))
        finally:
            recorder.uninstall()
        times = recorder.self_times()
        self_s.append({name: s for name, (_, s) in times.items()})
        if counts is None:
            counts = dict(recorder.counters)
            counts.update({name: n for name, (n, _) in times.items()})
            recorder.write(spans_path)
        sum_self = sum(self_s[-1].values())
        if abs(sum_self - traced[-1]) > TRACE_TOLERANCE * traced[-1]:
            mismatched += 1
            log(f"error: span self times sum to {sum_self} s but the traced "
                f"pass took {traced[-1]} s")
        recorder.reset()
    log(f"{len(traced)} traced and untraced pass pairs; spans of the first "
        f"traced pass in {spans_path}")

    def ratio(part, whole):
        return counts.get(part, 0) / counts[whole] if counts.get(whole) else 0.0

    metrics = {
        "surface.vertex_orbits.repeat_ratio": ratio(
            "surface.vertex_orbits", "surface.vertex_orbits.distinct"),
        "degree_bound.match_pattern.hit_ratio": ratio(
            "degree_bound.match_pattern.hits", "degree_bound.match_pattern"),
        "trace.pass_s": statistics.median(traced),
        "trace.self_sum_s": statistics.median(sum(p.values()) for p in self_s),
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    }
    for name in PER_LAYER:
        if name in metrics:
            continue
        if name.endswith(".calls"):
            metrics[name] = counts.get(name.removesuffix(".calls"), 0)
        elif name.endswith(".self_s"):
            span = name.removesuffix(".self_s")
            metrics[name] = statistics.median(p.get(span, 0.0) for p in self_s)
        else:
            metrics[name] = counts.get(name, 0)
    return metrics, mismatched == 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = workloads.import_cli()
    import equilat

    log(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}")
    if args.workload == "census":
        log("census is exhaustive and takes no seed; --seed is ignored")
    log(f"equilat={equilat.__file__} src_sha256={source_digest()} "
        f"commit={git_commit()}")
    log(f"python={platform.python_version()} nproc={os.cpu_count()}")
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(cli, args.workload, workdir)
        consistent = True
        if args.trace:
            metrics, consistent = traced_run(
                runner, args.seed, args.seconds,
                WORK / f"spans-{args.workload}-{args.seed}.jsonl")
            units = PER_LAYER
        else:
            inputs, digest = workloads.generate_inputs(
                args.workload, args.seed, workdir, workloads.pool_size(args.workload))
            log(f"inputs={len(inputs)} input_sha256={digest[:16]}")
            metrics = timed_run(runner, inputs, args.seconds, functools.partial(
                probe_setup, args.workload, args.seed, digest))
            units = END_TO_END
            failed_ratio = runner.failed / runner.attempted
            log(f"failed_ratio {failed_ratio} ratio ({runner.failed} of "
                f"{runner.attempted})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, unit in units.items():
        if name in metrics:
            log(f"{name} {metrics[name]} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0 and consistent and len(metrics) == len(units),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
