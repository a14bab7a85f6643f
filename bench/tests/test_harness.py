"""BENCHMARK.json agrees with run.py, and tracing leaves no trace behind."""

import sys

import equilat.cli
import equilat.surface
import run
import spans
import workloads


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_every_wrapped_function_has_a_metric():
    for layer, functions in spans.LAYERS.items():
        for fn in functions:
            assert f"{layer}.{fn}.self_s" in run.PER_LAYER


def test_spans_nest_and_self_times_add_up(tmp_path):
    cli = workloads.import_cli()
    original = equilat.surface.vertex_orbits
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert equilat.cli.vertex_orbits is not original
        assert equilat.cli.vertex_orbits is equilat.surface.vertex_orbits
        inputs, _ = recorder.span("bench.setup", "setup", workloads.generate_inputs,
                                  "degree_bound", 3, tmp_path, 1)
        seconds, _ = recorder.span("bench.input", 0, workloads.run_chain, cli,
                                   "degree_bound", inputs[0], tmp_path / "out")
    finally:
        recorder.uninstall()
    assert equilat.cli.vertex_orbits is original
    for name, module in list(sys.modules.items()):
        if name.startswith("equilat"):
            assert not any(hasattr(v, "__wrapped__") for v in vars(module).values())
    times = recorder.self_times()
    roots = [s for s in recorder.spans if s[3] < 0]
    assert [s[0] for s in roots] == ["bench.setup", "bench.input"]
    assert abs(sum(t for _, t in times.values())
               - sum(end - start for _, start, end, _, _ in roots)) < 1e-9
    assert times["cli.main"][0] == 1
    assert recorder.counters["degree_bound.stars_replaced"] >= 0
    assert times["surface.vertex_orbits"][0] > recorder.counters[
        "surface.vertex_orbits.distinct"] > 0


def test_a_failed_input_is_counted_and_the_run_goes_on(tmp_path):
    cli = workloads.import_cli()
    inputs, _ = workloads.generate_inputs("degree_bound", 3, tmp_path, 1)
    broken = tmp_path / "broken.tsf"
    broken.write_text("tsf v1\nT 2\ng 0 3\n")  # open surface: degree-bound refuses it
    runner = run.Runner(cli, "degree_bound", tmp_path)
    assert runner.one(workloads.Input(1, "T=2", (str(broken),))) is None
    seconds, items = runner.one(inputs[0])
    assert seconds > 0 and items == 1
    assert (runner.attempted, runner.failed) == (2, 1)
