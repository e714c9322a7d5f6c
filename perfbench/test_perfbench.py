"""Tests of the benchmark itself: the output gate, the tracer and the inputs.

Run from the root of the repository:

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

REPO = Path(__file__).resolve().parents[1]
PROGRAM = run.load_program(REPO / "src")


def recorded_loop(name, workdir, seed=0):
    workload = workloads.build(name, seed, workdir)
    return workload, run.Loop(workload, workloads.load_reference(run.REFERENCE, name, seed))


def test_gate_counts_a_one_byte_csv_change_as_a_failure(tmp_path):
    workload, loop = recorded_loop("paper_grid", tmp_path)
    loop.run(PROGRAM.cli.main, calls=1)
    assert loop.failed == 0

    def main_with_one_byte_changed(argv):
        code = PROGRAM.cli.main(argv)
        data = bytearray(workload.out.read_bytes())
        data[-2] ^= 1  # last digit of the last row's base_seed
        workload.out.write_bytes(bytes(data))
        return code

    loop.run(main_with_one_byte_changed, calls=1)
    assert loop.failed == 1


def test_gate_counts_nonzero_exits_and_exceptions(tmp_path):
    _, loop = recorded_loop("estimate_cli", tmp_path)

    def raising(argv):
        raise RuntimeError("boom")

    loop.run(lambda argv: 1, calls=1)
    loop.run(raising, calls=1)
    assert loop.failed == 2 and len(loop.walls) == 2


def traced_cycle(name, workdir):
    """One cycle of the workload's calls, traced under a root span."""
    workdir.mkdir(exist_ok=True)
    workload, loop = recorded_loop(name, workdir)
    tracer = spans.Tracer()
    tracer.install(PROGRAM)
    try:
        main = tracer.wrap(PROGRAM.cli.main, "cli.main", "bench")
        tracer.wrap(loop.run, "bench.loop", "bench")(main, calls=len(workload.calls))
    finally:
        tracer.uninstall()
    assert loop.failed == 0
    return tracer.layer_metrics(workload.jobs)


@pytest.mark.parametrize("name", ["paper_grid", "estimate_cli"])
def test_self_times_sum_to_the_traced_wall(tmp_path, name):
    metrics = traced_cycle(name, tmp_path)
    self_total = metrics["trace.other_self_s"] + sum(metrics[f"{n}.self_s"] for n in spans.REPORTED)
    assert self_total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert all(metrics[f"{n}.wait_s"] >= 0 for n in spans.REPORTED)
    assert set(metrics) | {"trace.overhead_ratio"} == set(spans.metric_units())


def test_uninstall_restores_every_wrapped_function():
    before = {name: getattr(PROGRAM.estimators, name) for name in ("block_summaries", "partition", "estimate")}
    tracer = spans.Tracer()
    tracer.install(PROGRAM)
    assert PROGRAM.harness.block_summaries is not before["block_summaries"]
    tracer.uninstall()
    assert {name: getattr(PROGRAM.estimators, name) for name in before} == before
    assert PROGRAM.harness.block_summaries is before["block_summaries"]


def test_counts_come_from_the_arguments(tmp_path):
    grid = traced_cycle("paper_grid", tmp_path / "grid")
    reps = workloads.PARAMS["paper_grid"]["reps"]
    assert grid["estimators.block_summaries.calls"] == 4 * reps * 8
    assert grid["estimators.values_summarised"] == 4 * reps * 8 * 2500
    assert grid["datagen.values_drawn"] == 4 * reps * 2500
    assert grid["harness.summary_cache.use_ratio"] == 1
    assert grid["adaptive.adaptive_k.calls"] == 0

    scan = traced_cycle("adaptive_scan", tmp_path / "scan")
    assert scan["harness.summary_cache.use_ratio"] == 0
    assert scan["adaptive.scan_levels"] > 1
    assert 0 < scan["harness.pool.busy_ratio"] <= 1

    cli = traced_cycle("estimate_cli", tmp_path / "cli")
    size = (tmp_path / "cli" / "sample.txt").stat().st_size
    assert cli["cli.bytes_parsed"] == 5 * size
    assert cli["datagen.values_drawn"] == 0 and cli["harness.run_experiment.calls"] == 0


def snapshot(name, seed, workdir):
    workload = workloads.build(name, seed, workdir)
    files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
    calls = [[arg.replace(str(workdir), "") for arg in argv] for argv in workload.calls]
    return files, calls


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_repeat_for_one_seed_and_differ_across_seeds(tmp_path, name):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = snapshot(name, 7, dirs[0])
    assert snapshot(name, 7, dirs[1]) == first
    assert snapshot(name, 8, dirs[2]) != first


def test_reference_covers_every_call_of_a_recorded_seed(tmp_path):
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 255, tmp_path)
        assert len(workloads.load_reference(run.REFERENCE, name, 255)) == len(workload.calls)
    assert workloads.load_reference(run.REFERENCE, "paper_grid", 10**9) is None


def test_fails_without_printing_when_the_program_is_missing(tmp_path):
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    command = json.loads((REPO / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "estimate_cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_lists_exactly_the_reported_metrics():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.metric_units()
