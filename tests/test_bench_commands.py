"""The benchmark's command lines stay valid CLI calls, and the profiling script runs them.

perfbench/workloads.py is loaded read-only, the way the benchmark builds
its inputs, and every argv it times or records is parsed and run.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from robustmean import cli

_SCRIPT = Path(__file__).parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _SCRIPT)
workloads = importlib.util.module_from_spec(_spec)
# its dataclass looks its module up by name
sys.modules[_spec.name] = workloads
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_benchmark_command_line_parses_and_runs(tmp_path, capsys, name):
    workload = workloads.build(name, 0, tmp_path)
    parser = cli.build_parser()
    for argv in workload.calls + workload.reference_calls:
        parser.parse_args(list(argv))
    for argv in workload.calls:
        assert cli.main(list(argv)) == 0, argv
    assert capsys.readouterr().err == ""


def profile(workload):
    """What ``scripts/profile_workload.py`` prints for one ``cli.main`` call of ``workload`` at seed 0, under warnings as errors."""
    script = Path(__file__).parents[1] / "scripts" / "profile_workload.py"
    argv = [sys.executable, "-W", "error::RuntimeWarning", str(script),
            "--workload", workload, "--calls", "1", "--seed", "0", "--top", "100"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def rows_of(lines):
    """Each function's printed columns, by its name."""
    return {line.split()[0]: line.split()[1:] for line in lines[2:]}


def test_profile_script_prints_each_functions_share_of_cli_main():
    lines = profile("estimate_cli")
    assert lines[0].startswith("estimate_cli, seed 0: 1 cli.main calls took")
    rows = rows_of(lines)
    assert rows["cli.main"] == ["1", rows["cli.main"][1], "100.0%"]
    # the call after the unprofiled first one is mom's, which squares once; the ufunc is seen through its wrapper
    assert rows["estimators.median_of_means"][0] == rows["estimators.block_summaries"][0] == rows["np.float_power"][0] == "1"
    # a method is named by its class, not by its line, which moves with every edit above it
    assert rows["estimators.Sample.__post_init__"][0] == "1"
    assert not any(":" in name for name in rows)


def test_profile_script_sees_one_scale_per_replication_of_the_adaptive_scan():
    rows = rows_of(profile("adaptive_scan"))
    reps = workloads.PARAMS["adaptive_scan"]["reps"]
    # two adaptive cells a replication, which share the scale the sample keeps
    assert int(rows["adaptive.robust_sigma"][0]) == int(rows["estimators.Sample._scale"][0]) == reps
    assert int(rows["adaptive.adaptive_k"][0]) == 2 * reps
