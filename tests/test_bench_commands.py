"""The benchmark's command lines stay valid CLI calls.

perfbench/workloads.py is loaded read-only, the way the benchmark builds
its inputs, and every argv it times or records is parsed and run.
"""

import importlib.util
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
