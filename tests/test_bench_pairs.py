"""The gain rule of scripts/bench_pairs.py, which judges alternating benchmark runs."""

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# quartiles 99.25 and 100.75 (inclusive method), so an IQR of 1.5 around a median of 100
PARENT = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def shifted(by, ties=0):
    """PARENT moved by ``by``, except its first ``ties`` runs."""
    return PARENT[:ties] + [v + by for v in PARENT[ties:]]


@pytest.mark.parametrize(
    "change, direction, want",
    [
        (shifted(+10), "higher", (10, True)),
        (shifted(-10), "higher", (0, False)),
        (shifted(-10), "lower", (10, True)),
        (shifted(+10), "lower", (0, False)),
        # every pair won, but the medians sit within the parent's interquartile range
        (shifted(+1), "higher", (10, False)),
        (shifted(-1), "lower", (10, False)),
        # ties count for neither side: 9 wins of 10 pass, 8 do not
        (shifted(+10, ties=1), "higher", (9, True)),
        (shifted(+10, ties=2), "higher", (8, False)),
        (shifted(-10, ties=1), "lower", (9, True)),
        (shifted(-10, ties=2), "lower", (8, False)),
        (list(PARENT), "higher", (0, False)),
    ],
    ids=["higher-up", "higher-down", "lower-down", "lower-up", "higher-in-iqr", "lower-in-iqr",
         "higher-1-tie", "higher-2-ties", "lower-1-tie", "lower-2-ties", "all-ties"],
)
def test_verdict_counts_wins_and_needs_nine_tenths_beyond_the_parent_iqr(change, direction, want):
    assert bench_pairs.verdict(PARENT, change, direction) == want


@pytest.mark.parametrize(
    "change, direction, want",
    [
        (shifted(+10), "higher", (10.0, 1.5)),
        (shifted(+10), "lower", (-10.0, 1.5)),
        (shifted(-1), "lower", (1.0, 1.5)),
        # two ties: the change's median is (109 + 110) / 2
        (shifted(+10, ties=2), "higher", (9.5, 1.5)),
    ],
    ids=["higher-up", "lower-up", "lower-in-iqr", "higher-2-ties"],
)
def test_gap_is_the_median_move_the_better_way_and_the_parent_iqr(change, direction, want):
    assert bench_pairs.gap(PARENT, change, direction) == want


def result(metric_value):
    return {"failed": 0, "attempted": 1, "metrics": {"reps_per_s": {"value": metric_value, "unit": "1/s"}}}


@pytest.mark.parametrize(
    "change, wins, gain, shown",
    [
        # the gap clears the IQR, but 8 wins of 10 do not make a gain
        (shifted(+10, ties=2), "8/10", "no", "9.5 / 1.5"),
        # every pair won, but the gap stays inside the IQR
        (shifted(+1), "10/10", "no", "1 / 1.5"),
        (shifted(+10), "10/10", "yes", "10 / 1.5"),
    ],
    ids=["wins-fail", "iqr-fails", "gain"],
)
def test_summary_prints_the_gap_over_the_parent_iqr_next_to_the_gain(capsys, change, wins, gain, shown):
    bench_pairs.summarise([{"parent": result(p), "change": result(c)} for p, c in zip(PARENT, change)])
    out = capsys.readouterr().out.splitlines()
    assert "gain  gap / parent IQR" in out[2]
    row = out[3].split()
    assert row[0] == "reps_per_s" and row[-6:] == [wins, gain, *shown.split(), "ok"]


def traced(calls, bytes_per_call, prefix):
    metrics = {"cli.main.calls": (calls, "count"), "cli.bytes_parsed": (calls * bytes_per_call, "bytes"),
               "trace.wall_s": (10.0, "s")}
    return {"failed": 0, "attempted": calls,
            "metrics": {prefix + key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}}


@pytest.mark.parametrize("prefix", ["", "estimate_cli."], ids=["one-workload", "all-workloads"])
def test_per_call_rows_read_ratio_one_when_a_change_runs_more_calls_of_the_same_work(capsys, prefix):
    pairs = [{"parent": traced(100, 4096, prefix), "change": traced(120, 4096, prefix)} for _ in range(3)]
    bench_pairs.summarise(pairs)
    rows = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()[3:]}
    # the ratio is the seventh column from the right
    assert rows[prefix + "cli.bytes_parsed"][-7] == "1.200"
    assert prefix + "cli.main.calls/call" not in rows
    assert rows[prefix + "cli.bytes_parsed/call"][-7] == "1.000"
    assert rows[prefix + "cli.bytes_parsed/call"][1] == "4096"
    assert prefix + "trace.wall_s/call" not in rows


def test_untraced_runs_get_no_per_call_rows():
    table = bench_pairs.directions()
    metrics = {"reps_per_s": 700.0, "estimators.block_summaries.calls": 50.0}
    assert bench_pairs.with_per_call(metrics, table) == metrics


# quartiles 85 and 115 around a median of 100: an IQR of 30%, wider than a bound of 5%
WIDE = [70.0, 85.0, 100.0, 115.0, 130.0]


@pytest.mark.parametrize(
    "parent, change, direction, want",
    [
        (PARENT, shifted(-6), "higher", "worse"),
        (PARENT, shifted(-4), "higher", "ok"),
        (PARENT, shifted(+6), "lower", "worse"),
        (PARENT, shifted(+4), "lower", "ok"),
        (PARENT, shifted(+30), "higher", "ok"),
        # the parent's spread hides a worsening of the bound's size
        (WIDE, [v - 2.0 for v in WIDE], "higher", "unresolved"),
        (WIDE, [v + 10.0 for v in WIDE], "higher", "unresolved"),
        # ... unless every run of the change beats every run of the parent
        (WIDE, [131.0, 140.0, 150.0, 135.0, 132.0], "higher", "ok"),
        (WIDE, [69.0, 60.0, 50.0, 65.0, 68.0], "lower", "ok"),
        # a worse median is worse whatever the spread
        (WIDE, [v - 10.0 for v in WIDE], "higher", "worse"),
        (WIDE, [v + 10.0 for v in WIDE], "lower", "worse"),
    ],
    ids=["higher-worse", "higher-within", "lower-worse", "lower-within", "higher-better", "wide-within",
         "wide-better-median", "wide-all-better-higher", "wide-all-better-lower", "wide-worse-higher", "wide-worse-lower"],
)
def test_regression_is_worse_beyond_the_bound_and_unresolved_under_a_wide_parent(parent, change, direction, want):
    assert bench_pairs.regression(parent, change, direction, 0.05) == want


def test_bounds_cover_the_end_to_end_metrics_only():
    limits = bench_pairs.bounds()
    table = bench_pairs.directions()
    assert set(limits) == {"setup_s", "wall_s", "reps_per_s", "calls_per_s", "peak_rss_mb"}
    assert all(0.0 < bound < 1.0 for bound in limits.values())
    assert limits.get(bench_pairs.metric_name("paper_grid.peak_rss_mb", table)) == limits["peak_rss_mb"]
    # a per-layer wall time is not the end-to-end one, though its last part is the same name
    assert limits.get(bench_pairs.metric_name("trace.wall_s", table)) is None
    assert limits.get(bench_pairs.metric_name("paper_grid.trace.wall_s", table)) is None


def test_directions_come_from_benchmark_json_with_or_without_a_workload_prefix():
    table = bench_pairs.directions()
    assert bench_pairs.better("adaptive_scan.reps_per_s", table) == "higher"
    assert bench_pairs.better("peak_rss_mb", table) == "lower"
    assert bench_pairs.better("paper_grid.estimators.block_summaries.calls", table) == "lower"
    assert bench_pairs.better("no_such_metric", table) is None


# A stand-in for perfbench/run.py: quick on the first pair, then a slow run
# that leaves a work directory and a grandchild, and records both pids.  It
# fails at once without the warning gate in its environment.
STUB_RUN = """
import json, os, subprocess, sys, tempfile, time
from pathlib import Path
if os.environ.get("PYTHONWARNINGS") != "error::RuntimeWarning":
    sys.exit("run without the RuntimeWarning gate")
state = Path(os.environ["STUB_STATE"])
with open(state / "calls", "a") as calls:
    calls.write("call\\n")
if len((state / "calls").read_text().splitlines()) > 2:
    tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
    grandchild = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(120)"])
    (state / "pids.tmp").write_text(f"{os.getpid()} {grandchild.pid}")
    (state / "pids.tmp").rename(state / "pids")
    time.sleep(120)
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}))
"""


def running(pid: int) -> bool:
    """Whether ``pid`` is a live process; a zombie has ended."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_sigterm_kills_the_benchmark_removes_its_directories_and_keeps_the_pairs_done(tmp_path):
    repo, state, tmp = tmp_path / "repo", tmp_path / "state", tmp_path / "tmp"
    for directory in (repo / "scripts", repo / "perfbench", state, tmp):
        directory.mkdir(parents=True)
    shutil.copy(_SCRIPT, repo / "scripts")
    (repo / "perfbench" / "run.py").write_text(STUB_RUN)
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "stub"], cwd=repo, check=True)
    env = {**os.environ, "STUB_STATE": str(state), "TMPDIR": str(tmp)}
    script = subprocess.Popen(
        [sys.executable, "scripts/bench_pairs.py", "--pr", "T", "--pairs", "3", "--seed", "1", "--seconds", "1"],
        cwd=repo, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not (state / "pids").exists():
            assert script.poll() is None and time.monotonic() < deadline, script.communicate()
            time.sleep(0.05)
        pids = [int(pid) for pid in (state / "pids").read_text().split()]
        script.send_signal(signal.SIGTERM)
        script.communicate(timeout=60)
    finally:
        script.kill()
    assert script.returncode != 0
    assert not [pid for pid in pids if running(pid)]
    assert not list(tmp.iterdir())  # the exported parent tree, bench-parent-*
    assert not list(repo.glob(".perfbench-*"))
    record = json.loads((repo / "BENCH_T.json").read_text())
    assert [len(session["pairs"]) for session in record["sessions"]] == [1]
