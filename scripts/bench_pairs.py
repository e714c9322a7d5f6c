"""Run the benchmark on a parent revision and on this checkout, in alternating pairs.

    python3 scripts/bench_pairs.py --pr N --workload estimate_cli --pairs 10 --seed 17 --seconds 30

The parent's committed files are exported with ``git archive`` into a
temporary directory, which is removed afterwards.  Pair i runs
``perfbench/run.py`` on both trees, the parent first in even pairs and this
checkout first in odd ones.  Every result line is appended, as one session,
to ``BENCH_<pr>.json`` at the top of this checkout.  The summary gives, for
each metric, both sides' medians and quartiles, the change's wins and
whether it counts as a gain: wins in at least nine tenths of the pairs, ties
counting for neither, and medians further apart than the parent's
interquartile range.  Next to the verdict it prints that gap between the
medians, measured the better way, over the parent's interquartile range,
so a ``no`` shows which of the two rules failed.  Each end-to-end metric
also gets a regression column: ``worse`` when the change's median is worse
than the parent's by more than the metric's ``bound`` in BENCHMARK.json,
else ``unresolved`` when the parent's own interquartile range exceeds that
bound, else ``ok``.
In a traced session, each total (every ``*.calls`` metric and those in
:data:`TOTALS`) gets a second row, ``<total>/call``: the total divided by
the same run's ``cli.main.calls``.  A faster change fits more calls into
the timed loop, so its totals grow; its per-call rows stay the same while
the work per call does.
Stopped by SIGTERM or an interrupt, the script kills the running benchmark,
removes what it left, still writes the pairs already done and exits
nonzero.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# totals besides the ``*.calls`` metrics; each gets a row per cli.main call
TOTALS = ("estimators.values_summarised", "estimators.blocks_summarised", "datagen.values_drawn", "cli.bytes_parsed")
MAIN_CALLS = "cli.main.calls"
PER_CALL = "/call"
# the warning filter of every benchmark process, as tier-1 sets it for its tests
WARNING_GATE = "error::RuntimeWarning"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(revision: str, dest: Path) -> None:
    """The committed files of ``revision``, without a ``.git`` directory."""
    archive = subprocess.run(["git", "archive", "--format=tar", revision], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def bench(tree: Path, bench_args: list[str]) -> dict:
    """One run of the benchmark in ``tree``; its result line.

    The run has ``PYTHONWARNINGS=error::RuntimeWarning`` in its
    environment, and so has every Python process it starts, so a numpy
    warning inside a timed call fails that call, on either side.  The run
    is a process group of its own.  If this script stops before the run
    ends (a signal, an interrupt, the timeout), the whole group is killed
    and the ``.perfbench-*`` work directories it left in ``tree`` are
    removed.
    """
    workdirs = set(tree.glob(".perfbench-*"))
    env = {**os.environ, "PYTHONWARNINGS": WARNING_GATE}
    with subprocess.Popen([sys.executable, "perfbench/run.py", *bench_args], cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as child:
        try:
            stdout, stderr = child.communicate(timeout=3600)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):  # the group may have ended already
                os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            for workdir in set(tree.glob(".perfbench-*")) - workdirs:
                shutil.rmtree(workdir, ignore_errors=True)
            raise
    if child.returncode != 0:
        raise SystemExit(f"perfbench in {tree} exited with {child.returncode}:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def benchmark_spec() -> dict:
    """BENCHMARK.json, parsed."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def directions() -> dict[str, str]:
    """Metric name -> "higher" or "lower", as BENCHMARK.json declares it."""
    spec = benchmark_spec()
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def bounds() -> dict[str, float]:
    """End-to-end metric name -> the worsening BENCHMARK.json tolerates, as a fraction of the parent's median."""
    return {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}


def metric_name(key: str, table: dict[str, str]) -> str:
    # with --workload all a key carries the workload's name in front; a per-call row reads as its total
    key = key.removesuffix(PER_CALL)
    return key if key in table else key.split(".", 1)[-1]


def with_per_call(metrics: dict[str, float], table: dict[str, str]) -> dict[str, float]:
    """``metrics`` with each total followed by its ``/call`` row, over the ``cli.main.calls`` of its workload.

    A run without a trace has no ``cli.main.calls`` and gets no such rows.
    """
    out = {}
    for key, value in metrics.items():
        out[key] = value
        name = metric_name(key, table)
        calls = metrics.get(key[: len(key) - len(name)] + MAIN_CALLS)
        if calls and name != MAIN_CALLS and (name.endswith(".calls") or name in TOTALS):
            out[key + PER_CALL] = value / calls
    return out


def better(key: str, table: dict[str, str]) -> str | None:
    return table.get(metric_name(key, table))


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def gap(parent: list[float], change: list[float], direction: str) -> tuple[float, float]:
    """How far the change's median lies from the parent's, measured the better way, and the parent's interquartile range.

    ``direction`` says which way is better, "higher" or "lower"; a change
    that is worse gives a negative gap.
    """
    (pm, pq1, pq3), (cm, _, _) = spread(parent), spread(change)
    return cm - pm if direction == "higher" else pm - cm, pq3 - pq1


def verdict(parent: list[float], change: list[float], direction: str) -> tuple[int, bool]:
    """The change's wins over the parent, pair by pair, and whether they make a gain.

    ``direction`` says which way is better, "higher" or "lower".  A tie
    counts for neither side.  A gain needs wins in at least nine tenths of
    the pairs and a :func:`gap` wider than the parent's interquartile range.
    """
    sign = 1 if direction == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    moved, iqr = gap(parent, change, direction)
    return won, 10 * won >= 9 * len(parent) and moved > iqr


def regression(parent: list[float], change: list[float], direction: str, bound: float) -> str:
    """"worse", "unresolved" or "ok": whether the change's median keeps within ``bound`` of the parent's.

    ``bound`` is a fraction of the parent's median.  A change whose median
    is worse by more than that is "worse".  Otherwise, when the parent's
    interquartile range is wider than the bound, the runs cannot show a
    worsening of that size, and the metric is "unresolved" unless every run
    of the change reads better than every run of the parent.
    """
    sign = 1 if direction == "higher" else -1
    (pm, pq1, pq3), (cm, _, _) = spread(parent), spread(change)
    if sign * (pm - cm) > bound * abs(pm):
        return "worse"
    if pq3 - pq1 > bound * abs(pm) and not all(sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved"
    return "ok"


def summarise(pairs: list[dict]) -> None:
    table, limits = directions(), bounds()
    for side in ("parent", "change"):
        failed = sum(p[side]["failed"] for p in pairs)
        attempted = sum(p[side]["attempted"] for p in pairs)
        print(f"{side}: {failed} of {attempted} calls failed")
    runs = [{side: with_per_call({k: m["value"] for k, m in p[side]["metrics"].items()}, table)
             for side in ("parent", "change")} for p in pairs]
    keys = [k for k in runs[0]["parent"] if all(k in run[side] for run in runs for side in run)]
    width = max(44, *map(len, keys))
    print(f"{'metric':{width}} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} {'ratio':>7} {'wins':>6}  gain"
          f"  {'gap / parent IQR':21}  regression")
    for key in keys:
        parent = [run["parent"][key] for run in runs]
        change = [run["change"][key] for run in runs]
        (pm, pq1, pq3), (cm, cq1, cq3) = spread(parent), spread(change)
        ratio = f"{cm / pm:7.3f}" if pm else f"{'-':>7}"
        direction, bound = better(key, table), limits.get(metric_name(key, table))
        if direction is None:
            wins, gain, moved = "?", "?", "?"
        else:
            won, gained = verdict(parent, change, direction)
            wins, gain = f"{won}/{len(pairs)}", "yes" if gained else "no"
            moved = "{:9.4g} / {:<9.4g}".format(*gap(parent, change, direction))
        regressed = "-" if direction is None or bound is None else regression(parent, change, direction, bound)
        print(f"{key:{width}} {pm:12.6g} [{pq1:8.4g}, {pq3:8.4g}] {cm:12.6g} [{cq1:8.4g}, {cq3:8.4g}] {ratio} {wins:>6}  "
              f"{gain:4}  {moved:21}  {regressed}")


def dumps(record: dict) -> str:
    """The record as JSON, one pair of result lines per line of text."""
    sessions = []
    for session in record["sessions"]:
        head = json.dumps({k: v for k, v in session.items() if k != "pairs"})
        pairs = ",\n".join("    " + json.dumps(pair) for pair in session["pairs"])
        sessions.append(f'{head[:-1]}, "pairs": [\n{pairs}\n  ]}}')
    return f'{{"what": {json.dumps(record["what"])}, "sessions": [\n  ' + ",\n  ".join(sessions) + "\n]}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="names the output file, BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD", help="revision to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    parent_commit = git("rev-parse", "--short", args.parent)
    head = git("rev-parse", "--short", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    session = {
        "command": "python3 perfbench/run.py " + " ".join(bench_args),
        "parent": parent_commit,
        "change": f"working tree at {head}" + (" with uncommitted edits" if dirty else ""),
        "machine": f"{os.cpu_count()} cores, {platform.system()}, Python {platform.python_version()}, "
                   f"{' '.join(platform.libc_ver())}",
        "pairs": [],
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    record = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {
        "what": "Result lines of perfbench/run.py on a parent commit and on the change, run in alternating "
                "pairs on one machine by scripts/bench_pairs.py; one session per invocation.",
        "sessions": [],
    }
    # a SIGTERM unwinds like an exception: the running benchmark is killed,
    # the exported tree removed and the pairs already done written
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parent_tree = Path(tempfile.mkdtemp(prefix="bench-parent-"))
    try:
        export(parent_commit, parent_tree)
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = bench(parent_tree if side == "parent" else ROOT, bench_args)
            session["pairs"].append(pair)
            print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)
        if session["pairs"]:
            record["sessions"].append(session)
            out.write_text(dumps(record), encoding="utf-8")
    summarise(session["pairs"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
