"""Benchmark for robustmean: three workloads against ``robustmean.cli.main``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

``--workload`` is ``paper_grid``, ``adaptive_scan``, ``estimate_cli`` or
``all`` (each workload in its own process, one after the other).  With
``--trace 0`` the CLI runs in process and untraced, and the end-to-end
metrics are reported.  With ``--trace 1`` half the time runs untraced, the
same calls run again under the span tracer, and the per-layer metrics are
reported.  Every call's output is checked against the reference recorded in
``reference.json``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 21
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import robustmean; print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "reps_per_s": "1/s",
    "calls_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
# Printed but left out of the result line: on a shared machine their run to
# run spread is wider than any bound BENCHMARK.json may set (see NOTES.md).
LATENCY_UNITS = {"call_p50_ms": "ms", "call_p90_ms": "ms"}


def load_program(src: Path):
    """Import robustmean from the checkout's ``src``, never from elsewhere."""
    if not (src / "robustmean" / "__init__.py").is_file():
        raise SystemExit(f"no robustmean package under {src}; run from the root of a checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import robustmean
    import robustmean.cli

    if Path(robustmean.__file__).resolve().parent != (src / "robustmean").resolve():
        raise SystemExit(f"robustmean was imported from {robustmean.__file__}, not from {src}")
    return robustmean


def setup_seconds(src: Path) -> float:
    """Median time to import robustmean in a fresh interpreter."""
    times = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-E", "-c", IMPORT_PROBE, str(src)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


class Loop:
    """One caller running a workload's command lines in a closed loop.

    Each call is timed from the moment ``main`` is entered to its return.
    A call fails on an exception, a nonzero exit code or an output whose
    digest differs from the reference.
    """

    def __init__(self, workload: workloads.Workload, expected: list[str | None]):
        self.workload = workload
        self.expected = expected
        self.walls: list[float] = []
        self.failed = 0

    def call(self, main, argv, expected: str | None) -> str | None:
        """Run one command line; its output digest, or None when it failed."""
        if self.workload.out is not None:
            # Rewriting a file written moments ago makes ext4 flush it first,
            # which adds tens of ms of disk time to a call; start fresh instead.
            self.workload.out.unlink(missing_ok=True)
        stdout = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv))
        except Exception:  # noqa: BLE001 - any exception is a failed operation
            code = None
        self.walls.append(time.perf_counter() - start)
        digest = self.workload.digest(stdout.getvalue()) if code == 0 else None
        if digest is None or digest != expected:
            self.failed += 1
        return digest

    def run(self, main, seconds: float | None = None, calls: int | None = None) -> None:
        """Whole cycles (two at least) until ``seconds`` have passed, or exactly ``calls`` calls."""
        cycle = self.workload.calls
        deadline = time.perf_counter() + (seconds or 0.0)
        done = 0
        while True:
            index = done % len(cycle)
            if calls is not None and done == calls:
                return
            if calls is None and index == 0 and done >= 2 * len(cycle) and time.perf_counter() >= deadline:
                return
            self.call(main, cycle[index], self.expected[index])
            done += 1


def end_to_end(loop: Loop, workload: workloads.Workload, setup_s: float) -> dict[str, float]:
    """Rates from the fastest cycle, latencies from every call.

    A cycle is one pass over the workload's command lines.  Other tenants of
    the machine slow it in bursts, so the fastest of the run's cycles is the
    steadiest measure of what the program costs; the percentiles keep what
    a caller saw.
    """
    walls = loop.walls
    per_cycle = len(workload.calls)
    cycle = min(sum(walls[i:i + per_cycle]) for i in range(0, len(walls), per_cycle))
    return {
        "setup_s": setup_s,
        "wall_s": cycle,
        "reps_per_s": per_cycle * workload.reps_per_call / cycle,
        "calls_per_s": per_cycle / cycle,
        "call_p50_ms": statistics.median(walls) * 1e3,
        "call_p90_ms": statistics.quantiles(walls, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(loop: Loop, program, workload: workloads.Workload, seconds: float) -> dict[str, float]:
    """Untraced for half the time, then the same calls traced; per-layer metrics."""
    loop.run(program.cli.main, seconds=seconds / 2)
    untraced_wall, count = sum(loop.walls), len(loop.walls)
    tracer = spans.Tracer()
    tracer.install(program)
    main = tracer.wrap(program.cli.main, "cli.main", "bench")
    try:
        tracer.wrap(loop.run, "bench.loop", "bench")(main, calls=count)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(workload.jobs)
    metrics["trace.overhead_ratio"] = sum(loop.walls[count:]) / untraced_wall
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    root = Path.cwd()
    program = load_program(root / "src")
    setup_s = None if trace else setup_seconds(root / "src")
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        workload = workloads.build(name, seed, workdir)
        expected = workloads.load_reference(REFERENCE, name, seed)
        source = "recorded"
        if expected is None:
            # An unrecorded seed can only be checked for agreement with the
            # single-threaded run and across repeated calls.
            source = "single-threaded run of this checkout (seed not recorded)"
            reference = Loop(workload, [])
            expected = [reference.call(program.cli.main, argv, None) for argv in workload.reference_calls]
        loop = Loop(workload, expected)
        loop.run(program.cli.main, calls=len(workload.calls))  # warm-up, checked but not timed
        warmup_failed = loop.failed
        loop.walls.clear()
        if trace:
            metrics = traced(loop, program, workload, seconds)
            units = spans.metric_units()
        else:
            loop.run(program.cli.main, seconds=seconds)
            metrics = end_to_end(loop, workload, setup_s)
            units = END_TO_END_UNITS | LATENCY_UNITS
        attempted = len(loop.walls) + len(workload.calls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload={name} seed={seed} trace={int(trace)} jobs={workload.jobs} reference: {source}")
    print(f"  failed_ratio = {loop.failed / attempted:.6g} ({loop.failed} of {attempted} calls, warm-up failures {warmup_failed})")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    return {
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items() if key not in LATENCY_UNITS
        },
    }


def run_all(args) -> dict:
    """Each workload in a process of its own, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            raise SystemExit(f"workload {name} exited with {done.returncode}:\n{done.stderr}")
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="robustmean benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
