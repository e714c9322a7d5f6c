#!/usr/bin/env python3
"""Where one benchmark workload spends its time: cProfile shares of ``cli.main``.

    python3 scripts/profile_workload.py --workload paper_grid --calls 3 --seed 17

Builds the workload's inputs for ``--seed`` with ``perfbench/workloads.py``,
which it loads read-only, in a temporary directory.  It runs one call
unprofiled, so that imports and caches are warm, then profiles ``--calls``
calls of ``robustmean.cli.main`` from this checkout's ``src``, cycling the
workload's reference command lines: the ``--jobs 1`` ones the benchmark's
reference outputs were recorded from.  The timed command lines may pass
``--jobs 2``, and cProfile sees only this process, not the time of the
replications a forked worker runs.  It prints, for each function of the package,
named by its module and qualified name (``estimators.Sample.__post_init__``),
its calls, its self time and its cumulative time as shares of the time
inside ``cli.main``, most expensive first.  cProfile does not see ufunc
calls, so ``np.float_power``, the engine's libm squaring, is timed through
a Python wrapper put in its place for the run and listed as
``np.float_power``.  cProfile adds a cost to every Python call, so read
the shares as where to look, and measure a change with ``bench_pairs.py``.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import cProfile
import functools
import importlib.util
import io
import pstats
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "robustmean"


def load_workloads():
    """``perfbench/workloads.py`` as a module, the way the benchmark loads it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


def profile_calls(main, calls: list[list[str]]) -> pstats.Stats:
    """Run ``main`` on each argv, all but the first under cProfile, with ``np.float_power`` timed through a wrapper."""
    ufunc = np.float_power

    def float_power(*args, **kwargs):
        return ufunc(*args, **kwargs)

    profiler = cProfile.Profile()
    np.float_power = float_power
    try:
        for i, argv in enumerate(calls):
            if i:
                profiler.enable()
            status = main(argv)
            profiler.disable()
            if status != 0:
                raise SystemExit(f"robustmean {' '.join(argv)} exited {status}")
    finally:
        np.float_power = ufunc
    return pstats.Stats(profiler)


# the names cProfile gives code that is not a def, which has no name of its own in the source
ANONYMOUS = {ast.Lambda: "<lambda>", ast.GeneratorExp: "<genexpr>", ast.ListComp: "<listcomp>",
             ast.SetComp: "<setcomp>", ast.DictComp: "<dictcomp>"}


@functools.cache
def qualified_names(path: Path) -> dict[int, str]:
    """Each function's ``__qualname__`` in the module at ``path``, keyed by the line cProfile reports for it.

    That is the line of its ``def``, or of its first decorator when it has one.
    A name that recurs in one scope, such as a second ``<dictcomp>``, gets ``#2``.
    """
    names = {}
    seen = Counter()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, *ANONYMOUS)):
                name = prefix + getattr(child, "name", ANONYMOUS.get(type(child)))
                seen[name] += 1
                if seen[name] > 1:
                    name += f"#{seen[name]}"
                names[(getattr(child, "decorator_list", None) or [child])[0].lineno] = name
                visit(child, f"{name}.<locals>.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return names


def shares(stats: pstats.Stats) -> tuple[float, list[tuple[str, int, float, float]]]:
    """The time inside ``cli.main`` and, per function of the package, (name, calls, self share, cumulative share).

    A function is named by its module and qualified name, ``estimators.Sample.__post_init__``.
    """
    rows = []
    total = None
    for (path, line, name), (_, calls, self_s, cumulative_s, _) in stats.stats.items():
        path = Path(path)
        if path == PACKAGE / "cli.py" and name == "main":
            total = cumulative_s
        if name == "float_power" and path == Path(__file__).resolve():
            rows.append(("np.float_power", calls, self_s, cumulative_s))
        elif path.parent == PACKAGE:
            rows.append((f"{path.stem}.{qualified_names(path).get(line, name)}", calls, self_s, cumulative_s))
    if not total:
        raise SystemExit("cli.main did not run under the profiler")
    rows.sort(key=lambda row: -row[3])
    return total, [(name, calls, self_s / total, cumulative_s / total) for name, calls, self_s, cumulative_s in rows]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--calls", type=int, default=3, help="profiled cli.main calls")
    parser.add_argument("--seed", type=int, required=True, help="workload seed, as perfbench/run.py takes it")
    parser.add_argument("--top", type=int, default=25, help="functions printed")
    args = parser.parse_args()
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    sys.path.insert(0, str(ROOT / "src"))
    from robustmean import cli

    with tempfile.TemporaryDirectory(prefix="profile-") as workdir:
        workload = workloads.build(args.workload, args.seed, Path(workdir))
        cycle = [list(argv) for argv in workload.reference_calls]
        # one warm-up call, then the profiled ones, cycling through the command lines;
        # what the calls print (estimate_cli's estimates) is dropped
        with contextlib.redirect_stdout(io.StringIO()):
            stats = profile_calls(cli.main, [cycle[i % len(cycle)] for i in range(args.calls + 1)])
    total, table = shares(stats)
    print(f"{args.workload}, seed {args.seed}: {args.calls} cli.main calls took {total:.3f} s under cProfile")
    width = max(len(row[0]) for row in table[: args.top])
    print(f"{'function':{width}} {'calls':>9} {'self':>7} {'cumulative':>11}")
    for name, calls, self_share, cumulative_share in table[: args.top]:
        print(f"{name:{width}} {calls:9d} {self_share:7.1%} {cumulative_share:11.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
