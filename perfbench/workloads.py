"""The benchmark's workloads: inputs made from a seed, and the output gate.

Every input is generated here with plain numpy from the workload seed; the
program under test only ever sees the resulting argument lists and files.
A workload is a cycle of ``robustmean`` command lines that one caller runs
in a closed loop (the next call starts when the previous one returns).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("paper_grid", "adaptive_scan", "estimate_cli")

# Every value that shapes a workload's inputs.  The recorded reference
# outputs are only valid for these values, so reference.json stores a copy
# and the benchmark refuses to gate against a table made with other ones.
PARAMS = {
    "paper_grid": {"reps": 25, "outlier_levels": 4},
    "adaptive_scan": {
        "reps": 16,
        "N": 16384,
        "df": 4.0,
        "outliers": 80,
        "outlier_value": 1e5,
        "k_grid": [32],
    },
    "estimate_cli": {
        "lines": 20000,
        "df": 4.0,
        "outliers": 20,
        "outlier_value": 1e5,
        "argument_sets": [
            ["--estimator", "weighted", "--k", "50", "--p", "2"],
            ["--estimator", "mom", "--k", "50"],
            ["--estimator", "trimmed", "--epsilon", "0.005"],
            ["--estimator", "adaptive", "--p", "2", "--C", "0.5"],
            ["--estimator", "weighted", "--k", "4000", "--p", "1"],
        ],
    },
}


def worker_count() -> int:
    """Threads for the parallel workload: two, or fewer on a smaller machine."""
    return min(2, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Workload:
    """A cycle of command lines plus what it takes to check their output.

    ``calls`` is what the benchmark times.  ``reference_calls`` produce the
    same output single-threaded, and are what reference.json was made from.
    ``out`` is the file the simulation subcommands write (None when the
    result goes to stdout).
    """

    name: str
    calls: tuple[tuple[str, ...], ...]
    reference_calls: tuple[tuple[str, ...], ...]
    reps_per_call: int
    jobs: int
    out: Path | None

    def digest(self, stdout: str) -> str:
        """What the gate compares: the CSV's sha256, or the printed estimate."""
        if self.out is None:
            return stdout.strip()
        return hashlib.sha256(self.out.read_bytes()).hexdigest()


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    rng = _rng(seed, name)
    params = PARAMS[name]
    if name == "paper_grid":
        out = workdir / "grid.csv"
        base_seed = int(rng.integers(2**32))
        call = ("paper-figures", "--jobs", "1", "--seed", str(base_seed),
                "--reps", str(params["reps"]), "--out", str(out))
        return Workload(name, (call,), (call,), params["reps"] * params["outlier_levels"], 1, out)
    if name == "adaptive_scan":
        out = workdir / "scan.csv"
        config = workdir / "scan.json"
        config.write_text(json.dumps({
            "schema_version": 1,
            "N": params["N"],
            "distribution": {"kind": "half_t", "df": params["df"]},
            "contamination": {"count": params["outliers"], "value": params["outlier_value"]},
            "k_grid": params["k_grid"],
            "estimators": [
                {"kind": "adaptive", "p": 2.0, "contamination_bound": 0.5},
                {"kind": "adaptive", "p": 1.0, "contamination_bound": 0.5},
                {"kind": "trimmed", "epsilon": 0.005},
            ],
            "replications": params["reps"],
            "base_seed": int(rng.integers(2**32)),
        }), encoding="ascii")
        jobs = worker_count()
        head = ("simulate", "--config", str(config), "--out", str(out), "--jobs")
        return Workload(name, (head + (str(jobs),),), (head + ("1",),), params["reps"], jobs, out)
    if name == "estimate_cli":
        data = workdir / "sample.txt"
        values = np.abs(rng.standard_t(params["df"], params["lines"]))
        values[rng.choice(values.size, params["outliers"], replace=False)] = params["outlier_value"]
        lines = [f"# estimate_cli input, seed {seed}"] + [repr(float(v)) for v in values]
        data.write_text("\n".join(lines) + "\n", encoding="ascii")
        calls = tuple(("estimate", str(data), *args) for args in params["argument_sets"])
        return Workload(name, calls, calls, 1, 1, None)
    raise ValueError(f"unknown workload {name!r}")


def load_reference(path: Path, name: str, seed: int) -> list[str] | None:
    """Recorded outputs for (workload, seed), or None when that seed was not recorded."""
    table = json.loads(path.read_text(encoding="ascii"))
    if table["params"] != PARAMS:
        raise RuntimeError(f"{path} was recorded for other workload parameters; record it again")
    return table["seeds"].get(str(seed), {}).get(name)
