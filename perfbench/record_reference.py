"""Record the reference outputs that the benchmark's output gate compares against.

Run from the root of a checkout whose program output is the accepted one:

    python3 perfbench/record_reference.py

For every seed in 0-255 and every workload, each reference
command line (single-threaded) runs once in process; the sha256 of each CSV
and each printed estimate go to perfbench/reference.json together with the
workload parameters they were made with.
"""

from __future__ import annotations

import json
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import run
import workloads

SEEDS = 256


def record_seed(seed: int) -> dict[str, list[str]]:
    root = Path.cwd()
    program = run.load_program(root / "src")
    outputs = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as workdir:
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, seed, Path(workdir))
            loop = run.Loop(workload, [])
            outputs[name] = [loop.call(program.cli.main, argv, None) for argv in workload.reference_calls]
            if None in outputs[name]:
                raise RuntimeError(f"{name} seed {seed}: a reference call failed")
    return outputs


def main() -> int:
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        recorded = list(pool.map(record_seed, range(SEEDS)))
    # one line per seed keeps the file diffable
    seeds = ",\n".join(f'  "{seed}": {json.dumps(out, sort_keys=True)}' for seed, out in enumerate(recorded))
    text = f'{{\n "params": {json.dumps(workloads.PARAMS, sort_keys=True)},\n "seeds": {{\n{seeds}\n }}\n}}\n'
    run.REFERENCE.write_text(text, encoding="ascii")
    print(f"recorded seeds 0-{SEEDS - 1} into {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
