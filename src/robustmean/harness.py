"""Monte-Carlo harness: experiment configs, deterministic replication, emitters.

A replication draws one sample, corrupts it once, and feeds the same
values to every (estimator, block count) cell.  RNG streams are derived
from (base_seed, purpose, replication), so a replication's results do
not depend on which replications ran before it.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .adaptive import ROBUST_SIGMA_MIN_N, ScaleEstimate, robust_sigma
from .datagen import DISTRIBUTION_FIELDS, ContaminationSpec, DistributionSpec, contaminate, sample
from .estimators import (
    ESTIMATOR_FIELDS,
    BlockPartition,
    BlockSummaries,
    EstimatorSpec,
    Sample,
    _trim_cut,
    block_summaries,
    estimate,
    finite_or_too_large,
    is_int,
    median_of_means,
    partition,
    weighted_mean,
)
from .seeding import substream_seed

SCHEMA_VERSION = 1
JOBS_PROBLEM = "jobs: must be at least 1"

# the benchmark grid exercised by the `paper-figures` subcommand
FIGURE_SAMPLE_SIZE = 2500
FIGURE_K_GRID = (25, 50, 75, 100, 125, 150, 175, 200)
FIGURE_OUTLIER_GRID = (0, 50, 100, 150)
FIGURE_OUTLIER_VALUE = 1000.0
FIGURE_DEFAULT_SEED = 20081217
FIGURE_DEFAULT_REPLICATIONS = 1000

# The fields an `estimators` entry may set for each kind: the grid supplies k,
# so entries that differ only in k would give the same rows.
ENTRY_FIELDS = {kind: tuple(name for name in fields if name != "k") for kind, fields in ESTIMATOR_FIELDS.items()}

CSV_COLUMNS = (
    "estimator",
    "p",
    "k",
    "O",
    "N",
    "replications",
    "mean_error",
    "mean_abs_error",
    "rescaled_sd",
    "max_abs_error",
    "base_seed",
)


class ConfigError(Exception):
    """Invalid experiment configuration; ``errors`` lists every violation."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulation: a distribution, a contamination level, and a cell grid."""

    n: int
    distribution: DistributionSpec
    contamination: ContaminationSpec
    k_grid: tuple[int, ...]
    estimators: tuple[EstimatorSpec, ...]
    replications: int
    base_seed: int


@dataclass(frozen=True)
class AggregateMetrics:
    """Error summaries over the replications of one cell.

    ``rescaled_sd`` is sqrt(n) times the spread of the estimates, the
    scale on which a CLT-like estimator shows a constant.  The spread
    uses the 1/R normalisation so a single replication reports 0.
    """

    mean_error: float
    mean_abs_error: float
    rescaled_sd: float
    max_abs_error: float
    replications: int


@dataclass(frozen=True)
class ResultRow:
    estimator: str
    p: float | None
    k: int
    outliers: int
    n: int
    metrics: AggregateMetrics
    base_seed: int


def _row_key(row: ResultRow) -> tuple:
    return (row.estimator, row.k, row.outliers, -math.inf if row.p is None else row.p)


@dataclass(frozen=True)
class ExperimentTable:
    """Result rows plus a small lookup helper for tests and reports."""

    rows: tuple[ResultRow, ...]

    def metrics(
        self,
        estimator: str,
        k: int | None = None,
        outliers: int | None = None,
        p: float | None = None,
    ) -> AggregateMetrics:
        hits = [
            row
            for row in self.rows
            if row.estimator == estimator
            and (k is None or row.k == k)
            and (outliers is None or row.outliers == outliers)
            and (p is None or row.p == p)
        ]
        if len(hits) != 1:
            raise KeyError(
                f"{len(hits)} rows match estimator={estimator!r}, k={k}, outliers={outliers}, p={p}"
            )
        return hits[0].metrics


def validate_spec(spec: ExperimentSpec) -> list[str]:
    """Every violated field, one message each; empty when the spec is sound.  Booleans are not integers."""
    problems: list[str] = []
    n_ok = is_int(spec.n) and spec.n >= 1
    if not n_ok:
        problems.append("N: must be a positive integer")
    if not (is_int(spec.replications) and spec.replications >= 1):
        problems.append("replications: must be a positive integer")
    elif isinstance(spec.k_grid, (tuple, list)):
        # run_experiment's errors array, a float64 per replication, estimator and k
        size = 8 * spec.replications * len(spec.estimators) * len(spec.k_grid)
        if size > sys.maxsize:
            problems.append(f"replications: {spec.replications} need {size} bytes of errors, "
                            f"more than the {sys.maxsize} this platform can address")
    if not (is_int(spec.base_seed) and 0 <= spec.base_seed < 2**64):
        problems.append("base_seed: must be an integer in [0, 2**64)")
    if not isinstance(spec.k_grid, (tuple, list)) or not spec.k_grid:
        problems.append("k_grid: must be a non-empty array of integers")
    else:
        for k in spec.k_grid:
            if not is_int(k):
                problems.append(f"k_grid: {k!r} is not an integer")
            elif n_ok and not 1 <= k <= spec.n:
                problems.append(f"k_grid: k={k} outside 1..{spec.n}")
        ks = [k for k in spec.k_grid if is_int(k)]
        for k in dict.fromkeys(k for k in ks if ks.count(k) > 1):
            problems.append(f"k_grid: k={k} repeated")
    if not spec.estimators:
        problems.append("estimators: must not be empty")
    seen: dict[tuple, int] = {}
    for index, est in enumerate(spec.estimators):
        entry = {"kind": est.kind, **{name: getattr(est, name) for name in ENTRY_FIELDS[est.kind]}}
        first = seen.setdefault(tuple(entry.items()), index)
        if first != index:
            problems.append(f"estimators[{index}]: repeats estimators[{first}] {entry}")
        # sizes that would only fail partway through a run
        if n_ok and est.kind == "adaptive" and spec.n < ROBUST_SIGMA_MIN_N:
            problems.append(f"estimators[{index}]: adaptive needs N >= {ROBUST_SIGMA_MIN_N} for robust_sigma")
        if n_ok and est.kind == "trimmed":
            try:
                _trim_cut(spec.n, est.epsilon)
            except ValueError as exc:
                problems.append(f"estimators[{index}]: {exc}")
    if n_ok and spec.contamination.count >= spec.n:
        problems.append("contamination.count: must be smaller than N")
    return problems


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> ExperimentTable:
    """Evaluate every (estimator, k) cell over shared replications, in up to ``jobs`` worker processes.

    The grid supplies k, so the ``k`` field on each estimator spec is
    ignored here.  Estimators that do not use a block count produce the
    same value in every k cell of their row group.  A replication builds
    the block summaries for a k only when a blockwise estimator or the
    adaptive scan reads them, and at most once: its cells share them.
    Its ``adaptive`` cells likewise share one :func:`robust_sigma`, computed
    when the first of them runs.

    The replications run in at most ``jobs`` processes, capped at the
    replications and at the CPUs this process may run on (see
    :func:`_run_replications`).  Each replication is a function of its
    index alone, and the aggregates are computed here from the same errors
    in the same order, so the table is byte for byte the same for every
    ``jobs``, and so is what it raises.

    Every replication keeps :func:`estimate`'s overflow rule,
    :func:`~robustmean.estimators.finite_or_too_large`, for all its cells,
    and so does every cell's aggregates.
    """
    problems = validate_spec(spec)
    if not (is_int(jobs) and jobs >= 1):
        problems.append(JOBS_PROBLEM)
    if problems:
        raise ConfigError(problems)

    import mmap  # here, not at the top: the import would add to every `import robustmean`

    # float64s in one anonymous shared mapping, so forked workers write their rows straight into it
    shape = (spec.replications, len(spec.estimators), len(spec.k_grid))
    errors = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)
    parts = {k: partition(spec.n, k) for k in spec.k_grid}

    def run_rows(rows: range) -> None:
        """Fill the rows ``rows`` of ``errors``, one replication each.

        A replication's arrays stay alive while the next one is drawn.
        Freed first, they let glibc trim the top of the heap and grow it
        again every replication: ``paper-figures --reps 25`` ran 1.5%
        slower, and no slower with trimming off.
        """
        for r in rows:
            raw = sample(spec.distribution, spec.n, substream_seed(spec.base_seed, "sample", r))
            corrupted = contaminate(raw, spec.contamination, substream_seed(spec.base_seed, "contaminate", r))
            finite_or_too_large(_replication_errors, spec, parts, corrupted, errors[r])

    _run_replications(run_rows, spec.replications, _worker_count(jobs, spec.replications))

    rows = []
    for est, cells in zip(spec.estimators, finite_or_too_large(_aggregates, errors, spec.n)):
        for k, cell in zip(spec.k_grid, cells):
            rows.append(
                ResultRow(
                    estimator=est.kind,
                    p=est.p if "p" in ESTIMATOR_FIELDS[est.kind] else None,
                    k=k,
                    outliers=spec.contamination.count,
                    n=spec.n,
                    metrics=AggregateMetrics(*cell, replications=spec.replications),
                    base_seed=spec.base_seed,
                )
            )
    return ExperimentTable(tuple(sorted(rows, key=_row_key)))


def _aggregates(errors: np.ndarray, n: int) -> list[list[tuple[float, float, float, float]]]:
    """Each cell's :class:`AggregateMetrics` floats in field order, a list of them per estimator, one per k."""
    return [
        [(float(col.mean()), float(np.abs(col).mean()), float(math.sqrt(n) * col.std()), float(np.abs(col).max()))
         for col in cells]
        for cells in errors.transpose(1, 2, 0)
    ]


def _worker_count(jobs: int, replications: int) -> int:
    """Processes for ``jobs``: at most one per replication and per CPU this process may run on; one without ``os.fork``."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(jobs, replications, len(os.sched_getaffinity(0)))


def _run_replications(run_rows, count: int, workers: int) -> None:
    """Run ``run_rows`` over ``range(count)`` in ``workers`` processes.

    The rows split into ``workers`` contiguous ranges.  This process forks
    a child for each range but the first and runs the first itself; what a
    child writes to shared memory needs no sending back.  A child exits 0
    only when its whole range is done.  The range of every child that did
    not, failed or otherwise, this process runs again afterwards, in order,
    so a failure raises here exactly what the serial loop raises.  If this
    process raises on the way, it kills the children first; either way it
    waits for every child before it returns or raises.  With one worker
    nothing is forked and the loop is the serial one.
    """
    bounds = [count * w // workers for w in range(workers + 1)]
    ranges = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    children = {}  # pid: its range
    try:
        for rows in ranges[1:]:
            pid = os.fork()
            if not pid:
                # leave through os._exit: no exit handler runs and no inherited stdio buffer is flushed
                status = 1
                try:
                    run_rows(rows)
                    status = 0
                finally:
                    os._exit(status)
            children[pid] = rows
        run_rows(ranges[0])
    except BaseException:
        for pid in children:
            os.kill(pid, 9)  # SIGKILL, 9 on every POSIX system; the signal module takes 0.4 ms to import
        raise
    finally:
        failed = [rows for pid, rows in children.items() if os.waitpid(pid, 0)[1]]
    for rows in failed:
        run_rows(rows)


def _replication_errors(
    spec: ExperimentSpec, parts: dict[int, BlockPartition], corrupted: Sample, errors: np.ndarray
) -> np.ndarray:
    """Write one replication's errors into ``errors``, a row per estimator and a column per k, and return it."""
    true_mean = spec.distribution.true_mean
    # this replication's summaries by block count and its scale, shared by every cell
    summaries: dict[int, BlockSummaries] = {}
    scale: ScaleEstimate | None = None
    for est, row in zip(spec.estimators, errors):
        if "k" not in ESTIMATOR_FIELDS[est.kind]:
            if est.kind == "adaptive" and scale is None:
                scale = robust_sigma(corrupted)
            row[:] = estimate(corrupted, est, summaries, scale) - true_mean
            continue
        for j, k in enumerate(spec.k_grid):
            if k not in summaries:
                summaries[k] = block_summaries(corrupted, parts[k])
            value = weighted_mean(summaries[k], est.p) if est.kind == "weighted" else median_of_means(summaries[k])
            row[j] = value - true_mean
    return errors


def figure_grid_table(
    replications: int = FIGURE_DEFAULT_REPLICATIONS, base_seed: int = FIGURE_DEFAULT_SEED, jobs: int = 1
) -> ExperimentTable:
    """The full benchmark grid: four contamination levels by eight block counts.

    Median-of-means, the weighted estimator at p=1 and p=2, and the
    trimmed oracle (epsilon = O/N) on the standardised half-t(4) family
    at N=2500.  Each level's replications run in up to ``jobs`` worker
    processes, capped at the replications and the CPUs, with the same
    table for every ``jobs`` (see :func:`run_experiment`).
    """
    rows: list[ResultRow] = []
    dist = DistributionSpec.half_t(4.0)
    for count in FIGURE_OUTLIER_GRID:
        estimators = (
            EstimatorSpec("mom"),
            EstimatorSpec("weighted", p=1.0),
            EstimatorSpec("weighted", p=2.0),
            EstimatorSpec("trimmed", epsilon=count / FIGURE_SAMPLE_SIZE),
        )
        spec = ExperimentSpec(
            n=FIGURE_SAMPLE_SIZE,
            distribution=dist,
            contamination=ContaminationSpec(count, FIGURE_OUTLIER_VALUE),
            k_grid=FIGURE_K_GRID,
            estimators=estimators,
            replications=replications,
            base_seed=base_seed,
        )
        rows.extend(run_experiment(spec, jobs).rows)
    return ExperimentTable(tuple(sorted(rows, key=_row_key)))


def _format_cell(value) -> str:
    if value is None:
        return ""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _row_values(row: ResultRow) -> tuple:
    """The row's fields in :data:`CSV_COLUMNS` order."""
    m = row.metrics
    return (row.estimator, row.p, row.k, row.outliers, row.n, m.replications,
            m.mean_error, m.mean_abs_error, m.rescaled_sd, m.max_abs_error, row.base_seed)


def _write_rows(rows: list[ResultRow], handle, fmt: str) -> None:
    if fmt == "csv":
        handle.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            handle.write(",".join(map(_format_cell, _row_values(row))) + "\n")
    else:
        for row in rows:
            handle.write(json.dumps(dict(zip(CSV_COLUMNS, _row_values(row)))) + "\n")


def emit_results(table: ExperimentTable, fmt: str, destination) -> None:
    """Write the table sorted by (estimator, k, O); floats carry 17 significant digits.

    ``destination`` is a path or an open text handle.  ``fmt`` is "csv"
    or "jsonl"; both carry identical field content.
    """
    if fmt not in ("csv", "jsonl"):
        raise ConfigError([f"format: must be csv or jsonl, got {fmt!r}"])
    if not table.rows:
        raise ValueError("refusing to emit an empty table")
    rows = sorted(table.rows, key=_row_key)
    if hasattr(destination, "write"):
        _write_rows(rows, destination, fmt)
    else:
        with open(destination, "w", encoding="ascii", newline="") as handle:
            _write_rows(rows, handle, fmt)


_REQUIRED_KEYS = ("schema_version", "N", "distribution", "k_grid", "estimators", "replications", "base_seed")
_TOP_KEYS = {*_REQUIRED_KEYS, "contamination"}


def _parse_kind(payload, label: str, fields: dict[str, tuple[str, ...]], build, problems: list[str]):
    """``build(kind, **values)`` from a JSON object whose ``kind`` is a key of ``fields``; None when it cannot be built.

    Every problem goes to ``problems``: the fields ``kind`` does not read
    together with the value problems of those it does.
    """
    if not isinstance(payload, dict):
        problems.append(f"{label}: must be an object")
        return None
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in fields:
        problems.append(f"{label}.kind: must be one of {sorted(fields)}")
        return None
    for key in sorted(set(payload) - {"kind", *fields[kind]}):
        problems.append(f"{label}.{key}: unknown field for kind {kind!r}")
    try:
        return build(kind, **{key: value for key, value in payload.items() if key in fields[kind]})
    except (TypeError, ValueError) as exc:
        problems.append(f"{label}: {exc}")
        return None


def _parse_contamination(payload, problems: list[str]) -> ContaminationSpec:
    if payload is None:
        return ContaminationSpec()
    if not isinstance(payload, dict):
        problems.append("contamination: must be an object")
        return ContaminationSpec()
    for key in sorted(set(payload) - {"count", "value"}):
        problems.append(f"contamination.{key}: unknown field")
    try:
        return ContaminationSpec(**{key: value for key, value in payload.items() if key in ("count", "value")})
    except (TypeError, ValueError) as exc:
        problems.append(f"contamination: {exc}")
        return ContaminationSpec()


def _parse_estimators(payload, problems: list[str]) -> tuple[EstimatorSpec, ...]:
    if not isinstance(payload, list):
        problems.append("estimators: must be an array")
        return ()
    specs = (_parse_kind(entry, f"estimators[{index}]", ENTRY_FIELDS, EstimatorSpec, problems) for index, entry in enumerate(payload))
    return tuple(spec for spec in specs if spec is not None)


def _field(problem: str) -> str:
    """The top-level config key a problem message is about."""
    return re.split(r"[.\[:]", problem, maxsplit=1)[0]


def _repeated_keys(node, where: str, repeated: list[tuple[dict, list[str]]]) -> list[str]:
    """A problem for each repeated key of the JSON objects in ``node``, which sits at ``where`` in the config.

    ``repeated`` pairs each object that repeats a key with those keys; an
    object that a repeated key replaced is not in ``node`` and goes unnamed.
    """
    if isinstance(node, list):
        return [problem for index, item in enumerate(node) for problem in _repeated_keys(item, f"{where}[{index}]", repeated)]
    if not isinstance(node, dict):
        return []
    prefix = f"{where}." if where else ""
    problems = [f"{prefix}{key}: repeated key" for obj, keys in repeated if obj is node for key in keys]
    for key, value in node.items():
        problems += _repeated_keys(value, prefix + key, repeated)
    return problems


def parse_config(text: str) -> ExperimentSpec:
    """Parse a JSON experiment description, rejecting anything unrecognised.

    Collects every problem before raising, so one round trip reports all
    violated fields.  The values are checked by :func:`validate_spec`.
    """
    repeated = []  # each JSON object that repeats a key, with those keys

    def json_object(pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [key for key, _ in pairs]
            repeated.append((obj, [key for key in obj if keys.count(key) > 1]))
        return obj

    try:
        payload = json.loads(text, object_pairs_hook=json_object)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: not valid JSON ({exc})"]) from exc
    if not isinstance(payload, dict):
        raise ConfigError(["config: must be a JSON object"])

    problems = _repeated_keys(payload, "", repeated) if repeated else []
    problems += [f"{key}: unknown field" for key in sorted(set(payload) - _TOP_KEYS)]
    problems += [f"{key}: required field is missing" for key in _REQUIRED_KEYS if key not in payload]
    if "schema_version" in payload and payload["schema_version"] != SCHEMA_VERSION:
        problems.append(f"schema_version: expected {SCHEMA_VERSION}, got {payload['schema_version']!r}")

    k_grid = payload.get("k_grid")
    spec = ExperimentSpec(
        n=payload.get("N"),
        distribution=_parse_kind(payload["distribution"], "distribution", DISTRIBUTION_FIELDS, DistributionSpec, problems)
        if "distribution" in payload else None,
        contamination=_parse_contamination(payload.get("contamination"), problems),
        k_grid=tuple(k_grid) if isinstance(k_grid, list) else k_grid,
        estimators=_parse_estimators(payload["estimators"], problems) if "estimators" in payload else (),
        replications=payload.get("replications"),
        base_seed=payload.get("base_seed"),
    )
    # a field that is missing or failed to parse is already reported once
    reported = {_field(problem) for problem in problems}
    problems += [problem for problem in validate_spec(spec) if _field(problem) not in reported]
    if problems:
        raise ConfigError(problems)
    return spec
