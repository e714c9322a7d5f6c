"""Experiment engine: validation, determinism, aggregation, emission, config."""

import itertools
import json
import math
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from robustmean import (
    CSV_COLUMNS,
    AdaptiveConfig,
    BlockSummary,
    ConfigError,
    ContaminationSpec,
    DistributionSpec,
    EstimatorSpec,
    ExperimentSpec,
    adaptive_estimate,
    block_summaries,
    contaminate,
    emit_results,
    estimate,
    figure_grid_table,
    median_of_means,
    parse_config,
    partition,
    robust_sigma,
    run_experiment,
    sample,
    substream_seed,
    validate_spec,
    weighted_mean,
)
from test_estimators import oracle_block_stats

ALL_KINDS = (
    EstimatorSpec("weighted", p=2.0),
    EstimatorSpec("weighted", p=1.0),
    EstimatorSpec("mom"),
    EstimatorSpec("trimmed", epsilon=0.0),
    EstimatorSpec("adaptive", p=2.0),
)


def small_spec(**overrides):
    fields = dict(
        n=500,
        distribution=DistributionSpec.normal(),
        contamination=ContaminationSpec(10, 100.0),
        k_grid=(2, 5),
        estimators=ALL_KINDS,
        replications=8,
        base_seed=101,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


GOOD_CONFIG = {
    "schema_version": 1,
    "N": 500,
    "distribution": {"kind": "half_t", "df": 4.0},
    "contamination": {"count": 10, "value": 1000.0},
    "k_grid": [2, 5],
    "estimators": [
        {"kind": "mom"},
        {"kind": "weighted", "p": 2.0},
        {"kind": "trimmed", "epsilon": 0.02},
        {"kind": "adaptive", "p": 1.0, "contamination_bound": 0.5},
    ],
    "replications": 4,
    "base_seed": 9,
}


# --------------------------------------------------------------- validation


def test_validate_spec_accepts_sound_spec():
    assert validate_spec(small_spec()) == []


def test_validate_spec_collects_every_violation():
    bad = small_spec(n=0, replications=0, k_grid=(), estimators=())
    problems = validate_spec(bad)
    text = "\n".join(problems)
    assert len(problems) >= 4
    for field in ("N", "replications", "k_grid", "estimators"):
        assert field in text


def test_validate_spec_flags_k_beyond_n():
    problems = validate_spec(small_spec(k_grid=(2, 501)))
    assert any("k_grid" in p and "501" in p for p in problems)


def test_validate_spec_flags_replications_whose_errors_no_platform_can_address():
    spec = small_spec()
    cells = len(spec.estimators) * len(spec.k_grid)
    most = sys.maxsize // (8 * cells)  # the errors array of `most` replications still fits
    assert validate_spec(small_spec(replications=most)) == []
    assert validate_spec(small_spec(replications=most + 1)) == [
        f"replications: {most + 1} need {8 * cells * (most + 1)} bytes of errors, "
        f"more than the {sys.maxsize} this platform can address"
    ]


def test_validate_spec_flags_contamination_count():
    problems = validate_spec(small_spec(contamination=ContaminationSpec(500)))
    assert any("contamination.count" in p for p in problems)


def test_validate_spec_flags_repeated_grid_entries():
    problems = validate_spec(
        small_spec(
            k_grid=(5, 2, 5),
            estimators=(EstimatorSpec("weighted", p=2.0), EstimatorSpec("mom"), EstimatorSpec("weighted", k=3, p=2.0)),
        )
    )
    assert problems == ["k_grid: k=5 repeated", "estimators[2]: repeats estimators[0] {'kind': 'weighted', 'p': 2.0}"]


def test_validate_spec_flags_sizes_that_fail_partway():
    def problems(n, estimators=ALL_KINDS):
        return validate_spec(small_spec(n=n, contamination=ContaminationSpec(0), k_grid=(2,), estimators=estimators))

    assert problems(400) == problems(11, (EstimatorSpec("trimmed"),)) == []
    assert problems(399) == ["estimators[4]: adaptive needs N >= 400 for robust_sigma"]
    assert problems(10) == [
        "estimators[3]: trimming 5 values from each side of 10 leaves nothing",
        "estimators[4]: adaptive needs N >= 400 for robust_sigma",
    ]
    # the cut grows with epsilon, as in trimmed_mean
    assert problems(500, (EstimatorSpec("trimmed", epsilon=0.49),)) == [
        "estimators[0]: trimming 250 values from each side of 500 leaves nothing"
    ]


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"n": True}, "N: must be a positive integer"),
        ({"replications": True}, "replications: must be a positive integer"),
        ({"base_seed": True}, "base_seed: must be an integer in [0, 2**64)"),
        ({"k_grid": (2, True)}, "k_grid: True is not an integer"),
    ],
    ids=["N", "replications", "base_seed", "k_grid"],
)
def test_validate_spec_flags_booleans_as_integers(overrides, message):
    assert validate_spec(small_spec(**overrides)) == [message]


def test_run_experiment_rejects_bad_spec():
    with pytest.raises(ConfigError):
        run_experiment(small_spec(k_grid=(0,)))


# ---------------------------------------------------------------- execution


@pytest.mark.parametrize(
    "n, center, outliers, estimator, k",
    [
        # blocks of 1.7e308 and 1.6e308 are not constant, and math.fsum raises on their sums
        (60, 1.7e308, (20, 1.6e308), EstimatorSpec("weighted", p=2.0), 30),
        # every block is quiet and the estimate, near 1.02e308, is finite; its error is not
        (500, -1.7e308, (400, 1.7e308), EstimatorSpec("weighted", p=2.0), 500),
        (60, 1.7e308, (0, 0.0), EstimatorSpec("trimmed", epsilon=0.0), 1),  # estimate's own rule, inside the replication's
        # every error is about 1e308 and finite; their sum, for the mean error, is not
        (501, 0.0, (400, 1e308), EstimatorSpec("mom"), 501),
    ],
    ids=["weighted-fsum-raises", "error-overflows", "trimmed-inf", "aggregates-overflow"],
)
def test_run_experiment_raises_one_overflow_error_for_numbers_too_large_to_summarise(n, center, outliers, estimator, k):
    spec = small_spec(n=n, distribution=DistributionSpec.normal(center), contamination=ContaminationSpec(*outliers),
                      k_grid=(k,), estimators=(estimator,), replications=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError) as err:
            run_experiment(spec)
    assert err.value.args == ("the numbers are too large to summarise: squaring or summing them overflows",)


def test_single_replication_collapses_to_one_error():
    spec = small_spec(
        estimators=(EstimatorSpec("mom"),),
        k_grid=(1,),
        replications=1,
        contamination=ContaminationSpec(0),
    )
    m = run_experiment(spec).metrics("mom", k=1)
    raw = sample(spec.distribution, spec.n, substream_seed(spec.base_seed, "sample", 0))
    want = float(raw.values.mean()) - 0.0
    assert abs(m.mean_error - want) < 1e-12
    assert m.mean_abs_error == abs(m.mean_error)
    assert m.max_abs_error == abs(m.mean_error)
    assert m.rescaled_sd == 0.0
    assert m.replications == 1


def test_aggregates_match_independent_replay():
    """Recompute every per-replication error by hand and compare the
    aggregate fields at 1e-12."""
    spec = small_spec(replications=12)
    table = run_experiment(spec)
    replayed = {}
    for r in range(spec.replications):
        raw = sample(spec.distribution, spec.n, substream_seed(spec.base_seed, "sample", r))
        corrupted = contaminate(raw, spec.contamination, substream_seed(spec.base_seed, "contaminate", r))
        for est in spec.estimators:
            for k in spec.k_grid:
                if est.kind == "weighted":
                    value = weighted_mean(block_summaries(corrupted, partition(spec.n, k)), est.p)
                elif est.kind == "mom":
                    value = estimate(corrupted, EstimatorSpec("mom", k=k))
                else:
                    value = estimate(corrupted, est)
                replayed.setdefault((est.kind, est.p if est.kind in ("weighted", "adaptive") else None, k), []).append(
                    value - spec.distribution.true_mean
                )
    for (kind, p, k), errors in replayed.items():
        arr = np.array(errors)
        m = table.metrics(kind, k=k, p=p)
        assert abs(m.mean_error - arr.mean()) <= 1e-12
        assert abs(m.mean_abs_error - np.abs(arr).mean()) <= 1e-12
        assert m.max_abs_error == np.abs(arr).max()
        assert abs(m.rescaled_sd - math.sqrt(spec.n) * arr.std()) <= 1e-12
        assert m.max_abs_error >= m.mean_abs_error >= abs(m.mean_error)


def test_blockwise_cells_replay_exactly_from_the_fsum_loop():
    """Each replication's error in every weighted and mom cell equals, bit for bit, the error
    rebuilt from the per-block ``math.fsum`` loop.  One replication per run, so mean_error
    is that replication's error exactly."""
    blockwise = (EstimatorSpec("weighted", p=2.0), EstimatorSpec("weighted", p=1.0), EstimatorSpec("mom"))
    for seed in range(6):
        spec = small_spec(estimators=blockwise, k_grid=(2, 3, 50, 500), replications=1, base_seed=seed)
        table = run_experiment(spec)
        raw = sample(spec.distribution, spec.n, substream_seed(seed, "sample", 0))
        corrupted = contaminate(raw, spec.contamination, substream_seed(seed, "contaminate", 0))
        for k in spec.k_grid:
            part = partition(spec.n, k)
            means, sds = oracle_block_stats(corrupted.values, part)
            summaries = [BlockSummary(m, s, size) for m, s, size in zip(means, sds, part.sizes.tolist())]
            for est in blockwise:
                value = weighted_mean(summaries, est.p) if est.kind == "weighted" else median_of_means(summaries)
                got = table.metrics(est.kind, k=k, p=est.p if est.kind == "weighted" else None).mean_error
                assert got == value - spec.distribution.true_mean


@pytest.mark.parametrize(
    "estimators, built_per_replication",
    [
        ((EstimatorSpec("trimmed", epsilon=0.0), EstimatorSpec("adaptive", p=2.0)), []),
        ((EstimatorSpec("weighted", p=1.0), EstimatorSpec("weighted", p=2.0), EstimatorSpec("mom")), [2, 5]),
    ],
)
def test_block_summaries_built_once_per_k_and_only_when_read(monkeypatch, estimators, built_per_replication):
    import robustmean.harness

    built = []

    def counted(sample, part):
        built.append(part.k)
        return block_summaries(sample, part)

    monkeypatch.setattr(robustmean.harness, "block_summaries", counted)
    run_experiment(small_spec(estimators=estimators, replications=3))
    assert built == built_per_replication * 3


def sharing_spec(estimators, **overrides):
    """Two adaptive cells and a weighted one on data whose scan stops at k = 8 or 16, past the grid's k = 2."""
    fields = dict(
        n=1024,
        distribution=DistributionSpec.half_t(4.0),
        contamination=ContaminationSpec(20, 1e5),
        k_grid=(2, 32),
        estimators=estimators,
    )
    return small_spec(**{**fields, **overrides})


ADAPTIVE_FIRST = (EstimatorSpec("adaptive", p=2.0), EstimatorSpec("weighted", p=2.0), EstimatorSpec("adaptive", p=1.0))
WEIGHTED_FIRST = (EstimatorSpec("weighted", p=2.0), EstimatorSpec("adaptive", p=2.0), EstimatorSpec("adaptive", p=1.0))


@pytest.mark.parametrize("estimators", [ADAPTIVE_FIRST, WEIGHTED_FIRST], ids=["adaptive-first", "weighted-first"])
def test_adaptive_cells_sharing_levels_match_each_estimate_alone(estimators):
    """One replication per run, so mean_error is that replication's error exactly."""
    for seed in range(4):
        spec = sharing_spec(estimators, replications=1, base_seed=seed)
        table = run_experiment(spec)
        raw = sample(spec.distribution, spec.n, substream_seed(seed, "sample", 0))
        corrupted = contaminate(raw, spec.contamination, substream_seed(seed, "contaminate", 0))
        for p in (2.0, 1.0):
            alone = adaptive_estimate(corrupted, AdaptiveConfig(p=p)) - spec.distribution.true_mean
            assert table.metrics("adaptive", k=2, p=p).mean_error == alone
        for k in spec.k_grid:
            alone = weighted_mean(block_summaries(corrupted, partition(spec.n, k)), 2.0) - spec.distribution.true_mean
            assert table.metrics("weighted", k=k, p=2.0).mean_error == alone


@pytest.mark.parametrize("estimators", [ADAPTIVE_FIRST, WEIGHTED_FIRST], ids=["adaptive-first", "weighted-first"])
def test_a_replication_builds_each_block_count_once_across_cells(monkeypatch, estimators):
    import robustmean.adaptive
    import robustmean.harness

    built = []  # (id of the sample, builder, k) in call order

    def counting(builder):
        def counted(sample, part):
            built.append((id(sample), builder, part.k))
            return block_summaries(sample, part)

        return counted

    monkeypatch.setattr(robustmean.harness, "block_summaries", counting("harness"))
    monkeypatch.setattr(robustmean.adaptive, "block_summaries", counting("scan"))
    run_experiment(sharing_spec(estimators, replications=4))
    # a replication's cells all read one sample, and the next replication's is alive before the last is freed
    replications = [[(builder, k) for _, builder, k in group] for _, group in itertools.groupby(built, key=lambda b: b[0])]
    assert len(replications) == 4
    for builds in replications:
        ks = [k for _, k in builds]
        assert len(ks) == len(set(ks)), builds
        assert {k for builder, k in builds if builder == "scan"} >= {4, 8}
        if estimators is WEIGHTED_FIRST:
            assert builds[:2] == [("harness", 2), ("harness", 32)]


def test_a_replication_computes_one_scale_for_all_its_adaptive_cells(monkeypatch):
    """Two adaptive cells and a trimmed one: one robust_sigma call per replication, and each
    replication's errors those of every cell's estimate() run alone."""
    calls = []  # the samples, kept alive so that their ids stay distinct

    def counted(sample):
        calls.append(sample)
        return robust_sigma(sample)

    # wherever the package holds the function, as a caller would reach it
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "robustmean"]:
        if getattr(module, "robust_sigma", None) is robust_sigma:
            monkeypatch.setattr(module, "robust_sigma", counted)
    estimators = (EstimatorSpec("adaptive", p=2.0), EstimatorSpec("trimmed", epsilon=0.02), EstimatorSpec("adaptive", p=1.0))
    spec = sharing_spec(estimators, replications=4)
    table = run_experiment(spec)
    assert len(calls) == len({id(sample) for sample in calls}) == spec.replications
    alone = {est: [] for est in estimators}
    for r in range(spec.replications):
        raw = sample(spec.distribution, spec.n, substream_seed(spec.base_seed, "sample", r))
        corrupted = contaminate(raw, spec.contamination, substream_seed(spec.base_seed, "contaminate", r))
        for est in estimators:
            alone[est].append(estimate(corrupted, est) - spec.distribution.true_mean)
    for est, errors in alone.items():
        errors = np.array(errors)
        for k in spec.k_grid:
            m = table.metrics(est.kind, k=k, p=est.p if est.kind == "adaptive" else None)
            assert (m.mean_error, m.max_abs_error) == (errors.mean(), np.abs(errors).max())
            assert m.rescaled_sd == math.sqrt(spec.n) * errors.std()


# ---------------------------------------------------------------- worker processes


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counting_forks(monkeypatch, cpus):
    """``cpus`` CPUs whatever the machine has, and the pid of every child forked, as the parent sees it."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.fixture
def two_cpus_counting_forks(monkeypatch):
    return counting_forks(monkeypatch, 2)


@pytest.mark.parametrize("replications, forked", [(7, 1), (1, 0)], ids=["uneven-split", "one-replication"])
def test_workers_give_the_serial_table_bit_for_bit(two_cpus_counting_forks, replications, forked):
    spec = small_spec(k_grid=(2, 5, 25), replications=replications)
    serial = run_experiment(spec)
    assert two_cpus_counting_forks == []
    # repr shows every float's shortest round trip, so it tells -0.0 from 0.0 where == does not
    assert repr(run_experiment(spec, jobs=2)) == repr(serial)
    assert len(two_cpus_counting_forks) == forked
    assert_no_child_left()


def test_more_workers_than_cores_fill_every_row(monkeypatch):
    forks = counting_forks(monkeypatch, 8)
    spec = small_spec(k_grid=(2, 5, 25), replications=19)
    start = time.monotonic()
    forked = run_experiment(spec, jobs=8)
    assert time.monotonic() - start < 30
    assert len(forks) == 7
    assert_no_child_left()
    assert repr(forked) == repr(run_experiment(spec))


def test_workers_are_capped_at_the_cpus(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    spec = small_spec(replications=3)
    serial = run_experiment(spec)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    assert repr(run_experiment(spec, jobs=8)) == repr(serial)


def plant(monkeypatch, spec, failures):
    """Make ``contaminate`` raise for each replication in ``failures``: the exception, by index."""
    import robustmean.harness

    seeds = {substream_seed(spec.base_seed, "contaminate", r): exc for r, exc in failures.items()}

    def failing(values, contamination, seed):
        if seed in seeds:
            raise seeds[seed]
        return contaminate(values, contamination, seed)

    monkeypatch.setattr(robustmean.harness, "contaminate", failing)


# 3 replications a worker: over 2 workers the parent runs 0 to 2 and the child 3 to 5;
# over 3 the first child runs 3 to 5 and the second 6 to 8, whose failure must not win
@pytest.mark.parametrize(
    "workers, failures",
    [(2, {4: RuntimeError("planted at 4"), 5: ValueError("planted at 5")}),
     (2, {1: ValueError("planted at 1"), 4: RuntimeError("planted at 4")}),
     (2, {5: OverflowError("planted at 5")}),
     (3, {4: ValueError("at 4"), 8: RuntimeError("at 8")})],
    ids=["child-twice", "parent-and-child", "child-last", "two-children"],
)
def test_a_failed_replication_raises_the_serial_error(monkeypatch, workers, failures):
    forks = counting_forks(monkeypatch, workers)
    spec = small_spec(replications=3 * workers)
    plant(monkeypatch, spec, failures)
    with pytest.raises(Exception) as serial:
        run_experiment(spec)
    with pytest.raises(Exception) as forked:
        run_experiment(spec, jobs=workers)
    assert len(forks) == workers - 1
    assert (type(forked.value), str(forked.value)) == (type(serial.value), str(serial.value))
    assert_no_child_left()


# 6 replications over 2 workers, or 9 over 3 with both children killed; the forked run goes
# first, since the freed rows of a serial run of the same shape could otherwise stand in for
# the rows of a child
@pytest.mark.parametrize(
    "replications, workers, kills, parent_ran",
    [(6, 2, (), [0, 1, 2]), (6, 2, (4,), [0, 1, 2, 3, 4, 5]), (9, 3, (4, 7), [0, 1, 2, 3, 4, 5, 6, 7, 8])],
    ids=["child-done", "child-killed", "two-children-killed"],
)
def test_a_childs_rows_reach_the_parent_and_a_dead_childs_range_runs_again(
    monkeypatch, replications, workers, kills, parent_ran
):
    import robustmean.harness

    forks = counting_forks(monkeypatch, workers)
    spec = small_spec(replications=replications)
    test_pid = os.getpid()
    index = {substream_seed(spec.base_seed, "contaminate", r): r for r in range(spec.replications)}
    ran = []

    def planted(values, contamination, seed):
        if os.getpid() == test_pid:
            ran.append(index[seed])
        elif index[seed] in kills:
            os.kill(os.getpid(), 9)  # the child dies without raising
        return contaminate(values, contamination, seed)

    monkeypatch.setattr(robustmean.harness, "contaminate", planted)
    forked = run_experiment(spec, jobs=workers)
    assert ran == parent_ran
    assert len(forks) == workers - 1
    assert_no_child_left()
    assert repr(forked) == repr(run_experiment(spec))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists the open file descriptors in /proc")
def test_a_failed_fork_leaves_nothing_behind(monkeypatch):
    forks = counting_forks(monkeypatch, 3)
    counted = os.fork

    def second_fails():
        if forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return counted()

    monkeypatch.setattr(os, "fork", second_fails)
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError) as err:
        run_experiment(small_spec(replications=6), jobs=3)
    assert err.value.errno == 11
    assert len(forks) == 1
    assert_no_child_left()
    assert sorted(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("where", [1, 4], ids=["parent", "child"])
def test_no_child_outlives_an_interrupt(two_cpus_counting_forks, monkeypatch, where):
    spec = small_spec(replications=6)
    plant(monkeypatch, spec, {where: KeyboardInterrupt()})
    with pytest.raises(KeyboardInterrupt):
        run_experiment(spec, jobs=2)
    assert len(two_cpus_counting_forks) == 1
    assert_no_child_left()


def test_an_interrupted_run_kills_its_children(two_cpus_counting_forks, monkeypatch):
    import robustmean.harness

    spec = small_spec(replications=6)
    interrupt, hang = (substream_seed(spec.base_seed, "contaminate", r) for r in (1, 3))

    def planted(values, contamination, seed):
        if seed == interrupt:
            raise KeyboardInterrupt
        if seed == hang:
            time.sleep(60)  # the child's first replication; only a kill ends it sooner
        return contaminate(values, contamination, seed)

    monkeypatch.setattr(robustmean.harness, "contaminate", planted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(spec, jobs=2)
    assert time.monotonic() - start < 30
    assert len(two_cpus_counting_forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("jobs", [0, True, 1.5])
def test_run_experiment_refuses_jobs_that_are_not_a_positive_integer(jobs):
    with pytest.raises(ConfigError) as err:
        run_experiment(small_spec(), jobs=jobs)
    assert err.value.errors == ["jobs: must be at least 1"]


def test_seed_isolation_changes_errors_not_structure():
    a = run_experiment(small_spec(base_seed=1)).rows
    b = run_experiment(small_spec(base_seed=2)).rows
    assert [(r.estimator, r.p, r.k, r.outliers, r.n) for r in a] == [
        (r.estimator, r.p, r.k, r.outliers, r.n) for r in b
    ]
    assert any(x.metrics.mean_error != y.metrics.mean_error for x, y in zip(a, b))


def test_headline_half_t_cell_matches_asymptotics():
    """Clean standardized half-t(4), k=50: the weighted estimator's rescaled
    spread sits near 1 while median-of-means pays the pi/2 premium."""
    spec = ExperimentSpec(
        n=2500,
        distribution=DistributionSpec.half_t(4.0),
        contamination=ContaminationSpec(0),
        k_grid=(50,),
        estimators=(EstimatorSpec("weighted", p=2.0), EstimatorSpec("mom")),
        replications=1000,
        base_seed=777,
    )
    table = run_experiment(spec)
    assert 0.90 <= table.metrics("weighted", p=2.0).rescaled_sd <= 1.10
    assert 1.15 <= table.metrics("mom").rescaled_sd <= 1.40


def test_metrics_lookup_requires_unique_match():
    table = run_experiment(small_spec(replications=2))
    with pytest.raises(KeyError):
        table.metrics("weighted")  # two p values, two k values
    with pytest.raises(KeyError):
        table.metrics("huber")


# ----------------------------------------------------------------- emission


def test_csv_shape_and_roundtrip(tmp_path):
    spec = small_spec(replications=3, estimators=(EstimatorSpec("mom"),), k_grid=(4,))
    table = run_experiment(spec)
    out = tmp_path / "cell.csv"
    emit_results(table, "csv", out)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "mom"
    assert cells[1] == ""  # no weight exponent for mom
    assert cells[2] == "4"
    assert cells[3] == "10" and cells[4] == "500" and cells[5] == "3"
    # 17 significant digits survive the round trip bit-for-bit
    m = table.rows[0].metrics
    assert float(cells[6]) == m.mean_error
    assert float(cells[8]) == m.rescaled_sd
    assert cells[10] == "101"


def test_jsonl_mirrors_csv_fields(tmp_path):
    spec = small_spec(replications=3)
    table = run_experiment(spec)
    out = tmp_path / "cells.jsonl"
    emit_results(table, "jsonl", out)
    lines = out.read_text().splitlines()
    assert len(lines) == len(table.rows)
    first = json.loads(lines[0])
    assert set(first) == set(CSV_COLUMNS)
    row = table.rows[0]
    assert first["estimator"] == row.estimator
    assert first["p"] == row.p
    assert first["mean_error"] == row.metrics.mean_error


def test_rows_sorted_by_estimator_k_outliers():
    table = run_experiment(small_spec(replications=2))
    keys = [(r.estimator, r.k, r.outliers, -math.inf if r.p is None else r.p) for r in table.rows]
    assert keys == sorted(keys)


def test_emit_rejects_empty_table_and_bad_format(tmp_path):
    from robustmean import ExperimentTable

    with pytest.raises(ValueError):
        emit_results(ExperimentTable(()), "csv", tmp_path / "x.csv")
    table = run_experiment(small_spec(replications=2))
    with pytest.raises(ConfigError):
        emit_results(table, "parquet", tmp_path / "x.parquet")


def test_emit_unwritable_destination_raises_oserror(tmp_path):
    table = run_experiment(small_spec(replications=2))
    with pytest.raises(OSError):
        emit_results(table, "csv", tmp_path / "missing" / "x.csv")


def test_rerun_same_spec_is_byte_identical(tmp_path):
    spec = small_spec(replications=5)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_results(run_experiment(spec), "csv", a)
    emit_results(run_experiment(spec), "csv", b)
    assert a.read_bytes() == b.read_bytes()


# --------------------------------------------------------------- figure grid


def test_figure_grid_emits_128_cells():
    table = figure_grid_table(replications=2, base_seed=5)
    assert len(table.rows) == 4 * 8 * 4
    ks = {r.k for r in table.rows}
    assert ks == {25, 50, 75, 100, 125, 150, 175, 200}
    outliers = {r.outliers for r in table.rows}
    assert outliers == {0, 50, 100, 150}
    weighted_ps = {r.p for r in table.rows if r.estimator == "weighted"}
    assert weighted_ps == {1.0, 2.0}
    # the trimmed oracle appears once per (k, O) cell
    assert sum(1 for r in table.rows if r.estimator == "trimmed") == 32


# -------------------------------------------------------------------- config


def test_parse_config_roundtrip():
    spec = parse_config(json.dumps(GOOD_CONFIG))
    assert spec.n == 500
    assert spec.distribution == DistributionSpec.half_t(4.0)
    assert spec.contamination == ContaminationSpec(10, 1000.0)
    assert spec.k_grid == (2, 5)
    assert [e.kind for e in spec.estimators] == ["mom", "weighted", "trimmed", "adaptive"]
    assert spec.estimators[2].epsilon == 0.02
    assert spec.replications == 4 and spec.base_seed == 9


def test_parse_config_contamination_is_optional():
    payload = {k: v for k, v in GOOD_CONFIG.items() if k != "contamination"}
    assert parse_config(json.dumps(payload)).contamination == ContaminationSpec(0)


def test_parse_config_rejects_unknown_fields_everywhere():
    payload = json.loads(json.dumps(GOOD_CONFIG))
    payload["ntoal"] = 1
    payload["distribution"]["sd"] = 2.0  # normal-only field on half_t
    payload["estimators"][0]["p"] = 2.0  # mom takes no exponent
    payload["estimators"].append({"kind": "weighted", "p": 0.5, "foo": 1})  # an unknown field and a bad value
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(payload))
    text = str(err.value)
    assert "ntoal" in text
    assert "distribution.sd" in text
    assert "estimators[0].p" in text
    assert "estimators[4].foo: unknown field for kind 'weighted'" in err.value.errors
    assert "estimators[4]: p must be >= 1" in err.value.errors


def test_parse_config_collects_all_problems_in_one_pass():
    payload = {
        "schema_version": 2,
        "N": True,
        "distribution": {"kind": "gamma"},
        "k_grid": [],
        "estimators": [{"kind": "mom"}],
        "replications": 0,
        "base_seed": -1,
        "contamination": {"count": 3, "value": 5.0},
    }
    # JSON keeps the last value of a repeated key, so without its own problem the contamination would pass
    config = json.dumps(payload).replace('"count": 3', '"count": 3, "count": 2')
    with pytest.raises(ConfigError) as err:
        parse_config(config.replace('"distribution"', '"distribution": {"kind": "normal"}, "distribution"'))
    text = str(err.value)
    # shape, range and repeated-key problems are all reported together
    for needle in ("schema_version", "N", "distribution.kind", "k_grid", "replications", "base_seed"):
        assert needle in text, text
    assert err.value.errors[:2] == ["distribution: repeated key", "contamination.count: repeated key"]


def test_parse_config_reports_a_kind_that_is_not_a_string():
    payload = json.loads(json.dumps(GOOD_CONFIG))
    payload["distribution"] = {"kind": ["half_t"]}
    payload["estimators"][1] = {"kind": {"weighted": 1}}
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(payload))
    assert err.value.errors == [
        "distribution.kind: must be one of ['half_t', 'normal', 'pareto', 'student_t']",
        "estimators[1].kind: must be one of ['adaptive', 'mom', 'trimmed', 'weighted']",
    ]


@pytest.mark.parametrize(
    "change, errors",
    [
        ({"distribution": ["half_t", 4.0]}, ["distribution: must be an object"]),
        ({"estimators": [{"kind": "mom"}, "weighted"]}, ["estimators[1]: must be an object"]),
        ({"contamination": 10}, ["contamination: must be an object"]),
        ({"contamination": {"count": 10, "values": 1000.0}}, ["contamination.values: unknown field"]),
        ({"estimators": {"kind": "mom"}}, ["estimators: must be an array"]),
    ],
    ids=["distribution", "estimator-entry", "contamination", "contamination-field", "estimators"],
)
def test_parse_config_reports_a_part_of_the_wrong_shape(change, errors):
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps({**GOOD_CONFIG, **change}))
    assert err.value.errors == errors


def test_parse_config_reports_each_problem_once():
    payload = {key: value for key, value in GOOD_CONFIG.items() if key != "N"}
    payload["replications"] = 0
    payload["estimators"] = [{"kind": "median"}, {"kind": "mom", "p": 2.0}]
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(payload))
    # neither "N: must be a positive integer" nor "estimators: must not be empty" follows
    assert err.value.errors == [
        "N: required field is missing",
        "estimators[0].kind: must be one of ['adaptive', 'mom', 'trimmed', 'weighted']",
        "estimators[1].p: unknown field for kind 'mom'",
        "replications: must be a positive integer",
    ]


@pytest.mark.parametrize("path", sorted((Path(__file__).parents[1] / "scripts").glob("*.json")), ids=lambda p: p.name)
def test_parse_config_accepts_every_shipped_config(path):
    parse_config(path.read_text(encoding="utf-8"))


def test_parse_config_requires_every_top_field():
    with pytest.raises(ConfigError) as err:
        parse_config("{}")
    text = str(err.value)
    for needle in ("schema_version", "N", "distribution", "k_grid", "estimators", "replications", "base_seed"):
        assert needle in text


def test_parse_config_rejects_non_json_and_non_object():
    with pytest.raises(ConfigError):
        parse_config("not json {")
    with pytest.raises(ConfigError):
        parse_config("[1, 2]")


@pytest.mark.parametrize(
    "where, literal, message",
    [
        (("contamination", "count"), "true", "contamination: count must be a non-negative integer"),
        (("contamination", "value"), "Infinity", "contamination: value must be a finite number"),
        (("distribution", "df"), "NaN", "distribution: df must be a finite number"),
        (("estimators", 1, "p"), "true", "estimators[1]: p must be a finite number"),
        (("estimators", 3, "p"), "Infinity", "estimators[3]: p must be a finite number"),
    ],
)
def test_parse_config_rejects_non_finite_and_boolean_numbers(where, literal, message):
    payload = json.loads(json.dumps(GOOD_CONFIG))
    target = payload
    for step in where[:-1]:
        target = target[step]
    target[where[-1]] = "@"
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(payload).replace('"@"', literal))
    assert any(problem.startswith(message) for problem in err.value.errors), err.value.errors


def test_parse_config_rejects_repeated_grid_entries():
    payload = json.loads(json.dumps(GOOD_CONFIG))
    payload["k_grid"] = [5, 5]
    payload["estimators"].append({"kind": "trimmed", "epsilon": 0.02})
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(payload))
    assert err.value.errors == [
        "k_grid: k=5 repeated",
        "estimators[4]: repeats estimators[2] {'kind': 'trimmed', 'epsilon': 0.02}",
    ]


def test_parse_config_applies_spec_validation():
    payload = json.loads(json.dumps(GOOD_CONFIG))
    payload["k_grid"] = [2, 9999]
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(payload))
    assert "k_grid" in str(err.value)
