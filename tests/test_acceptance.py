"""Acceptance gate: nine end-to-end checks with pinned tolerances.

Each check prints a single ``criterion N: PASS/FAIL`` line (run pytest
with ``-s`` to watch them stream).  One check, criterion 4a, is expected
to fail and is left failing on purpose: the target it pins cannot be met
by this estimator family, and its failure message carries the measured
behavior.  See the README section on known-failing checks.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats

from robustmean import (
    AdaptiveConfig,
    BlockSummary,
    ContaminationSpec,
    DistributionSpec,
    EstimatorSpec,
    ExperimentSpec,
    Sample,
    adaptive_estimate,
    adaptive_k,
    block_summaries,
    contaminate,
    estimate,
    median_of_means,
    partition,
    robust_sigma,
    run_experiment,
    sample,
    self_normalized,
    substream_seed,
    trimmed_mean,
    weighted_mean,
)
from robustmean.cli import main


def report(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_1_hand_oracles():
    two = [BlockSummary(1.5, 0.5, 2), BlockSummary(3.5, 1.0, 2)]
    w1 = weighted_mean(two, p=1.0)
    w2 = weighted_mean(two, p=2.0)
    mom = median_of_means([BlockSummary(m, 1.0, 3) for m in (1.5, 3.5, 5.5)])
    trm = trimmed_mean(Sample(np.arange(1.0, 21.0)), epsilon=0.0)
    ok = (
        abs(w1 - 6.5 / 3) <= 1e-12
        and abs(w2 - 1.9) <= 1e-12
        and mom == 3.5
        and trm == 10.5
    )
    line = report(1, ok, f"w(p=1)={w1!r} w(p=2)={w2!r} mom={mom!r} trimmed={trm!r}")
    assert ok, line


@pytest.fixture(scope="module")
def normal_cell_errors():
    """1000 draws of the N=2500, k=50 Gaussian cell, shared by checks 2 and 3."""
    dist = DistributionSpec.normal()
    part = partition(2500, 50)
    errors = {"w1": [], "w2": [], "mom": []}
    for rep in range(1000):
        s = sample(dist, 2500, substream_seed(424242, "sample", rep))
        summaries = block_summaries(s, part)
        errors["w1"].append(weighted_mean(summaries, 1.0))
        errors["w2"].append(weighted_mean(summaries, 2.0))
        errors["mom"].append(median_of_means(summaries))
    return {key: math.sqrt(2500) * np.array(vals) for key, vals in errors.items()}


def test_criterion_2_weighted_estimator_is_efficient(normal_cell_errors):
    ok = True
    parts = []
    for key in ("w1", "w2"):
        scaled = normal_cell_errors[key]
        sd = float(scaled.std())
        skew = float(stats.skew(scaled))
        kurt = float(stats.kurtosis(scaled))
        ok &= 0.90 <= sd <= 1.10 and -0.3 <= skew <= 0.3 and -0.5 <= kurt <= 0.8
        parts.append(f"{key}: sd={sd:.4f} skew={skew:.3f} kurt={kurt:.3f}")
    line = report(2, ok, "; ".join(parts))
    assert ok, line


def test_criterion_3_mom_pays_the_median_variance_premium(normal_cell_errors):
    sd = float(normal_cell_errors["mom"].std())
    ok = 1.15 <= sd <= 1.40
    line = report(3, ok, f"mom rescaled sd={sd:.4f}, target sqrt(pi/2)~1.2533")
    assert ok, line


FOUR_ESTIMATORS = (
    EstimatorSpec("weighted", p=1.0),
    EstimatorSpec("weighted", p=2.0),
    EstimatorSpec("mom"),
    EstimatorSpec("trimmed", epsilon=0.0),
)


def test_criterion_4a_clean_halft_accuracy_across_the_grid():
    spec = ExperimentSpec(
        n=2500,
        distribution=DistributionSpec.half_t(4.0),
        contamination=ContaminationSpec(0, 1000.0),
        k_grid=tuple(range(25, 201, 25)),
        estimators=FOUR_ESTIMATORS,
        replications=200,
        base_seed=99,
    )
    table = run_experiment(spec)
    bad = []
    for kind, p in (("weighted", 1.0), ("weighted", 2.0), ("mom", None), ("trimmed", None)):
        for k in spec.k_grid:
            mae = table.metrics(kind, k=k, p=p).mean_abs_error
            if not mae <= 0.05:
                label = kind if p is None else f"{kind}(p={p:g})"
                bad.append(f"{label} k={k}: {mae:.4f}")
    ok = not bad
    line = report(4, ok, "part a: " + ("all 32 cells <= 0.05" if ok else "; ".join(bad)))
    # Known failure.  The weights shrink toward low-spread blocks, and on
    # right-skewed data low spread travels with low mean, so the clean-data
    # bias grows with both k and p instead of averaging out.
    assert ok, line


def test_criterion_4b_weighted_beats_mom_when_outliers_match_blocks():
    spec = ExperimentSpec(
        n=2500,
        distribution=DistributionSpec.half_t(4.0),
        contamination=ContaminationSpec(150, 1000.0),
        k_grid=(175,),
        estimators=(EstimatorSpec("weighted", p=2.0), EstimatorSpec("mom")),
        replications=200,
        base_seed=99,
    )
    table = run_experiment(spec)
    w2 = table.metrics("weighted", k=175, p=2.0).mean_abs_error
    mom = table.metrics("mom", k=175).mean_abs_error
    ok = w2 <= 0.3 and mom >= 5 * w2
    line = report(4, ok, f"part b: weighted(p=2) mae={w2:.4f}, mom mae={mom:.4f}, ratio={mom / w2:.1f}")
    assert ok, line


def test_criterion_5_tail_quantile_of_the_weighted_estimator():
    dist = DistributionSpec.normal()
    part = partition(2500, 50)
    scaled = []
    for rep in range(2000):
        s = sample(dist, 2500, substream_seed(777, "sample", rep))
        scaled.append(abs(weighted_mean(block_summaries(s, part), 2.0)))
    q95 = math.sqrt(2500) * float(np.quantile(np.array(scaled), 0.95))
    ok = q95 <= 2.2
    line = report(5, ok, f"95th pct of sqrt(N)|error|={q95:.4f}, Gaussian oracle 1.96")
    assert ok, line


def test_criterion_6_adaptive_block_count_under_contamination():
    dist = DistributionSpec.half_t(4.0)
    cont = ContaminationSpec(100, 1000.0)
    config = AdaptiveConfig(p=2.0, contamination_bound=0.5)
    good = 0
    chosen = []
    scales = []
    for rep in range(200):
        s = sample(dist, 2500, substream_seed(5150, "sample", rep))
        s = contaminate(s, cont, substream_seed(5150, "contaminate", rep))
        scale = robust_sigma(s).sigma_tilde
        scales.append(scale)
        chosen.append(adaptive_k(s, config, scale))
        if abs(adaptive_estimate(s, config)) <= 0.5:
            good += 1
    freq = good / 200
    pow2 = all(k <= 512 and k & (k - 1) == 0 for k in chosen)
    ok = freq >= 0.95 and pow2
    line = report(
        6,
        ok,
        f"|error|<=0.5 in {freq:.1%} of reps (need >=95%); "
        f"k choices {sorted(set(chosen))}, power-of-two<=512 {'holds' if pow2 else 'violated'}; "
        f"scale estimate median {float(np.median(scales)):.1f} on unit-sd data",
    )
    # With 100 outliers at 1e3 in 2500 values, nearly every 100-element
    # group of the scale estimate holds some (four on average).  This pins
    # a scale that survives a few outliers per group: it stays near the
    # clean spread, so the calm threshold is tight enough to carry the scan
    # past k=2 to a count that isolates the outliers, and the estimate lands
    # within 0.5 of the mean.  The power-of-two clause pins the scan's grid.
    assert ok, line


def test_criterion_7_scale_estimator_stays_in_band():
    dist = DistributionSpec.normal()
    cont = ContaminationSpec(25, 1000.0)
    clean, dirty = [], []
    for rep in range(100):
        s = sample(dist, 10_000, substream_seed(11, "sample", rep))
        clean.append(robust_sigma(s).sigma_tilde)
        c = contaminate(s, cont, substream_seed(11, "contaminate", rep))
        dirty.append(robust_sigma(c).sigma_tilde)
    ok = all(1.0 <= v <= 1.3 for v in clean) and all(0.05 <= v <= 4.0 for v in dirty)
    line = report(
        7,
        ok,
        f"clean range [{min(clean):.4f}, {max(clean):.4f}] in [1.0, 1.3]; "
        f"contaminated range [{min(dirty):.4f}, {max(dirty):.4f}] in [0.05, 4.0]",
    )
    assert ok, line


def test_criterion_8_identities_and_affine_equivariance():
    rng = np.random.default_rng(2026)
    worst_sd = worst_t = worst_q = 0.0
    for _ in range(1000):
        size = int(rng.integers(5, 61))
        scale = 10.0 ** rng.uniform(-2, 2)
        mu = 3.0 * rng.normal()
        draw = rng.standard_t(5, size) if rng.random() < 0.5 else rng.normal(size=size)
        block = Sample(mu + scale * draw)
        part = partition(size, 1)
        d = self_normalized(block, part, mu)
        q, t, v = float(d.self_norm[0]), float(d.t_stat[0]), float(d.rms_dev[0])
        sd = block_summaries(block, part)[0].sd
        worst_q = max(worst_q, abs(q) - 1.0)
        worst_sd = max(worst_sd, abs(sd - v * math.sqrt(1.0 - q * q)) / max(1.0, v))
        worst_t = max(worst_t, abs(t - q / math.sqrt(1.0 - q * q)) / max(1.0, abs(t)))
    identities = worst_q <= 0.0 and worst_sd <= 1e-9 and worst_t <= 1e-9

    base = Sample(rng.standard_t(4, 450))
    kinds = (
        EstimatorSpec("weighted", k=9, p=1.0),
        EstimatorSpec("weighted", k=9, p=2.0),
        EstimatorSpec("mom", k=9),
        EstimatorSpec("trimmed", epsilon=0.04),
        EstimatorSpec("adaptive", p=2.0),
    )
    worst_affine = 0.0
    for a, b in ((2.5, -7.0), (-0.3, 11.0), (1e3, 0.125)):
        moved = Sample(a * base.values + b)
        for spec in kinds:
            want = a * estimate(base, spec) + b
            got = estimate(moved, spec)
            worst_affine = max(worst_affine, abs(got - want) / max(1.0, abs(want)))
    ok = identities and worst_affine <= 1e-9
    line = report(
        8,
        ok,
        f"identity residuals sd={worst_sd:.2e} t={worst_t:.2e}, max |Q|-1={worst_q:.2e}; "
        f"affine residual {worst_affine:.2e}",
    )
    assert ok, line


def test_criterion_9_simulate_is_parallelism_invariant(tmp_path):
    config = {
        "schema_version": 1,
        "N": 500,
        "distribution": {"kind": "half_t", "df": 4.0},
        "contamination": {"count": 15, "value": 1000.0},
        "k_grid": [2, 5, 10],
        "estimators": [
            {"kind": "weighted", "p": 2.0},
            {"kind": "mom"},
            {"kind": "trimmed", "epsilon": 0.03},
            {"kind": "adaptive", "p": 2.0, "contamination_bound": 0.5},
        ],
        "replications": 40,
        "base_seed": 17,
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    serial, forked = tmp_path / "serial.csv", tmp_path / "forked.csv"
    rc1 = main(["simulate", "--config", str(cfg), "--out", str(serial), "--jobs", "1"])
    rc8 = main(["simulate", "--config", str(cfg), "--out", str(forked), "--jobs", "8"])
    same = serial.read_bytes() == forked.read_bytes()
    ok = rc1 == 0 and rc8 == 0 and same
    line = report(9, ok, f"exit codes {rc1}/{rc8}, byte-identical={same}")
    assert ok, line
