"""Studentised block statistics, the outlier gap proxy, and tail scans."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustmean import (
    ContaminationSpec,
    DistributionSpec,
    Sample,
    block_summaries,
    contaminate,
    outlier_magnitude,
    partition,
    sample,
    self_normalized,
    tail_quantile_check,
)
from test_estimators import bits, oracle_block_stats


def test_self_normalized_hand_block():
    stats = self_normalized(Sample(np.array([0.0, 2.0])), partition(2, 1), 0.0)
    assert abs(stats.rms_dev[0] - math.sqrt(2.0)) < 1e-12
    assert abs(stats.self_norm[0] - 1.0 / math.sqrt(2.0)) < 1e-12
    assert abs(stats.t_stat[0] - 1.0) < 1e-12
    # identity: sd = V * sqrt(1 - Q^2) -> 1 = sqrt(2) * sqrt(1/2)
    sd = block_summaries(Sample(np.array([0.0, 2.0])), partition(2, 1))[0].sd
    assert abs(sd - stats.rms_dev[0] * math.sqrt(1.0 - stats.self_norm[0] ** 2)) < 1e-12


def test_self_normalized_is_bit_equal_to_its_formulas_on_the_fsum_loop():
    s = contaminate(sample(DistributionSpec.half_t(4.0), 997, 3), ContaminationSpec(20, 1e3), 4)
    part = partition(s.n, 7)
    stats = self_normalized(s, part, 0.25)
    means, sds = oracle_block_stats(s.values, part)
    sd, dev = np.array(sds), np.array(means) - 0.25
    rms = np.hypot(sd, dev)
    assert bits(stats.rms_dev) == bits(rms)
    assert bits(stats.t_stat) == bits(dev / sd)
    assert bits(stats.self_norm) == bits(dev / rms)


def test_self_normalized_degenerate_block_reports_zeros():
    stats = self_normalized(Sample(np.array([3.0, 3.0])), partition(2, 1), 3.0)
    assert stats.rms_dev[0] == 0.0
    assert stats.self_norm[0] == 0.0
    assert stats.t_stat[0] == 0.0


def test_self_normalized_length_mismatch():
    with pytest.raises(ValueError):
        self_normalized(Sample(np.arange(4.0)), partition(6, 2), 0.0)


@given(
    st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=80),
    st.floats(-50.0, 50.0),
    st.data(),
)
@settings(max_examples=80)
def test_self_normalized_identities(values, mu, data):
    """|Q| <= 1; sd = V sqrt(1-Q^2); T = Q/sqrt(1-Q^2) away from |Q| = 1."""
    x = np.array(values)
    k = data.draw(st.integers(1, len(values) // 2))
    part = partition(len(values), k)
    stats = self_normalized(Sample(x), part, mu)
    sds = [s.sd for s in block_summaries(Sample(x), part)]
    for j in range(k):
        q, v, t = stats.self_norm[j], stats.rms_dev[j], stats.t_stat[j]
        assert abs(q) <= 1.0 + 1e-12
        if abs(q) >= 1.0 - 1e-6:
            continue  # sqrt(1-q^2) cancels catastrophically near |q| = 1
        if v > 0.0:
            assert abs(sds[j] - v * math.sqrt(1.0 - q * q)) <= 1e-9 * max(1.0, v)
        if sds[j] > 0.0:
            assert abs(t - q / math.sqrt(1.0 - q * q)) <= 1e-9 * max(1.0, abs(t))


def test_self_normalized_identity_survives_subnormal_squares():
    # squares of values near 1e-160 are subnormal; T and Q must still agree
    stats = self_normalized(Sample(np.array([0.0, 2.8624903553639717e-160])), partition(2, 1), 0.0)
    q, t = stats.self_norm[0], stats.t_stat[0]
    assert abs(t - q / math.sqrt(1.0 - q * q)) <= 1e-9


# ---------------------------------------------------------- outlier magnitude


def test_outlier_magnitude_hand_value():
    s = Sample(np.array([0.0, 10.0]), outlier_mask=np.array([False, True]))
    got = outlier_magnitude(s, partition(2, 1), 1.0)
    assert abs(got - 51.0) < 1e-12


def test_outlier_magnitude_requires_mask():
    with pytest.raises(ValueError):
        outlier_magnitude(Sample(np.arange(4.0)), partition(4, 2), 1.0)


def test_outlier_magnitude_rejects_a_partition_of_another_length():
    s = Sample(np.arange(4.0), outlier_mask=np.array([False, True, False, False]))
    with pytest.raises(ValueError, match="^partition does not cover this sample$"):
        outlier_magnitude(s, partition(6, 2), 1.0)


def test_outlier_magnitude_rejects_bad_sigma():
    s = Sample(np.arange(4.0), outlier_mask=np.zeros(4, dtype=bool))
    with pytest.raises(ValueError):
        outlier_magnitude(s, partition(4, 2), 0.0)


def test_outlier_magnitude_absent_without_outliers():
    s = Sample(np.arange(4.0), outlier_mask=np.zeros(4, dtype=bool))
    assert outlier_magnitude(s, partition(4, 2), 1.0) is None


def test_outlier_magnitude_skips_fully_corrupted_blocks():
    # second block has no inliers, so only the first contributes
    mask = np.array([False, True, True, True])
    s = Sample(np.array([0.0, 10.0, 7.0, 7.0]), outlier_mask=mask)
    got = outlier_magnitude(s, partition(4, 2), 1.0)
    assert abs(got - 51.0) < 1e-12
    # and when every corrupted block is fully corrupted, nothing qualifies
    all_hit = Sample(np.array([1.0, 1.0, 7.0, 7.0]), outlier_mask=np.array([False, False, True, True]))
    assert outlier_magnitude(all_hit, partition(4, 2), 1.0) is None


def test_outlier_magnitude_at_least_one():
    s = sample(DistributionSpec.normal(), 300, 17)
    out = contaminate(s, ContaminationSpec(40, 25.0), 18)
    got = outlier_magnitude(out, partition(300, 10), 1.0)
    assert got is not None and got >= 1.0


@given(st.floats(0.05, 50.0), st.booleans(), st.floats(-200.0, 200.0))
@settings(max_examples=30)
def test_outlier_magnitude_affine_with_matching_sigma(scale, flip, shift):
    a = -scale if flip else scale
    s = sample(DistributionSpec.normal(), 200, 23)
    out = contaminate(s, ContaminationSpec(30, 12.0), 24)
    part = partition(200, 8)
    base = outlier_magnitude(out, part, 2.0)
    moved_sample = Sample(a * out.values + shift, outlier_mask=out.outlier_mask)
    moved = outlier_magnitude(moved_sample, part, 2.0 * abs(a))
    assert abs(moved - base) <= 1e-9 * max(1.0, abs(base))


def oracle_outlier_magnitude(s: Sample, part, true_sigma: float) -> float | None:
    """The per-block loop ``outlier_magnitude`` replaces."""
    x, mask = s.values, s.outlier_mask
    smallest = math.inf
    for lo, hi in part.blocks():
        hits = mask[lo:hi]
        count = int(hits.sum())
        if count == 0 or count == hi - lo:
            continue
        block = x[lo:hi]
        gap = float(block[~hits].mean()) - float(block[hits].mean())
        smallest = min(smallest, count * gap * gap / ((hi - lo) * true_sigma * true_sigma))
    return None if math.isinf(smallest) else 1.0 + smallest


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 400),
    st.floats(0.0, 1.0),
    st.floats(-1e4, 1e4),
    st.floats(0.1, 10.0),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_outlier_magnitude_matches_the_block_loop(seed, n, share, value, true_sigma, data):
    count = min(int(share * n), n - 1)
    s = contaminate(sample(DistributionSpec.half_t(4.0), n, seed), ContaminationSpec(count, value), seed + 1)
    part = partition(n, data.draw(st.integers(1, n)))
    got, want = outlier_magnitude(s, part, true_sigma), oracle_outlier_magnitude(s, part, true_sigma)
    if want is None:
        assert got is None
    else:
        assert abs(got - want) <= 1e-12 * want


# ------------------------------------------------------------------ tail scan


def test_tail_check_zero_errors():
    got = tail_quantile_check(np.zeros(100), 1.0, 50, np.array([0.5, 1.0, 3.0]))
    assert (got == 0.0).all()


def test_tail_check_vacuous_at_s_zero():
    rng = np.random.default_rng(0)
    got = tail_quantile_check(rng.normal(size=500), 1.0, 50, np.array([0.0]))
    # 2 e^0 = 2 bounds any frequency
    assert 0.0 <= got[0] <= 1.0 <= 2.0


def test_tail_check_matches_gaussian_oracle():
    """Sample means of N(0,1) at n=100: P(|err| > sqrt(2/100)) = erfc(1)."""
    rng = np.random.default_rng(123)
    errors = np.array([rng.normal(0.0, 1.0, 100).mean() for _ in range(4000)])
    got = tail_quantile_check(errors, 1.0, 100, np.array([2.0]))[0]
    assert abs(got - math.erfc(1.0)) < 0.03


def test_tail_check_monotone_in_s_and_constant():
    rng = np.random.default_rng(3)
    errors = rng.normal(0.0, 0.1, 2000)
    grid = np.array([0.5, 1.0, 2.0, 4.0])
    freq = tail_quantile_check(errors, 1.0, 100, grid)
    assert (np.diff(freq) <= 0.0).all()
    wider = tail_quantile_check(errors, 1.0, 100, grid, scan_constant=2.0)
    assert (wider <= freq).all()


def test_tail_check_validation():
    with pytest.raises(ValueError):
        tail_quantile_check(np.ones(5), 0.0, 10, np.array([1.0]))
    with pytest.raises(ValueError):
        tail_quantile_check(np.ones(5), 1.0, 0, np.array([1.0]))
