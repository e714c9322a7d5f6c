"""Core estimator kernels: partitioning, summaries, weighting, baselines."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustmean import (
    BlockPartition,
    BlockSummary,
    EstimatorSpec,
    Sample,
    block_summaries,
    block_weights,
    estimate,
    median_of_means,
    partition,
    trimmed_mean,
    weighted_mean,
)


def summaries_of(values, k):
    return block_summaries(Sample(np.asarray(values, dtype=float)), partition(len(values), k))


# ---------------------------------------------------------------- partition


def test_partition_divisible():
    assert partition(6, 3).blocks() == [(0, 2), (2, 4), (4, 6)]


def test_partition_remainder_goes_to_leading_blocks():
    # 7 = 3 + 2 + 2
    assert partition(7, 3).blocks() == [(0, 3), (3, 5), (5, 7)]


def test_partition_single_block():
    assert partition(4, 1).blocks() == [(0, 4)]


@pytest.mark.parametrize("n,k", [(6, 0), (6, 7), (6, -1)])
def test_partition_rejects_bad_k(n, k):
    with pytest.raises(ValueError):
        partition(n, k)


@given(st.integers(1, 500), st.data())
def test_partition_balanced_cover(n, data):
    k = data.draw(st.integers(1, n))
    part = partition(n, k)
    sizes = part.sizes
    assert part.k == k
    assert part.n == n
    assert sizes.sum() == n
    assert sizes.max() - sizes.min() <= 1
    # larger blocks come first
    assert (np.diff(sizes) <= 0).all()


def test_partition_boundaries_validated():
    with pytest.raises(ValueError):
        BlockPartition(np.array([1, 3]))  # must start at 0
    with pytest.raises(ValueError):
        BlockPartition(np.array([0, 3, 3]))  # empty block
    with pytest.raises(ValueError):
        BlockPartition(np.array([0]))


# ---------------------------------------------------------- block summaries


def test_block_summaries_hand_values():
    got = summaries_of([1.0, 2.0, 3.0, 4.0], 2)
    assert got == [BlockSummary(1.5, 0.5, 2), BlockSummary(3.5, 0.5, 2)]

    got = summaries_of([1.0, 2.0, 2.5, 4.5], 2)
    assert got == [BlockSummary(1.5, 0.5, 2), BlockSummary(3.5, 1.0, 2)]


def test_block_summaries_constant_sample_is_exact():
    # 0.1 is not a dyadic float; the mean must still come back bit-equal
    got = summaries_of([0.1] * 7, 3)
    assert [s.mean for s in got] == [0.1, 0.1, 0.1]
    assert [s.sd for s in got] == [0.0, 0.0, 0.0]
    assert [s.size for s in got] == [3, 2, 2]
    assert estimate(Sample(np.full(7, 0.1)), EstimatorSpec("weighted", k=1)) == 0.1


def test_block_summaries_length_mismatch():
    with pytest.raises(ValueError):
        block_summaries(Sample(np.arange(5.0)), partition(6, 2))


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
    st.data(),
)
def test_block_summaries_match_exact_rational_oracle(values, data):
    """statistics.mean/pstdev compute through Fractions, an independent oracle."""
    k = data.draw(st.integers(1, len(values)))
    got = block_summaries(Sample(np.array(values)), partition(len(values), k))
    for s, (lo, hi) in zip(got, partition(len(values), k).blocks()):
        block = values[lo:hi]
        assert s.size == len(block)
        assert math.isclose(s.mean, statistics.mean(block), rel_tol=1e-13, abs_tol=1e-13)
        assert math.isclose(s.sd, statistics.pstdev(block), rel_tol=1e-9, abs_tol=1e-12)


# ------------------------------------------------------------ weighted mean


def test_weighted_mean_hand_values():
    two = [BlockSummary(1.5, 0.5, 2), BlockSummary(3.5, 1.0, 2)]
    assert abs(weighted_mean(two, 1.0) - 6.5 / 3) < 1e-12
    assert abs(weighted_mean(two, 2.0) - 1.9) < 1e-12


def test_weighted_mean_equal_sds_is_plain_average():
    two = [BlockSummary(1.5, 0.5, 2), BlockSummary(3.5, 0.5, 2)]
    assert weighted_mean(two, 1.0) == 2.5


def test_weighted_mean_zero_sd_block_takes_all_mass():
    two = [BlockSummary(2.0, 0.0, 2), BlockSummary(9.0, 1.0, 2)]
    assert weighted_mean(two, 1.0) == 2.0
    # several zero-sd blocks share the mass equally
    three = [BlockSummary(2.0, 0.0, 2), BlockSummary(4.0, 0.0, 2), BlockSummary(9.0, 1.0, 2)]
    assert weighted_mean(three, 2.0) == 3.0


def test_weighted_mean_rejects_bad_input():
    with pytest.raises(ValueError):
        weighted_mean([], 1.0)
    with pytest.raises(ValueError):
        weighted_mean([BlockSummary(1.0, 1.0, 2)], 0.5)


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_block_weights_reject_non_finite_exponent(p):
    with pytest.raises(ValueError, match="finite"):
        block_weights([BlockSummary(1.0, 1.0, 2), BlockSummary(2.0, 2.0, 2)], p)


@given(
    st.lists(
        st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e6)),
        min_size=1,
        max_size=40,
    ),
    st.floats(1.0, 8.0),
)
def test_block_weights_normalized(pairs, p):
    summaries = [BlockSummary(m, sd, 2) for m, sd in pairs]
    w = block_weights(summaries, p)
    assert (w >= 0.0).all()
    assert abs(w.sum() - 1.0) <= 1e-12


@given(
    st.lists(
        st.tuples(st.floats(-1e6, 1e6), st.floats(1e-6, 1e6)),
        min_size=1,
        max_size=40,
    ),
    st.floats(1.0, 8.0),
)
def test_weighted_mean_stays_in_convex_hull(pairs, p):
    summaries = [BlockSummary(m, sd, 2) for m, sd in pairs]
    got = weighted_mean(summaries, p)
    means = [m for m, _ in pairs]
    slack = 1e-12 * max(1.0, abs(min(means)), abs(max(means)))
    assert min(means) - slack <= got <= max(means) + slack


def test_weighted_mean_damps_loud_block_monotonically():
    """As block 2 gets louder the estimate slides toward block 1's mean,
    and the p=2 weights push harder than p=1."""
    quiet = BlockSummary(0.0, 1.0, 10)
    previous = {1.0: math.inf, 2.0: math.inf}
    for sd in (1.5, 2.0, 3.0, 5.0, 10.0, 40.0):
        loud = BlockSummary(10.0, sd, 10)
        for p in (1.0, 2.0):
            got = weighted_mean([quiet, loud], p)
            assert 0.0 < got < 10.0
            assert got < previous[p]
            previous[p] = got
        assert previous[2.0] < previous[1.0]


# ---------------------------------------------------------------- baselines


def test_median_of_means_hand_values():
    assert median_of_means([BlockSummary(m, 1.0, 2) for m in (1.5, 3.5, 5.5)]) == 3.5
    assert median_of_means([BlockSummary(4.25, 1.0, 2)]) == 4.25
    # even count: midpoint of the central pair
    assert median_of_means([BlockSummary(m, 1.0, 2) for m in (1.0, 2.0, 3.0, 10.0)]) == 2.5


def test_trimmed_mean_hand_value():
    # cut = 5 each side, keep 6..15
    assert trimmed_mean(Sample(np.arange(1.0, 21.0)), 0.0) == 10.5


def test_trimmed_mean_rejects_overtrimming():
    with pytest.raises(ValueError):
        trimmed_mean(Sample(np.arange(1.0, 11.0)), 0.0)
    with pytest.raises(ValueError):
        trimmed_mean(Sample(np.arange(1.0, 21.0)), 0.5)


def test_trimmed_mean_keeps_interior_point_mass():
    """A point mass inside the bulk of the data is not an order-statistic
    extreme, so symmetric trimming leaves it alone."""
    rng = np.random.default_rng(77)
    values = np.arange(1.0, 2501.0)
    values[rng.choice(2500, 150, replace=False)] = 1000.0
    got = trimmed_mean(Sample(values), 0.06)
    srt = np.sort(values)
    kept = srt[155:2345]  # floor(0.06*2500)+5 = 155 per side
    assert got == float(kept.mean())
    assert (kept == 1000.0).sum() == (values == 1000.0).sum()


def test_trimmed_mean_removes_point_mass_above_range():
    rng = np.random.default_rng(77)
    values = np.arange(1.0, 2501.0)
    values[rng.choice(2500, 150, replace=False)] = 10_000.0
    got = trimmed_mean(Sample(values), 0.06)
    kept = np.sort(values)[155:2345]
    assert (kept == 10_000.0).sum() == 0
    assert got == float(kept.mean())


# ----------------------------------------------------------------- dispatch


def test_estimate_dispatch_hand_values():
    assert estimate(Sample(np.array([1.0, 2.0, 3.0, 4.0])), EstimatorSpec("weighted", k=2, p=1.0)) == 2.5
    assert estimate(Sample(np.arange(1.0, 7.0)), EstimatorSpec("mom", k=3)) == 3.5
    assert estimate(Sample(np.arange(1.0, 21.0)), EstimatorSpec("trimmed")) == 10.5


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
    st.floats(1.0, 6.0),
)
def test_weighted_single_block_is_exact_sample_mean(values, p):
    got = estimate(Sample(np.array(values)), EstimatorSpec("weighted", k=1, p=p))
    if all(v == values[0] for v in values):
        # constant input reports the constant itself, with no rounding
        assert got == values[0]
    else:
        assert got == math.fsum(values) / len(values)


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=12, max_size=60),
    st.floats(0.01, 100.0),
    st.booleans(),
    st.floats(-1e3, 1e3),
    st.data(),
)
@settings(max_examples=60)
def test_affine_equivariance(values, scale, flip, shift, data):
    """estimate(a*x + b) == a*estimate(x) + b for the blockwise and trimmed
    estimators (odd k keeps the median a single order statistic)."""
    a = -scale if flip else scale
    x = np.array(values)
    k = data.draw(st.integers(1, len(values) // 2).map(lambda v: v | 1))  # odd
    p = data.draw(st.sampled_from([1.0, 2.0]))
    for spec in (
        EstimatorSpec("weighted", k=k, p=p),
        EstimatorSpec("mom", k=k),
        EstimatorSpec("trimmed", epsilon=0.0),
    ):
        base = estimate(Sample(x), spec)
        moved = estimate(Sample(a * x + shift), spec)
        want = a * base + shift
        assert abs(moved - want) <= 1e-9 * max(1.0, abs(want))


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=40),
    st.data(),
)
def test_permutation_inside_block_is_bit_identical(values, data):
    x = np.array(values)
    k = data.draw(st.integers(1, max(1, len(values) // 2)))
    part = partition(len(values), k)
    j = data.draw(st.integers(0, k - 1))
    lo, hi = part.blocks()[j]
    perm = data.draw(st.permutations(range(hi - lo)))
    shuffled = x.copy()
    shuffled[lo:hi] = x[lo:hi][list(perm)]
    for spec in (
        EstimatorSpec("weighted", k=k, p=2.0),
        EstimatorSpec("weighted", k=k, p=1.0),
        EstimatorSpec("mom", k=k),
    ):
        assert estimate(Sample(x), spec) == estimate(Sample(shuffled), spec)


# --------------------------------------------------------------- validation


def test_estimator_spec_validation():
    with pytest.raises(ValueError):
        EstimatorSpec("midmean")
    with pytest.raises(ValueError):
        EstimatorSpec("weighted", k=0)
    with pytest.raises(ValueError):
        EstimatorSpec("weighted", p=0.5)
    with pytest.raises(ValueError):
        EstimatorSpec("trimmed", epsilon=0.5)
    with pytest.raises(ValueError):
        EstimatorSpec("adaptive", contamination_bound=1.0)
    with pytest.raises(ValueError):
        EstimatorSpec("adaptive", contamination_bound=0.0)


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample(np.array([]))
    with pytest.raises(ValueError):
        Sample(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Sample(np.zeros(3), outlier_mask=np.zeros(4, dtype=bool))
    s = Sample(np.arange(3.0))
    assert s.n == 3 and s.outlier_mask is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sample_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="finite"):
        Sample(np.array([1.0, bad, 3.0]))
