"""Core estimator kernels: partitioning, summaries, weighting, baselines."""

import math
import statistics
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustmean import (
    BlockPartition,
    BlockSummary,
    DistributionSpec,
    EstimatorSpec,
    Sample,
    block_summaries,
    block_weights,
    estimate,
    median_of_means,
    partition,
    sample,
    trimmed_mean,
    weighted_mean,
)
import robustmean.estimators
from robustmean.adaptive import harmonic_mean_inverse
from robustmean.estimators import BlockSummaries, _exact_sums


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


@pytest.mark.parametrize(
    "n,k,message",
    [(6, 0, "need 1 <= k <= n"), (6, 7, "need 1 <= k <= n"), (6, -1, "need 1 <= k <= n"),
     (6, True, "k must be an integer, got True"), (6, 2.0, "k must be an integer, got 2.0"),
     (2.5, 1, "n must be an integer, got 2.5"), (True, 1, "n must be an integer, got True")],
)
def test_partition_rejects_bad_n_or_k(n, k, message):
    with pytest.raises(ValueError, match=message):
        partition(n, k)


def test_partition_accepts_a_numpy_integer_k():
    assert partition(6, np.int64(2)).sizes.tolist() == [3, 3]


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
    # the int64 cast would make these [0, 2, 5] and [0, <some integer>, 5]
    for bounds in ([0, 2.5, 5], [0, math.nan, 5], [0, math.inf, 5]):
        with pytest.raises(ValueError, match="^boundaries must be integers"):
            BlockPartition(np.array(bounds))
    assert BlockPartition(np.array([0.0, 2.0, 5.0])).boundaries.tolist() == [0, 2, 5]


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


def test_block_summaries_read_as_a_list_of_summaries():
    got = summaries_of([1.0, 2.0, 3.0, 4.5, 7.0], 2)
    want = [BlockSummary(2.0, math.sqrt(2 / 3), 3), BlockSummary(5.75, 1.25, 2)]
    assert got == want and got == summaries_of([1.0, 2.0, 3.0, 4.5, 7.0], 2) and got != want[:1]
    assert len(got) == 2 and list(got) == want and got[-1] == want[1] and got[:1] == want[:1]
    assert got.means.tolist() == [2.0, 5.75] and got.sizes.tolist() == [3, 2]
    with pytest.raises(IndexError):
        got[2]


def test_block_summaries_repr_and_foreign_equality():
    got = summaries_of([1.0, 3.0], 1)
    assert repr(got) == "BlockSummaries([BlockSummary(mean=2.0, sd=1.0, size=2)])"
    # neither side knows how to compare, so == falls back to identity
    assert got.__eq__(3) is NotImplemented
    assert (got == 3) is False and (got != 3) is True


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


# -------------------------------------------- block statistics, bit for bit


def oracle_block_stats(values: np.ndarray, part: BlockPartition) -> tuple[list[float], list[float]]:
    """The per-block loop the array engine replaces: ``math.fsum`` sums and ``**`` squares."""
    means, sds = [], []
    for lo, hi in part.blocks():
        block = values[lo:hi]
        if block[0] == block[-1] and (block == block[0]).all():
            means.append(float(block[0]))
            sds.append(0.0)
            continue
        vals = block.tolist()
        mean = math.fsum(vals) / len(vals)
        means.append(mean)
        sds.append(math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / len(vals)))
    return means, sds


def bits(values) -> list[int]:
    """Each float's bit pattern, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@st.composite
def mixed_magnitudes(draw):
    """Values between 1e-300 and 1e301 in magnitude, with cancelling pairs, ties and a constant run."""
    top = draw(st.integers(-300, 300))
    bottom = draw(st.integers(-300, top))
    magnitude = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(bottom, top))
    signed = st.builds(lambda v, negative: -v if negative else v, magnitude, st.booleans())
    values = draw(st.lists(signed | st.sampled_from([0.0, -0.0]), min_size=1, max_size=40))
    for index, twin in draw(st.lists(st.tuples(st.integers(0, len(values) - 1), st.booleans()), max_size=12)):
        values.append(-values[index] if twin else values[index])
    values = draw(st.permutations(values))
    if draw(st.booleans()):
        values[:0] = [draw(signed)] * draw(st.integers(1, 6))
    return np.array(values)


@given(mixed_magnitudes(), st.data())
@settings(max_examples=300)
def test_block_stats_bit_equal_to_the_fsum_loop(x, data):
    k = data.draw(st.just(x.size) | st.integers(1, x.size), label="k")
    part = partition(x.size, k)
    try:
        want_means, want_sds = oracle_block_stats(x, part)
    except OverflowError as want:
        with pytest.raises(OverflowError) as got:
            block_summaries(Sample(x), part)
        assert got.value.args == want.args
        return
    got = block_summaries(Sample(x), part)
    means, sds = got.means, got.sds
    assert bits(means) == bits(want_means)
    assert bits(sds) == bits(want_sds)


def test_squares_equal_libm_pow_bit_for_bit():
    # The engine squares by np.float_power(d, 2.0), which calls libm pow per
    # value as Python's ** does.  pow is not correctly rounded: under glibc it
    # differs from d * d, and so from np.power(d, 2.0), on about 0.08% of
    # these values.  A numpy that vectorised float_power would fail here.
    # The engine passes pow |d|, the base CPython's float_pow passes it for
    # a negative d, so that form must give the same bits too.
    rng = np.random.default_rng(20081217)
    d = rng.choice([-1.0, 1.0], 10**6) * 10.0 ** rng.uniform(-100.0, 100.0, 10**6)
    want = bits([v**2 for v in d.tolist()])
    assert bits(np.float_power(d, 2.0)) == want
    assert bits(np.float_power(np.abs(d), 2.0)) == want
    # tiny squares, including those that underflow to a subnormal
    # (|d| < 2**-511) or round to 0 (|d| < 2**-537.5); the negated edges
    # bring -0.0 and the negative subnormals -2**-1030 and -2**-1074
    tiny = rng.choice([-1.0, 1.0], 10**4) * 2.0 ** rng.uniform(-560.0, -450.0, 10**4)
    edges = [0.0, 2.0**-450, 2.0**-511, 2.0**-537, 2.0**-538, 2.0**-1030, 2.0**-1074, np.nextafter(2.0**-537, 0.0)]
    tiny = np.concatenate([tiny, edges, np.negative(edges), np.nextafter(edges, 1.0)])
    squares = np.float_power(tiny, 2.0)
    want = bits([v**2 for v in tiny.tolist()])
    assert bits(squares) == want
    assert bits(np.float_power(np.abs(tiny), 2.0)) == want
    assert (squares == 0.0).any() and ((squares > 0.0) & (squares < 2.0**-1022)).any()


def summaries_in_runs(x, part, run_values):
    """:func:`block_summaries` with ``_RUN_VALUES`` set to ``run_values``, and the block count of each run it took."""
    rows_stats = robustmean.estimators._rows_stats
    runs = []

    def spy(run, starts, sizes, means, sds):
        runs.append(sizes.size)
        rows_stats(run, starts, sizes, means, sds)

    with mock.patch.object(robustmean.estimators, "_RUN_VALUES", run_values), \
            mock.patch.object(robustmean.estimators, "_rows_stats", spy):
        got = block_summaries(Sample(x), part)
    return got, runs


@pytest.mark.parametrize(
    "n, boundaries, run_values, runs",
    [
        (16, [0, 4, 8, 12, 16], 16, [4]),  # the sample fills exactly one window
        (40, [0, 5, 10, 15, 20, 25, 30, 35, 40], 16, [4, 3, 1]),  # blocks straddle the windows' edges
        (50, [0, 3, 40, 45, 50], 8, [2, 2]),  # block 1 is longer than four windows
        (50, [0, 3, 40, 45, 50], 1, [1, 1, 1, 1]),  # every block its own run
        (7, [0, 7], 1, [1]),  # one block over seven windows
    ],
    ids=["one-window", "straddling", "long-block", "window-of-1", "single-block"],
)
def test_multi_run_engine_equals_the_fsum_loop(n, boundaries, run_values, runs):
    rng = np.random.default_rng(n + run_values)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 6, n)
    x[-4:] = x[-1]  # a constant tail block in the last run
    part = BlockPartition(np.array(boundaries))
    got, taken = summaries_in_runs(x, part, run_values)
    want_means, want_sds = oracle_block_stats(x, part)
    assert taken == runs
    assert bits(got.means) == bits(want_means)
    assert bits(got.sds) == bits(want_sds)


@given(mixed_magnitudes(), st.integers(1, 64), st.data())
@settings(max_examples=200)
def test_block_stats_over_small_windows_bit_equal_to_the_fsum_loop(x, run_values, data):
    cuts = data.draw(st.sets(st.integers(1, x.size - 1), max_size=x.size - 1), label="cuts") if x.size > 1 else set()
    part = BlockPartition(np.array([0, *sorted(cuts), x.size]))
    try:
        want_means, want_sds = oracle_block_stats(x, part)
    except OverflowError as want:
        with pytest.raises(OverflowError) as got:
            summaries_in_runs(x, part, run_values)
        assert got.value.args == want.args
        return
    got, taken = summaries_in_runs(x, part, run_values)
    assert len(taken) == len(set((part.boundaries[:-1] // run_values).tolist()))
    assert bits(got.means) == bits(want_means)
    assert bits(got.sds) == bits(want_sds)


def test_uncertified_row_falls_back_to_fsum():
    # 1 + 2**-53 is a rounding midpoint and 2**-150 tips the exact sum past
    # it.  The extraction passes leave 2**-150 as the residual, too small to
    # move the rounded total off 1.0, so the certificate must refuse the row.
    row = np.array([1.0, 2.0**-53, 2.0**-150])
    total, certified = _exact_sums(row, np.array([0]), np.array([3]), np.array([1.0]))
    assert total[0] == 1.0 and not certified[0]
    means = block_summaries(Sample(row), partition(3, 1)).means
    assert math.fsum(row.tolist()) == 1.0 + 2.0**-52
    assert bits(means) == bits(oracle_block_stats(row, partition(3, 1))[0])
    assert bits(means) != bits([1.0 / 3.0])


def test_uncertified_row_below_a_power_of_two_falls_back_to_fsum():
    # 1 - 2**-54 is the midpoint of the smaller gap under 1.0 and -2**-150
    # tips the exact sum past it, so fsum gives 1 - 2**-53; the total rounds
    # to 1.0, which only the wider gap above 1.0 would certify
    row = np.array([1.0, -(2.0**-54), -(2.0**-150)])
    total, certified = _exact_sums(row, np.array([0]), np.array([3]), np.array([1.0]))
    assert total[0] == 1.0 and not certified[0]
    assert math.fsum(row.tolist()) == 1.0 - 2.0**-53
    # a fourth value, 0, makes the mean the exact sum / 4, which tells the two sums apart
    block = np.append(row, 0.0)
    means = block_summaries(Sample(block), partition(4, 1)).means
    assert bits(means) == bits(oracle_block_stats(block, partition(4, 1))[0]) == bits([(1.0 - 2.0**-53) / 4])


@pytest.mark.parametrize(
    "values, k",
    [
        ([1e160, -1e160, 3e160, 2e160, 1.0, 2.0], 3),  # the squares overflow in pow
        ([1e308, 1.7e308, 3e160, 1e160], 2),  # fsum overflows in block 0, before block 1's squares
        ([1.0, 2.0, 3e160, 1e160, 1e308, 1.7e308], 3),  # pow in block 1, before fsum in block 2
    ],
)
def test_huge_values_raise_the_fsum_loops_overflow_error(values, k):
    x = np.array(values)
    part = partition(x.size, k)
    with pytest.raises(OverflowError) as want:
        oracle_block_stats(x, part)
    with pytest.raises(OverflowError) as got:
        block_summaries(Sample(x), part)
    assert got.value.args == want.value.args


def test_one_out_of_range_block_alone_runs_the_fsum_loop(monkeypatch):
    # 2**505 is above the array path's range, so its block runs the fsum
    # loop; the other 255 blocks, one run of 16,384 values, stay on the arrays
    x = np.random.default_rng(505).standard_normal(16384)
    x[5000] = 2.0**505
    part = partition(x.size, 256)
    fsum_stats = robustmean.estimators._fsum_stats
    calls = []
    monkeypatch.setattr(robustmean.estimators, "_fsum_stats", lambda block: calls.append(block.size) or fsum_stats(block))
    got = block_summaries(Sample(x), part)
    want_means, want_sds = oracle_block_stats(x, part)
    assert bits(got.means) == bits(want_means)
    assert bits(got.sds) == bits(want_sds)
    assert calls == [64]


@pytest.mark.parametrize("exponent", [-392, -391, -390, -389, -388, -302, -300, -298, 446, 447, 448, 449, 450])
def test_blocks_at_the_edges_of_the_array_path_equal_the_fsum_loop(exponent):
    top = 2.0**exponent
    rows = [np.random.default_rng(exponent % 997 + j).uniform(-1.0, 1.0, 8) * top for j in range(5)]
    rows[0][3] = top  # largest |value| exactly 2**exponent
    rows[1][5] = -np.nextafter(top, 0.0)  # just below it
    rows[2][:] = np.nextafter(top, math.inf)  # a constant block
    rows[3][::2], rows[3][1::2] = top, np.nextafter(top, 0.0)  # the least spread a block can have
    # the last deviation of this row is below 2**-537.5, so its square rounds to 0
    x = np.concatenate([*rows, [2.0**-200, -(2.0**-200), 2.0**-1000]])
    for part in (BlockPartition(np.array([0, 8, 16, 24, 32, 40, 43])), partition(x.size, 1), partition(x.size, 6)):
        got = block_summaries(Sample(x), part)
        want_means, want_sds = oracle_block_stats(x, part)
        assert bits(got.means) == bits(want_means)
        assert bits(got.sds) == bits(want_sds)


@pytest.mark.parametrize("k", [1, 2, 25, 256, 2500, 20000])
@pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
def test_engine_at_realistic_sizes_equals_the_fsum_loop(scale, k):
    # 20,000 values are one run of _RUN_VALUES; both scales keep every
    # block inside _ROW_RANGE
    assert_engine_equals_the_fsum_loop(contaminated_half_t(20000) * scale, k)


@pytest.mark.parametrize("k", [1, 2, 3, 256, 7000, 70000])
def test_engine_over_three_windows_equals_the_fsum_loop(k):
    # 70,000 values span three windows of _RUN_VALUES = 2**15; at k=2 each
    # block is longer than a window, and at k=3 blocks straddle their edges
    assert_engine_equals_the_fsum_loop(contaminated_half_t(70000), k)


def contaminated_half_t(n):
    x = sample(DistributionSpec.half_t(4), n, seed=n).values.copy()
    rng = np.random.default_rng(n)
    x[rng.choice(x.size, 100, replace=False)] = rng.choice([1e3, 1e5], 100)
    return x


def assert_engine_equals_the_fsum_loop(x, k):
    part = partition(x.size, k)
    got = block_summaries(Sample(x), part)
    want_means, want_sds = oracle_block_stats(x, part)
    assert bits(got.means) == bits(want_means)
    assert bits(got.sds) == bits(want_sds)


# Blocks whose array-path result is overwritten.  A block that is not a row
# (constant, or with its largest |value| outside _ROW_RANGE) enters the array
# path as zeros; a constant one then takes its value as mean, and the others
# run the fsum loop, as does a row whose sum or sum of squares is not certified.
SPECIAL_BLOCKS = {
    "constant": np.full(50, 3.25),
    "out-of-range": np.append(np.linspace(-1.0, 1.0, 49), 2.0**505),
    # out of range from below: every |value| is under 2**-390
    "tiny": np.linspace(-1.0, 1.0, 50) * 2.0**-400,
    # the sum's extraction leaves 2**-150 over a rounding midpoint
    "uncertified": np.array([1.0, 2.0**-53, 2.0**-150]),
    # the sum, 0, is exact; the squares sum to 2 + 2**-52 + 2**-149, past the midpoint above 2
    "squares-uncertified": np.array([1.0, -1.0, 2.0**-27, -(2.0**-27), 2.0**-27, -(2.0**-27), 2.0**-75, -(2.0**-75)]),
}


def test_the_special_blocks_leave_the_common_path_where_they_should():
    row = SPECIAL_BLOCKS["uncertified"]
    assert not _exact_sums(row, np.array([0]), np.array([3]), np.array([1.0]))[1].all()
    block = SPECIAL_BLOCKS["squares-uncertified"]
    one = (np.array([0]), np.array([8]), np.array([1.0]))
    total, certified = _exact_sums(block, *one)
    assert total[0] == 0.0 and certified.tolist() == [True]
    total, certified = _exact_sums(np.float_power(np.abs(block), 2.0), *one)
    assert not certified.all() and math.fsum((block**2).tolist()) == 2.0 + 2.0**-51 != total[0]


@pytest.mark.parametrize("n, runs", [(5000, 1), (103300, 4), (0, 1)], ids=["one-run", "four-runs", "special-only"])
@pytest.mark.parametrize("kinds", [[name] for name in SPECIAL_BLOCKS] + [list(SPECIAL_BLOCKS)],
                         ids=[*SPECIAL_BLOCKS, "all"])
def test_runs_mixing_ordinary_and_special_blocks_equal_the_fsum_loop(monkeypatch, n, runs, kinds):
    # ordinary blocks of 50 half-t values, with the special blocks planted
    # after the first and before the last two; with n = 0 the run holds the
    # special blocks alone, so a constant, out-of-range or tiny one makes a
    # run with no row at all
    ordinary = np.split(contaminated_half_t(n), n // 50) if n else []
    special = [SPECIAL_BLOCKS[name] for name in kinds]
    blocks = [*ordinary[:1], *special, *ordinary[1:-2], *special, *ordinary[-2:]]
    x = np.concatenate(blocks)
    part = BlockPartition(np.cumsum([0, *map(len, blocks)]))
    fsum_stats = robustmean.estimators._fsum_stats
    calls = []
    monkeypatch.setattr(robustmean.estimators, "_fsum_stats", lambda block: calls.append(block.size) or fsum_stats(block))
    got, taken = summaries_in_runs(x, part, robustmean.estimators._RUN_VALUES)
    want_means, want_sds = oracle_block_stats(x, part)
    assert bits(got.means) == bits(want_means)
    assert bits(got.sds) == bits(want_sds)
    assert len(taken) == runs
    assert sorted(calls) == sorted(2 * [SPECIAL_BLOCKS[name].size for name in kinds if name != "constant"])


def test_a_run_of_every_special_kind_warns_nothing():
    # every kind of special block in one run, with warnings as errors: the zeros they enter as warn of nothing
    blocks = list(SPECIAL_BLOCKS.values())
    x = np.concatenate(blocks)
    part = BlockPartition(np.cumsum([0, *map(len, blocks)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = block_summaries(Sample(x), part)
    want_means, want_sds = oracle_block_stats(x, part)
    assert bits(got.means) == bits(want_means)
    assert bits(got.sds) == bits(want_sds)


# ------------------------------------------------------------- weight base


def todays_weights(means, sds, p):
    """The weights computed afresh: the quiet indicator, or ``(ref / sds) ** p``, normalised."""
    quiet = sds <= robustmean.estimators.QUIET_RELATIVE_SD * np.abs(means).max()
    ratios = quiet.astype(np.float64) if quiet.any() else (sds.min() / sds) ** p
    return ratios / ratios.sum()


@pytest.mark.parametrize("quiet", [False, True], ids=["loud", "quiet"])
def test_weights_at_every_p_share_one_base_bit_for_bit(quiet):
    x = contaminated_half_t(2500)
    if quiet:
        x[100:200] = 7.0  # one constant block
    part = partition(x.size, 25)

    def fresh():
        return block_summaries(Sample(x), part)

    shared = fresh()
    as_list = list(shared)
    for p in (2.0, 1.0, 2.0, 3.0):
        want = weighted_mean(fresh(), p)
        assert bits([weighted_mean(shared, p)]) == bits([want]) == bits([weighted_mean(as_list, p)])
        assert bits([want]) == bits([float(todays_weights(shared.means, shared.sds, p) @ shared.means)])
    for p in (1.0, 2.5):
        assert bits(block_weights(shared, p)) == bits(block_weights(fresh(), p)) == bits(block_weights(as_list, p))
        assert bits(block_weights(shared, p)) == bits(todays_weights(shared.means, shared.sds, p))
        want = harmonic_mean_inverse(fresh(), p)
        assert bits([harmonic_mean_inverse(shared, p)]) == bits([want]) == bits([harmonic_mean_inverse(as_list, p)])
    assert (harmonic_mean_inverse(shared, 2.0) == 0.0) == quiet
    # every other block, as strided views of the arrays, takes the same path as a copy
    strided = BlockSummaries(shared.means[::2], shared.sds[::2], shared.sizes[::2])
    for p in (1.0, 2.0):
        want = float(todays_weights(strided.means, strided.sds, p) @ strided.means)
        assert bits([weighted_mean(strided, p)]) == bits([want]) == bits([weighted_mean(list(strided), p)])


def test_summaries_and_their_weight_base_are_read_only():
    # the weights at every p share one base computed once, so the arrays it is built from must not change
    summaries = block_summaries(Sample(contaminated_half_t(2500)), partition(2500, 25))
    for array in (summaries.means, summaries.sds):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    weighted_mean(summaries, 2.0)
    _, base = summaries._weight_base()
    with pytest.raises(ValueError, match="read-only"):
        base[0] = 0.0
    quiet = block_summaries(Sample(np.full(100, 7.0)), partition(100, 4))
    ref, ratios = robustmean.estimators._inverse_power_ratios(quiet, 1.0)
    assert ref == 0.0 and ratios.tolist() == [1.0] * 4
    with pytest.raises(ValueError, match="read-only"):
        ratios[0] = 0.0


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


def test_rounding_level_block_is_quiet_like_a_constant_one():
    # [-1000, next float up] has sd ~6e-14: rounding, not spread.  Scaling
    # can merge the pair into a constant block, so it must already share
    # the mass with the exactly constant block, or the estimate jumps.
    x = np.array([-1000.0, np.nextafter(-1000.0, 0.0), 5.0, 5.0, 300.0, -200.0])
    assert list(block_weights(summaries_of(x, 3), 2.0)) == [0.5, 0.5, 0.0]
    base = estimate(Sample(x), EstimatorSpec("weighted", k=3, p=2.0))
    for a, b in [(66.0, 0.0), (0.3, 7.0), (-1e-3, 250.0)]:
        moved = estimate(Sample(a * x + b), EstimatorSpec("weighted", k=3, p=2.0))
        assert abs(moved - (a * base + b)) <= 1e-9 * max(1.0, abs(a * base + b))


def test_spread_above_rounding_stays_loud_after_a_large_shift():
    # After a shift by 1e14 every value is still exact and the block sds
    # (1 and 10) are 64 and 640 ulps: spread, not rounding, so the sd^-p
    # weights, and the estimate up to the shift, must not change.
    x = np.array([0.0, 2.0, 0.0, 20.0])
    spec = EstimatorSpec("weighted", k=2, p=2.0)
    base = estimate(Sample(x), spec)
    assert estimate(Sample(x + 1e14), spec) == base + 1e14
    assert list(block_weights(summaries_of(x + 1e14, 2), 2.0)) == list(block_weights(summaries_of(x, 2), 2.0))


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


# signed zeros, infinities, NaN, doubles whose pairwise sums overflow and the least subnormal; repeats make ties
_MEDIAN_SPECIALS = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1.7976931348623157e308,
                    -1.7976931348623157e308, 1.7e308, -1.7e308, 8.98846567431158e307, 5e-324, -5e-324]


@given(st.lists(st.sampled_from(_MEDIAN_SPECIALS) | st.floats(), min_size=1, max_size=40), st.booleans())
@settings(max_examples=500)
def test_median_of_means_is_np_median_bit_for_bit(means, as_list):
    arrays = BlockSummaries(np.array(means), np.ones(len(means)), np.full(len(means), 2))
    summaries = list(arrays) if as_list else arrays
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.median(np.array(means))
    assert bits([median_of_means(summaries)]) == bits([want])


@pytest.mark.parametrize(
    "means, want",
    [([-0.0], 0.0), ([-0.0, -0.0], 0.0), ([1.0, -0.0, -0.0], 0.0), ([1.7e308, 1.7e308], math.inf),
     ([math.inf, -math.inf], math.nan), ([1.0, math.nan, 2.0], math.nan), ([-math.inf, 3.0, -math.inf, 5.0], -math.inf)],
)
def test_median_of_means_edge_values(means, want):
    got = median_of_means([BlockSummary(m, 1.0, 2) for m in means])
    assert math.isnan(got) if math.isnan(want) else bits([got]) == bits([want])


@pytest.mark.parametrize("combine", [median_of_means, lambda summaries: weighted_mean(summaries, 2.0)], ids=["mom", "weighted"])
@pytest.mark.parametrize("empty", [[], BlockSummaries(np.array([]), np.array([]), np.array([], dtype=np.int64))],
                         ids=["list", "arrays"])
def test_combiners_reject_no_blocks(combine, empty):
    with pytest.raises(ValueError, match="no blocks"):
        combine(empty)


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


@pytest.mark.parametrize(
    "values, spec",
    [
        ([1.7e308] * 30 + [1.6e308] * 30, EstimatorSpec("mom", k=2)),  # the central pair's average is inf
        ([1.7e308] * 30 + [1.6e308] * 30, EstimatorSpec("trimmed", epsilon=0.0)),  # the sum is inf
        ([1.7e308, -1.7e308] * 300, EstimatorSpec("trimmed", epsilon=0.1)),  # inf - inf is nan
        ([1.7e308, -1.7e308] * 300, EstimatorSpec("adaptive")),  # the scan's squares raise
        ([1e160, -2e160, 3e160, 5e159], EstimatorSpec("weighted", k=2)),  # the squares raise
    ],
    ids=["mom-inf", "trimmed-inf", "trimmed-nan", "adaptive-raises", "weighted-raises"],
)
def test_estimate_raises_one_overflow_error_for_numbers_too_large_to_summarise(values, spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError) as err:
            estimate(Sample(np.array(values)), spec)
    assert err.value.args == ("the numbers are too large to summarise: squaring or summing them overflows",)


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
