"""Scale estimator, event test, and the dyadic block-count scan."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustmean.adaptive
from robustmean import (
    AdaptiveConfig,
    BlockSummary,
    ContaminationSpec,
    DistributionSpec,
    EstimatorSpec,
    Sample,
    adaptive_estimate,
    adaptive_k,
    block_summaries,
    contaminate,
    estimate,
    event_check,
    event_check_plain,
    harmonic_mean_inverse,
    partition,
    robust_sigma,
    sample,
    substream_seed,
    weighted_mean,
)

CFG = AdaptiveConfig()


def summaries_from_sds(sds):
    return [BlockSummary(0.0, sd, 2) for sd in sds]


# -------------------------------------------------------------- robust_sigma


def test_robust_sigma_constant_sample_is_zero():
    got = robust_sigma(Sample(np.full(400, 3.25)))
    assert got.sigma_tilde == 0.0
    assert got.groups_used == 4


def test_robust_sigma_needs_400_observations():
    with pytest.raises(ValueError):
        robust_sigma(Sample(np.zeros(399)))


def test_robust_sigma_discards_trailing_remainder():
    """A partial trailing group must not influence the estimate."""
    x = sample(DistributionSpec.normal(), 400, 21).values
    wild = np.concatenate([x, np.full(50, 1e9)])
    assert robust_sigma(Sample(wild)).sigma_tilde == robust_sigma(Sample(x)).sigma_tilde
    assert robust_sigma(Sample(wild)).groups_used == 4


def test_robust_sigma_normal_sample_near_gaussian_gap():
    """E|X - X'| = 2 sigma / sqrt(pi) ~ 1.1284 for independent Gaussians."""
    s = sample(DistributionSpec.normal(), 10_000, 4)
    assert 1.0 <= robust_sigma(s).sigma_tilde <= 1.3


def test_robust_sigma_survives_one_outlier_per_group():
    """An outlier in every 100-value group leaves the scale near the clean
    Gaussian gap: each group's median gap ignores its one wild pair."""
    x = sample(DistributionSpec.normal(), 10_000, 4).values.copy()
    x[::100] = 1e3
    assert 1.0 <= robust_sigma(Sample(x)).sigma_tilde <= 1.3


def test_gaussian_gap_constant_against_brute_force():
    rng = np.random.default_rng(5)
    mc = float(np.abs(rng.normal(0, 1, 10**6) - rng.normal(0, 1, 10**6)).mean())
    assert abs(mc - 2.0 / math.sqrt(math.pi)) < 0.005


def test_robust_sigma_scale_equivariant_exactly_for_dyadic_scale():
    x = sample(DistributionSpec.normal(), 500, 3).values
    base = robust_sigma(Sample(x)).sigma_tilde
    for a in (2.0, 0.25, -8.0):
        assert robust_sigma(Sample(a * x)).sigma_tilde == abs(a) * base


@given(st.floats(0.01, 50.0), st.booleans(), st.floats(-100.0, 100.0))
@settings(max_examples=25)
def test_robust_sigma_affine(scale, flip, shift):
    a = -scale if flip else scale
    x = sample(DistributionSpec.normal(), 500, 3).values
    base = robust_sigma(Sample(x)).sigma_tilde
    moved = robust_sigma(Sample(a * x + shift)).sigma_tilde
    assert abs(moved - abs(a) * base) <= 1e-9 * max(1.0, abs(a) * base)


def oracle_robust_sigma(x):
    """robust_sigma's scale from ``np.median`` over each group's gaps and over the groups."""
    groups = x.size // 100
    pairs = x[: groups * 100].reshape(groups, 50, 2)
    with np.errstate(over="ignore"):
        gaps = np.median(np.abs(pairs[:, :, 1] - pairs[:, :, 0]), axis=1)
        return float(np.median(gaps)) * robustmean.adaptive._MEDIAN_GAP_TO_MEAN_GAP


def robust_sigma_cases():
    rng = np.random.default_rng(20081217)
    # every trailing remainder, and the adaptive_scan workload's size
    for n in [*range(400, 500), 16_384]:
        yield rng.standard_t(3.0, n)
    # ties, and groups that are wholly constant
    for n in (400, 1_234, 16_384):
        yield rng.integers(0, 4, n).astype(float)
        x = rng.normal(size=n)
        x[100:300] = 2.5
        yield x
    for scale in (1e-150, 1e150):
        for n in (400, 2_345, 16_384):
            yield scale * rng.standard_t(2.0, n)
    # subnormal gaps, whose central pair's mean rounds
    yield 2.0**-1074 * rng.integers(0, 8, 1_000)
    # neighbour pairs whose gaps overflow: in every group, in a minority of
    # groups, in a majority, and in some pairs of every group
    huge = np.array([1.7e308, -1.7e308] * 200)
    yield huge
    for broken in (1, 3):
        x = rng.normal(size=400)
        x[: broken * 100] = huge[: broken * 100]
        yield x
    yield 1e308 * rng.choice([-1.0, 1.0], 800) * rng.uniform(0.5, 1.0, 800)
    # finite gaps whose central pair's sum overflows
    yield np.array([0.0, 1e308] * 200)
    for _ in range(60):
        n = int(rng.integers(400, 20_001))
        yield 10.0 ** rng.uniform(-150.0, 150.0) * (rng.standard_t(2.0, n) + rng.normal())


def test_robust_sigma_equals_the_np_median_oracle_bit_for_bit():
    for x in robust_sigma_cases():
        got = robust_sigma(Sample(x))
        assert got.sigma_tilde.hex() == oracle_robust_sigma(x).hex(), x.size
        assert got.groups_used == x.size // 100


def test_robust_sigma_is_inf_without_a_warning_when_gaps_overflow():
    huge = Sample(np.array([1.7e308, -1.7e308] * 200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert robust_sigma(huge).sigma_tilde == math.inf
        # the scan then meets the engine's overflow, as the weighted kind does
        for spec in (EstimatorSpec("adaptive"), EstimatorSpec("weighted", k=2)):
            with pytest.raises(OverflowError):
                estimate(huge, spec)


# ----------------------------------------------------- harmonic mean, event


def test_harmonic_mean_inverse_hand_values():
    assert harmonic_mean_inverse(summaries_from_sds([1.0, 1.0, 1.0, 1.0]), 1.0) == 1.0
    assert abs(harmonic_mean_inverse(summaries_from_sds([0.5, 1.0]), 1.0) - 2.0 / 3.0) < 1e-15
    assert harmonic_mean_inverse(summaries_from_sds([0.0, 1.0]), 2.0) == 0.0


def test_harmonic_mean_inverse_rejects_bad_input():
    with pytest.raises(ValueError):
        harmonic_mean_inverse([], 1.0)
    with pytest.raises(ValueError):
        harmonic_mean_inverse(summaries_from_sds([1.0]), 0.5)


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_harmonic_mean_inverse_rejects_non_finite_exponent(p):
    with pytest.raises(ValueError, match="finite"):
        harmonic_mean_inverse(summaries_from_sds([1.0, 2.0]), p)


@given(
    st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=30),
    st.floats(1.0, 4.0),
    st.data(),
)
def test_harmonic_mean_inverse_bounds_and_monotone(sds, p, data):
    h = harmonic_mean_inverse(summaries_from_sds(sds), p)
    lo, hi = min(sds) ** p, max(sds) ** p
    assert lo * (1 - 1e-12) <= h <= hi * (1 + 1e-12)
    # raising one dispersion cannot lower the harmonic mean
    j = data.draw(st.integers(0, len(sds) - 1))
    raised = list(sds)
    raised[j] *= data.draw(st.floats(1.0, 10.0))
    assert harmonic_mean_inverse(summaries_from_sds(raised), p) >= h * (1 - 1e-12)


def test_event_check_hand_values():
    cfg = AdaptiveConfig(p=1.0, contamination_bound=0.5)
    assert event_check(summaries_from_sds([1.0] * 4), 1.0, 1.0, cfg) is True
    # threshold is 80*1/(1-0.5) = 160, and 200 > 160
    assert event_check(summaries_from_sds([200.0] * 4), 1.0, 1.0, cfg) is False
    assert event_check(summaries_from_sds([0.0, 500.0]), 1.0, 1.0, cfg) is True


def test_event_check_plain_uses_tighter_constant():
    cfg = AdaptiveConfig(p=1.0, contamination_bound=0.5)
    # plain threshold is 4*sigma/(1-C) = 8 here
    assert event_check_plain(summaries_from_sds([7.0] * 3), 1.0, 1.0, cfg) is True
    assert event_check_plain(summaries_from_sds([9.0] * 3), 1.0, 1.0, cfg) is False


@given(
    st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=20),
    st.floats(0.1, 100.0),
    st.data(),
)
def test_event_check_monotone_under_calming(sds, sigma, data):
    cfg = AdaptiveConfig(p=2.0, contamination_bound=0.5)
    if not event_check(summaries_from_sds(sds), 2.0, sigma, cfg):
        return
    j = data.draw(st.integers(0, len(sds) - 1))
    calmer = list(sds)
    calmer[j] *= data.draw(st.floats(0.0, 1.0))
    assert event_check(summaries_from_sds(calmer), 2.0, sigma, cfg) is True


# ----------------------------------------------------------------- the scan


def test_adaptive_k_stops_immediately_when_scale_is_generous():
    s = sample(DistributionSpec.normal(), 1024, 12)
    assert adaptive_k(s, AdaptiveConfig(p=1.0), 100.0) == 2


def test_adaptive_k_first_passing_power_of_two():
    """Tune sigma so the threshold falls between the k=16 and k=32 harmonic
    levels; the scan must then stop exactly at 32."""
    s = sample(DistributionSpec.normal(), 1024, 12)
    h = {
        i: harmonic_mean_inverse(block_summaries(s, partition(1024, 1 << i)), 1.0)
        for i in range(1, 6)
    }
    assert all(h[i + 1] < h[i] for i in range(1, 5)), "construction needs decreasing levels"
    cfg = AdaptiveConfig(p=1.0, contamination_bound=0.5)
    sigma = (h[4] + h[5]) / 2 * (1 - 0.5) / 80
    assert adaptive_k(s, cfg, sigma) == 32


def test_adaptive_k_returns_2_when_no_level_passes(monkeypatch):
    monkeypatch.setattr(robustmean.adaptive, "event_check", lambda *a, **kw: False)
    s = sample(DistributionSpec.normal(), 1000, 1)
    assert adaptive_k(s, CFG, 1.0) == 2


def test_adaptive_k_builds_each_scanned_level_once(monkeypatch):
    s = contaminate(sample(DistributionSpec.normal(), 1000, 1), ContaminationSpec(10, 1e4), 2)
    built = []

    def counted(sample, part):
        built.append(part.k)
        return block_summaries(sample, part)

    monkeypatch.setattr(robustmean.adaptive, "block_summaries", counted)
    k = adaptive_k(s, CFG, robust_sigma(s).sigma_tilde)
    assert k > 2 and built == [1 << i for i in range(1, k.bit_length())]


def test_adaptive_k_zero_scale_stops_at_singleton_blocks():
    """With sigma=0 the event only holds once some block has zero sd, which
    the top power of two forces through singleton blocks."""
    s = sample(DistributionSpec.normal(), 1025, 9)
    assert adaptive_k(s, CFG, 0.0) == 1024


def test_adaptive_k_needs_two_observations():
    with pytest.raises(ValueError):
        adaptive_k(Sample(np.array([1.0])), CFG, 1.0)


@given(st.integers(2, 300), st.integers(0, 2**32), st.floats(0.0, 10.0))
@settings(max_examples=40)
def test_adaptive_k_is_power_of_two_in_range(n, seed, sigma):
    s = sample(DistributionSpec.student_t(4.0), n, seed)
    k = adaptive_k(s, CFG, sigma)
    assert k & (k - 1) == 0  # power of two
    assert 2 <= k <= 1 << (n.bit_length() - 1)


# --------------------------------------------------------- adaptive estimate


def test_adaptive_estimate_constant_sample_is_exact():
    assert adaptive_estimate(Sample(np.full(500, 0.1)), CFG) == 0.1


def test_adaptive_estimate_builds_exactly_the_scanned_levels(monkeypatch):
    s = contaminate(sample(DistributionSpec.normal(), 1000, 1), ContaminationSpec(10, 1e4), 2)
    k = adaptive_k(s, CFG, robust_sigma(s).sigma_tilde)
    alone = weighted_mean(block_summaries(s, partition(s.n, k)), CFG.p)
    scanned = [1 << i for i in range(1, k.bit_length())]
    built = []

    def counted(sample, part):
        built.append(part.k)
        return block_summaries(sample, part)

    monkeypatch.setattr(robustmean.adaptive, "block_summaries", counted)
    assert adaptive_estimate(s, CFG) == alone and built == scanned
    levels = {}
    built.clear()
    assert adaptive_estimate(s, CFG, levels) == alone and built == scanned and sorted(levels) == scanned
    built.clear()
    assert adaptive_estimate(s, CFG, levels) == alone and built == []


def test_adaptive_estimate_needs_robust_sigma_size():
    with pytest.raises(ValueError):
        adaptive_estimate(Sample(np.zeros(399)), CFG)


def test_adaptive_estimate_clean_normal_concentrates():
    """|estimate| <= 0.1 on clean N(0,1) data at N=2500, in at least 99% of
    1000 replications."""
    good = 0
    for r in range(1000):
        s = sample(DistributionSpec.normal(), 2500, substream_seed(31, "sample", r))
        if abs(adaptive_estimate(s, CFG)) <= 0.1:
            good += 1
    assert good >= 990


def test_scale_estimate_within_lemma_band_across_families():
    """Appendix-style sanity: sigma/20 <= sigma_tilde <= 4 sigma on every one
    of 200 draws at N=1000, for a light and a heavy tailed family."""
    for dist in (DistributionSpec.normal(), DistributionSpec.half_t(4.0)):
        sigma = dist.true_sd
        for r in range(200):
            s = sample(dist, 1000, substream_seed(55, "sample", r))
            ratio = robust_sigma(s).sigma_tilde / sigma
            assert 1 / 20 <= ratio <= 4


def test_adaptive_config_validation():
    # the thresholds are module constants, not knobs
    assert [f.name for f in dataclasses.fields(AdaptiveConfig)] == ["p", "contamination_bound"]
    with pytest.raises(ValueError):
        AdaptiveConfig(p=0.5)
    with pytest.raises(ValueError):
        AdaptiveConfig(contamination_bound=1.5)


@pytest.mark.parametrize(
    "knobs", [{"p": 0.5}, {"contamination_bound": 1.0}, {"p": 0.5, "contamination_bound": 0.0}, {"p": True}]
)
def test_adaptive_config_and_its_estimator_spec_reject_alike(knobs):
    with pytest.raises(ValueError) as config:
        AdaptiveConfig(**knobs)
    with pytest.raises(ValueError) as spec:
        EstimatorSpec("adaptive", **knobs)
    assert str(config.value) == str(spec.value)


@pytest.mark.parametrize("field", ["p", "contamination_bound"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_adaptive_config_rejects_non_finite_knobs(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        AdaptiveConfig(**{field: bad})
