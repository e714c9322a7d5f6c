"""Samplers, their moments, and the point-mass contamination model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from robustmean import (
    ContaminationSpec,
    DistributionSpec,
    Sample,
    abs_t_mean,
    abs_t_sd,
    contaminate,
    sample,
)


# ------------------------------------------------------------- |t| moments


def test_abs_t_moments_at_df4_are_unit():
    # closed form gives exactly 1 in real arithmetic; lgamma evaluation
    # wobbles in the last few ulps
    assert abs(abs_t_mean(4.0) - 1.0) < 1e-12
    assert abs(abs_t_sd(4.0) - 1.0) < 1e-12
    assert abs_t_mean(4.0).hex() == "0x1.0000000000002p+0"  # below df = 100 the lgamma formula keeps its bits


@pytest.mark.parametrize("df", [2.5, 3.0, 4.0, 7.5, 30.0])
def test_abs_t_mean_matches_integration_oracle(df):
    oracle, err = integrate.quad(lambda x: 2.0 * x * stats.t.pdf(x, df), 0.0, np.inf)
    assert err < 1e-7
    assert abs(abs_t_mean(df) - oracle) < 1e-7


@pytest.mark.parametrize("df", [1e8, 1e10, 1e12, 1e15, 1e100, 1e300])
def test_abs_t_moments_follow_their_large_df_expansion(df):
    # E|T| = sqrt(2/pi) (1 + 3/(4 df) + O(1/df^2)); a difference of lgamma values loses these digits
    assert math.isclose(abs_t_mean(df), math.sqrt(2.0 / math.pi) * (1.0 + 3.0 / (4.0 * df)), rel_tol=1e-13, abs_tol=0.0)
    assert math.isclose(abs_t_sd(df), math.sqrt((1.0 - 2.0 / math.pi) + (2.0 - 3.0 / math.pi) / df), rel_tol=1e-13, abs_tol=0.0)


def test_abs_t_mean_meets_its_series_at_df_100():
    assert math.isclose(abs_t_mean(math.nextafter(100.0, 0.0)), abs_t_mean(100.0), rel_tol=1e-13, abs_tol=0.0)


def test_abs_t_moment_domains():
    with pytest.raises(ValueError):
        abs_t_mean(1.0)
    with pytest.raises(ValueError):
        abs_t_sd(2.0)
    with pytest.raises(ValueError, match="^df must exceed 1$"):
        abs_t_mean(math.nan)
    with pytest.raises(ValueError, match="^df must exceed 2$"):
        abs_t_sd(math.nan)


# ------------------------------------------------------------ distributions


def test_distribution_validation():
    with pytest.raises(ValueError):
        DistributionSpec("poisson")
    with pytest.raises(ValueError):
        DistributionSpec.normal(sd=0.0)
    with pytest.raises(ValueError):
        DistributionSpec.student_t(2.0)
    with pytest.raises(ValueError):
        DistributionSpec.half_t(1.5)
    with pytest.raises(ValueError):
        DistributionSpec.pareto(2.0)
    with pytest.raises(ValueError):
        DistributionSpec.pareto(3.0, scale=-1.0)


def test_true_moments():
    assert DistributionSpec.normal(2.0, 3.0).true_mean == 2.0
    assert DistributionSpec.normal(2.0, 3.0).true_sd == 3.0
    assert DistributionSpec.student_t(4.0).true_mean == 0.0
    assert abs(DistributionSpec.student_t(4.0).true_sd - math.sqrt(2.0)) < 1e-15
    assert DistributionSpec.half_t(4.0).true_sd == 1.0
    # Pareto(3, 2): mean 3*2/2 = 3, sd = (2/2)*sqrt(3)
    assert DistributionSpec.pareto(3.0, 2.0).true_mean == 3.0
    assert abs(DistributionSpec.pareto(3.0, 2.0).true_sd - math.sqrt(3.0)) < 1e-15


def test_sample_is_deterministic():
    d = DistributionSpec.half_t(4.0)
    a = sample(d, 1000, 42).values
    b = sample(d, 1000, 42).values
    assert (a == b).all()
    assert sample(d, 1000, 43).values[0] != a[0]


def test_single_normal_draw_reproducible():
    one = sample(DistributionSpec.normal(), 1, 7).values
    two = sample(DistributionSpec.normal(), 1, 7).values
    assert one.shape == (1,) and one[0] == two[0] and np.isfinite(one[0])


@pytest.mark.parametrize("n", [0, -1, True, 2.0], ids=["zero", "negative", "bool", "float"])
def test_sample_rejects_empty(n):
    with pytest.raises(ValueError, match=f"n must be a positive integer, got {n!r}"):
        sample(DistributionSpec.normal(), n, 1)


def test_half_t_standardized_large_sample():
    v = sample(DistributionSpec.half_t(4.0), 10**6, 9).values
    assert abs(v.mean()) <= 0.005
    assert abs(v.var() - 1.0) <= 0.02


def test_pareto_support_starts_at_scale():
    v = sample(DistributionSpec.pareto(3.0, 2.0), 10_000, 3).values
    assert v.min() >= 2.0


@pytest.mark.parametrize(
    "dist",
    [
        DistributionSpec.normal(),
        DistributionSpec.student_t(4.0),
        DistributionSpec.half_t(4.0),
        DistributionSpec.pareto(4.0),
    ],
    ids=["normal", "t4", "half_t4", "pareto4"],
)
def test_weak_law_at_one_million(dist):
    n = 10**6
    v = sample(dist, n, 9).values
    assert abs(float(v.mean()) - dist.true_mean) <= 5.0 / math.sqrt(n)
    assert abs(float(v.var()) - dist.true_sd**2) <= 10.0 * dist.true_sd**2 / math.sqrt(n)


# ------------------------------------------------------------- contamination


def test_contaminate_zero_count_is_identity_with_mask():
    s = sample(DistributionSpec.normal(), 50, 1)
    out = contaminate(s, ContaminationSpec(0), 2)
    assert (out.values == s.values).all()
    assert out.outlier_mask is not None and not out.outlier_mask.any()


def test_contaminate_places_exact_point_mass():
    s = sample(DistributionSpec.half_t(4.0), 2500, 1)
    out = contaminate(s, ContaminationSpec(150, 1000.0), 2)
    assert (out.values == 1000.0).sum() == 150
    assert out.outlier_mask.sum() == 150
    untouched = ~out.outlier_mask
    assert (out.values[untouched] == s.values[untouched]).all()
    # input untouched
    assert s.outlier_mask is None and (s.values != 1000.0).all()


def test_contaminate_boundary_counts():
    s = Sample(np.zeros(10))
    out = contaminate(s, ContaminationSpec(9, 5.0), 3)
    assert out.outlier_mask.sum() == 9 and (out.values == 5.0).sum() == 9
    with pytest.raises(ValueError):
        contaminate(s, ContaminationSpec(10, 5.0), 3)


def test_contaminate_is_seed_deterministic():
    s = sample(DistributionSpec.normal(), 200, 8)
    a = contaminate(s, ContaminationSpec(20, 1e3), 5)
    b = contaminate(s, ContaminationSpec(20, 1e3), 5)
    c = contaminate(s, ContaminationSpec(20, 1e3), 6)
    assert (a.outlier_mask == b.outlier_mask).all()
    assert (a.outlier_mask != c.outlier_mask).any()


def test_contamination_spec_validation():
    with pytest.raises(ValueError):
        ContaminationSpec(-1)
    with pytest.raises(ValueError):
        ContaminationSpec(1.5)  # type: ignore[arg-type]


@given(st.integers(2, 200), st.data())
@settings(max_examples=50)
def test_mask_count_always_matches(n, data):
    count = data.draw(st.integers(0, n - 1))
    s = Sample(np.zeros(n))
    out = contaminate(s, ContaminationSpec(count, 7.0), data.draw(st.integers(0, 2**32)))
    assert int(out.outlier_mask.sum()) == count
    assert (out.values == 7.0).sum() == count  # zeros never equal 7
