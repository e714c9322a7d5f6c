"""Data-driven block count selection with a contamination-resistant scale.

The weighted block estimator needs a block count, and the right count
depends on how many entries are corrupted.  When that number is unknown,
doubling the block count until the blocks look calm is a workable
substitute: the scan stops at the first count whose harmonic mean
dispersion drops below a threshold tied to a crude but hard-to-corrupt
scale estimate.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .estimators import (
    ESTIMATOR_FIELDS,
    BlockSummary,
    Sample,
    _inverse_power_ratios,
    _median,
    block_summaries,
    check_fields,
    partition,
    weighted_mean,
)


# The stopping rule's constants, fixed as in the paper; the plain one is for
# event_check_plain's known-scale diagnostic, not for the scan.
THRESHOLD_CONSTANT = 80.0
PLAIN_THRESHOLD_CONSTANT = 4.0
ROBUST_SIGMA_MIN_N = 400  # four groups of 100


@dataclass(frozen=True)
class AdaptiveConfig:
    """The knobs of the block-count scan that the ``adaptive`` kind sets; the thresholds are the constants above."""

    p: float = 2.0
    contamination_bound: float = 0.5

    def __post_init__(self):
        check_fields(self, ESTIMATOR_FIELDS["adaptive"])


# |X - X'| of two independent N(0, sigma^2) draws has median
# sqrt(2) * Phi^-1(3/4) * sigma and mean 2 sigma / sqrt(pi); the ratio,
# about 1.1830, turns a median gap into the mean gap it stands in for.
_NORMAL_UPPER_QUARTILE = 0.6744897501960817  # Phi^-1(3/4)
_MEDIAN_GAP_TO_MEAN_GAP = (2.0 / math.sqrt(math.pi)) / (math.sqrt(2.0) * _NORMAL_UPPER_QUARTILE)


@dataclass(frozen=True)
class ScaleEstimate:
    sigma_tilde: float
    groups_used: int


def robust_sigma(sample: Sample) -> ScaleEstimate:
    """Median over groups of 100 of the median absolute gap between paired neighbours.

    Consecutive observations are paired off, 50 pairs per group; the +b
    part of any shift cancels inside each pair, so only spread survives.
    Each group contributes the median of its 50 absolute gaps, and the
    estimate is the median of those over groups.  It is rescaled so that
    on Gaussian data it targets the mean gap E|X - X'| = 2 sigma / sqrt(pi),
    the scale the scan's ``THRESHOLD_CONSTANT`` is tuned against.

    Breakdown, counted in outliers per group: a group's median stays
    bounded until 25 of its 50 pairs hold an outlier, and the median over
    groups until half the groups are broken, so it takes 25 outliers in
    each of half the groups (an eighth of the sample) to carry the
    estimate away.  One outlier per group shifts each group's median by
    at most one order statistic.

    Needs at least 400 observations (four groups); a trailing remainder
    shorter than a group is dropped.  A gap, or a sum of the two gaps a
    median averages, past the largest double is ``inf`` without a warning,
    and so may the estimate be.
    """
    x = sample.values
    if x.size < ROBUST_SIGMA_MIN_N:
        raise ValueError(f"robust_sigma needs at least {ROBUST_SIGMA_MIN_N} observations")
    groups = x.size // 100
    pairs = x[: groups * 100].reshape(groups, 50, 2)
    with np.errstate(over="ignore"):
        gaps = pairs[:, :, 1] - pairs[:, :, 0]
        np.abs(gaps, out=gaps).sort(axis=1)
        # each group's median, the mean of its central pair as np.median takes it
        medians = (gaps[:, 24] + gaps[:, 25]) / 2.0
        return ScaleEstimate(_median(medians) * _MEDIAN_GAP_TO_MEAN_GAP, groups)


def harmonic_mean_inverse(summaries: Sequence[BlockSummary], p: float) -> float:
    """Harmonic mean of the block dispersions raised to ``p``.

    One calm block keeps this small no matter how loud the others are;
    a quiet block (see :func:`~robustmean.estimators._inverse_power_ratios`),
    zero dispersion included, drives it all the way to 0.
    """
    ref, ratios = _inverse_power_ratios(summaries, p)
    if ref == 0.0:
        return 0.0
    return float(ref**p * ratios.size / ratios.sum())


def _calm(summaries: Sequence[BlockSummary], p: float, scale: float, constant: float, bound: float) -> bool:
    return harmonic_mean_inverse(summaries, p) <= (constant * scale / (1.0 - bound)) ** p


def event_check(summaries: Sequence[BlockSummary], p: float, sigma_tilde: float, config: AdaptiveConfig) -> bool:
    """Stopping rule of the scan: dispersions are calm relative to ``sigma_tilde``."""
    return _calm(summaries, p, sigma_tilde, THRESHOLD_CONSTANT, config.contamination_bound)


def event_check_plain(summaries: Sequence[BlockSummary], p: float, sigma: float, config: AdaptiveConfig) -> bool:
    """The same rule against a known true scale, with the tighter constant."""
    return _calm(summaries, p, sigma, PLAIN_THRESHOLD_CONSTANT, config.contamination_bound)


def adaptive_k(sample: Sample, config: AdaptiveConfig, sigma_tilde: float) -> int:
    """First power-of-two block count that passes :func:`event_check`.

    Scans k = 2, 4, ... up to the largest power of two not exceeding the
    sample size.  A scanned level is read from the sample's kept levels,
    or built and kept there.  Falls back to 2 when no count passes.
    """
    n = sample.n
    if n < 2:
        raise ValueError("need at least two observations")
    levels = sample._levels
    for i in range(1, n.bit_length()):
        k = 1 << i
        if k not in levels:
            levels[k] = block_summaries(sample, partition(n, k))
        if event_check(levels[k], config.p, sigma_tilde, config):
            return k
    return 2


def adaptive_estimate(sample: Sample, config: AdaptiveConfig) -> float:
    """Weighted block mean at the scanned block count.

    Fully data-driven: the scale is the sample's :func:`robust_sigma`,
    kept on it as the levels :func:`adaptive_k` scans are, so the caller
    supplies nothing beyond the sample and the knobs, and a later call on
    the same sample computes neither again.
    """
    k = adaptive_k(sample, config, sample._scale.sigma_tilde)
    return weighted_mean(sample._levels[k], config.p)
