"""Block-level diagnostics used to probe the estimator numerically."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import BlockPartition, Sample, block_summaries


@dataclass(frozen=True, eq=False)
class SelfNormalizedStats:
    """Per-block studentised statistics around a known centre.

    ``rms_dev`` is the root mean square deviation about the true mean;
    ``self_norm`` is the block deviation divided by ``rms_dev`` and lies
    in [-1, 1] by Cauchy-Schwarz; ``t_stat`` is the block deviation
    divided by the within-block sd.  A degenerate denominator makes the
    affected ratio 0.
    """

    t_stat: np.ndarray
    self_norm: np.ndarray
    rms_dev: np.ndarray


def self_normalized(sample: Sample, part: BlockPartition, true_mean: float) -> SelfNormalizedStats:
    summaries = block_summaries(sample, part)
    sd = summaries.sds
    dev = summaries.means - true_mean
    # the mean square about any centre is sd^2 plus the squared offset; hypot squares nothing
    rms = np.hypot(sd, dev)
    t_stat = np.divide(dev, sd, out=np.zeros_like(dev), where=sd > 0.0)
    self_norm = np.divide(dev, rms, out=np.zeros_like(dev), where=rms > 0.0)
    return SelfNormalizedStats(t_stat, self_norm, rms)


def outlier_magnitude(sample: Sample, part: BlockPartition, true_sigma: float) -> float | None:
    """1 plus the smallest normalised inlier/outlier gap over corrupted blocks.

    Reads the contamination mask, so it only applies to samples that
    went through ``contaminate``.  Returns None when no block mixes
    inliers and outliers, in particular when nothing is corrupted.
    """
    if not true_sigma > 0:
        raise ValueError("true_sigma must be positive")
    if sample.outlier_mask is None:
        raise ValueError("sample carries no outlier mask")
    if part.n != sample.n:
        raise ValueError("partition does not cover this sample")
    x = sample.values
    mask = sample.outlier_mask
    starts = part.boundaries[:-1]
    sizes = part.sizes
    counts = np.add.reduceat(mask.astype(np.int64), starts)
    # the gap needs both sub-means to exist
    mixed = (counts > 0) & (counts < sizes)
    if not mixed.any():
        return None
    outlier_sums = np.add.reduceat(np.where(mask, x, 0.0), starts)[mixed]
    inlier_sums = np.add.reduceat(np.where(mask, 0.0, x), starts)[mixed]
    counts, sizes = counts[mixed], sizes[mixed]
    gaps = inlier_sums / (sizes - counts) - outlier_sums / counts
    return 1.0 + float(np.min(counts * gaps * gaps / (sizes * true_sigma * true_sigma)))


def tail_quantile_check(
    errors: np.ndarray,
    sigma: float,
    n: int,
    s_grid: np.ndarray,
    scan_constant: float = 1.0,
) -> np.ndarray:
    """Empirical frequency of |error| exceeding ``c * sigma * sqrt(s/n)`` per s.

    Compare against tail bounds of the form ``2 * exp(-s)``.
    """
    if not sigma > 0 or not n >= 1:
        raise ValueError("sigma must be positive and n at least 1")
    errors = np.abs(np.asarray(errors, dtype=np.float64))
    return np.array(
        [float(np.mean(errors > scan_constant * sigma * math.sqrt(s / n))) for s in np.asarray(s_grid)]
    )
