"""Block-based mean estimation for heavy-tailed and contaminated samples.

A sample of size n is cut into k consecutive blocks.  Each block reports
its mean and dispersion; averaging the block means under inverse
dispersion weights gives a mean estimate that listens to the quiet
blocks and tunes out the wrecked ones.  The same block summaries feed a
median-of-means baseline, and a symmetrically trimmed mean is included
as an oracle that is told the contamination fraction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# The EstimatorSpec fields each estimator kind reads; the one list of kinds.
ESTIMATOR_FIELDS = {
    "weighted": ("k", "p"),
    "mom": ("k",),
    "trimmed": ("epsilon",),
    "adaptive": ("p", "contamination_bound"),
}
ESTIMATOR_KINDS = tuple(ESTIMATOR_FIELDS)


def require_finite(spec, fields) -> None:
    """Raise ValueError naming the first of ``fields`` on ``spec`` that is not a finite real number.

    Booleans are refused, though Python counts them as integers.
    """
    for name in fields:
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) < math.inf:
            raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True, eq=False)
class Sample:
    """Observation vector plus an optional record of planted corruption.

    The mask is experiment bookkeeping only: no estimator reads it.  Raw
    draws carry ``outlier_mask=None``; contamination fills the mask in.
    """

    values: np.ndarray
    outlier_mask: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite: NaN and infinity have no mean")
        object.__setattr__(self, "values", values)
        if self.outlier_mask is not None:
            mask = np.asarray(self.outlier_mask, dtype=bool)
            if mask.shape != values.shape:
                raise ValueError("outlier_mask must match values in length")
            object.__setattr__(self, "outlier_mask", mask)

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """Consecutive index ranges covering ``range(n)``.

    ``boundaries`` holds k+1 offsets; block j is
    ``[boundaries[j], boundaries[j+1])``.  Use :func:`partition` to build
    the canonical balanced partition.
    """

    boundaries: np.ndarray

    def __post_init__(self):
        bounds = np.asarray(self.boundaries, dtype=np.int64)
        if bounds.ndim != 1 or bounds.size < 2 or bounds[0] != 0 or np.any(np.diff(bounds) < 1):
            raise ValueError("boundaries must start at 0 and strictly increase")
        object.__setattr__(self, "boundaries", bounds)

    @property
    def k(self) -> int:
        return self.boundaries.size - 1

    @property
    def n(self) -> int:
        return int(self.boundaries[-1])

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.boundaries)

    def blocks(self) -> list[tuple[int, int]]:
        bounds = self.boundaries
        return [(int(bounds[j]), int(bounds[j + 1])) for j in range(self.k)]


@dataclass(frozen=True)
class BlockSummary:
    """Mean, dispersion and size of one block.

    ``sd`` uses the 1/n normalisation, so a constant block reports
    exactly 0.
    """

    mean: float
    sd: float
    size: int


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator to run, and with what knobs.

    ``k`` is the block count, ``p`` the weight exponent, ``epsilon`` the
    assumed contamination fraction and ``contamination_bound`` the assumed
    bound on the corrupted block fraction.  Each kind reads only the
    fields :data:`ESTIMATOR_FIELDS` lists for it and ignores the rest.
    """

    kind: str
    k: int = 1
    p: float = 2.0
    epsilon: float = 0.0
    contamination_bound: float = 0.5

    def __post_init__(self):
        if self.kind not in ESTIMATOR_FIELDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 1:
            raise ValueError("k must be a positive integer")
        fields = ESTIMATOR_FIELDS[self.kind]
        require_finite(self, fields)
        if "p" in fields and self.p < 1:
            raise ValueError("p must be >= 1")
        if "epsilon" in fields and not 0.0 <= self.epsilon < 0.5:
            raise ValueError("epsilon must lie in [0, 0.5)")
        if "contamination_bound" in fields and not 0.0 < self.contamination_bound < 1.0:
            raise ValueError("contamination_bound must lie in (0, 1)")


def partition(n: int, k: int) -> BlockPartition:
    """Split ``range(n)`` into k consecutive blocks, sizes differing by at most one.

    The first ``n % k`` blocks absorb the remainder, so sizes are
    non-increasing from left to right.
    """
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k} for n={n}")
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    return BlockPartition(np.concatenate(([0], np.cumsum(sizes))))


def block_summaries(sample: Sample, part: BlockPartition) -> list[BlockSummary]:
    """Per-block mean and dispersion.

    Sums use exactly rounded accumulation (``math.fsum``), so the
    summaries do not depend on the order of values within a block and a
    single-block mean is the correctly rounded sample mean.
    """
    x = sample.values
    if part.n != x.size:
        raise ValueError("partition does not cover this sample")
    out = []
    for lo, hi in part.blocks():
        block = x[lo:hi]
        size = hi - lo
        if block[0] == block[-1] and (block == block[0]).all():
            # constant block: the mean is that value with no rounding at all
            out.append(BlockSummary(float(block[0]), 0.0, size))
            continue
        values = block.tolist()
        mean = math.fsum(values) / size
        sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / size)
        out.append(BlockSummary(mean, sd, size))
    return out


def _inverse_power_ratios(summaries: list[BlockSummary], p: float) -> tuple[float, np.ndarray]:
    """The least block sd ``ref`` and each block's ``(ref / sd) ** p``, which cannot overflow.

    A zero-sd block would take infinite weight, so when one exists ``ref``
    is 0 and the ratios are the indicator of the zero-sd blocks: the limit
    of the weights as sd -> 0+.
    """
    if not 1 <= p < math.inf:
        raise ValueError("p must be a finite number >= 1")
    if not summaries:
        raise ValueError("no blocks")
    sds = np.array([s.sd for s in summaries])
    ref = sds.min()
    if ref == 0.0:
        return ref, (sds == 0.0).astype(np.float64)
    return ref, (ref / sds) ** p


def block_weights(summaries: list[BlockSummary], p: float) -> np.ndarray:
    """Normalised weights proportional to ``sd ** -p``; nonnegative, sum 1.

    Zero-sd blocks, when there are any, share all the mass equally.
    """
    _, ratios = _inverse_power_ratios(summaries, p)
    return ratios / ratios.sum()


def weighted_mean(summaries: list[BlockSummary], p: float) -> float:
    """Average of block means under :func:`block_weights`."""
    weights = block_weights(summaries, p)
    means = np.array([s.mean for s in summaries])
    return float(weights @ means)


def median_of_means(summaries: list[BlockSummary]) -> float:
    """Median of the block means; an even count averages the central pair."""
    if not summaries:
        raise ValueError("no blocks")
    return float(np.median([s.mean for s in summaries]))


def trimmed_mean(sample: Sample, epsilon: float) -> float:
    """Mean after deleting the ``floor(epsilon*n) + 5`` smallest and largest values.

    ``epsilon`` is the assumed contamination fraction; the +5 margin
    keeps a few extra extremes out even when ``epsilon`` is 0.
    """
    if not 0.0 <= epsilon < 0.5:
        raise ValueError("epsilon must lie in [0, 0.5)")
    x = sample.values
    cut = int(math.floor(epsilon * x.size)) + 5
    if 2 * cut >= x.size:
        raise ValueError(f"trimming {cut} values from each side of {x.size} leaves nothing")
    return float(np.sort(x)[cut : x.size - cut].mean())


def estimate(sample: Sample, spec: EstimatorSpec) -> float:
    """Run the estimator described by ``spec`` on ``sample``."""
    if spec.kind == "weighted":
        return weighted_mean(block_summaries(sample, partition(sample.n, spec.k)), spec.p)
    if spec.kind == "mom":
        return median_of_means(block_summaries(sample, partition(sample.n, spec.k)))
    if spec.kind == "trimmed":
        return trimmed_mean(sample, spec.epsilon)
    # adaptive: imported here because that module builds on this one
    from .adaptive import AdaptiveConfig, adaptive_estimate

    config = AdaptiveConfig(p=spec.p, contamination_bound=spec.contamination_bound)
    return adaptive_estimate(sample, config)
