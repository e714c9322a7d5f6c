"""Sampling and contamination for the simulation harness.

Draws go through numpy generators seeded with explicit integers, so a
sample is a pure function of (distribution, n, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import Sample, is_int, require_finite
from .seeding import generator

# The DistributionSpec fields each family reads; the one list of kinds.
DISTRIBUTION_FIELDS = {
    "normal": ("mean", "sd"),
    "student_t": ("df",),
    "half_t": ("df",),
    "pareto": ("shape", "scale"),
}


def abs_t_mean(df: float) -> float:
    """E|T| for a Student-t variable, finite for df > 1."""
    if not df > 1:
        raise ValueError("df must exceed 1")
    ratio = math.exp(math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0))
    return 2.0 * math.sqrt(df) * ratio / (math.sqrt(math.pi) * (df - 1.0))


def abs_t_sd(df: float) -> float:
    """Standard deviation of |T| for df > 2."""
    if not df > 2:
        raise ValueError("df must exceed 2")
    m = abs_t_mean(df)
    return math.sqrt(df / (df - 2.0) - m * m)


@dataclass(frozen=True)
class DistributionSpec:
    """One of four stock families with its true moments attached.

    ``half_t`` is |T| recentred by E|T| and rescaled to unit variance: a
    skewed, heavy-tailed family with mean 0 and sd 1 by construction.
    Only the fields :data:`DISTRIBUTION_FIELDS` lists for ``kind`` are read.
    """

    kind: str
    mean: float = 0.0
    sd: float = 1.0
    df: float = 4.0
    shape: float = 3.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in DISTRIBUTION_FIELDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        require_finite(self, DISTRIBUTION_FIELDS[self.kind])
        if self.kind == "normal" and self.sd <= 0:
            raise ValueError("sd must be positive")
        if self.kind in ("student_t", "half_t") and self.df <= 2:
            raise ValueError("df must exceed 2 for a finite variance")
        if self.kind == "pareto":
            if self.shape <= 2:
                raise ValueError("shape must exceed 2 for a finite variance")
            if self.scale <= 0:
                raise ValueError("scale must be positive")

    @property
    def true_mean(self) -> float:
        if self.kind == "normal":
            return self.mean
        if self.kind == "pareto":
            return self.shape * self.scale / (self.shape - 1.0)
        return 0.0

    @property
    def true_sd(self) -> float:
        if self.kind == "normal":
            return self.sd
        if self.kind == "student_t":
            return math.sqrt(self.df / (self.df - 2.0))
        if self.kind == "half_t":
            return 1.0
        return (self.scale / (self.shape - 1.0)) * math.sqrt(self.shape / (self.shape - 2.0))

    @classmethod
    def normal(cls, mean: float = 0.0, sd: float = 1.0) -> "DistributionSpec":
        return cls("normal", mean=mean, sd=sd)

    @classmethod
    def student_t(cls, df: float) -> "DistributionSpec":
        return cls("student_t", df=df)

    @classmethod
    def half_t(cls, df: float) -> "DistributionSpec":
        return cls("half_t", df=df)

    @classmethod
    def pareto(cls, shape: float, scale: float = 1.0) -> "DistributionSpec":
        return cls("pareto", shape=shape, scale=scale)


@dataclass(frozen=True)
class ContaminationSpec:
    """Replace ``count`` distinct random entries with the constant ``value``."""

    count: int = 0
    value: float = 1000.0

    def __post_init__(self):
        if not is_int(self.count) or self.count < 0:
            raise ValueError("count must be a non-negative integer")
        require_finite(self, ("value",))


def sample(dist: DistributionSpec, n: int, seed: int) -> Sample:
    """Draw ``n`` observations; identical inputs give identical bits."""
    if not is_int(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    rng = generator(seed)
    if dist.kind == "normal":
        values = rng.normal(dist.mean, dist.sd, n)
    elif dist.kind == "student_t":
        values = rng.standard_t(dist.df, n)
    elif dist.kind == "half_t":
        values = (np.abs(rng.standard_t(dist.df, n)) - abs_t_mean(dist.df)) / abs_t_sd(dist.df)
    else:
        # inverse CDF on 1-u, which lies in (0, 1]: rng.random can return 0 but never 1
        values = dist.scale * (1.0 - rng.random(n)) ** (-1.0 / dist.shape)
    return Sample(values)


def contaminate(s: Sample, spec: ContaminationSpec, seed: int) -> Sample:
    """Overwrite ``spec.count`` distinct positions and record them in the mask."""
    if spec.count >= s.n:
        raise ValueError("contamination count must be smaller than the sample size")
    values = s.values.copy()
    mask = np.zeros(s.n, dtype=bool)
    if spec.count > 0:
        positions = generator(seed).choice(s.n, size=spec.count, replace=False)
        values[positions] = spec.value
        mask[positions] = True
    return Sample(values, mask)
