"""Block-based mean estimation for heavy-tailed and contaminated samples.

A sample of size n is cut into k consecutive blocks.  Each block reports
its mean and dispersion; averaging the block means under inverse
dispersion weights gives a mean estimate that listens to the quiet
blocks and tunes out the wrecked ones.  The same block summaries feed a
median-of-means baseline, and a symmetrically trimmed mean is included
as an oracle that is told the contamination fraction.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .adaptive import ScaleEstimate

# The EstimatorSpec fields each estimator kind reads; the one list of kinds.
ESTIMATOR_FIELDS = {
    "weighted": ("k", "p"),
    "mom": ("k",),
    "trimmed": ("epsilon",),
    "adaptive": ("p", "contamination_bound"),
}


# What :func:`finite_or_too_large` raises, as ``OverflowError``, when a finite sample has no finite estimate.
TOO_LARGE = "the numbers are too large to summarise: squaring or summing them overflows"


def require_finite(spec, fields) -> None:
    """Raise ValueError naming the first of ``fields`` on ``spec`` that is not a finite real number.

    Booleans are refused, though Python counts them as integers.
    """
    for name in fields:
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) < math.inf:
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def is_int(value) -> bool:
    """Whether ``value`` is an integer, Python's or numpy's, and not a ``bool``, which Python counts as one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_fields(spec, fields) -> None:
    """Raise ValueError for the first of ``fields`` on ``spec`` that is not finite, else the first out of its range."""
    require_finite(spec, fields)
    if "p" in fields and spec.p < 1:
        raise ValueError("p must be >= 1")
    if "epsilon" in fields and not 0.0 <= spec.epsilon < 0.5:
        raise ValueError("epsilon must lie in [0, 0.5)")
    if "contamination_bound" in fields and not 0.0 < spec.contamination_bound < 1.0:
        raise ValueError("contamination_bound must lie in (0, 1)")


def _read_only(array: np.ndarray, given) -> np.ndarray:
    """``array``, made from the caller's ``given``, read-only: a copy if it is a view or is ``given`` and writeable."""
    if not array.flags.owndata or (array is given and array.flags.writeable):
        array = array.copy()
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class Sample:
    """Observation vector plus an optional record of planted corruption.

    The mask is experiment bookkeeping only: no estimator reads it.  Raw
    draws carry ``outlier_mask=None``; contamination fills the mask in.
    The values are read-only.  A writeable array, or a view, is copied;
    one that owns its memory and is read-only already is kept as it is.
    """

    values: np.ndarray
    outlier_mask: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-d array")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite: NaN and infinity have no mean")
        # a later write through the caller's array would leave the kept split stale
        values = _read_only(values, self.values)
        object.__setattr__(self, "values", values)
        if self.outlier_mask is not None:
            mask = np.asarray(self.outlier_mask, dtype=bool)
            if mask.shape != values.shape:
                raise ValueError("outlier_mask must match values in length")
            object.__setattr__(self, "outlier_mask", mask)

    @property
    def n(self) -> int:
        return self.values.size

    @functools.cached_property
    def _split(self) -> tuple[list[np.ndarray], int]:
        """``(parts, row length)``, what :func:`_split_values` gives the values, made on the first read and kept."""
        return _split_values(self.values)


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """Consecutive index ranges covering ``range(n)``.

    ``boundaries`` holds k+1 offsets; block j is
    ``[boundaries[j], boundaries[j+1])``.  Use :func:`partition` to build
    the canonical balanced partition.  The boundaries are read-only, copied
    from a writeable array or a view as :class:`Sample` copies its values,
    and so are the facts kept from them: each block's start and size, the
    smallest size, the exponent ``m`` of :func:`_exact_sums` for them, and
    the runs :func:`block_summaries` walks.  A run is ``(blocks, span,
    starts)``: the slice of the blocks that start in one window of
    :data:`_RUN_VALUES` values, the slice of the values they cover, and
    their starts relative to that span.
    """

    boundaries: np.ndarray
    starts: np.ndarray = field(init=False, repr=False)
    sizes: np.ndarray = field(init=False, repr=False)
    min_size: int = field(init=False, repr=False)
    m: int = field(init=False, repr=False)
    runs: tuple[tuple[slice, slice, np.ndarray], ...] = field(init=False, repr=False)

    def __post_init__(self):
        bounds = np.asarray(self.boundaries)
        if bounds.dtype != np.int64:
            # NaN and infinity cast to some integer, which the comparison below refuses; bool,
            # complex, object and string arrays are refused before numpy casts them its own way
            with np.errstate(invalid="ignore"):
                cast = bounds.astype(np.int64) if bounds.dtype.kind in "iuf" else None
            if cast is None or not np.array_equal(cast, bounds):
                raise ValueError(f"boundaries must be integers, got {bounds!r}")
            bounds = cast
        bounds = _read_only(bounds, self.boundaries)
        if bounds.ndim != 1 or bounds.size < 2 or bounds[0] != 0 or np.any(np.diff(bounds) < 1):
            raise ValueError("boundaries must start at 0 and strictly increase")
        sizes = np.diff(bounds)
        sizes.setflags(write=False)
        starts = bounds[:-1]
        # a run starts at the first block that starts at or after each multiple of _RUN_VALUES
        firsts = [0, *(np.flatnonzero(np.diff(starts // _RUN_VALUES)) + 1).tolist(), starts.size]
        # each block's start within its run; a one-run partition's are its starts
        local = starts - np.repeat(bounds[firsts[:-1]], np.diff(firsts)) if len(firsts) > 2 else starts
        local.setflags(write=False)
        runs = tuple((slice(a, b), slice(int(bounds[a]), int(bounds[b])), local[a:b]) for a, b in zip(firsts, firsts[1:]))
        # m is the least with 2**m >= L + 2 for every block length L
        for name, value in (("boundaries", bounds), ("starts", starts), ("sizes", sizes), ("min_size", int(sizes.min())),
                            ("m", int(sizes.max() + 1).bit_length()), ("runs", runs)):
            object.__setattr__(self, name, value)

    @property
    def k(self) -> int:
        return self.boundaries.size - 1

    @property
    def n(self) -> int:
        return int(self.boundaries[-1])

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
        if not is_int(self.k) or self.k < 1:
            raise ValueError("k must be a positive integer")
        check_fields(self, ESTIMATOR_FIELDS[self.kind])


def partition(n: int, k: int) -> BlockPartition:
    """Split ``range(n)`` into k consecutive blocks, sizes differing by at most one.

    The first ``n % k`` blocks absorb the remainder, so sizes are
    non-increasing from left to right.
    """
    if not is_int(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if not is_int(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k} for n={n}")
    # every partition is read-only, so one built before serves every later call
    build = _balanced if k <= _CACHED_BLOCKS else _balanced.__wrapped__
    return build(int(n), int(k))


# partition() keeps its 64 latest partitions of at most this many blocks:
# 24 bytes a block (boundaries, sizes and, over several runs, each start within its run), 24 MiB at most
_CACHED_BLOCKS = 2**14


@functools.lru_cache(maxsize=64)
def _balanced(n: int, k: int) -> BlockPartition:
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    return BlockPartition(np.concatenate(([0], np.cumsum(sizes))))


class BlockSummaries(Sequence):
    """Every block's mean, sd and size as arrays, read as a sequence of :class:`BlockSummary`.

    The blockwise estimators read the arrays.  Indexing and iteration build
    :class:`BlockSummary` values on demand, and the sequence compares equal
    to a list of equal summaries.  The arrays are read, never written:
    the weights at every ``p`` share one base computed from them once.
    The arrays :func:`block_summaries` makes, and the base, are read-only.
    """

    __slots__ = ("means", "sds", "sizes", "_base")
    __hash__ = None

    def __init__(self, means: np.ndarray, sds: np.ndarray, sizes: np.ndarray):
        self.means, self.sds, self.sizes = means, sds, sizes
        self._base = None

    def _weight_base(self) -> tuple[float, np.ndarray]:
        """``(0.0, quiet indicator)`` or ``(ref, ref / sds)``, kept: see :func:`_inverse_power_ratios`."""
        if self._base is None:
            quiet = self.sds <= QUIET_RELATIVE_SD * np.abs(self.means).max()
            if quiet.any():
                ref, base = 0.0, quiet.astype(np.float64)
            else:
                ref = self.sds.min()
                base = ref / self.sds
            base.setflags(write=False)
            self._base = ref, base
        return self._base

    def __len__(self) -> int:
        return self.means.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        return BlockSummary(float(self.means[index]), float(self.sds[index]), int(self.sizes[index]))

    def __iter__(self):
        return map(BlockSummary, self.means.tolist(), self.sds.tolist(), self.sizes.tolist())

    def __eq__(self, other):
        if isinstance(other, (BlockSummaries, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"BlockSummaries({list(self)!r})"


def _fsum_stats(block: np.ndarray) -> tuple[float, float]:
    """Mean and sd of one block that is not constant, by ``math.fsum``: what the engine reproduces."""
    values = block.tolist()
    mean = math.fsum(values) / len(values)
    return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``s = a + b`` rounded and the error ``a + b - s``, exactly (Knuth)."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _exact_sums(
    x: np.ndarray, starts: np.ndarray, sizes: np.ndarray, amax: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's sum rounded once, as ``math.fsum`` gives it, and whether that is certified.

    Rows are the segments of ``x`` that start at ``starts``; ``amax`` is
    each row's largest |value|.  The method is AccSum-style extraction
    (Rump, Ogita and Oishi 2008, *Accurate floating-point summation*):
    with ``sigma`` a power of two at least ``2**m`` times every |value|
    of its row, where ``2**m >= L + 2`` for every row length L (a
    :class:`BlockPartition` keeps its ``m``), ``q = (sigma + x) - sigma``
    and ``x - q`` are exact and a row's q sum exactly in any order.  Two
    passes leave a residual, summed plainly under the error bound ``bound``
    (4 L 2**-53 times the sum of its magnitudes, four times what gamma_L
    needs).  TwoSum then splits the exact sum into ``total`` plus a leftover.  A row is certified when
    its residual and the error of adding it are exactly 0, so that
    ``total`` is one rounding of the exact sum, or when the leftover plus
    ``bound`` is under half the gap from ``total`` to its nearer
    neighbour.  Uncertified rows must be summed by ``math.fsum``.

    Every ``amax`` must lie in [2**-900, 2**900), where ``sigma`` neither
    overflows nor underflows (see :data:`_ROW_RANGE`), or be 0 for a row of
    zeros, whose sum is an exact, certified 0.
    """
    sigma = np.repeat(np.ldexp(1.0, np.frexp(amax)[1] + m), sizes)
    high = sigma + x
    high -= sigma
    rest = x - high
    first = np.add.reduceat(high, starts)
    # every |rest| is at most 2**-53 * sigma, so this sigma is at least 2**m times that
    sigma *= 2.0 ** (m + 1 - 53)
    np.add(sigma, rest, out=high)
    high -= sigma
    rest -= high
    second = np.add.reduceat(high, starts)
    if not rest.any():
        # the two passes took every value whole: the residual clause for every row at once
        return first + second, np.ones(starts.size, dtype=bool)
    residual = np.add.reduceat(rest, starts)
    bound = np.add.reduceat(np.abs(rest, out=rest), starts) * (sizes * 2.0**-51)
    head, tail = _two_sum(first, second)
    tail, tail_error = _two_sum(tail, residual)
    total, head_error = _two_sum(head, tail)
    # the gap below |total|, the nearer of its two, is exact (Sterbenz); for 0,
    # subnormals and the least normal the factor under 1/2, which absorbs the
    # rounding of the test's own sum, rounds it to 0, so the test fails safe
    a = np.abs(total)
    half_gap = (a - np.nextafter(a, 0.0)) * (0.5 - 2.0**-51)
    exact = (bound == 0.0) & (tail_error == 0.0)
    return total, exact | (np.abs(head_error + tail_error) + bound < half_gap)


# A block that is not constant keeps its array-path result when its largest
# |value| A lies in this range; every other one enters as zeros.  With A < 2**448
# every |d| = |v - mean| is at most 2A < 2**449, so every square is below
# 2**898.  Two distinct doubles of magnitude at most A differ by at least
# 2**-53 A, so with A >= 2**-390 the largest |d| around any mean is at
# least 2**-55 A and the largest square at least 2**-890.  Every
# _exact_sums call therefore sees row maxima inside [2**-900, 2**900), or 0.
_ROW_RANGE = (2.0**-390, 2.0**448)


def _split_values(values: np.ndarray) -> tuple[list[np.ndarray], int]:
    """Two parts of ``values`` whose sums over any block are exact (none when the values span too far), and a row length.

    ``first`` is :func:`_exact_sums`' first pass with one ``sigma`` for the
    whole sample, a power of two at least ``2**m`` times its largest
    |value| below 2**448, where ``2**m >= n + 2`` bounds the length of
    every block, so ``first`` sums exactly in any block.  When every
    nonzero |value| is at least ``2**52 * g``, with ``g = 2**(m - 104) *
    sigma``, each value is a multiple of g, and so are ``first`` and the
    rest ``x - first``.  A block's rests, each at most ``2**-53 * sigma``
    in magnitude, then sum to a multiple of g under ``2**51 * g``, exactly.
    A sample with a smaller nonzero |value| gets no parts, and its blocks
    extract their sums with their own ``sigma``.  A value at or above
    2**448 is in no row and enters as 0, so no block's part sum overflows.

    When every nonzero |value| lies in :data:`_ROW_RANGE`, a block that is
    not constant has its largest |value| there, and a block longer than the
    longest run of equal neighbours is not constant: every block of at least
    that run's length plus one is a row, and that is the row length.
    Otherwise it is ``n + 1``, which no block reaches.
    """
    m = (values.size + 1).bit_length()
    x = values
    first = np.abs(x)  # the magnitudes, until first takes its own values
    top = first.max()
    if not top < _ROW_RANGE[1]:
        x = np.where(first < _ROW_RANGE[1], x, 0.0)
        top = np.abs(x, out=first).max()
    e = math.frexp(top)[1]  # top < 2**e, so sigma = 2**(e + m)
    least = first.min()
    if least == 0.0:
        least = np.min(first, where=x != 0.0, initial=math.inf)
    rows_from = _longest_run(values) + 1 if x is values and least >= _ROW_RANGE[0] else values.size + 1
    if least < math.ldexp(1.0, e + 2 * m - 52):
        return [], rows_from
    sigma = math.ldexp(1.0, e + m)
    np.add(sigma, x, out=first)
    first -= sigma
    return [first, x - first], rows_from


def _longest_run(x: np.ndarray) -> int:
    """The length of the longest run of equal neighbours in ``x``; 0.0 and -0.0 are equal, as in a constant block."""
    equal = np.flatnonzero(x[1:] == x[:-1])
    if not equal.size:
        return 1
    # a run of r equal values is a stretch of r - 1 consecutive indices in equal
    firsts = np.flatnonzero(np.diff(equal, prepend=-2) != 1)
    return int(np.diff(firsts, append=equal.size).max()) + 1


def _rows_stats(
    x: np.ndarray, parts: list[np.ndarray], every_row: bool, starts: np.ndarray, sizes: np.ndarray, m: int,
    means: np.ndarray, sds: np.ndarray,
) -> None:
    """Write the mean and sd of each block of a run ``x``: blocks at ``starts`` of ``sizes`` values, covering it.

    ``parts`` are the run's slices of the sample's parts (see
    :func:`_split_values`), whose sums are every block's sum; with none,
    :func:`_exact_sums` extracts the sums block by block.  ``m`` is the
    partition's exponent for every :func:`_exact_sums` call.  A row is a block that is not constant and has its largest
    |value| in :data:`_ROW_RANGE`; unless ``every_row`` says that every
    block is one, the blocks are tested.  Every other block takes mean 0
    and enters the squares as zeros; then a constant one takes its value
    as mean, and the rest, with every row whose sums are not certified,
    run :func:`_fsum_stats`.
    """
    rows, y = True, x
    if not every_row:
        low = np.minimum.reduceat(x, starts)
        high = np.maximum.reduceat(x, starts)
        amax = np.maximum(high, -low)
        rows = (low != high) & (amax >= _ROW_RANGE[0]) & (amax < _ROW_RANGE[1])
        if not rows.all():
            y = np.where(np.repeat(rows, sizes), x, 0.0)
    if parts:
        # two exact sums: their rounded sum is the exact sum's rounding
        sums, certified = np.add.reduceat(parts[0], starts) + np.add.reduceat(parts[1], starts), True
    else:
        amax = np.maximum.reduceat(np.abs(x), starts) if every_row else np.where(rows, amax, 0.0)
        sums, certified = _exact_sums(y, starts, sizes, amax, m)
    np.divide(sums, sizes, out=means)
    if y is not x:
        means[~rows] = 0.0
    # float_power calls libm pow per value, as Python's ** does (np.power squares by
    # d * d), and on |d|, which is what CPython's float_pow hands pow for a negative d
    squares = y - np.repeat(means, sizes)
    np.float_power(np.abs(squares, out=squares), 2.0, out=squares)
    square_sums, square_certified = _exact_sums(squares, starts, sizes, np.maximum.reduceat(squares, starts), m)
    np.sqrt(np.divide(square_sums, sizes, out=sds), out=sds)
    done = rows & certified & square_certified
    if not done.all():
        if not every_row:
            constant = low == high
            means[constant] = x[starts[constant]]
            done |= constant
        for j in np.flatnonzero(~done):
            means[j], sds[j] = _fsum_stats(x[starts[j] : starts[j] + sizes[j]])


# The engine runs over runs of whole blocks holding about this many values,
# so its temporaries stay a few arrays of this length (or of one longer block).
# A sample of at most this many values is one run.
_RUN_VALUES = 2**15


def block_summaries(sample: Sample, part: BlockPartition) -> BlockSummaries:
    """Per-block mean and dispersion, bit for bit what :func:`_fsum_stats` gives per block.

    Sums are exactly rounded (``math.fsum``'s results), so the summaries
    do not depend on the order of values within a block and a
    single-block mean is the correctly rounded sample mean.  A constant
    block reports its value and sd 0 without any rounding.  A block that
    is not constant and whose largest |value| lies in :data:`_ROW_RANGE`
    keeps its sum from the sample's parts (see :func:`_split_values`,
    made on the sample's first call and kept) and its squares' sum from
    :func:`_exact_sums` over the flat array, squared by libm ``pow`` on |d|
    as ``**`` squares; a block outside it, or whose sum or sum of squares
    is not certified, runs :func:`_fsum_stats` instead.  When every block is
    at least the sample's row length long (see :func:`_split_values`), no
    block is tested for being a row.
    """
    values = sample.values
    if part.n != values.size:
        raise ValueError("partition does not cover this sample")
    parts, rows_from = sample._split
    every_row = part.min_size >= rows_from
    means, sds = np.empty(part.k), np.empty(part.k)
    for blocks, span, starts in part.runs:
        _rows_stats(values[span], [p[span] for p in parts], every_row, starts, part.sizes[blocks], part.m,
                    means[blocks], sds[blocks])
    means.setflags(write=False)
    sds.setflags(write=False)
    return BlockSummaries(means, sds, part.sizes)


# A block whose sd is at most this fraction of the largest block-mean
# magnitude M is quiet: its spread is rounding, not signal.  Rounding moves
# a value v by at most 2**-53 * |v|, and a change of units a*x + b rounds
# twice, so two values of a block can close a gap of up to 4 * 2**-53 * M =
# 2**-51 * M and merge into a constant block.  The population sd of a
# block is at most half its range, hence the bound 2**-52 (1 to 2 ulps).
# M is read from the data at hand, so a shift that cancels most of the
# data's magnitude can still turn a quiet block into a loud one.
QUIET_RELATIVE_SD = 2.0**-52


def _block_arrays(summaries: Sequence[BlockSummary]) -> BlockSummaries:
    """The summaries as arrays: :class:`BlockSummaries` as they are, a list converted once; raises when there are none."""
    if not len(summaries):
        raise ValueError("no blocks")
    if isinstance(summaries, BlockSummaries):
        return summaries
    means, sds, sizes = zip(*((s.mean, s.sd, s.size) for s in summaries))
    return BlockSummaries(np.array(means), np.array(sds), np.array(sizes))


def _inverse_power_ratios(summaries: Sequence[BlockSummary], p: float) -> tuple[float, np.ndarray]:
    """The least block sd ``ref`` and each block's ``(ref / sd) ** p``, which cannot overflow.

    A zero-sd block would take infinite weight, so when a quiet block (sd
    at most :data:`QUIET_RELATIVE_SD` times the largest ``|mean|``; exactly
    0 counts) exists, ``ref`` is 0 and the ratios are the indicator of the
    quiet blocks: the limit of the weights as sd -> 0+.  The quiet test and
    ``ref / sd`` do not depend on ``p``, so :class:`BlockSummaries` keep
    them for every later call.
    """
    if not 1 <= p < math.inf:
        raise ValueError("p must be a finite number >= 1")
    ref, base = _block_arrays(summaries)._weight_base()
    return ref, base**p if ref else base


def block_weights(summaries: Sequence[BlockSummary], p: float) -> np.ndarray:
    """Normalised weights proportional to ``sd ** -p``; nonnegative, sum 1.

    Quiet blocks (see :func:`_inverse_power_ratios`), zero-sd ones
    included, share all the mass equally when there are any.
    """
    _, ratios = _inverse_power_ratios(summaries, p)
    return ratios / ratios.sum()


def weighted_mean(summaries: Sequence[BlockSummary], p: float) -> float:
    """Average of block means under :func:`block_weights`."""
    summaries = _block_arrays(summaries)
    # ndarray.dot calls the same BLAS ddot as @, without the ufunc machinery
    return float(block_weights(summaries, p).dot(summaries.means))


def median_of_means(summaries: Sequence[BlockSummary]) -> float:
    """Median of the block means; an even count averages the central pair, as :func:`_median` does."""
    return _median(_block_arrays(summaries).means)


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-d array, bit for bit, without the ``numpy.ma`` import its first call makes.

    The same partition puts a NaN, if any, last, and adding 0.0 first, as
    ``np.mean`` does, turns a middle -0.0 into 0.0.
    """
    half = values.size // 2
    odd = values.size % 2
    ordered = np.partition(values, [half, -1] if odd else [half - 1, half, -1])
    if math.isnan(ordered[-1]):
        return float(ordered[-1])
    if odd:
        return 0.0 + float(ordered[half])
    return (0.0 + float(ordered[half - 1]) + float(ordered[half])) / 2


def _trim_cut(n: int, epsilon: float) -> int:
    """How many values :func:`trimmed_mean` deletes from each side of ``n``; raises when that leaves nothing."""
    cut = int(math.floor(epsilon * n)) + 5
    if 2 * cut >= n:
        raise ValueError(f"trimming {cut} values from each side of {n} leaves nothing")
    return cut


def trimmed_mean(sample: Sample, epsilon: float) -> float:
    """Mean after deleting the ``floor(epsilon*n) + 5`` smallest and largest values.

    ``epsilon`` is the assumed contamination fraction; the +5 margin
    keeps a few extra extremes out even when ``epsilon`` is 0.
    """
    if not 0.0 <= epsilon < 0.5:
        raise ValueError("epsilon must lie in [0, 0.5)")
    x = sample.values
    cut = _trim_cut(x.size, epsilon)
    return float(np.sort(x)[cut : x.size - cut].mean())


def estimate(
    sample: Sample, spec: EstimatorSpec, levels: dict[int, BlockSummaries] | None = None, scale: ScaleEstimate | None = None
) -> float:
    """Run the estimator described by ``spec`` on ``sample``.

    ``levels``, a map from block count to this sample's summaries, is
    handed to the adaptive scan, which reads it and adds the levels it
    builds (see :func:`~robustmean.adaptive.adaptive_k`).  ``scale``, this
    sample's :class:`~robustmean.adaptive.ScaleEstimate`, is handed to the
    adaptive kind too, so cells that share a sample share one scale; None
    computes it with :func:`~robustmean.adaptive.robust_sigma`.  The other
    kinds read neither.

    An overflow on the way follows :func:`finite_or_too_large`.
    """
    return finite_or_too_large(_estimate, sample, spec, levels, scale)


def _estimate(
    sample: Sample, spec: EstimatorSpec, levels: dict[int, BlockSummaries] | None, scale: ScaleEstimate | None
) -> float:
    """:func:`estimate` without its overflow rule."""
    if spec.kind == "weighted":
        return weighted_mean(block_summaries(sample, partition(sample.n, spec.k)), spec.p)
    if spec.kind == "mom":
        return median_of_means(block_summaries(sample, partition(sample.n, spec.k)))
    if spec.kind == "trimmed":
        return trimmed_mean(sample, spec.epsilon)
    # adaptive: imported here because that module builds on this one
    from .adaptive import AdaptiveConfig, adaptive_estimate

    config = AdaptiveConfig(p=spec.p, contamination_bound=spec.contamination_bound)
    return adaptive_estimate(sample, config, levels, scale)


def finite_or_too_large(compute, *args):
    """``compute(*args)``, a float or an array of them, without numpy's overflow warnings.

    The rule for numbers too large to summarise: where ``compute`` raises
    ``OverflowError`` or returns a value that is ``inf`` or ``nan``, this
    raises ``OverflowError(TOO_LARGE)``.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            result = compute(*args)
    except OverflowError as exc:
        raise OverflowError(TOO_LARGE) from exc
    if not np.isfinite(result).all():
        raise OverflowError(TOO_LARGE)
    return result
