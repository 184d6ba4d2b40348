"""Discrete probability distributions over shared impact-value intervals.

Every category of a corpus is binned on one pooled BinSpec per indicator,
so all resulting distributions live on identical support and can be
compared bin by bin. Additive pseudo-count smoothing (alpha) keeps every
probability strictly positive, which downstream divergence computations
require of the input distribution.

A Corpus memoizes, per indicator, the pooled spec of the latest
(bin_count, scale) and the latest smoothed category-by-bin matrix with the
spec and alpha it was made with, so repeated rankings with one setting on
one Corpus object bin and smooth each column once. The matrix is kept only
while it holds at most BLOCK_ELEMENTS values, so what the memo keeps stays
bounded at any bin_count. A CLI process loads a fresh corpus every time
and gains nothing from the memo.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Literal, Mapping, Sequence, get_args

import numpy as np

from .corpus import Corpus, Indicator
from .errors import EmptyDataError, InvalidInputError, _as_int, _as_real

Scale = Literal["linear", "log"]

# Relative widening of the pooled upper bound so the observed maximum falls
# strictly inside the last half-open interval.
RELATIVE_MARGIN = 1e-9

# Positive floor for the lower edge of logarithmic binning.
LOG_FLOOR = 1e-12

PROBABILITY_SUM_TOL = 1e-12

# Upper limit on bin_count. A batch of C categories holds a C x bin_count
# count matrix, so an unbounded count turns one typo into gigabytes.
MAX_BIN_COUNT = 10_000

DEFAULT_BIN_COUNT = 20

# Eigenfactor scores cluster within a few orders of magnitude of zero, so
# they get geometric bins by default; the other two indicators are binned
# linearly.
DEFAULT_SCALES: Mapping[Indicator, Scale] = {
    Indicator.IMPACT_FACTOR: "linear",
    Indicator.EIGENFACTOR: "log",
    Indicator.IMMEDIACY: "linear",
}

# Candidate values scored at once by the gain kernel; each temporary of a
# block is then about 2 MB, whatever the number of candidates. It also caps
# the smoothed matrix a Corpus memo keeps.
BLOCK_ELEMENTS = 1 << 18


def _as_bin_count(bin_count: int) -> int:
    """bin_count as a Python int. Raises InvalidInputError unless it is an
    integer in [2, MAX_BIN_COUNT]; a bool or a float such as 20.0 is not one."""
    count = _as_int(bin_count, "bin_count")
    if not 2 <= count <= MAX_BIN_COUNT:
        raise InvalidInputError(f"bin_count must be in [2, {MAX_BIN_COUNT}], got {count}")
    return count


def _as_floats(values, name: str) -> np.ndarray:
    """values as a float64 array, not copied if it is one. Raises
    InvalidInputError, naming name, when numpy cannot read them as numbers.
    A bool among floats is read as 0.0 or 1.0: numpy converts the list
    before any check can see it."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} must be real numbers") from None


@dataclass(frozen=True)
class BinSpec:
    """Shared binning: bin_count half-open intervals [l_i, l_{i+1}) on
    [lower, upper), spaced linearly or geometrically; lower and upper are kept as floats."""

    lower: float
    upper: float
    bin_count: int
    scale: Scale = "linear"

    def __post_init__(self):
        object.__setattr__(self, "bin_count", _as_bin_count(self.bin_count))
        object.__setattr__(self, "lower", _as_real(self.lower, "lower bound"))
        object.__setattr__(self, "upper", _as_real(self.upper, "upper bound"))
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise InvalidInputError("bin bounds must be finite")
        if self.lower < 0:
            raise InvalidInputError(f"lower bound must be >= 0, got {self.lower}")
        if self.scale not in get_args(Scale):
            scales = " or ".join(map(repr, get_args(Scale)))
            raise InvalidInputError(f"scale must be {scales}, got {self.scale!r}")
        if self.upper <= (max(self.lower, LOG_FLOOR) if self.scale == "log" else self.lower):
            raise InvalidInputError(
                f"upper bound must exceed lower bound, got [{self.lower}, {self.upper}]"
            )

    def edges(self) -> np.ndarray:
        """The bin_count + 1 interval edges, read-only, computed once per spec."""
        edges = self.__dict__.get("_edges")
        if edges is None:
            if self.scale == "linear":
                edges = np.linspace(self.lower, self.upper, self.bin_count + 1)
            else:
                edges = np.geomspace(max(self.lower, LOG_FLOOR), self.upper, self.bin_count + 1)
            edges.flags.writeable = False
            object.__setattr__(self, "_edges", edges)
        return edges


@dataclass(frozen=True, eq=False)
class Histogram:
    """A probability vector over a BinSpec's intervals.

    alpha is a finite pseudo-count >= 0, kept as a float. probabilities are
    numbers that sum to 1 (within 1e-12) and are strictly positive when
    alpha > 0. counts is None for distributions not built from samples, else
    bin_count integers >= 0 that give each probability, within 1e-12, as
    build_histogram smooths them: (c_i + alpha) / (N + alpha * bin_count).
    clamped, the number of samples that fell outside the spec's bounds, is
    an integer in [0, sample_count]. Each is refused with InvalidInputError
    otherwise, and so are probabilities or counts numpy cannot read as one
    array, such as rows of different lengths.
    """

    spec: BinSpec
    probabilities: np.ndarray
    counts: np.ndarray | None = None
    alpha: float = 0.0
    clamped: int = 0

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_alpha(self.alpha))
        probs = _as_floats(self.probabilities, "probabilities").copy()
        if probs.shape != (self.spec.bin_count,):
            raise InvalidInputError(
                f"expected {self.spec.bin_count} probabilities, got shape {probs.shape}"
            )
        if not (probs.min() >= 0 and probs.max() < math.inf):  # NaN fails both
            raise InvalidInputError("probabilities must be finite and >= 0")
        if self.alpha > 0 and not probs.all():
            raise InvalidInputError("alpha > 0 requires strictly positive probabilities")
        if abs(math.fsum(probs.tolist()) - 1.0) > PROBABILITY_SUM_TOL:
            raise InvalidInputError("probabilities must sum to 1")
        probs.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)
        if self.counts is not None:
            error = f"counts must be {self.spec.bin_count} integers >= 0"
            try:
                counts = np.array(self.counts)
            except ValueError:  # rows of different lengths, such as [[1], [1, 2]]
                raise InvalidInputError(error) from None
            if counts.shape != probs.shape or counts.dtype.kind not in "iu" or counts.min() < 0:
                raise InvalidInputError(error)
            counts = counts.astype(np.int64, copy=False)
            total = int(counts.sum()) + self.alpha * counts.size  # 0 only at alpha 0, no counts
            if not total > 0 or abs(probs - (counts + self.alpha) / total).max() > PROBABILITY_SUM_TOL:
                raise InvalidInputError(
                    f"probabilities must be the counts smoothed with alpha {self.alpha!r}"
                )
            counts.flags.writeable = False
            object.__setattr__(self, "counts", counts)
        sample_count = self.sample_count
        error = f"clamped must be an integer in [0, {sample_count}], got {self.clamped!r}"
        try:
            clamped = _as_int(self.clamped, "clamped")
        except InvalidInputError:
            raise InvalidInputError(error) from None
        if not 0 <= clamped <= sample_count:
            raise InvalidInputError(error)
        object.__setattr__(self, "clamped", clamped)

    @property
    def sample_count(self) -> int:
        """The number of values counted: the sum of counts, 0 without counts."""
        return 0 if self.counts is None else int(self.counts.sum())

    def to_dict(self) -> dict:
        return {
            "edges": self.spec.edges().tolist(),
            "scale": self.spec.scale,
            "probabilities": self.probabilities.tolist(),
            "counts": None if self.counts is None else self.counts.tolist(),
            "sample_count": self.sample_count,
            "alpha": self.alpha,
            "clamped": self.clamped,
        }


def check_alpha(alpha: float) -> float:
    """alpha as a Python float. Raises InvalidInputError unless it is a finite real number >= 0."""
    alpha = _as_real(alpha, "alpha")
    if not 0 <= alpha < math.inf:
        raise InvalidInputError(f"alpha must be finite and >= 0, got {alpha}")
    return alpha


def pooled_bin_spec(
    corpus: Corpus,
    indicator: Indicator,
    bin_count: int = DEFAULT_BIN_COUNT,
    scale: Scale | None = None,
) -> BinSpec:
    """One BinSpec covering every present value of an indicator corpus-wide.

    A scale of None means the indicator's DEFAULT_SCALES entry. Linear:
    [0, max * (1 + 1e-9)). Log: [smallest positive value, max * (1 + 1e-9)).
    Raises EmptyDataError when the indicator has no usable values at all,
    and InvalidInputError, before the memo is read, for a bin_count that is
    not an integer in [2, MAX_BIN_COUNT] or an indicator that is not an
    Indicator member. The spec is memoized on the corpus
    per indicator, for the latest (bin_count, scale) only.
    """
    bin_count = _as_bin_count(bin_count)
    column = corpus.column(indicator)
    if scale is None:
        scale = DEFAULT_SCALES[indicator]
    spec = corpus._specs.get(indicator)
    if spec is not None and (spec.bin_count, spec.scale) == (bin_count, scale):
        return spec
    values = column[~np.isnan(column)]
    if not values.size:
        raise EmptyDataError(f"no {indicator.value} values present in corpus")

    vmax = float(values.max())
    if scale == "log":
        positive = values[values > 0]
        if not positive.size:
            raise EmptyDataError(
                f"no positive {indicator.value} values; logarithmic binning impossible"
            )
        lower = float(positive.min())
    else:
        lower = 0.0
    # All-zero data has no spread; fall back to a unit range.
    upper = vmax * (1.0 + RELATIVE_MARGIN) if vmax > 0 else 1.0
    if math.isinf(upper):
        raise InvalidInputError(
            f"{indicator.value} value {vmax!r} is too large: the bins end at the largest "
            f"value times (1 + {RELATIVE_MARGIN}), which must not exceed {sys.float_info.max!r}"
        )
    if scale == "log" and upper <= LOG_FLOOR:
        raise InvalidInputError(
            f"every positive {indicator.value} value lies below the logarithmic floor "
            f"{LOG_FLOOR}: the largest is {vmax!r}"
        )
    spec = BinSpec(lower=lower, upper=upper, bin_count=bin_count, scale=scale)
    corpus._specs[indicator] = spec
    return spec


def _bin_index(values: np.ndarray, spec: BinSpec) -> tuple[np.ndarray, int]:
    """Each value's interval of spec, values outside it clamped into the
    first or last bin. Returns (bins, clamped)."""
    n = spec.bin_count
    bins = np.searchsorted(spec.edges(), values, side="right")
    bins -= 1
    clamped = int(np.count_nonzero(bins < 0) + np.count_nonzero(bins >= n))
    if clamped:
        np.clip(bins, 0, n - 1, out=bins)
    return bins, clamped


def _smooth(
    index: np.ndarray,
    bin_count: int,
    alpha: float,
    rows: int = 1,
    indicator: Indicator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Count a flat index (row * bin_count + bin) into rows x bin_count
    counts and smooth each row with pseudo-count alpha.

    Returns (counts, probabilities). Every row must hold a value unless
    alpha > 0. Raises InvalidInputError, naming alpha, the indicator when
    given and the limit, when alpha > 0 leaves a probability below the
    smallest normal float: alpha times bin_count overflows, or an empty
    bin's share underflows.
    """
    counts = np.bincount(index, minlength=rows * bin_count).reshape(rows, bin_count)
    probabilities = counts + alpha
    probabilities /= counts.sum(axis=1, keepdims=True) + alpha * bin_count
    # The gain kernel divides by these: a subnormal one can overflow p / q.
    if alpha > 0 and probabilities.min(initial=math.inf) < sys.float_info.min:  # no rows: no error
        where = "" if indicator is None else f" for {indicator.value}"
        if math.isinf(alpha * bin_count):
            raise InvalidInputError(
                f"alpha {alpha!r} is too large{where}: alpha times {bin_count} bins "
                f"exceeds {sys.float_info.max!r}"
            )
        raise InvalidInputError(
            f"alpha {alpha!r} is too small{where} on {bin_count} bins: an empty "
            f"bin's probability falls below {sys.float_info.min!r}"
        )
    return counts, probabilities


def build_histogram(values: Sequence[float], spec: BinSpec, alpha: float = 0.0) -> Histogram:
    """Count values into spec's intervals and smooth with pseudo-count alpha.

    p_i = (c_i + alpha) / (N + alpha * bin_count). Values below the first
    edge land in the first bin, values at or above the last edge in the
    last bin; both are tallied in `clamped`. With alpha = 0 an empty value
    list leaves the distribution undefined and raises EmptyDataError. Raises
    InvalidInputError for values numpy cannot read as one flat sequence of
    numbers (a bool among floats is read as 0.0 or 1.0), for a NaN value,
    since a missing value is left out, not binned, and, naming alpha and the
    limit, when alpha > 0 leaves a probability below the smallest normal float.
    """
    alpha = check_alpha(alpha)
    values = _as_floats(values, "values")
    if values.ndim != 1:
        raise InvalidInputError(f"values must be a 1-D sequence, got shape {values.shape}")
    if np.isnan(values).any():
        raise InvalidInputError("cannot bin NaN: leave missing values out")
    if values.size == 0 and alpha == 0:
        raise EmptyDataError("cannot build an unsmoothed histogram from zero values")

    bins, clamped = _bin_index(values, spec)
    counts, probabilities = _smooth(bins, spec.bin_count, alpha)
    return Histogram(
        spec=spec,
        probabilities=probabilities[0],
        counts=counts[0],
        alpha=alpha,
        clamped=clamped,
    )


def category_probabilities(
    corpus: Corpus, indicator: Indicator, spec: BinSpec, alpha: float = 0.0
) -> tuple[list[str], np.ndarray]:
    """Every category's smoothed distribution of one indicator, from one pass
    over the corpus column.

    Returns (names, probabilities): the sorted names of the categories with
    at least one present value, and one row per name on spec. Each row
    equals build_histogram(category_values(...)).probabilities bit for bit.
    The latest matrix of each indicator is kept on the corpus, read-only,
    with its spec and alpha, if it holds at most BLOCK_ELEMENTS values; a
    later call with an equal spec and alpha returns it as it is. Raises
    InvalidInputError, naming the indicator, alpha and the limit, when
    alpha > 0 leaves a probability below the smallest normal float, because
    alpha times bin_count overflows or an empty bin's share underflows.
    """
    alpha = check_alpha(alpha)
    column = corpus.column(indicator)
    memo = corpus._matrices.get(indicator)
    if memo is not None and memo[:2] == (spec, alpha):
        return list(memo[2]), memo[3]
    names = corpus.category_names()
    present = ~np.isnan(column)
    codes = corpus.category_codes()[present]
    # Number the categories that have values 0..k-1, so that no row is empty.
    has_values = np.bincount(codes, minlength=len(names)) > 0
    rows = np.cumsum(has_values) - 1
    bins, _ = _bin_index(column[present], spec)
    kept = [name for name, keep in zip(names, has_values.tolist()) if keep]
    n = spec.bin_count
    _, probabilities = _smooth(rows[codes] * n + bins, n, alpha, len(kept), indicator)
    if probabilities.size <= BLOCK_ELEMENTS:
        probabilities.flags.writeable = False
        corpus._matrices[indicator] = (spec, alpha, tuple(kept), probabilities)
    return kept, probabilities
