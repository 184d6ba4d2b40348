"""Full benchmarking runs: one reference category against all others.

For each requested indicator the corpus is binned on a single pooled
support: the reference becomes a smoothed histogram, and one pass over the
indicator column gives every category's smoothed distribution as one
category-by-bin matrix, one row per category in name order. That whole
matrix is scored in one kernel call, the reference's own row is dropped,
and the others' (name, gain) pairs, taken in row order, are ranked by one
stable sort on the gain: ascending information gain relative to the
reference (lower = more similar), ties by name. Rankings are always
computed in full; top-k truncation is a presentation step. CSV tables are
written by corpus._csv_text.

The candidates' smoothed matrix depends on the corpus, the indicator, the
bin spec and alpha, not on the reference, so the Corpus keeps each
indicator's latest one with its spec and alpha: ranking several references
on one loaded Corpus with one setting bins and smooths each indicator column
once. A matrix of more than histogram.BLOCK_ELEMENTS values is not kept, and
is binned and smoothed again on every ranking. Each CLI process loads a
fresh corpus and ranks one reference, so it gains nothing from this.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Mapping, Sequence

from .corpus import Corpus, Indicator, _csv_text, category_values
from .errors import EmptyDataError, InvalidInputError, _as_int
from .histogram import (
    DEFAULT_BIN_COUNT,
    DEFAULT_SCALES,  # unused here, but importable from this module too
    BinSpec,
    Scale,
    build_histogram,
    category_probabilities,
    check_alpha,
    pooled_bin_spec,
)
from .infogain import gains_against_reference

DEFAULT_ALPHA = 0.5
DEFAULT_TOP_K = 30


@dataclass(frozen=True)
class BenchmarkRequest:
    """Configuration of one benchmarking run. indicators, any iterable of
    distinct Indicator members, is kept as a tuple. A scale of None bins each
    indicator on its DEFAULT_SCALES entry; any other scale bins them all."""

    reference: str
    indicators: tuple[Indicator, ...] = tuple(Indicator)
    bin_count: int = DEFAULT_BIN_COUNT
    scale: Scale | None = None
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if not isinstance(self.reference, str):
            raise InvalidInputError(f"reference category must be a str, got {self.reference!r}")
        if not self.reference:
            raise InvalidInputError("reference category must be non-empty")
        try:
            object.__setattr__(self, "indicators", tuple(self.indicators))
        except TypeError:
            raise InvalidInputError(
                f"indicators must be an iterable of Indicator members, got {self.indicators!r}"
            ) from None
        if not self.indicators:
            raise InvalidInputError("at least one indicator is required")
        for indicator in self.indicators:
            if not isinstance(indicator, Indicator):
                raise InvalidInputError(f"indicators must be Indicator members, got {indicator!r}")
        if len(set(self.indicators)) != len(self.indicators):
            raise InvalidInputError("indicators must be distinct")
        object.__setattr__(self, "alpha", check_alpha(self.alpha))


@dataclass(frozen=True)
class BenchmarkResult:
    """Ascending-gain ranking of candidate categories for one indicator."""

    reference: str
    indicator: Indicator
    spec: BinSpec
    alpha: float
    ranking: tuple[tuple[str, float], ...]

    def to_dict(self) -> dict:
        return {
            "reference": self.reference,
            "indicator": self.indicator.code,
            "alpha": self.alpha,
            "bin_count": self.spec.bin_count,
            "scale": self.spec.scale,
            "lower": self.spec.lower,
            "upper": self.spec.upper,
            "ranking": [
                {"rank": i + 1, "category": cat, "gain": gain}
                for i, (cat, gain) in enumerate(self.ranking)
            ],
        }

    def to_csv(self) -> str:
        rows = [(str(i), cat, repr(gain)) for i, (cat, gain) in enumerate(self.ranking, 1)]
        return _csv_text([("rank", "category", "gain"), *rows])


def run_benchmark(corpus: Corpus, request: BenchmarkRequest) -> list[BenchmarkResult]:
    """One full-ranking BenchmarkResult per requested indicator.

    Candidates with no present values for an indicator are left out of that
    indicator's ranking: with no observations they have no impact profile.
    Deterministic for a fixed corpus and request, whatever the row order of
    the input.
    """
    results = []
    for indicator in request.indicators:
        ref_values, _ = category_values(corpus, request.reference, indicator)
        if not ref_values:
            raise EmptyDataError(
                f"reference category {request.reference!r} has no "
                f"{indicator.value} values"
            )
        spec = pooled_bin_spec(corpus, indicator, request.bin_count, request.scale)
        # The candidate matrix is smoothed before the reference histogram, so
        # that a pseudo-count the indicator cannot take is reported by name.
        # It is deleted once scored, so at most one matrix too large for the
        # memo is alive at a time. The reference gets a histogram of its own,
        # not its matrix row, because bench/run.py reports
        # histogram.build_useful_ratio only when build_histogram has run.
        names, matrix = category_probabilities(corpus, indicator, spec, request.alpha)
        ref_hist = build_histogram(ref_values, spec, request.alpha)
        ranking = gains_against_reference(ref_hist, names, matrix, request.reference)
        del matrix
        # The names come sorted, so the stable sort breaks ties by name.
        ranking.sort(key=itemgetter(1))
        results.append(
            BenchmarkResult(
                reference=request.reference,
                indicator=indicator,
                spec=spec,
                alpha=request.alpha,
                ranking=tuple(ranking),
            )
        )
    return results


def top_k(result: BenchmarkResult, k: int) -> BenchmarkResult:
    """Truncate a ranking to its k most similar categories; k is an integer."""
    if _as_int(k, "k") < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    return replace(result, ranking=result.ranking[:k])


@dataclass(frozen=True)
class SummaryRow:
    category: str
    ranks: Mapping[str, int | None]  # indicator code -> 1-based rank, None if absent
    appearances: int


@dataclass(frozen=True)
class CrossIndicatorSummary:
    """Which categories recur near the top across indicators."""

    reference: str
    indicators: tuple[Indicator, ...]
    rows: tuple[SummaryRow, ...]

    def to_dict(self) -> dict:
        return {
            "reference": self.reference,
            "indicators": [ind.code for ind in self.indicators],
            "rows": [
                {"category": r.category, "appearances": r.appearances, "ranks": dict(r.ranks)}
                for r in self.rows
            ],
        }

    def to_csv(self) -> str:
        codes = [ind.code for ind in self.indicators]
        rows = [
            [row.category, str(row.appearances)]
            + ["" if row.ranks[code] is None else str(row.ranks[code]) for code in codes]
            for row in self.rows
        ]
        return _csv_text([["category", "appearances"] + [f"rank_{code}" for code in codes], *rows])


def cross_indicator_summary(results: Sequence[BenchmarkResult]) -> CrossIndicatorSummary:
    """Tabulate, over already-truncated rankings, each category's rank per
    indicator and how many indicators list it.

    Rows are ordered by descending appearance count, then best rank, then
    name. All results must share one reference and use distinct indicators.
    """
    if not results:
        raise InvalidInputError("at least one benchmark result is required")
    references = {r.reference for r in results}
    if len(references) != 1:
        raise InvalidInputError(f"results mix references: {sorted(references)}")
    indicators = tuple(r.indicator for r in results)
    if len(set(indicators)) != len(indicators):
        raise InvalidInputError("results repeat an indicator")

    rank_maps = {
        r.indicator.code: {cat: i + 1 for i, (cat, _) in enumerate(r.ranking)} for r in results
    }
    union = sorted({cat for ranks in rank_maps.values() for cat in ranks})
    rows = []
    for cat in union:
        ranks = {ind.code: rank_maps[ind.code].get(cat) for ind in indicators}
        present = [r for r in ranks.values() if r is not None]
        rows.append(SummaryRow(category=cat, ranks=ranks, appearances=len(present)))
    rows.sort(
        key=lambda row: (
            -row.appearances,
            min(r for r in row.ranks.values() if r is not None),
            row.category,
        )
    )
    return CrossIndicatorSummary(
        reference=results[0].reference, indicators=indicators, rows=tuple(rows)
    )
