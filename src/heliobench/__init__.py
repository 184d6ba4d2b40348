"""heliobench: benchmark groups of journals by impact-indicator histograms.

Pipeline: ingest a journal/category/indicator CSV into a Corpus, bin each
category's indicator values into probability histograms on one shared
support, rank candidate categories by Kullback-Leibler information gain
relative to a reference (ascending: lower gain = more similar), and render
the top-k as a heliocentric clockwise map.
"""

from .benchmark import (
    DEFAULT_ALPHA,
    DEFAULT_TOP_K,
    BenchmarkRequest,
    BenchmarkResult,
    CrossIndicatorSummary,
    cross_indicator_summary,
    run_benchmark,
    top_k,
)
from .corpus import (
    Corpus,
    Indicator,
    JournalRecord,
    ValidationReport,
    category_values,
    load_corpus,
    parse_corpus,
    serialize_corpus,
    validate_corpus,
)
from .errors import (
    AbsoluteContinuityError,
    CategoryNotFoundError,
    CorpusFormatError,
    DuplicateRecordError,
    EmptyDataError,
    HeliobenchError,
    IncompatibleSupportError,
    InvalidInputError,
)
from .heliomap import (
    HelioDot,
    HelioLayout,
    PrestigeOrder,
    layout_map,
    load_prestige_order,
    parse_prestige_order,
    render_svg,
)
from .histogram import (
    DEFAULT_BIN_COUNT,
    DEFAULT_SCALES,
    BinSpec,
    Histogram,
    build_histogram,
    pooled_bin_spec,
)
from .infogain import (
    expected_unexpectedness,
    gains_against_reference,
    information_gain,
    unexpectedness,
)
from .synthetic import make_synthetic_corpus, write_corpus_csv

__version__ = "0.1.0"

__all__ = [
    "AbsoluteContinuityError",
    "BenchmarkRequest",
    "BenchmarkResult",
    "BinSpec",
    "CategoryNotFoundError",
    "Corpus",
    "CorpusFormatError",
    "CrossIndicatorSummary",
    "DEFAULT_ALPHA",
    "DEFAULT_BIN_COUNT",
    "DEFAULT_SCALES",
    "DEFAULT_TOP_K",
    "DuplicateRecordError",
    "EmptyDataError",
    "HelioDot",
    "HelioLayout",
    "HeliobenchError",
    "Histogram",
    "IncompatibleSupportError",
    "Indicator",
    "InvalidInputError",
    "JournalRecord",
    "PrestigeOrder",
    "ValidationReport",
    "build_histogram",
    "category_values",
    "cross_indicator_summary",
    "expected_unexpectedness",
    "gains_against_reference",
    "information_gain",
    "layout_map",
    "load_corpus",
    "load_prestige_order",
    "make_synthetic_corpus",
    "parse_corpus",
    "parse_prestige_order",
    "pooled_bin_spec",
    "render_svg",
    "run_benchmark",
    "serialize_corpus",
    "top_k",
    "unexpectedness",
    "validate_corpus",
    "write_corpus_csv",
]
