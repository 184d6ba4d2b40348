import math
import re
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heliobench import (
    DEFAULT_SCALES,
    BenchmarkRequest,
    BinSpec,
    EmptyDataError,
    Histogram,
    Indicator,
    InvalidInputError,
    build_histogram,
    category_values,
    gains_against_reference,
    load_corpus,
    parse_corpus,
    pooled_bin_spec,
    unexpectedness,
)
from heliobench.histogram import LOG_FLOOR, MAX_BIN_COUNT, category_probabilities, check_alpha

from oracle import brute_force_counts, exact_frequencies

HEADER = "journal,category,impact_factor,eigenfactor,immediacy\n"


class TestBinSpec:
    def test_linear_edges_are_arithmetic(self):
        edges = BinSpec(0.0, 10.0, 20).edges()
        assert edges.shape == (21,)
        np.testing.assert_allclose(np.diff(edges), 0.5, rtol=1e-12)

    def test_log_edges_are_geometric(self):
        edges = BinSpec(0.01, 10.0, 3, scale="log").edges()
        ratios = edges[1:] / edges[:-1]
        np.testing.assert_allclose(ratios, 10.0, rtol=1e-9)

    def test_log_scale_floors_zero_lower_bound(self):
        edges = BinSpec(0.0, 1.0, 4, scale="log").edges()
        assert edges[0] > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lower=0.0, upper=1.0, bin_count=1),
            dict(lower=2.0, upper=1.0, bin_count=4),
            dict(lower=1.0, upper=1.0, bin_count=4),
            dict(lower=-1.0, upper=1.0, bin_count=4),
            dict(lower=0.0, upper=float("inf"), bin_count=4),
            dict(lower=0.0, upper=1.0, bin_count=4, scale="sqrt"),
            dict(lower="0", upper=1.0, bin_count=4),
            dict(lower=0.0, upper=None, bin_count=4),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(InvalidInputError):
            BinSpec(**kwargs)


    def test_bin_count_cap(self):
        assert BinSpec(0.0, 1.0, MAX_BIN_COUNT).edges().shape == (MAX_BIN_COUNT + 1,)
        with pytest.raises(InvalidInputError, match="bin_count"):
            BinSpec(0.0, 1.0, MAX_BIN_COUNT + 1)

    @pytest.mark.parametrize("scale", ["linear", "log"])
    def test_edges_are_computed_once_and_read_only(self, scale):
        spec = BinSpec(0.0, 10.0, 50, scale=scale)
        edges = spec.edges()
        expected = (np.linspace(0.0, 10.0, 51) if scale == "linear"
                    else np.geomspace(LOG_FLOOR, 10.0, 51))
        assert np.array_equal(edges, expected)
        assert spec.edges() is edges
        with pytest.raises(ValueError):
            edges[0] = 1.0
        assert spec == BinSpec(0.0, 10.0, 50, scale=scale)

    def test_huge_bin_count_rejected_before_allocating(self):
        corpus = parse_corpus(HEADER + "A,X,10.0,0.1,0.2\nB,Y,1.0,0.1,0.2\n")
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="bin_count"):
                pooled_bin_spec(corpus, Indicator.IMPACT_FACTOR, 100_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestPooledBinSpec:
    def test_linear_support_covers_corpus_maximum(self):
        corpus = parse_corpus(
            HEADER + "A,X,10.0,0.1,0.2\nB,X,1.0,0.1,0.2\nC,Y,4.0,0.1,0.2\n"
        )
        spec = pooled_bin_spec(corpus, Indicator.IMPACT_FACTOR, 20, "linear")
        assert spec.lower == 0.0
        assert spec.upper == 10.0 * (1.0 + 1e-9)
        assert spec.bin_count == 20
        edges = spec.edges()
        assert edges[0] == 0.0
        assert edges[1] == pytest.approx(0.5, rel=1e-8)
        # maximum falls strictly inside the last half-open interval
        assert edges[-2] <= 10.0 < edges[-1]

    def test_single_distinct_value(self):
        corpus = parse_corpus(HEADER + "A,X,3.0,0.1,0.2\n")
        spec = pooled_bin_spec(corpus, Indicator.IMPACT_FACTOR, 8, "linear")
        assert spec.lower == 0.0
        assert spec.upper == 3.0 * (1.0 + 1e-9)
        assert spec.bin_count == 8

    def test_all_values_missing_raises(self):
        corpus = parse_corpus(HEADER + "A,X,,0.1,0.2\nB,Y,,0.1,0.2\n")
        with pytest.raises(EmptyDataError):
            pooled_bin_spec(corpus, Indicator.IMPACT_FACTOR, 20, "linear")

    def test_log_lower_is_smallest_positive(self):
        corpus = parse_corpus(
            HEADER + "A,X,1.0,0.004,0.2\nB,X,1.0,0.0,0.2\nC,Y,1.0,0.05,0.2\n"
        )
        spec = pooled_bin_spec(corpus, Indicator.EIGENFACTOR, 10, "log")
        assert spec.lower == 0.004
        assert spec.scale == "log"

    def test_log_without_positive_values_raises(self):
        corpus = parse_corpus(HEADER + "A,X,1.0,0.0,0.2\n")
        with pytest.raises(EmptyDataError, match="positive"):
            pooled_bin_spec(corpus, Indicator.EIGENFACTOR, 10, "log")


class TestBuildHistogram:
    def test_unsmoothed_counting(self):
        hist = build_histogram([1.0, 1.0, 3.0], BinSpec(0.0, 4.0, 2), alpha=0.0)
        assert hist.probabilities.tolist() == [2 / 3, 1 / 3]
        assert hist.counts.tolist() == [2, 1]
        assert hist.sample_count == 3
        assert hist.clamped == 0

    def test_smoothed_counting(self):
        # counts [2, 1], alpha 1: (2+1)/(3+2) and (1+1)/(3+2)
        hist = build_histogram([1.0, 1.0, 3.0], BinSpec(0.0, 4.0, 2), alpha=1.0)
        counts = brute_force_counts([1.0, 1.0, 3.0], [0.0, 2.0, 4.0])
        expected = [float(Fraction(c + 1, 3 + 2)) for c in counts]
        assert hist.probabilities.tolist() == expected == [3 / 5, 2 / 5]

    def test_empty_values_smoothed_gives_uniform(self):
        hist = build_histogram([], BinSpec(0.0, 1.0, 4), alpha=1.0)
        assert hist.probabilities.tolist() == [0.25, 0.25, 0.25, 0.25]
        assert hist.sample_count == 0

    def test_empty_values_unsmoothed_raises(self):
        with pytest.raises(EmptyDataError):
            build_histogram([], BinSpec(0.0, 1.0, 4), alpha=0.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(InvalidInputError):
            build_histogram([1.0], BinSpec(0.0, 2.0, 2), alpha=-0.5)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(InvalidInputError, match="finite"):
            build_histogram([1.0], BinSpec(0.0, 2.0, 2), alpha=alpha)

    @pytest.mark.parametrize("values", [[0.2, math.nan], [math.nan]])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_nan_is_refused_not_counted(self, values, alpha):
        with pytest.raises(InvalidInputError, match="NaN"):
            build_histogram(values, BinSpec(0.0, 1.0, 4), alpha=alpha)

    def test_out_of_range_values_clamp_to_edge_bins(self):
        hist = build_histogram([0.5, 3.5, 1.5], BinSpec(1.0, 3.0, 2), alpha=0.0)
        assert hist.counts.tolist() == [2, 1]
        assert hist.clamped == 2

    def test_value_at_upper_edge_clamps_into_last_bin(self):
        hist = build_histogram([4.0], BinSpec(0.0, 4.0, 2), alpha=0.0)
        assert hist.counts.tolist() == [0, 1]
        assert hist.clamped == 1

    def test_interior_edges_are_left_closed(self):
        hist = build_histogram([2.0], BinSpec(0.0, 4.0, 2), alpha=0.0)
        assert hist.counts.tolist() == [0, 1]
        assert hist.clamped == 0


class TestCategoryProbabilities:
    @pytest.mark.parametrize(
        "bins, scale, alpha", [(20, None, 0.5), (7, "log", 0.0)]
    )
    def test_rows_equal_build_histogram(self, demo_csv_path, bins, scale, alpha):
        corpus = load_corpus(demo_csv_path)
        for indicator in Indicator:
            spec = pooled_bin_spec(corpus, indicator, bins, scale or DEFAULT_SCALES[indicator])
            names, probabilities = category_probabilities(corpus, indicator, spec, alpha)
            assert probabilities.shape == (len(names), bins)
            expected_names = []
            for cat in corpus.category_names():
                values, _ = category_values(corpus, cat, indicator)
                if values:
                    expected_names.append(cat)
                    row = probabilities[names.index(cat)]
                    assert np.array_equal(row, build_histogram(values, spec, alpha).probabilities)
            assert names == expected_names

    def test_categories_without_values_are_left_out(self):
        corpus = parse_corpus(
            HEADER + "a,A,1.0,0.1,0.2\nb,B,,0.1,0.2\nc,C,3.0,0.1,0.2\nd,C,2.0,0.1,0.2\n"
        )
        spec = pooled_bin_spec(corpus, Indicator.IMPACT_FACTOR, 2)
        names, probabilities = category_probabilities(corpus, Indicator.IMPACT_FACTOR, spec)
        assert names == ["A", "C"]
        assert probabilities.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_indicator_without_values_gives_no_rows(self):
        corpus = parse_corpus(HEADER + "a,A,1.0,0.1,\nb,B,2.0,0.1,\n")
        names, probabilities = category_probabilities(
            corpus, Indicator.IMMEDIACY, BinSpec(0.0, 1.0, 4), 0.5
        )
        assert names == [] and probabilities.shape == (0, 4)

    def test_probability_equal_to_the_limit_is_kept(self):
        # One value per category and alpha at the limit leave each empty
        # bin's probability exactly at the limit, which is allowed.
        hist = build_histogram([0.5], BinSpec(0.0, 1.0, 4), alpha=sys.float_info.min)
        assert hist.probabilities.min() == sys.float_info.min
        corpus = parse_corpus(HEADER + "a,A,1.0,0.1,0.2\nb,B,3.0,0.1,0.2\n")
        spec = pooled_bin_spec(corpus, Indicator.IMPACT_FACTOR, 4)
        _, probabilities = category_probabilities(
            corpus, Indicator.IMPACT_FACTOR, spec, sys.float_info.min
        )
        assert probabilities.min() == sys.float_info.min


class TestHistogramInvariants:
    def test_alpha_zero_matches_exact_rational_frequencies(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_vals = int(rng.integers(1, 21))
            bins = int(rng.integers(2, 9))
            values = rng.uniform(0.0, 10.0, n_vals).tolist()
            spec = BinSpec(0.0, 10.0 + 1e-9, bins)
            hist = build_histogram(values, spec, alpha=0.0)
            expected = [float(f) for f in exact_frequencies(values, spec.edges().tolist())]
            assert hist.probabilities.tolist() == expected

    @given(
        st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=50),
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=0, max_value=10, allow_nan=False, allow_subnormal=False),
    )
    @example([0.0, 0.0], 2, sys.float_info.min)  # leaves an empty bin below the floor
    @settings(max_examples=150, deadline=None)
    def test_probabilities_sum_to_one(self, values, bins, alpha):
        import math

        try:
            hist = build_histogram(values, BinSpec(0.0, 101.0, bins), alpha=alpha)
        except InvalidInputError:
            # Refused only where an empty bin's share would fall below the floor.
            assert 0 < alpha / (len(values) + alpha * bins) < sys.float_info.min
            return
        assert abs(math.fsum(hist.probabilities.tolist()) - 1.0) < 1e-12
        assert np.all(hist.probabilities >= 0)
        assert alpha == 0 or hist.probabilities.min() >= sys.float_info.min

    @pytest.mark.parametrize("factor", [0.25, 0.5, 2.0, 4.0, 1024.0, 2.0**-20])
    def test_scale_equivariance_power_of_two(self, factor):
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 50.0, 200)
        base = build_histogram(values, BinSpec(0.0, 50.0 + 1e-7, 16), alpha=0.5)
        scaled = build_histogram(
            values * factor, BinSpec(0.0, (50.0 + 1e-7) * factor, 16), alpha=0.5
        )
        assert base.probabilities.tolist() == scaled.probabilities.tolist()

    def test_scale_equivariance_generic_factor(self):
        # values well away from bin edges survive inexact scaling too
        values = [0.3, 1.3, 1.4, 2.7, 3.3]
        base = build_histogram(values, BinSpec(0.0, 4.0, 4), alpha=0.0)
        scaled = build_histogram(
            [v * 3.7 for v in values], BinSpec(0.0, 4.0 * 3.7, 4), alpha=0.0
        )
        assert base.probabilities.tolist() == scaled.probabilities.tolist()

    def test_large_alpha_tends_to_uniform(self):
        hist = build_histogram([1.0, 2.0, 9.5], BinSpec(0.0, 10.0, 20), alpha=1e9)
        assert np.max(np.abs(hist.probabilities - 1.0 / 20)) < 1e-6

    def test_alpha_positive_probabilities_strictly_positive(self):
        hist = build_histogram([1.0], BinSpec(0.0, 10.0, 20), alpha=0.5)
        assert np.all(hist.probabilities > 0)


class TestHistogramType:
    def test_probability_vector_must_match_bin_count(self):
        with pytest.raises(InvalidInputError):
            Histogram(BinSpec(0.0, 1.0, 3), [0.5, 0.5])

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InvalidInputError, match="sum"):
            Histogram(BinSpec(0.0, 1.0, 2), [0.5, 0.4])

    def test_negative_probability_rejected(self):
        with pytest.raises(InvalidInputError):
            Histogram(BinSpec(0.0, 1.0, 2), [1.1, -0.1])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_probability_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            Histogram(BinSpec(0.0, 1.0, 2), [bad, 0.5])

    def test_alpha_positive_forbids_zero_probability(self):
        with pytest.raises(InvalidInputError):
            Histogram(BinSpec(0.0, 1.0, 2), [1.0, 0.0], alpha=0.5)

    def test_probabilities_are_immutable(self):
        hist = Histogram(BinSpec(0.0, 1.0, 2), [0.5, 0.5])
        with pytest.raises(ValueError):
            hist.probabilities[0] = 0.9

    def test_the_callers_arrays_stay_writable_and_apart(self):
        a = np.array([0.25, 0.75])
        counts = np.array([1, 3], dtype=np.int64)
        from_a = Histogram(BinSpec(0.0, 1.0, 2), a)
        hist = Histogram(spec=BinSpec(0.0, 1.0, 2), probabilities=a, counts=counts)
        assert a.flags.writeable and counts.flags.writeable
        assert not hist.probabilities.flags.writeable and not hist.counts.flags.writeable
        a[0], a[1], counts[0] = 0.5, 0.5, 7
        assert from_a.probabilities.tolist() == hist.probabilities.tolist() == [0.25, 0.75]
        assert hist.counts.tolist() == [1, 3]

    @pytest.mark.parametrize(
        "counts", [[1, 2, 3], [1], [1.7, 2], [1.0, 2.0], [1, -2], [True, False], ["1", "2"]]
    )
    def test_counts_must_be_bin_count_integers_at_least_zero(self, counts):
        with pytest.raises(InvalidInputError, match=r"^counts must be 2 integers >= 0$"):
            Histogram(BinSpec(0.0, 1.0, 2), [0.5, 0.5], counts=counts)
        hist = Histogram(BinSpec(0.0, 1.0, 2), [0.0, 1.0], counts=np.array([0, 2], np.uint8))
        assert hist.counts.dtype == np.int64 and hist.to_dict()["counts"] == [0, 2]

    @pytest.mark.parametrize("alpha", [-1.0, -math.inf, math.inf, math.nan, "x", None])
    def test_alpha_must_be_a_finite_pseudo_count_at_least_zero(self, alpha):
        with pytest.raises(InvalidInputError, match=r"^alpha must be "):
            Histogram(BinSpec(0.0, 1.0, 2), [0.5, 0.5], alpha=alpha)

    @pytest.mark.parametrize(
        "probabilities, counts, alpha",
        [
            ([0.5, 0.5], [1, 3], 0.0),
            ([0.5, 0.5], [0, 2], 0.0),
            ([0.5, 0.5], [0, 0], 0.0),  # no counts give no distribution at alpha 0
            ([0.25, 0.75], [1, 3], 0.5),
            ([0.25 + 2e-12, 0.75 - 2e-12], [1, 3], 0.0),
        ],
    )
    def test_counts_must_give_the_probabilities(self, probabilities, counts, alpha):
        with pytest.raises(InvalidInputError, match=r"^probabilities must be the counts smoothed"):
            Histogram(BinSpec(0.0, 1.0, 2), probabilities, counts=counts, alpha=alpha)

    def test_counts_give_the_probabilities_within_the_tolerance(self):
        # p_i = (c_i + alpha) / (N + alpha * bin_count), within 1e-12.
        spec = BinSpec(0.0, 1.0, 2)
        for probabilities, counts, alpha in [
            ([0.25 + 1e-13, 0.75 - 1e-13], [1, 3], 0.0),
            ([1.5 / 5, 3.5 / 5], [1, 3], 0.5),
            ([0.5, 0.5], [0, 0], 1.0),
        ]:
            hist = Histogram(spec, probabilities, counts=counts, alpha=alpha)
            assert hist.counts.tolist() == counts

    @pytest.mark.parametrize(
        "counts, clamped",
        [([1, 1], -7), ([1, 1], 3), (None, 1), ([1, 1], 1.0), ([1, 1], "1"), ([1, 1], True)],
    )
    def test_clamped_must_be_an_integer_up_to_the_sample_count(self, counts, clamped):
        sample_count = 0 if counts is None else 2
        with pytest.raises(
            InvalidInputError,
            match=rf"^clamped must be an integer in \[0, {sample_count}\], got {clamped!r}$",
        ):
            Histogram(BinSpec(0.0, 1.0, 2), [0.5, 0.5], counts=counts, clamped=clamped)

    def test_sample_count_is_the_sum_of_counts(self):
        import json

        hist = Histogram(BinSpec(0.0, 1.0, 2), [0.25, 0.75], counts=[1, 3], clamped=np.int64(4))
        assert (hist.sample_count, hist.clamped, type(hist.clamped)) == (4, 4, int)
        doc = json.loads(json.dumps(hist.to_dict()))
        assert (doc["sample_count"], doc["clamped"]) == (4, 4)
        assert Histogram(BinSpec(0.0, 1.0, 2), [0.5, 0.5]).sample_count == 0
        with pytest.raises(TypeError):
            Histogram(BinSpec(0.0, 1.0, 2), [0.5, 0.5], counts=[1, 1], sample_count=-3)

    def test_to_dict_round_trips_through_json(self):
        import json

        hist = build_histogram([1.0, 2.0], BinSpec(0.0, 4.0, 4), alpha=0.5)
        doc = json.loads(json.dumps(hist.to_dict()))
        assert doc["sample_count"] == 2
        assert len(doc["edges"]) == 5
        assert doc["counts"] == [0, 1, 1, 0]


@pytest.mark.parametrize(
    "flag", [True, False, np.True_, np.False_], ids=["True", "False", "np.True_", "np.False_"]
)
def test_a_bool_is_neither_an_alpha_nor_a_bin_count(flag):
    spec = BinSpec(0.0, 1.0, 2)
    corpus = parse_corpus(HEADER + "A,C,1.0,0.1,0.2\n")
    got = re.escape(repr(flag))
    for call in (
        lambda: check_alpha(flag),
        lambda: Histogram(spec, [0.5, 0.5], counts=[0, 0], alpha=flag),
        lambda: build_histogram([0.2], spec, flag),
        lambda: category_probabilities(corpus, Indicator.IMPACT_FACTOR, spec, flag),
        lambda: BenchmarkRequest(reference="A", alpha=flag),
    ):
        with pytest.raises(InvalidInputError, match=rf"^alpha must be a real number, got {got}$"):
            call()
    for call in (
        lambda: BinSpec(0.0, 1.0, flag),
        lambda: pooled_bin_spec(corpus, Indicator.IMPACT_FACTOR, flag),
    ):
        with pytest.raises(InvalidInputError, match=rf"^bin_count must be an integer, got {got}$"):
            call()


def test_real_arguments_are_kept_as_python_floats():
    import json

    spec = BinSpec(np.float32(0.0), np.float32(1.0), 2)
    hist = build_histogram([0.2], spec, np.float32(0.5))
    assert [type(x) for x in (spec.lower, spec.upper, hist.alpha)] == [float] * 3
    doc = json.loads(json.dumps(hist.to_dict()))
    assert (doc["alpha"], doc["edges"]) == (0.5, [0.0, 0.5, 1.0])
    for alpha in (1, Fraction(1, 2), np.int64(2)):
        for kept in (
            check_alpha(alpha),
            Histogram(BinSpec(0, 1, 2), [0.5, 0.5], counts=[1, 1], alpha=alpha).alpha,
            build_histogram([0.2], BinSpec(0, 1, 2), alpha).to_dict()["alpha"],
        ):
            assert (type(kept), kept) == (float, float(alpha))


@pytest.mark.parametrize(
    "value",
    [Decimal("0.5"), 10**400, True, np.True_, "0.5", None],
    ids=["Decimal", "10**400", "True", "np.True_", "str", "None"],
)
def test_what_is_not_a_real_number_is_refused_by_every_real_argument(value):
    spec = BinSpec(0.0, 1.0, 2)
    got = re.escape(repr(value))
    for name, call in (
        ("alpha", lambda: check_alpha(value)),
        ("alpha", lambda: build_histogram([0.2], spec, value)),
        ("alpha", lambda: BenchmarkRequest(reference="A", alpha=value)),
        ("lower bound", lambda: BinSpec(value, 1.0, 2)),
        ("upper bound", lambda: BinSpec(0.0, value, 2)),
        ("probability", lambda: unexpectedness(value)),
    ):
        with pytest.raises(InvalidInputError, match=rf"^{name} must be a real number, got {got}$"):
            call()


def test_arrays_numpy_cannot_read_as_numbers_are_refused():
    # Not numpy's ValueError. A bool among floats is not refused: numpy
    # reads it as 0.0 or 1.0 before any check sees it.
    spec = BinSpec(0.0, 1.0, 2)
    reference = build_histogram([0.2, 0.7], spec, 0.5)
    for call, message in (
        (lambda: build_histogram(["a"], spec), r"values must be real numbers"),
        (lambda: build_histogram([[0.2], [0.3, 0.4]], spec), r"values must be real numbers"),
        (lambda: build_histogram([[0.2, 0.3]], spec), r"values must be a 1-D .* \(1, 2\)"),
        (lambda: build_histogram(0.5, spec), r"values must be a 1-D sequence, got shape \(\)"),
        (lambda: Histogram(spec, ["a", "b"]), r"probabilities must be real numbers"),
        (
            lambda: gains_against_reference(reference, ["a"], [["x", "y"]]),
            r"candidate probabilities must be real numbers",
        ),
    ):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            call()
