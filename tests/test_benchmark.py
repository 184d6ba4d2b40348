import gc
import json
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from heliobench import (
    DEFAULT_SCALES,
    AbsoluteContinuityError,
    BenchmarkRequest,
    BenchmarkResult,
    BinSpec,
    CategoryNotFoundError,
    Corpus,
    EmptyDataError,
    Indicator,
    InvalidInputError,
    JournalRecord,
    build_histogram,
    category_values,
    cross_indicator_summary,
    gains_against_reference,
    layout_map,
    load_corpus,
    make_synthetic_corpus,
    parse_corpus,
    pooled_bin_spec,
    render_svg,
    run_benchmark,
    serialize_corpus,
    top_k,
)

from heliobench.histogram import MAX_BIN_COUNT, category_probabilities

from oracle import kl_direct


def corpus_with_duplicate(name="Copy Of A"):
    records = [
        JournalRecord("a1", "A", 1.0, 0.01, 0.2),
        JournalRecord("a2", "A", 2.0, 0.02, 0.4),
        JournalRecord("a3", "A", 3.0, 0.03, 0.6),
        JournalRecord("b1", "B", 8.0, 0.10, 2.0),
        JournalRecord("b2", "B", 9.0, 0.20, 2.5),
        JournalRecord("b3", "B", 7.5, 0.15, 1.8),
    ]
    records += [
        JournalRecord(f"c{i}", name, rec.impact_factor, rec.eigenfactor, rec.immediacy)
        for i, rec in enumerate(records[:3])
    ]
    return Corpus(records)


class TestRunBenchmark:
    def test_copied_category_ranks_first_with_zero_gain(self):
        corpus = corpus_with_duplicate()
        results = run_benchmark(corpus, BenchmarkRequest(reference="A"))
        for result in results:
            top_name, top_gain = result.ranking[0]
            assert top_name == "Copy Of A"
            assert top_gain < 1e-12

    def test_synthetic_recovery_order_matches_oracle(self):
        # reference + 2 clones + 3 progressively shifted categories
        corpus = make_synthetic_corpus(
            n_categories=6, clones=2, seed=42, journals_low=60, journals_high=80,
            missing_rate=0.0, cross_list_every=0,
        )
        request = BenchmarkRequest(
            reference="Category 000", indicators=(Indicator.IMPACT_FACTOR,)
        )
        (result,) = run_benchmark(corpus, request)

        # clones occupy the two most-similar ranks
        assert {result.ranking[0][0], result.ranking[1][0]} == {
            "Category 001",
            "Category 002",
        }

        # full order agrees with an independent direct-summation oracle
        spec = pooled_bin_spec(corpus, Indicator.IMPACT_FACTOR, 20, "linear")
        ref_values, _ = category_values(corpus, "Category 000", Indicator.IMPACT_FACTOR)
        ref = build_histogram(ref_values, spec, 0.5)
        oracle_gains = {}
        for cat in corpus.category_names():
            if cat == "Category 000":
                continue
            values, _ = category_values(corpus, cat, Indicator.IMPACT_FACTOR)
            cand = build_histogram(values, spec, 0.5)
            oracle_gains[cat] = kl_direct(ref.probabilities, cand.probabilities)
        oracle_order = sorted(oracle_gains, key=lambda c: (oracle_gains[c], c))
        assert [name for name, _ in result.ranking] == oracle_order
        for name, gain in result.ranking:
            assert gain == pytest.approx(oracle_gains[name], abs=1e-12)

    def test_unknown_reference(self, small_corpus):
        with pytest.raises(CategoryNotFoundError):
            run_benchmark(small_corpus, BenchmarkRequest(reference="Astrology"))

    def test_reference_without_values_names_indicator(self):
        corpus = Corpus(
            [
                JournalRecord("a1", "A", None, 0.01, 0.2),
                JournalRecord("b1", "B", 1.0, 0.02, 0.4),
            ]
        )
        with pytest.raises(EmptyDataError, match="impact_factor"):
            run_benchmark(
                corpus, BenchmarkRequest(reference="A", indicators=(Indicator.IMPACT_FACTOR,))
            )

    def test_candidate_without_values_is_left_out(self):
        corpus = Corpus(
            [
                JournalRecord("a1", "A", 1.0, 0.01, 0.2),
                JournalRecord("a2", "A", 2.0, 0.02, 0.4),
                JournalRecord("b1", "B", None, 0.02, 0.4),
                JournalRecord("c1", "C", 3.0, 0.01, 0.3),
            ]
        )
        (result,) = run_benchmark(
            corpus, BenchmarkRequest(reference="A", indicators=(Indicator.IMPACT_FACTOR,))
        )
        assert [name for name, _ in result.ranking] == ["C"]

    def test_one_result_per_indicator(self, small_corpus):
        results = run_benchmark(small_corpus, BenchmarkRequest(reference="Biology"))
        assert [r.indicator for r in results] == list(Indicator)
        assert all(r.reference == "Biology" for r in results)

    def test_ranking_sorted_ascending_with_lexicographic_ties(self):
        corpus = corpus_with_duplicate(name="Copy 1")
        records = list(corpus.records) + [
            JournalRecord(f"d{i}", "Copy 2", rec.impact_factor, rec.eigenfactor, rec.immediacy)
            for i, rec in enumerate(corpus.records[:3])
        ]
        results = run_benchmark(
            Corpus(records),
            BenchmarkRequest(reference="A", indicators=(Indicator.IMPACT_FACTOR,)),
        )
        ranking = results[0].ranking
        gains = [g for _, g in ranking]
        assert gains == sorted(gains)
        assert [name for name, _ in ranking[:2]] == ["Copy 1", "Copy 2"]
        assert ranking[0][1] == ranking[1][1]

    def test_deterministic_across_runs_and_row_permutations(self):
        corpus = make_synthetic_corpus(
            n_categories=12, clones=2, seed=9, journals_low=20, journals_high=30
        )
        request = BenchmarkRequest(reference="Category 003")
        baseline = [json.dumps(r.to_dict(), sort_keys=True) for r in run_benchmark(corpus, request)]
        again = [json.dumps(r.to_dict(), sort_keys=True) for r in run_benchmark(corpus, request)]
        assert again == baseline

        rng = np.random.default_rng(0)
        shuffled_records = list(corpus.records)
        rng.shuffle(shuffled_records)
        shuffled = [
            json.dumps(r.to_dict(), sort_keys=True)
            for r in run_benchmark(Corpus(shuffled_records), request)
        ]
        assert shuffled == baseline

    def test_gains_are_python_floats_that_round_trip_through_csv(self):
        corpus = make_synthetic_corpus(n_categories=8, clones=2, seed=5)
        for result in run_benchmark(corpus, BenchmarkRequest(reference="Category 000")):
            assert all(type(gain) is float for _, gain in result.ranking)
            rows = result.to_csv().splitlines()[1:]
            assert [float(row.rsplit(",", 1)[1]) for row in rows] == [g for _, g in result.ranking]

    def test_rankings_at_the_bin_cap_match_the_oracle(self):
        corpus = make_synthetic_corpus(n_categories=20, seed=3)
        request = BenchmarkRequest(reference="Category 000", bin_count=MAX_BIN_COUNT)
        for result in run_benchmark(corpus, request):
            ref_values, _ = category_values(corpus, "Category 000", result.indicator)
            p = build_histogram(ref_values, result.spec, request.alpha).probabilities
            for cat, gain in result.ranking[:3]:
                values, _ = category_values(corpus, cat, result.indicator)
                q = build_histogram(values, result.spec, request.alpha).probabilities
                assert gain == pytest.approx(kl_direct(p, q), abs=1e-13)

    def test_alpha_zero_can_violate_absolute_continuity(self):
        from heliobench import AbsoluteContinuityError

        corpus = corpus_with_duplicate()
        with pytest.raises(AbsoluteContinuityError):
            run_benchmark(
                corpus,
                BenchmarkRequest(
                    reference="A", indicators=(Indicator.IMPACT_FACTOR,), alpha=0.0
                ),
            )


def loguniform_corpus(n_categories=6, journals=400, seed=11):
    """Log-uniform values on [0.1, 5], so that 7 linear or log bins all fill
    and alpha = 0 ranks every candidate."""
    rng = np.random.default_rng(seed)
    values = np.exp(rng.uniform(np.log(0.1), np.log(5.0), size=(n_categories * journals, 3)))
    values[rng.random(values.shape) < 0.02] = np.nan
    return Corpus(
        JournalRecord(f"j{i}", f"C{i % n_categories}", *(None if v != v else v for v in row))
        for i, row in enumerate(values.tolist())
    )


class TestBinningMemo:
    """Rankings on one Corpus object reuse its per-indicator binning."""

    SETTINGS = [(20, "linear", 0.5), (7, "log", 0.0), (20, "linear", 0.5), (7, "linear", 0.0),
                (7, "log", 0.5), (20, "log", 0.0), (20, "log", 0.5), (20, "log", 0.0),
                (20, "log", 0.5), (7, "log", 0.5)]

    def test_alternating_settings_match_a_fresh_corpus(self):
        warm = loguniform_corpus()
        for bins, scale, alpha in self.SETTINGS:
            for reference in ("C0", "C3"):
                request = BenchmarkRequest(
                    reference=reference, bin_count=bins, scale=scale, alpha=alpha
                )
                expected = run_benchmark(loguniform_corpus(), request)
                assert run_benchmark(warm, request) == expected

    @pytest.mark.parametrize("build", ["records", "parse"])
    def test_warm_corpus_bins_only_the_reference(self, monkeypatch, build):
        import heliobench.histogram as histogram

        corpus = make_synthetic_corpus(n_categories=10, clones=2, seed=4)
        if build == "records":
            corpus = Corpus(corpus.records)
        else:
            corpus = parse_corpus(serialize_corpus(corpus))
        request = BenchmarkRequest(reference="Category 000")
        run_benchmark(corpus, request)
        binned = []
        original = histogram._bin_index
        monkeypatch.setattr(
            histogram, "_bin_index",
            lambda values, spec: binned.append(len(values)) or original(values, spec),
        )
        request = replace(request, reference="Category 007")
        warm = run_benchmark(corpus, request)
        reference_sizes = [
            len(category_values(corpus, "Category 007", indicator)[0]) for indicator in Indicator
        ]
        assert binned == reference_sizes
        monkeypatch.undo()
        assert warm == run_benchmark(Corpus(corpus.records), request)

    def test_warm_corpus_returns_its_kept_matrix(self):
        corpus = loguniform_corpus()
        spec = pooled_bin_spec(corpus, Indicator.IMPACT_FACTOR)
        names, first = category_probabilities(corpus, Indicator.IMPACT_FACTOR, spec, 0.5)
        again_names, again = category_probabilities(
            corpus, Indicator.IMPACT_FACTOR, replace(spec), 0.5
        )
        assert again is first and again_names == names
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 1.0
        fresh = loguniform_corpus()
        fresh_spec = pooled_bin_spec(fresh, Indicator.IMPACT_FACTOR)
        _, expected = category_probabilities(fresh, Indicator.IMPACT_FACTOR, fresh_spec, 0.5)
        assert np.array_equal(first, expected)

    @pytest.mark.parametrize("spare", [0, -1])
    def test_matrix_above_the_cap_is_not_kept(self, monkeypatch, spare):
        import heliobench.histogram as histogram

        corpus = loguniform_corpus()
        spec = pooled_bin_spec(corpus, Indicator.IMPACT_FACTOR, 20)
        monkeypatch.setattr(histogram, "BLOCK_ELEMENTS", 6 * 20 + spare)
        _, first = category_probabilities(corpus, Indicator.IMPACT_FACTOR, spec, 0.5)
        _, again = category_probabilities(corpus, Indicator.IMPACT_FACTOR, spec, 0.5)
        assert np.array_equal(again, first)
        memo = corpus._matrices.get(Indicator.IMPACT_FACTOR)
        if spare == 0:
            assert again is first and memo[3] is first
        else:
            assert again is not first and first.flags.writeable and memo is None

    def test_latest_matrix_is_kept_whatever_its_spec(self):
        corpus = loguniform_corpus()
        pooled = pooled_bin_spec(corpus, Indicator.IMPACT_FACTOR)
        _, first_pooled = category_probabilities(corpus, Indicator.IMPACT_FACTOR, pooled, 0.5)
        spec = BinSpec(0.5, 3.0, 20)
        names, first = category_probabilities(corpus, Indicator.IMPACT_FACTOR, spec, 0.5)
        again_names, again = category_probabilities(
            corpus, Indicator.IMPACT_FACTOR, BinSpec(0.5, 3.0, 20), 0.5
        )
        assert again is first and again_names == names
        _, pooled_again = category_probabilities(corpus, Indicator.IMPACT_FACTOR, pooled, 0.5)
        assert pooled_again is not first_pooled
        fresh = loguniform_corpus()
        fresh_spec = pooled_bin_spec(fresh, Indicator.IMPACT_FACTOR)
        _, expected = category_probabilities(fresh, Indicator.IMPACT_FACTOR, fresh_spec, 0.5)
        assert np.array_equal(pooled_again, expected)

    def test_reference_without_values_still_raises_on_a_warm_corpus(self):
        corpus = Corpus(
            [
                JournalRecord("a1", "A", None, 0.01, 0.2),
                JournalRecord("b1", "B", 1.0, 0.02, 0.4),
                JournalRecord("c1", "C", 2.0, 0.03, 0.6),
            ]
        )
        run_benchmark(corpus, BenchmarkRequest(reference="B"))
        with pytest.raises(EmptyDataError, match="impact_factor"):
            run_benchmark(corpus, BenchmarkRequest(reference="A"))

    def test_bin_count_must_be_an_integer_cold_or_warm(self):
        corpus = loguniform_corpus()
        request = BenchmarkRequest(reference="C0")
        for _ in range(2):  # cold, then warm with the default spec memoized
            with pytest.raises(InvalidInputError, match=r"^bin_count must be an integer, got 20\.0$"):
                run_benchmark(corpus, replace(request, bin_count=20.0))
            assert run_benchmark(corpus, request) == run_benchmark(loguniform_corpus(), request)
        for ranked in (loguniform_corpus(), corpus):  # cold, then warm
            results = run_benchmark(ranked, replace(request, bin_count=np.int64(20)))
            assert {type(result.spec.bin_count) for result in results} == {int}
            json.dumps([result.to_dict() for result in results])

    def test_other_bin_specs_are_binned_afresh(self):
        corpus = loguniform_corpus()
        run_benchmark(corpus, BenchmarkRequest(reference="C0"))
        spec = BinSpec(0.5, 3.0, 20)
        names, probabilities = category_probabilities(corpus, Indicator.IMPACT_FACTOR, spec, 0.5)
        for name, row in zip(names, probabilities):
            values, _ = category_values(corpus, name, Indicator.IMPACT_FACTOR)
            assert np.array_equal(row, build_histogram(values, spec, 0.5).probabilities)
        assert run_benchmark(corpus, BenchmarkRequest(reference="C1")) == run_benchmark(
            loguniform_corpus(), BenchmarkRequest(reference="C1")
        )

    def test_above_the_cap_only_the_bin_edges_are_kept(self):
        corpus = loguniform_corpus(n_categories=60, journals=1700, seed=3)
        request = BenchmarkRequest(reference="C0", bin_count=MAX_BIN_COUNT)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            run_benchmark(corpus, request)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Each indicator's pooled spec caches its MAX_BIN_COUNT + 1 float
        # edges; 64 KiB covers the specs, names and dict entries around them.
        # A kept bin per present value would be about 1.2 MB more.
        assert after - before < 3 * (MAX_BIN_COUNT + 1) * 8 + 64 * 1024


def public_ranking(corpus, reference, indicator, spec, alpha):
    """A ranking from one Histogram per category, their rows stacked in name
    order, through the public gains_against_reference, sorted by gain."""
    histograms = {}
    for name in corpus.category_names():
        values, _ = category_values(corpus, name, indicator)
        if values:
            histograms[name] = build_histogram(values, spec, alpha)
    matrix = np.array([hist.probabilities for hist in histograms.values()])
    gains = gains_against_reference(
        histograms[reference], list(histograms), matrix, reference_name=reference
    )
    return tuple(sorted(gains, key=lambda pair: pair[1]))


class TestRankingMatchesThePublicWrapper:
    """run_benchmark scores the category-by-bin matrix in one kernel call;
    its rankings equal, float for float, those built from histograms."""

    @pytest.mark.parametrize("bin_count", [20, MAX_BIN_COUNT])
    def test_synthetic_corpus(self, bin_count):
        corpus = make_synthetic_corpus(n_categories=40)
        for reference in ("Category 000", "Category 013", "Category 039"):
            request = BenchmarkRequest(reference=reference, bin_count=bin_count, alpha=0.5)
            for result in run_benchmark(corpus, request):
                spec = pooled_bin_spec(corpus, result.indicator, bin_count, request.scale)
                assert result.spec == spec
                assert result.ranking == public_ranking(
                    corpus, reference, result.indicator, spec, 0.5
                )

    def test_unsmoothed(self):
        corpus = loguniform_corpus()
        request = BenchmarkRequest(reference="C2", bin_count=7, alpha=0.0)
        for result in run_benchmark(corpus, request):
            assert result.ranking == public_ranking(corpus, "C2", result.indicator, result.spec, 0.0)

    def test_continuity_error_names_the_first_offending_candidate(self):
        # On 4 bins of [0, 3.6], A fills every bin, Top only the last and
        # Bottom only the first; Wide fills them all.
        groups = {"A": [0.5, 1.5, 2.5, 3.5], "Top": [3.1, 3.6], "Bottom": [0.2, 0.4],
                  "Wide": [0.6, 1.6, 2.6, 3.4]}
        corpus = Corpus(
            JournalRecord(f"{name}{i}", name, value, 0.01, 0.5)
            for name, values in groups.items()
            for i, value in enumerate(values)
        )
        request = BenchmarkRequest(
            reference="A", indicators=(Indicator.IMPACT_FACTOR,), bin_count=4, alpha=0.0
        )
        with pytest.raises(AbsoluteContinuityError) as ranked:
            run_benchmark(corpus, request)

        spec = pooled_bin_spec(corpus, Indicator.IMPACT_FACTOR, 4, "linear")
        names = sorted(groups)
        matrix = np.array([build_histogram(groups[name], spec).probabilities for name in names])
        with pytest.raises(AbsoluteContinuityError) as public:
            gains_against_reference(build_histogram(groups["A"], spec), names, matrix, "A")
        assert str(ranked.value) == str(public.value)
        assert str(ranked.value).startswith("candidate 'Bottom': ")
        assert ranked.value.bin_index == public.value.bin_index == 1


class TestTopK:
    def make_result(self, n_candidates=10):
        corpus = make_synthetic_corpus(
            n_categories=n_candidates + 1, clones=2, seed=1,
            journals_low=15, journals_high=25,
        )
        (result,) = run_benchmark(
            corpus,
            BenchmarkRequest(reference="Category 000", indicators=(Indicator.IMPACT_FACTOR,)),
        )
        return result

    def test_truncates_to_k(self):
        result = self.make_result(40)
        assert len(top_k(result, 30).ranking) == 30

    def test_truncation_cannot_pad(self):
        result = self.make_result(10)
        assert len(top_k(result, 30).ranking) == 10

    def test_k_one_keeps_most_similar(self):
        result = self.make_result(10)
        truncated = top_k(result, 1)
        assert truncated.ranking == result.ranking[:1]

    def test_monotone_k_prefix(self):
        result = self.make_result(20)
        for k1, k2 in [(1, 5), (5, 12), (3, 20)]:
            assert top_k(result, k2).ranking[:k1] == top_k(result, k1).ranking

    def test_k_below_one_rejected(self):
        result = self.make_result(5)
        with pytest.raises(InvalidInputError):
            top_k(result, 0)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, False, "2", None])
    def test_k_must_be_an_integer(self, k):
        result = self.make_result(5)
        message = rf"^k must be an integer, got {re.escape(repr(k))}$"
        with pytest.raises(InvalidInputError, match=message):
            top_k(result, k)
        assert top_k(result, np.int64(2)).ranking == result.ranking[:2]

    def test_other_fields_preserved(self):
        result = self.make_result(10)
        truncated = top_k(result, 3)
        assert truncated.reference == result.reference
        assert truncated.indicator == result.indicator
        assert truncated.spec == result.spec
        assert truncated.alpha == result.alpha


class TestCrossIndicatorSummary:
    def test_identical_rankings_have_full_appearance_counts(self, small_corpus):
        results = run_benchmark(small_corpus, BenchmarkRequest(reference="Biology"))
        # same candidates under every indicator here
        summary = cross_indicator_summary(results)
        assert all(row.appearances == 3 for row in summary.rows)

    def test_category_in_one_ranking_only(self):
        corpus = Corpus(
            [
                JournalRecord("a1", "A", 1.0, 0.01, 0.2),
                JournalRecord("a2", "A", 2.0, 0.02, 0.4),
                JournalRecord("b1", "B", 1.5, None, 0.3),  # no eigenfactor data
                JournalRecord("c1", "C", 2.5, 0.03, 0.5),
            ]
        )
        summary = cross_indicator_summary(
            run_benchmark(corpus, BenchmarkRequest(reference="A"))
        )
        by_name = {row.category: row for row in summary.rows}
        assert by_name["B"].appearances == 2
        assert by_name["B"].ranks["es"] is None
        assert by_name["C"].appearances == 3

    def test_disjoint_rankings_union_size(self):
        from heliobench.benchmark import BenchmarkResult
        from heliobench import BinSpec

        spec = BinSpec(0.0, 1.0, 4)
        k = 3
        results = [
            BenchmarkResult(
                reference="R",
                indicator=ind,
                spec=spec,
                alpha=0.5,
                ranking=tuple((f"{ind.code}-{i}", float(i)) for i in range(k)),
            )
            for ind in Indicator
        ]
        summary = cross_indicator_summary(results)
        assert len(summary.rows) == 3 * k
        assert all(row.appearances == 1 for row in summary.rows)

    def test_mixed_references_rejected(self, small_corpus):
        res_a = run_benchmark(
            small_corpus,
            BenchmarkRequest(reference="Biology", indicators=(Indicator.IMPACT_FACTOR,)),
        )
        res_b = run_benchmark(
            small_corpus,
            BenchmarkRequest(reference="Physics", indicators=(Indicator.EIGENFACTOR,)),
        )
        with pytest.raises(InvalidInputError):
            cross_indicator_summary(res_a + res_b)
        with pytest.raises(InvalidInputError, match="at least one benchmark result is required"):
            cross_indicator_summary([])

    def test_repeated_indicator_rejected(self, small_corpus):
        (result,) = run_benchmark(
            small_corpus,
            BenchmarkRequest(reference="Biology", indicators=(Indicator.IMPACT_FACTOR,)),
        )
        with pytest.raises(InvalidInputError):
            cross_indicator_summary([result, result])

    def test_csv_shape(self, small_corpus):
        summary = cross_indicator_summary(
            run_benchmark(small_corpus, BenchmarkRequest(reference="Biology"))
        )
        lines = summary.to_csv().splitlines()
        assert lines[0] == "category,appearances,rank_if,rank_es,rank_ii"
        assert len(lines) == 1 + len(summary.rows)

    def test_csv_rows_with_a_carriage_return_are_fully_quoted(self):
        # csv.writer leaves a lone carriage return unquoted on Python 3.11.
        result = BenchmarkResult(
            reference="A", indicator=Indicator.IMPACT_FACTOR, spec=BinSpec(0.0, 1.0, 4),
            alpha=0.5, ranking=(("B\rC", 0.5), ("D,E", 1.0)),
        )
        assert result.to_csv() == 'rank,category,gain\n"1","B\rC","0.5"\n2,"D,E",1.0\n'
        assert cross_indicator_summary([result]).to_csv() == (
            'category,appearances,rank_if\n"B\rC","1","1"\n"D,E",1,2\n'
        )


class TestRequestValidation:
    def test_reference_must_be_non_empty(self):
        with pytest.raises(InvalidInputError, match="reference category must be non-empty"):
            BenchmarkRequest(reference="")

    @pytest.mark.parametrize("reference", [["x"], 5, None, b"A", ("A",)])
    def test_reference_must_be_a_str(self, small_corpus, reference):
        # Not an unhashable-type TypeError from the corpus, nor an unknown category.
        message = rf"^reference category must be a str, got {re.escape(repr(reference))}$"
        with pytest.raises(InvalidInputError, match=message):
            run_benchmark(small_corpus, BenchmarkRequest(reference=reference))

    def test_a_numpy_alpha_is_kept_as_a_float_that_json_writes(self, small_corpus):
        request = BenchmarkRequest(reference="Biology", alpha=np.float32(0.5))
        assert type(request.alpha) is float
        for result in run_benchmark(small_corpus, request):
            spec = result.spec
            assert {type(x) for x in (result.alpha, spec.lower, spec.upper)} == {float}
            assert json.loads(json.dumps(top_k(result, 2).to_dict()))["alpha"] == 0.5

    def test_indicators_must_be_non_empty(self):
        with pytest.raises(InvalidInputError):
            BenchmarkRequest(reference="A", indicators=())

    @pytest.mark.parametrize("indicator", ["if", "impact_factor", None, 0])
    def test_indicators_must_be_indicator_members(self, indicator):
        message = rf"^indicators must be Indicator members, got {re.escape(repr(indicator))}$"
        with pytest.raises(InvalidInputError, match=message):
            BenchmarkRequest(reference="A", indicators=(Indicator.EIGENFACTOR, indicator))

    def test_indicators_of_any_iterable_are_kept_as_a_tuple(self):
        pair = (Indicator.IMPACT_FACTOR, Indicator.IMMEDIACY)
        request = BenchmarkRequest(reference="A", indicators=pair)
        for indicators in (list(pair), iter(pair), (i for i in pair)):
            same = BenchmarkRequest(reference="A", indicators=indicators)
            assert same.indicators == pair
            assert same == request
            assert hash(same) == hash(request)
        message = r"^indicators must be an iterable of Indicator members, got <Indicator\.IMMEDIACY"
        with pytest.raises(InvalidInputError, match=message):
            BenchmarkRequest(reference="A", indicators=Indicator.IMMEDIACY)

    def test_indicators_must_be_distinct(self):
        with pytest.raises(InvalidInputError):
            BenchmarkRequest(
                reference="A", indicators=(Indicator.IMPACT_FACTOR, Indicator.IMPACT_FACTOR)
            )

    def test_negative_alpha_rejected(self):
        with pytest.raises(InvalidInputError):
            BenchmarkRequest(reference="A", alpha=-0.1)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(InvalidInputError, match="finite"):
            BenchmarkRequest(reference="A", alpha=alpha)

    @pytest.mark.parametrize("alpha", ["0.5", None])
    def test_alpha_that_is_not_a_number_rejected(self, alpha):
        with pytest.raises(InvalidInputError, match=rf"^alpha must be a real number, got {alpha!r}"):
            BenchmarkRequest(reference="A", alpha=alpha)


class TestOneScaleDefault:
    def test_every_path_falls_back_to_default_scales(self, demo_csv_path):
        corpus = load_corpus(demo_csv_path)
        assert DEFAULT_SCALES[Indicator.EIGENFACTOR] == "log"
        for indicator in Indicator:
            assert pooled_bin_spec(corpus, indicator) == pooled_bin_spec(
                load_corpus(demo_csv_path), indicator, scale=DEFAULT_SCALES[indicator]
            )
        default = BenchmarkRequest(reference="Category 000")
        assert hash(default) == hash(BenchmarkRequest(reference="Category 000"))
        assert {r.indicator: r.spec.scale for r in run_benchmark(corpus, default)} == dict(
            DEFAULT_SCALES
        )
        linear = BenchmarkRequest(reference="Category 000", scale="linear")
        assert [r.spec for r in run_benchmark(corpus, linear)] == [
            pooled_bin_spec(load_corpus(demo_csv_path), indicator, scale="linear")
            for indicator in Indicator
        ]
        with pytest.raises(InvalidInputError, match="scale must be"):
            pooled_bin_spec(corpus, Indicator.IMPACT_FACTOR, scale="")


def _python_calls(op) -> int:
    """The number of Python function calls op makes, as a profile hook sees
    them; calls into C are not counted."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        op()
    finally:
        sys.setprofile(None)
    return calls


# Python calls that a warm op on 1,000 categories may make beyond one on the
# demo's 174. The op's Python work is per indicator and per map dot, and both
# are fixed, so any growth with the number of categories is per-candidate
# Python work in the ranking path.
CALLS_GROWTH_SLACK = 16


def test_python_calls_per_warm_op_do_not_grow_with_the_categories(demo_csv_path):
    def op(corpus):
        for result in run_benchmark(corpus, BenchmarkRequest(reference="Category 000")):
            render_svg(layout_map(top_k(result, 30)))

    counts = []
    for corpus in (load_corpus(demo_csv_path), make_synthetic_corpus(n_categories=1000, seed=1)):
        op(corpus)  # fills the binning memo
        counts.append(_python_calls(lambda: op(corpus)))
    demo, large = counts
    assert large - demo <= CALLS_GROWTH_SLACK, counts
