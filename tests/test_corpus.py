import csv
import json
import math
import pickle
import re
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heliobench.corpus
from heliobench import (
    BenchmarkRequest,
    BinSpec,
    CategoryNotFoundError,
    Corpus,
    CorpusFormatError,
    DuplicateRecordError,
    Indicator,
    InvalidInputError,
    JournalRecord,
    category_values,
    load_corpus,
    make_synthetic_corpus,
    parse_corpus,
    run_benchmark,
    serialize_corpus,
    validate_corpus,
)
from heliobench.errors import _as_real
from heliobench.histogram import category_probabilities, pooled_bin_spec

HEADER = "journal,category,impact_factor,eigenfactor,immediacy\n"


def test_each_indicator_has_its_column_code_and_label():
    assert [(ind.value, ind.code, ind.label) for ind in Indicator] == [
        ("impact_factor", "if", "Impact Factor"),
        ("eigenfactor", "es", "Eigenfactor Score"),
        ("immediacy", "ii", "Immediacy Index"),
    ]
    assert heliobench.corpus.CSV_COLUMNS == tuple(HEADER.strip().split(","))
    assert Indicator("impact_factor") is Indicator.IMPACT_FACTOR
    assert repr(Indicator.EIGENFACTOR) == "<Indicator.EIGENFACTOR: 'eigenfactor'>"
    assert pickle.loads(pickle.dumps(Indicator.IMMEDIACY)) is Indicator.IMMEDIACY


def test_synthetic_corpus_needs_clones_plus_two_categories():
    with pytest.raises(InvalidInputError, match="need at least clones \\+ 2 categories"):
        make_synthetic_corpus(n_categories=4, clones=3)


class TestParseCorpus:
    def test_three_valid_rows(self):
        corpus = parse_corpus(
            HEADER + "A,Cat1,1.0,0.1,0.2\nB,Cat1,2.0,0.2,0.3\nC,Cat2,3.0,0.3,0.4\n"
        )
        assert len(corpus) == 3
        assert corpus.category_names() == ["Cat1", "Cat2"]

    def test_empty_cell_becomes_missing(self):
        corpus = parse_corpus(HEADER + "A,Cat,,0.1,0.2\n")
        rec = corpus.records[0]
        assert rec.impact_factor is None
        assert rec.eigenfactor == 0.1
        assert rec.immediacy == 0.2

    def test_negative_indicator_names_line(self):
        with pytest.raises(CorpusFormatError, match="line 3") as exc_info:
            parse_corpus(HEADER + "A,Cat,1.0,0.1,0.2\nB,Cat,-1.2,0.1,0.2\n")
        assert exc_info.value.line == 3

    def test_non_numeric_indicator_names_line(self):
        with pytest.raises(CorpusFormatError, match="line 2"):
            parse_corpus(HEADER + "A,Cat,abc,0.1,0.2\n")

    def test_non_finite_indicator_rejected(self):
        with pytest.raises(CorpusFormatError, match="finite"):
            parse_corpus(HEADER + "A,Cat,inf,0.1,0.2\n")

    def test_wrong_column_count_names_line(self):
        with pytest.raises(CorpusFormatError, match="line 2.*columns"):
            parse_corpus(HEADER + "A,Cat,1.0,0.1\n")

    def test_duplicate_pair_rejected(self):
        with pytest.raises(DuplicateRecordError, match="line 3"):
            parse_corpus(HEADER + "A,Cat,1.0,0.1,0.2\nA,Cat,2.0,0.2,0.3\n")

    def test_same_journal_multiple_categories_allowed(self):
        corpus = parse_corpus(HEADER + "A,Cat1,1.0,0.1,0.2\nA,Cat2,1.0,0.1,0.2\n")
        assert len(corpus) == 2

    def test_empty_journal_cell_rejected(self):
        with pytest.raises(CorpusFormatError, match="journal"):
            parse_corpus(HEADER + ",Cat,1.0,0.1,0.2\n")

    def test_bad_header_rejected(self):
        with pytest.raises(CorpusFormatError, match="header"):
            parse_corpus("foo,bar\nA,Cat\n")

    def test_empty_input_rejected(self):
        with pytest.raises(CorpusFormatError, match="empty"):
            parse_corpus("")

    def test_direct_duplicate_construction_rejected(self):
        rec = JournalRecord("A", "Cat", 1.0, 0.1, 0.2)
        with pytest.raises(DuplicateRecordError):
            Corpus([rec, rec])

    @pytest.mark.parametrize(
        "fields, match",
        [
            (("A", "Cat", -1.0, 0.1, 0.2), "impact_factor .* finite and >= 0"),
            (("A", "Cat", 1.0, math.nan, 0.2), "eigenfactor .* finite and >= 0"),
            (("A", "Cat", 1.0, 0.1, math.inf), "immediacy .* finite and >= 0"),
            (("", "Cat", 1.0, 0.1, 0.2), "journal is empty"),
            (("A", "", 1.0, 0.1, 0.2), "category is empty"),
            (("A", "Cat", True, 0.1, 0.2), r"^impact_factor for \('A', 'Cat'\) must be a real"),
            (("A", "Cat", 1.0, 0.1, np.True_), "^immediacy .* must be a real number, got np.True_$"),
            (("A", "Cat", 1.0, "0.1", 0.2), "^eigenfactor .* must be a real number, got '0.1'$"),
            ((5, "Cat", 1.0, 0.1, 0.2), r"^journal for \(5, 'Cat'\) must be a str$"),
            (("A", None, 1.0, 0.1, 0.2), r"^category for \('A', None\) must be a str$"),
        ],
    )
    def test_direct_construction_checks_rows_like_the_parser(self, fields, match):
        with pytest.raises(CorpusFormatError, match=match):
            Corpus([JournalRecord("B", "Cat", 1.0, 0.1, 0.2), JournalRecord(*fields)])

    @pytest.mark.parametrize(
        "value",
        [True, np.True_, "0.5", Decimal("0.5"), Fraction(1, 2), np.float32(0.5)],
        ids=["True", "np.True_", "str", "Decimal", "Fraction", "np.float32"],
    )
    def test_the_row_check_and_as_real_agree_on_what_a_real_number_is(self, value):
        records = [JournalRecord("A", "Cat", value)]
        if isinstance(value, (Fraction, np.float32)):
            kept = Corpus(records).column(Indicator.IMPACT_FACTOR).tolist()
            assert kept == [_as_real(value, "impact_factor")] == [0.5]
            return
        refused = rf"must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(InvalidInputError, match=rf"^impact_factor {refused}"):
            _as_real(value, "impact_factor")
        with pytest.raises(CorpusFormatError, match=rf"^impact_factor for .* {refused}"):
            Corpus(records)


@pytest.mark.parametrize("indicator", ["if", None, ["if"]], ids=["str", "None", "list"])
def test_an_indicator_must_be_a_member_wherever_a_column_is_read(small_corpus, indicator):
    # Not a bare KeyError, or a TypeError for the unhashable list.
    spec = BinSpec(0.0, 10.0, 4)
    pooled_bin_spec(small_corpus, Indicator.IMPACT_FACTOR)  # a memo entry is kept
    message = rf"^indicators must be Indicator members, got {re.escape(repr(indicator))}$"
    for call in (
        lambda: small_corpus.column(indicator),
        lambda: category_values(small_corpus, "Biology", indicator),
        lambda: category_probabilities(small_corpus, indicator, spec, 0.5),
        lambda: pooled_bin_spec(small_corpus, indicator),
    ):
        with pytest.raises(InvalidInputError, match=message):
            call()


class TestCategoryValues:
    def test_missing_values_skipped_and_tallied(self, small_corpus):
        values, skipped = category_values(small_corpus, "Biology", Indicator.IMPACT_FACTOR)
        assert values == [2.0, 5.5]
        assert skipped == 1

    def test_unknown_category(self, small_corpus):
        with pytest.raises(CategoryNotFoundError):
            category_values(small_corpus, "Astrology", Indicator.IMPACT_FACTOR)

    def test_all_missing(self):
        corpus = parse_corpus(HEADER + "A,Cat,,0.1,0.2\nB,Cat,,0.2,0.3\n")
        values, skipped = category_values(corpus, "Cat", Indicator.IMPACT_FACTOR)
        assert values == []
        assert skipped == 2

    def test_values_in_input_order(self, small_corpus):
        values, _ = category_values(small_corpus, "Physics", Indicator.IMPACT_FACTOR)
        assert values == [8.0, 0.5, 4.0]
        # Over 16 interleaved rows per category: numpy's default argsort is
        # not stable past its insertion-sort cutoff.
        rows = [(f"J{i}", f"Cat{i % 3}", float(i)) for i in range(60)]
        corpus = parse_corpus(HEADER + "".join(f"{j},{c},{v},0.1,0.2\n" for j, c, v in rows))
        for name in ("Cat0", "Cat1", "Cat2"):
            expected = [(j, v) for j, c, v in rows if c == name]
            values, _ = category_values(corpus, name, Indicator.IMPACT_FACTOR)
            assert values == [v for _, v in expected]
            records = [r for r in corpus.records if r.category == name]
            assert [(r.journal, r.impact_factor) for r in records] == expected

    def test_pipeline_builds_no_records(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("JournalRecord built outside the record views")

        monkeypatch.setattr(heliobench.corpus, "JournalRecord", forbidden)
        corpus = parse_corpus(HEADER + "A,Cat1,1.0,0.1,0.2\nB,Cat1,,0.2,0.3\nC,Cat2,3.0,0.3,0.4\n")
        run_benchmark(corpus, BenchmarkRequest(reference="Cat1"))
        validate_corpus(corpus)
        serialize_corpus(corpus)
        with pytest.raises(AssertionError):
            corpus.records


class TestValidateCorpus:
    def test_under_populated_flagged(self):
        corpus = parse_corpus(
            HEADER + "A,Tiny,1.0,0.1,0.2\nB,Tiny,2.0,0.2,0.3\nC,Tiny,3.0,0.3,0.4\n"
        )
        report = validate_corpus(corpus, min_records=5)
        assert report.under_populated == ("Tiny",)
        assert report.records_per_category == {"Tiny": 3}

    def test_no_missing_values(self):
        corpus = parse_corpus(HEADER + "A,Cat,1.0,0.1,0.2\n")
        report = validate_corpus(corpus)
        assert report.missing_per_indicator == {
            "impact_factor": 0,
            "eigenfactor": 0,
            "immediacy": 0,
        }

    def test_demo_corpus_lists_174_categories(self, demo_csv_path):
        report = validate_corpus(load_corpus(demo_csv_path))
        assert report.category_count == 174
        assert len(report.records_per_category) == 174

    @pytest.mark.parametrize("min_records", [2.5, 5.0, True, "5", None])
    def test_min_records_must_be_an_integer(self, small_corpus, min_records):
        message = rf"^min_records must be an integer, got {re.escape(repr(min_records))}$"
        with pytest.raises(InvalidInputError, match=message):
            validate_corpus(small_corpus, min_records=min_records)
        report = validate_corpus(small_corpus, min_records=np.int64(5))
        assert type(report.min_records) is int
        assert json.loads(json.dumps(report.to_dict()))["min_records"] == 5

    def test_min_records_must_be_at_least_zero(self, small_corpus):
        for min_records in (-1, -3):
            message = rf"^min_records must be >= 0, got {min_records}$"
            with pytest.raises(InvalidInputError, match=message):
                validate_corpus(small_corpus, min_records=min_records)
        assert validate_corpus(small_corpus, min_records=0).under_populated == ()

    def test_report_is_json_friendly(self, small_corpus):
        report = validate_corpus(small_corpus)
        parsed = json.loads(json.dumps(report.to_dict()))
        assert parsed["record_count"] == len(small_corpus)


values_strategy = st.one_of(
    st.none(), st.floats(min_value=0, max_value=1e4, allow_nan=False, width=32)
)
records_strategy = st.lists(
    st.tuples(
        st.text(alphabet="abcdefg", min_size=1, max_size=4),
        st.sampled_from(["Cat A", "Cat B", "Cat C"]),
        values_strategy,
        values_strategy,
        values_strategy,
    ),
    min_size=1,
    max_size=30,
    unique_by=lambda t: (t[0], t[1]),
)


@given(records_strategy)
@settings(max_examples=100, deadline=None)
def test_serialize_parse_round_trip(raw):
    corpus = Corpus(JournalRecord(*t) for t in raw)
    assert parse_corpus(serialize_corpus(corpus)).records == corpus.records


@given(records_strategy, st.sampled_from(list(Indicator)))
@settings(max_examples=100, deadline=None)
def test_values_plus_skipped_equals_record_count(raw, indicator):
    corpus = Corpus(JournalRecord(*t) for t in raw)
    sizes = Counter(r.category for r in corpus.records)
    for cat in corpus.category_names():
        values, skipped = category_values(corpus, cat, indicator)
        assert len(values) + skipped == sizes[cat]


class TestRoundTrip:
    def test_name_the_parser_would_strip_is_rejected(self):
        for records in [
            [JournalRecord("j", "C", 1.0), JournalRecord("j ", "C", 2.0)],
            [JournalRecord("j", " C ", 1.0)],
            [JournalRecord("\x85", "C", 1.0)],
        ]:
            with pytest.raises(CorpusFormatError, match="starts or ends with whitespace"):
                Corpus(records)

    def test_name_with_a_lone_carriage_return_is_quoted(self):
        records = [JournalRecord("a\rb", "C", 1.0, None, 0.5), JournalRecord("j", "C\rD", 2.0)]
        text = serialize_corpus(Corpus(records))
        assert text.split("\n")[1:] == ['"a\rb","C","1.0","","0.5"', '"j","C\rD","2.0","",""', ""]
        assert parse_corpus(text).records == tuple(records)


names = st.text(st.characters(exclude_categories=("Cs",)), min_size=1)
numbers = st.one_of(st.none(), st.floats(min_value=0, max_value=1e300))


@given(st.lists(st.builds(JournalRecord, names, names, numbers, numbers, numbers), max_size=6))
@settings(max_examples=300, deadline=None)
def test_every_corpus_that_records_make_round_trips(records):
    try:
        corpus = Corpus(records)
    except CorpusFormatError:
        return
    if sys.version_info < (3, 11) and any("\0" in r.journal for r in records):
        # Python 3.10's csv module neither writes nor reads a NUL.
        with pytest.raises((csv.Error, CorpusFormatError)):
            parse_corpus(serialize_corpus(corpus))
        return
    assert parse_corpus(serialize_corpus(corpus)).records == tuple(records)
