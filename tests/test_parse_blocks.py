"""parse_corpus reads rows in blocks and checks each block column by column;
a block that fails a check is parsed again one row at a time. These tests
hold the block path to the row-at-a-time path on random CSV text."""

import csv
import gc
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heliobench.corpus as corpus_module
from heliobench import (
    Corpus,
    CorpusFormatError,
    Indicator,
    JournalRecord,
    load_corpus,
    make_synthetic_corpus,
    parse_corpus,
    serialize_corpus,
    write_corpus_csv,
)
from heliobench.corpus import CSV_COLUMNS

# Fields longer than this make the csv module raise csv.Error mid-file.
FIELD_LIMIT = 24


def parse_row_by_row(text: str) -> Corpus:
    """Each row parsed and checked on its own, in file order."""
    reader = csv.reader(io.StringIO(text))
    next(reader)

    def rows():
        try:
            for row in filter(None, reader):
                yield from corpus_module._parsed([row], [reader.line_num])
        except csv.Error as exc:
            raise CorpusFormatError(str(exc), line=reader.line_num) from None

    return Corpus._from_rows(rows())


def outcome(parse, text: str):
    try:
        return parse(text)
    except CorpusFormatError as exc:
        return type(exc), str(exc), exc.line


def assert_same_corpus(got: Corpus, want: Corpus) -> None:
    for indicator in Indicator:
        assert np.array_equal(got.column(indicator), want.column(indicator), equal_nan=True)
        assert got.column(indicator).tobytes() == want.column(indicator).tobytes()
        assert got.column(indicator).dtype == np.float64
    assert np.array_equal(got.category_codes(), want.category_codes())
    assert got.category_codes().dtype == want.category_codes().dtype
    assert got._journals == want._journals
    assert got.category_names() == want.category_names()
    assert got._rows.keys() == want._rows.keys()
    assert all(np.array_equal(got._rows[name], want._rows[name]) for name in want._rows)


plain_names = st.one_of(
    st.sampled_from(["a", "b", 'q"uote', "com,ma", "new\nline", "\U0001d538"]),  # keys repeat
    st.text(
        st.characters(exclude_categories=("Cc", "Cs"), include_characters='\n\r\t",'),
        min_size=1,
        max_size=6,
    ),
)
odd_names = st.sampled_from(["", " ", " a ", "x\x01y", "\ufffe", "z" * (FIELD_LIMIT + 1)])
plain_cells = st.one_of(
    st.floats(min_value=0, max_value=1e6).map(repr),
    st.integers(min_value=0, max_value=10**6).map(str),
    st.just(""),
)
odd_cells = st.sampled_from(
    [" ", "nan", "NaN", "inf", "-1", "1_0", "abc", "-0.0", " 2.5 ", "1e400"]
)


@st.composite
def tables(draw):
    """Valid CSV rows, then up to three faults: an odd name or cell, a row of
    another length or a blank line, or a key repeated from a row above."""
    row = st.tuples(plain_names, plain_names, plain_cells, plain_cells, plain_cells)
    table = [list(r) for r in draw(st.lists(row, max_size=12))]
    for _ in range(draw(st.integers(0, 3)) if table else 0):
        i = draw(st.integers(0, len(table) - 1))
        fault = draw(st.sampled_from(["name", "cell", "shape", "repeat"]))
        if fault == "shape":
            table[i] = draw(st.lists(st.one_of(plain_cells, odd_cells), max_size=6))
        elif len(table[i]) != 5:
            continue
        elif fault == "name":
            table[i][draw(st.integers(0, 1))] = draw(odd_names)
        elif fault == "cell":
            table[i][draw(st.integers(2, 4))] = draw(odd_cells)
        elif i > 0:  # within three rows, so in the same block or an earlier one
            j = draw(st.integers(max(0, i - 3), i - 1))
            if len(table[j]) == 5:
                table[i][:2] = table[j][:2]
    return table


@given(tables(), st.integers(min_value=1, max_value=3))
@settings(max_examples=200, deadline=None)
def test_block_parse_matches_the_row_by_row_parse(table, block_rows):
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(table)
    text = out.getvalue()

    old_limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus_module, "_BLOCK_ROWS", block_rows)
            got = outcome(parse_corpus, text)
        want = outcome(parse_row_by_row, text)
    finally:
        csv.field_size_limit(old_limit)

    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert_same_corpus(got, want)


def test_blocks_of_a_large_file_match_the_row_by_row_parse(tmp_path):
    text = serialize_corpus(Corpus._from_rows(
        (None, f"j{i}", f"c{i % 7}", float(i), None if i % 5 else 0.5, i / 3) for i in range(5000)
    ))
    path = tmp_path / "large.csv"
    path.write_text(text, encoding="utf-8")
    assert_same_corpus(load_corpus(path), parse_row_by_row(text))


@pytest.mark.parametrize("block_rows", [1, 2, 1024])
def test_error_in_a_later_block_names_its_line(monkeypatch, block_rows):
    monkeypatch.setattr(corpus_module, "_BLOCK_ROWS", block_rows)
    text = "journal,category,impact_factor,eigenfactor,immediacy\n" + "".join(
        f"j{i},C,1.0,0.1,0.2\n" for i in range(2, 7)
    ) + "j2,C,1.0,0.1,0.2\n"
    with pytest.raises(CorpusFormatError) as exc_info:
        parse_corpus(text)
    assert exc_info.value.line == 7
    assert str(exc_info.value) == "line 7: duplicate (journal, category) pair: ('j2', 'C')"


def test_rows_read_before_a_csv_error_are_checked_first(monkeypatch):
    monkeypatch.setattr(corpus_module, "_BLOCK_ROWS", 1024)
    text = (
        "journal,category,impact_factor,eigenfactor,immediacy\n"
        "j1,C,1.0,0.1,0.2\nj2,C,-1.0,0.1,0.2\n" + f'"{"x" * 200_000}",C,1,1,1\n'
    )
    with pytest.raises(CorpusFormatError, match="line 3: impact_factor .* must be finite"):
        parse_corpus(text)
    with pytest.raises(CorpusFormatError, match="^line 4: field larger than field limit"):
        parse_corpus(text.replace("-1.0", "1.0"))


@pytest.mark.parametrize(
    "char", ["\x00", "\x08", "\x0b", "\x0c", "\x0e", "\x1f", "\ud800", "\ufffe", "\uffff"]
)
def test_category_with_a_character_xml_forbids_is_rejected(char):
    name = f"A{char}b"
    message = f"category {name!r} contains {char!r}, which XML 1.0 forbids"
    with pytest.raises(CorpusFormatError, match="^line 3: ") as exc_info:
        parse_corpus(
            "journal,category,impact_factor,eigenfactor,immediacy\n"
            f"j1,B,1.0,0.1,0.2\nj2,{name},1.0,0.1,0.2\n"
        )
    assert str(exc_info.value) == f"line 3: {message}"
    with pytest.raises(CorpusFormatError) as exc_info:
        Corpus([JournalRecord("j1", "B", 1.0), JournalRecord("j2", name, 1.0)])
    assert str(exc_info.value) == message


def test_category_with_characters_xml_allows_is_kept():
    names = ["tab\there", "line\nbreak", "del\x7f", "\ud7ff\ufffd", "\U0010ffff"]
    corpus = Corpus(JournalRecord(f"j{i}", name, 1.0) for i, name in enumerate(names))
    assert corpus.category_names() == sorted(names)


def numbered_rows(count: int, start: int = 0) -> str:
    """count valid CSV rows with distinct keys, journals j<start>..."""
    return "".join(
        f"j{i},C{i % 50},{i % 11}.5,0.{i % 7},{i % 3}\n" for i in range(start, start + count)
    )


HEADER = ",".join(CSV_COLUMNS) + "\n"
REPEAT = "j3,C3,1.0,0.1,0.2\n"  # the key of line 5
DUPLICATE = "duplicate (journal, category) pair: ('j3', 'C3')"
BAD_CELL = "x,C1,abc,0.1,0.2\n"
LONG_FIELD = f'"{"x" * 200_000}",C1,1,1,1\n'


@pytest.mark.parametrize("text, line, message", [
    pytest.param(HEADER + numbered_rows(5000) + REPEAT + numbered_rows(100, 6000),
                 5002, DUPLICATE, id="alone"),
    pytest.param(HEADER + numbered_rows(5000) + REPEAT + numbered_rows(100, 6000) + "j1,C1,1,1,1\n",
                 5002, DUPLICATE, id="before-a-repeat-in-an-earlier-named-category"),
    pytest.param(HEADER + numbered_rows(3000) + BAD_CELL + numbered_rows(2000, 3000) + REPEAT,
                 3002, "impact_factor is not a number: 'abc'", id="bad-cell-before"),
    pytest.param(HEADER + numbered_rows(5000) + REPEAT + numbered_rows(100, 6000) + BAD_CELL,
                 5002, DUPLICATE, id="bad-cell-after"),
    pytest.param(HEADER + numbered_rows(5000) + REPEAT + BAD_CELL,
                 5002, DUPLICATE, id="bad-cell-after-in-its-block"),
    pytest.param(HEADER + numbered_rows(5000) + REPEAT + numbered_rows(100, 6000) + LONG_FIELD,
                 5002, DUPLICATE, id="csv-error-after"),
    pytest.param(HEADER + numbered_rows(3000) + REPEAT + numbered_rows(2000, 3000) + LONG_FIELD,
                 3002, DUPLICATE, id="csv-error-blocks-after"),
])
def test_repeat_of_a_row_thousands_of_rows_earlier_is_named(text, line, message):
    with pytest.raises(CorpusFormatError) as exc_info:
        parse_corpus(text)
    assert (exc_info.value.line, str(exc_info.value)) == (line, f"line {line}: {message}")
    assert outcome(parse_corpus, text) == outcome(parse_row_by_row, text)


def test_parse_holds_less_in_flight_than_the_corpus_it_returns(tmp_path):
    # A key set of every row, or one category string per row, would hold
    # about twice what the returned corpus keeps.
    path = tmp_path / "corpus.csv"
    write_corpus_csv(make_synthetic_corpus(n_categories=200, seed=3), path)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        corpus = load_corpus(path)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(corpus) >= 20_000
    assert peak - after < after - before
