"""parse_corpus reads rows in blocks, chunks of characters finished on a line
end, and checks each block column by column; when a check fails, the input
is read again and checked one row at a time. These tests hold the block
path to the row-at-a-time path on random CSV text, with blocks cut at every
character of it."""

import csv
import gc
import io
import sys
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

# Chunk sizes that hypothesis draws: from one character, which ends every
# block on the next line end, to blocks of several lines, cut anywhere in
# one: inside a quoted field, between the CR and LF of a CRLF, before a
# lone CR, or in a last line with no line end.
BLOCK_CHARS_DRAWN = 120


def chunk_sizes(text: str) -> list[int]:
    """Chunk sizes that cut the first blocks of text at every character of
    their first 200, and the default size."""
    return [*range(1, min(len(text), 200) + 2), corpus_module._BLOCK_CHARS]


# The sizes of chunk_sizes in three bands: up to a numbered row's length, so
# that most blocks are one line; blocks of several lines, cut anywhere in the
# first 201 characters; and the size parse_corpus reads.
CHUNK_BANDS = [
    pytest.param(range(1, 20), id="chars-1-19"),
    pytest.param(range(20, 202), id="chars-20-201"),
    pytest.param((corpus_module._BLOCK_CHARS,), id="chars-default"),
]


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

    corpus = Corpus.__new__(Corpus)
    corpus._finish(*corpus_module._checked(rows()))
    return corpus


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


@given(tables(), st.integers(min_value=1, max_value=BLOCK_CHARS_DRAWN))
@settings(max_examples=200, deadline=None)
def test_block_parse_matches_the_row_by_row_parse(table, block_chars):
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(table)
    text = out.getvalue()

    old_limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus_module, "_BLOCK_CHARS", block_chars)
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
    text = serialize_corpus(Corpus(
        JournalRecord(f"j{i}", f"c{i % 7}", float(i), None if i % 5 else 0.5, i / 3)
        for i in range(5000)
    ))
    path = tmp_path / "large.csv"
    path.write_text(text, encoding="utf-8")
    assert_same_corpus(load_corpus(path), parse_row_by_row(text))


@pytest.mark.parametrize("sizes", CHUNK_BANDS)
def test_error_in_a_later_block_names_its_line(monkeypatch, sizes):
    text = "journal,category,impact_factor,eigenfactor,immediacy\n" + "".join(
        f"j{i},C,1.0,0.1,0.2\n" for i in range(2, 7)
    ) + "j2,C,1.0,0.1,0.2\n"
    for block_chars in sizes:
        monkeypatch.setattr(corpus_module, "_BLOCK_CHARS", block_chars)
        with pytest.raises(CorpusFormatError) as exc_info:
            parse_corpus(text)
        assert exc_info.value.line == 7
        assert str(exc_info.value) == "line 7: duplicate (journal, category) pair: ('j2', 'C')"


def test_rows_read_before_a_csv_error_are_checked_first():
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


class _Unseekable(io.BytesIO):
    """Bytes that can be read but not sought, as from a pipe."""

    def seekable(self):
        return False


def _from_a_pipe(path, text):
    return parse_corpus(io.TextIOWrapper(_Unseekable(text.encode()), "utf-8", newline=""))


def _from_a_file_with_a_bom(path, text):
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    return load_corpus(path)


def _after_a_preamble(advance):
    """Parse of a file whose first line, before the header, the caller read."""
    def parse(path, text):
        path.write_bytes(b"preamble\n" + text.encode())
        with open(path, encoding="utf-8", newline="") as fh:
            advance(fh)  # next() disables fh.tell(); readline() does not
            return parse_corpus(fh)
    return parse


@pytest.mark.parametrize("parse", [
    pytest.param(_from_a_pipe, id="pipe"),
    pytest.param(_from_a_file_with_a_bom, id="bom"),
    pytest.param(_after_a_preamble(next), id="after-next"),
    pytest.param(_after_a_preamble(io.TextIOWrapper.readline), id="after-readline"),
])
@pytest.mark.parametrize("text, line", [
    pytest.param(HEADER + numbered_rows(3000) + BAD_CELL + numbered_rows(2000, 3000), 3002,
                 id="bad-cell-in-a-later-block"),
    pytest.param(HEADER + numbered_rows(5000) + REPEAT, 5002, id="duplicate-on-the-last-line"),
    pytest.param(HEADER + numbered_rows(3000) + LONG_FIELD + numbered_rows(10, 3000), 3002,
                 id="field-over-the-limit"),
    pytest.param(HEADER + numbered_rows(3000), None, id="valid"),
])
def test_a_stream_gives_the_outcome_of_its_text_from_where_it_stood(tmp_path, parse, text, line):
    # The error of a failed parse comes from reading the stream again from
    # where it stood, or from a copy of it when it cannot be sought.
    got = outcome(lambda text: parse(tmp_path / "corpus.csv", text), text)
    want = outcome(parse_corpus, text)
    assert (want[2] if isinstance(want, tuple) else None) == line
    assert_same_outcome(got, want)


@pytest.mark.parametrize("header, message", [
    pytest.param(LONG_FIELD.replace("C1,1,1,1", ",".join(CSV_COLUMNS[1:])),
                 "field larger than field limit", id="field-over-limit"),
    pytest.param(HEADER.replace("category", "cat\regory"),
                 "new-line character seen in unquoted field", id="carriage-return"),
    # Python 3.10's csv.reader rejects a NUL; later ones read the header,
    # which is then not the expected one.
    pytest.param(HEADER.replace("journal", "jour\0nal"), "", id="nul"),
])
def test_header_that_csv_reader_cannot_read_names_line_1(header, message):
    with pytest.raises(CorpusFormatError) as exc_info:
        parse_corpus(header + numbered_rows(3))
    assert str(exc_info.value).startswith(f"line 1: {message}")


def test_header_that_csv_reader_reads_no_line_of_names_line_1():
    # csv.reader counts no line when it cannot read the first one.
    with pytest.raises(CorpusFormatError, match="^line 1: iterator should return strings"):
        parse_corpus(io.BytesIO(HEADER.encode()))


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


def _python_calls_per_1000_rows(text: str) -> float:
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        parse_corpus(text)
    finally:
        sys.setprofile(None)
    return 1000 * calls / (text.count("\n") - 1)


# Plain blocks cost about 31 Python calls per 1,024 rows on Python 3.11, and
# a parse a few dozen more; one call per row would add 1,000. Absolute counts
# differ across versions (PEP 709 inlines comprehensions from 3.12), so only
# the rate is bounded.
CALLS_PER_1000_PLAIN_ROWS = 40


def test_plain_rows_cost_a_bounded_number_of_python_calls(demo_csv_path):
    demo = demo_csv_path.read_text(encoding="utf-8")
    larger = serialize_corpus(make_synthetic_corpus(n_categories=300))
    assert len(larger) > len(demo)
    rates = [_python_calls_per_1000_rows(text) for text in (demo, larger)]
    assert max(rates) <= CALLS_PER_1000_PLAIN_ROWS
    assert rates[1] <= rates[0]  # the per-parse calls are spread over more rows


DEFAULT_FIELD_LIMIT = csv.field_size_limit()


def parse_in_chunks(text: str, block_chars: int, field_limit: int = DEFAULT_FIELD_LIMIT):
    """outcome of parse_corpus, in chunks of block_chars characters, under
    field_limit."""
    old_limit = csv.field_size_limit(field_limit)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus_module, "_BLOCK_CHARS", block_chars)
            return outcome(parse_corpus, text)
    finally:
        csv.field_size_limit(old_limit)


def parse_both(text: str, block_chars: int, field_limit: int):
    """outcome of parse_in_chunks and of parse_row_by_row, both under
    field_limit."""
    old_limit = csv.field_size_limit(field_limit)
    try:
        want = outcome(parse_row_by_row, text)
    finally:
        csv.field_size_limit(old_limit)
    return parse_in_chunks(text, block_chars, field_limit), want


def assert_same_outcome(got, want) -> None:
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert_same_corpus(got, want)


@given(
    tables(),
    st.integers(min_value=1, max_value=BLOCK_CHARS_DRAWN),
    st.sampled_from([FIELD_LIMIT, 10**6]),
)
@settings(max_examples=200, deadline=None)
def test_block_parse_of_lf_lines_matches_the_row_by_row_parse(table, block_chars, field_limit):
    # Line feeds alone, so that blocks without a quoted field are split by
    # str.split, and the first block with one goes to csv.reader.
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(table)
    assert_same_outcome(*parse_both(out.getvalue(), block_chars, field_limit))


@pytest.mark.parametrize("sizes", CHUNK_BANDS)
@pytest.mark.parametrize("tail", ["", REPEAT.replace("j3,C3", "j1,C1")], ids=["valid", "repeat"])
@pytest.mark.parametrize("odd", [
    pytest.param('q,"two\nlines",1,2,3\n', id="quoted-line-break"),
    pytest.param("\r\n", id="blank-crlf"),
    pytest.param("r\rx,C1,1,2,3\n", id="carriage-return"),
    pytest.param("\n", id="blank"),
    pytest.param("n\0ul,C1,1,2,3\n", id="nul"),
    pytest.param(f"{'x' * (DEFAULT_FIELD_LIMIT + 1)},C1,1,2,3\n", id="field-over-limit"),
    pytest.param(f"{'x' * (DEFAULT_FIELD_LIMIT - 9)},{'y' * 20},1,2,3\n", id="line-over-limit"),
    pytest.param("a,C1,1\n", id="three-fields"),
    pytest.param("a,C1,1,2,3,4\n", id="six-fields"),
])
def test_first_block_that_is_not_plain_goes_to_csv_reader(odd, tail, sizes):
    text = HEADER + numbered_rows(4) + "k,C2,1,1,1\n" + odd + numbered_rows(3, 100) + tail
    want = outcome(parse_row_by_row, text)
    for block_chars in sizes:
        assert_same_outcome(parse_in_chunks(text, block_chars), want)


@pytest.mark.parametrize("text", [
    pytest.param(HEADER + numbered_rows(7), id="plain"),
    pytest.param(HEADER + numbered_rows(7).rstrip("\n"), id="no-final-line-end"),
    pytest.param((HEADER + numbered_rows(7)).replace("\n", "\r\n"), id="crlf"),
    pytest.param(HEADER + numbered_rows(4) + '"q",C1,1,2,3\n' + numbered_rows(3, 100),
                 id="quoted"),
    pytest.param(HEADER + numbered_rows(5) + "\n" + REPEAT, id="blank-then-repeat"),
    pytest.param('"journal\n"' + HEADER[7:] + numbered_rows(5) + REPEAT,
                 id="header-over-two-lines"),
])
def test_load_corpus_reads_a_file_as_parse_corpus_reads_its_text(monkeypatch, tmp_path, text):
    # csv.reader reads the header from the open file, then its chunks are
    # read from the same stream.
    path = tmp_path / "corpus.csv"
    path.write_bytes(text.encode("utf-8"))
    want = outcome(parse_row_by_row, text)
    for block_chars in chunk_sizes(text):
        monkeypatch.setattr(corpus_module, "_BLOCK_CHARS", block_chars)
        assert_same_outcome(outcome(load_corpus, path), want)
        assert_same_outcome(outcome(parse_corpus, text), want)


def test_a_lone_carriage_return_ends_a_line_of_a_file_but_not_of_text(monkeypatch, tmp_path):
    # load_corpus opens its file with newline="", which ends a line at a
    # lone CR; the io.StringIO of a string ends one only at a LF, so there
    # csv.reader meets the CR inside an unquoted field. A block that _plain
    # refuses is split into lines by its own stream, so each keeps its rule
    # wherever a chunk ends.
    text = HEADER + "a,C1,1,2,3\rb,C1,1,2,3\n"
    path = tmp_path / "corpus.csv"
    path.write_bytes(text.encode("utf-8"))
    for block_chars in chunk_sizes(text):
        monkeypatch.setattr(corpus_module, "_BLOCK_CHARS", block_chars)
        with pytest.raises(CorpusFormatError) as exc_info:
            parse_corpus(text)
        assert str(exc_info.value).startswith("line 2: new-line character seen in unquoted field")
        assert [(r.journal, r.category) for r in load_corpus(path).records] == [
            ("a", "C1"), ("b", "C1"),
        ]


@pytest.mark.parametrize("rows", [0, 2, 4])
def test_no_empty_final_block_is_checked(monkeypatch, rows):
    # A file whose rows fill whole blocks ends in no empty block, which
    # would be checked row by row together with every row before it.
    calls = []
    checked = corpus_module._checked
    monkeypatch.setattr(
        corpus_module, "_checked", lambda *args: calls.append(args) or checked(*args)
    )
    text = HEADER + numbered_rows(rows)
    for text in [text, text.replace("\n", "\r\n")]:
        for block_chars in chunk_sizes(text):
            monkeypatch.setattr(corpus_module, "_BLOCK_CHARS", block_chars)
            corpus = parse_corpus(text)
            assert len(corpus) == rows
            assert all(corpus.column(indicator).dtype == np.float64 for indicator in Indicator)
    assert calls == []


def test_whitespace_only_cells_are_missing_and_checked_by_column(monkeypatch):
    text = HEADER + numbered_rows(3000) + "".join(f"m{i},C{i},,1,\n" for i in range(100))
    blank = text.replace(",,", ", ,").replace(",\n", ",\t \n")
    assert blank.count(", ,") == 100 and blank.count(",\t \n") == 100
    calls = []
    monkeypatch.setattr(corpus_module, "_checked", lambda *args: calls.append(args))
    want = parse_corpus(text)
    assert_same_corpus(parse_corpus(blank), want)
    assert_same_corpus(parse_corpus(blank.replace("\n", "\r\n")), want)
    assert calls == []
    assert np.isnan(want.column(Indicator.IMPACT_FACTOR)[-100:]).all()


@pytest.mark.parametrize("end", ["\n", ""], ids=["line-end", "no-final-line-end"])
def test_plain_lines_after_the_header_are_not_read_by_csv_reader(monkeypatch, end):
    read = []
    reader = csv.reader
    monkeypatch.setattr(
        csv, "reader", lambda lines: reader(map(lambda x: read.append(x) or x, lines))
    )
    text = HEADER + numbered_rows(5).rstrip("\n") + end
    for block_chars in chunk_sizes(text):
        monkeypatch.setattr(corpus_module, "_BLOCK_CHARS", block_chars)
        read.clear()
        assert len(parse_corpus(text)) == 5
        assert read == [HEADER]


SPANNING = 'b,"C\n2",1,2,3\n'  # one record over two lines


@pytest.mark.parametrize("body, seen, rows", [
    pytest.param('"q",C1,1,2,3\n' + numbered_rows(1) + SPANNING + numbered_rows(3, 100), 4, 6,
                 id="record-over-a-whole-block"),
    pytest.param('"q",C1,1,2,3\n' + SPANNING + numbered_rows(3, 100), 3, 5,
                 id="record-from-a-block-end-into-the-next"),
])
def test_plain_blocks_after_a_quoted_one_are_not_read_by_csv_reader(monkeypatch, body, seen, rows):
    # Each block that is not plain gets a csv.reader of its own, which reads
    # on past the block's end only to finish a record; the next block is
    # split again. A chunk of 13 characters, finished with readline(), makes
    # a block of the quoted line and the next, of SPANNING whole when it
    # comes next, and of each numbered row on its own.
    text = HEADER + body
    want = parse_row_by_row(text)
    monkeypatch.setattr(corpus_module, "_BLOCK_CHARS", 13)
    read = []
    reader = csv.reader
    monkeypatch.setattr(
        csv, "reader", lambda lines: reader(map(lambda x: read.append(x) or x, lines))
    )
    corpus = parse_corpus(text)
    assert read == text.splitlines(keepends=True)[:1 + seen]
    assert len(corpus) == rows
    assert_same_corpus(corpus, want)


@pytest.mark.parametrize("sizes", CHUNK_BANDS)
@pytest.mark.parametrize("odd", [
    pytest.param("a,C1,1,2,3,x,b,C2,4,5,6\n", id="eleven-fields"),
    pytest.param(",".join(f"f{i}" for i in range(17)) + "\n", id="seventeen-fields"),
])
def test_line_whose_sixth_field_sits_where_a_line_end_would_is_not_split(odd, sizes):
    # Eleven fields split as two five-field rows around the sixth, were the
    # cells after each line end not counted.
    text = HEADER + numbered_rows(4) + odd + numbered_rows(3, 100)
    want = outcome(parse_row_by_row, text)
    assert want[:2] == (CorpusFormatError, f"line 6: expected 5 columns, got {odd.count(',') + 1}")
    for block_chars in sizes:
        assert parse_in_chunks(text, block_chars) == want


@pytest.mark.parametrize("text", [
    pytest.param((HEADER + numbered_rows(5)).replace("\n", "\r\n"), id="crlf"),
    pytest.param(HEADER + numbered_rows(5).replace("\n", "\r\n", 2), id="crlf-and-lf"),
    pytest.param(HEADER + (numbered_rows(5) + REPEAT).replace("\n", "\r\n"), id="repeat"),
])
def test_lines_ending_in_crlf_are_split_as_plain_lines(monkeypatch, text):
    # Also where a chunk ends between the CR and the LF: readline() then
    # finishes the block with the LF.
    want = outcome(parse_row_by_row, text)
    read = []
    reader = csv.reader
    monkeypatch.setattr(
        csv, "reader", lambda lines: reader(map(lambda x: read.append(x) or x, lines))
    )
    lines = text.splitlines(keepends=True)
    for block_chars in chunk_sizes(text):
        monkeypatch.setattr(corpus_module, "_BLOCK_CHARS", block_chars)
        read.clear()
        assert_same_outcome(outcome(parse_corpus, text), want)
        # Only the header is read by csv.reader, unless the parse fails: then
        # the whole input is read once more to find the first bad row.
        assert read == lines[:1] + (lines if isinstance(want, tuple) else [])


# An eleven-field line and two short ones: fifteen fields in all.
BALANCED = "a,C1,1,2,3,x,b,C2,4,5,6\np,q\n7,8\n"


@pytest.mark.parametrize("text", [
    pytest.param("a,C1,1,2,3\r", id="carriage-return-line-end"),
    pytest.param("a,C1,1,2,3\r\r\n", id="carriage-return-before-crlf"),
    pytest.param("a,C1,1,2,3,x,b,C2,4,5,6\n", id="eleven-fields"),
    pytest.param(BALANCED, id="eleven-fields-balanced-by-short-lines"),
    pytest.param("jour\0nal,C1,1,2,3\n", id="nul"),  # Python 3.10's csv.reader rejects it
])
def test_lines_that_csv_reader_may_read_otherwise_are_not_plain(text):
    assert corpus_module._plain(text) is None


def test_short_lines_that_balance_a_long_one_in_its_block_are_not_split():
    # Fifteen fields over three lines, as many as three five-field rows, but
    # a line end falls where a field would.
    text = HEADER + BALANCED
    want = outcome(parse_row_by_row, text)
    assert want[:2] == (CorpusFormatError, "line 2: expected 5 columns, got 11")
    for block_chars in chunk_sizes(text):
        assert parse_in_chunks(text, block_chars) == want


@given(st.lists(
    st.lists(st.one_of(plain_names, odd_names, plain_cells, odd_cells, st.text()),
             min_size=5, max_size=5),
    min_size=1,
    max_size=6,
    unique_by=lambda row: (row[0].strip(), row[1].strip()),
))
@settings(max_examples=500, deadline=None)
def test_column_check_refuses_exactly_the_rows_the_row_check_rejects(rows):
    # parse_corpus relies on this: a block that _block refuses always makes
    # the row check raise, which then names the offending row.
    try:
        corpus_module._checked(corpus_module._parsed(rows, range(2, len(rows) + 2)))
    except CorpusFormatError:
        rejected = True
    else:
        rejected = False
    assert (corpus_module._block(list(zip(*rows))) is None) == rejected


def test_codes_index_sorted_names_whatever_order_the_names_are_first_seen_in(
    monkeypatch, tmp_path
):
    # Rows name b, a, c, b, a; a block holding the quoted row is read by
    # csv.reader, the others are split as plain lines.
    text = HEADER + 'j0,b,1,1,1\nj1,a,2,2,2\n"j2","c","3","3","3"\nj3,b,4,4,4\nj4,a,5,5,5\n'
    path = tmp_path / "corpus.csv"
    path.write_text(text, encoding="utf-8")
    records = [
        JournalRecord(f"j{i}", name, i + 1.0, i + 1.0, i + 1.0) for i, name in enumerate("bacba")
    ]
    parsed = []
    for block_chars in chunk_sizes(text):
        monkeypatch.setattr(corpus_module, "_BLOCK_CHARS", block_chars)
        parsed += [parse_corpus(text), load_corpus(path)]
    for corpus in [*parsed, Corpus(records)]:
        assert corpus.category_names() == ["a", "b", "c"]
        assert corpus.category_codes().tolist() == [1, 0, 2, 1, 0]
        assert {name: rows.tolist() for name, rows in corpus._rows.items()} == {
            "a": [1, 4], "b": [0, 3], "c": [2],
        }
        assert list(corpus._rows) == ["a", "b", "c"]
        assert corpus_module.category_values(corpus, "a", Indicator.IMPACT_FACTOR) == ([2.0, 5.0], 0)
        assert corpus_module.category_values(corpus, "b", Indicator.EIGENFACTOR) == ([1.0, 4.0], 0)
        assert [r.category for r in corpus.records] == list("bacba")
    # A failed parse names the line of the first bad row.
    with pytest.raises(CorpusFormatError) as exc_info:
        parse_corpus(text + "j1,a,6,6,6\n")
    assert str(exc_info.value) == "line 7: duplicate (journal, category) pair: ('j1', 'a')"
