"""Ingestion and indexing of journal impact-indicator tables, and the package's
one CSV writer (_csv_text) and one reader of whole text files (_read_text).

The expected input is a UTF-8 CSV (a byte-order mark is allowed) with header

    journal,category,impact_factor,eigenfactor,immediacy

one row per (journal, category) pair, so a journal listed under several
categories has several rows. Empty indicator cells mean "value not
available" and are kept as missing, never coerced to zero. A Corpus stores
one float64 column per indicator (NaN = missing) and one sorted-category
code per row; rows are checked once, record views built lazily. Category
names are coded as they are read, each distinct name getting the next
integer the first time it is seen; the distinct names are sorted once at
the end and the codes remapped to sorted order in one array lookup.

parse_corpus reads the CSV body in chunks of characters, each finished with
readline() so that a block ends on a line end. A block whose lines are
plain, with five fields, no quote or NUL, and no carriage return but one
before its line feed, is split with str.split. Any other block is read
again from where it began, in lines as the stream splits them, by a
csv.reader of its own, up to the end of the row its last line is part of,
so the next block starts on a row. Either way each block is checked column
by column; whether a (journal, category) pair repeats is checked once per
category after the last block. These checks only decide pass or fail, so
no line numbers are kept. When one fails, the input is read again from
where parsing started, by one csv.reader, and each row goes through the
per-row checker that Corpus(records) uses, so the error's message and line
are those the first offending row in the file gives on its own.
"""

from __future__ import annotations

import csv
import enum
import io
import math
import re
import os
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count
from operator import itemgetter
from typing import IO, Iterable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

from .errors import (
    CategoryNotFoundError,
    CorpusFormatError,
    DuplicateRecordError,
    InvalidInputError,
    _as_int,
    _as_real,
)

DEFAULT_MIN_RECORDS = 5


class Indicator(enum.Enum):
    """The three per-journal prestige indicators handled by the package. The
    value is the CSV column, code the CLI code, label the name for people."""

    IMPACT_FACTOR = "impact_factor", "if", "Impact Factor"
    EIGENFACTOR = "eigenfactor", "es", "Eigenfactor Score"
    IMMEDIACY = "immediacy", "ii", "Immediacy Index"

    def __new__(cls, value: str, code: str, label: str) -> "Indicator":
        member = object.__new__(cls)
        member._value_, member.code, member.label = value, code, label
        return member


CSV_COLUMNS = ("journal", "category", *(indicator.value for indicator in Indicator))


@dataclass(frozen=True, slots=True)
class JournalRecord:
    """One journal's membership in one category plus its indicator values.

    Missing indicators are None. Present values are finite and >= 0.
    """

    journal: str
    category: str
    impact_factor: float | None = None
    eigenfactor: float | None = None
    immediacy: float | None = None


class Corpus:
    """Immutable journal table, stored by column and indexed by category."""

    def __init__(self, records: Iterable[JournalRecord]):
        self._finish(*_checked(
            (None, r.journal, r.category, r.impact_factor, r.eigenfactor, r.immediacy)
            for r in records
        ))

    def _finish(self, journals: list, codes: np.ndarray, names: list, columns: list) -> None:
        """Index checked rows: journals per row, each row's category as a
        code into names, which lists each name once in first-seen order,
        and one float64 column per indicator."""
        self._journals = tuple(journals)
        by_name = sorted(range(len(names)), key=names.__getitem__)
        self._names = tuple(names[i] for i in by_name)
        sorted_code = np.empty(len(names), np.intp)
        sorted_code[by_name] = np.arange(len(names))
        self._codes = sorted_code.take(codes)
        self._codes.flags.writeable = False
        self._columns = dict(zip(Indicator, columns))
        for column in self._columns.values():
            column.flags.writeable = False
        order = np.argsort(self._codes, kind="stable")
        ends = np.cumsum(np.bincount(self._codes, minlength=len(names))).tolist()
        self._rows = {
            name: order[start:end] for name, start, end in zip(self._names, [0, *ends], ends)
        }
        self._records = None
        # Indicator -> latest spec, kept by histogram.pooled_bin_spec, and ->
        # (spec, alpha, names, matrix), kept by category_probabilities. Entries
        # are replaced whole, never changed, so a reader sees a consistent one.
        self._specs: dict = {}
        self._matrices: dict = {}

    def column(self, indicator: Indicator) -> np.ndarray:
        """Read-only values of one indicator per row, NaN where missing.
        Raises InvalidInputError for anything but an Indicator member."""
        if not isinstance(indicator, Indicator):
            raise InvalidInputError(f"indicators must be Indicator members, got {indicator!r}")
        return self._columns[indicator]

    def category_codes(self) -> np.ndarray:
        """Read-only index into category_names() of each row's category."""
        return self._codes

    @property
    def records(self) -> tuple[JournalRecord, ...]:
        """Every row as a JournalRecord, in input order. Built on first access."""
        if self._records is None:
            self._records = tuple(JournalRecord(*row) for row in self._plain_rows())
        return self._records

    def category_names(self) -> list[str]:
        return list(self._names)

    def __len__(self) -> int:
        return len(self._journals)

    def __contains__(self, category: str) -> bool:
        return category in self._rows

    def _plain_rows(self) -> Iterator[tuple]:
        """(journal, category, *values) per row in input order, None where missing."""
        cells = [[None if math.isnan(v) else v for v in c.tolist()] for c in self._columns.values()]
        return zip(self._journals, [self._names[c] for c in self._codes.tolist()], *cells)


# Characters that parse_corpus reads and checks together, up to the end of a
# line: enough to spread the per-block cost, few enough that a block adds
# little to peak memory. A block of the 103k-row ladder-1000 corpus holds
# 775 rows, and its text, cells and checked columns about 0.3 MiB (0.6 MiB
# at 64 KiB). Past csv.field_size_limit() characters _plain measures lines.
_BLOCK_CHARS = 1 << 15

# What XML 1.0 forbids in a document: C0 controls other than tab, line feed
# and carriage return, surrogates, U+FFFE and U+FFFF. A category name becomes
# text in an SVG map.
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _checked(rows: Iterable[tuple]) -> tuple[list, np.ndarray, list, list]:
    """Check (line or None, journal, category, *values) rows one at a time.

    Values are real numbers or None. Raises on the first bad row, with its
    line. A journal or category that is not a str is bad, and so is a value
    that errors._as_real refuses, such as a bool or an int too large for a
    float, or one that is not finite and >= 0. A name with whitespace that
    str.strip() removes is bad, since the CSV parser would strip it. Returns
    journals, each row's category code, the category names in first-seen
    order, which the codes index, and one float64 column per indicator
    (NaN = missing).
    """
    journals, codes = [], array("q")
    code = defaultdict(count().__next__)
    columns = [array("d") for _ in Indicator]
    seen = set()
    for line, journal, category, *values in rows:
        key = (journal, category)
        if not (isinstance(journal, str) and isinstance(category, str)):
            field = "category" if isinstance(journal, str) else "journal"
            raise CorpusFormatError(f"{field} for {key!r} must be a str", line=line)
        if not journal:
            raise CorpusFormatError("journal is empty", line=line)
        if not category:
            raise CorpusFormatError("category is empty", line=line)
        if journal.strip() != journal or category.strip() != category:
            raise CorpusFormatError(
                f"journal {journal!r} or category {category!r} starts or ends with whitespace",
                line=line,
            )
        forbidden = _XML_FORBIDDEN.search(category)
        if forbidden:
            raise CorpusFormatError(
                f"category {category!r} contains {forbidden.group()!r}, which XML 1.0 forbids",
                line=line,
            )
        if key in seen:
            raise DuplicateRecordError(f"duplicate (journal, category) pair: {key!r}", line=line)
        seen.add(key)
        for name, value, column in zip(CSV_COLUMNS[2:], values, columns):
            try:
                real = math.nan if value is None else _as_real(value, name)
            except InvalidInputError:
                raise CorpusFormatError(
                    f"{name} for {key!r} must be a real number, got {value!r}", line=line
                ) from None
            if not (value is None or 0 <= real < math.inf):
                raise CorpusFormatError(
                    f"{name} for {key!r} must be finite and >= 0, got {value!r}", line=line
                )
            column.append(real)
        journals.append(journal)
        codes.append(code[category])
    return journals, np.array(codes, np.intp), list(code), [np.array(column) for column in columns]


def _parsed(rows: Iterable[list], lines: Iterable[int]) -> Iterator[tuple]:
    """(line, journal, category, *values) of each CSV row, parsed on its own."""
    for row, line in zip(rows, lines):
        if len(row) != len(CSV_COLUMNS):
            raise CorpusFormatError(
                f"expected {len(CSV_COLUMNS)} columns, got {len(row)}", line=line
            )
        values = []
        for name, cell in zip(CSV_COLUMNS[2:], row[2:]):
            cell = cell.strip()
            try:
                values.append(float(cell) if cell else None)
            except ValueError:
                raise CorpusFormatError(f"{name} is not a number: {cell!r}", line=line) from None
        yield line, row[0].strip(), row[1].strip(), *values


def _floats(texts: list | tuple) -> tuple[np.ndarray, int]:
    """float64 of indicator cells, NaN where a cell is empty or only
    whitespace, and the count of such cells; raises ValueError on a cell
    that float() rejects."""
    try:
        values = np.fromiter(map(float, [x or "nan" for x in texts]), np.float64, len(texts))
    except ValueError:  # float() strips, but rejects a cell that is only whitespace
        texts = [x.strip() for x in texts]
        values = np.fromiter(map(float, [x or "nan" for x in texts]), np.float64, len(texts))
    return values, texts.count("")


def _block(cells: list) -> tuple[list, list, list] | None:
    """The journals, categories and float64 columns of a non-empty block of
    rows, given as its five columns, checked column by column as
    _checked(_parsed(rows, lines)) checks them but for its key check; or
    None when the block fails a check or holds a cell that float() rejects,
    that is, exactly when _checked(_parsed(rows, lines)) would raise for
    rows with distinct keys.
    """
    journals, categories, *texts = cells
    journals = list(map(str.strip, journals))
    categories = list(map(str.strip, categories))
    try:
        columns = [_floats(column) for column in texts]
    except ValueError:
        return None
    # Only blank cells may be NaN: a column passes when every other cell
    # holds a value in [0, inf), so "nan" and "inf" fail.
    if (
        all(
            np.count_nonzero((column >= 0) & (column < math.inf)) == len(journals) - blank
            for column, blank in columns
        )
        and all(journals)
        and all(categories)
        and not _XML_FORBIDDEN.search("".join(set(categories)))
    ):
        return journals, categories, [column for column, _ in columns]
    return None


def _plain(text: str) -> list[list] | None:
    """The five columns of CSV lines that csv.reader splits exactly as
    str.split(","), or None when a line may be read otherwise.

    Such lines hold no quote or NUL, have five fields, end in a line feed or
    a carriage return and line feed (csv.reader ends a row at either) with
    no other carriage return, and are no longer than csv.field_size_limit(),
    so no field can be longer.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    limit = csv.field_size_limit()
    if (
        '"' in text
        or "\r" in text
        or "\0" in text
        or len(text) > limit and max(map(len, text.split("\n"))) > limit
    ):
        return None
    if not text.endswith("\n"):  # the last line of a file may have no line end
        text += "\n"
    # Each line end becomes a cell of its own, so each line has five fields
    # when there are six cells a line and every sixth cell is a line end.
    width, lines = len(CSV_COLUMNS) + 1, text.count("\n")
    cells = text.replace("\n", ",\n,").split(",")
    cells.pop()  # the empty one after the last line end
    if len(cells) != width * lines or cells[width - 1::width].count("\n") != lines:
        return None
    return [cells[k::width] for k in range(len(CSV_COLUMNS))]


def _repeats_a_pair(corpus: Corpus) -> bool:
    """Whether two rows have the same (journal, category) key, looking at one
    category's row group at a time."""
    journals = corpus._journals
    for rows in corpus._rows.values():
        if rows.size > 1:
            group = itemgetter(*rows.tolist())(journals)
            if len(set(group)) < len(group):
                return True
    return False


def parse_corpus(source: IO[str] | str) -> Corpus:
    """Parse a CSV stream (or literal CSV text) into a Corpus.

    Raises CorpusFormatError with the offending line number on a wrong
    column count, a non-numeric, non-finite or negative indicator cell, an
    empty journal/category cell, a category name with a character that
    XML 1.0 forbids, or a row the csv module cannot read (such as a field
    over csv.field_size_limit()); DuplicateRecordError on a repeated
    (journal, category) pair. The error is the one of the first offending
    row in file order, found by reading the input again from where the
    stream stood; lines are counted from there, the header being line 1.
    A stream that cannot tell its position, such as a pipe, is read whole
    into memory first.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    try:
        start = stream.tell()
    except OSError:  # a pipe, or a file the caller iterated with next()
        stream, start = io.StringIO(stream.read()), 0
    reader = csv.reader(iter(stream.readline, ""))  # next() would disable a file's tell()

    try:
        header = next(reader, None)
    except csv.Error as exc:  # line_num is 0 when the first line could not be read
        raise CorpusFormatError(str(exc), line=max(reader.line_num, 1)) from None
    if header is None:
        raise CorpusFormatError("empty input, expected a header row", line=1)
    if [h.strip() for h in header] != list(CSV_COLUMNS):
        raise CorpusFormatError(
            f"expected header {','.join(CSV_COLUMNS)!r}, got {','.join(header)!r}", line=1
        )

    journals = []
    codes = [np.empty(0, np.intp)]  # so that a header-only file concatenates
    code = defaultdict(count().__next__)  # category name -> first-seen code
    columns = [[np.empty(0)] for _ in Indicator]

    def fail() -> NoReturn:
        """Read the input again from start, one row at a time, and check
        each row as Corpus(records) does, raising the error of the first
        offending row in the file."""
        stream.seek(start)
        reader = csv.reader(stream)
        try:
            next(reader)  # the header
            _checked(_parsed(filter(None, reader), iter(lambda: reader.line_num, None)))
        except csv.Error as exc:
            raise CorpusFormatError(str(exc), line=reader.line_num) from None
        raise AssertionError("rows that failed the block check passed the row check")

    for at in iter(stream.tell, None):  # where each block starts
        # Read on to a line end, so that a CRLF the chunk cut in two is whole again.
        if not (text := stream.read(_BLOCK_CHARS) + stream.readline()):
            break
        cells = _plain(text)
        if cells is None:  # read up to the first row that ends on or past the block's last line
            stream.seek(at)  # in lines as the stream splits them, a lone CR ending one or not
            lines, block, size = iter(stream.readline, ""), [], 0
            while size < len(text):
                block.append(next(lines))
                size += len(block[-1])
            reader, rows = csv.reader(chain(block, lines)), []
            try:
                for row in reader:
                    if row:  # blank lines come through as []
                        rows.append(row)
                    if reader.line_num >= len(block):
                        break
            except csv.Error:
                fail()
            if not rows:
                continue
            if set(map(len, rows)) == {len(CSV_COLUMNS)}:
                cells = list(zip(*rows))
        checked = cells and _block(cells)
        if checked is None:
            fail()
        block_journals, block_categories, block_columns = checked
        journals.extend(block_journals)
        codes.append(
            np.fromiter(map(code.__getitem__, block_categories), np.intp, len(block_categories))
        )
        for parts, column in zip(columns, block_columns):
            parts.append(column)
    corpus = Corpus.__new__(Corpus)
    corpus._finish(
        journals, np.concatenate(codes), list(code), [np.concatenate(parts) for parts in columns]
    )
    if _repeats_a_pair(corpus):
        fail()
    return corpus


def load_corpus(path: str | os.PathLike) -> Corpus:
    """parse_corpus of a file; a file that is not UTF-8 is a CorpusFormatError."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        try:
            return parse_corpus(fh)
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(f"{exc}: {str(path)!r}") from None


def _read_text(path: str | os.PathLike) -> str:
    """Text of a UTF-8 file, BOM allowed, CRLF and CR read as LF; else a CorpusFormatError."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{exc}: {str(path)!r}") from None


def _csv_text(rows: Iterable[Sequence[str]]) -> str:
    """CSV text of rows, one line feed after each. Python 3.11's csv.writer
    quotes a line feed but not a lone carriage return, which csv.reader
    rejects unquoted, so a row with one in a cell has every field quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in rows:
        (quoted if any("\r" in cell for cell in row) else writer).writerow(row)
    return out.getvalue()


def serialize_corpus(corpus: Corpus) -> str:
    """Render a Corpus back to CSV text; parse(serialize(c)) == c."""
    return _csv_text(chain([CSV_COLUMNS], (
        [journal, category, *("" if v is None else repr(v) for v in values)]
        for journal, category, *values in corpus._plain_rows()
    )))


def write_corpus_csv(corpus: Corpus, path: str | os.PathLike) -> None:
    """Write serialize_corpus(corpus) to a UTF-8 file at path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_corpus(corpus))


def category_values(
    corpus: Corpus, category: str, indicator: Indicator
) -> tuple[list[float], int]:
    """All present values of an indicator for one category, in input order.

    Returns (values, skipped) where skipped counts records whose indicator
    cell was missing. Raises InvalidInputError for a category that is not a
    str and CategoryNotFoundError for an unknown one.
    """
    if not isinstance(category, str):
        raise InvalidInputError(f"category must be a str, got {category!r}")
    if category not in corpus:
        raise CategoryNotFoundError(category)
    column = corpus.column(indicator)[corpus._rows[category]]
    present = column[~np.isnan(column)]
    return present.tolist(), column.size - present.size


@dataclass(frozen=True)
class ValidationReport:
    """Summary statistics of a corpus, for the `validate` command."""

    record_count: int
    category_count: int
    records_per_category: Mapping[str, int]
    missing_per_indicator: Mapping[str, int]
    under_populated: tuple[str, ...]
    min_records: int

    def to_dict(self) -> dict:
        return {
            "record_count": self.record_count,
            "category_count": self.category_count,
            "records_per_category": dict(self.records_per_category),
            "missing_per_indicator": dict(self.missing_per_indicator),
            "under_populated": list(self.under_populated),
            "min_records": self.min_records,
        }


def validate_corpus(corpus: Corpus, min_records: int = DEFAULT_MIN_RECORDS) -> ValidationReport:
    """Report per-category sizes, missing-value counts and small categories.

    Report-only: never raises for under-populated categories. Raises
    InvalidInputError when min_records is not an integer >= 0.
    """
    min_records = _as_int(min_records, "min_records")
    if min_records < 0:
        raise InvalidInputError(f"min_records must be >= 0, got {min_records!r}")
    per_category = {name: rows.size for name, rows in corpus._rows.items()}
    missing = {ind.value: int(np.isnan(corpus.column(ind)).sum()) for ind in Indicator}
    under = tuple(cat for cat, n in per_category.items() if n < min_records)
    return ValidationReport(
        record_count=len(corpus),
        category_count=len(per_category),
        records_per_category=per_category,
        missing_per_indicator=missing,
        under_populated=under,
        min_records=min_records,
    )
