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

parse_corpus reads the CSV body in blocks of lines. A block whose lines are
plain, with five fields, no quote or NUL, and no carriage return but one
before its line feed, is split with str.split. Any other block is read by a
csv.reader of its own, up to the end of the row its last line is part of,
so the next block starts on a row. Either way each block is checked column
by column; whether a (journal, category) pair repeats is checked once per
category after the last block. These checks only decide pass or fail. Every
error comes from the per-row checker that Corpus(records) uses, run over
every row read so far, so its message and line are those the first
offending row in the file gives on its own. A plain block's line numbers
are kept as one range, and a csv.reader block's as one array of its own;
they are expanded row by row only when a check fails.
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
from itertools import chain, count, islice, repeat
from numbers import Real
from operator import itemgetter
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    CategoryNotFoundError,
    CorpusFormatError,
    DuplicateRecordError,
    InvalidInputError,
    _as_int,
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


@dataclass(frozen=True)
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
        """Read-only values of one indicator per row, NaN where missing."""
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


# Rows that parse_corpus reads and checks together: enough to spread the
# per-block cost, few enough that a block's row lists add little to peak
# memory (16,384-row blocks raised it by 6 MiB on a 100k-row corpus).
_BLOCK_ROWS = 1024

# What XML 1.0 forbids in a document: C0 controls other than tab, line feed
# and carriage return, surrogates, U+FFFE and U+FFFF. A category name becomes
# text in an SVG map.
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _checked(rows: Iterable[tuple]) -> tuple[list, np.ndarray, list, list]:
    """Check (line or None, journal, category, *values) rows one at a time.

    Values are real numbers or None. Raises on the first bad row, with its
    line. A journal or category that is not a str is bad, and so is a value
    that is a bool or not a numbers.Real. A name with whitespace that
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
            if value is None:
                value = math.nan
            # A float is a Real; the ABC check alone costs about 0.5 us a value.
            elif not isinstance(value, float) and (
                isinstance(value, bool) or not isinstance(value, Real)
            ):
                raise CorpusFormatError(
                    f"{name} for {key!r} must be a real number, got {value!r}", line=line
                )
            elif not 0 <= value < math.inf:
                raise CorpusFormatError(
                    f"{name} for {key!r} must be finite and >= 0, got {value!r}", line=line
                )
            column.append(value)
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


def _plain(block: list[str]) -> list[list] | None:
    """The five columns of CSV lines that csv.reader splits exactly as
    str.split(","), or None when a line may be read otherwise.

    Such lines hold no quote or NUL, have five fields, end in a line feed or
    a carriage return and line feed (csv.reader ends a row at either) with
    no other carriage return, and are no longer than csv.field_size_limit(),
    so no field can be longer.
    """
    text = "".join(block)
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    limit = csv.field_size_limit()
    if (
        '"' in text
        or "\r" in text
        or "\0" in text
        or len(text) > limit and max(map(len, block)) > limit
    ):
        return None
    if not text.endswith("\n"):  # the last line of a file may have no line end
        text += "\n"
    if text.count("\n") != len(block):  # a line feed inside a line
        return None
    # Each line end becomes a cell of its own, so each line has five fields
    # when there are six cells a line and every sixth cell is a line end.
    width = len(CSV_COLUMNS) + 1
    cells = text.replace("\n", ",\n,").split(",")
    cells.pop()  # the empty one after the last line end
    if len(cells) != width * len(block) or cells[width - 1::width].count("\n") != len(block):
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
    row in file order.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    reader = csv.reader(stream)

    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise CorpusFormatError(str(exc), line=reader.line_num) from None
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
    lines = []  # a range or array("q") of each block's row lines, for fail

    def fail(rows: Iterable = ()) -> None:
        """Check every row read so far one at a time: the rows added, whose
        cells passed, then rows, whose line numbers are the last in lines.
        This raises the error of the first offending row in the file, if
        there is one."""
        names = list(code)
        numbers = chain.from_iterable(lines)
        _checked(chain(
            zip(
                islice(numbers, len(journals)),
                journals,
                map(names.__getitem__, chain.from_iterable(codes)),
                *[repeat(None)] * len(Indicator),
            ),
            _parsed(rows, numbers),
        ))

    offset = reader.line_num  # lines read so far
    while block := list(islice(stream, _BLOCK_ROWS)):
        cells = _plain(block)
        if cells is not None:
            rows = zip(*cells)
            lines.append(range(offset + 1, offset + len(block) + 1))
            offset += len(block)
        else:  # read up to the first row that ends on or past the block's last line
            reader, rows, block_lines = csv.reader(chain(block, stream)), [], array("q")
            lines.append(block_lines)
            try:
                for row in reader:
                    if row:  # blank lines come through as []
                        rows.append(row)
                        block_lines.append(offset + reader.line_num)
                    if reader.line_num >= len(block):
                        break
            except csv.Error as exc:
                fail(rows)  # the rows read before it come first
                raise CorpusFormatError(str(exc), line=offset + reader.line_num) from None
            offset += reader.line_num
            if not rows:
                continue
            if set(map(len, rows)) == {len(CSV_COLUMNS)}:
                cells = list(zip(*rows))
        checked = cells and _block(cells)
        if checked is None:  # raise the error of rows, whose lines are in lines
            fail(rows)
            raise AssertionError("rows that failed the column check passed the row check")
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
        raise AssertionError("a repeated (journal, category) pair passed the row check")
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
    cell was missing. Raises CategoryNotFoundError for an unknown category.
    """
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
