"""Output checks of the heliobench benchmark.

Every check returns a list of failure messages, each starting with a tag
such as "[sorted]"; an empty list means the output is correct. What a check
compares against comes from `Oracle`: counts and the categories that have
values, from the benchmark's own CSV parse, and per-category probability
vectors built once through the program's public API (`pooled_bin_spec`,
`build_histogram`, `Histogram.probabilities`) with the CLI defaults, from
which the benchmark computes gains itself with `math.fsum`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
import xml.etree.ElementTree as ET

GAIN_TOL = 1e-12
PROB_TOL = 1e-12
CODES = {"if": "impact_factor", "es": "eigenfactor", "ii": "immediacy"}
ALL_CODES = tuple(CODES)
# The synthetic corpora draw categories 001..005 from category 000's distribution.
CLONE_REFERENCE = "Category 000"
CLONES = tuple(f"Category {i:03d}" for i in range(1, 6))
CSV_HEADER = ["rank", "category", "gain"]
MIN_RECORDS = 5  # the validate command's default


def slug(name: str) -> str:
    """The CLI's output file naming, as documented by its file names."""
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-") or "unnamed"


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def parse_json_docs(text: str) -> list:
    """Consecutive JSON documents, as the CLI prints one per indicator.
    NaN and Infinity are rejected."""
    docs, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return docs
        doc, pos = _DECODER.raw_decode(text, pos)
        docs.append(doc)


def kl(p, q) -> float:
    return math.fsum(pi * math.log(pi / qi) for pi, qi in zip(p, q) if pi > 0)


class Oracle:
    """Facts about one corpus file that the checks compare outputs with."""

    def __init__(self, csv_path):
        self.rows = 0
        self.per_category: dict[str, int] = {}
        self.missing = {column: 0 for column in CODES.values()}
        self.with_values = {code: set() for code in CODES}
        with open(csv_path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            columns = {name: i for i, name in enumerate(header)}
            for row in reader:
                if not row:
                    continue
                category = row[1].strip()
                self.rows += 1
                self.per_category[category] = self.per_category.get(category, 0) + 1
                for code, column in CODES.items():
                    if row[columns[column]].strip():
                        self.with_values[code].add(category)
                    else:
                        self.missing[column] += 1
        self.probabilities: dict[str, dict[str, tuple]] = {}

    def attach_histograms(self, hb, corpus) -> None:
        """Build every category's probability vector with the CLI defaults."""
        from heliobench.benchmark import DEFAULT_ALPHA, DEFAULT_BIN_COUNT, DEFAULT_SCALES

        for indicator in hb.Indicator:
            code = indicator.code
            spec = hb.pooled_bin_spec(corpus, indicator, DEFAULT_BIN_COUNT,
                                      DEFAULT_SCALES[indicator])
            probs = {}
            for category in self.with_values[code]:
                values, _ = hb.category_values(corpus, category, indicator)
                hist = hb.build_histogram(values, spec, DEFAULT_ALPHA)
                probs[category] = tuple(float(p) for p in hist.probabilities)
            self.probabilities[code] = probs

    def candidates(self, reference: str, code: str) -> set:
        return self.with_values[code] - {reference}

    def gain(self, reference: str, candidate: str, code: str) -> float:
        probs = self.probabilities[code]
        return kl(probs[reference], probs[candidate])


def check_ranking(oracle: Oracle, reference: str, code: str, ranking, k: int | None) -> list:
    """ranking: (category, gain) pairs. k None means the full ranking."""
    problems = []
    names = [name for name, _ in ranking]
    gains = [gain for _, gain in ranking]
    if not all(isinstance(g, float) and math.isfinite(g) for g in gains):
        return [f"[finite] {reference}/{code}: non-finite or non-float gain"]
    keys = [(gain, name) for name, gain in ranking]
    if any(a > b for a, b in zip(keys, keys[1:])):
        problems.append(f"[sorted] {reference}/{code}: not sorted by (gain, name)")
    expected = oracle.candidates(reference, code)
    if len(set(names)) != len(names) or not set(names) <= expected:
        problems.append(f"[coverage] {reference}/{code}: duplicate, self or unknown category")
    want = len(expected) if k is None else min(k, len(expected))
    if len(names) != want:
        problems.append(f"[coverage] {reference}/{code}: {len(names)} entries, expected {want}")
    if problems:
        return problems

    # Gains of a fixed sample of pairs against the benchmark's own KL.
    for pos in sorted({0, 1, len(names) // 2, len(names) - 1} & set(range(len(names)))):
        want_gain = oracle.gain(reference, names[pos], code)
        if abs(gains[pos] - want_gain) > GAIN_TOL:
            problems.append(f"[gain] {reference}/{code}/{names[pos]}: {gains[pos]!r} "
                            f"vs direct KL {want_gain!r}")
    # A truncated ranking must hold the smallest gains.
    for name in sorted(expected - set(names)):
        if oracle.gain(reference, name, code) < gains[-1] - GAIN_TOL:
            problems.append(f"[topk] {reference}/{code}: {name} left out but more similar")
            break
    if reference == CLONE_REFERENCE and code == "if" and not set(CLONES) <= set(names[:10]):
        problems.append(f"[clones] {reference}/if: categories 001-005 not all in the top 10")
    return problems


def parse_bench_output(fmt: str, codes, text: str) -> list:
    """stdout of `bench` as (indicator code, [(category, gain), ...]) per indicator.

    Raises ValueError with a tagged message when the output is malformed.
    """
    if fmt == "json":
        try:
            docs = parse_json_docs(text)
        except ValueError as exc:
            raise ValueError(f"[json] bench output does not parse: {exc}") from None
        if [d.get("indicator") for d in docs] != list(codes):
            raise ValueError(f"[json] indicators {[d.get('indicator') for d in docs]}, "
                             f"expected {list(codes)}")
        tables = []
        for doc in docs:
            entries = doc["ranking"]
            if [e["rank"] for e in entries] != list(range(1, len(entries) + 1)):
                raise ValueError(f"[json] {doc['indicator']}: ranks are not 1..n")
            tables.append((doc["indicator"], [(e["category"], e["gain"]) for e in entries]))
        return tables

    lines = text.splitlines()
    if not lines or next(csv.reader([lines[0]])) != CSV_HEADER:
        raise ValueError("[csv] output does not start with the rank,category,gain header")
    rows_per_table = []
    for row in csv.reader(lines):
        if row == CSV_HEADER:
            rows_per_table.append([])
        else:
            rows_per_table[-1].append(row)
    if len(rows_per_table) != len(codes):
        raise ValueError(f"[csv] {len(rows_per_table)} tables, expected {len(codes)}")
    tables = []
    for code, rows in zip(codes, rows_per_table):
        try:
            ranks = [int(row[0]) for row in rows]
            ranking = [(row[1], float(row[2])) for row in rows]
        except (IndexError, ValueError) as exc:
            raise ValueError(f"[csv] {code}: malformed row: {exc}") from None
        if ranks != list(range(1, len(rows) + 1)):
            raise ValueError(f"[csv] {code}: ranks are not 1..n")
        tables.append((code, ranking))
    return tables


def check_bench_output(oracle: Oracle, reference: str, codes, fmt: str, k: int, text: str) -> list:
    """stdout of `bench`: one JSON document or CSV table per indicator."""
    try:
        tables = parse_bench_output(fmt, codes, text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    for code, ranking in tables:
        problems += check_ranking(oracle, reference, code, ranking, k)
    return problems


def check_svg(oracle: Oracle, reference: str, code: str, k: int, svg) -> list:
    try:
        dots = sum(1 for e in ET.fromstring(svg).iter() if e.get("class") == "dot")
    except ET.ParseError as exc:
        return [f"[svg] {reference}/{code}: not well-formed: {exc}"]
    want = min(k, len(oracle.candidates(reference, code)))
    if dots != want:
        return [f"[svg] {reference}/{code}: {dots} dots, expected {want}"]
    return []


def check_map_output(oracle: Oracle, reference: str, codes, k: int, files: dict) -> list:
    """files: name -> bytes written by `map --out`."""
    expected = {f"map_{slug(reference)}_{code}.svg": code for code in codes}
    if set(files) != set(expected):
        return [f"[map] wrote {sorted(files)}, expected {sorted(expected)}"]
    problems = []
    for name, code in expected.items():
        problems += check_svg(oracle, reference, code, k, files[name])
    return problems


def check_hist_output(oracle: Oracle, bins: int, files: dict) -> list:
    """files: name -> bytes written by `hist --out` for all categories and indicators."""
    want = len(oracle.per_category) * len(CODES)
    if len(files) != want:
        return [f"[hist] {len(files)} files, expected {want}"]
    seen = set()
    for name, data in sorted(files.items()):
        try:
            doc = _DECODER.decode(data.decode("utf-8"))
        except ValueError as exc:
            return [f"[hist] {name} does not parse: {exc}"]
        probs = doc["probabilities"]
        seen.add((doc["category"], doc["indicator"]))
        if len(probs) != bins or abs(math.fsum(probs) - 1.0) > PROB_TOL:
            return [f"[hist] {name}: probabilities do not sum to 1 over {bins} bins"]
        if sum(doc["counts"]) != doc["sample_count"] or (
                doc["sample_count"] + doc["skipped"] != oracle.per_category.get(doc["category"])):
            return [f"[hist] {name}: counts do not match the category's records"]
    if seen != {(cat, code) for cat in oracle.per_category for code in CODES}:
        return ["[hist] (category, indicator) pairs do not cover the corpus"]
    return []


def check_validate_output(oracle: Oracle, text: str) -> list:
    try:
        (doc,) = parse_json_docs(text)
    except ValueError as exc:
        return [f"[validate] output does not parse as one JSON document: {exc}"]
    per_category = dict(sorted(oracle.per_category.items()))
    expected = {
        "record_count": oracle.rows,
        "category_count": len(per_category),
        "records_per_category": per_category,
        "missing_per_indicator": oracle.missing,
        "under_populated": [c for c, n in per_category.items() if n < MIN_RECORDS],
        "min_records": MIN_RECORDS,
    }
    wrong = sorted(key for key, value in expected.items() if doc.get(key) != value)
    return [f"[validate] wrong {', '.join(wrong)}"] if wrong else []


def check_inprocess(oracle: Oracle, reference: str, k: int, results, tops, svgs) -> list:
    """Full rankings, their top-k truncations and rendered maps for one reference."""
    codes = [r.indicator.code for r in results]
    if codes != list(ALL_CODES):
        return [f"[coverage] {reference}: indicators {codes}"]
    problems = []
    for result, top, svg in zip(results, tops, svgs):
        code = result.indicator.code
        problems += check_ranking(oracle, reference, code, list(result.ranking), None)
        if tuple(top.ranking) != tuple(result.ranking[:k]):
            problems.append(f"[topk] {reference}/{code}: top_k is not the ranking's prefix")
        problems += check_svg(oracle, reference, code, k, svg)
    return problems


class Determinism:
    """Outputs of a repeated op must match byte for byte."""

    def __init__(self):
        self.digests: dict = {}

    def check(self, key, data: bytes) -> list:
        digest = hashlib.sha256(data).hexdigest()
        previous = self.digests.setdefault(key, digest)
        if previous != digest:
            return [f"[determinism] {key}: output differs from an earlier identical op"]
        return []
