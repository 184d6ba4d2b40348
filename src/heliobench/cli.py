"""Command-line interface.

Four commands: validate, hist, bench, map. Option precedence is CLI flag
over config-file entry over built-in default, and every run prints its
resolved configuration to stderr so results can be reproduced.

Exit codes are a stable scripting contract: 0 success; 2 input that cannot
be parsed (bad CSV or config file, unreadable file, unknown flag or a flag
value of the wrong type); 3 input that is well-formed but outside its domain
(unknown category, empty data, --k 0, --bins below 2 or above
histogram.MAX_BIN_COUNT, non-finite or negative alpha, alpha 0 without full
support); 4 internal errors. With several indicators, one for which the
reference has no values is skipped with a warning.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import sys
import tempfile
import traceback
from dataclasses import replace
from pathlib import Path
from typing import Iterable

from .benchmark import (
    DEFAULT_ALPHA,
    DEFAULT_BIN_COUNT,
    DEFAULT_SCALES,
    DEFAULT_TOP_K,
    BenchmarkRequest,
    cross_indicator_summary,
    run_benchmark,
    top_k,
)
from .corpus import (
    DEFAULT_MIN_RECORDS,
    Indicator,
    category_values,
    load_corpus,
    validate_corpus,
)
from .errors import CorpusFormatError, EmptyDataError, HeliobenchError
from .heliomap import layout_map, load_prestige_order, render_svg
from .histogram import build_histogram, check_alpha, pooled_bin_spec

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4

# Standard output up to this many characters is staged in memory, the rest
# in a temporary file.
STAGED_CHARS = 1 << 20

DEFAULTS = {
    "indicator": "all",
    "bins": DEFAULT_BIN_COUNT,
    "scale": None,  # None = per-indicator DEFAULT_SCALES
    "alpha": DEFAULT_ALPHA,
    "k": DEFAULT_TOP_K,
    "format": "json",
    "min_records": DEFAULT_MIN_RECORDS,
    "category": None,
    "reference": None,
    "prestige": None,
    "out": None,
    "summary": False,
}

_COERCE = {
    "bins": int,
    "k": int,
    "min_records": int,
    "alpha": float,
    "summary": lambda s: str(s).strip().lower() in ("1", "true", "yes", "on"),
    "category": lambda s: [s],
}

# Shared by the argument parser and the config-file reader.
_CHOICES = {
    "indicator": ("if", "es", "ii", "all"),
    "scale": ("linear", "log"),
    "format": ("json", "csv"),
}


def _read_config_file(path: str) -> dict:
    """key=value lines, coerced like the matching flags; blank lines and #
    comments ignored. Unknown keys and malformed values raise
    CorpusFormatError naming the line."""
    entries = {}
    text = Path(path).read_text(encoding="utf-8-sig")
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CorpusFormatError(f"config entry is not key=value: {raw!r}", line=n)
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in DEFAULTS:
            raise CorpusFormatError(f"unknown config key {key!r}", line=n)
        try:
            entries[key] = _COERCE.get(key, str)(value)
        except ValueError:
            raise CorpusFormatError(f"config {key}: invalid value {value!r}", line=n) from None
        if key in _CHOICES and value not in _CHOICES[key]:
            raise CorpusFormatError(
                f"config {key}: {value!r} is not one of {', '.join(_CHOICES[key])}", line=n
            )
    return entries


def _resolve(args: argparse.Namespace) -> dict:
    file_cfg = _read_config_file(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key, default in DEFAULTS.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None and cli_value is not False:
            resolved[key] = cli_value
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    # Checked before any command runs, because the resolved config is
    # printed as JSON first and a non-finite alpha has no JSON form.
    check_alpha(resolved["alpha"])
    resolved["input"] = args.input
    resolved["command"] = args.command
    return resolved


def _indicators(resolved: dict) -> list[Indicator]:
    code = resolved["indicator"]
    if code == "all":
        return list(Indicator)
    return [Indicator.from_code(code)]


def _scales(resolved: dict) -> dict:
    if resolved["scale"] is None:
        return {}
    return {ind: resolved["scale"] for ind in Indicator}


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-") or "unnamed"


def _json(obj, indent: int | None = None) -> str:
    """Sorted-key JSON that raises ValueError rather than write NaN or Infinity."""
    return json.dumps(obj, indent=indent, sort_keys=True, allow_nan=False)


def _emit(documents: Iterable[tuple[str, str]], out_dir: str | None) -> None:
    """Write (text, filename) documents to stdout, or as files to out_dir.

    Documents are staged, in a spooled temporary file or in a temporary
    directory inside out_dir, and published only once the last one is
    built: a failure writes nothing, and a large output is never held in
    memory whole.
    """
    if out_dir is None:
        with tempfile.SpooledTemporaryFile(
            STAGED_CHARS, mode="w+", encoding="utf-8", newline=""
        ) as staged:
            for text, _ in documents:
                staged.write(text if text.endswith("\n") else text + "\n")
            staged.seek(0)
            shutil.copyfileobj(staged, sys.stdout)
        return
    directory = Path(out_dir)
    created = not directory.exists()
    directory.mkdir(parents=True, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix=".staging-", dir=directory) as staging:
            for text, filename in documents:
                (Path(staging) / filename).write_text(text, encoding="utf-8")
            for path in Path(staging).iterdir():
                os.replace(path, directory / path.name)
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


def cmd_validate(resolved: dict) -> int:
    corpus = load_corpus(resolved["input"])
    report = validate_corpus(corpus, min_records=resolved["min_records"])
    _emit([(_json(report.to_dict(), indent=2), "validation.json")], resolved["out"])
    return EXIT_OK


def cmd_hist(resolved: dict) -> int:
    corpus = load_corpus(resolved["input"])
    categories = resolved["category"] or corpus.category_names()

    def documents():
        for indicator in _indicators(resolved):
            scale = resolved["scale"] or DEFAULT_SCALES[indicator]
            spec = pooled_bin_spec(corpus, indicator, resolved["bins"], scale)
            for cat in categories:
                values, skipped = category_values(corpus, cat, indicator)
                try:
                    hist = build_histogram(values, spec, resolved["alpha"])
                except EmptyDataError as exc:
                    raise EmptyDataError(
                        f"category {cat!r} has no {indicator.value} values: {exc}"
                    ) from None
                doc = {"category": cat, "indicator": indicator.code, "skipped": skipped}
                doc.update(hist.to_dict())
                yield _json(doc), f"hist_{_slug(cat)}_{indicator.code}.json"

    _emit(documents(), resolved["out"])
    return EXIT_OK


def _bench_results(corpus, resolved: dict):
    request = BenchmarkRequest(
        reference=resolved["reference"],
        indicators=tuple(_indicators(resolved)),
        bin_count=resolved["bins"],
        scales=_scales(resolved),
        alpha=resolved["alpha"],
        k=resolved["k"],
    )
    results = []
    for indicator in request.indicators:
        try:
            results += run_benchmark(corpus, replace(request, indicators=(indicator,)))
        except EmptyDataError as exc:
            if len(request.indicators) == 1:
                raise
            print(f"warning: skipping indicator {indicator.code}: {exc}", file=sys.stderr)
            skipped = exc
    if not results:
        raise skipped
    return [top_k(result, request.k) for result in results]


def cmd_bench(resolved: dict) -> int:
    corpus = load_corpus(resolved["input"])
    results = _bench_results(corpus, resolved)
    fmt = resolved["format"]
    ref_slug = _slug(resolved["reference"])
    tables = [(result, result.indicator.code) for result in results]
    if resolved["summary"]:
        tables.append((cross_indicator_summary(results), "summary"))
    _emit(
        [
            (table.to_csv() if fmt == "csv" else _json(table.to_dict(), indent=2),
             f"bench_{ref_slug}_{suffix}.{fmt}")
            for table, suffix in tables
        ],
        resolved["out"],
    )
    return EXIT_OK


def cmd_map(resolved: dict) -> int:
    corpus = load_corpus(resolved["input"])
    results = _bench_results(corpus, resolved)
    order = load_prestige_order(resolved["prestige"]) if resolved["prestige"] else None
    ref_slug = _slug(resolved["reference"])
    _emit(
        [
            (render_svg(layout_map(result, order)),
             f"map_{ref_slug}_{result.indicator.code}.svg")
            for result in results
        ],
        resolved["out"],
    )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heliobench",
        description="Benchmark journal categories by impact-indicator histograms "
        "and Kullback-Leibler information gain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, reference: bool = False) -> None:
        p.add_argument("--input", required=True, help="corpus CSV file")
        p.add_argument("--config", help="optional key=value config file")
        p.add_argument("--indicator", choices=_CHOICES["indicator"], default=None)
        p.add_argument("--bins", type=int, default=None, help="bin count (default 20)")
        p.add_argument("--scale", choices=_CHOICES["scale"], default=None,
                       help="override binning scale for all indicators")
        p.add_argument("--alpha", type=float, default=None,
                       help="smoothing pseudo-count (default 0.5)")
        p.add_argument("--out", default=None, help="output directory (default: stdout)")
        if reference:
            p.add_argument("--reference", required=True, help="reference category name")
            p.add_argument("--k", type=int, default=None, help="top-k size (default 30)")
            p.add_argument("--prestige", default=None,
                           help="prestige-order file (one category per line, best first)")

    p_validate = sub.add_parser("validate", help="parse a corpus and report its shape")
    p_validate.add_argument("--input", required=True)
    p_validate.add_argument("--config", help="optional key=value config file")
    p_validate.add_argument("--out", default=None)
    p_validate.add_argument("--min-records", dest="min_records", type=int, default=None,
                            help="flag categories smaller than this (default 5)")
    p_validate.set_defaults(func=cmd_validate)

    p_hist = sub.add_parser("hist", help="export per-category histograms as JSON")
    common(p_hist)
    p_hist.add_argument("--category", action="append", default=None,
                        help="category to export (repeatable; default: all)")
    p_hist.set_defaults(func=cmd_hist)

    p_bench = sub.add_parser("bench", help="rank categories by information gain")
    common(p_bench, reference=True)
    p_bench.add_argument("--format", choices=_CHOICES["format"], default=None)
    p_bench.add_argument("--summary", action="store_true", default=False,
                         help="also write the cross-indicator summary table")
    p_bench.set_defaults(func=cmd_bench)

    p_map = sub.add_parser("map", help="render heliocentric clockwise maps as SVG")
    common(p_map, reference=True)
    p_map.set_defaults(func=cmd_map)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT

    try:
        resolved = _resolve(args)
        print(f"resolved-config: {_json(resolved)}", file=sys.stderr)
        return args.func(resolved)
    except (CorpusFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HeliobenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
