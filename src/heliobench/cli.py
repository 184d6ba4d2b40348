"""Command-line interface.

Four commands: validate, hist, bench, map. Option precedence is CLI flag
over config-file entry over built-in default, and every run prints its
resolved configuration to stderr so results can be reproduced.

Exit codes are a stable scripting contract: 0 success; 2 input that cannot
be parsed (bad CSV or config file, unreadable file, a file that is not
valid UTF-8, unknown flag or a flag value of the wrong type, bench or map
without a reference from the flag or the config file) or output that
cannot be written (a closed or full stdout, a stdout whose reader stops
early, as `| head` does, or an --out that cannot be made or written, such
as a path that names a file or lies under one); 3 input that is
well-formed but outside its domain (unknown category, empty data, --k 0,
--bins below 2 or above histogram.MAX_BIN_COUNT, non-finite or negative
alpha, alpha 0 without full support, an alpha that leaves a probability
below the smallest normal float, hist categories whose names give one
output filename); 4 internal errors. Diagnostics go to stderr or nowhere,
so a closed stderr changes neither the exit code nor stdout. An option's
value may be "--" in the --opt=-- form. An indicator that cannot be binned
(no values in the corpus, or no positive ones on a log scale) or, for
bench and map, for which the reference has no values, is skipped with a
warning; when every indicator fails, the last one's error is printed
instead of its warning, and the run exits 3.
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
from typing import Iterator, Sequence, get_args

from .benchmark import (
    DEFAULT_ALPHA,
    DEFAULT_TOP_K,
    BenchmarkRequest,
    cross_indicator_summary,
    run_benchmark,
    top_k,
)
from .corpus import (
    DEFAULT_MIN_RECORDS,
    Indicator,
    _read_text,
    category_values,
    load_corpus,
    validate_corpus,
)
from .errors import CorpusFormatError, EmptyDataError, HeliobenchError, InvalidInputError
from .heliomap import layout_map, load_prestige_order, render_svg
from .histogram import (
    DEFAULT_BIN_COUNT,
    MAX_BIN_COUNT,
    Scale,
    build_histogram,
    check_alpha,
    pooled_bin_spec,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4

# Standard output up to this many characters is staged in memory, the rest
# in a temporary file.
STAGED_CHARS = 1 << 20

# What each command generates: (text, filename) pairs.
Documents = Iterator[tuple[str, str]]

_BINNING = ("hist", "bench", "map")
_REFERENCED = ("bench", "map")

# Option -> (commands that take it as a flag, default, argparse keywords).
# The parser and the config-file reader both read these keywords, and a
# config file may set any option whatever the command.
_OPTIONS = {
    "indicator": (_BINNING, "all", {
        "choices": (*(ind.code for ind in Indicator), "all"), "help": "indicator code, or all"}),
    "bins": (_BINNING, DEFAULT_BIN_COUNT, {
        "type": int, "help": f"bin count, 2 to {MAX_BIN_COUNT}"}),
    "scale": (_BINNING, None, {  # None = per-indicator histogram.DEFAULT_SCALES
        "choices": get_args(Scale), "help": "override binning scale for all indicators"}),
    "alpha": (_BINNING, DEFAULT_ALPHA, {"type": float, "help": "smoothing pseudo-count"}),
    "out": (("validate", *_BINNING), None, {"help": "output directory (default: stdout)"}),
    "reference": (_REFERENCED, None, {
        "help": "reference category name (required here or in the config file)"}),
    "k": (_REFERENCED, DEFAULT_TOP_K, {"type": int, "help": "top-k size"}),
    "prestige": (("map",), None, {
        "help": "prestige-order file (one category per line, best first)"}),
    "format": (("bench",), "json", {"choices": ("json", "csv"), "help": "output format"}),
    "summary": (("bench",), False, {
        "action": "store_true", "help": "also write the cross-indicator summary table"}),
    "min_records": (("validate",), DEFAULT_MIN_RECORDS, {
        "type": int, "help": "flag categories smaller than this"}),
    "category": (("hist",), None, {
        "action": "append", "help": "category to export (repeatable; default: all)"}),
}


def _coerce(key: str, value: str):
    """A config-file value converted as its flag's argparse keywords say."""
    flag = _OPTIONS[key][2]
    if flag.get("action") == "store_true":  # tuple.index raises ValueError for another word
        return ("0", "false", "no", "off", "1", "true", "yes", "on").index(value.lower()) > 3
    return flag.get("type", str)(value)


def _read_config_file(path: str) -> dict:
    """key=value lines, coerced like the matching flags; blank lines and #
    comments ignored. Unknown keys and malformed values raise
    CorpusFormatError naming the line, a file that is not UTF-8 one naming
    the file."""
    entries = {}
    for n, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CorpusFormatError(f"config entry is not key=value: {raw!r}", line=n)
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _OPTIONS:
            raise CorpusFormatError(f"unknown config key {key!r}", line=n)
        try:
            if _OPTIONS[key][2].get("action") == "append":  # each line adds, as each flag does
                entries.setdefault(key, []).append(value)
            else:
                entries[key] = _coerce(key, value)
        except ValueError:
            raise CorpusFormatError(f"config {key}: invalid value {value!r}", line=n) from None
        choices = _OPTIONS[key][2].get("choices")
        if choices and value not in choices:
            raise CorpusFormatError(
                f"config {key}: {value!r} is not one of {', '.join(choices)}", line=n
            )
    return entries


def _resolve(args: argparse.Namespace) -> dict:
    file_cfg = _read_config_file(args.config) if args.config else {}
    resolved = {}
    for key, (_, default, _) in _OPTIONS.items():
        cli_value = getattr(args, key, None)
        resolved[key] = cli_value if cli_value is not None else file_cfg.get(key, default)
    if args.command in _REFERENCED and resolved["reference"] is None:
        raise CorpusFormatError(
            f"{args.command} needs a reference: give --reference or a reference= config entry"
        )
    # Checked before any command runs, because the resolved config is
    # printed as JSON first and a non-finite alpha has no JSON form.
    check_alpha(resolved["alpha"])
    resolved["input"] = args.input
    resolved["command"] = args.command
    return resolved


def _indicators(resolved: dict) -> list[Indicator]:
    code = resolved["indicator"]
    return [ind for ind in Indicator if code in ("all", ind.code)]


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-") or "unnamed"


def _report(line: str) -> None:
    """Write one diagnostic line to stderr, or nowhere when stderr is missing
    or cannot be written: print(file=None) would write it to stdout."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError, ValueError):  # ValueError: a closed file
            print(line, file=sys.stderr, flush=True)


def _json(obj, indent: int | None = None) -> str:
    """Sorted-key JSON that raises ValueError rather than write NaN or Infinity."""
    return json.dumps(obj, indent=indent, sort_keys=True, allow_nan=False)


def _emit(documents: Documents, out_dir: str | None) -> None:
    """Write (text, filename) documents to stdout, or as files to out_dir.

    Documents are staged, in a spooled temporary file or in a temporary
    directory inside out_dir, and published only once the last one is
    built: a failure writes nothing, and a large output is never held in
    memory whole. Two documents with one filename are an InvalidInputError.
    """
    if out_dir is None:
        if sys.stdout is None:  # Python's stdout when fd 1 is closed
            raise OSError("standard output is closed")
        with tempfile.SpooledTemporaryFile(
            STAGED_CHARS, mode="w+", encoding="utf-8", newline=""
        ) as staged:
            for text, _ in documents:
                staged.write(text if text.endswith("\n") else text + "\n")
            staged.seek(0)
            shutil.copyfileobj(staged, sys.stdout)
        return
    out_dir = out_dir or os.curdir  # an empty --out names the working directory
    # Innermost first, so that each is empty when it is removed after a failure.
    created, path = [], out_dir
    while path and not os.path.exists(path):
        created.append(path)
        path = os.path.dirname(path.rstrip(os.sep))
    written = set()
    try:
        os.makedirs(out_dir, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".staging-", dir=out_dir) as staging:
            for text, filename in documents:
                if filename in written:
                    raise InvalidInputError(f"two documents would both be written to {filename}")
                written.add(filename)
                with open(os.path.join(staging, filename), "w", encoding="utf-8") as file:
                    file.write(text)
            for filename in written:
                os.replace(os.path.join(staging, filename), os.path.join(out_dir, filename))
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def cmd_validate(corpus, resolved: dict) -> Documents:
    report = validate_corpus(corpus, min_records=resolved["min_records"])
    yield _json(report.to_dict(), indent=2), "validation.json"


def _skipping_empty(indicators: Sequence[Indicator], run) -> list:
    """[run(indicator) for indicator in indicators], but an indicator for
    which run raises EmptyDataError is left out with a warning, unless it is
    the last and every one before it was left out too: then its error is
    raised, and the run reports it once, as an error."""
    done = []
    for indicator in indicators:
        try:
            done.append(run(indicator))
        except EmptyDataError as exc:
            if not done and indicator is indicators[-1]:
                raise
            _report(f"warning: skipping indicator {indicator.code}: {exc}")
    return done


def cmd_hist(corpus, resolved: dict) -> Documents:
    def bin_spec(indicator):
        return indicator, pooled_bin_spec(corpus, indicator, resolved["bins"], resolved["scale"])

    for indicator, spec in _skipping_empty(_indicators(resolved), bin_spec):
        for cat in resolved["category"] or corpus.category_names():
            values, skipped = category_values(corpus, cat, indicator)
            try:
                hist = build_histogram(values, spec, resolved["alpha"])
            except EmptyDataError as exc:
                raise EmptyDataError(
                    f"category {cat!r} has no {indicator.value} values: {exc}"
                ) from None
            except InvalidInputError as exc:
                raise InvalidInputError(f"category {cat!r}, {indicator.value}: {exc}") from None
            doc = {"category": cat, "indicator": indicator.code, "skipped": skipped}
            doc.update(hist.to_dict())
            yield _json(doc), f"hist_{_slug(cat)}_{indicator.code}.json"


def _bench_results(corpus, resolved: dict):
    request = BenchmarkRequest(
        reference=resolved["reference"],
        indicators=tuple(_indicators(resolved)),
        bin_count=resolved["bins"],
        scale=resolved["scale"],
        alpha=resolved["alpha"],
    )

    def rank(indicator):
        (result,) = run_benchmark(corpus, replace(request, indicators=(indicator,)))
        return top_k(result, resolved["k"])

    return _skipping_empty(request.indicators, rank)


def cmd_bench(corpus, resolved: dict) -> Documents:
    results = _bench_results(corpus, resolved)
    fmt = resolved["format"]
    ref_slug = _slug(resolved["reference"])
    tables = [(result, result.indicator.code) for result in results]
    if resolved["summary"]:
        tables.append((cross_indicator_summary(results), "summary"))
    for table, suffix in tables:
        yield (table.to_csv() if fmt == "csv" else _json(table.to_dict(), indent=2),
               f"bench_{ref_slug}_{suffix}.{fmt}")


def cmd_map(corpus, resolved: dict) -> Documents:
    results = _bench_results(corpus, resolved)
    order = load_prestige_order(resolved["prestige"]) if resolved["prestige"] else None
    ref_slug = _slug(resolved["reference"])
    for result in results:
        yield render_svg(layout_map(result, order)), f"map_{ref_slug}_{result.indicator.code}.svg"


# Command -> (help, generator of its documents).
_COMMANDS = {
    "validate": ("parse a corpus and report its shape", cmd_validate),
    "hist": ("export per-category histograms as JSON", cmd_hist),
    "bench": ("rank categories by information gain", cmd_bench),
    "map": ("render heliocentric clockwise maps as SVG", cmd_map),
}


class _Parser(argparse.ArgumentParser):
    def _get_values(self, action, arg_strings):
        # Before Python 3.13 argparse drops the "--" of --opt=-- and stores
        # [] unchecked; an option's value "--" is kept here as 3.13 keeps it.
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)

    def error(self, message):
        # ArgumentParser.error prints its usage to stdout when sys.stderr is None.
        _report(f"{self.format_usage()}{self.prog}: error: {message}")
        sys.exit(EXIT_INPUT)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heliobench",
        description="Benchmark journal categories by impact-indicator histograms "
        "and Kullback-Leibler information gain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        p.add_argument("--input", required=True, help="corpus CSV file")
        p.add_argument("--config", help="optional key=value config file")
        # Every default is None, so that _resolve can tell a flag that was
        # not given from one that was.
        for key, (commands, default, flag) in _OPTIONS.items():
            if command in commands:
                shown = "" if default in (None, False) else f" (default {default})"
                p.add_argument("--" + key.replace("_", "-"),
                               **{**flag, "default": None, "help": flag["help"] + shown})
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT

    try:
        resolved = _resolve(args)
        _report(f"resolved-config: {_json(resolved)}")
        corpus = load_corpus(resolved["input"])
        _emit(_COMMANDS[args.command][1](corpus, resolved), resolved["out"])
        return EXIT_OK
    except (CorpusFormatError, OSError) as exc:
        _report(f"error: {exc}")
        return EXIT_INPUT
    except HeliobenchError as exc:
        _report(f"error: {exc}")
        return EXIT_DOMAIN
    except Exception:
        _report(traceback.format_exc().rstrip("\n"))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
