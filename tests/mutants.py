"""Mutation check of src/heliobench: each mutant below breaks one guard, and
the tests it names must fail on it.

Run from anywhere, on every mutant or on the named ones:

    python tests/mutants.py [NAME ...]

Each mutant replaces one exact text of one file. The runner copies the
repository, without .git, to a temporary directory, runs every selected
mutant's tests there on the unmutated copy, and then, one mutant at a
time, writes the mutated file, runs `python -m pytest -x -q` on the
mutant's tests and restores the file. A mutant is killed when pytest
reports a failed test. The runner exits 1 when an old text does not occur
exactly once in its file, or a named test does not resolve, so a refactor
has to update this list, when the unmutated copy fails, or when a mutant
not marked equivalent is not killed.
pytest does not collect this file, since its name has no test_ prefix.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    contract: str  # what the mutant breaks
    tests: tuple[str, ...]  # pytest arguments, relative to the repository root
    equivalent: str = ""  # why no test can kill it, and on which Python versions


NEGATIVE_GAIN_TEST = (
    "tests/test_infogain.py::test_a_gain_rounded_below_zero_is_reported_and_ranks_before_a_copy"
)
ERROR_BOUND_TEST = "tests/test_infogain.py::test_kernel_error_is_bounded_by_the_sums_it_subtracts"
DEFAULT_SCALE_TEST = (
    "tests/test_benchmark.py::TestOneScaleDefault::test_every_path_falls_back_to_default_scales"
)
INTEGER_BIN_COUNT_TEST = (
    "tests/test_benchmark.py::TestBinningMemo::test_bin_count_must_be_an_integer_cold_or_warm"
)
NAN_VALUE_TEST = "tests/test_histogram.py::TestBuildHistogram::test_nan_is_refused_not_counted"
SHAPE_TEST = (
    "tests/test_infogain.py::TestGainsAgainstReference::test_matrix_of_the_wrong_shape_is_refused"
)
CALL_COUNT_TEST = (
    "tests/test_benchmark.py::test_python_calls_per_warm_op_do_not_grow_with_the_categories"
)
CLAMPED_TEST = (
    "tests/test_histogram.py::TestHistogramType::"
    "test_clamped_must_be_an_integer_up_to_the_sample_count"
)
COUNTS_TEST = (
    "tests/test_histogram.py::TestHistogramType::"
    "test_counts_must_be_bin_count_integers_at_least_zero"
)
ALPHA_TEST = (
    "tests/test_histogram.py::TestHistogramType::"
    "test_alpha_must_be_a_finite_pseudo_count_at_least_zero"
)
SMOOTHED_COUNTS_TEST = (
    "tests/test_histogram.py::TestHistogramType::test_counts_must_give_the_probabilities"
)
REFERENCE_ROW_TEST = (
    "tests/test_infogain.py::TestGainsAgainstReference::"
    "test_reference_row_is_dropped_wherever_it_stands"
)
ALTERNATING_SETTINGS_TEST = (
    "tests/test_benchmark.py::TestBinningMemo::test_alternating_settings_match_a_fresh_corpus"
)
BOOL_TEST = "tests/test_histogram.py::test_a_bool_is_neither_an_alpha_nor_a_bin_count"
ROW_CHECK_TEST = (
    "tests/test_corpus.py::TestParseCorpus::test_direct_construction_checks_rows_like_the_parser"
)

MUTANTS = (
    Mutant(
        "kernel-validity-pass",
        "src/heliobench/infogain.py",
        "valid = full or ((Q >= 0) & (Q < math.inf)).all()",
        "valid = True",
        "a NaN, negative or infinite candidate value where the reference is zero is rejected",
        ("tests/test_infogain.py",),
    ),
    Mutant(
        "kernel-cross-check",
        "src/heliobench/infogain.py",
        "agree = np.abs(gain_nats - direct_nats) <= IDENTITY_TOL",
        "agree = np.abs(gain_nats - direct_nats) >= -math.inf",
        "the two forms of the gain agree within IDENTITY_TOL, and a zero where the "
        "reference is positive is rejected",
        ("tests/test_infogain.py",),
    ),
    Mutant(
        "kernel-contiguous-rows",
        "src/heliobench/infogain.py",
        "Q = np.ascontiguousarray(Q) if full else Q.take(support, axis=1)",
        "Q = Q if full else Q.take(support, axis=1)",
        "a column-major candidate matrix scores bit for bit like a row-major one",
        ("tests/test_infogain.py",),
    ),
    Mutant(
        "kernel-gain-clipped",
        "src/heliobench/infogain.py",
        "gain_nats = work.sum(axis=1) - self_nats",
        "gain_nats = np.maximum(work.sum(axis=1) - self_nats, 0.0)",
        "a gain rounded below zero is reported as it is, and ranks before a copy's 0.0",
        (NEGATIVE_GAIN_TEST,),
    ),
    Mutant(
        "kernel-gain-absolute",
        "src/heliobench/infogain.py",
        "gain_nats = work.sum(axis=1) - self_nats",
        "gain_nats = np.abs(work.sum(axis=1) - self_nats)",
        "a gain rounded below zero is reported as it is, and ranks before a copy's 0.0",
        (NEGATIVE_GAIN_TEST,),
    ),
    Mutant(
        "kernel-sequential-sum",
        "src/heliobench/infogain.py",
        "gain_nats = work.sum(axis=1) - self_nats",
        "gain_nats = np.cumsum(work, axis=1)[:, -1] - self_nats",
        "a gain's rounding error stays within KERNEL_ERROR_C units of the sums it subtracts",
        (ERROR_BOUND_TEST,),
    ),
    Mutant(
        "gains-matrix-shape",
        "src/heliobench/infogain.py",
        "if np.shape(matrix) != (len(names), bin_count):",
        "if False:",
        "a matrix that is not len(names) x bin_count is refused",
        (SHAPE_TEST,),
    ),
    Mutant(
        "gains-keep-reference-row",
        "src/heliobench/infogain.py",
        "        del pairs[names.index(reference_name)]\n",
        "        pass\n",
        "the reference's own row of the matrix is left out of its gains",
        ("tests/test_infogain.py", "tests/test_benchmark.py"),
    ),
    Mutant(
        "gains-drop-row-in-name-order",
        "src/heliobench/infogain.py",
        "del pairs[names.index(reference_name)]",
        "del pairs[sorted(names).index(reference_name)]",
        "the row dropped is the one named reference_name, wherever it stands",
        (REFERENCE_ROW_TEST,),
    ),
    Mutant(
        "gains-object-per-candidate",
        "src/heliobench/infogain.py",
        "pairs = list(zip(names, _gains(",
        "pairs = list(map(lambda *pair: pair, names, _gains(",
        "the Python calls of a warm ranking do not grow with the number of categories",
        (CALL_COUNT_TEST,),
    ),
    Mutant(
        "svg-negative-zero",
        "src/heliobench/heliomap.py",
        """.replace('"-0.000"', '"0.000"').split("\\0")""",
        """.split("\\0")""",
        'no SVG coordinate is written "-0.000"',
        ("tests/test_heliomap.py",),
    ),
    Mutant(
        "histogram-empty-bin",
        "src/heliobench/histogram.py",
        "probs.min() >= 0 and",
        "probs.min() > 0 and",
        "an unsmoothed histogram may hold an empty bin",
        ("tests/test_histogram.py",),
    ),
    Mutant(
        "smoothed-limit-inclusive",
        "src/heliobench/histogram.py",
        "probabilities.min(initial=math.inf) < limit",
        "probabilities.min(initial=math.inf) <= limit",
        "a smoothed probability equal to the limit is kept",
        ("tests/test_histogram.py",),
    ),
    Mutant(
        "smoothed-no-rows",
        "src/heliobench/histogram.py",
        "probabilities.min(initial=math.inf) < limit",
        "probabilities.min() < limit",
        "an indicator without values gives a matrix of no rows, not an error",
        ("tests/test_histogram.py",),
    ),
    Mutant(
        "memo-alpha-key",
        "src/heliobench/histogram.py",
        "if memo is not None and memo[:2] == (spec, alpha):",
        "if memo is not None and memo[0] == spec:",
        "a kept candidate matrix is reused only for the alpha it was smoothed with",
        ("tests/test_benchmark.py",),
    ),
    Mutant(
        "memo-spec-key",
        "src/heliobench/histogram.py",
        "if memo is not None and memo[:2] == (spec, alpha):",
        "if memo is not None and memo[1] == alpha:",
        "a kept candidate matrix is reused only for the bin spec it was made on",
        (ALTERNATING_SETTINGS_TEST,),
    ),
    Mutant(
        "memo-size-cap",
        "src/heliobench/histogram.py",
        "if probabilities.size <= BLOCK_ELEMENTS:",
        "if True:",
        "a candidate matrix of more than BLOCK_ELEMENTS values is not kept",
        ("tests/test_benchmark.py",),
    ),
    Mutant(
        "pooled-bin-spec-default-scale",
        "src/heliobench/histogram.py",
        "scale = DEFAULT_SCALES[indicator]",
        'scale = "linear"',
        "with no scale given, each indicator is binned on its DEFAULT_SCALES entry",
        (DEFAULT_SCALE_TEST,),
    ),
    Mutant(
        "bin-count-integer",
        "src/heliobench/errors.py",
        "return operator.index(value)",
        "return value",
        "a bin_count that is not an integer is refused, and one that is is kept as an int",
        (INTEGER_BIN_COUNT_TEST,),
    ),
    Mutant(
        "integer-not-bool",
        "src/heliobench/errors.py",
        "if not isinstance(value, bool):",
        "if True:",
        "a bool is not an integer parameter",
        (BOOL_TEST,),
    ),
    Mutant(
        "alpha-not-bool",
        "src/heliobench/histogram.py",
        "if isinstance(alpha, (bool, np.bool_)):",
        "if False:",
        "a bool, Python's or numpy's, is not an alpha",
        (BOOL_TEST,),
    ),
    Mutant(
        "top-k-integer",
        "src/heliobench/benchmark.py",
        'if _as_int(k, "k") < 1:',
        "if k < 1:",
        "top_k's k is an integer, not a bool or a float",
        ("tests/test_benchmark.py::TestTopK::test_k_must_be_an_integer",),
    ),
    Mutant(
        "request-indicator-type",
        "src/heliobench/benchmark.py",
        "if not isinstance(indicator, Indicator):",
        "if False:",
        "a BenchmarkRequest's indicators are Indicator members",
        (
            "tests/test_benchmark.py::TestRequestValidation::"
            "test_indicators_must_be_indicator_members",
        ),
    ),
    Mutant(
        "request-indicators-tuple",
        "src/heliobench/benchmark.py",
        'object.__setattr__(self, "indicators", tuple(self.indicators))',
        "tuple(self.indicators)",
        "a BenchmarkRequest keeps its indicators as a tuple, so a list of them hashes",
        (
            "tests/test_benchmark.py::TestRequestValidation::"
            "test_indicators_of_any_iterable_are_kept_as_a_tuple",
        ),
    ),
    Mutant(
        "min-records-at-least-zero",
        "src/heliobench/corpus.py",
        "if min_records < 0:",
        "if False:",
        "validate_corpus's min_records is >= 0",
        ("tests/test_corpus.py::TestValidateCorpus::test_min_records_must_be_at_least_zero",),
    ),
    Mutant(
        "min-records-integer",
        "src/heliobench/corpus.py",
        '    min_records = _as_int(min_records, "min_records")\n',
        "",
        "validate_corpus's min_records is an integer, written to the report as an int",
        ("tests/test_corpus.py::TestValidateCorpus::test_min_records_must_be_an_integer",),
    ),
    Mutant(
        "bin-count-before-memo",
        "src/heliobench/histogram.py",
        "    bin_count = _as_bin_count(bin_count)\n",
        "",
        "a bin_count that is not an integer is refused on a corpus with a memoized spec too",
        (INTEGER_BIN_COUNT_TEST,),
    ),
    Mutant(
        "histogram-nan-value",
        "src/heliobench/histogram.py",
        "if np.isnan(values).any():",
        "if False:",
        "build_histogram refuses a NaN value rather than count it in the last bin",
        (NAN_VALUE_TEST,),
    ),
    Mutant(
        "histogram-counts-shape",
        "src/heliobench/histogram.py",
        "counts.shape != probs.shape or ",
        "",
        "a Histogram holds exactly one count per bin",
        (COUNTS_TEST,),
    ),
    Mutant(
        "histogram-counts-integer",
        "src/heliobench/histogram.py",
        'counts.dtype.kind not in "iu" or ',
        "",
        "a Histogram's counts are integers, not truncated floats",
        (COUNTS_TEST,),
    ),
    Mutant(
        "histogram-counts-negative",
        "src/heliobench/histogram.py",
        " or counts.min() < 0",
        "",
        "a Histogram's counts are >= 0",
        (COUNTS_TEST,),
    ),
    Mutant(
        "histogram-alpha-checked",
        "src/heliobench/histogram.py",
        "        check_alpha(self.alpha)\n        probs",
        "        probs",
        "a Histogram's alpha is a finite pseudo-count >= 0",
        (ALPHA_TEST,),
    ),
    Mutant(
        "histogram-counts-smoothed",
        "src/heliobench/histogram.py",
        "if not total > 0 or abs(probs - (counts + self.alpha) / total).max() > PROBABILITY_SUM_TOL:",
        "if False:",
        "a Histogram's probabilities are its counts smoothed with its alpha",
        (SMOOTHED_COUNTS_TEST,),
    ),
    Mutant(
        "histogram-clamped-range",
        "src/heliobench/histogram.py",
        "if not 0 <= clamped <= sample_count:",
        "if clamped < 0:",
        "a Histogram's clamped count is at most its sample count",
        (CLAMPED_TEST,),
    ),
    Mutant(
        "histogram-clamped-not-bool",
        "src/heliobench/histogram.py",
        'clamped = _as_int(self.clamped, "clamped")',
        'clamped = _as_int(int(self.clamped) if self.clamped is True else self.clamped, "clamped")',
        "a Histogram's clamped count is not a bool",
        (CLAMPED_TEST,),
    ),
    Mutant(
        "ties-by-name",
        "src/heliobench/benchmark.py",
        "ranking.sort(key=itemgetter(1))",
        "ranking.reverse()\n        ranking.sort(key=itemgetter(1))",
        "candidates with equal gains are ranked by name",
        ("tests/test_benchmark.py",),
    ),
    Mutant(
        "codes-stable-order",
        "src/heliobench/corpus.py",
        'order = np.argsort(self._codes, kind="stable")',
        "order = np.argsort(self._codes)",
        "a category's values and records come in input order",
        ("tests/test_corpus.py",),
    ),
    Mutant(
        "config-line-equals",
        "src/heliobench/cli.py",
        'if "=" not in line:',
        "if False:",
        "a config line without = is refused as not key=value",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "plain-line-end-positions",
        "src/heliobench/corpus.py",
        ' or cells[width - 1::width].count("\\n") != len(block)',
        "",
        "a block whose short lines balance a long one's field count is not split as plain",
        ("tests/test_parse_blocks.py",),
    ),
    Mutant(
        "csv-lone-cr-quoting",
        "src/heliobench/corpus.py",
        '(quoted if any("\\r" in cell for cell in row) else writer).writerow(row)',
        "writer.writerow(row)",
        "a row with a lone carriage return in a cell is written with every field quoted",
        ("tests/test_corpus.py",),
    ),
    Mutant(
        "checked-xml-forbidden",
        "src/heliobench/corpus.py",
        "forbidden = _XML_FORBIDDEN.search(category)",
        "forbidden = None",
        "a category holding a character XML 1.0 forbids is refused, with its line",
        ("tests/test_corpus.py",),
    ),
    Mutant(
        "checked-name-str",
        "src/heliobench/corpus.py",
        "if not (isinstance(journal, str) and isinstance(category, str)):",
        "if False:",
        "a journal or category that is not a str is refused, naming its field and key",
        (ROW_CHECK_TEST,),
    ),
    Mutant(
        "checked-value-not-bool",
        "src/heliobench/corpus.py",
        "isinstance(value, bool) or not isinstance(value, Real)",
        "not isinstance(value, Real)",
        "a bool indicator value is refused, not stored as 0.0 or 1.0",
        (ROW_CHECK_TEST,),
    ),
    Mutant(
        "checked-value-real",
        "src/heliobench/corpus.py",
        "isinstance(value, bool) or not isinstance(value, Real)",
        "isinstance(value, bool)",
        "an indicator value that is not a numbers.Real is refused with a CorpusFormatError",
        (ROW_CHECK_TEST,),
    ),
    Mutant(
        "block-xml-forbidden",
        "src/heliobench/corpus.py",
        '        and not _XML_FORBIDDEN.search("".join(set(categories)))\n',
        "",
        "a block holding a category XML 1.0 forbids is checked row by row and refused",
        ("tests/test_parse_blocks.py",),
    ),
    Mutant(
        "hist-skips-unbinnable",
        "src/heliobench/cli.py",
        "for indicator, spec in _skipping_empty(_indicators(resolved), bin_spec):",
        "for indicator, spec in map(bin_spec, _indicators(resolved)):",
        "with several indicators, hist skips one it cannot bin, with a warning",
        ("tests/test_cli.py::TestHistCommand::test_indicator_that_cannot_be_binned_is_skipped",),
    ),
    Mutant(
        "output-duplicate-names",
        "src/heliobench/cli.py",
        "if filename in written:",
        "if False:",
        "two documents with one file name are refused, and nothing is written",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "stdout-staged",
        "src/heliobench/cli.py",
        "staged.write(text if",
        "sys.stdout.write(text if",
        "stdout is written only once the last document is built",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "exit-input-code",
        "src/heliobench/cli.py",
        "        return EXIT_INPUT\n    except HeliobenchError",
        "        return EXIT_DOMAIN\n    except HeliobenchError",
        "a malformed corpus or an unreadable file exits 2",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "exit-domain-code",
        "src/heliobench/cli.py",
        "        return EXIT_DOMAIN\n    except Exception",
        "        return EXIT_INPUT\n    except Exception",
        "a domain error exits 3",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "exit-internal-code",
        "src/heliobench/cli.py",
        "        return EXIT_INTERNAL\n",
        "        return EXIT_DOMAIN\n",
        "an internal error exits 4",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "plain-block-nul",
        "src/heliobench/corpus.py",
        '        or "\\0" in text\n',
        "",
        "a line holding NUL is read by csv.reader, not split as a plain line",
        ("tests/test_parse_blocks.py", "tests/test_corpus.py"),
        equivalent="Python 3.11 and later: csv.reader reads NUL as str.split does; "
        "only 3.10's csv.reader rejects it",
    ),
)


def misplaced(mutants, root: Path = ROOT) -> list[str]:
    """One line per mutant whose old text does not occur exactly once."""
    problems = []
    for mutant in mutants:
        count = (root / mutant.path).read_text(encoding="utf-8").count(mutant.old)
        if count != 1:
            problems.append(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
    return problems


def unresolved(mutants, root: Path = ROOT) -> list[str]:
    """One line per test a mutant names that does not resolve: its file is
    missing, or a ::-separated part is no class or function of its module."""
    problems = []
    for mutant in mutants:
        for test in mutant.tests:
            path, *parts = test.split("::")
            if not (root / path).is_file():
                problems.append(f"{mutant.name}: no file {path}")
                continue
            scope = ast.parse((root / path).read_text(encoding="utf-8")).body
            for part in parts:
                found = [
                    node.body for node in scope
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == part
                ]
                if not found:
                    problems.append(f"{mutant.name}: {test} does not resolve")
                    break
                scope = found[0]
    return problems


def _pytest(copy: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {mutant.name for mutant in MUTANTS})
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}")
        return 2
    problems = misplaced(MUTANTS) + unresolved(MUTANTS)
    for problem in problems:
        print(problem)
    if problems:
        return 1
    selected = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_*", "output"))
        baseline = _pytest(copy, sorted({test for mutant in selected for test in mutant.tests}))
        if baseline.returncode != 0:
            print(baseline.stdout + baseline.stderr + "the unmutated copy fails its tests")
            return 1
        failed = 0
        for mutant in selected:
            path = copy / mutant.path
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                code = _pytest(copy, mutant.tests).returncode
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = {0: "survived", 1: "killed"}.get(code, f"pytest exited {code}")
            if mutant.equivalent:
                verdict += f" (equivalent: {mutant.equivalent})"
            elif code != 1:
                failed += 1
            print(f"{mutant.name}: {verdict}; breaks: {mutant.contract}", flush=True)
    print(f"{len(selected)} mutants, {failed} not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
