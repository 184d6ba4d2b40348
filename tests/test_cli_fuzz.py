"""Generated CSV text, config files and flags through cli.main.

Every run must exit 0, 2 or 3 (never 4), write nothing to stdout when it
fails, and when it succeeds write stdout that parses: JSON documents with no
NaN or Infinity, CSV tables with finite gains, or SVG maps. Inputs are
mostly valid, with now and then one bad row, flag value, config entry or
prestige file, so that every exit code is reached.
"""

import csv
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from heliobench.cli import main
from heliobench.histogram import MAX_BIN_COUNT

HEADER = "journal,category,impact_factor,eigenfactor,immediacy"

CELLS = st.one_of(
    st.sampled_from(["", "0", "1", "2.5", " 3 ", "0.001"]),
    st.floats(min_value=0, max_value=100).map(repr),
)
ROWS = st.lists(
    st.tuples(st.integers(0, 20).map("j{}".format), st.sampled_from("ABC"), CELLS, CELLS, CELLS),
    min_size=3,
    max_size=12,
    unique_by=lambda row: row[:2],
)
# Rows that must be rejected, and rows at the edges of the float range.
ODD_ROWS = ["x,y", "j9,A,1,2,3,4", "j8,A,-1,,", "j8,A,nan,,", "j8,B,,inf,", "j8,C,,,abc",
            ",A,1,1,1", "j8,,1,1,1", "j0,A,1,1,1\nj0,A,2,2,2",
            "j8,A,1e308,,", "j8,B,1.7976931348623157e308,,", "j8,C,,5e-324,", "j8,A,0,0,0"]
BAD_HEADERS = ["﻿" + HEADER, "journal,category", ""]

# Stands for the run's temporary directory in generated paths.
TMP = "{tmp}"

# Option -> (valid values, values that must be rejected with exit 2 or 3).
OPTIONS = {
    "indicator": (["if", "es", "ii", "all"], ["zz"]),
    "bins": (["2", "3", "20", str(MAX_BIN_COUNT)],
             ["-1", "0", "1", str(MAX_BIN_COUNT + 1), "1000000000", "abc"]),
    "scale": (["linear", "log"], ["cubic"]),
    "alpha": (["0", "0.5", "-0.0", "1e-300", "1e308"], ["nan", "-1", "inf", "-inf", "abc"]),
    "reference": (["A", "B", "C"], ["Z"]),
    "k": (["1", "3", "30"], ["0", "-2"]),
    "format": (["json", "csv"], ["xml"]),
    "summary": (["true"], []),
    "category": (["A", "C"], ["Z"]),
    "min_records": (["0", "2"], ["x"]),
    "prestige": ([TMP + "/prestige.txt"], [TMP + "/missing.txt"]),
}
RANKING = ["indicator", "bins", "scale", "alpha", "reference", "k"]
COMMAND_OPTIONS = {
    "validate": ["min_records"],
    "hist": ["indicator", "bins", "scale", "alpha", "category"],
    "bench": RANKING + ["format", "summary"],
    "map": RANKING + ["prestige"],
}
JUNK_CONFIG = ["# comment", "", "no equals sign", "bogus=1"]

# Shrinking goes towards False, i.e. towards valid input.
SOMETIMES = st.integers(0, 3).map(lambda n: n == 3)
RARELY = st.integers(0, 11).map(lambda n: n == 11)


@st.composite
def prestige_files(draw):
    """The corpus's names and an unknown one in any order, among comments and
    blank lines, with LF or CRLF line ends and maybe a byte-order mark; now and
    then with a repeated name (exit 3) or a byte that is not UTF-8 (exit 2)."""
    names = draw(st.permutations(["A", "B", "C", "Z"]))[:draw(st.integers(0, 4))]
    lines = list(names)
    for junk in draw(st.lists(st.sampled_from(["# comment", "", "  ", " # A"]), max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), junk)
    if names and draw(RARELY):
        lines.insert(draw(st.integers(0, len(lines))), names[0])
    text = draw(st.sampled_from(["", "\ufeff"])) + draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    return text.encode("utf-8") + (b"\xff" if draw(RARELY) else b"")


@st.composite
def runs(draw):
    """(command, CSV text, config text or None, flags, prestige file bytes or None)."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    lines = [",".join(row) for row in draw(ROWS)]
    if draw(SOMETIMES):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(ODD_ROWS)))
    header = draw(st.sampled_from(BAD_HEADERS)) if draw(RARELY) else HEADER
    csv_text = "\n".join([header, *lines]) + "\n"

    flags, config, prestige = [], [], None
    for key in COMMAND_OPTIONS[command]:
        valid, invalid = OPTIONS[key]
        where = draw(st.sampled_from(["flag"] if key == "reference" else ["", "flag", "config"]))
        if not where:
            continue
        bad = invalid and draw(RARELY)
        value = draw(st.sampled_from(invalid if bad else valid))
        if key == "prestige" and not bad:
            prestige = draw(prestige_files())
        if where == "config":
            config.append(f"{key}={value}")
        elif key == "summary":
            flags.append("--summary")
        else:
            flags += ["--" + key.replace("_", "-"), value]
    if draw(RARELY):
        config.append(draw(st.sampled_from(JUNK_CONFIG)))
    return command, csv_text, "\n".join(config) if config else None, flags, prestige


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def json_documents(text):
    """Consecutive JSON documents, as the CLI prints one per table."""
    decoder = json.JSONDecoder(parse_constant=_reject_constant)
    docs, pos = [], 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return docs
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)


def check_stdout(command, resolved, stdout):
    if command == "map":
        assert stdout.startswith("<?xml") and stdout.rstrip().endswith("</svg>")
    elif command == "bench" and resolved["format"] == "csv":
        table = None
        for row in csv.reader(io.StringIO(stdout)):
            if row[:1] in (["rank"], ["category"]):
                table = row[0]
            elif table == "rank":
                assert math.isfinite(float(row[2]))
    else:
        assert json_documents(stdout)


@settings(max_examples=150, deadline=None)
@given(runs())
def test_exit_code_and_stdout_contract(run):
    command, csv_text, config, flags, prestige = run
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp, "corpus.csv")
        corpus.write_text(csv_text, encoding="utf-8")
        argv = [command, "--input", str(corpus), *(flag.replace(TMP, tmp) for flag in flags)]
        if prestige is not None:
            Path(tmp, "prestige.txt").write_bytes(prestige)
        if config is not None:
            Path(tmp, "run.cfg").write_text(config.replace(TMP, tmp), encoding="utf-8")
            argv += ["--config", str(Path(tmp, "run.cfg"))]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    event(f"{command} exit {code}")
    assert code in (0, 2, 3), err.getvalue()
    if code != 0:
        assert out.getvalue() == ""
        return
    resolved = json.loads(err.getvalue().splitlines()[0].removeprefix("resolved-config: "))
    check_stdout(command, resolved, out.getvalue())
