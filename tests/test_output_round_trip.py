"""Every stdout document of the CLI parses, and gives every category name back.

Random small corpora, whose category names are drawn from all of Unicode
with extra weight on line ends, quotes, commas and the other characters an
output format treats specially, are written with write_corpus_csv and run
through cli.main. JSON must load; CSV must read back with csv.reader at its
header's width, with the JSON's names and gains; SVG must parse, with the
names as its labels. A prestige file and a config file name categories too.
"""

import csv
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from xml.dom import minidom

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from heliobench import Corpus, CorpusFormatError, JournalRecord, write_corpus_csv
from heliobench.cli import main

XML_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>'
SPECIAL = '\r\n,"#=&<> \t\x85\u2028\u2029\ufeff'


def _accepted(name):
    try:
        Corpus([JournalRecord("j", name, 1.0)])
    except CorpusFormatError:
        return False
    return True


NAMES = st.text(
    st.one_of(st.sampled_from(SPECIAL), st.characters()), min_size=1, max_size=6
).filter(_accepted)
VALUES = st.floats(0.01, 100.0)


@st.composite
def corpora(draw):
    """(records, reference name)."""
    names = draw(st.lists(NAMES, min_size=2, max_size=5, unique=True))
    records = [
        JournalRecord(f"j{j}", name, *draw(st.tuples(VALUES, VALUES, VALUES)))
        for name in names
        for j in range(draw(st.integers(1, 4)))
    ]
    return records, draw(st.sampled_from(names))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    return out.getvalue()


def _json_documents(text):
    """The JSON documents of stdout, each followed by one line feed."""
    decoder, docs, pos = json.JSONDecoder(), [], 0
    while pos < len(text):
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
        pos += 1
    return docs


def _svg_documents(text):
    return [
        minidom.parseString((XML_DECLARATION + svg).encode("utf-8"))
        for svg in text.split(XML_DECLARATION)[1:]
    ]


def _labels(document):
    """The text of every <text> element, centre label first."""
    texts = document.getElementsByTagName("text")
    return ["".join(node.data for node in el.childNodes) for el in texts]


def _clockwise_labels(document):
    """Dot labels ordered clockwise from the top, by their dots' positions."""
    mid = float(document.documentElement.getAttribute("width")) / 2
    circles = document.getElementsByTagName("circle")
    angles = [
        (90 - math.degrees(math.atan2(mid - float(c.getAttribute("cy")),
                                      float(c.getAttribute("cx")) - mid))) % 360
        for c in circles if c.getAttribute("class") == "dot"
    ]
    return [label for _, label in sorted(zip(angles, _labels(document)[1:]))]


# Without the explain phase, which traces every line of each run it makes:
# with it, shrinking a failure here took minutes and over a gigabyte.
@settings(max_examples=40, deadline=None, phases=set(Phase) - {Phase.explain})
@given(corpora())
def test_every_output_parses_and_gives_every_name_back(drawn):
    records, reference = drawn
    corpus = Corpus(records)
    others = sorted(set(corpus.category_names()) - {reference})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "corpus.csv")
        write_corpus_csv(corpus, path)
        # The = form, since argparse reads a separate value starting with - as an option.
        argv = ["--input", str(path), f"--reference={reference}", "--indicator", "all"]
        docs = _json_documents(_run(["bench", *argv, "--summary"]))
        table = _run(["bench", *argv, "--summary", "--format", "csv"])
        maps = [_labels(document) for document in _svg_documents(_run(["map", *argv]))]

        # Names that fit on a line of a prestige file, listed in reverse
        # ranking order; the dots of the rest follow, by ascending gain.
        gains = {e["category"]: e["gain"] for e in docs[0]["ranking"]}
        listable = [n for n in gains if "\n" not in n and "\r" not in n and n[0] != "#"][::-1]
        # The comment keeps a name that starts with U+FEFF off the file's first bytes.
        text = "\n".join(["# best first", *listable]) + "\n"
        Path(tmp, "prestige.txt").write_text(text, encoding="utf-8")
        prestige = _run(["map", *argv, "--prestige", str(Path(tmp, "prestige.txt"))])
        if "\n" not in reference and "\r" not in reference:
            Path(tmp, "run.cfg").write_text(f"reference={reference}\n", encoding="utf-8")
            config = ["--config", str(Path(tmp, "run.cfg"))]
            by_config = _run(["bench", "--input", str(path), "--indicator", "all", *config])
            assert _json_documents(by_config) == docs[:3]

    assert len(docs) == 4 and len(maps) == 3
    rows = list(csv.reader(io.StringIO(table, newline="")))
    for doc, labels in zip(docs[:3], maps):
        names = [e["category"] for e in doc["ranking"]]
        assert doc["reference"] == reference and sorted(names) == others
        header, *body = rows[:len(names) + 1]
        del rows[:len(names) + 1]
        assert header == ["rank", "category", "gain"]
        assert all(len(row) == 3 for row in body)
        assert [row[1] for row in body] == names
        assert [float(row[2]) for row in body] == [e["gain"] for e in doc["ranking"]]
        assert labels == [reference, *names]
    header, *body = rows
    assert header == ["category", "appearances", "rank_if", "rank_es", "rank_ii"]
    assert all(len(row) == 5 for row in body)
    assert [row[0] for row in body] == [r["category"] for r in docs[3]["rows"]]
    assert sorted(row[0] for row in body) == others

    rest = sorted(set(gains) - set(listable), key=lambda n: (gains[n], n))
    assert _clockwise_labels(_svg_documents(prestige)[0]) == listable + rest
