"""Write tests/parity_data.json, the demo-corpus outputs that
tests/test_parity.py holds every change to.

For all 174 references of data/demo_corpus.csv and all three indicators,
at the default settings, the file holds digests of each ranking's order of
names, of each top-30 map and of each `hist` document with its bin edges
left out, the digest of the `validate` report, and the pooled bin edges of
each indicator, which the test compares within a tolerance. Run it from
the repository root after a change that is meant to move these outputs,
and say which digests moved, and why, in CHANGES.md:

    PYTHONPATH=src python tests/write_parity_data.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from heliobench import BenchmarkRequest, load_corpus, run_benchmark, top_k
from heliobench.cli import main
from heliobench.heliomap import layout_map, render_svg

DEMO = Path(__file__).resolve().parent.parent / "data" / "demo_corpus.csv"
DATA = Path(__file__).with_name("parity_data.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_stdout(command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main([command, "--input", str(DEMO)]) == 0
    return out.getvalue()


def outputs() -> tuple[str, list[dict], list]:
    """The demo corpus's validate report, its hist documents, and the
    BenchmarkResult of every reference and indicator, all at the defaults."""
    hist = [json.loads(line) for line in cli_stdout("hist").splitlines()]
    corpus = load_corpus(DEMO)
    results = [
        result
        for reference in corpus.category_names()
        for result in run_benchmark(corpus, BenchmarkRequest(reference=reference))
    ]
    return cli_stdout("validate"), hist, results


def digests(validate: str, hist: list[dict], results: list) -> dict:
    """What parity_data.json holds of outputs(); edges are those of the
    first hist document of each indicator."""
    data = {"validate": sha256(validate), "edges": {}, "hist": {}, "rankings": {}, "maps": {}}
    for doc in hist:
        code, rest = doc["indicator"], {k: v for k, v in doc.items() if k != "edges"}
        data["edges"].setdefault(code, doc["edges"])
        data["hist"].setdefault(code, {})[doc["category"]] = sha256(json.dumps(rest, sort_keys=True))
    for result in results:
        code, reference = result.indicator.code, result.reference
        names = "\n".join(name for name, _ in result.ranking)
        data["rankings"].setdefault(code, {})[reference] = sha256(names)
        data["maps"].setdefault(code, {})[reference] = sha256(render_svg(layout_map(top_k(result, 30))))
    return data


if __name__ == "__main__":
    DATA.write_text(json.dumps(digests(*outputs()), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DATA}")
