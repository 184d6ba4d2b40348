"""Regenerate data/demo_corpus.csv from the fixed-seed generator.

The demo corpus is make_synthetic_corpus() with its defaults. The committed
CSV is byte-for-byte this script's output; re-run it after changing the
generator and commit the result.
"""

from pathlib import Path

from heliobench import make_synthetic_corpus, serialize_corpus, validate_corpus

ROOT = Path(__file__).resolve().parent.parent
TARGET = ROOT / "data" / "demo_corpus.csv"


def main():
    corpus = make_synthetic_corpus()
    report = validate_corpus(corpus)
    print(f"generated {report.record_count} records in {report.category_count} categories")
    print(f"missing cells per indicator: {dict(report.missing_per_indicator)}")

    TARGET.parent.mkdir(exist_ok=True)
    TARGET.write_text(serialize_corpus(corpus), encoding="utf-8")
    print(f"wrote {TARGET}")


if __name__ == "__main__":
    main()
