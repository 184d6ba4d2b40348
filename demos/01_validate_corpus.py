"""Load the demo corpus and inspect its shape.

Shows the ingestion surface: parsing, the category index, per-indicator
missing-value handling and the validation report.
"""

import json
from pathlib import Path

from heliobench import Indicator, category_values, load_corpus, validate_corpus

DATA = Path(__file__).resolve().parent.parent / "data" / "demo_corpus.csv"

corpus = load_corpus(DATA)
print(f"loaded {len(corpus)} (journal, category) records")
print(f"categories: {len(corpus.category_names())}")

# one category up close
name = corpus.category_names()[0]
records = [rec for rec in corpus.records if rec.category == name]
print(f"\n{name}: {len(records)} journals, first three:")
for rec in records[:3]:
    print(f"  {rec.journal}: IF={rec.impact_factor} ES={rec.eigenfactor} II={rec.immediacy}")

values, skipped = category_values(corpus, name, Indicator.IMPACT_FACTOR)
print(f"\n{name} impact-factor values: {len(values)} present, {skipped} missing")

report = validate_corpus(corpus, min_records=5)
print("\nvalidation report:")
print(json.dumps({k: v for k, v in report.to_dict().items() if k != "records_per_category"},
                 indent=2, sort_keys=True))
