"""Rank every category against a reference by information gain.

Lower gain means the candidate's impact profile is closer to the
reference's. The demo corpus plants five categories drawn from the
reference's own generating distribution; they surface at the top of every
indicator's ranking.
"""

from pathlib import Path

from heliobench import BenchmarkRequest, cross_indicator_summary, load_corpus, run_benchmark, top_k

DATA = Path(__file__).resolve().parent.parent / "data" / "demo_corpus.csv"

K = 10

corpus = load_corpus(DATA)
results = run_benchmark(corpus, BenchmarkRequest(reference="Category 000"))
tops = [top_k(result, K) for result in results]

for result in tops:
    print(f"\n=== {result.indicator.label} (alpha={result.alpha}, "
          f"{result.spec.bin_count} {result.spec.scale} bins) ===")
    for rank, (name, gain) in enumerate(result.ranking, start=1):
        print(f"  {rank:2d}. {name}  gain={gain:.6f}")

summary = cross_indicator_summary(tops)
print(f"\n=== categories recurring across indicator top-{K}s ===")
for row in summary.rows:
    ranks = "  ".join(f"{code}={row.ranks[code]}" for code in ("if", "es", "ii"))
    print(f"  {row.category}  in {row.appearances}/3 rankings   {ranks}")
