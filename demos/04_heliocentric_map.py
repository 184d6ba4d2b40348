"""Render heliocentric clockwise maps for a reference category.

The reference sits at the center; each of the top-k most similar
categories becomes a dot whose distance from the center encodes its
information gain. Without a prestige order the dots run clockwise from the
top in ascending gain; with one, clockwise position follows the supplied
prestige ranking instead, so radius (similarity) and position (prestige)
can be read independently.
"""

from pathlib import Path

from heliobench import (
    BenchmarkRequest,
    layout_map,
    load_corpus,
    parse_prestige_order,
    render_svg,
    run_benchmark,
    top_k,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

corpus = load_corpus(ROOT / "data" / "demo_corpus.csv")
results = run_benchmark(corpus, BenchmarkRequest(reference="Category 000"))

for result in results:
    layout = layout_map(top_k(result, 30))
    target = OUT / f"map_{result.indicator.code}.svg"
    target.write_text(render_svg(layout), encoding="utf-8")
    closest = layout.dots[0]
    print(f"{result.indicator.label}: wrote {target.name}; innermost dot "
          f"{closest.label} at radius {closest.radius_fraction:.3f}")

# With an external prestige order the clockwise sequence changes while the
# radii stay put.
if_result = top_k(results[0], 10)
prestige = parse_prestige_order(
    "\n".join(name for name, _ in sorted(if_result.ranking, reverse=True))
)
layout = layout_map(if_result, order=prestige)
target = OUT / "map_if_prestige_order.svg"
target.write_text(render_svg(layout), encoding="utf-8")
print(f"\nwith prestige order: wrote {target.name}; top slot now "
      f"{layout.dots[0].label}")
