"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS line when it
holds (run with `pytest tests/test_acceptance.py -v -s` to see them).
Tolerances are fixed here and are not calibration knobs.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from heliobench import (
    BenchmarkRequest,
    BinSpec,
    Corpus,
    Histogram,
    Indicator,
    JournalRecord,
    build_histogram,
    expected_unexpectedness,
    information_gain,
    layout_map,
    load_corpus,
    make_synthetic_corpus,
    render_svg,
    run_benchmark,
    serialize_corpus,
    top_k,
)
from heliobench.cli import main

from oracle import brute_force_counts, kl_direct, random_positive_pairs

PAIR_SEED = 20100731
N_PAIRS = 1000


def _report(criterion, text):
    print(f"criterion {criterion}: PASS  {text}")


def _hist(probs):
    return Histogram(BinSpec(0.0, 1.0, len(probs)), probs)


@pytest.fixture(scope="module")
def seeded_pairs():
    pairs = random_positive_pairs(N_PAIRS, dim_low=2, dim_high=50, seed=PAIR_SEED)
    assert len(pairs) == N_PAIRS
    return pairs


@pytest.fixture(scope="module")
def demo_corpus(demo_csv_path):
    return load_corpus(demo_csv_path)


def test_criterion_1_divergence_oracle_equivalence(seeded_pairs):
    start = time.perf_counter()
    worst = 0.0
    for p, q in seeded_pairs:
        value = information_gain(_hist(p), _hist(q)).value
        worst = max(worst, abs(value - kl_direct(p, q)))
        assert worst < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"{N_PAIRS} pairs within 1e-12 of arbitrary-precision oracle "
               f"(worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_divergence_properties(seeded_pairs):
    start = time.perf_counter()
    for p, q in seeded_pairs:
        hp, hq = _hist(p), _hist(q)
        gain = information_gain(hp, hq).value
        assert gain >= -1e-12  # Gibbs inequality

        assert information_gain(hp, hp).value < 1e-12  # self-gain vanishes

        # difference of expectations equals direct summation
        diff_form = expected_unexpectedness(hp, hq) - expected_unexpectedness(hp, hp)
        direct = math.fsum(pi * math.log(pi / qi) for pi, qi in zip(p, q))
        assert abs(diff_form - direct) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"Gibbs, self-gain and summation identity hold on {N_PAIRS} pairs "
               f"({elapsed:.2f}s)")


def test_criterion_3_histogram_correctness():
    rng = np.random.default_rng(PAIR_SEED)
    for _ in range(100):
        n_vals = int(rng.integers(1, 21))
        bins = int(rng.integers(2, 9))
        upper = float(rng.uniform(5.0, 50.0))
        values = rng.uniform(0.0, upper, n_vals).tolist()
        spec = BinSpec(0.0, upper * (1 + 1e-9), bins)

        unsmoothed = build_histogram(values, spec, alpha=0.0)
        counts = brute_force_counts(values, spec.edges().tolist())
        exact = [float(Fraction(c, n_vals)) for c in counts]
        assert unsmoothed.probabilities.tolist() == exact
        assert abs(math.fsum(unsmoothed.probabilities.tolist()) - 1.0) < 1e-12

        smoothed = build_histogram(values, spec, alpha=float(rng.uniform(0.1, 3.0)))
        assert abs(math.fsum(smoothed.probabilities.tolist()) - 1.0) < 1e-12

    saturated = build_histogram([1.0, 2.0, 9.5], BinSpec(0.0, 10.0, 20), alpha=1e9)
    assert np.max(np.abs(saturated.probabilities - 1.0 / 20)) < 1e-6
    _report(3, "100 seeded cases match exact rational counting; sums within 1e-12; "
               "alpha=1e9 within 1e-6 of uniform")


def test_criterion_4_self_similarity():
    for seed in range(20):
        corpus = make_synthetic_corpus(
            n_categories=7, clones=1, seed=seed, journals_low=15, journals_high=30,
            missing_rate=0.05,
        )
        names = corpus.category_names()
        original = names[seed % len(names)]
        twin = "Duplicated Twin"
        records = list(corpus.records) + [
            JournalRecord(rec.journal, twin, rec.impact_factor, rec.eigenfactor, rec.immediacy)
            for rec in corpus.categories[original]
        ]
        results = run_benchmark(Corpus(records), BenchmarkRequest(reference=original))
        for result in results:
            top_name, top_gain = result.ranking[0]
            assert top_name == twin, (seed, result.indicator)
            assert top_gain < 1e-12
    _report(4, "duplicated category ranks 1 with gain < 1e-12 in 20 seeded corpora "
               "across all indicators")


def test_criterion_5_synthetic_recovery(demo_corpus):
    assert len(demo_corpus.categories) == 174

    start = time.perf_counter()
    results = run_benchmark(demo_corpus, BenchmarkRequest(reference="Category 000"))
    svgs = [render_svg(layout_map(top_k(r, 30))) for r in results]
    elapsed = time.perf_counter() - start

    clones = {f"Category {i:03d}" for i in range(1, 6)}
    if_result = next(r for r in results if r.indicator is Indicator.IMPACT_FACTOR)
    top10 = {name for name, _ in if_result.ranking[:10]}
    assert clones <= top10
    assert elapsed < 1.0
    assert all(svgs)
    _report(5, f"all 5 same-distribution categories in IF top 10; "
               f"bench+map over 3 indicators took {elapsed:.3f}s")


def test_criterion_6_paper_structure(demo_corpus):
    results = run_benchmark(demo_corpus, BenchmarkRequest(reference="Category 000"))
    assert len(results[0].ranking) == 173  # full ranking retained
    for result in results:
        truncated = top_k(result, 30)
        assert len(truncated.ranking) == 30

        layout = layout_map(truncated)
        assert len(layout.dots) == 30
        for a, b in zip(layout.dots, layout.dots[1:]):
            assert a.angle_degrees - b.angle_degrees == 360.0 / 30

        radii = [d.radius_fraction for d in layout.dots]
        gains = [d.gain for d in layout.dots]
        order_by_radius = sorted(range(30), key=lambda i: (radii[i], i))
        order_by_gain = sorted(range(30), key=lambda i: (gains[i], i))
        assert order_by_radius == order_by_gain

        svg = render_svg(layout)
        assert svg.count('class="dot"') == 30
    _report(6, "rankings and maps carry exactly 30 entries; angle step exactly 12 "
               "degrees; radii monotone in gain")


def test_criterion_7_determinism(demo_corpus, demo_csv_path, tmp_path):
    shuffled_path = tmp_path / "shuffled.csv"
    lines = demo_csv_path.read_text(encoding="utf-8").splitlines()
    header, rows = lines[0], lines[1:]
    rng = np.random.default_rng(0)
    rng.shuffle(rows)
    shuffled_path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")

    # the committed CSV is the fixed-seed generator output
    assert serialize_corpus(make_synthetic_corpus()) == demo_csv_path.read_text(encoding="utf-8")

    outputs = {}
    for label, source in [("run1", demo_csv_path), ("run2", demo_csv_path),
                          ("shuffled", shuffled_path)]:
        out = tmp_path / label
        assert main(["bench", "--input", str(source), "--reference", "Category 000",
                     "--out", str(out)]) == 0
        assert main(["map", "--input", str(source), "--reference", "Category 000",
                     "--out", str(out)]) == 0
        outputs[label] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        }
    assert outputs["run1"] == outputs["run2"]
    assert outputs["run1"] == outputs["shuffled"]
    assert len(outputs["run1"]) == 6  # 3 rankings + 3 maps
    _report(7, "bench and map outputs byte-identical across re-runs and row "
               "permutations")


def test_criterion_8_cli_contract(tmp_path, demo_csv_path):
    malformed = tmp_path / "malformed.csv"
    malformed.write_text(
        "journal,category,impact_factor,eigenfactor,immediacy\n"
        "a1,A,1.0,0.01,0.2\n"
        "a2,A,not_a_number,0.02,0.4\n",
        encoding="utf-8",
    )

    assert main(["validate", "--input", str(demo_csv_path)]) == 0
    assert main(["validate", "--input", str(malformed)]) == 2
    assert main(["bench", "--input", str(demo_csv_path), "--reference", "No Such Category",
                 "--indicator", "if"]) == 3
    _report(8, "exit codes 0/2/3 verified on valid, malformed and unknown-reference "
               "inputs")


def test_demo_corpus_benchmark_snapshot(demo_corpus):
    """Golden anchor: the demo corpus IF ranking leader and its gain are stable."""
    (result,) = run_benchmark(
        demo_corpus,
        BenchmarkRequest(reference="Category 000", indicators=(Indicator.IMPACT_FACTOR,)),
    )
    payload = json.dumps(result.to_dict(), sort_keys=True)
    assert json.loads(payload)["ranking"][0]["category"] == "Category 001"
