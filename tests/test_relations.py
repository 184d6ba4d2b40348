"""Relations between benchmark runs on random small corpora.

Reordering the rows changes no output byte. A copy of the reference under
a new name gets gain exactly 0.0 and ranks first. Doubling every value,
with every indicator binned linearly, changes no gain: scaling by a power of
two commutes with linspace edges and searchsorted. (Geometric edges are not
exact under scaling, so the log scale is not tested.) Every gain agrees
with the arbitrary-precision oracle within 1e-12.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heliobench import (
    BenchmarkRequest,
    Corpus,
    JournalRecord,
    build_histogram,
    category_values,
    cross_indicator_summary,
    layout_map,
    render_svg,
    run_benchmark,
)

from oracle import kl_direct


# Corpus rejects a name that starts or ends with whitespace.
NAMES = st.text("ab,\r\"<", min_size=1, max_size=3).filter(lambda name: name.strip() == name)
POSITIVE = st.floats(1e-3, 1e3)
VALUES = st.one_of(st.none(), st.just(0.0), POSITIVE)


@st.composite
def corpora(draw):
    """(records, reference name). The reference's values are all positive,
    so that it can be ranked against on every indicator and scale."""
    names = draw(st.lists(NAMES, min_size=2, max_size=6, unique=True))
    reference = draw(st.sampled_from(names))
    records = [
        JournalRecord(f"j{j}", name, *draw(st.tuples(*[POSITIVE if name == reference else VALUES] * 3)))
        for name in names
        for j in range(draw(st.integers(1, 5)))
    ]
    return records, reference


def _outputs(records, reference):
    results = run_benchmark(Corpus(records), BenchmarkRequest(reference=reference))
    return [
        # A map needs one candidate or more.
        (json.dumps(result.to_dict(), sort_keys=True), result.to_csv(),
         result.ranking and render_svg(layout_map(result)))
        for result in results
    ] + [cross_indicator_summary(results).to_csv()]


def _rankings(results):
    return [[(name, repr(gain)) for name, gain in result.ranking] for result in results]


@settings(max_examples=50, deadline=None)
@given(corpora(), st.data())
def test_a_row_permutation_changes_no_output_byte(drawn, data):
    records, reference = drawn
    shuffled = data.draw(st.permutations(records))
    assert _outputs(shuffled, reference) == _outputs(records, reference)


@settings(max_examples=50, deadline=None)
@given(corpora(), NAMES)
def test_a_copy_of_the_reference_ranks_first_with_gain_zero(drawn, name):
    records, reference = drawn
    assume(name not in {record.category for record in records})
    copy = [replace(record, category=name) for record in records if record.category == reference]
    for result in run_benchmark(Corpus(records + copy), BenchmarkRequest(reference=reference)):
        assert repr(dict(result.ranking)[name]) == "0.0"
        zero = sorted(candidate for candidate, gain in result.ranking if gain == 0.0)
        assert list(result.ranking[:len(zero)]) == [(candidate, 0.0) for candidate in zero]


@settings(max_examples=50, deadline=None)
@given(corpora())
def test_doubling_every_value_on_linear_bins_changes_no_gain(drawn):
    records, reference = drawn
    doubled = [
        JournalRecord(record.journal, record.category, *[
            None if value is None else 2 * value
            for value in (record.impact_factor, record.eigenfactor, record.immediacy)
        ])
        for record in records
    ]
    request = BenchmarkRequest(reference=reference, scale="linear")
    assert _rankings(run_benchmark(Corpus(doubled), request)) == _rankings(
        run_benchmark(Corpus(records), request)
    )


@settings(max_examples=30, deadline=None)
@given(corpora())
def test_every_gain_agrees_with_the_oracle(drawn):
    records, reference = drawn
    corpus = Corpus(records)
    for result in run_benchmark(corpus, BenchmarkRequest(reference=reference)):
        def histogram(name):
            values, _ = category_values(corpus, name, result.indicator)
            return build_histogram(values, result.spec, result.alpha).probabilities

        p = histogram(reference)
        for name, gain in result.ranking:
            assert gain == pytest.approx(kl_direct(p, histogram(name)), rel=0, abs=1e-12)
