import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heliobench import (
    AbsoluteContinuityError,
    BinSpec,
    GainValue,
    Histogram,
    IncompatibleSupportError,
    InvalidInputError,
    expected_unexpectedness,
    gains_against_reference,
    information_gain,
    unexpectedness,
)

from oracle import cross_entropy_direct, kl_direct, random_positive_pairs

LN2 = 0.6931471805599453


def hist(probs, spec=None):
    return Histogram(spec or BinSpec(0.0, 1.0, len(probs)), probs)


class TestUnexpectedness:
    def test_certain_event_is_unsurprising(self):
        assert unexpectedness(1.0) == 0.0

    def test_half_probability(self):
        assert unexpectedness(0.5) == pytest.approx(LN2, abs=1e-15)

    def test_quarter_probability(self):
        assert unexpectedness(0.25) == pytest.approx(1.3862943611198906, abs=1e-15)

    def test_strictly_decreasing(self):
        probs = [0.01, 0.1, 0.5, 0.9, 1.0]
        surprises = [unexpectedness(p) for p in probs]
        assert surprises == sorted(surprises, reverse=True)

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.0000001, 2.0])
    def test_domain_errors(self, p):
        with pytest.raises(InvalidInputError):
            unexpectedness(p)


class TestExpectedUnexpectedness:
    def test_degenerate_certain_bin(self):
        # all mass in one interval for both distributions
        p = hist([1.0, 0.0])
        assert expected_unexpectedness(p, p) == 0.0

    def test_uniform_two_bins(self):
        p = hist([0.5, 0.5])
        assert expected_unexpectedness(p, p) == pytest.approx(LN2, abs=1e-15)

    def test_zero_probability_terms_drop(self):
        p = hist([1.0, 0.0])
        q = hist([0.5, 0.5])
        assert expected_unexpectedness(p, q) == pytest.approx(LN2, abs=1e-15)

    def test_mismatched_support_rejected(self):
        p = hist([0.5, 0.5], BinSpec(0.0, 1.0, 2))
        q = hist([0.5, 0.5], BinSpec(0.0, 2.0, 2))
        with pytest.raises(IncompatibleSupportError):
            expected_unexpectedness(p, q)

    def test_absolute_continuity_violation_names_bin(self):
        p = hist([0.5, 0.5])
        q = hist([1.0, 0.0])
        with pytest.raises(AbsoluteContinuityError) as exc_info:
            expected_unexpectedness(p, q)
        assert exc_info.value.bin_index == 1

    def test_matches_oracle(self):
        for p, q in random_positive_pairs(25, seed=3):
            hp, hq = hist(p), hist(q)
            assert expected_unexpectedness(hp, hq) == pytest.approx(
                cross_entropy_direct(p, q), abs=1e-12
            )


class TestInformationGain:
    def test_self_gain_is_zero(self):
        for probs in ([0.5, 0.5], [0.9, 0.1], [0.2, 0.3, 0.5]):
            assert information_gain(hist(probs), hist(probs)).value == 0.0

    def test_frozen_value_mild_divergence(self):
        gv = information_gain(hist([0.5, 0.5]), hist([0.25, 0.75]))
        assert gv.value == pytest.approx(0.14384103622589045, abs=1e-12)

    def test_frozen_value_strong_divergence(self):
        gv = information_gain(hist([0.9, 0.1]), hist([0.1, 0.9]))
        assert gv.value == pytest.approx(1.7577796618689756, abs=1e-12)

    def test_matches_oracle_on_random_pairs(self):
        for p, q in random_positive_pairs(50, seed=5):
            gv = information_gain(hist(p), hist(q))
            assert gv.value == pytest.approx(kl_direct(p, q), abs=1e-12)

    def test_asymmetry_witness(self):
        p, q = hist([0.9, 0.1]), hist([0.3, 0.7])
        forward = information_gain(p, q).value
        backward = information_gain(q, p).value
        assert abs(forward - backward) > 0.1

    def test_absolute_continuity_violation(self):
        with pytest.raises(AbsoluteContinuityError):
            information_gain(hist([0.5, 0.5]), hist([1.0, 0.0]))


@st.composite
def positive_pair(draw):
    dim = draw(st.integers(min_value=2, max_value=12))
    raw_p = draw(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=dim, max_size=dim)
    )
    raw_q = draw(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=dim, max_size=dim)
    )
    p = [x / math.fsum(raw_p) for x in raw_p]
    q = [x / math.fsum(raw_q) for x in raw_q]
    return p, q


@given(positive_pair())
@settings(max_examples=200, deadline=None)
def test_gibbs_inequality_property(pair):
    p, q = pair
    assert information_gain(hist(p), hist(q)).value >= -1e-12


@given(positive_pair())
@settings(max_examples=200, deadline=None)
def test_cross_entropy_dominates_entropy_property(pair):
    p, q = pair
    hp, hq = hist(p), hist(q)
    assert expected_unexpectedness(hp, hq) >= expected_unexpectedness(hp, hp) - 1e-12


class TestGainValue:
    def test_is_a_frozen_value_object(self):
        gv = GainValue(0.25, candidate="b")
        assert gv == GainValue(value=0.25, reference="", candidate="b")
        assert hash(gv) == hash(GainValue(0.25, "", "b"))
        assert repr(gv) == "GainValue(value=0.25, reference='', candidate='b')"
        assert dataclasses.replace(gv, reference="a") == GainValue(0.25, "a", "b")
        with pytest.raises(dataclasses.FrozenInstanceError):
            gv.value = 1.0


class TestGainsAgainstReference:
    def test_reference_copy_scores_zero(self):
        ref = hist([0.4, 0.6])
        gains = gains_against_reference(ref, {"X": hist([0.4, 0.6])})
        assert len(gains) == 1
        assert gains[0].candidate == "X"
        assert gains[0].value == 0.0

    def test_empty_candidates(self):
        assert gains_against_reference(hist([0.5, 0.5]), {}) == []

    def test_candidates_in_lexicographic_order(self):
        ref = hist([0.4, 0.6])
        candidates = {name: hist([0.5, 0.5]) for name in ["zeta", "alpha", "mid"]}
        gains = gains_against_reference(ref, candidates)
        assert [g.candidate for g in gains] == ["alpha", "mid", "zeta"]

    def test_reference_name_excluded(self):
        ref = hist([0.4, 0.6])
        candidates = {"Ref": ref, "Other": hist([0.5, 0.5])}
        gains = gains_against_reference(ref, candidates, reference_name="Ref")
        assert [g.candidate for g in gains] == ["Other"]

    def test_per_pair_values_match_oracle(self):
        ref_probs = [0.2, 0.5, 0.3]
        candidates = {"a": [0.1, 0.6, 0.3], "b": [0.3, 0.3, 0.4]}
        gains = gains_against_reference(
            hist(ref_probs), {k: hist(v) for k, v in candidates.items()}
        )
        for gv in gains:
            assert gv.value == pytest.approx(
                kl_direct(ref_probs, candidates[gv.candidate]), abs=1e-12
            )

    def test_errors_name_the_candidate(self):
        ref = hist([0.5, 0.5])
        with pytest.raises(AbsoluteContinuityError, match="bad_candidate"):
            gains_against_reference(ref, {"bad_candidate": hist([1.0, 0.0])})

    def test_probability_vectors_score_like_histograms(self):
        ref = hist([0.2, 0.5, 0.3])
        vectors = {"a": np.array([0.1, 0.6, 0.3]), "b": np.array([0.3, 0.3, 0.4])}
        from_vectors = gains_against_reference(ref, vectors)
        from_hists = gains_against_reference(ref, {k: hist(v) for k, v in vectors.items()})
        assert from_vectors == from_hists

    def test_identical_candidates_get_equal_gains_and_a_copy_gets_zero(self):
        rng = np.random.default_rng(7)
        for bins in (2, 7, 20, 129, 10_000):
            p = rng.dirichlet(np.ones(bins))
            q = rng.dirichlet(np.ones(bins))
            gains = gains_against_reference(
                hist(p), {"copy": p.copy(), "q1": q, "q2": q.copy(), "self": p}, reference_name="self"
            )
            values = {g.candidate: g.value for g in gains}
            assert values["copy"] == 0.0
            assert values["q1"] == values["q2"] > 0.0

    def test_first_offending_candidate_in_name_order_is_named(self):
        ref = hist([0.25, 0.25, 0.5])
        candidates = {"zed": np.array([0.5, 0.5, 0.0]), "bee": np.array([0.0, 0.5, 0.5]),
                      "ant": np.array([0.2, 0.3, 0.5])}
        with pytest.raises(AbsoluteContinuityError, match="'bee'") as exc_info:
            gains_against_reference(ref, candidates)
        assert exc_info.value.bin_index == 0

    @pytest.mark.parametrize(
        "first, second, error",
        [
            ("empty_bin", "wide", AbsoluteContinuityError),
            ("wide", "empty_bin", IncompatibleSupportError),
            ("nan", "empty_bin", InvalidInputError),
            ("empty_bin", "nan", AbsoluteContinuityError),
            ("short", "nan", IncompatibleSupportError),
        ],
    )
    def test_first_offending_candidate_is_named_whatever_its_check(self, first, second, error):
        spec = BinSpec(0.0, 1.0, 3)
        misfits = {
            "empty_bin": hist([0.5, 0.5, 0.0], spec),
            "wide": hist([0.2, 0.3, 0.5], BinSpec(0.0, 2.0, 3)),
            "nan": np.array([float("nan"), 0.5, 0.5]),
            "short": np.array([0.5, 0.5]),
        }
        candidates = {"a": misfits[first], "b": misfits[second], "c": hist([0.2, 0.3, 0.5], spec)}
        with pytest.raises(error, match="'a'"):
            gains_against_reference(hist([0.25, 0.25, 0.5], spec), candidates)

    def test_scoring_in_blocks_matches_scoring_one_by_one(self, monkeypatch):
        import heliobench.infogain

        rng = np.random.default_rng(11)
        ref = hist(rng.dirichlet(np.ones(16)))
        candidates = {f"c{i:02d}": rng.dirichlet(np.ones(16)) for i in range(25)}
        whole = gains_against_reference(ref, candidates)
        monkeypatch.setattr(heliobench.infogain, "BLOCK_ELEMENTS", 3 * 16)
        assert gains_against_reference(ref, candidates) == whole
        assert [g.value for g in whole] == [
            information_gain(ref, hist(q)).value for _, q in sorted(candidates.items())
        ]

    def test_incompatible_histogram_candidate_is_named(self):
        ref = hist([0.5, 0.5], BinSpec(0.0, 1.0, 2))
        candidates = {"fine": hist([0.4, 0.6], BinSpec(0.0, 1.0, 2)),
                      "wide": hist([0.4, 0.6], BinSpec(0.0, 2.0, 2))}
        with pytest.raises(IncompatibleSupportError, match="'wide'"):
            gains_against_reference(ref, candidates)

    @pytest.mark.parametrize(
        "vector, error",
        [
            ([0.5, 0.25, 0.25], IncompatibleSupportError),
            ([1.5, -0.5], InvalidInputError),
            ([float("nan"), 1.0], InvalidInputError),
        ],
    )
    def test_malformed_probability_vector_is_named(self, vector, error):
        with pytest.raises(error, match="'bad'"):
            gains_against_reference(hist([0.5, 0.5]), {"bad": np.array(vector), "ok": [0.5, 0.5]})

    def test_matrix_rows_score_like_a_dict_of_their_rows(self):
        from heliobench.infogain import _Rows

        matrix = np.random.default_rng(5).dirichlet(np.ones(6), size=5)
        rows = _Rows(["a", "b", "ref", "x", "y"], matrix)
        assert len(rows) == 5 and "ref" in rows and "c" not in rows
        ref = hist(matrix[2])
        for reference_name in ("ref", "", "c"):
            assert gains_against_reference(ref, rows, reference_name=reference_name) == (
                gains_against_reference(ref, dict(rows), reference_name=reference_name)
            )

    @pytest.mark.parametrize("zero_bins", [0, 2])
    def test_contiguous_and_column_major_matrices_score_alike(self, zero_bins):
        from heliobench.infogain import _Rows

        rng = np.random.default_rng(9)
        matrix = rng.dirichlet(np.ones(12), size=7)
        p = rng.dirichlet(np.ones(12))
        p[:zero_bins] = 0.0
        ref = hist(p / p.sum())
        names = [f"c{i}" for i in range(7)]
        assert gains_against_reference(ref, _Rows(names, matrix)) == (
            gains_against_reference(ref, _Rows(names, np.asfortranarray(matrix)))
        )

    def test_gains_are_python_floats(self):
        gains = gains_against_reference(hist([0.2, 0.8]), {"a": hist([0.6, 0.4])})
        assert type(gains[0].value) is float
        assert type(information_gain(hist([0.2, 0.8]), hist([0.6, 0.4])).value) is float


@pytest.mark.parametrize(
    "bad, error",
    [
        ([0.6, 0.6, -0.2], InvalidInputError),  # invalid only where p = 0
        ([0.5, 0.5, float("nan")], InvalidInputError),
        ([1.0, 0.0, 0.0], AbsoluteContinuityError),
        ([0.5, 1e-320, 0.5], ArithmeticError),  # p / q overflows
    ],
)
def test_first_offender_in_a_later_block_is_named(monkeypatch, bad, error):
    import heliobench.infogain

    monkeypatch.setattr(heliobench.infogain, "BLOCK_ELEMENTS", 2 * 3)  # two rows per block
    candidates = {f"c{i}": np.array([0.3, 0.3, 0.4]) for i in range(6)}
    candidates["c3"] = np.array(bad)
    candidates["c5"] = np.array([0.0, 1.0, 0.0])
    with pytest.raises(error, match="^candidate 'c3': "):
        gains_against_reference(hist([0.5, 0.5, 0.0]), candidates)


def _named_error(score):
    """The type and text of the error score() raises."""
    with pytest.raises(Exception) as exc_info:
        score()
    return type(exc_info.value), str(exc_info.value)


@pytest.mark.parametrize("bad", [float("nan"), math.inf, -math.inf, -1.0, 0.0, -0.0])
@pytest.mark.parametrize("reference, column", [
    pytest.param([0.25, 0.25, 0.5], 1, id="no-zero-bin"),
    pytest.param([0.5, 0.0, 0.5], 1, id="unscored-column"),
])
def test_bad_value_raises_alike_through_every_path(bad, reference, column):
    # With no zero bin in the reference every value enters both forms, and
    # the forms' agreement is the only validity check: it must raise what
    # the separate pass, still run when the bad value sits in an unscored
    # column, raises.
    from heliobench.infogain import _Rows

    ref = hist(reference)
    row = [0.2, 0.3, 0.5]
    row[column] = bad
    if math.isnan(bad) or bad < 0 or bad == math.inf:
        error, message = InvalidInputError, "probabilities must be finite and >= 0"
    elif reference[column] == 0.0:  # a zero is valid where the reference is zero
        error, message = None, None
    else:
        error, message = AbsoluteContinuityError, str(AbsoluteContinuityError(column))
    matrix = np.array([[0.2, 0.3, 0.5], row, [0.5, 0.3, 0.2]])
    named = [
        lambda: gains_against_reference(ref, _Rows(["a", "bad", "c"], matrix)),
        lambda: gains_against_reference(ref, {"c": matrix[2], "bad": matrix[1], "a": matrix[0]}),
    ]
    q = hist([0.2, 0.3, 0.5])
    object.__setattr__(q, "probabilities", matrix[1])  # past the Histogram's own check
    if error is None:
        for score in named:
            assert [g.candidate for g in score()] == ["a", "bad", "c"]
        assert information_gain(ref, q).value >= 0.0
        return
    for score in named:
        assert _named_error(score) == (error, f"candidate 'bad': {message}")
    assert _named_error(lambda: information_gain(ref, q)) == (error, message)


@pytest.mark.parametrize("bins", [2, 7, 20, 129, 10_000])
@pytest.mark.parametrize("zero_bins", [0, 1, 3])
def test_kernel_gains_equal_the_plain_expression_bit_for_bit(bins, zero_bins):
    from heliobench.infogain import _gains

    rng = np.random.default_rng(bins * 10 + zero_bins)
    p = rng.dirichlet(np.ones(bins))
    p[rng.choice(bins, size=min(zero_bins, bins - 1), replace=False)] = 0.0
    p /= p.sum()
    Q = rng.dirichlet(np.ones(bins), size=40)
    assert _gains(p, Q) == _plain_gains(p, Q)


def test_kernel_gains_equal_the_plain_expression_on_the_demo_matrices(demo_csv_path):
    from heliobench import DEFAULT_ALPHA, DEFAULT_SCALES, Indicator, load_corpus, pooled_bin_spec
    from heliobench.histogram import category_probabilities
    from heliobench.infogain import _gains

    corpus = load_corpus(demo_csv_path)
    for indicator in Indicator:
        spec = pooled_bin_spec(corpus, indicator, scale=DEFAULT_SCALES[indicator])
        _, matrix = category_probabilities(corpus, indicator, spec, DEFAULT_ALPHA)
        for p in matrix:
            assert _gains(p, matrix) == _plain_gains(p, matrix)


def _plain_gains(p, Q):
    """U_P(Q) - U_P(P) per row of Q, written out over p's support."""
    support = np.flatnonzero(p)
    p, Q = p[support], np.ascontiguousarray(Q[:, support])
    return ((p * -np.log(Q)).sum(axis=1) - (p * -np.log(p)).sum()).tolist()


def test_a_gain_rounded_below_zero_is_reported_and_ranks_before_a_copy():
    # Rows within a relative 1e-9 of p have exact gains near 1e-18, below the
    # rounding of U_P(Q) - U_P(P), so some are reported a few 1e-16 below 0.
    # The kernel neither clips them at 0 nor takes their magnitude.
    from heliobench.infogain import _gains

    rng = np.random.default_rng(1)
    p = rng.dirichlet(np.ones(20))
    Q = p * (1.0 + 1e-9 * rng.standard_normal((200, 20)))
    Q /= Q.sum(axis=1, keepdims=True)
    plain = _plain_gains(p, Q)
    assert min(plain) < 0.0
    assert _gains(p, Q) == plain
    # "copy" sorts before "near" by name, so only a negative gain puts "near" first.
    gains = gains_against_reference(hist(p), {"copy": p.copy(), "near": Q[np.argmin(plain)]})
    assert [(g.candidate, g.value) for g in sorted(gains, key=lambda g: g.value)] == [
        ("near", min(plain)), ("copy", 0.0)
    ]


@pytest.mark.parametrize("tiny", [1e-13, 1e-300, 5e-324])
def test_a_zero_opposite_a_tiny_reference_bin_still_raises(tiny):
    # Any positive reference bin is scored, however small its mass: a
    # candidate's zero there is an absolute-continuity violation, not an
    # empty bin to leave out.
    from heliobench.infogain import _gains

    p = np.array([0.5, tiny, 0.5 - tiny])
    q = np.array([0.25, 0.0, 0.75])
    scores = [
        lambda: information_gain(hist(p), hist(q)),
        lambda: gains_against_reference(hist(p), {"a": np.array([0.2, 0.3, 0.5]), "zero": q}),
        lambda: _gains(p, [q]),
    ]
    for score in scores:
        with pytest.raises(AbsoluteContinuityError) as exc_info:
            score()
        assert exc_info.value.bin_index == 1
    with pytest.raises(AbsoluteContinuityError, match="^candidate 'zero': "):
        scores[1]()


# The kernel's rounding error relative to the two sums it subtracts:
# |gain - kl_direct| <= KERNEL_ERROR_C * 2**-53 * (U_P(Q) + U_P(P)). The
# worst-case bound for a pairwise sum of B terms (Higham, "Accuracy and
# Stability of Numerical Algorithms", 2nd ed., section 4.2) is about
# log2(B) + 2 units of 2**-53 per sum, 12 at B = 1000, but the roundings do
# not line up: on the pairs below, the largest ratio seen for seeds 0 to 39
# was 2.0. C is twice that. A sequential sum of the same terms reaches 5.6
# to 12.6 at B = 1000, so C = 4 also tells numpy's pairwise row sums from it.
KERNEL_ERROR_C = 4.0


@pytest.mark.parametrize("bins", [20, 200, 1000])
def test_kernel_error_is_bounded_by_the_sums_it_subtracts(bins):
    from heliobench.infogain import _gains

    rng = np.random.default_rng(bins)
    p = rng.dirichlet(np.ones(bins))
    self_nats = (p * -np.log(p)).sum()
    for eps in (1e-2, 1e-5, 1e-8):
        Q = p * (1.0 + eps * rng.standard_normal((8, bins)))
        Q /= Q.sum(axis=1, keepdims=True)
        for q, gain in zip(Q, _gains(p, Q)):
            error = abs(gain - kl_direct(p, q))
            assert error <= 1e-12
            assert error <= KERNEL_ERROR_C * 2.0**-53 * ((p * -np.log(q)).sum() + self_nats)


# The tolerance of both axiom properties: the oracle's 1e-12, within which
# test_matches_oracle_on_random_pairs finds every gain, as the kernel's two
# forms also agree within IDENTITY_TOL = 1e-12. Gains of at most 144 bins of
# Dirichlet(1) draws round far below it.
AXIOM_TOL = 1e-12


def _dirichlet(rng, bins, size=None):
    drawn = rng.dirichlet(np.ones(bins), size)
    assume(drawn.all())
    return drawn


@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(2, 12))
@settings(max_examples=100, deadline=None)
def test_gain_is_additive_over_independent_indicators(seed, bins1, bins2):
    from heliobench.infogain import _gains

    rng = np.random.default_rng(seed)
    p1, Q1 = _dirichlet(rng, bins1), _dirichlet(rng, bins1, 4)
    p2, Q2 = _dirichlet(rng, bins2), _dirichlet(rng, bins2, 4)
    # Row r of the joint matrix is Q1[r] (x) Q2[r], flattened like p1 (x) p2.
    p, Q = np.outer(p1, p2).ravel(), (Q1[:, :, None] * Q2[:, None, :]).reshape(4, -1)
    sums = np.add(_gains(p1, Q1), _gains(p2, Q2))
    assert np.abs(np.subtract(_gains(p, Q), sums)).max() <= AXIOM_TOL
    for q, q1, q2 in zip(Q, Q1, Q2):
        parts = information_gain(hist(p1), hist(q1)).value + information_gain(
            hist(p2), hist(q2)
        ).value
        assert abs(information_gain(hist(p), hist(q)).value - parts) <= AXIOM_TOL


@st.composite
def merged_bins(draw):
    """A bin count and where adjacent bins are kept apart (True) or summed
    (False), with at least one of each."""
    bins = draw(st.integers(3, 40))
    apart = draw(st.lists(st.booleans(), min_size=bins - 1, max_size=bins - 1))
    assume(any(apart) and not all(apart))
    return bins, apart


@given(st.integers(0, 2**32 - 1), merged_bins())
@settings(max_examples=100, deadline=None)
def test_merging_adjacent_bins_never_raises_the_gain(seed, merge):
    from heliobench.infogain import _gains

    bins, apart = merge
    rng = np.random.default_rng(seed)
    p, Q = _dirichlet(rng, bins), _dirichlet(rng, bins, 4)
    starts = np.flatnonzero([True, *apart])
    merged_p, merged_Q = np.add.reduceat(p, starts), np.add.reduceat(Q, starts, axis=1)
    before = _gains(p, Q)
    after = _gains(merged_p, merged_Q)
    assert all(a <= b + AXIOM_TOL for a, b in zip(after, before))
    for q, merged_q, gain in zip(Q, merged_Q, before):
        assert information_gain(hist(p), hist(q)).value == gain
        assert information_gain(hist(merged_p), hist(merged_q)).value <= gain + AXIOM_TOL


@pytest.mark.parametrize("bins", [5, 10, 20])
def test_halving_the_linear_bins_of_the_demo_corpus_never_raises_a_gain(demo_csv_path, bins):
    # Each bin of the B-bin spec is two adjacent bins of the 2B-bin spec on the
    # same bounds, so a category's unsmoothed B-bin counts are its 2B-bin counts
    # summed in pairs. A pair of bins merged never raises a gain (above); the
    # tolerance is AXIOM_TOL, the oracle's 1e-12.
    from heliobench import BinSpec, Indicator, load_corpus, pooled_bin_spec
    from heliobench.histogram import category_probabilities
    from heliobench.infogain import _gains

    corpus = load_corpus(demo_csv_path)
    for indicator in Indicator:
        coarse = pooled_bin_spec(corpus, indicator, bins, "linear")
        fine = BinSpec(coarse.lower, coarse.upper, 2 * bins, "linear")
        assert fine.edges()[::2].tolist() == coarse.edges().tolist()
        names, coarse_rows = category_probabilities(corpus, indicator, coarse, 0.0)
        fine_names, fine_rows = category_probabilities(corpus, indicator, fine, 0.0)
        assert fine_names == names
        pairs = 0
        for coarse_p, fine_p in zip(coarse_rows, fine_rows):
            # Only the candidates positive wherever the reference is have finite gains.
            scored = fine_rows[:, fine_p > 0].all(axis=1)
            fine_gains = _gains(fine_p, fine_rows[scored])
            coarse_gains = _gains(coarse_p, coarse_rows[scored])
            assert all(c <= f + AXIOM_TOL for c, f in zip(coarse_gains, fine_gains))
            pairs += len(fine_gains) - 1  # the reference itself is always scored
        assert pairs > len(names)


# h(p*q) and h(p) + h(q) each take one rounded product, logarithm or sum
# per step: 2^-53 relative for the product, about an ulp for each log and
# one for the sum, so they agree within 4 ulps of 1 or of h, whichever is
# larger. Drawn probabilities stay above 1e-150, so p*q is a normal float.
UNEXPECTEDNESS_ULPS = 4 * 2.0**-52


@given(st.floats(1e-150, 1.0), st.floats(1e-150, 1.0))
@settings(max_examples=100, deadline=None)
def test_unexpectedness_is_additive_over_independent_events(p, q):
    from heliobench.infogain import _gains

    assert unexpectedness(1.0) == 0.0
    h = unexpectedness(p * q)
    assert abs(h - (unexpectedness(p) + unexpectedness(q))) <= UNEXPECTEDNESS_ULPS * max(1.0, h)
    # Against a certain first bin, the gain of Q is h(q_0).
    rows = [[p, 1.0 - p], [q, 1.0 - q], [p * q, 1.0 - p * q]]
    hp, hq, hpq = _gains(np.array([1.0, 0.0]), rows)
    assert abs(hpq - (hp + hq)) <= UNEXPECTEDNESS_ULPS * max(1.0, hpq)


@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_gain_is_convex_in_the_candidate(seed, bins, lam):
    from heliobench.infogain import _gains

    rng = np.random.default_rng(seed)
    p, (q1, q2) = _dirichlet(rng, bins), _dirichlet(rng, bins, 2)
    mixed = lam * q1 + (1.0 - lam) * q2
    g1, g2, g = _gains(p, [q1, q2, mixed])
    assert g <= lam * g1 + (1.0 - lam) * g2 + AXIOM_TOL
    assert information_gain(hist(p), hist(mixed)).value == g


# A fixed-order sum of n terms errs by at most about n * 2^-53 times the sum
# of their magnitudes, U_P(Q) + U_P(P) here, whatever the order of the
# terms. For at most 40 bins of Dirichlet(1) draws that is far below the
# oracle's 1e-12, which the gains of two orders are held to.
@given(st.integers(0, 2**32 - 1), st.integers(2, 40))
@settings(max_examples=100, deadline=None)
def test_permuting_the_bins_of_both_leaves_the_gain(seed, bins):
    from heliobench.infogain import _gains

    rng = np.random.default_rng(seed)
    p, Q = _dirichlet(rng, bins), _dirichlet(rng, bins, 4)
    order = rng.permutation(bins)
    gains = _gains(p, Q)
    permuted = _gains(p[order], Q[:, order])
    assert np.abs(np.subtract(permuted, gains)).max() <= AXIOM_TOL
    candidates = {f"c{r}": q[order] for r, q in enumerate(Q)}
    public = [g.value for g in gains_against_reference(hist(p[order]), candidates)]
    assert public == permuted
