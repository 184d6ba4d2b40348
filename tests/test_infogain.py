import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heliobench import (
    AbsoluteContinuityError,
    BinSpec,
    DivergenceConfig,
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


def hist(probs, spec=None, alpha=0.0):
    return Histogram.from_probabilities(probs, spec=spec, alpha=alpha)


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

    def test_base2(self):
        cfg = DivergenceConfig(log_base="base2")
        assert unexpectedness(0.5, cfg) == pytest.approx(1.0, abs=1e-15)


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

    def test_scale_constant_is_linear(self):
        p, q = hist([0.3, 0.7]), hist([0.6, 0.4])
        base = information_gain(p, q).value
        scaled = information_gain(p, q, DivergenceConfig(scale_constant=2.5)).value
        assert abs(scaled - 2.5 * base) < 1e-12

    def test_zero_scale_constant(self):
        p, q = hist([0.3, 0.7]), hist([0.6, 0.4])
        assert information_gain(p, q, DivergenceConfig(scale_constant=0.0)).value == 0.0

    def test_negative_scale_constant_rejected(self):
        with pytest.raises(InvalidInputError):
            DivergenceConfig(scale_constant=-1.0)
        with pytest.raises(InvalidInputError, match="log_base must be 'natural' or 'base2'"):
            DivergenceConfig(log_base="base10")

    def test_base2_is_natural_over_ln2(self):
        p, q = hist([0.3, 0.7]), hist([0.6, 0.4])
        nats = information_gain(p, q).value
        bits = information_gain(p, q, DivergenceConfig(log_base="base2")).value
        assert abs(bits - nats / math.log(2.0)) < 1e-12

    def test_asymmetry_witness(self):
        p, q = hist([0.9, 0.1]), hist([0.3, 0.7])
        forward = information_gain(p, q).value
        backward = information_gain(q, p).value
        assert abs(forward - backward) > 0.1

    def test_absolute_continuity_violation(self):
        with pytest.raises(AbsoluteContinuityError):
            information_gain(hist([0.5, 0.5]), hist([1.0, 0.0]))

    def test_gain_carries_names(self):
        gv = information_gain(
            hist([0.5, 0.5]), hist([0.25, 0.75]), reference="Ref", candidate="Cand"
        )
        assert gv.reference == "Ref"
        assert gv.candidate == "Cand"


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
