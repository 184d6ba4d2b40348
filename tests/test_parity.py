"""The outputs of the demo corpus at the default settings, held to
tests/parity_data.json, which tests/write_parity_data.py writes.

Orders, maps, hist documents and the validate report are compared by
digest. Bin edges and gains come from numpy's logs and sums, whose last
bits may differ on another platform, so they are compared within a
tolerance: edges against the file, gains against the arbitrary-precision
oracle.
"""

import json

import numpy as np
import pytest

from oracle import kl_direct
from write_parity_data import DATA, digests, outputs


@pytest.fixture(scope="module")
def demo_outputs():
    return outputs()


@pytest.fixture(scope="module")
def want():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_orders_maps_and_documents_keep_their_digests(demo_outputs, want):
    got = digests(*demo_outputs)
    assert [len(got["maps"][code]) for code in ("if", "es", "ii")] == [174] * 3
    for section in ("validate", "hist", "rankings", "maps"):
        assert got[section] == want[section], section


def test_bin_edges_are_kept_within_a_tolerance(demo_outputs, want):
    _, hist, _ = demo_outputs
    assert len(hist) == 3 * 174
    for doc in hist:
        np.testing.assert_allclose(doc["edges"], want["edges"][doc["indicator"]], rtol=1e-12)


def test_gains_match_the_oracle(demo_outputs):
    # The oracle takes about half a millisecond a pair, so it scores each
    # ranking's first and last candidate: 1,044 of the 90,306 pairs.
    _, hist, results = demo_outputs
    probabilities = {(doc["indicator"], doc["category"]): doc["probabilities"] for doc in hist}
    for result in results:
        code = result.indicator.code
        reference = probabilities[code, result.reference]
        for name, gain in (result.ranking[0], result.ranking[-1]):
            assert gain == pytest.approx(
                kl_direct(reference, probabilities[code, name]), rel=0, abs=1e-12
            )
