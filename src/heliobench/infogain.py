"""Dissimilarity between two binned distributions.

The measure is built in three steps: the unexpectedness of a single event
of probability p is h(p) = -log p; the unexpectedness of a reference
distribution P seen through an estimating distribution Q is the
expectation U_P(Q) = sum_i p_i * h(q_i); and the information gain is the
excess unexpectedness eps(P, Q) = U_P(Q) - U_P(P), which equals the
Kullback-Leibler divergence sum_i p_i * log(p_i / q_i). Both forms are
evaluated, in one scratch matrix, and cross-checked on every call; unless
the reference has a zero bin, their agreement also stands in for a validity
pass over the candidates (see _gains). Every value is in nats; divide it
by math.log(2) for bits.

One vectorized kernel scores a reference against many candidate
distributions, a block of rows at a time. information_gain is its one-row
case, and gains_against_reference its public wrapper: it takes candidate
names and a matrix of one probability row per name, as
histogram.category_probabilities returns them, scores the matrix in one
kernel call, without a per-candidate check or copy, and returns
(name, gain) pairs in row order, with the reference's own row dropped.
Sums are fixed-order pairwise row sums, so equal candidates get equal
gains and a copy of the reference gets exactly zero.

Lower gain means more similar distributions; eps(P, P) = 0 and
eps(P, Q) >= 0 whenever Q is positive wherever P is, up to rounding: a
near-copy of P may score a few 1e-16 below 0, and so rank before a copy.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import AbsoluteContinuityError, IncompatibleSupportError, InvalidInputError, _as_real
from .histogram import BLOCK_ELEMENTS, Histogram, _as_floats

# Agreement required between the expectation-difference form and the direct
# summation form of the gain.
IDENTITY_TOL = 1e-12


def unexpectedness(p: float) -> float:
    """h(p) = -log p for a single event probability p in (0, 1]."""
    p = _as_real(p, "probability")
    if not 0.0 < p <= 1.0:
        raise InvalidInputError(f"probability must be in (0, 1], got {p}")
    return -math.log(p)


def _check_compatible(p_hist: Histogram, q_hist: Histogram) -> None:
    if p_hist.spec != q_hist.spec:
        raise IncompatibleSupportError(
            f"histograms use different bin specs: {p_hist.spec} vs {q_hist.spec}"
        )


def expected_unexpectedness(p_hist: Histogram, q_hist: Histogram) -> float:
    """U_P(Q) = sum_i p_i * h(q_i), skipping bins with p_i = 0.

    Raises IncompatibleSupportError on mismatched bin specs and
    AbsoluteContinuityError naming the first bin where q_i = 0 < p_i.
    """
    _check_compatible(p_hist, q_hist)
    terms = []
    for i, (p, q) in enumerate(zip(p_hist.probabilities, q_hist.probabilities)):
        if p == 0.0:
            continue
        if q == 0.0:
            raise AbsoluteContinuityError(i)
        terms.append(p * -math.log(q))
    return math.fsum(terms)


def _gains(p: np.ndarray, rows: np.ndarray, names: Sequence[str] | None = None) -> list[float]:
    """eps(P, Q_j) for each row Q_j of the 2-D array rows, in row order, as
    Python floats.

    Bins with p_i = 0 are left out. Rows are scored in blocks of about
    BLOCK_ELEMENTS values, so memory stays bounded whatever the number of
    rows. Every row is reduced by the same fixed-order row sum, so equal rows
    get equal gains and a row equal to p gets exactly 0. The first offending
    row raises, named by names[row] when names are given: InvalidInputError
    for a value that is not finite and >= 0, then AbsoluteContinuityError for
    a zero where p is positive, then ArithmeticError when the
    expectation-difference and direct forms disagree by more than
    IDENTITY_TOL. Both forms share one scratch matrix per block, and the
    checks run once per block: validity in a pass of its own only when p has
    a zero bin, else by agreement, as every value is then scored and a NaN,
    negative, infinite or zero one leaves a form NaN or infinite, which
    agrees with nothing. Only a block that fails is reduced row by row, to
    find its first offending row.
    """

    def fail(exc: Exception, row: int) -> Exception:
        if names is not None:
            exc.args = (f"candidate {names[row]!r}: {exc}",)
        return exc

    block = max(1, BLOCK_ELEMENTS // p.size)
    support = np.flatnonzero(p)
    full = support.size == p.size
    p = p[support]
    self_nats = (p * -np.log(p)).sum()  # U_P(P), reduced like every row
    gains = []
    for start in range(0, len(rows), block):
        Q = _as_floats(rows[start:start + block], "candidate probabilities")
        valid = full or ((Q >= 0) & (Q < math.inf)).all()
        # Each row is reduced from contiguous memory. Q[:, support] would be
        # column-major, and its sequential row sums drift past IDENTITY_TOL
        # at 10^4 bins. When p has no zero bin, a contiguous copy of Q holds
        # the same values as take over every column, and contiguous rows
        # need none.
        Q = np.ascontiguousarray(Q) if full else Q.take(support, axis=1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # The ufuncs and operands of p * -log(Q) and p * log(p / Q).
            work = np.log(Q)
            np.negative(work, out=work)
            work *= p
            gain_nats = work.sum(axis=1) - self_nats
            np.divide(p, Q, out=work)
            np.log(work, out=work)
            work *= p
            direct_nats = work.sum(axis=1)
            agree = np.abs(gain_nats - direct_nats) <= IDENTITY_TOL
        # A zero where p is positive makes both forms infinite and their
        # difference NaN, so a valid block whose rows all agree has no
        # offender.
        if not (valid and agree.all()):
            Q = np.array(rows[start:start + block], dtype=float)
            invalid = ~((Q >= 0) & (Q < math.inf)).all(axis=1)
            zero = Q.take(support, axis=1) == 0.0
            row = int((invalid | zero.any(axis=1) | ~agree).argmax())
            if invalid[row]:
                raise fail(InvalidInputError("probabilities must be finite and >= 0"), start + row)
            if zero[row].any():
                raise fail(AbsoluteContinuityError(int(support[zero[row].argmax()])), start + row)
            raise fail(ArithmeticError(
                f"expectation-difference and direct summation disagree: "
                f"{float(gain_nats[row])!r} vs {float(direct_nats[row])!r}"
            ), start + row)
        gains += gain_nats.tolist()
    return gains


def information_gain(p_hist: Histogram, q_hist: Histogram) -> float:
    """eps(P, Q) = U_P(Q) - U_P(P) in nats, cross-checked against the direct
    form sum_i p_i * log(p_i / q_i).

    The two evaluations must agree within 1e-12; a discrepancy indicates a
    numerical defect and raises ArithmeticError.
    """
    _check_compatible(p_hist, q_hist)
    (value,) = _gains(p_hist.probabilities, q_hist.probabilities[np.newaxis])
    return value


def gains_against_reference(
    reference_hist: Histogram,
    names: Sequence[str],
    matrix: np.ndarray,
    reference_name: str = "",
) -> list[tuple[str, float]]:
    """Gain of every candidate relative to the reference, as (name, gain)
    pairs in row order, with the first row named reference_name, if any,
    left out.

    matrix holds one row of bin_count probabilities on the reference's spec
    per name, as histogram.category_probabilities returns it. It is scored in
    one kernel call; only its shape is checked as a whole, raising
    IncompatibleSupportError unless it is (len(names), bin_count). Values
    numpy cannot read as numbers raise InvalidInputError; a bool among
    floats is read as 0.0 or 1.0. Other errors name the first offending
    row's candidate.
    """
    bin_count = reference_hist.spec.bin_count
    if np.shape(matrix) != (len(names), bin_count):
        raise IncompatibleSupportError(
            f"expected {len(names)} rows of {bin_count} probabilities, "
            f"got shape {np.shape(matrix)}"
        )
    pairs = list(zip(names, _gains(reference_hist.probabilities, matrix, names)))
    # The reference's own row is scored with the others and its pair dropped,
    # so the matrix is not copied without it.
    try:
        del pairs[names.index(reference_name)]
    except ValueError:  # no row is named reference_name
        pass
    return pairs
