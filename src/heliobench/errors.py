"""Exception hierarchy shared across the package, and its integer and real-number checks.

Two broad families matter to callers: input/format problems (bad CSV,
unreadable files) and domain problems (unknown category, empty data,
incompatible histogram supports). The CLI maps the former to exit code 2
and the latter to exit code 3.
"""

from __future__ import annotations

import contextlib
import operator
from numbers import Real


class HeliobenchError(Exception):
    """Base class for all package-specific errors."""


class CorpusFormatError(HeliobenchError):
    """Malformed or invalid input data. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateRecordError(CorpusFormatError):
    """The same (journal, category) pair appeared twice."""


class CategoryNotFoundError(HeliobenchError):
    """A requested category is not present in the corpus."""

    def __init__(self, category: str):
        self.category = category
        super().__init__(f"unknown category: {category!r}")


class EmptyDataError(HeliobenchError):
    """An operation that needs at least one value received none."""


class IncompatibleSupportError(HeliobenchError):
    """Two histograms do not share the same bin specification."""


class AbsoluteContinuityError(HeliobenchError):
    """Q is zero in a bin where P is positive, so -log q is undefined."""

    def __init__(self, bin_index: int):
        self.bin_index = bin_index
        super().__init__(
            f"input distribution is zero in bin {bin_index} where the "
            f"reference is positive; smooth the histograms (alpha > 0)"
        )


class InvalidInputError(HeliobenchError):
    """Arguments that violate an operation's preconditions."""


def _as_int(value, name: str) -> int:
    """value as a Python int. Raises InvalidInputError, naming name, unless
    value is an integer; a bool or a float such as 20.0 is not one."""
    with contextlib.suppress(TypeError):
        if not isinstance(value, bool):
            return operator.index(value)
    raise InvalidInputError(f"{name} must be an integer, got {value!r}")


def _as_real(value, name: str) -> float:
    """value as a Python float. Raises InvalidInputError, naming name, unless
    value is a real number; a bool, an np.bool_ or a Decimal is not one."""
    if isinstance(value, Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int too large for a float
            return float(value)
    raise InvalidInputError(f"{name} must be a real number, got {value!r}")
