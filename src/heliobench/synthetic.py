"""Fixed-seed synthetic corpora.

Real journal-indicator tables are proprietary, so the repository ships a
generated stand-in with the same shape: 174 categories of roughly 100
journals each, three indicators per journal, occasional missing cells and
some journals cross-listed in two categories. One block of categories
shares the generating distribution of the first category (useful as a
known-answer reference group); every other category's distribution is
shifted progressively further away.

Values are lognormal per indicator, with a fixed log-space spread: 0.4,
and 0.8 for the eigenfactor. Shifts, from 0.5 to 1.8, are applied to the
log-mean, so they act multiplicatively, which matches how impact
indicators spread.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .corpus import Corpus, serialize_corpus
from .errors import InvalidInputError

DEMO_SEED = 2010
DEMO_CATEGORIES = 174
DEMO_CLONES = 5

# (base log-space location, spread, decimals) per indicator, in Indicator
# order, which is the order values are drawn in. Eigenfactor-like values are
# orders of magnitude smaller and wider-spread than the citation-rate ones.
_PARAMETERS = ((math.log(2.2), 0.4, 3), (math.log(0.004), 0.8, 5), (math.log(0.45), 0.4, 3))


def category_name(index: int) -> str:
    return f"Category {index:03d}"


def make_synthetic_corpus(
    n_categories: int = DEMO_CATEGORIES,
    clones: int = DEMO_CLONES,
    seed: int = DEMO_SEED,
    journals_low: int = 80,
    journals_high: int = 120,
    missing_rate: float = 0.02,
    cross_list_every: int = 25,
) -> Corpus:
    """Build a deterministic synthetic corpus.

    Categories 1..clones are drawn from the same distribution as category 0
    (the natural reference for demos and recovery tests); categories
    clones+1 .. n-1 get log-mean shifts spaced evenly over [0.5, 1.8].
    """
    if n_categories < clones + 2:
        raise InvalidInputError("need at least clones + 2 categories")
    rng = np.random.default_rng(seed)

    shifts = np.zeros(n_categories)
    n_shifted = n_categories - clones - 1
    shifts[clones + 1:] = np.linspace(0.5, 1.8, n_shifted)

    # (line, journal, category, impact_factor, eigenfactor, immediacy) rows.
    rows: list[tuple] = []
    journal_counter = 0
    for c in range(n_categories):
        cat = category_name(c)
        n_journals = int(rng.integers(journals_low, journals_high + 1))
        for j in range(n_journals):
            journal_counter += 1
            journal = f"jnl-{journal_counter:05d}"
            values = [
                round(float(rng.lognormal(mean=log_mean + shifts[c], sigma=sigma)), decimals)
                for log_mean, sigma, decimals in _PARAMETERS
            ]
            values = [None if rng.random() < missing_rate else v for v in values]
            rows.append((None, journal, cat, *values))
            # Cross-list an occasional journal in the next category with
            # identical values, as citation indexes do.
            if cross_list_every and j % cross_list_every == cross_list_every - 1:
                rows.append((None, journal, category_name((c + 1) % n_categories), *values))

    return Corpus._from_rows(rows)


def make_demo_corpus() -> Corpus:
    """The corpus committed at data/demo_corpus.csv."""
    return make_synthetic_corpus()


def write_corpus_csv(corpus: Corpus, path: str | Path) -> None:
    Path(path).write_text(serialize_corpus(corpus), encoding="utf-8")
