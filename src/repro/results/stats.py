"""Dependency-free statistics for multi-seed run comparison.

Everything here is pure Python over plain lists — the results index
(docs/RESULTS.md) must work in environments without numpy/scipy, and
the sample counts involved (a handful of seeds per experiment cell)
make vectorization pointless anyway.  Provided:

* :func:`mean` / :func:`stddev` — sample moments (n-1 denominator);
* :func:`permutation_test` — exact (small n) or sampled two-sided
  permutation test on the difference of means;
* :func:`min_achievable_p` — the smallest p-value that test can reach
  at a given sample size;
* :func:`significance` — the verdict
  ``python -m repro.analysis compare`` gates on.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Sequence

#: Below this many total observations the permutation test enumerates
#: every reassignment exactly instead of sampling.
EXACT_PERMUTATION_LIMIT = 12

#: Resamples used by the sampled permutation test.
DEFAULT_RESAMPLES = 2000


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def stddev(values: Sequence[float]) -> float:
    """Sample standard deviation, n-1 denominator (0.0 when n < 2)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    center = mean(values)
    return math.sqrt(sum((v - center) ** 2 for v in values)
                     / (len(values) - 1))


def permutation_test(a: Sequence[float], b: Sequence[float],
                     n_resamples: int = DEFAULT_RESAMPLES,
                     seed: int = 0) -> float:
    """Two-sided permutation p-value on the difference of means.

    Exact enumeration when ``len(a) + len(b)`` is small
    (:data:`EXACT_PERMUTATION_LIMIT`), seeded Monte-Carlo sampling
    otherwise.  Returns 1.0 when either group is smaller than two —
    one sample per group carries no significance evidence.
    """
    a, b = list(a), list(b)
    if len(a) < 2 or len(b) < 2:
        return 1.0
    observed = abs(mean(a) - mean(b))
    pooled = a + b
    n_a = len(a)

    if len(pooled) <= EXACT_PERMUTATION_LIMIT:
        at_least = total = 0
        for combo in itertools.combinations(range(len(pooled)), n_a):
            chosen = set(combo)
            left = [pooled[i] for i in chosen]
            right = [pooled[i] for i in range(len(pooled))
                     if i not in chosen]
            total += 1
            if abs(mean(left) - mean(right)) >= observed - 1e-12:
                at_least += 1
        return at_least / total

    rng = random.Random(seed)
    at_least = 0
    for _ in range(n_resamples):
        shuffled = pooled[:]
        rng.shuffle(shuffled)
        if abs(mean(shuffled[:n_a]) - mean(shuffled[n_a:])) \
                >= observed - 1e-12:
            at_least += 1
    # +1/+1 keeps the Monte-Carlo estimate away from an impossible 0.
    return (at_least + 1) / (n_resamples + 1)


def min_achievable_p(n_a: int, n_b: int) -> float:
    """Smallest two-sided p a permutation-space test can ever produce.

    With ``n_a + n_b`` pooled observations there are only
    ``C(n_a + n_b, n_a)`` group reassignments, and the observed split
    plus its mirror always count as "at least as extreme" — so the
    floor is ``2 / C(n_a + n_b, n_a)`` no matter how separated the
    groups are (0.333 at 2+2, 0.1 at 3+3, ~0.029 at 4+4).  A gate
    whose alpha lies below this floor is *powerless* at that sample
    size and should fall back to a threshold check
    (docs/RESULTS.md).  Returns 1.0 when either group is smaller than
    two.
    """
    if n_a < 2 or n_b < 2:
        return 1.0
    return 2.0 / math.comb(n_a + n_b, n_a)


@dataclass(frozen=True)
class Significance:
    """Verdict of one two-group comparison."""

    n_a: int
    n_b: int
    mean_a: float
    mean_b: float
    #: ``mean_b - mean_a`` (B is the candidate, A the baseline).
    diff: float
    #: ``diff`` relative to ``|mean_a|`` (0.0 when the baseline is 0).
    relative: float
    #: Two-sided p-value; 1.0 when significance cannot be assessed.
    p_value: float
    #: Which test produced ``p_value`` (``permutation`` or ``none``).
    test: str
    significant: bool


def significance(a: Sequence[float], b: Sequence[float],
                 alpha: float = 0.05, seed: int = 0) -> Significance:
    """Compare baseline samples ``a`` against candidate samples ``b``.

    The p-value comes from :func:`permutation_test`.  Groups with fewer
    than two samples are never significant — a single seed cannot
    witness noise.
    """
    a, b = list(a), list(b)
    mean_a, mean_b = mean(a), mean(b)
    diff = mean_b - mean_a
    relative = diff / abs(mean_a) if mean_a else 0.0
    if len(a) < 2 or len(b) < 2:
        return Significance(len(a), len(b), mean_a, mean_b, diff,
                            relative, 1.0, "none", False)
    p_value = permutation_test(a, b, seed=seed)
    return Significance(len(a), len(b), mean_a, mean_b, diff, relative,
                        p_value, "permutation", p_value < alpha)


__all__ = [
    "DEFAULT_RESAMPLES",
    "EXACT_PERMUTATION_LIMIT",
    "Significance",
    "mean",
    "min_achievable_p",
    "permutation_test",
    "significance",
    "stddev",
]
