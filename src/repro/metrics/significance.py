"""Significance machinery for the engagement analyses.

The paper reports raw percentages; a reviewer's first question is
whether the Figure 6 differences are significant. These helpers supply
the standard answers:

* :func:`chi_square_2x2` — independence test for a 2×2 contingency
  table (with Yates continuity correction, the small-cell default);
* :func:`odds_ratio` — effect size for the same table;
* :func:`wilson_interval` — a binomial proportion confidence interval
  that behaves at the tiny success counts of the no-social row;
* :func:`bootstrap_mean_ci` — percentile bootstrap for the community
  strength metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.util.rng import RngStream


@dataclass
class Chi2Result:
    """Chi-square independence test on a 2×2 table."""

    statistic: float
    p_value: float
    dof: int = 1


def chi_square_2x2(a: int, b: int, c: int, d: int,
                   yates: bool = True) -> Chi2Result:
    """Test independence of the table [[a, b], [c, d]].

    Rows are groups (e.g. has-Facebook / no-Facebook), columns outcomes
    (raised / did not raise).
    """
    for value in (a, b, c, d):
        if value < 0:
            raise ValueError("contingency cells must be non-negative")
    n = a + b + c + d
    if n == 0:
        raise ValueError("empty contingency table")
    row1, row2 = a + b, c + d
    col1, col2 = a + c, b + d
    if 0 in (row1, row2, col1, col2):
        return Chi2Result(statistic=0.0, p_value=1.0)
    expected = [row1 * col1 / n, row1 * col2 / n,
                row2 * col1 / n, row2 * col2 / n]
    observed = [a, b, c, d]
    correction = 0.5 if yates else 0.0
    statistic = sum(
        (max(0.0, abs(o - e) - correction)) ** 2 / e
        for o, e in zip(observed, expected))
    from scipy.stats import chi2
    return Chi2Result(statistic=float(statistic),
                      p_value=float(chi2.sf(statistic, df=1)))


def odds_ratio(a: int, b: int, c: int, d: int) -> float:
    """Odds ratio of [[a, b], [c, d]] with the Haldane 0.5 correction."""
    a_, b_, c_, d_ = (x + 0.5 for x in (a, b, c, d))
    return (a_ * d_) / (b_ * c_)


def wilson_interval(successes: int, total: int,
                    confidence: float = 0.95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= successes <= total:
        raise ValueError("successes out of range")
    from scipy.stats import norm
    z = float(norm.ppf(0.5 + confidence / 2.0))
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    margin = (z / denom) * math.sqrt(
        p * (1 - p) / total + z * z / (4 * total * total))
    low = max(0.0, center - margin)
    high = min(1.0, center + margin)
    # Guard against floating-point dust at the boundaries: the interval
    # must always contain the point estimate.
    if successes == 0:
        low = 0.0
    if successes == total:
        high = 1.0
    return min(low, p), max(high, p)


def bootstrap_mean_ci(values: Sequence[float], confidence: float = 0.95,
                      num_resamples: int = 2000,
                      seed: int = 0) -> Tuple[float, float]:
    """Percentile-bootstrap CI for the mean of ``values``."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    rng = RngStream(seed, "bootstrap")
    indices = rng.np.integers(0, arr.size, size=(num_resamples, arr.size))
    means = arr[indices].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    return (float(np.quantile(means, alpha)),
            float(np.quantile(means, 1.0 - alpha)))
