"""Empirical CDF and PDF estimators for Figures 3, 4 and 5."""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np


class EmpiricalCDF:
    """The empirical distribution function of a sample.

    ``F_n(x)`` = fraction of sample points ≤ x, evaluated in O(log n).
    """

    def __init__(self, values: Iterable[float]):
        # one float64 copy, sorted in place: a list, tuple or array
        # converts without an intermediate list
        if isinstance(values, (list, tuple, np.ndarray)):
            arr = np.array(values, dtype=np.float64)
        else:
            arr = np.fromiter(values, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("EmpiricalCDF needs at least one value")
        arr.sort()
        self._sorted = arr

    @property
    def n(self) -> int:
        return int(self._sorted.size)

    def __call__(self, x: float) -> float:
        return float(np.searchsorted(self._sorted, x, side="right")) / self.n

    def evaluate(self, xs: Sequence[float]) -> np.ndarray:
        return (np.searchsorted(self._sorted, np.asarray(xs), side="right")
                / self.n)

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        return float(np.quantile(self._sorted, q))

    @property
    def mean(self) -> float:
        return float(self._sorted.mean())

    @property
    def median(self) -> float:
        return float(np.median(self._sorted))

    @property
    def max(self) -> float:
        return float(self._sorted[-1])

    def series(self) -> Tuple[np.ndarray, np.ndarray]:
        """(x, F(x)) step points for plotting — one point per unique value."""
        xs, counts = np.unique(self._sorted, return_counts=True)
        return xs, np.cumsum(counts) / self.n

    def sup_distance(self, other: "EmpiricalCDF") -> float:
        """Kolmogorov–Smirnov statistic ``sup_x |F(x) - G(x)|``."""
        grid = np.union1d(self._sorted, other._sorted)
        return float(np.max(np.abs(self.evaluate(grid)
                                   - other.evaluate(grid))))


def estimate_pdf(values: Sequence[float], num_points: int = 100,
                 bandwidth: float = None) -> Tuple[np.ndarray, np.ndarray]:
    """Gaussian-KDE density estimate, as Figure 5's smooth PDF curve.

    Returns (grid, density). Falls back to a histogram-style estimate
    when the sample is degenerate (all values identical).
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("estimate_pdf needs at least one value")
    lo, hi = float(arr.min()), float(arr.max())
    if hi - lo < 1e-12:
        grid = np.linspace(lo - 1.0, hi + 1.0, num_points)
        density = np.zeros(num_points)
        density[num_points // 2] = 1.0
        return grid, density
    from scipy.stats import gaussian_kde
    kde = gaussian_kde(arr, bw_method=bandwidth)
    pad = 0.1 * (hi - lo)
    grid = np.linspace(lo - pad, hi + pad, num_points)
    return grid, kde(grid)
