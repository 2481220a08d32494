"""Deterministic, hierarchical random-number streams.

Reproducibility rule: every stochastic component takes an :class:`RngStream`
(or a seed) explicitly — nothing in the library touches the global
``random`` module state. Child streams are derived by hashing the parent
seed with a label, so adding a new consumer never perturbs existing ones.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache
from typing import Iterator, Optional, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, label: str) -> int:
    """Derive a stable 64-bit child seed from ``seed`` and a text label."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & _MASK64


def jittered_backoff(base_s: float, step: int, jitter: float, seed: int,
                     label: str) -> float:
    """``base_s * 2**step`` stretched by up to ``jitter`` of itself, by
    a fraction that is a pure function of ``(seed, label)``: a seed
    replays the exact schedule, distinct labels decorrelate retriers."""
    delay = base_s * (2 ** step)
    if jitter > 0.0:
        delay *= 1.0 + jitter * ((derive_seed(seed, label) % 100_000)
                                 / 100_000)
    return delay


@lru_cache(maxsize=64)
def _zipf_cdf(alpha: float, max_value: int) -> np.ndarray:
    """The CDF ``Generator.choice`` builds from the normalised weights
    ``rank ** -alpha`` of ranks ``1..max_value``; read-only, as every
    caller with the same ``(alpha, max_value)`` shares it."""
    weights = np.arange(1, max_value + 1, dtype=np.float64) ** (-alpha)
    weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


class RngStream:
    """A named, seeded stream exposing both stdlib and numpy generators.

    The two generators share a seed derivation but are independent objects;
    use ``.py`` for discrete choices over Python objects and ``.np`` for
    vectorized draws.
    """

    def __init__(self, seed: int, label: str = "root"):
        self.seed = seed & _MASK64
        self.label = label
        self.py = random.Random(self.seed)
        self.np = np.random.default_rng(self.seed)

    def child(self, label: str) -> "RngStream":
        """Create an independent stream keyed by ``label``."""
        return RngStream(derive_seed(self.seed, label), label)

    def children(self, label: str, count: int) -> Iterator["RngStream"]:
        """Yield ``count`` independent streams ``label[0..count)``."""
        for index in range(count):
            yield self.child(f"{label}[{index}]")

    # Convenience passthroughs used pervasively in the generator code.
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return self.py.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Inclusive-range integer, mirroring ``random.Random.randint``."""
        return self.py.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        return self.py.choice(items)

    def sample(self, items: Sequence[T], k: int) -> list:
        return self.py.sample(items, k)

    def shuffle(self, items: list) -> None:
        self.py.shuffle(items)

    def bernoulli(self, probability: float) -> bool:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range: {probability}")
        return self.py.random() < probability

    def zipf_bounded(
        self,
        alpha: float,
        max_value: int,
        size: Optional[int] = None,
    ):
        """Draw from a Zipf distribution truncated to ``[1, max_value]``.

        Rejection-free: samples ranks from the normalized discrete
        power-law directly, which keeps the heavy tail without the
        unbounded draws ``numpy.random.zipf`` can produce.
        """
        if max_value < 1:
            raise ValueError("max_value must be >= 1")
        # Generator.choice(max_value, size, p=...)'s own algorithm, on a
        # table built once per (alpha, max_value) instead of per draw
        drawn = _zipf_cdf(alpha, max_value).searchsorted(
            self.np.random(size), side="right") + 1
        if size is None:
            return int(drawn)
        return drawn.astype(np.int64)
