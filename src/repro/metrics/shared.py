"""The two §5.3 community-strength metrics.

Verified against the paper's toy examples: Figure 8a scores
(2+2+1)/3 = 1.67 and 100% at K=2; Figure 8b scores (1+0+0)/3 = 0.33
and 25% at K=2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Sequence, Set

import numpy as np

from repro.util.rng import RngStream

Portfolio = Mapping[int, Set[int]]  # investor id → set of company ids

#: pairs probed together by :func:`sampled_shared_sizes`
_PAIR_CHUNK = 65_536


def shared_investment_size(portfolio_a: Set[int],
                           portfolio_b: Set[int]) -> int:
    """``|C1 ∩ C2|`` for one pair of investors."""
    return len(portfolio_a & portfolio_b)


def pairwise_shared_sizes(members: Sequence[int],
                          portfolios: Portfolio) -> List[int]:
    """Shared investment size for every pair of community members."""
    sizes = []
    for a, b in itertools.combinations(members, 2):
        sizes.append(shared_investment_size(portfolios.get(a, set()),
                                            portfolios.get(b, set())))
    return sizes


def average_shared_investment_size(members: Sequence[int],
                                   portfolios: Portfolio) -> float:
    """The community-strength score: mean shared size over member pairs."""
    sizes = pairwise_shared_sizes(members, portfolios)
    if not sizes:
        return 0.0
    return sum(sizes) / len(sizes)


def sampled_shared_sizes(investors: Sequence[int], portfolios: Portfolio,
                         num_pairs: int, rng: RngStream) -> List[int]:
    """Shared sizes for ``num_pairs`` i.i.d. uniformly sampled pairs.

    This is the paper's Figure 4 global baseline: 800,000 i.i.d. sample
    pairs across the whole bipartite graph. Each end of the pairs is one
    vector draw, ``j`` skipping ``i`` so nobody pairs with themselves;
    each overlap is counted by probing the smaller portfolio's companies
    against the sorted ``(investor, company)`` keys of all portfolios,
    :data:`_PAIR_CHUNK` pairs at a time so the probe temporaries stay a
    few MB whatever ``num_pairs`` is.
    """
    n = len(investors)
    if n < 2:
        return []
    i = rng.np.integers(0, n, size=num_pairs)
    j = rng.np.integers(0, n - 1, size=num_pairs)
    j += j >= i
    dense: Dict[Hashable, int] = {}      # company id → dense int
    held = [[dense.setdefault(c, len(dense))
             for c in portfolios.get(investor, ())]
            for investor in investors]
    degree = np.array([len(h) for h in held], dtype=np.int64)
    start = np.cumsum(degree) - degree
    companies = np.fromiter(itertools.chain.from_iterable(held), np.int64,
                            count=int(degree.sum()))
    keys = np.repeat(np.arange(n), degree) * len(dense) + companies
    keys.sort()

    small = np.where(degree[i] <= degree[j], i, j)
    other = i + j - small
    del i, j
    shared = np.zeros(num_pairs, dtype=np.int64)
    for lo in range(0, num_pairs, _PAIR_CHUNK):
        chunk_small = small[lo:lo + _PAIR_CHUNK]
        counts = degree[chunk_small]
        pair = np.repeat(np.arange(len(chunk_small)), counts)
        # the position inside ``companies`` of each probed company
        held_at = np.arange(len(pair)) + np.repeat(
            start[chunk_small] - (np.cumsum(counts) - counts), counts)
        probes = (other[lo:lo + _PAIR_CHUNK][pair] * len(dense)
                  + companies[held_at])
        found = np.searchsorted(keys, probes)
        hit = keys[np.minimum(found, len(keys) - 1)] == probes
        shared[lo:lo + len(chunk_small)] = np.bincount(
            pair[hit], minlength=len(chunk_small))
    return shared.tolist()


def shared_investor_percentage(members: Sequence[int],
                               portfolios: Portfolio,
                               k: int = 2) -> float:
    """Percentage of the community's companies with ≥ ``k`` member investors.

    The denominator is every company invested in by *any* member (the
    paper: "as a percentage over all companies invested by the
    community"); returns a value in [0, 100].
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts: Dict[int, int] = {}
    for member in members:
        for company in portfolios.get(member, set()):
            counts[company] = counts.get(company, 0) + 1
    if not counts:
        return 0.0
    shared = sum(1 for c in counts.values() if c >= k)
    return 100.0 * shared / len(counts)


@dataclass
class CommunityStrength:
    """Both §5.3 metrics for one community."""

    community_id: int
    size: int
    avg_shared_size: float
    max_shared_size: int
    shared_investor_pct: float


def community_strength(community_id: int, members: Sequence[int],
                       portfolios: Portfolio,
                       k: int = 2) -> CommunityStrength:
    """Evaluate one community on both metrics."""
    sizes = pairwise_shared_sizes(members, portfolios)
    return CommunityStrength(
        community_id=community_id,
        size=len(members),
        avg_shared_size=(sum(sizes) / len(sizes)) if sizes else 0.0,
        max_shared_size=max(sizes) if sizes else 0,
        shared_investor_pct=shared_investor_percentage(members, portfolios, k),
    )
