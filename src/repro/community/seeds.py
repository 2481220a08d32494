"""Seed selection for affiliation-model initialization.

CoDA seeds communities from locally dense neighborhoods. Here we pick
high-in-degree companies greedily while penalizing backer-set overlap
with already-chosen seeds, so the C initial communities start from
different regions of the graph.
"""

from __future__ import annotations

from typing import List, Set

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.util.rng import RngStream


def select_seed_companies(graph: BipartiteGraph, count: int,
                          rng: RngStream,
                          max_overlap: float = 0.5) -> List[int]:
    """Pick up to ``count`` companies with large, mutually distinct backers;
    returns their columns (indexes into ``graph.company_ids``).

    Companies are scanned in decreasing in-degree; a candidate is skipped
    while the Jaccard overlap of its backer set with any chosen seed's
    exceeds ``max_overlap``. If the supply of distinct neighborhoods runs
    out, remaining seeds are filled with random companies so callers
    always get ``count`` seeds (when the graph has that many companies).
    """
    backers_of = graph.out.inverse()
    # stable, so equal in-degrees keep ascending column (and id) order
    ranked = np.argsort(-graph.in_degrees(), kind="stable").tolist()
    chosen: List[int] = []
    chosen_backers: List[Set[int]] = []
    for company in ranked:
        if len(chosen) >= count:
            break
        backers = set(backers_of.ids(company))
        if not backers:
            continue
        if any(_jaccard(backers, prior) > max_overlap
               for prior in chosen_backers):
            continue
        chosen.append(company)
        chosen_backers.append(backers)
    taken = set(chosen)
    remaining = [c for c in ranked if c not in taken]
    while len(chosen) < count and remaining:
        pick = remaining.pop(rng.py.randrange(len(remaining)))
        chosen.append(pick)
    return chosen


def _jaccard(a: Set[int], b: Set[int]) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)
