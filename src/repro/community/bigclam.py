"""BigCLAM baseline on the undirected co-investment projection.

BigCLAM (Yang & Leskovec, WSDM '13) is the undirected ancestor of CoDA:
one non-negative affiliation matrix F, edge probability
``1 − exp(−F_u · F_v)``. The paper's §6 notes that classic detectors
assume undirected one-mode graphs — this baseline makes that concrete by
first projecting the bipartite graph onto investors (edge when two
investors share ≥ ``min_overlap`` companies) and then fitting the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.util.rng import RngStream

_EPS = 1e-10
_MAX_AFFILIATION = 12.0


@dataclass
class BigClamResult:
    """Fitted BigCLAM model over projected investors."""

    investor_ids: List[int]
    F: np.ndarray
    delta: float
    iterations: int
    communities: Dict[int, Set[int]] = field(default_factory=dict)

    @property
    def num_communities(self) -> int:
        return len(self.communities)


class BigClam:
    """Fits BigCLAM to the investor projection of a bipartite graph."""

    def __init__(self, num_communities: int, max_iters: int = 60,
                 seed: int = 0, min_overlap: int = 1,
                 min_community_size: int = 2):
        if num_communities < 1:
            raise ValueError("num_communities must be >= 1")
        self.num_communities = num_communities
        self.max_iters = max_iters
        self.seed = seed
        self.min_overlap = min_overlap
        self.min_community_size = min_community_size

    def fit(self, graph: BipartiteGraph) -> BigClamResult:
        rng = RngStream(self.seed, "bigclam")
        projection = graph.investor_projection()
        adjacency: Dict[int, Set[int]] = {}
        for (a, b), weight in projection.items():
            if weight >= self.min_overlap:
                adjacency.setdefault(a, set()).add(b)
                adjacency.setdefault(b, set()).add(a)
        investor_ids = sorted(adjacency)
        n = len(investor_ids)
        C = self.num_communities
        if n == 0:
            return BigClamResult(investor_ids=[], F=np.zeros((0, C)),
                                 delta=0.0, iterations=0)
        ids = np.array(investor_ids, dtype=np.int64)
        neighbors = [np.searchsorted(ids, sorted(adjacency[uid]))
                     for uid in investor_ids]

        F = 0.1 * rng.np.random((n, C))
        # Seed: highest-degree nodes' neighborhoods.
        ranked = sorted(range(n), key=lambda i: len(neighbors[i]),
                        reverse=True)
        for c, i in enumerate(ranked[:C]):
            F[i, c] += 1.0
            F[neighbors[i], c] += 1.0

        sum_F = F.sum(axis=0)
        iterations = 0
        for sweep in range(self.max_iters):
            iterations = sweep + 1
            order = list(range(n))
            rng.shuffle(order)
            moved = 0.0
            for i in order:
                sum_F -= F[i]
                updated = _update_row_undirected(F[i], F, neighbors[i], sum_F)
                moved += float(np.abs(updated - F[i]).sum())
                F[i] = updated
                sum_F += F[i]
            if moved < 1e-3 * n:
                break

        edges = sum(len(nbrs) for nbrs in neighbors) / 2
        density = edges / max(1, n * (n - 1) / 2)
        delta = float(np.sqrt(-np.log(max(_EPS, 1.0 - density))))
        result = BigClamResult(investor_ids=investor_ids, F=F, delta=delta,
                               iterations=iterations)
        for c in range(C):
            members = {investor_ids[i]
                       for i in np.nonzero(F[:, c] >= delta)[0]}
            if len(members) >= self.min_community_size:
                result.communities[len(result.communities)] = members
        return result


def _update_row_undirected(row: np.ndarray, F: np.ndarray,
                           neighbors: np.ndarray, sum_other: np.ndarray,
                           step: float = 0.3, backtracks: int = 5) -> np.ndarray:
    if neighbors.size == 0:
        return np.zeros_like(row)
    nbr_vecs = F[neighbors]
    nbr_sum = nbr_vecs.sum(axis=0)

    def objective(candidate: np.ndarray) -> float:
        dots = np.maximum(_EPS, nbr_vecs @ candidate)
        return float(np.log1p(-np.exp(-dots) + _EPS).sum()
                     - candidate @ (sum_other - nbr_sum))

    dots = np.maximum(_EPS, nbr_vecs @ row)
    weights = np.exp(-dots) / np.maximum(_EPS, 1.0 - np.exp(-dots))
    grad = weights @ nbr_vecs - (sum_other - nbr_sum)
    current = objective(row)
    scale = step
    for _ in range(backtracks):
        candidate = np.clip(row + scale * grad, 0.0, _MAX_AFFILIATION)
        if objective(candidate) > current:
            return candidate
        scale *= 0.5
    return row
