"""Bipartite stochastic block model inference (the §7 future-work item).

"We will perform community inference using stochastic block models,
which outputs an assignment of nodes to communities based on the
adjacency matrix of the graph" — here for the directed bipartite case:

1. **Spectral initialization**: SVD of the degree-normalized biadjacency
   matrix (the standard spectral co-clustering embedding), k-means on
   the left singular vectors for investors, right for companies.
2. **Poisson EM refinement**: given group assignments, estimate block
   rates ``λ_gh``; reassign each node to the group maximizing its
   Poisson log-likelihood; iterate to a fixed point.

Unlike CoDA the assignment is *hard* (non-overlapping) — which is
exactly the comparison X2 runs: how much does overlap matter for
recovering planted co-investment communities?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.util.rng import RngStream

_EPS = 1e-9


@dataclass
class SbmResult:
    """Hard bipartite block assignment."""

    investor_ids: List[int]
    company_ids: List[int]
    investor_groups: np.ndarray        # (n_inv,) group index per investor
    company_groups: np.ndarray         # (n_com,)
    rates: np.ndarray                  # (K, K) block rates λ
    iterations: int
    log_likelihood: float

    def investor_communities(self) -> Dict[int, Set[int]]:
        communities: Dict[int, Set[int]] = {}
        for uid, group in zip(self.investor_ids, self.investor_groups):
            communities.setdefault(int(group), set()).add(uid)
        return communities


class BipartiteSBM:
    """Spectral-init + Poisson-EM bipartite SBM."""

    def __init__(self, num_groups: int, max_iters: int = 30, seed: int = 0,
                 restarts: int = 4):
        if num_groups < 1:
            raise ValueError("num_groups must be >= 1")
        if restarts < 1:
            raise ValueError("restarts must be >= 1")
        self.num_groups = num_groups
        self.max_iters = max_iters
        self.seed = seed
        self.restarts = restarts

    def fit(self, graph: BipartiteGraph) -> SbmResult:
        """Best-of-``restarts`` EM runs (k-means init is a local search)."""
        best: Optional[SbmResult] = None
        for attempt in range(self.restarts):
            candidate = self._fit_once(graph, seed_offset=attempt)
            if best is None or candidate.log_likelihood > best.log_likelihood:
                best = candidate
        assert best is not None
        return best

    def _fit_once(self, graph: BipartiteGraph, seed_offset: int) -> SbmResult:
        rng = RngStream(self.seed + 7919 * seed_offset, "sbm")
        investor_ids, company_ids = graph.investors, graph.companies
        n, m = len(investor_ids), len(company_ids)
        K = min(self.num_groups, max(1, n), max(1, m))

        A = np.zeros((n, m))
        rows = np.repeat(np.arange(n), graph.out_degrees())
        A[rows, graph.out.indices] = 1.0

        inv_groups, com_groups = self._spectral_init(A, K, rng)

        last_ll = -np.inf
        iterations = 0
        rates = np.full((K, K), _EPS)
        for sweep in range(self.max_iters):
            iterations = sweep + 1
            rates = self._estimate_rates(A, inv_groups, com_groups, K)
            new_inv = self._reassign(A, rates, com_groups, K, axis=0)
            new_com = self._reassign(A.T, rates.T, new_inv, K, axis=0)
            ll = self._log_likelihood(A, rates, new_inv, new_com)
            inv_groups, com_groups = new_inv, new_com
            if ll <= last_ll + 1e-9:
                last_ll = ll
                break
            last_ll = ll

        return SbmResult(investor_ids=investor_ids, company_ids=company_ids,
                         investor_groups=inv_groups,
                         company_groups=com_groups, rates=rates,
                         iterations=iterations,
                         log_likelihood=float(last_ll))

    # ------------------------------------------------------------- internals
    def _spectral_init(self, A: np.ndarray, K: int, rng: RngStream):
        n, m = A.shape
        row_deg = np.maximum(1.0, A.sum(axis=1))
        col_deg = np.maximum(1.0, A.sum(axis=0))
        normalized = A / np.sqrt(row_deg)[:, None] / np.sqrt(col_deg)[None, :]
        # Randomized-free exact thin SVD; matrices here are small.
        U, _s, Vt = np.linalg.svd(normalized, full_matrices=False)
        dims = min(K, U.shape[1])
        inv_embed = U[:, :dims]
        com_embed = Vt[:dims, :].T
        inv_groups = _kmeans(inv_embed, K, rng)
        com_groups = _kmeans(com_embed, K, rng)
        return inv_groups, com_groups

    @staticmethod
    def _estimate_rates(A: np.ndarray, inv_groups: np.ndarray,
                        com_groups: np.ndarray, K: int) -> np.ndarray:
        rates = np.full((K, K), _EPS)
        inv_onehot = np.eye(K)[inv_groups]           # (n, K)
        com_onehot = np.eye(K)[com_groups]           # (m, K)
        edges = inv_onehot.T @ A @ com_onehot        # (K, K) edge counts
        sizes = np.outer(inv_onehot.sum(axis=0), com_onehot.sum(axis=0))
        np.divide(edges, np.maximum(1.0, sizes), out=rates)
        return np.maximum(rates, _EPS)

    @staticmethod
    def _reassign(A: np.ndarray, rates: np.ndarray,
                  other_groups: np.ndarray, K: int, axis: int) -> np.ndarray:
        other_onehot = np.eye(K)[other_groups]       # (m, K)
        edge_counts = A @ other_onehot               # (n, K) edges into group
        group_sizes = other_onehot.sum(axis=0)       # (K,)
        log_rates = np.log(rates)                    # (K, K)
        # score[u, g] = Σ_h edges(u,h) log λ_gh − |h| λ_gh
        scores = edge_counts @ log_rates.T - group_sizes @ rates.T
        return np.argmax(scores, axis=1)

    @staticmethod
    def _log_likelihood(A: np.ndarray, rates: np.ndarray,
                        inv_groups: np.ndarray,
                        com_groups: np.ndarray) -> float:
        lam = rates[np.ix_(inv_groups, com_groups)]
        return float((A * np.log(lam) - lam).sum())


def _kmeans(points: np.ndarray, k: int, rng: RngStream,
            iters: int = 25) -> np.ndarray:
    """Plain Lloyd's k-means with k-means++-style farthest-point init."""
    n = points.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    k = min(k, n)
    centers = [points[rng.py.randrange(n)]]
    for _ in range(1, k):
        dists = np.min(
            [np.sum((points - c) ** 2, axis=1) for c in centers], axis=0)
        total = dists.sum()
        if total <= 0:
            centers.append(points[rng.py.randrange(n)])
            continue
        draw = rng.uniform(0, total)
        centers.append(points[int(np.searchsorted(np.cumsum(dists), draw))])
    centers = np.array(centers)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(iters):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for c in range(k):
            mask = labels == c
            if mask.any():
                centers[c] = points[mask].mean(axis=0)
    return labels
