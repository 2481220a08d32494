"""Choosing the number of communities by held-out edge prediction.

The paper takes CoDA's community count as given (96); SNAP's tooling
selects it by cross-validation on held-out edges. This module
reproduces that selection: hide a fraction of edges, fit CoDA for each
candidate C on the rest, and score how well the fitted affiliations
predict the hidden edges against an equal number of sampled non-edges
(link-prediction AUC). The best C maximizes held-out AUC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.community.coda import CoDA, CodaResult
from repro.graph.bipartite import BipartiteGraph
from repro.graph.csr import position
from repro.util.rng import RngStream


@dataclass
class SelectionResult:
    """Outcome of the model-selection sweep."""

    best_num_communities: int
    scores: Dict[int, float]          # candidate C → held-out AUC
    holdout_edges: int

    def ranked(self) -> List[Tuple[int, float]]:
        return sorted(self.scores.items(), key=lambda kv: -kv[1])


def split_edges(graph: BipartiteGraph, holdout_fraction: float,
                rng: RngStream) -> Tuple[BipartiteGraph,
                                         List[Tuple[int, int]]]:
    """Randomly hide ``holdout_fraction`` of edges; returns (train, held)."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must be in (0, 1)")
    edges = list(graph.edges())         # ascending
    rng.shuffle(edges)
    cut = max(1, int(round(len(edges) * holdout_fraction)))
    held, train = edges[:cut], edges[cut:]
    return BipartiteGraph(train), held


def edge_scores(result: CodaResult,
                pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Model probability of each (investor, company) pair existing."""
    investors = memoryview(np.asarray(result.investor_ids, dtype=np.int64))
    companies = memoryview(np.asarray(result.company_ids, dtype=np.int64))
    scores = np.zeros(len(pairs))
    for k, (u, c) in enumerate(pairs):
        i, j = position(investors, u), position(companies, c)
        if i < 0 or j < 0:
            continue  # cold node: probability ≈ background (score 0)
        scores[k] = 1.0 - float(np.exp(-result.F[i] @ result.H[j]))
    return scores


def holdout_auc(result: CodaResult, held: Sequence[Tuple[int, int]],
                graph: BipartiteGraph, rng: RngStream) -> float:
    """AUC of held-out edges vs an equal number of sampled non-edges."""
    from repro.analysis.prediction import auc_score
    investors = graph.investors
    companies = graph.companies
    existing = set(graph.edges()) | set(held)
    negatives: List[Tuple[int, int]] = []
    attempts = 0
    while len(negatives) < len(held) and attempts < 50 * len(held):
        attempts += 1
        pair = (rng.choice(investors), rng.choice(companies))
        if pair not in existing:
            negatives.append(pair)
    pairs = list(held) + negatives
    labels = np.array([1.0] * len(held) + [0.0] * len(negatives))
    return auc_score(labels, edge_scores(result, pairs))


def select_num_communities(graph: BipartiteGraph,
                           candidates: Sequence[int],
                           holdout_fraction: float = 0.2,
                           max_iters: int = 30,
                           seed: int = 0) -> SelectionResult:
    """Sweep candidate community counts; return the AUC-best one."""
    if not candidates:
        raise ValueError("need at least one candidate community count")
    rng = RngStream(seed, "selection")
    train, held = split_edges(graph, holdout_fraction, rng.child("split"))
    scores: Dict[int, float] = {}
    for num in candidates:
        result = CoDA(num_communities=num, max_iters=max_iters,
                      seed=seed).fit(train)
        scores[num] = holdout_auc(result, held, train, rng.child(f"neg{num}"))
    best = max(scores, key=lambda c: scores[c])
    return SelectionResult(best_num_communities=best, scores=scores,
                           holdout_edges=len(held))
