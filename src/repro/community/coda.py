"""CoDA: Communities through Directed Affiliations, from scratch.

Model (Yang, McAuley & Leskovec, WSDM '14), specialized to a directed
bipartite graph where edges always point investor → company:

* each investor ``u`` has a non-negative *outgoing* affiliation vector
  ``F_u ∈ R^C``; each company ``v`` a non-negative *incoming* vector
  ``H_v ∈ R^C``;
* an edge u→v exists with probability ``1 − exp(−F_u · H_v)``.

The log-likelihood over the observed graph is::

    L = Σ_{(u,v)∈E} log(1 − exp(−F_u·H_v)) − Σ_{(u,v)∉E} F_u·H_v

Maximized by block-coordinate projected gradient ascent: each row update
uses only the row's neighbors plus the cached column sums ``ΣF`` / ``ΣH``
(the standard BigCLAM trick that makes the non-edge term O(C)), with
backtracking line search on the row's local objective. The graph is
bipartite, so an investor row reads only ``H`` and ``ΣH`` and a company
row only ``F`` and ``ΣF``: a half-sweep updates all rows of one side at
once, as segment sums over the CSR edge list.

Membership: node n belongs to community c when its affiliation exceeds
``δ = sqrt(−log(1 − ρ))`` where ρ is the background edge density — i.e.
when the affiliation alone would explain an edge better than chance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.community.seeds import select_seed_companies
from repro.graph.bipartite import BipartiteGraph
from repro.util.rng import RngStream

_EPS = 1e-10
_MAX_AFFILIATION = 12.0


@dataclass
class CodaResult:
    """Fitted CoDA model and the extracted communities."""

    investor_ids: List[int]
    company_ids: List[int]
    F: np.ndarray                      # (num_investors, C) outgoing
    H: np.ndarray                      # (num_companies, C) incoming
    delta: float
    log_likelihood: float
    iterations: int
    #: community id → set of investor ids (affiliation ≥ δ)
    investor_communities: Dict[int, Set[int]] = field(default_factory=dict)
    #: community id → set of company ids (affiliation ≥ δ)
    company_communities: Dict[int, Set[int]] = field(default_factory=dict)

    @property
    def num_communities(self) -> int:
        return len(self.investor_communities)

    @property
    def average_community_size(self) -> float:
        sizes = [len(m) for m in self.investor_communities.values()]
        return float(np.mean(sizes)) if sizes else 0.0

    def communities_sorted_by_size(self) -> List[Tuple[int, Set[int]]]:
        return sorted(self.investor_communities.items(),
                      key=lambda kv: len(kv[1]), reverse=True)


class CoDA:
    """Fits the CoDA affiliation model to a :class:`BipartiteGraph`.

    Args:
        num_communities: C, the affiliation dimensionality. The paper's
            SNAP run produced 96 communities at full scale.
        max_iters: full sweeps over all rows.
        tol: stop when a sweep improves the log-likelihood by less than
            ``tol`` in relative terms.
        seed: RNG seed for initialization noise and seed selection.
        min_community_size: detected communities smaller than this are
            dropped (they carry no pairwise statistics).
    """

    def __init__(self, num_communities: int, max_iters: int = 60,
                 tol: float = 1e-4, seed: int = 0,
                 min_community_size: int = 2):
        if num_communities < 1:
            raise ValueError("num_communities must be >= 1")
        self.num_communities = num_communities
        self.max_iters = max_iters
        self.tol = tol
        self.seed = seed
        self.min_community_size = min_community_size

    # ------------------------------------------------------------------- fit
    def fit(self, graph: BipartiteGraph) -> CodaResult:
        rng = RngStream(self.seed, "coda")
        investor_ids, company_ids = graph.investors, graph.companies
        n_inv, n_com = len(investor_ids), len(company_ids)

        out_edges, in_edges = graph.out, graph.out.inverse()

        F, H = self._initialize(graph, rng)

        last_ll = -np.inf
        iterations = 0
        for sweep in range(self.max_iters):
            iterations = sweep + 1
            F = _half_sweep(F, H, out_edges)
            H = _half_sweep(H, F, in_edges)
            ll = _log_likelihood(F, H, out_edges)
            if np.isfinite(last_ll) and abs(ll - last_ll) <= self.tol * (
                    abs(last_ll) + 1.0):
                last_ll = ll
                break
            last_ll = ll

        _balance_columns(F, H)
        density = graph.num_edges / max(1, n_inv * n_com)
        delta = float(np.sqrt(-np.log(max(_EPS, 1.0 - density))))

        result = CodaResult(
            investor_ids=investor_ids, company_ids=company_ids,
            F=F, H=H, delta=delta, log_likelihood=float(last_ll),
            iterations=iterations)
        self._extract_communities(result)
        return result

    # -------------------------------------------------------------- internals
    def _initialize(self, graph: BipartiteGraph,
                    rng: RngStream) -> Tuple[np.ndarray, np.ndarray]:
        """Seed each community from a high-degree company neighborhood."""
        n_inv, n_com, C = graph.num_investors, graph.num_companies, \
            self.num_communities
        F = 0.05 * rng.np.random((n_inv, C))
        H = 0.05 * rng.np.random((n_com, C))
        out, backers_of = graph.out, graph.out.inverse()
        for c, col in enumerate(select_seed_companies(graph, C, rng)):
            H[col, c] += 1.0
            backers = backers_of.row(col)
            F[backers, c] += 1.0
            # Pull in companies co-invested by ≥ 2 of its (≥ 1) backers.
            held = np.concatenate([out.row(u) for u in backers.tolist()])
            pulled = np.bincount(held, minlength=n_com) >= 2
            pulled[col] = False
            H[pulled, c] += 0.5
        return F, H

    def _extract_communities(self, result: CodaResult) -> None:
        keep = 0
        for c in range(result.F.shape[1]):
            investors = {result.investor_ids[i]
                         for i in np.nonzero(result.F[:, c]
                                             >= result.delta)[0]}
            if len(investors) < self.min_community_size:
                continue
            companies = {result.company_ids[j]
                         for j in np.nonzero(result.H[:, c]
                                             >= result.delta)[0]}
            result.investor_communities[keep] = investors
            result.company_communities[keep] = companies
            keep += 1


def _balance_columns(F: np.ndarray, H: np.ndarray) -> None:
    """Equalize per-community scales of F and H in place.

    The likelihood only sees ``F_u · H_v``, so column c can drift to
    (large F, tiny H) without changing the fit; rebalancing by
    ``s = sqrt(max H_c / max F_c)`` makes the shared membership
    threshold δ meaningful on both sides.
    """
    for c in range(F.shape[1]):
        f_peak = float(F[:, c].max(initial=0.0))
        h_peak = float(H[:, c].max(initial=0.0))
        if f_peak <= _EPS or h_peak <= _EPS:
            continue
        scale = np.sqrt(h_peak / f_peak)
        F[:, c] *= scale
        H[:, c] /= scale


def _edge_dots(rows: np.ndarray, owners: np.ndarray,
               nbr_vecs: np.ndarray) -> np.ndarray:
    """``max(ε, rows[i] · nbr_vec)`` for every edge, ``i`` its owner."""
    return np.maximum(_EPS, np.einsum("ec,ec->e", rows[owners], nbr_vecs))


def _row_sums(indptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``out[i] = values[indptr[i]:indptr[i + 1]].sum(axis=0)``, 0 for an
    empty row: the product of a CSR 0/1 matrix with per-edge rows."""
    out = np.zeros((len(indptr) - 1,) + values.shape[1:])
    filled = indptr[:-1] < indptr[1:]
    if filled.any():
        # empty rows are skipped, so each start's segment ends exactly
        # where the next filled row begins
        out[filled] = np.add.reduceat(values, indptr[:-1][filled], axis=0)
    return out


def _half_sweep(rows: np.ndarray, other: np.ndarray, edges,
                step: float = 0.3, backtracks: int = 5) -> np.ndarray:
    """One projected-gradient step with backtracking for every row at once.

    Row ``i``'s neighbors are ``edges.indices[edges.indptr[i]:
    edges.indptr[i + 1]]`` (a CSR adjacency); its objective is its
    edges' log-likelihood minus ``x · (ΣO − Σ_neighbors O)``. A row takes
    the first of the halving step scales that improves its own objective
    and keeps its value if none does; a row with no neighbors becomes 0.
    """
    indptr = np.asarray(edges.indptr)
    owners = np.repeat(np.arange(len(rows)), np.diff(indptr))
    nbr_vecs = other[edges.indices]                 # (E, C), one per edge
    rest = other.sum(axis=0) - _row_sums(indptr, nbr_vecs)

    def objective(candidate: np.ndarray) -> np.ndarray:
        dots = _edge_dots(candidate, owners, nbr_vecs)
        return (np.bincount(owners, np.log1p(-np.exp(-dots) + _EPS),
                            minlength=len(rows))
                - np.einsum("ic,ic->i", candidate, rest))

    dots = _edge_dots(rows, owners, nbr_vecs)
    weights = np.exp(-dots) / np.maximum(_EPS, 1.0 - np.exp(-dots))
    grad = _row_sums(indptr, weights[:, None] * nbr_vecs) - rest

    current = objective(rows)
    pending = np.diff(indptr) > 0
    updated = np.where(pending[:, None], rows, 0.0)
    scale = step
    for _ in range(backtracks):
        candidate = np.clip(rows + scale * grad, 0.0, _MAX_AFFILIATION)
        accept = pending & (objective(candidate) > current)
        updated[accept] = candidate[accept]
        pending &= ~accept
        scale *= 0.5
    return updated


def _log_likelihood(F: np.ndarray, H: np.ndarray, out_edges) -> float:
    """Full model log-likelihood using the non-edge cache trick
    (``out_edges``: the investor → company CSR adjacency)."""
    owners = np.repeat(np.arange(len(F)), np.diff(out_edges.indptr))
    dots = _edge_dots(F, owners, H[out_edges.indices])
    return float(np.log1p(-np.exp(-dots) + _EPS).sum()
                 - (F.sum(axis=0) @ H.sum(axis=0) - dots.sum()))
