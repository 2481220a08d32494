"""Bipartite investment graph with the paper's §5.1 statistics."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSR, position


@dataclass
class DegreeConcentration:
    """One row of the §5.1 concentration analysis.

    "Only 30% of the investors have out-degree ≥ 3. However, these
    investment edges account for 75% of all the investment edges."
    """

    min_degree: int
    investor_fraction: float
    edge_fraction: float


class BipartiteGraph:
    """Directed bipartite graph: investors → companies.

    Sorted ids ``investor_ids`` and ``company_ids``, and one :class:`CSR`
    ``out`` from investor row ``r`` (``investor_ids[r]``) to company
    column ``c`` (``company_ids[c]``), whose cached inverse holds the
    backers. Duplicate edges are dropped; investors enter the graph only
    with ≥ 1 investment (the paper omits non-investing investors).
    """

    def __init__(self, edges: Iterable[Tuple[int, int]] = ()):
        ends = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
        self.investor_ids, rows = np.unique(ends[0::2], return_inverse=True)
        self.company_ids, cols = np.unique(ends[1::2], return_inverse=True)
        self.out = CSR.from_keys(rows * self.num_companies + cols,
                                 self.num_investors, self.num_companies)

    # ------------------------------------------------------------- basic stats
    @property
    def investors(self) -> List[int]:
        return self.investor_ids.tolist()

    @property
    def companies(self) -> List[int]:
        return self.company_ids.tolist()

    @property
    def num_investors(self) -> int:
        return len(self.investor_ids)

    @property
    def num_companies(self) -> int:
        return len(self.company_ids)

    @property
    def num_edges(self) -> int:
        return self.out.num_edges

    def portfolio(self, investor: int) -> FrozenSet[int]:
        """Companies the investor invested in (empty if unknown)."""
        at = position(memoryview(self.investor_ids), investor)
        return frozenset(self.company_ids[self.out.row(at)].tolist()
                         if at >= 0 else ())

    def portfolios(self) -> Dict[int, FrozenSet[int]]:
        """investor → company-set map (the metrics' input format)."""
        return {investor: self.portfolio(investor)
                for investor in self.investors}

    def backers(self, company: int) -> FrozenSet[int]:
        at = position(memoryview(self.company_ids), company)
        return frozenset(self.investor_ids[self.out.inverse().row(at)]
                         .tolist() if at >= 0 else ())

    def out_degree(self, investor: int) -> int:
        at = position(memoryview(self.investor_ids), investor)
        return self.out.degree[at] if at >= 0 else 0

    def in_degree(self, company: int) -> int:
        at = position(memoryview(self.company_ids), company)
        return self.out.inverse().degree[at] if at >= 0 else 0

    def out_degrees(self) -> np.ndarray:
        """Each investor's out-degree, in ``investor_ids`` order."""
        return np.asarray(self.out.degree, dtype=np.int64)

    def in_degrees(self) -> np.ndarray:
        """Each company's in-degree, in ``company_ids`` order."""
        return np.asarray(self.out.inverse().degree, dtype=np.int64)

    @property
    def mean_investors_per_company(self) -> float:
        if not self.num_companies:
            return 0.0
        return self.num_edges / self.num_companies

    # --------------------------------------------------------------- filtering
    def filter_investors(self, min_degree: int) -> "BipartiteGraph":
        """Subgraph of investors with ≥ ``min_degree`` investments (§5.2);
        companies left without a backer are dropped."""
        keep = self.out_degrees() >= min_degree
        rows = self.out.select(keep)
        used = np.bincount(rows.indices, minlength=self.num_companies) > 0
        graph = BipartiteGraph()
        graph.investor_ids = self.investor_ids[keep]
        graph.company_ids = self.company_ids[used]
        graph.out = CSR(rows.indptr, (np.cumsum(used) - 1)[rows.indices],
                        graph.num_companies)
        return graph

    # ---------------------------------------------------------------- analyses
    def degree_concentration(
            self, thresholds: Sequence[int] = (3, 4, 5)) -> List[DegreeConcentration]:
        """The §5.1 concentration rows for the given degree thresholds."""
        degrees = self.out_degrees()
        total_investors = len(degrees)
        total_edges = degrees.sum()
        rows = []
        for threshold in thresholds:
            mask = degrees >= threshold
            rows.append(DegreeConcentration(
                min_degree=threshold,
                investor_fraction=(float(mask.sum()) / total_investors
                                   if total_investors else 0.0),
                edge_fraction=(float(degrees[mask].sum()) / total_edges
                               if total_edges else 0.0),
            ))
        return rows

    def investor_projection(self) -> Dict[Tuple[int, int], int]:
        """Weighted co-investment graph: (investor, investor) → overlap.

        Used by the baseline community detectors that need an undirected
        one-mode graph. Weight = number of co-invested companies.
        """
        backers = self.out.inverse()
        return dict(Counter(
            pair for company in range(self.num_companies)
            for pair in combinations(
                self.investor_ids[backers.row(company)].tolist(), 2)))

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Every edge once, ascending ``(investor, company)``."""
        investors = np.repeat(self.investor_ids, np.asarray(self.out.degree))
        return zip(investors.tolist(),
                   self.company_ids[self.out.indices].tolist())
