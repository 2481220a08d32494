"""Tests for the CoDA reimplementation.

The planted-recovery tests use a synthetic bipartite graph with two
clean co-investment blocks plus noise — CoDA must separate them.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.community.coda import CoDA, _log_likelihood
from repro.graph.bipartite import BipartiteGraph
from repro.util.rng import RngStream


def _two_block_graph(noise_edges: int = 10, seed: int = 0):
    """Investors 0-9 invest in companies 100-109; 20-29 in 200-209."""
    rng = RngStream(seed)
    edges = []
    for u in range(10):
        for c in range(100, 110):
            if rng.bernoulli(0.6):
                edges.append((u, c))
    for u in range(20, 30):
        for c in range(200, 210):
            if rng.bernoulli(0.6):
                edges.append((u, c))
    for _ in range(noise_edges):
        edges.append((rng.randint(0, 29), rng.randint(100, 209)))
    return BipartiteGraph(edges), {frozenset(range(10)),
                                   frozenset(range(20, 30))}


class TestPlantedRecovery:
    def test_two_blocks_recovered(self):
        graph, truth = _two_block_graph()
        result = CoDA(num_communities=2, max_iters=40, seed=1).fit(graph)
        assert result.num_communities == 2
        detected = [frozenset(m) for m in
                    result.investor_communities.values()]
        for true_block in truth:
            best = max(len(d & true_block) / len(d | true_block)
                       for d in detected)
            assert best > 0.7, f"block {sorted(true_block)[:3]}... lost"

    def test_companies_assigned_too(self):
        graph, _truth = _two_block_graph()
        result = CoDA(num_communities=2, max_iters=40, seed=1).fit(graph)
        block_a = {c for c in range(100, 110)}
        found = [frozenset(m) for m in result.company_communities.values()]
        assert any(len(f & block_a) >= 6 for f in found)

    def test_likelihood_is_finite_and_improves(self):
        graph, _truth = _two_block_graph()
        start = _initial_log_likelihood(graph, seed=1)
        short = CoDA(num_communities=2, max_iters=2, seed=1).fit(graph)
        long = CoDA(num_communities=2, max_iters=40, seed=1).fit(graph)
        assert np.isfinite(short.log_likelihood)
        assert start < short.log_likelihood
        assert long.log_likelihood >= short.log_likelihood - 1e-6
        # the fit climbs from -275 to -159 here; a step rule that keeps
        # worse steps ends far below where it started
        assert long.log_likelihood >= start + 0.3 * abs(start)


def _initial_log_likelihood(graph: BipartiteGraph, seed: int) -> float:
    """The model's log-likelihood at ``CoDA.fit``'s starting point."""
    model = CoDA(num_communities=2, seed=seed)
    F, H = model._initialize(graph, RngStream(seed, "coda"))
    out_edges = sparse.csr_matrix(
        (np.ones(graph.num_edges), graph.out.indices, graph.out.indptr),
        shape=(len(graph.investors), len(graph.companies)))
    return _log_likelihood(F, H, out_edges)


class TestMechanics:
    def test_deterministic(self):
        graph, _ = _two_block_graph()
        a = CoDA(num_communities=2, seed=5).fit(graph)
        b = CoDA(num_communities=2, seed=5).fit(graph)
        assert a.investor_communities == b.investor_communities

    def test_seed_changes_result_possible(self):
        graph, _ = _two_block_graph(noise_edges=40)
        a = CoDA(num_communities=3, seed=1).fit(graph)
        assert a.num_communities >= 1  # smoke: different C still works

    def test_affiliations_nonnegative(self):
        graph, _ = _two_block_graph()
        result = CoDA(num_communities=2, seed=1).fit(graph)
        assert (result.F >= 0).all()
        assert (result.H >= 0).all()

    def test_min_community_size_enforced(self):
        graph, _ = _two_block_graph()
        result = CoDA(num_communities=2, seed=1,
                      min_community_size=3).fit(graph)
        assert all(len(m) >= 3 for m in result.investor_communities.values())

    def test_invalid_num_communities(self):
        with pytest.raises(ValueError):
            CoDA(num_communities=0)

    def test_average_community_size(self):
        graph, _ = _two_block_graph()
        result = CoDA(num_communities=2, seed=1).fit(graph)
        sizes = [len(m) for m in result.investor_communities.values()]
        assert result.average_community_size == pytest.approx(
            float(np.mean(sizes)))

    def test_sorted_by_size(self):
        graph, _ = _two_block_graph()
        result = CoDA(num_communities=2, seed=1).fit(graph)
        ordered = result.communities_sorted_by_size()
        sizes = [len(m) for _cid, m in ordered]
        assert sizes == sorted(sizes, reverse=True)

    def test_on_real_world_graph(self, investor_graph):
        filtered = investor_graph.filter_investors(4)
        if filtered.num_investors < 8:
            pytest.skip("tiny world too small for this seed")
        result = CoDA(num_communities=4, max_iters=20, seed=2).fit(filtered)
        assert result.num_communities >= 1
        members = set().union(*result.investor_communities.values())
        assert members <= set(filtered.investors)
