"""Tests for the bipartite investment graph."""

import pytest

from repro.graph.bipartite import BipartiteGraph

TOY_EDGES = [
    (1, 101), (1, 102), (1, 103),
    (2, 101), (2, 102),
    (3, 104),
]


@pytest.fixture()
def toy():
    return BipartiteGraph(TOY_EDGES)


class TestConstruction:
    def test_counts(self, toy):
        assert toy.num_investors == 3
        assert toy.num_companies == 4
        assert toy.num_edges == 6

    def test_duplicates_dropped(self):
        graph = BipartiteGraph([(1, 101), (1, 101), (1, 102)])
        assert graph.num_edges == 2

    def test_portfolio_and_backers(self, toy):
        assert toy.portfolio(1) == {101, 102, 103}
        assert toy.backers(101) == {1, 2}
        assert toy.portfolio(99) == set()

    def test_degrees(self, toy):
        assert toy.out_degree(1) == 3
        assert toy.in_degree(101) == 2
        assert sorted(toy.out_degrees().tolist()) == [1, 2, 3]

    def test_mean_investors_per_company(self, toy):
        assert toy.mean_investors_per_company == pytest.approx(6 / 4)

    def test_empty_graph(self):
        graph = BipartiteGraph([])
        assert graph.num_investors == 0
        assert graph.mean_investors_per_company == 0.0
        assert graph.degree_concentration()[0].investor_fraction == 0.0


class TestFiltering:
    def test_filter_investors(self, toy):
        filtered = toy.filter_investors(2)
        assert filtered.investors == [1, 2]
        assert filtered.num_edges == 5

    def test_filter_drops_orphan_companies(self, toy):
        filtered = toy.filter_investors(3)
        assert filtered.companies == [101, 102, 103]


class TestConcentration:
    def test_rows(self, toy):
        rows = {r.min_degree: r for r in toy.degree_concentration((2, 3))}
        assert rows[2].investor_fraction == pytest.approx(2 / 3)
        assert rows[2].edge_fraction == pytest.approx(5 / 6)
        assert rows[3].investor_fraction == pytest.approx(1 / 3)
        assert rows[3].edge_fraction == pytest.approx(3 / 6)

    def test_fractions_decrease_with_threshold(self, investor_graph):
        rows = investor_graph.degree_concentration((1, 2, 3, 4, 5))
        inv_fractions = [r.investor_fraction for r in rows]
        edge_fractions = [r.edge_fraction for r in rows]
        assert inv_fractions == sorted(inv_fractions, reverse=True)
        assert edge_fractions == sorted(edge_fractions, reverse=True)

    def test_concentration_property(self, investor_graph):
        """Heavy-hitter investors account for disproportionate edges."""
        for row in investor_graph.degree_concentration((3,)):
            assert row.edge_fraction > row.investor_fraction


class TestProjection:
    def test_weights_count_shared_companies(self, toy):
        weights = toy.investor_projection()
        assert weights[(1, 2)] == 2
        assert (1, 3) not in weights

    def test_projection_symmetric_keys_ordered(self, toy):
        assert all(a < b for a, b in toy.investor_projection())


def to_networkx(graph):
    """``graph`` as a ``networkx.DiGraph``: ``("i", investor)`` and
    ``("c", company)`` nodes tagged ``bipartite`` 0 and 1."""
    import networkx as nx
    out = nx.DiGraph()
    out.add_nodes_from((("i", u) for u in graph.investors), bipartite=0)
    out.add_nodes_from((("c", c) for c in graph.companies), bipartite=1)
    out.add_edges_from((("i", u), ("c", c)) for u, c in graph.edges())
    return out


class TestNetworkx:
    def test_roundtrip_counts(self, toy):
        nx_graph = to_networkx(toy)
        assert nx_graph.number_of_nodes() == 7
        assert nx_graph.number_of_edges() == 6

    def test_bipartite_attribute(self, toy):
        nx_graph = to_networkx(toy)
        assert nx_graph.nodes[("i", 1)]["bipartite"] == 0
        assert nx_graph.nodes[("c", 101)]["bipartite"] == 1
