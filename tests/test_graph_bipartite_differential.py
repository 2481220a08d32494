"""``BipartiteGraph`` on ``repro.graph.csr`` against the dict of sets it
replaced.

The investment graph used to be two ``id → set`` dicts, and CoDA and the
SBM re-indexed its ids through ``id → position`` dicts and a COO matrix
built from ``edges()``. That graph, and the fit set-up that read it, live
on here only, as the reference: on drawn edge lists (the empty list and
repeated edges included) and on the crawled 1/16 graph, the CSR graph
must give the same ids, rows, degrees, projection and filtered
subgraphs, and CoDA must fit the same ``F`` and ``H`` bit for bit.
"""

from typing import Dict, List, Set

import numpy as np
import pytest
from scipy import sparse

from repro.community import coda
from repro.community.coda import CoDA, CodaResult
from repro.community.labelprop import label_propagation
from repro.community.sbm import BipartiteSBM, SbmResult
from repro.core.platform import ExploratoryPlatform, PlatformConfig
from repro.graph.bipartite import BipartiteGraph
from repro.util.rng import RngStream
from repro.world.config import WorldConfig
from repro.world.generator import generate_world


# ------------------------------------------------------------ the reference
class DictGraph:
    """The dict-of-sets ``BipartiteGraph`` the CSR graph replaced."""

    def __init__(self, edges):
        self._out: Dict[int, Set[int]] = {}
        self._in: Dict[int, Set[int]] = {}
        count = 0
        for investor, company in edges:
            targets = self._out.setdefault(investor, set())
            if company not in targets:
                targets.add(company)
                self._in.setdefault(company, set()).add(investor)
                count += 1
        self.num_edges = count

    @property
    def investors(self) -> List[int]:
        return sorted(self._out)

    @property
    def companies(self) -> List[int]:
        return sorted(self._in)

    def portfolio(self, investor):
        return self._out.get(investor, set())

    def backers(self, company):
        return self._in.get(company, set())

    def out_degree(self, investor):
        return len(self._out.get(investor, ()))

    def in_degree(self, company):
        return len(self._in.get(company, ()))

    def filter_investors(self, min_degree):
        return DictGraph((inv, c) for inv, targets in self._out.items()
                         if len(targets) >= min_degree for c in targets)

    def investor_projection(self):
        weights = {}
        for backers in self._in.values():
            members = sorted(backers)
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    weights[(a, b)] = weights.get((a, b), 0) + 1
        return weights

    def edges(self):
        for investor, targets in self._out.items():
            for company in targets:
                yield (investor, company)


def reference_seeds(graph, count, rng, max_overlap=0.5):
    """``select_seed_companies`` as it read the dict graph."""
    ranked = sorted(graph.companies,
                    key=lambda c: graph.in_degree(c), reverse=True)
    chosen, chosen_backers = [], []
    for company in ranked:
        if len(chosen) >= count:
            break
        backers = graph.backers(company)
        if not backers:
            continue
        if any(len(backers & prior) / len(backers | prior) > max_overlap
               for prior in chosen_backers):
            continue
        chosen.append(company)
        chosen_backers.append(set(backers))
    remaining = [c for c in ranked if c not in set(chosen)]
    while len(chosen) < count and remaining:
        chosen.append(remaining.pop(rng.py.randrange(len(remaining))))
    return chosen


def reference_coda(model, graph):
    """``CoDA.fit`` with the id dicts, COO matrix and per-backer seeding
    loops it had; the sweeps are the module's own."""
    rng = RngStream(model.seed, "coda")
    investor_ids, company_ids = graph.investors, graph.companies
    inv_index = {uid: i for i, uid in enumerate(investor_ids)}
    com_index = {cid: i for i, cid in enumerate(company_ids)}
    n_inv, n_com = len(investor_ids), len(company_ids)
    pairs = np.array([(inv_index[u], com_index[c])
                      for u, c in graph.edges()], np.int64).reshape(-1, 2)
    out_edges = sparse.csr_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
        shape=(n_inv, n_com))
    in_edges = out_edges.T.tocsr()

    C = model.num_communities
    F = 0.05 * rng.np.random((n_inv, C))
    H = 0.05 * rng.np.random((n_com, C))
    for c, company in enumerate(reference_seeds(graph, C, rng)):
        H[com_index[company], c] += 1.0
        backers = graph.backers(company)
        for u in backers:
            F[inv_index[u], c] += 1.0
        counts = {}
        for u in backers:
            for other in graph.portfolio(u):
                counts[other] = counts.get(other, 0) + 1
        for other, count in counts.items():
            if count >= 2 and other != company:
                H[com_index[other], c] += 0.5

    last_ll, iterations = -np.inf, 0
    for sweep in range(model.max_iters):
        iterations = sweep + 1
        F = coda._half_sweep(F, H, out_edges)
        H = coda._half_sweep(H, F, in_edges)
        ll = coda._log_likelihood(F, H, out_edges)
        if np.isfinite(last_ll) and abs(ll - last_ll) <= model.tol * (
                abs(last_ll) + 1.0):
            last_ll = ll
            break
        last_ll = ll
    coda._balance_columns(F, H)
    density = graph.num_edges / max(1, n_inv * n_com)
    result = CodaResult(
        investor_ids=investor_ids, company_ids=company_ids, F=F, H=H,
        delta=float(np.sqrt(-np.log(max(coda._EPS, 1.0 - density)))),
        log_likelihood=float(last_ll), iterations=iterations)
    model._extract_communities(result)
    return result


def reference_sbm_groups(model, graph):
    """The best-of-restarts SBM groups with ``A`` filled per edge through
    the id dicts; the EM steps are the model's own."""
    best = None
    for attempt in range(model.restarts):
        rng = RngStream(model.seed + 7919 * attempt, "sbm")
        investor_ids, company_ids = graph.investors, graph.companies
        inv_index = {u: i for i, u in enumerate(investor_ids)}
        com_index = {c: j for j, c in enumerate(company_ids)}
        n, m = len(investor_ids), len(company_ids)
        K = min(model.num_groups, max(1, n), max(1, m))
        A = np.zeros((n, m))
        for u, c in graph.edges():
            A[inv_index[u], com_index[c]] = 1.0
        inv_groups, com_groups = model._spectral_init(A, K, rng)
        last_ll = -np.inf
        for _ in range(model.max_iters):
            rates = model._estimate_rates(A, inv_groups, com_groups, K)
            new_inv = model._reassign(A, rates, com_groups, K, axis=0)
            new_com = model._reassign(A.T, rates.T, new_inv, K, axis=0)
            ll = model._log_likelihood(A, rates, new_inv, new_com)
            inv_groups, com_groups = new_inv, new_com
            if ll <= last_ll + 1e-9:
                last_ll = ll
                break
            last_ll = ll
        if best is None or last_ll > best[0]:
            best = (last_ll, inv_groups, com_groups)
    return best


# --------------------------------------------------------------- the checks
def assert_same_graph(graph, reference):
    assert graph.investors == reference.investors
    assert graph.companies == reference.companies
    assert graph.num_edges == reference.num_edges
    assert graph.num_investors == len(reference.investors)
    assert graph.num_companies == len(reference.companies)
    for investor in reference.investors:
        assert graph.portfolio(investor) == reference.portfolio(investor)
        assert graph.out_degree(investor) == reference.out_degree(investor)
    for company in reference.companies:
        assert graph.backers(company) == reference.backers(company)
        assert graph.in_degree(company) == reference.in_degree(company)
    assert graph.portfolios() == {u: reference.portfolio(u)
                                  for u in reference.investors}
    assert graph.out_degrees().tolist() == [
        reference.out_degree(u) for u in reference.investors]
    assert graph.in_degrees().tolist() == [
        reference.in_degree(c) for c in reference.companies]
    absent = max(reference.investors + reference.companies, default=0) + 1
    assert graph.portfolio(absent) == reference.portfolio(absent) == set()
    assert graph.backers(absent) == set() and graph.in_degree(absent) == 0
    assert graph.investor_projection() == reference.investor_projection()
    edges = list(graph.edges())
    assert edges == sorted(set(reference.edges()))


def assert_same_fits(graph, reference, communities, seed, max_iters=20,
                     sbm=True):
    model = CoDA(num_communities=communities, max_iters=max_iters,
                 seed=seed)
    got, want = model.fit(graph), reference_coda(model, reference)
    assert np.array_equal(got.F, want.F)
    assert np.array_equal(got.H, want.H)
    assert got.iterations == want.iterations
    assert got.log_likelihood == want.log_likelihood
    assert got.investor_communities == want.investor_communities
    assert got.company_communities == want.company_communities
    assert label_propagation(graph, seed=seed) \
        == label_propagation(reference, seed=seed)
    if sbm:
        model = BipartiteSBM(num_groups=communities, seed=seed, restarts=2)
        got = model.fit(graph)
        want_ll, want_inv, want_com = reference_sbm_groups(model, reference)
        assert isinstance(got, SbmResult)
        assert np.array_equal(got.investor_groups, want_inv)
        assert np.array_equal(got.company_groups, want_com)
        assert got.log_likelihood == want_ll


def test_empty_graph():
    graph, reference = BipartiteGraph([]), DictGraph([])
    assert_same_graph(graph, reference)
    assert_same_graph(graph.filter_investors(2), reference)
    assert list(graph.edges()) == [] and graph.portfolios() == {}
    assert_same_fits(graph, reference, communities=2, seed=0, sbm=False)


def test_repeated_edges_are_kept_once():
    edges = [(3, 10), (1, 10), (3, 10), (1, 11), (1, 10)]
    graph = BipartiteGraph(edges)
    assert_same_graph(graph, DictGraph(edges))
    assert list(graph.edges()) == [(1, 10), (1, 11), (3, 10)]


@pytest.fixture(scope="module")
def crawled_sixteenth():
    """The investment graph of a seed-7 world at 1/16 scale, crawled."""
    world = generate_world(WorldConfig(scale=1 / 16, seed=7))
    with ExploratoryPlatform(
            world, config=PlatformConfig(engine_backend="serial")) as platform:
        platform.run_full_crawl()
        edges = sorted(platform.investor_graph().edges())
    return BipartiteGraph(edges), DictGraph(edges)


def test_crawled_sixteenth_graph(crawled_sixteenth):
    graph, reference = crawled_sixteenth
    assert graph.num_edges > 10_000
    assert_same_graph(graph, reference)
    for k in (2, 4):
        assert_same_graph(graph.filter_investors(k),
                          reference.filter_investors(k))


@pytest.mark.parametrize("communities,seed", [(8, 7), (16, 3)])
def test_crawled_sixteenth_fits(crawled_sixteenth, communities, seed):
    graph, reference = crawled_sixteenth
    # the study's own input: investors with at least four investments
    # (its dense SBM matrix would not fit the whole graph)
    assert_same_fits(graph.filter_investors(4),
                     reference.filter_investors(4), communities, seed,
                     sbm=False)
    assert label_propagation(graph) == label_propagation(reference)


def test_crawled_tiny_graph_sbm(investor_graph):
    edges = list(investor_graph.filter_investors(4).edges())
    assert_same_fits(BipartiteGraph(edges), DictGraph(edges),
                     communities=4, seed=2)


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_EDGES = st.lists(st.tuples(st.integers(0, 15), st.integers(100, 120)),
                  max_size=80)


@given(edges=_EDGES, min_degree=st.integers(0, 5))
@settings(max_examples=200, deadline=None)
def test_drawn_graphs(edges, min_degree):
    graph, reference = BipartiteGraph(edges), DictGraph(edges)
    assert_same_graph(graph, reference)
    assert_same_graph(graph.filter_investors(min_degree),
                      reference.filter_investors(min_degree))


@given(edges=_EDGES, communities=st.integers(1, 4),
       seed=st.integers(0, 2 ** 16), max_iters=st.integers(1, 10))
@settings(max_examples=80, deadline=None)
def test_drawn_fits(edges, communities, seed, max_iters):
    assert_same_fits(BipartiteGraph(edges), DictGraph(edges), communities,
                     seed, max_iters=max_iters)
