"""``CoDA.fit`` and ``sampled_shared_sizes`` against the loops they replaced.

``CoDA.fit`` updates every row of one side per half-sweep as segment
sums over a CSR edge list. The reference below is the row-at-a-time
loop it replaced, kept here as the oracle: one ``_update_row`` call per
row, in a shuffled order, with running column sums. The graph is
bipartite, so within a half-sweep no row reads another row of its own
side and the two compute the same update; only the floating-point
summation order differs. Held: identical communities and iteration
counts, F and H within 1e-9 absolute, and the log-likelihood after
every sweep within 1e-9 relative. (The F/H bound is a property of the
graphs below, not of every graph: on random graphs of up to 40 × 40
with up to 200 edges and 30 sweeps, 16 fits in 600 had a nearly
converged row whose step gains less than the objective's rounding
error, which one side takes and the other refuses — F then differed by
up to 4e-8 and the log-likelihood by up to 3e-9 relative, while the
communities and iteration counts still agreed in all 600.)

``sampled_shared_sizes`` draws its pairs with two vector draws and
counts overlaps with a sorted-key probe; the sampling cases pin the
contract the per-pair loop had (no self-pairs, unknown investors count
as empty portfolios, any hashable company id, same seed same sizes),
check that the drawn pairs are uniform, and count the drawn pairs'
overlaps with a set intersection across several probe chunks.
"""

import numpy as np
import pytest
from scipy import stats

from repro.community import coda
from repro.community.coda import CoDA, CodaResult
from repro.graph.bipartite import BipartiteGraph
from repro.metrics import shared
from repro.metrics.shared import sampled_shared_sizes
from repro.util.rng import RngStream
from tests.test_community_coda import _two_block_graph

_EPS = 1e-10
_MAX_AFFILIATION = 12.0


# ------------------------------------------------------------ the reference
def _update_row(row, other, neighbors, sum_other, step=0.3, backtracks=5):
    """One projected-gradient step with backtracking on the row objective."""
    if neighbors.size == 0:
        return np.zeros_like(row)
    nbr_vecs = other[neighbors]
    nbr_sum = nbr_vecs.sum(axis=0)

    def objective(candidate):
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


def _row_log_likelihood(F, H, out_nbrs, sum_H):
    total = 0.0
    edge_dot_sum = 0.0
    for i, neighbors in enumerate(out_nbrs):
        if neighbors.size == 0:
            continue
        dots = np.maximum(_EPS, H[neighbors] @ F[i])
        total += float(np.log1p(-np.exp(-dots) + _EPS).sum())
        edge_dot_sum += float(dots.sum())
    total -= float(F.sum(axis=0) @ sum_H) - edge_dot_sum
    return total


def reference_fit(model, graph):
    """The row loop; returns the result and the log-likelihood per sweep."""
    rng = RngStream(model.seed, "coda")
    investor_ids, company_ids = graph.investors, graph.companies
    inv_index = {uid: i for i, uid in enumerate(investor_ids)}
    com_index = {cid: i for i, cid in enumerate(company_ids)}
    out_nbrs = [np.array(sorted(com_index[c] for c in graph.portfolio(u)),
                         dtype=np.int64) for u in investor_ids]
    in_nbrs = [np.array(sorted(inv_index[u] for u in graph.backers(c)),
                        dtype=np.int64) for c in company_ids]
    F, H = model._initialize(graph, rng)
    sum_F, sum_H = F.sum(axis=0), H.sum(axis=0)
    trajectory = []
    last_ll = -np.inf
    iterations = 0
    for sweep in range(model.max_iters):
        iterations = sweep + 1
        order = list(range(len(investor_ids)))
        rng.shuffle(order)
        for i in order:
            sum_F -= F[i]
            F[i] = _update_row(F[i], H, out_nbrs[i], sum_H)
            sum_F += F[i]
        order = list(range(len(company_ids)))
        rng.shuffle(order)
        for j in order:
            sum_H -= H[j]
            H[j] = _update_row(H[j], F, in_nbrs[j], sum_F)
            sum_H += H[j]
        ll = _row_log_likelihood(F, H, out_nbrs, sum_H)
        trajectory.append(ll)
        if np.isfinite(last_ll) and abs(ll - last_ll) <= model.tol * (
                abs(last_ll) + 1.0):
            last_ll = ll
            break
        last_ll = ll
    coda._balance_columns(F, H)
    density = graph.num_edges / max(1, len(investor_ids) * len(company_ids))
    delta = float(np.sqrt(-np.log(max(_EPS, 1.0 - density))))
    result = CodaResult(investor_ids=investor_ids, company_ids=company_ids,
                        F=F, H=H, delta=delta, log_likelihood=float(last_ll),
                        iterations=iterations)
    model._extract_communities(result)
    return result, trajectory


def array_fit(model, graph):
    """``model.fit`` with the log-likelihood of every sweep recorded."""
    trajectory = []
    edge_pass = coda._log_likelihood

    def recording(*args):
        trajectory.append(edge_pass(*args))
        return trajectory[-1]
    coda._log_likelihood = recording
    try:
        return model.fit(graph), trajectory
    finally:
        coda._log_likelihood = edge_pass


def assert_same_fit(graph, **params):
    got, got_lls = array_fit(CoDA(**params), graph)
    want, want_lls = reference_fit(CoDA(**params), graph)
    assert got.investor_communities == want.investor_communities
    assert got.company_communities == want.company_communities
    assert got.iterations == want.iterations == len(got_lls) == len(want_lls)
    np.testing.assert_allclose(got.F, want.F, rtol=0, atol=1e-9)
    np.testing.assert_allclose(got.H, want.H, rtol=0, atol=1e-9)
    np.testing.assert_allclose(got_lls, want_lls, rtol=1e-9, atol=0)
    assert got.delta == want.delta
    assert got.log_likelihood == got_lls[-1]
    return got


# ------------------------------------------------------------------- graphs
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("noise", [0, 10, 40])
def test_planted_two_blocks(seed, noise):
    graph, _truth = _two_block_graph(noise_edges=noise, seed=seed)
    result = assert_same_fit(graph, num_communities=2, max_iters=40,
                             seed=seed)
    assert result.num_communities >= 1


@pytest.mark.parametrize("communities", [3, 6])
def test_planted_two_blocks_with_spare_communities(communities):
    graph, _truth = _two_block_graph(noise_edges=20, seed=5)
    assert_same_fit(graph, num_communities=communities, seed=1)


@pytest.mark.parametrize("communities,seed", [(4, 2), (6, 7), (8, 11)])
def test_crawled_investor_graph(investor_graph, communities, seed):
    filtered = investor_graph.filter_investors(4)
    assert filtered.num_investors >= 8
    result = assert_same_fit(filtered, num_communities=communities,
                             max_iters=20, seed=seed)
    assert result.num_communities >= 1


def test_empty_graph():
    result = assert_same_fit(BipartiteGraph([]), num_communities=2)
    assert result.num_communities == 0


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

_SPLIT = [(u, c) for u in range(4) for c in (100, 101, 102)] + \
    [(u, c) for u in range(4, 8) for c in (200, 201, 202)] + [(3, 300)]


@given(edges=st.lists(st.tuples(st.integers(0, 12), st.integers(100, 115)),
                      min_size=1, max_size=60),
       communities=st.integers(1, 4), seed=st.integers(0, 2 ** 16),
       max_iters=st.integers(1, 12))
@example(edges=[(0, 100)], communities=1, seed=0, max_iters=5)
@example(edges=[(0, 100)], communities=3, seed=1, max_iters=5)
@example(edges=[(0, c) for c in range(100, 112)], communities=2, seed=2,
         max_iters=8)                                   # one investor, star
@example(edges=[(u, 100) for u in range(12)], communities=2, seed=3,
         max_iters=8)                                   # one company, star
@example(edges=_SPLIT, communities=3, seed=4, max_iters=10)  # 300: 1 backer
@example(edges=_SPLIT, communities=1, seed=5, max_iters=10)
@settings(max_examples=150, deadline=None)
def test_drawn_bipartite_graphs(edges, communities, seed, max_iters):
    assert_same_fit(BipartiteGraph(edges), num_communities=communities,
                    max_iters=max_iters, seed=seed)


# ------------------------------------------------------------- the sampler
def test_string_company_ids():
    portfolios = {1: {"a", "b"}, 2: {"a", "b", "c"}, 3: {"b", "c"}}
    sizes = sampled_shared_sizes([1, 2, 3], portfolios, 3000, RngStream(4))
    # pairs {1,2} → 2, {1,3} → 1, {2,3} → 2
    assert set(sizes) == {1, 2}
    assert all(isinstance(size, int) for size in sizes)
    assert abs(sizes.count(1) / len(sizes) - 1 / 3) < 0.05


def test_investor_missing_from_portfolios_is_empty():
    portfolios = {1: {10, 11}, 2: {10, 11}}
    sizes = sampled_shared_sizes([1, 2, 99], portfolios, 3000, RngStream(5))
    # only the pair {1, 2} overlaps; both pairs with 99 share nothing
    assert set(sizes) == {0, 2}
    assert abs(sizes.count(2) / len(sizes) - 1 / 3) < 0.05


def test_two_investors_never_pair_with_themselves():
    # any self-pair would read 3, the pair {1, 2} always reads 1
    portfolios = {1: {"x", "y", "z"}, 2: {"z", "w", "v"}}
    for seed in range(5):
        sizes = sampled_shared_sizes([1, 2], portfolios, 1000,
                                     RngStream(seed))
        assert sizes == [1] * 1000


def test_same_seed_same_sizes():
    portfolios = {u: {(u * 7 + k) % 13 for k in range(u % 5)}
                  for u in range(40)}
    investors = list(range(40))
    first = sampled_shared_sizes(investors, portfolios, 5000, RngStream(9))
    again = sampled_shared_sizes(investors, portfolios, 5000, RngStream(9))
    other = sampled_shared_sizes(investors, portfolios, 5000, RngStream(10))
    assert first == again
    assert first != other
    assert len(first) == 5000


def test_no_pairs_requested():
    assert sampled_shared_sizes([1, 2], {1: {1}}, 0, RngStream(1)) == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pairs_are_uniform(seed):
    """χ² over the drawn pairs: with five investors, give pair ``k`` of
    the ten ``k`` companies only its two members hold, so each size
    names the pair it was drawn from."""
    investors = list(range(5))
    pairs = [(a, b) for a in investors for b in investors if a < b]
    portfolios = {u: set() for u in investors}
    for k, (a, b) in enumerate(pairs):
        for n in range(k):
            portfolios[a].add((k, n))
            portfolios[b].add((k, n))
    sizes = sampled_shared_sizes(investors, portfolios, 20_000,
                                 RngStream(seed))
    observed = np.bincount(sizes, minlength=len(pairs))
    assert len(observed) == len(pairs)
    assert stats.chisquare(observed).pvalue > 0.001


def test_sizes_are_the_drawn_pairs_intersections_across_probe_chunks():
    # the pairs are probed in chunks; this draws two full ones and a
    # partial third, and counts each pair's overlap as the loop did
    stream = RngStream(2, "portfolios")
    investors = list(range(300))
    portfolios = {u: set(stream.np.integers(0, 500, size=u % 12).tolist())
                  for u in investors}
    num_pairs = 2 * shared._PAIR_CHUNK + 1_234
    sizes = sampled_shared_sizes(investors, portfolios, num_pairs,
                                 RngStream(6))
    draws = RngStream(6).np       # the same two vector draws
    i = draws.integers(0, len(investors), size=num_pairs)
    j = draws.integers(0, len(investors) - 1, size=num_pairs)
    j += j >= i
    assert sizes == [len(portfolios[investors[a]] & portfolios[investors[b]])
                     for a, b in zip(i.tolist(), j.tolist())]
