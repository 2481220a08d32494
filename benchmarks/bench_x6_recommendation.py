"""X6 / §6 — investor recommendation baseline (An et al., WWW '14).

The paper contrasts itself with recommender work on Kickstarter; this
benchmark runs the task on our investment graph. At real-world sparsity
(median 1 investment) popularity is a strong control; collaborative
filtering must still retrieve hidden edges, and the gap narrows as
herding concentrates portfolios.
"""

from benchmarks.conftest import WORLD_SEED, paper_row
from repro.analysis.recommend import evaluate_recommenders

K = 25


def test_x6_investor_recommendation(benchmark, bench_graph):
    results = benchmark.pedantic(
        lambda: evaluate_recommenders(bench_graph, k=K,
                                      max_test_investors=150,
                                      seed=WORLD_SEED),
        rounds=3, iterations=1)
    by_method = {r.method: r for r in results}

    chance = K / max(1, bench_graph.num_companies)
    print(f"\n§6 — leave-one-out recommendation (k={K})")
    print(paper_row("chance hit rate", "—", f"{chance:.4f}"))
    for method, result in by_method.items():
        print(paper_row(f"{method}: hit@{K} / MRR", "—",
                        f"{result.hit_rate_at_k:.3f} / {result.mrr:.4f}"))

    for result in results:
        assert result.test_investors > 50
        assert result.hit_rate_at_k >= 0.5 * chance
    # The non-personalized control is strong at median-1-investment
    # sparsity (as An et al. also found on Kickstarter).
    assert by_method["popularity"].hit_rate_at_k > 3 * chance
