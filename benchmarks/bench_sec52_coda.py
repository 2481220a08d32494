"""E4 / §5.2 — CoDA community detection.

Paper: investors with ≥4 investments, grouped into 96 communities with
average size 190.2 at full scale. Community count and size scale with
sqrt(world scale); asserted here is that CoDA produces a healthy cover
of multi-member communities over the filtered graph.
"""

from benchmarks.conftest import WORLD_SEED, paper_row


def test_sec52_coda_detection(benchmark, bench_platform, bench_graph):
    from repro.community.coda import CoDA

    filtered = bench_graph.filter_investors(4)
    num_communities = bench_platform.world.config.num_communities

    result = benchmark.pedantic(
        lambda: CoDA(num_communities=num_communities, max_iters=40,
                     seed=WORLD_SEED).fit(filtered),
        rounds=3, iterations=1)

    scale = bench_platform.world.config.scale
    print("\n§5.2 — CoDA over the deg≥4 bipartite graph")
    print(paper_row("input investors (deg≥4)", "—",
                    f"{filtered.num_investors:,}"))
    print(paper_row("communities", f"96 × sqrt({scale:.3f})",
                    f"{result.num_communities}"))
    print(paper_row("average community size",
                    f"190.2 × sqrt({scale:.3f})",
                    f"{result.average_community_size:.1f}"))

    assert result.num_communities >= 0.5 * num_communities
    assert result.average_community_size >= 3.0
    covered = set().union(*result.investor_communities.values())
    assert len(covered) >= 0.2 * filtered.num_investors
