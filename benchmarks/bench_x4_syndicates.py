"""X4 / §2 — detected communities vs disclosed syndicates.

AngelList syndicates are the *disclosed* part of the community structure
the §5 analysis infers from co-investment. This benchmark reads
``syndicate_id`` off the crawled user profiles and checks that CoDA's
communities are far purer with respect to them than chance — detection
recovers syndicate cores even though it never saw the labels.
"""

from benchmarks.conftest import WORLD_SEED, paper_row
from repro.analysis.syndicates import (read_disclosed_syndicates,
                                       validate_communities)
from repro.community.coda import CoDA


def test_x4_syndicate_validation(benchmark, bench_platform, bench_graph):
    filtered = bench_graph.filter_investors(4)
    coda = CoDA(num_communities=bench_platform.world.config.num_communities,
                max_iters=40, seed=WORLD_SEED).fit(filtered)

    def validate():
        syndicates = read_disclosed_syndicates(bench_platform.sc,
                                               bench_platform.dfs)
        return validate_communities(coda.investor_communities, syndicates)

    result = benchmark.pedantic(validate, rounds=3, iterations=1)

    chance_purity = 1.0 / max(1, result.num_syndicates)
    print("\n§2 — communities vs disclosed syndicates")
    print(paper_row("disclosed syndicates", "—",
                    f"{result.num_syndicates}"))
    print(paper_row("disclosing investors", "≈60% of herders",
                    f"{result.disclosing_investors:,}"))
    print(paper_row("cover F1 vs syndicates", "—",
                    f"{result.cover_f1_score:.3f}"))
    print(paper_row("mean community purity",
                    f"chance ≈ {chance_purity:.3f}",
                    f"{result.mean_purity:.3f}"))

    assert result.num_syndicates > 0
    assert result.mean_purity > 5 * chance_purity
    assert result.cover_f1_score > 0.0
