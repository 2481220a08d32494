"""E1 / Figure 3 — CDF of investments per investor.

Paper headline numbers: mean 3.3 investments, median 1, max ≈ 1000 (at
full scale), mean follows 247. Max and follow fan-out scale with
sqrt(world scale) by design; the distribution *shape* (long tail, median
1) is scale-free and asserted here.
"""

import numpy as np

from benchmarks.conftest import paper_row


def test_fig3_investor_cdf(benchmark, bench_platform, bench_graph):
    from repro.analysis.investors import compute_investor_activity

    activity = benchmark.pedantic(
        lambda: compute_investor_activity(bench_platform.sc,
                                          bench_platform.dfs, bench_graph,
                                          bench_platform.follow_index()),
        rounds=3, iterations=1)

    scale = bench_platform.world.config.scale
    print("\nFigure 3 — investments per investor")
    print(activity.render_cdf())
    print(paper_row("mean investments", "3.3",
                    f"{activity.mean_investments:.2f}"))
    print(paper_row("median investments", "1",
                    f"{activity.median_investments:.0f}"))
    print(paper_row("max investments", f"~1000 × sqrt({scale:.3f})",
                    f"{activity.max_investments}"))
    print(paper_row("mean follows per investor", f"247 × sqrt({scale:.3f})",
                    f"{activity.mean_follows_per_investor:.1f}"))

    assert activity.median_investments == 1.0
    assert 2.0 < activity.mean_investments < 5.0
    assert activity.max_investments > 20 * activity.mean_investments
    assert activity.mean_follows_per_investor > 5 * activity.mean_investments
    # long tail: the CDF at the mean is already above 60%
    assert activity.investments_cdf(activity.mean_investments) > 0.6
