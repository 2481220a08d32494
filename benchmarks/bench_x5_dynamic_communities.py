"""X5 / §7 — community dynamics over time.

"We also plan to understand the dynamics in terms of formation or
disbanding of community clusters over time." The investment stream
carries day stamps, so the graph is replayed in cumulative windows and
communities matched across windows by Jaccard similarity.
"""

from benchmarks.conftest import WORLD_SEED, paper_row
from repro.analysis.dynamic_communities import (default_coda_detector,
                                                track_communities)

WINDOWS = 4


def test_x5_dynamic_communities(benchmark, bench_platform):
    world = bench_platform.world
    detector = default_coda_detector(
        num_communities=world.config.num_communities,
        max_iters=15, seed=WORLD_SEED)

    report = benchmark.pedantic(
        lambda: track_communities(world.investments, WINDOWS, detector),
        rounds=3, iterations=1)

    counts = report.counts()
    per_window = [len(s.communities) for s in report.snapshots]
    print(f"\n§7 — community lifecycle over {WINDOWS} windows")
    print(paper_row("communities per window", "grows with the graph",
                    " → ".join(map(str, per_window))))
    for kind in ("born", "continued", "merged", "split", "dissolved"):
        print(paper_row(f"{kind} events", "—", f"{counts.get(kind, 0)}"))

    assert len(report.snapshots) == WINDOWS
    # the graph only accumulates edges, so detection never collapses
    assert report.snapshots[-1].communities
    # most established communities persist between consecutive windows
    assert counts.get("continued", 0) >= counts.get("dissolved", 0)
    assert counts.get("born", 0) >= 1
