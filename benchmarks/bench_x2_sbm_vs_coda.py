"""X2 / §7 — stochastic block model inference vs CoDA vs baselines.

The paper proposes SBM inference as future work. Scored against the
*behavioural* planted truth — each investor's primary syndicate, which
is a disjoint partition — the hard-assignment SBM is actually the
best-matched model, while CoDA recovers overlapping affiliation
structure (useful for the §5.3 strength metrics) at some F1 cost. Both
must clearly beat random grouping; label propagation tends to collapse
on the dense projection and is reported for reference.
"""

import numpy as np

from benchmarks.conftest import WORLD_SEED, paper_row
from repro.community.coda import CoDA
from repro.community.labelprop import label_propagation
from repro.community.random_baseline import random_communities
from repro.community.sbm import BipartiteSBM
from repro.community.scoring import best_match_f1, cover_f1
from repro.util.rng import RngStream


def test_x2_sbm_vs_coda(benchmark, bench_platform, bench_graph):
    world = bench_platform.world
    filtered = bench_graph.filter_investors(4)
    eligible = set(filtered.investors)
    # Behavioural truth: investors grouped by the community whose pool
    # they actually herd with — restricted to *strong* communities,
    # because a herd strength near zero leaves no recoverable trace in
    # the investment graph (those investors pick companies globally).
    strong_ids = {c.community_id for c in world.planted_communities
                  if c.herd_strength > 0.3}
    truth = [set(members) & eligible
             for cid, members in world.primary_communities().items()
             if cid in strong_ids]
    truth = [t for t in truth if len(t) >= 3]
    num = world.config.num_communities

    coda_result = CoDA(num_communities=num, max_iters=40,
                       seed=WORLD_SEED).fit(filtered)
    sbm_result = benchmark.pedantic(
        lambda: BipartiteSBM(num_groups=num, seed=WORLD_SEED).fit(filtered),
        rounds=3, iterations=1)
    lp_result = label_propagation(filtered, seed=WORLD_SEED)
    rng = RngStream(WORLD_SEED, "x2")
    random_cover = random_communities(
        filtered.investors,
        [len(m) for m in coda_result.investor_communities.values()], rng)

    covers = {
        "CoDA (overlapping, directed)":
            list(coda_result.investor_communities.values()),
        "Bipartite SBM (hard)":
            list(sbm_result.investor_communities().values()),
        "Label propagation": list(lp_result.values()),
        "Random communities": list(random_cover.values()),
    }
    # Recall direction: for each true strong syndicate, the best F1 any
    # detected community achieves — the "did we find the herds?"
    # question. The symmetric cover-F1 additionally penalizes detectors
    # for every extra community, which conflates coverage with count.
    recall = {name: best_match_f1(truth, detected)
              for name, detected in covers.items()}
    symmetric = {name: cover_f1(detected, truth)
                 for name, detected in covers.items()}

    print("\n§7 — community inference vs planted truth")
    for name in covers:
        print(paper_row(name, "—",
                        f"recall-F1={recall[name]:.3f}  "
                        f"cover-F1={symmetric[name]:.3f}"))

    # The disjoint behavioural truth favors the hard-partition model —
    # SBM reconstructs syndicate rosters far better than chance, and
    # better than the overlapping-cover detectors on both directions.
    # CoDA's strength is *purity*, not roster recall (see X4: its
    # communities are ~9× purer than chance w.r.t. disclosed
    # syndicates), so only weak-ordering claims are asserted for it.
    assert recall["Bipartite SBM (hard)"] \
        > 1.5 * recall["Random communities"]
    assert symmetric["Bipartite SBM (hard)"] \
        >= symmetric["CoDA (overlapping, directed)"]
    assert recall["CoDA (overlapping, directed)"] \
        >= recall["Label propagation"]
