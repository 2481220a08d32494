"""X1 / §7 — longitudinal snapshots and the causality panel.

The paper proposes daily tracking to separate engagement→funding from
funding→engagement. The world's dynamics plant both directions; the
panel analysis must recover them: pre-event engagement lift > 1 AND a
positive post-event follower bump (the confound).
"""

from benchmarks.conftest import WORLD_SEED, paper_row
from repro.analysis.longitudinal import analyze_snapshots
from repro.crawl.snapshots import SnapshotScheduler
from repro.dfs.filesystem import MiniDfs
from repro.sources.hub import SourceHub
from repro.world.config import WorldConfig
from repro.world.dynamics import WorldDynamics
from repro.world.generator import generate_world

DAYS = 30


def test_x1_longitudinal_panel(benchmark):
    def run_study():
        world = generate_world(WorldConfig.tiny(seed=WORLD_SEED))
        hub = SourceHub.from_world(world)
        dynamics = WorldDynamics(world, seed=WORLD_SEED,
                                 base_close_hazard=0.02,
                                 engagement_to_funding_lift=4.0)
        dfs = MiniDfs()
        SnapshotScheduler(hub, dynamics, dfs).run(days=DAYS)
        return analyze_snapshots(dfs, window=3)

    result = benchmark.pedantic(run_study, rounds=3, iterations=1)

    print(f"\n§7 — longitudinal panel over {DAYS} simulated days")
    print(paper_row("tracked startups", "—", f"{result.tracked_startups}"))
    print(paper_row("funding close events", "—", f"{result.close_events}"))
    print(paper_row("pre-event engagement lift", ">1 (planted causality)",
                    f"{result.pre_event_lift:.2f}x"))
    print(paper_row("post-event follower bump", ">0 (planted confound)",
                    f"{result.post_event_follower_bump:.1f}"))

    assert result.close_events > 0
    assert result.pre_event_lift > 1.0
    assert result.post_event_follower_bump > 0.0
