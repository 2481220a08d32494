"""E8 / §3 — the data-collection pipeline itself.

Paper populations (full scale): 744,036 AngelList companies; 10,156
CrunchBase organizations; 37,761 Facebook and 70,563 Twitter profiles;
1,109,441 users with 4.3% investors / 18.3% founders / 44.2% employees.

The timed section runs the complete pipeline (BFS + augmentation +
enrichment) on a tiny world; the population comparison is printed from
the session's 1/16-scale crawl.
"""

from benchmarks.conftest import WORLD_SEED, paper_row
from repro.core.platform import ExploratoryPlatform
from repro.world.config import WorldConfig
from repro.world.generator import generate_world


def test_sec3_full_crawl_pipeline(benchmark, bench_platform):
    tiny = generate_world(WorldConfig.tiny(seed=WORLD_SEED))

    def crawl_tiny():
        platform = ExploratoryPlatform(tiny)
        try:
            return platform.run_full_crawl()
        finally:
            platform.close()

    benchmark.pedantic(crawl_tiny, rounds=3, iterations=1)

    summary = bench_platform.crawl_summary
    world = bench_platform.world
    scale = world.config.scale
    users = list(world.users.values())
    investors = sum(1 for u in users if "investor" in u.roles)
    founders = sum(1 for u in users if "founder" in u.roles)
    employees = sum(1 for u in users if "employee" in u.roles)

    print(f"\n§3 — crawl populations at scale {scale:.4f}")
    print(paper_row("AngelList companies", f"744,036 × {scale:.4f}",
                    f"{summary.angellist.startups:,}"))
    print(paper_row("AngelList users", f"1,109,441 × {scale:.4f}",
                    f"{summary.angellist.users:,}"))
    print(paper_row("CrunchBase organizations", f"10,156 × {scale:.4f}",
                    f"{summary.crunchbase.records:,}"))
    print(paper_row("Facebook profiles", f"37,761 × {scale:.4f}",
                    f"{summary.facebook.fetched:,}"))
    print(paper_row("Twitter profiles", f"70,563 × {scale:.4f}",
                    f"{summary.twitter.fetched:,}"))
    print(paper_row("% investors", "4.3%",
                    f"{100 * investors / len(users):.1f}%"))
    print(paper_row("% founders", "18.3%",
                    f"{100 * founders / len(users):.1f}%"))
    print(paper_row("% employees", "44.2%",
                    f"{100 * employees / len(users):.1f}%"))
    print(paper_row("BFS rounds", "several",
                    f"{len(summary.angellist.rounds)}"))
    print(paper_row("total API requests", "—",
                    f"{summary.total_requests:,}"))
    print(paper_row("simulated crawl duration", "—",
                    f"{summary.angellist.sim_duration / 3600:.1f} h "
                    "(AngelList BFS)"))

    # BFS reaches everything connected to the raising-startup seeds; a
    # handful of isolated follow pockets may be missed, as the paper's
    # own crawl missed part of AngelList ("more than 700K startups").
    assert summary.angellist.startups >= 0.999 * len(world.companies)
    assert summary.angellist.users >= 0.999 * len(world.users)
    assert abs(100 * investors / len(users) - 4.3) < 1.0
    assert abs(100 * founders / len(users) - 18.3) < 2.0
    assert abs(100 * employees / len(users) - 44.2) < 3.0
    fb_rate = summary.facebook.fetched / summary.angellist.startups
    tw_rate = summary.twitter.fetched / summary.angellist.startups
    assert abs(fb_rate - 37_761 / 744_036) < 0.02
    assert abs(tw_rate - 70_563 / 744_036) < 0.02
    assert len(summary.angellist.rounds) >= 3
