"""Benchmark fixtures.

The heavy artifacts — the 1/16-scale world (≈46.5k companies, ≈69k
users, the scale EXPERIMENTS.md reports against) and its full crawl —
are built once per benchmark session. Individual benchmarks then time
the *analysis* under measurement, not the shared setup.
"""

from __future__ import annotations

import pytest

from repro.core.platform import ExploratoryPlatform
from repro.world.config import WorldConfig
from repro.world.generator import generate_world

WORLD_SEED = 20160626


@pytest.fixture(scope="session")
def bench_world():
    return generate_world(WorldConfig.default(seed=WORLD_SEED))


@pytest.fixture(scope="session")
def bench_platform(bench_world):
    platform = ExploratoryPlatform(bench_world)
    platform.run_full_crawl()
    yield platform
    platform.close()


@pytest.fixture(scope="session")
def bench_graph(bench_platform):
    return bench_platform.investor_graph()


@pytest.fixture(scope="session")
def bench_study(bench_platform, bench_graph):
    """The §5 community study, shared by the Figure 4/5/7 benchmarks."""
    from repro.analysis.strength import run_community_study
    return run_community_study(
        bench_graph,
        num_communities=bench_platform.world.config.num_communities,
        global_pairs=100_000, seed=WORLD_SEED, coda_iters=40)


def paper_row(name: str, paper: str, measured: str) -> str:
    return f"  {name:<46} paper={paper:<18} measured={measured}"
