"""Resident memory of the batch pipeline, phase by phase.

    PYTHONPATH=src python tools/rss_phases.py [--scale 0.0625] [--seed 7]

Runs, in one process, what the ``pipeline_batch`` benchmark workload
runs: import the package, generate the world, crawl it, build the
investor graph and the follow index (so the ``investor_activity`` row
is the plug-in's own work, as the benchmark's ``graph.build`` span is
the graph's), run the four analysis plug-ins and build the serve
dataset. After each phase it prints the phase's wall seconds, the
process's resident set (``VmRSS``) and its high-water mark
(``ru_maxrss``), in MB, as a Markdown table. The first row whose
high-water mark equals the last row's is the phase that sets the peak.
"""

from __future__ import annotations

import argparse
import importlib
import resource
from time import perf_counter
from typing import Any, Callable, List, Tuple

#: the modules the benchmark's workloads import before any work
IMPORTS = ("repro", "repro.serve.alerting", "repro.serve.loadgen",
           "repro.serve.outbox", "repro.serve.service",
           "repro.serve.sharding")
PLUGINS = ("engagement_table", "investor_activity", "community_study",
           "success_prediction")


def _rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: List[str] = None) -> None:
    parser = argparse.ArgumentParser(
        description="Resident memory of the batch pipeline, by phase.")
    parser.add_argument("--scale", type=float, default=1.0 / 16.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    rows: List[Tuple[str, float, float, float]] = []

    def phase(name: str, work: Callable[[], Any]) -> Any:
        began = perf_counter()
        result = work()
        rows.append((name, perf_counter() - began, _rss_mb(), _peak_mb()))
        return result

    phase("import", lambda: [importlib.import_module(m) for m in IMPORTS])
    from repro import ExploratoryPlatform
    from repro.world.config import WorldConfig
    from repro.world.generator import generate_world
    world = phase("world", lambda: generate_world(
        WorldConfig(scale=args.scale, seed=args.seed)))
    platform = ExploratoryPlatform(world)
    phase("crawl", platform.run_full_crawl)
    phase("investor graph", platform.investor_graph)
    phase("follow index", platform.follow_index)
    for plugin in PLUGINS:
        phase(plugin, lambda: platform.run_plugin(plugin))
    phase("serve build", platform.serve_dataset)
    platform.close()

    print(f"scale {args.scale:g}, seed {args.seed}")
    print("| phase | wall (s) | RSS after (MB) | high-water mark (MB) |")
    print("|---|---|---|---|")
    for name, wall_s, rss, peak in rows:
        print(f"| {name} | {wall_s:.2f} | {rss:.1f} | {peak:.1f} |")


if __name__ == "__main__":
    main()
