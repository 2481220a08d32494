"""A8 drill — kill-anywhere ingest resume is byte-identical and bounded.

The tentpole claim of the durable continuous-ingest tier: a scheduler
SIGKILL-equivalented at **any** ledger protocol state (pre-intent,
post-intent, mid-land, pre-commit, post-commit) of **any** work unit
resumes from the write-ahead ledger and converges to the *exact* bytes
an uninterrupted run produces — no lost records, no duplicated ones,
no stranded leases. A second measurement pins the incremental-recompute
claim: the delta-aware derived-dataset maintenance engine-scans each
source record at most once over the run's lifetime, where a daily full
rebuild scans the whole corpus every day. A third pins landing cost:
the data-file reads of an ingest day are bounded by the deltas that day
landed, and the bytes the datasets' logs read and write are the same on
the last day as on the second — both flat in the length of the chain
behind them.

Run standalone this writes the ``BENCH_ingest.json`` perf-trajectory
file that ``tools/check.sh`` produces for every PR::

    PYTHONPATH=src python benchmarks/bench_a8_ingest.py \
        --smoke --json benchmarks/out/BENCH_ingest.json
"""

import argparse
import json
import os
import posixpath
import time

import pytest

from repro.core.platform import ExploratoryPlatform, PlatformConfig
from repro.crawl.scheduler import CRASH_STATES
from repro.net.faults import FaultSchedule
from repro.util.errors import IngestKilled
from repro.world.config import WorldConfig
from repro.world.generator import generate_world

SCALE = 0.002
SEED = 7
DAYS = 3
#: the landing-cost run is longer than the drill: a per-day cost that
#: grows with the chain needs a chain to show on
LANDING_DAYS = 64
#: what a day's log traffic may exceed day 2's by: the digits of record
#: counts and sequence numbers, never a record per day of history
LOG_BYTES_SLACK = 64
#: the day whose units the drill kills (its work is mid-stream: day 1
#: already committed, day 3 still ahead)
KILL_DAY = 2
#: unit kinds that land datasets have a mid-land window; the other two
#: never touch an upsert dataset
LANDING_KINDS = ("snapshot", "frontier", "derived")
PURE_KINDS = ("advance", "discover")


def _platform():
    world = generate_world(WorldConfig(scale=SCALE, seed=SEED))
    return ExploratoryPlatform(
        world, config=PlatformConfig(engine_backend="serial"))


def _run(platform, kill=None, days=DAYS):
    """Run to ``days``, resuming across kills; returns drill evidence."""
    scheduler = platform.ingest_pipeline()
    if kill is not None:
        scheduler.faults = FaultSchedule.none()
        scheduler.faults.force_ingest_kill(*kill)
    kills = 0
    start = time.perf_counter()
    while True:
        try:
            report = scheduler.run_until_day(days)
            break
        except IngestKilled:
            kills += 1
            scheduler = platform.ingest_pipeline()
    wall = time.perf_counter() - start
    return {
        "scheduler": scheduler,
        "report": report,
        "kills": kills,
        "wall_s": wall,
        "bytes": {name: ds.canonical_bytes()
                  for name, ds in scheduler.dataset_map().items()},
        "dup_groups": {name: ds.duplicate_key_groups()
                       for name, ds in scheduler.dataset_map().items()},
        "leases_left": len(scheduler.ledger.leases.leases()),
        "pending_units": len(scheduler.ledger.pending_units()),
    }


def _kill_matrix(day=KILL_DAY):
    for kind in PURE_KINDS:
        for state in CRASH_STATES:
            if state != "mid-land":
                yield f"day-{day:04d}:{kind}", state
    for kind in LANDING_KINDS:
        for state in CRASH_STATES:
            yield f"day-{day:04d}:{kind}", state


def _raw_source_records(scheduler):
    """Lifetime record count of the derived pipeline's source deltas."""
    return sum(len(scheduler.dfs.read_text(path).splitlines())
               for ds in (scheduler.investments, scheduler.follow_edges)
               for path in ds.live_files())


def _landing_reads(days=LANDING_DAYS):
    """Per ingest day of a fault-free run: ``MiniDfs.read`` calls on
    dataset data files next to the delta files that day landed, and the
    bytes read and written under the datasets' logs (``<root>/_log``)."""
    platform = _platform()
    try:
        scheduler = platform.ingest_pipeline()
        dfs = scheduler.dfs
        day_row = {}
        real_read, real_create = dfs.read, dfs.create

        def counting_read(path):
            data = real_read(path)
            if "/_log/" in path:
                day_row["manifest_log_bytes_read"] += len(data)
            elif path.startswith("/ingest/") and posixpath.basename(
                    path).startswith(("base-", "delta-")):
                day_row["data_file_reads"] += 1
            return data

        def counting_create(path, data):
            if "/_log/" in path:
                day_row["manifest_log_bytes_written"] += len(data)
            return real_create(path, data)

        dfs.read, dfs.create = counting_read, counting_create
        rows = []
        landed_before = 0
        for day in range(1, days + 1):
            day_row = {"day": day, "data_file_reads": 0,
                       "manifest_log_bytes_read": 0,
                       "manifest_log_bytes_written": 0}
            scheduler.run_until_day(day)
            landed = sum(ds.max_delta_seq()
                         for ds in scheduler.dataset_map().values())
            day_row["deltas_landed"] = landed - landed_before
            rows.append(day_row)
            landed_before = landed
        return rows
    finally:
        platform.close()


def _landing_violations(rows):
    """Days after the first that read more than twice the data files
    they landed (a new delta may be read by the derived pass and folded
    into a key index once; the chain behind it never), or whose log
    traffic exceeds day 2's by more than :data:`LOG_BYTES_SLACK`."""
    second = rows[1]
    return [row for row in rows[1:]
            if row["data_file_reads"] > 2 * row["deltas_landed"]
            or any(row[k] > second[k] + LOG_BYTES_SLACK
                   for k in ("manifest_log_bytes_read",
                             "manifest_log_bytes_written"))]


# ------------------------------------------------------------------ pytest
@pytest.fixture(scope="module")
def baseline():
    platform = _platform()
    try:
        run = _run(platform)
        assert run["kills"] == 0
        yield run
    finally:
        platform.close()


@pytest.mark.chaos
@pytest.mark.parametrize("unit,state", list(_kill_matrix()))
def test_a8_kill_resume_byte_identical(unit, state, baseline):
    platform = _platform()
    try:
        run = _run(platform, kill=(unit, state))
        assert run["kills"] == 1, f"kill at {unit}@{state} never fired"
        assert run["bytes"] == baseline["bytes"]
        assert run["dup_groups"] == baseline["dup_groups"]
        assert run["leases_left"] == 0
        assert run["pending_units"] == 0
    finally:
        platform.close()


def test_a8_incremental_recompute_bounded(baseline):
    scanned = baseline["report"].derived_records_scanned
    raw = _raw_source_records(baseline["scheduler"])
    assert scanned == raw  # each source record scanned exactly once
    assert scanned < DAYS * max(raw, 1)  # vs a daily full rebuild


def test_a8_landing_reads_flat_in_chain_length():
    rows = _landing_reads()
    assert all(row["deltas_landed"] > 0 for row in rows)
    assert _landing_violations(rows) == []


# --------------------------------------------------------------- standalone
def _bench_payload(days: int) -> dict:
    base_platform = _platform()
    try:
        base = _run(base_platform, days=days)
        scenarios = {}
        failures = []
        for unit, state in _kill_matrix():
            platform = _platform()
            try:
                run = _run(platform, kill=(unit, state), days=days)
                identical = run["bytes"] == base["bytes"]
                clean = (run["dup_groups"] == base["dup_groups"]
                         and run["leases_left"] == 0
                         and run["pending_units"] == 0)
                if not (identical and clean and run["kills"] == 1):
                    failures.append(f"{unit}@{state}")
                stats = run["report"].stats
                scenarios[f"{unit}@{state}"] = {
                    "kills": run["kills"],
                    "byte_identical": identical,
                    "state_clean": clean,
                    "units_redelivered": stats.units_redelivered,
                    "duplicate_lands_absorbed": stats.lands_skipped,
                    "leases_taken_over": stats.leases_taken_over,
                    "orphans_vacuumed": stats.vacuumed_files,
                    "wall_s": round(run["wall_s"], 4),
                }
            finally:
                platform.close()

        scanned = base["report"].derived_records_scanned
        raw = _raw_source_records(base["scheduler"])
        recompute = {
            "delta_records_scanned": scanned,
            "source_records": raw,
            "full_rebuild_records": days * raw,
            "scan_fraction_vs_rebuild": round(
                scanned / max(1, days * raw), 4),
        }
        payload = {
            "benchmark": "ingest-kill-anywhere-resume",
            "days": days,
            "baseline": {
                "wall_s": round(base["wall_s"], 4),
                "units_committed": base["report"].stats.units_committed,
                "dataset_keys": base["report"].dataset_keys,
            },
            "scenarios": scenarios,
            "incremental_recompute": recompute,
            "landing_reads_per_day": _landing_reads(
                max(days, LANDING_DAYS)),
            "failures": failures,
        }
        return payload
    finally:
        base_platform.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Kill the ingest scheduler at every ledger state, "
                    "resume, and gate on byte-identical eventual state; "
                    "write BENCH_ingest.json.")
    parser.add_argument("--days", type=int, default=DAYS)
    parser.add_argument("--smoke", action="store_true",
                        help="CI scale: few days")
    parser.add_argument("--json", metavar="FILE",
                        help="write the measurements as JSON")
    args = parser.parse_args(argv)
    if args.smoke:
        args.days = min(args.days, DAYS)
    if args.days <= KILL_DAY:
        parser.error(f"--days must be > {KILL_DAY} (the drill kills "
                     f"day-{KILL_DAY} units mid-stream)")

    payload = _bench_payload(args.days)

    for name, row in sorted(payload["scenarios"].items()):
        verdict = ("ok" if row["byte_identical"] and row["state_clean"]
                   else "FAIL")
        print(f"{name:<32} kills={row['kills']} "
              f"redelivered={row['units_redelivered']} "
              f"dup_lands_absorbed={row['duplicate_lands_absorbed']} "
              f"{verdict}")
    rec = payload["incremental_recompute"]
    print(f"incremental recompute: {rec['delta_records_scanned']} delta "
          f"records scanned vs {rec['full_rebuild_records']} for daily "
          f"full rebuilds "
          f"({100 * rec['scan_fraction_vs_rebuild']:.1f}%)")

    landing = payload["landing_reads_per_day"]
    print("landing reads per day (data-file reads / deltas landed): "
          + ", ".join(f"{row['data_file_reads']}/{row['deltas_landed']}"
                      for row in landing))
    print("dataset log bytes per day (read / written): day 2 "
          f"{landing[1]['manifest_log_bytes_read']}/"
          f"{landing[1]['manifest_log_bytes_written']}, day "
          f"{landing[-1]['day']} {landing[-1]['manifest_log_bytes_read']}/"
          f"{landing[-1]['manifest_log_bytes_written']}")

    if payload["failures"]:
        print(f"INGEST REGRESSION: {len(payload['failures'])} kill "
              f"scenario(s) diverged: {', '.join(payload['failures'])}")
        return 1
    if rec["delta_records_scanned"] > rec["source_records"]:
        print("INGEST REGRESSION: incremental recompute re-scanned "
              "source records")
        return 1
    heavy_days = _landing_violations(landing)
    if heavy_days:
        print("INGEST REGRESSION: landing pays for the chain — day(s) "
              + ", ".join(str(row["day"]) for row in heavy_days)
              + " read more than 2x the delta files they landed, or "
              "moved more log bytes than day 2 plus "
              f"{LOG_BYTES_SLACK}")
        return 1
    if args.json:
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
