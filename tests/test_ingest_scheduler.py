"""Continuous-ingest scheduler: beats, kills, resume, exactly-once."""

import pytest

from repro.core.platform import ExploratoryPlatform, PlatformConfig
from repro.crawl.scheduler import CRASH_STATES
from repro.net.faults import FaultSchedule
from repro.util.errors import IngestError, IngestKilled
from repro.world.config import WorldConfig
from repro.world.generator import generate_world

SCALE = 0.002
DAYS = 3


def _platform(seed=7, **cfg_kw):
    config = PlatformConfig(engine_backend="serial", **cfg_kw)
    world = generate_world(WorldConfig(scale=SCALE, seed=seed))
    return ExploratoryPlatform(world, config=config)


def _run_to_completion(platform, kill=None, days=DAYS):
    """Run the ingest tier to ``days``, resuming across injected kills.

    Returns (final scheduler, report, number of kills survived).
    """
    scheduler = platform.ingest_pipeline()
    if kill is not None:
        scheduler.faults = FaultSchedule.none()
        scheduler.faults.force_ingest_kill(*kill)
    kills = 0
    while True:
        try:
            report = scheduler.run_until_day(days)
            return scheduler, report, kills
        except IngestKilled:
            kills += 1
            # the dead scheduler's memory is gone; recovery must come
            # from the ledger + datasets alone
            scheduler = platform.ingest_pipeline()


def _fingerprints(scheduler):
    return {name: ds.canonical_bytes()
            for name, ds in scheduler.dataset_map().items()}


class TestHappyPath:
    def test_days_commit_in_order_and_datasets_land(self):
        platform = _platform()
        try:
            scheduler, report, _ = _run_to_completion(platform)
            assert report.day == DAYS
            assert report.stats.units_committed == DAYS * 5
            assert scheduler.ledger.pending_units() == []
            assert report.dataset_keys["panels"] > 0
            assert report.dataset_keys["startups"] > 0
            assert report.dataset_keys["follow_edges"] > 0
            # derived edge sets mirror their sources exactly
            assert (report.dataset_keys["derived/follow_edges"]
                    == report.dataset_keys["follow_edges"])
            assert (report.dataset_keys["derived/investment_edges"]
                    == report.dataset_keys["investments"])
            assert scheduler.ledger.leases.leases() == []
        finally:
            platform.close()

    def test_panel_records_match_batch_snapshot_schema(self):
        platform = _platform()
        try:
            scheduler, _, _ = _run_to_completion(platform)
            record = scheduler.panels.read()[0]
            assert {"day", "startup_id", "currently_raising",
                    "follower_count"} <= set(record)
        finally:
            platform.close()

    def test_drain_stops_between_units(self):
        platform = _platform()
        try:
            scheduler = platform.ingest_pipeline()
            scheduler.request_drain()
            report = scheduler.run(beats=5)
            assert report.drained
            assert report.stats.beats == 0  # drained before the first beat
            assert scheduler.ledger.pending_units() == []
        finally:
            platform.close()

    def test_incremental_scan_is_bounded(self):
        """Each source record is engine-scanned at most once, ever —
        a daily full rebuild would scan ~days/2 times as much."""
        platform = _platform()
        try:
            scheduler, report, _ = _run_to_completion(platform)
            raw = sum(len(scheduler.dfs.read_text(path).splitlines())
                      for ds in (scheduler.investments,
                                 scheduler.follow_edges)
                      for path in ds.live_files())
            assert report.derived_records_scanned == raw
            # a daily full rebuild re-reads everything every day
            assert report.derived_records_scanned < DAYS * max(raw, 1)
        finally:
            platform.close()


    @pytest.mark.parametrize("compact_every_days", [0, 2])
    def test_report_keys_match_full_read(self, compact_every_days):
        """``report()`` answers from the datasets' key indexes; a full
        ``read()`` is the oracle — with a warm index, with a new
        scheduler's cold index over a warm chain, across compactions."""
        def oracle(scheduler):
            return {name: len(ds.read())
                    for name, ds in scheduler.dataset_map().items()}

        platform = _platform(compact_every_days=compact_every_days)
        try:
            first = platform.ingest_pipeline()
            report = first.run_until_day(3)
            assert len(report.dataset_keys) == 7
            assert report.dataset_keys == oracle(first)
            first.faults = FaultSchedule.none()
            first.faults.force_ingest_kill("day-0004:snapshot", "mid-land")
            with pytest.raises(IngestKilled):
                first.run_until_day(6)
            resumed = platform.ingest_pipeline()
            assert resumed.report().dataset_keys == oracle(resumed)
            report = resumed.run_until_day(6)
            assert report.day == 6
            assert report.dataset_keys == oracle(resumed)
            assert report.dataset_keys["panels"] > 0
        finally:
            platform.close()


def _kill_matrix():
    # mid-land only exists for units that land datasets
    for kind in ("advance", "discover"):
        for state in CRASH_STATES:
            if state != "mid-land":
                yield f"day-0002:{kind}", state
    for kind in ("snapshot", "frontier", "derived"):
        for state in CRASH_STATES:
            yield f"day-0002:{kind}", state


@pytest.mark.chaos
class TestKillResumeDrill:
    """SIGKILL at every ledger state of every unit kind; the resumed
    pipeline must converge to the uninterrupted run, byte for byte."""

    @pytest.fixture(scope="class")
    def baseline(self):
        platform = _platform()
        try:
            scheduler, report, kills = _run_to_completion(platform)
            assert kills == 0
            yield (_fingerprints(scheduler),
                   {n: ds.duplicate_key_groups()
                    for n, ds in scheduler.dataset_map().items()})
        finally:
            platform.close()

    @pytest.mark.parametrize("unit,state", list(_kill_matrix()))
    def test_kill_resume_byte_identical(self, unit, state, baseline):
        base_bytes, base_dups = baseline
        platform = _platform()
        try:
            scheduler, report, kills = _run_to_completion(
                platform, kill=(unit, state))
            assert kills == 1, f"forced kill at {unit}@{state} never fired"
            assert _fingerprints(scheduler) == base_bytes
            # a redelivered unit never lands twice: no *new* duplicate
            # key groups versus the uninterrupted run
            for name, ds in scheduler.dataset_map().items():
                assert ds.duplicate_key_groups() == base_dups[name], name
            # and every lease was reclaimed or released
            assert scheduler.ledger.leases.leases() == []
            assert scheduler.ledger.pending_units() == []
        finally:
            platform.close()


@pytest.mark.chaos
class TestChaosProfiles:
    def test_lease_expiry_storm_still_converges(self):
        """Heartbeats keep getting lost; fenced commits and takeovers
        pile up, but the eventual datasets match the calm run."""
        calm = _platform()
        stormy = _platform()
        try:
            calm_sched, _, _ = _run_to_completion(calm)
            scheduler = stormy.ingest_pipeline()
            scheduler.faults = FaultSchedule.ingest_chaos(
                intensity=4.0, seed=3)
            # keep only lease-expiry storms: kills are the other test
            scheduler.faults.ingest_specs = [
                s for s in scheduler.faults.ingest_specs
                if s.kind == "lease_expiry"]
            kills = 0
            while True:
                try:
                    scheduler.run_until_day(DAYS)
                    break
                except IngestKilled:  # pragma: no cover - kills filtered
                    kills += 1
                    scheduler = stormy.ingest_pipeline()
            assert scheduler.stats.leases_lost > 0
            assert _fingerprints(scheduler) == _fingerprints(calm_sched)
        finally:
            calm.close()
            stormy.close()

    def test_probabilistic_kill_storm_converges(self):
        """chaos-ingest profile: seeded kills keep tearing the scheduler
        down; every incarnation resumes from the ledger and the tier
        still reaches the target day with clean datasets."""
        calm = _platform()
        chaotic = _platform()
        try:
            calm_sched, _, _ = _run_to_completion(calm)
            faults = FaultSchedule.ingest_chaos(intensity=1.0, seed=5)
            kills = 0
            scheduler = chaotic.ingest_pipeline()
            scheduler.faults = faults
            while True:
                try:
                    scheduler.run_until_day(DAYS)
                    break
                except IngestKilled:
                    kills += 1
                    assert kills < 500, "kill storm never converged"
                    scheduler = chaotic.ingest_pipeline()
                    scheduler.faults = faults
            assert kills > 0  # the profile actually bit
            assert _fingerprints(scheduler) == _fingerprints(calm_sched)
            assert scheduler.ledger.pending_units() == []
        finally:
            calm.close()
            chaotic.close()


class TestWatchdog:
    def test_poison_unit_escalates_instead_of_looping(self):
        platform = _platform()
        try:
            scheduler = platform.ingest_pipeline()
            scheduler.max_unit_attempts = 3
            scheduler.faults = FaultSchedule.none()
            # arm enough kills to exhaust the attempt budget
            for _ in range(10):
                scheduler.faults.force_ingest_kill(
                    "day-0001:snapshot", "pre-commit")
            with pytest.raises(IngestError) as failure:
                for _ in range(40):
                    try:
                        scheduler.run_until_day(1, max_beats=50)
                        break
                    except IngestKilled:
                        faults = scheduler.faults
                        scheduler = platform.ingest_pipeline()
                        scheduler.max_unit_attempts = 3
                        scheduler.faults = faults
                else:  # pragma: no cover - loop must raise first
                    pytest.fail("neither converged nor escalated")
            assert not isinstance(failure.value, IngestKilled)
            assert "redelivered" in str(failure.value)
        finally:
            platform.close()


class TestPlatformWiring:
    def test_chaos_ingest_profile_reaches_scheduler(self):
        platform = _platform(faults=FaultSchedule.ingest_chaos(
            intensity=0.0, seed=1))
        try:
            scheduler = platform.ingest_pipeline()
            assert scheduler.faults is platform.config.faults
        finally:
            platform.close()

    def test_plain_fault_plan_disables_ingest_faults(self):
        platform = _platform()
        try:
            assert platform.ingest_pipeline().faults is None
        finally:
            platform.close()

    def test_dynamics_shared_across_incarnations(self):
        platform = _platform()
        try:
            first = platform.ingest_pipeline()
            second = platform.ingest_pipeline()
            assert first.dynamics is second.dynamics
        finally:
            platform.close()
