"""Tests for the overload-safe query service (single-request paths)."""

import json
from dataclasses import replace

import pytest

from repro.net.faults import FAULT_BROWNOUT, FaultSchedule
from repro.serve.dataset import (QUERY_KINDS, ServeDataset, SpanIndex,
                                 scan_part_for)
from repro.serve.metrics import (STATUS_CACHED, STATUS_DEADLINE,
                                 STATUS_FRESH, STATUS_SHED_QUEUE,
                                 STATUS_STALE, STATUS_SUMMARY)
from repro.serve.service import QueryService, ServeConfig, ServeRequest
from repro.util.errors import ConfigError


@pytest.fixture(scope="module")
def dataset(crawled_platform):
    return crawled_platform.serve_dataset()


def _service(platform, faults=None, **overrides):
    return platform.query_service(config=ServeConfig(**overrides),
                                  faults=faults)


def _company_key(dataset):
    return dataset.keys_for("company")[0]


class TestQueryPaths:
    def test_company_lookup_reads_the_real_record(self, crawled_platform,
                                                  dataset):
        service = _service(crawled_platform)
        key = _company_key(dataset)
        result = service.handle(ServeRequest(kind="company", key=key))
        assert result.status == STATUS_FRESH
        assert not result.stale
        assert result.value["known"]
        assert int(result.value["record"]["id"]) == key
        assert "funding_rounds" in result.value
        assert result.latency_s > 0

    def test_repeat_is_a_cache_hit(self, crawled_platform, dataset):
        service = _service(crawled_platform)
        key = _company_key(dataset)
        first = service.handle(ServeRequest(kind="company", key=key))
        second = service.handle(ServeRequest(kind="company", key=key))
        assert second.status == STATUS_CACHED
        assert second.value == first.value
        assert second.latency_s < first.latency_s

    def test_investor_and_traversal_answers(self, crawled_platform,
                                            dataset):
        service = _service(crawled_platform)
        investor = dataset.keys_for("investor")[0]
        result = service.handle(ServeRequest(kind="investor", key=investor))
        assert result.status == STATUS_FRESH
        assert result.value["investments"] >= 1
        user = dataset.keys_for("neighborhood")[0]
        hood = service.handle(ServeRequest(kind="neighborhood", key=user,
                                           depth=2))
        assert hood.status == STATUS_FRESH
        assert hood.value["depth"] == 2
        assert hood.value["users_reached"] >= 0

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(ConfigError):
            ServeRequest(kind="weather", key=1)


class TestDegradation:
    def test_stale_answer_during_brownout(self, crawled_platform, dataset):
        faults = FaultSchedule.none()
        # backend request index 1 (the revalidation) browns out
        faults.force_window(FAULT_BROWNOUT, start=1, span=5, duration=0.4)
        service = _service(crawled_platform, faults=faults,
                           fresh_ttl_s=0.5, stale_ttl_s=60.0)
        key = _company_key(dataset)
        first = service.handle(ServeRequest(kind="company", key=key))
        assert first.status == STATUS_FRESH
        service.clock.sleep(2.0)  # past the fresh TTL, within stale
        second = service.handle(ServeRequest(kind="company", key=key))
        assert second.status == STATUS_STALE
        assert second.stale
        assert second.value == first.value  # last good answer
        assert service.metrics.stale_served == 1

    def test_summary_floor_when_nothing_cached(self, crawled_platform,
                                               dataset):
        faults = FaultSchedule.none()
        faults.force_window(FAULT_BROWNOUT, start=0, span=5, duration=0.4)
        service = _service(crawled_platform, faults=faults)
        result = service.handle(ServeRequest(
            kind="company", key=_company_key(dataset)))
        assert result.status == STATUS_SUMMARY
        assert result.stale
        assert result.value["degraded"]
        assert result.value["total_companies"] > 0
        assert result.answered

    def test_tight_deadline_degrades_instead_of_starting(
            self, crawled_platform, dataset):
        service = _service(crawled_platform)
        result = service.handle(ServeRequest(
            kind="company", key=_company_key(dataset), deadline_s=0.001))
        # the planner refused the read: a summary fits the 1 ms budget
        assert result.status == STATUS_SUMMARY
        assert result.latency_s <= 0.001

    def test_hopeless_deadline_is_reported_honestly(self, crawled_platform,
                                                    dataset):
        service = _service(crawled_platform)
        result = service.handle(ServeRequest(
            kind="company", key=_company_key(dataset), deadline_s=1e-5))
        assert result.status == STATUS_DEADLINE
        assert not result.answered

    def test_breaker_short_circuits_a_browned_out_backend(
            self, crawled_platform, dataset):
        faults = FaultSchedule.none()
        faults.force_window(FAULT_BROWNOUT, start=0, span=50, duration=0.4)
        service = _service(crawled_platform, faults=faults,
                           breaker_failure_threshold=3)
        keys = dataset.keys_for("company")[:8]
        for key in keys:
            result = service.handle(ServeRequest(kind="company", key=key))
            assert result.status == STATUS_SUMMARY  # degraded, not dead
        counters = service.metrics.counters("interactive")
        # only the first three requests paid fault detection; the rest
        # were short-circuited by the open breaker
        assert counters.backend_faults == 3
        assert counters.breaker_short_circuits == len(keys) - 3


class TestAdmissionAccounting:
    def test_evicted_request_is_reclassified_as_shed(self, crawled_platform,
                                                     dataset):
        service = _service(crawled_platform, qps_limit=1000.0,
                           queue_depth=1)
        key = _company_key(dataset)
        own, evicted = service.submit(
            ServeRequest(kind="company", key=key, priority="bulk"))
        assert own is None and evicted is None
        own, evicted = service.submit(
            ServeRequest(kind="company", key=key, priority="interactive"))
        assert own is None
        assert evicted is not None
        assert evicted.status == STATUS_SHED_QUEUE
        metrics = service.metrics
        assert metrics.counters("bulk").admitted == 0
        assert metrics.counters("bulk").shed_queue == 1
        assert metrics.counters("interactive").admitted == 1

    def test_config_validation(self, crawled_platform):
        with pytest.raises(ConfigError):
            ServeConfig(qps_limit=0.0)
        with pytest.raises(ConfigError):
            ServeConfig(queue_depth=0)
        with pytest.raises(ConfigError):
            ServeConfig(fresh_ttl_s=10.0, stale_ttl_s=1.0)


def _scan_oracle(dataset):
    """The same indexes with no spans: every look-up scans its part."""
    return replace(dataset, company_spans=SpanIndex(),
                   user_spans=SpanIndex())


def _scan_once(dfs, part):
    """What ``scan_part_for`` finds for each id of a part, in one pass
    (a scan per key is quadratic in the part)."""
    found = {}
    for line in dfs.read(part).decode("utf-8").splitlines():
        if line:
            rec = json.loads(line)
            found.setdefault(int(rec["id"]), rec)
    return found


def _assert_spans_find_what_the_scan_finds(dataset, dfs, scan_per_key=False):
    for parts, spans in ((dataset.company_parts, dataset.company_spans),
                         (dataset.user_parts, dataset.user_spans)):
        assert len(spans) == len(parts) > 0
        raw = {part: dfs.read(part) for part in set(parts.values())}
        scanned = {part: _scan_once(dfs, part) for part in raw}
        for key, part in parts.items():
            offset, length = spans.get(key)
            sliced = json.loads(raw[part][offset:offset + length])
            assert sliced == scanned[part][key]
            assert int(sliced["id"]) == key
            if scan_per_key:
                assert scan_part_for(dfs, part, key)[0] == sliced
            # the span is the line and nothing else
            assert raw[part][offset + length:offset + length + 1] == b"\n"
            assert offset == 0 or raw[part][offset - 1:offset] == b"\n"


class TestSpanIndex:
    def test_get_iter_len_and_last_add_wins(self):
        spans = SpanIndex()
        assert spans.get(5) is None and len(spans) == 0
        for row in ((9, 90, 1), (2, 20, 2), (5, 50, 3), (2, 21, 4)):
            spans.add(*row)
        assert spans.get(9) == (90, 1)
        assert spans.get(2) == (21, 4)
        assert spans.get(3) is None and spans.get(-1) is None
        spans.add(1, 10, 5)                # adds after a look-up re-sort
        assert spans.get(1) == (10, 5)
        assert [row[0] for row in spans] == [1, 2, 2, 5, 9]
        assert spans == SpanIndex(*spans.columns())
        assert [list(c) for c in SpanIndex().columns()] == [[], [], []]
        assert spans != SpanIndex()


class TestSpanSeek:
    """A look-up seeks to its record; the part scan is only the guard."""

    def test_every_span_decodes_to_the_scanned_record(self, crawled_platform,
                                                      dataset):
        _assert_spans_find_what_the_scan_finds(dataset,
                                               crawled_platform.dfs)

    def test_escaped_and_multibyte_names_in_a_multi_part_dataset(
            self, small_crawl):
        dataset = ServeDataset.build(small_crawl)
        assert len(set(dataset.company_parts.values())) == 3
        assert len(set(dataset.user_parts.values())) == 2
        _assert_spans_find_what_the_scan_finds(dataset, small_crawl,
                                               scan_per_key=True)
        escaped = dataset.run("company", 103, small_crawl)
        assert escaped.value["record"]["name"] == "Café ☃ 3"
        multibyte = dataset.run("company", 204, small_crawl)
        assert multibyte.value["record"]["name"] == "Zoë ☃ n°4"
        assert not escaped.span_fallback and not multibyte.span_fallback

    def test_run_equals_the_scan_oracle_for_all_five_kinds(
            self, crawled_platform, dataset):
        dfs = crawled_platform.dfs
        oracle = _scan_oracle(dataset)
        for kind in QUERY_KINDS:
            keys = dataset.keys_for(kind)
            for key in keys[::max(1, len(keys) // 40)]:
                got = dataset.run(kind, key, dfs, depth=2)
                want = oracle.run(kind, key, dfs, depth=2)
                assert got.value == want.value
                assert got.units == want.units
                assert not got.span_fallback
                if kind in ("company", "investor"):
                    assert want.span_fallback
                    part = dataset.dfs_part_for(kind, key)
                    assert len(got.hedged.data) \
                        == dataset.dfs_span_for(kind, key)[1]
                    assert len(want.hedged.data) == dfs.stat(part).length

    def test_seek_reads_only_the_covering_blocks(self, small_crawl):
        dataset = ServeDataset.build(small_crawl)
        part = dataset.company_parts[110]
        for node_id in small_crawl.datanodes:
            small_crawl.set_datanode_latency(node_id, 0.001)
        blocks, _ = small_crawl.covering_blocks(
            part, *dataset.company_spans.get(110))
        answer = dataset.run("company", 110, small_crawl)
        assert answer.hedged.elapsed_s == pytest.approx(0.001 * len(blocks))
        assert len(blocks) < len(small_crawl.stat(part).blocks)

    def test_unknown_key_answers_without_a_dfs_read(self, small_crawl,
                                                    monkeypatch):
        dataset = ServeDataset.build(small_crawl)

        def no_reads(*args, **kwargs):
            raise AssertionError("an unknown key must not touch the DFS")
        monkeypatch.setattr(small_crawl, "read_hedged", no_reads)
        service = QueryService(dataset, small_crawl)
        for kind, field in (("company", "company_id"),
                            ("investor", "user_id")):
            result = service.handle(ServeRequest(kind=kind, key=999_999))
            assert result.status == STATUS_FRESH
            assert result.value == {field: 999_999, "known": False}
        assert service.metrics.span_fallbacks == 0


class TestStaleSpans:
    """A part atomically re-flushed under a built index (a resumed
    crawl does this): the id check catches it, the scan answers."""

    @staticmethod
    def _rewrite_reversed(dfs, part):
        lines = dfs.read(part).split(b"\n")[:-1]
        dfs.write_atomic(part, b"\n".join(reversed(lines)) + b"\n")

    def test_reordered_part_still_answers_and_counts_fallbacks(
            self, small_crawl):
        dataset = ServeDataset.build(small_crawl)
        want = {key: dataset.run("company", key, small_crawl).value
                for key in dataset.company_parts}
        part = dataset.company_parts[103]
        self._rewrite_reversed(small_crawl, part)
        service = QueryService(dataset, small_crawl,
                               config=ServeConfig(qps_limit=10_000.0))
        for key, value in want.items():
            result = service.handle(ServeRequest(kind="company", key=key))
            assert result.status == STATUS_FRESH
            assert result.value == value
        stale = sum(1 for p in dataset.company_parts.values() if p == part)
        # (an odd-sized part keeps its middle line in place)
        assert stale - 1 <= service.metrics.span_fallbacks <= stale
        assert service.metrics.span_fallbacks > 0
        assert service.metrics.snapshot()["span_fallbacks"] \
            == service.metrics.span_fallbacks

    def test_span_past_the_end_of_a_shrunken_part(self, small_crawl):
        dataset = ServeDataset.build(small_crawl)
        part = dataset.user_parts[1005]
        keep = [line for line in small_crawl.read(part).split(b"\n")
                if line and json.loads(line)["id"] in (1000, 1005)]
        small_crawl.write_atomic(part, b"\n".join(reversed(keep)) + b"\n")
        service = QueryService(dataset, small_crawl)
        found = service.handle(ServeRequest(kind="investor", key=1005))
        assert found.value["record"]["id"] == 1005
        gone = service.handle(ServeRequest(kind="investor", key=1003))
        assert gone.status == STATUS_FRESH
        assert gone.value["known"] is False and gone.value["record"] is None
        assert service.metrics.span_fallbacks == 2

    def test_failed_seek_is_charged_on_top_of_the_scan(self, small_crawl):
        dataset = ServeDataset.build(small_crawl)
        part = dataset.company_parts[103]
        for node_id in small_crawl.datanodes:
            small_crawl.set_datanode_latency(node_id, 0.001)
        self._rewrite_reversed(small_crawl, part)
        seek_blocks, _ = small_crawl.covering_blocks(
            part, *dataset.company_spans.get(103))
        answer = dataset.run("company", 103, small_crawl)
        assert answer.span_fallback
        assert answer.value["record"]["id"] == 103
        assert answer.hedged.elapsed_s == pytest.approx(
            0.001 * (len(seek_blocks) + len(small_crawl.stat(part).blocks)))

    def test_clean_index_snapshot_has_no_fallback_key(self, small_crawl):
        service = QueryService(ServeDataset.build(small_crawl), small_crawl)
        service.handle(ServeRequest(kind="company", key=103))
        assert service.metrics.span_fallbacks == 0
        assert "span_fallbacks" not in service.metrics.snapshot()


class TestDeadlineGateBlocks:
    """The gate prices the blocks the look-up will read, no others."""

    def test_bound_covers_the_span_not_the_part(self, small_crawl):
        dataset = ServeDataset.build(small_crawl)
        service = QueryService(dataset, small_crawl)
        part = dataset.company_parts[110]
        blocks, _ = small_crawl.covering_blocks(
            part, *dataset.company_spans.get(110))
        primaries = {b.locations[0] for b in blocks}
        outside = next(
            b.locations[0] for b in small_crawl.stat(part).blocks
            if b.locations[0] not in primaries)
        request = ServeRequest(kind="company", key=110)
        small_crawl.set_datanode_latency(outside, 5.0)
        assert service._dfs_latency_bound(request) == 0.0
        small_crawl.set_datanode_latency(blocks[0].locations[0], 0.02)
        bound = service._dfs_latency_bound(request)
        assert bound == pytest.approx(0.02 * sum(
            1 for b in blocks if b.locations[0] == blocks[0].locations[0]))
        # and it is an upper bound on what the read then charges
        answer = dataset.run("company", 110, small_crawl)
        assert answer.hedged.elapsed_s <= bound + 1e-12

    def test_missing_part_bounds_to_zero_other_errors_surface(
            self, small_crawl, monkeypatch):
        dataset = ServeDataset.build(small_crawl)
        service = QueryService(dataset, small_crawl)
        request = ServeRequest(kind="company", key=110)
        assert service._dfs_latency_bound(
            ServeRequest(kind="engagement", key=110)) == 0.0
        small_crawl.delete(dataset.company_parts[110])
        assert service._dfs_latency_bound(request) == 0.0

        def broken(*args, **kwargs):
            raise RuntimeError("namenode bug")
        monkeypatch.setattr(small_crawl, "covering_blocks", broken)
        with pytest.raises(RuntimeError):
            service._dfs_latency_bound(request)

    def test_stale_span_past_the_end_prices_the_whole_part(
            self, small_crawl):
        dataset = ServeDataset.build(small_crawl)
        service = QueryService(dataset, small_crawl)
        part = dataset.user_parts[1005]
        small_crawl.write_atomic(part, b'{"id":1005}\n')
        for node_id in small_crawl.datanodes:
            small_crawl.set_datanode_latency(node_id, 0.003)
        assert service._dfs_latency_bound(
            ServeRequest(kind="investor", key=1005)) \
            == pytest.approx(0.003)
