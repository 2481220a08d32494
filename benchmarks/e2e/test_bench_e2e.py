"""The harness itself, exercised at ``--smoke`` sizes (about a minute).

Not part of the tier-1 suite (``testpaths`` is ``tests/``); run it with

    python -m pytest benchmarks/e2e/test_bench_e2e.py
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCH = str(HERE / "bench_e2e.py")
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from e2e_metrics import (END_TO_END, PER_LAYER, WORKLOADS,  # noqa: E402
                         benchmark_json)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, BENCH, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    """One smoke run of the whole suite, traced."""
    path = tmp_path_factory.mktemp("e2e") / "suite.json"
    done = _run("--smoke", "--repeats", "1", "--trace", "--json", str(path))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(path.read_text()), done.stdout


def test_benchmark_json_lists_the_same_metrics():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == benchmark_json()


def test_metric_names_and_counts_fit_the_contract():
    names = ([n for n, _ in WORKLOADS] + [m[0] for m in END_TO_END]
             + [m[0] for m in PER_LAYER])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), names
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    assert all(0 < bound <= 0.25 for _, _, _, bound in END_TO_END)
    assert ("setup_s", "s", "lower") in [m[:3] for m in END_TO_END]
    assert all(len(why) <= 200 for _, why in WORKLOADS)


def test_every_named_metric_is_reported(suite):
    report, printed = suite
    assert sorted(report["workloads"]) == sorted(n for n, _ in WORKLOADS)
    for key in ("nproc", "python", "platform", "git_sha"):
        assert report["env"][key]
    assert report["repeats"] == 1 and "seed" in report
    for name, entry in report["workloads"].items():
        assert entry["correct"], entry["problems"]
        assert entry["failed_fraction"] == 0
        assert sorted(entry["end_to_end"]) == sorted(
            m[0] for m in END_TO_END)
        for metric, m in entry["end_to_end"].items():
            assert m["n"] >= 1 and m["min"] <= m["median"] <= m["max"]
            assert m["median"] > 0, (name, metric)
        reported = set(entry["per_layer"]) | set(entry["absent"])
        assert reported == {m[0] for m in PER_LAYER}
        for metric in list(entry["end_to_end"]) + list(entry["per_layer"]):
            assert metric in printed


def test_layers_read_zero_where_a_workload_bypasses_them(suite):
    layers = {name: entry["per_layer"]
              for name, entry in suite[0]["workloads"].items()}
    assert layers["engine_jobs"]["dfs.bytes_written"]["value"] == 0
    assert layers["engine_jobs"]["crawl.client.requests"]["value"] == 0
    assert layers["engine_jobs"]["engine.shuffle_records"]["value"] > 0
    assert layers["serve_queries"]["engine.jobs"]["value"] == 0
    assert layers["serve_queries"]["serve.part_reads"]["value"] > 0
    assert layers["pipeline_batch"]["crawl.client.requests"]["value"] > 0
    assert layers["ingest_alerts"]["dfs.write_atomic.calls"]["value"] > 0


def test_one_run_prints_the_contract_line():
    done = _run("--workload", "engine_jobs", "--seed", "5", "--seconds", "0",
                "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m[0] for m in END_TO_END)


def test_same_seed_same_digest_and_a_wrong_digest_fails():
    args = ("--workload", "pipeline_batch", "--seed", "5", "--seconds", "0",
            "--trace", "0", "--smoke")
    first = _run(*args)
    assert first.returncode == 0, first.stderr
    digest = json.loads(
        first.stdout.strip().splitlines()[-2])["detail"]["digest"]
    assert _run(*args, "--expect-digest", digest).returncode == 0
    wrong = _run(*args, "--expect-digest", "0" * 64)
    assert wrong.returncode != 0
    result = json.loads(wrong.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["metrics"]["wall_s"]["value"] > 0   # still printed


def test_an_arm_whose_flag_is_gone_is_absent_not_failed(monkeypatch):
    from bench_e2e import _load_program
    _load_program()
    import e2e_workloads
    monkeypatch.setitem(e2e_workloads.ENGINE_ARMS, "vectorized",
                        {"engine_vectorized": True})
    assert e2e_workloads.engine_kwargs(engine_vectorized=True) is None
    workload = e2e_workloads.EngineJobs(e2e_workloads.SMOKE)
    from e2e_trace import Tracer
    state = workload.setup(3, Tracer(enabled=False))
    try:
        layers, absent, problems = workload.after_trace(state)
    finally:
        workload.close(state)
    assert absent == ["engine.vectorized.total_s"] and not problems
    assert "engine.serial.total_s" in layers


class _Layer:
    """Stands in for a program layer the tracer wraps."""

    def outer(self) -> None:
        time.sleep(0.02)
        self.inner()
        self.inner()

    def inner(self) -> int:
        time.sleep(0.01)
        return 5


def test_tracer_spans_self_time_and_restores_what_it_wrapped():
    from e2e_trace import Tracer
    tracer = Tracer(run_id="unit")
    tracer.patch(_Layer, "outer", "outer")
    tracer.patch(_Layer, "inner", "inner", units=lambda result: result)
    tracer.patch(_Layer, "renamed_away", "gone")
    try:
        with tracer.span("root"):
            _Layer().outer()
    finally:
        tracer.unpatch_all()
    assert tracer.absent == ["gone"]
    assert not hasattr(_Layer.outer, "__wrapped__")
    assert (tracer.calls("outer"), tracer.calls("inner")) == (1, 2)
    assert tracer.units("inner") == 10
    assert tracer.busy("inner") >= 0.02 and tracer.busy("outer") >= 0.04
    assert tracer.self_s("outer") == pytest.approx(
        tracer.busy("outer") - tracer.busy("inner"))
    dump = tracer.dump()
    assert dump["run_id"] == "unit"
    by_name = {}
    for span_id, parent, name, start, end in dump["spans"]:
        assert end >= start
        by_name.setdefault(name, []).append((span_id, parent))
    (root_id, root_parent), = by_name["root"]
    (outer_id, outer_parent), = by_name["outer"]
    assert root_parent == 0 and outer_parent == root_id
    assert [parent for _, parent in by_name["inner"]] == [outer_id] * 2


def test_tracer_sampling_counts_every_call_and_times_one_in_n():
    from e2e_trace import Tracer
    tracer = Tracer()
    tracer.patch(_Layer, "inner", "inner", sample=3)
    try:
        layer = _Layer()
        for _ in range(9):
            layer.inner()
    finally:
        tracer.unpatch_all()
    assert tracer.calls("inner") == 9
    # three calls timed, each standing for three: about 9 x 10 ms
    assert 0.08 <= tracer.busy("inner") <= 0.2
    assert tracer.dump()["spans"] == []   # sampled names keep totals only


def test_compare_passes_identical_and_flags_a_regression(suite, tmp_path):
    # smoke timings are milliseconds and spread widely: pin them
    report = copy.deepcopy(suite[0])
    for entry in report["workloads"].values():
        for m in entry["end_to_end"].values():
            m["min"] = m["max"] = m["median"]
    rows, failures = compare.compare(report, report)
    assert not failures and not any("unresolved" in r for r in rows)

    slower = copy.deepcopy(report)
    wall = slower["workloads"]["serve_queries"]["end_to_end"]["wall_s"]
    for key in ("median", "min", "max"):
        wall[key] *= 1.30   # the bound is 25%
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(report))
    b.write_text(json.dumps(slower))
    done = subprocess.run([sys.executable, str(HERE / "compare.py"),
                           str(a), str(b)], capture_output=True, text=True)
    assert done.returncode == 1
    assert "FAIL serve_queries.wall_s: regressed" in done.stdout

    noisy = copy.deepcopy(report)
    wall = noisy["workloads"]["serve_queries"]["end_to_end"]["wall_s"]
    wall["max"] = wall["median"] * 1.3   # spread 30% > bound 25%
    rows, failures = compare.compare(report, noisy)
    assert not failures
    assert any("serve_queries" in r and " wall_s " in r and "unresolved" in r
               for r in rows)
