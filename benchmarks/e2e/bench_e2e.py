"""The repo's end-to-end benchmark: four workloads, wall/CPU/RSS end to
end, spans per layer.

Two ways to run it, one file:

* **one run** — what ``BENCHMARK.json`` names as the command::

      python3 benchmarks/e2e/bench_e2e.py --workload serve_queries \\
          --seed 7 --seconds 10 --trace 0

  builds the workload's inputs from the seed, measures, checks the
  outputs and prints one JSON object as its last line: the end-to-end
  metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
  The line before it (``{"detail": ...}``) carries samples, digests and
  failed checks for people and for the suite below.

* **the suite** — leave ``--seconds`` out::

      python3 benchmarks/e2e/bench_e2e.py [--seed N] [--repeats R]
          [--workload NAME] [--trace] [--smoke] [--json FILE]

  runs every workload ``R`` times untraced plus (with ``--trace``) once
  traced, each in a fresh child process, and prints every metric by
  name with its unit; ``compare.py`` reads two of its ``--json`` files.

A run is single-driver: one process, one thread issuing the work (the
engine's own default thread pool is the program's business).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

#: set-ups per run, median reported: several where one is cheap. The
#: driver's 92 runs must end within 57 minutes even on a slow day, and
#: one ``ingest_alerts`` set-up is eight seconds of crawling
SETUP_REPEATS = {"pipeline_batch": 2, "engine_jobs": 3,
                 "serve_queries": 2, "ingest_alerts": 1}
#: bench-code spans taken during set-up -> the per-layer metric they feed
SETUP_SPANS = {"world.generate": "world.generate_s",
               "serve.dataset.build": "serve.dataset.build_s",
               "serve.shard.boot": "serve.shard.boot_s",
               "serve.loadgen.schedule": "serve.loadgen.schedule_s"}
CHILD_TIMEOUT_S = 900


def _load_program() -> None:
    """Put the benchmark's own modules and ``src/`` on the path."""
    if not (SRC / "repro").is_dir():
        sys.exit(f"bench_e2e: no program to measure: {SRC / 'repro'} "
                 f"is missing (run from a full checkout)")
    for entry in (str(SRC), str(HERE)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


# ==================================================================== one run
#: what :func:`_calibrate` reads on the reference box (2 cores, CPython
#: 3.11) when nothing else competes for the host
REF_CALIB_S = 0.0395
_CALIB_RECORDS = [{"id": i, "name": f"company-{i}", "tags": [i % 7, i % 11],
                   "score": i * 0.5, "url": f"http://example.org/{i}"}
                  for i in range(6_000)]
_CALIB_FLOATS = [((i * 2654435761) % 1000003) / 1000003.0
                 for i in range(16_000)]


def _calibrate() -> float:
    """Seconds a fixed loop of the program's kind of work takes now:
    JSON round trips, dict and list churn, integer arithmetic, a sort.

    The fastest of twelve 40 ms loops, collector off: one loop in ten
    here is hit by a hiccup of up to 2x, and the minimum of twelve
    repeats within 2% where the minimum of three 140 ms loops (the same
    half second) repeated within 5%.
    """
    def once() -> float:
        began = perf_counter()
        back = [json.loads(json.dumps(record, sort_keys=True))
                for record in _CALIB_RECORDS]
        buckets: Dict[int, List[str]] = {}
        for record in back:
            buckets.setdefault(record["id"] % 997, []).append(record["name"])
        sorted(buckets, key=lambda k: (len(buckets[k]), k))
        total = 0
        for i in range(60_000):
            total += (i * 31) % 7
        sorted(zip(_CALIB_FLOATS, range(len(_CALIB_FLOATS))))
        return perf_counter() - began
    collecting = gc.isenabled()
    gc.disable()
    try:
        return min(once() for _ in range(12))
    finally:
        if collecting:
            gc.enable()


class _HostSpeed:
    """The host's speed over each timed step, from a calibration taken
    before it and one after: 1.0 is the reference box at full speed,
    0.8 a host a fifth slower.

    This sandbox slows by 15-25% for minutes at a time — CPU seconds
    rise with wall seconds and steal time is nil, so the cores
    themselves run slower. Ten runs of one commit then spread 14-27% on
    raw wall time, and no repetition inside a run averages out a slow
    quarter of an hour; scaling by the measured speed does. (A side
    thread probing the speed *during* the step caught slow spells of a
    few seconds that the two calibrations miss, but its own reading
    moved by +-5% with what the workload was doing to the caches, and
    made calm runs noisier than it made rough runs steadier.)
    """

    def __init__(self) -> None:
        self._last = _calibrate()
        self.samples = [self._last]

    def over_last_step(self) -> float:
        now = _calibrate()
        self.samples.append(now)
        speed = REF_CALIB_S / ((self._last + now) / 2.0)
        self._last = now
        return speed


def _measure(workload: Any, state: Any, tracer: Any, host: _HostSpeed) -> Any:
    result = workload.measure(state, tracer)
    result.speed = host.over_last_step()
    return result


def run_once(name: str, seed: int, seconds: float, trace: bool,
             smoke: bool, expect_digest: Optional[str] = None,
             ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One run of one workload -> (contract result, detail).

    Every end-to-end time is the measured time multiplied by the host
    speed measured around it ("seconds at reference speed"); the detail
    carries the raw seconds and the speeds.
    """
    from e2e_metrics import END_TO_END, PER_LAYER
    from e2e_trace import Tracer
    from e2e_workloads import FULL, SMOKE, WORKLOADS

    workload = WORKLOADS[name](SMOKE if smoke else FULL)
    off = Tracer(enabled=False)
    host = _HostSpeed()
    setups: List[Tuple[float, float]] = []   # (raw seconds, host speed)
    passes: List[Any] = []

    def set_up() -> Any:
        began = perf_counter()
        state = workload.setup(seed, off)
        raw = perf_counter() - began
        setups.append((raw, host.over_last_step()))
        return state

    # measure for at least ``seconds``: whole passes, fresh state each;
    # the first set-ups are made only to be timed (a traced run reports
    # no ``setup_s`` and skips them)
    spare = 0 if trace else SETUP_REPEATS[name] - 1
    measuring = 0.0
    state = None
    while spare or not passes or measuring < seconds:
        if state is not None:
            # the last state (up to a gigabyte) must be gone before the
            # next set-up is timed, or its release is billed to it
            workload.close(state)
            state = None
            gc.collect()
        state = set_up()
        if spare:
            spare -= 1
            continue
        began = perf_counter()
        passes.append(_measure(workload, state, off, host))
        measuring += perf_counter() - began

    problems = [p for one in passes for p in one.problems]
    digests = sorted({one.digest for one in passes})
    if len(digests) > 1:
        problems.append(f"passes of one seed disagree: digests {digests}")
    if expect_digest is not None and digests != [expect_digest]:
        problems.append(f"digest {digests} is not the expected "
                        f"{expect_digest}")
    samples = {
        "setup_s": [raw * speed for raw, speed in setups],
        "wall_s": [p.wall_s * p.speed for p in passes],
        "work_per_s": [p.work / (p.wall_s * p.speed) for p in passes],
        "tail_ms": [p.tail_ms * p.speed for p in passes],
        "cpu_s": [p.cpu_s * p.speed for p in passes],
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
    }
    detail: Dict[str, Any] = {
        "workload": name, "seed": seed, "smoke": smoke,
        "digest": digests[0] if len(digests) == 1 else None,
        "counts": passes[-1].counts, "samples": samples, "absent": [],
        "raw": {"setup_s": [raw for raw, _ in setups],
                "wall_s": [p.wall_s for p in passes],
                "tail_ms": [p.tail_ms for p in passes],
                "cpu_s": [p.cpu_s for p in passes]},
        "host_speed": {"setups": [speed for _, speed in setups],
                       "passes": [p.speed for p in passes]},
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    if not trace:
        units = {n: u for n, u, _, _ in END_TO_END}
        metrics = {n: {"value": statistics.median(samples[n]),
                       "unit": units[n]} for n in units}
    else:
        workload.close(state)
        state = None
        gc.collect()
        tracer = Tracer(run_id=f"{name}-{seed}")
        state = workload.setup(seed, tracer)
        host.over_last_step()
        workload.trace_targets(tracer)
        try:
            traced = _measure(workload, state, tracer, host)
        finally:
            tracer.unpatch_all()
        problems += [f"traced pass: {p}" for p in traced.problems]
        layers = dict(traced.layers)
        # what the workload times and counts itself is better read off
        # the untraced pass, where nothing is wrapped
        layers.update(passes[-1].layers)
        for span, metric in SETUP_SPANS.items():
            if tracer.calls(span):
                layers.setdefault(metric, tracer.busy(span))
        layers["trace.overhead_ratio"] = (
            traced.wall_s * traced.speed / statistics.median(samples["wall_s"]))
        layers["host.speed"] = passes[-1].speed
        layers["failed_fraction"] = failed / max(1, attempted)
        detail["absent"] = sorted(tracer.absent)
        if hasattr(workload, "after_trace"):
            more, absent, more_problems = workload.after_trace(state)
            layers.update(more)
            detail["absent"] += absent
            problems += more_problems
        detail["spans_file"] = _write_spans(tracer, name, seed)
        metrics = {n: {"value": layers.get(n, 0), "unit": u}
                   for n, u, _ in PER_LAYER}
    workload.close(state)

    detail["problems"] = problems
    detail["calibrations_s"] = host.samples
    result = {"correct": not problems, "attempted": max(1, attempted),
              "failed": failed, "metrics": metrics}
    return result, detail


def _write_spans(tracer: Any, name: str, seed: int) -> str:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{name}-{seed}.json"
    path.write_text(json.dumps(tracer.dump()))
    return str(path.relative_to(ROOT))


# ====================================================================== suite
def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _child(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
           ) -> Tuple[Dict[str, Any], Dict[str, Any], int]:
    """One run in a fresh process -> (result, detail, exit code)."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{name}: run printed no result "
                           f"(exit {done.returncode}):\n{done.stderr[-2000:]}")
    return (json.loads(lines[-1]), json.loads(lines[-2])["detail"],
            done.returncode)


def run_suite(args: argparse.Namespace) -> int:
    from e2e_metrics import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS
    # a smoke pass takes a fraction of a second: one is enough
    seconds = 0 if args.smoke else RUN_SECONDS
    names = [args.workload] if args.workload else [n for n, _ in WORKLOADS]
    report: Dict[str, Any] = {
        "env": {"nproc": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(), "git_sha": _git_sha()},
        "seed": args.seed, "repeats": args.repeats, "smoke": args.smoke,
        "loop": "single driver; serve_queries is open-loop in simulated "
                "time and a closed loop with one client in wall time",
        "end_to_end": {n: {"unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END},
        "workloads": {},
    }
    layer_units = {n: u for n, u, _ in PER_LAYER}
    print(f"# seed {args.seed}, {args.repeats} untraced run(s) per workload; "
          + ", ".join(f"{k} {v}" for k, v in report["env"].items()))
    print(f"# {report['loop']}")
    ok = True
    for name in names:
        runs = [_child(name, args.seed, seconds, False, args.smoke)
                for _ in range(args.repeats)]
        entry: Dict[str, Any] = {"end_to_end": {}, "per_layer": {},
                                 "problems": []}
        for metric, spec in report["end_to_end"].items():
            # set-up is sampled several times per run, the rest once
            samples = [v for _, detail, _ in runs
                       for v in detail["samples"][metric]]
            entry["end_to_end"][metric] = {
                "unit": spec["unit"], "median": statistics.median(samples),
                "min": min(samples), "max": max(samples), "n": len(samples)}
        attempted = sum(result["attempted"] for result, _, _ in runs)
        failed = sum(result["failed"] for result, _, _ in runs)
        entry.update(attempted=attempted, failed=failed,
                     failed_fraction=failed / attempted,
                     digest=runs[0][1]["digest"], counts=runs[0][1]["counts"])
        for _, detail, _ in runs:
            entry["problems"] += detail["problems"]
            if (detail["digest"], detail["counts"]) != (entry["digest"],
                                                        entry["counts"]):
                entry["problems"].append(
                    f"repeats of seed {args.seed} disagree on digest/counts")
        if args.trace:
            result, detail, _ = _child(name, args.seed, seconds, True,
                                       args.smoke)
            absent = set(detail["absent"])
            entry["per_layer"] = {
                metric: {"unit": layer_units[metric], "value": m["value"]}
                for metric, m in result["metrics"].items()
                if metric not in absent}
            entry["absent"] = sorted(absent)
            entry["problems"] += detail["problems"]
        entry["correct"] = not entry["problems"]
        ok = ok and entry["correct"]
        report["workloads"][name] = entry
        _print_workload(name, entry)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2,
                                              sort_keys=True) + "\n")
    return 0 if ok else 1


def _print_workload(name: str, entry: Dict[str, Any]) -> None:
    print(f"== {name}: {'ok' if entry['correct'] else 'CHECK FAILED'}, "
          f"failed {entry['failed']}/{entry['attempted']}, "
          f"digest {str(entry['digest'])[:12]}")
    for problem in entry["problems"]:
        print(f"   ! {problem}")
    for metric, m in entry["end_to_end"].items():
        print(f"   {metric:<46} {m['median']:>14.4f} {m['unit']:<6} "
              f"[{m['min']:.4f} .. {m['max']:.4f}] n={m['n']}")
    for metric, m in entry["per_layer"].items():
        print(f"   {metric:<46} {m['value']:>14.4f} {m['unit']}")
    for metric in entry.get("absent", ()):
        print(f"   {metric:<46} {'absent':>14}")


# ======================================================================== main
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=20160626)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure one workload for at least this long "
                             "and print one result line (omit for the suite)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="per-layer metrics from a traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: proves the harness, not the numbers")
    parser.add_argument("--repeats", type=int, default=3,
                        help="suite: untraced runs per workload")
    parser.add_argument("--json", default=None, help="suite: write FILE")
    parser.add_argument("--expect-digest", default=None,
                        help="one run: fail unless the output digest is this")
    args = parser.parse_args(argv)
    _load_program()
    from e2e_metrics import WORKLOADS
    if args.workload is not None and args.workload not in dict(WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {[n for n, _ in WORKLOADS]}")
    if args.seconds is None:
        return run_suite(args)
    if args.workload is None:
        parser.error("--seconds needs --workload")
    result, detail = run_once(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.smoke,
                              args.expect_digest)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
