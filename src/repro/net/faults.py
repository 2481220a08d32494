"""Deterministic fault injection for the simulated servers.

Two generations of fault model live here:

* :class:`FaultPlan` — the original model: independent transient
  500/503s decided purely from the request index. Kept for backward
  compatibility and for tests that want exactly one failure mode.
* :class:`FaultSchedule` — a composable taxonomy of the failure modes a
  weeks-long crawl of real public APIs actually meets (§3): client-side
  timeouts after a server hang, connection resets, 503 *brownout
  windows* spanning several consecutive requests, truncated/corrupt
  JSON payloads, and 429 rate-limit storms — all seed-deterministic so
  a chaos run can be replayed bit-for-bit.

Every decision is a pure function of ``(seed, request_index)``; nothing
consults wall time or global RNG state, so two crawls over the same
world with the same schedule observe the same faults in the same
places.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.util.rng import derive_seed

#: point faults — decided independently per request
FAULT_ERROR = "error"        # transient 500/503
FAULT_TIMEOUT = "timeout"    # server hang until the client's timeout fires
FAULT_RESET = "reset"        # connection reset by peer
FAULT_CORRUPT = "corrupt"    # 200 whose JSON body arrives truncated

#: window faults — a start index opens a window covering ``span`` requests
FAULT_BROWNOUT = "brownout"  # consecutive 503s with Retry-After
FAULT_STORM = "rate_storm"   # consecutive 429s with Retry-After

#: engine faults — injected into partition *tasks*, not network requests
FAULT_KILL_WORKER = "kill_worker"  # the executor running the task dies
FAULT_HANG_TASK = "hang_task"      # the task wedges for ``duration`` seconds

#: serve faults — injected into the online query path (repro.serve), not
#: the crawl; a brownout/storm window claims serve requests too (the
#: backing store browns out for both readers and writers)
FAULT_SLOW = "slow"                # backend latency spike of ``duration`` s

#: shard faults — injected into the *sharded* serve tier
#: (repro.serve.sharding); each claims a window of serve-request
#: indexes, and the scatter-gather coordinator maps the window start to
#: a deterministic target shard (and replica, for slow_replica)
FAULT_KILL_SHARD = "kill_shard"            # every replica of one shard dies
FAULT_PARTITION_SHARD = "partition_shard"  # shard unreachable for the window
FAULT_SLOW_REPLICA = "slow_replica"        # one replica pads ``duration`` s

#: ingest faults — injected into the continuous-ingest tier's ledger
#: protocol (repro.crawl.scheduler), never into network requests
FAULT_KILL_INGEST = "kill_ingest"    # SIGKILL-equivalent at a ledger state
FAULT_LEASE_EXPIRY = "lease_expiry"  # heartbeats lost; the lease lapses

#: alert faults — injected into the standing-query delivery path
#: (repro.serve.outbox), keyed by delivery-attempt step keys so a retry
#: rolls new dice, exactly like the ingest tier
FAULT_KILL_SUBSCRIBER = "kill_subscriber"  # subscriber down; attempt fails
FAULT_DROP_ACK = "drop_ack"      # delivered, but the ack never lands
FAULT_DUP_DELIVER = "dup_deliver"  # the channel duplicates a delivery

POINT_FAULTS = (FAULT_ERROR, FAULT_TIMEOUT, FAULT_RESET, FAULT_CORRUPT)
WINDOW_FAULTS = (FAULT_BROWNOUT, FAULT_STORM)
ENGINE_FAULTS = (FAULT_KILL_WORKER, FAULT_HANG_TASK)
SERVE_FAULTS = (FAULT_SLOW,)
SHARD_FAULTS = (FAULT_KILL_SHARD, FAULT_PARTITION_SHARD, FAULT_SLOW_REPLICA)
INGEST_FAULTS = (FAULT_KILL_INGEST, FAULT_LEASE_EXPIRY)
ALERT_FAULTS = (FAULT_KILL_SUBSCRIBER, FAULT_DROP_ACK, FAULT_DUP_DELIVER)

#: spec families: each is a public list attribute of a FaultSchedule,
#: consumed by its own tier's hook — ``specs`` by SimServer
#: (:meth:`~FaultSchedule.fault_at`), ``engine_specs`` by the task
#: supervisor, ``serve_specs`` / ``shard_specs`` by the query tier,
#: ``ingest_specs`` by the continuous scheduler at ledger protocol steps
#: and ``alert_specs`` by the delivery outbox at delivery-attempt steps
FAMILIES = (("specs", WINDOW_FAULTS + POINT_FAULTS),
            ("engine_specs", ENGINE_FAULTS),
            ("serve_specs", SERVE_FAULTS),
            ("shard_specs", SHARD_FAULTS),
            ("ingest_specs", INGEST_FAULTS),
            ("alert_specs", ALERT_FAULTS))
_FAMILY_OF = {kind: family for family, kinds in FAMILIES for kind in kinds}

#: ``--fault-profile`` name → the presets it layers (each at intensity 1)
PROFILES: Dict[str, Tuple[str, ...]] = {
    "none": (),
    "flaky": ("flaky",),
    "chaos": ("chaos",),
    "chaos-engine": ("chaos", "engine_chaos"),
    "serve-chaos": ("serve_chaos",),
    "serve-shard-chaos": ("serve_shard_chaos",),
    "chaos-ingest": ("ingest_chaos",),
    "alert-chaos": ("alert_chaos",),
}


def _intensity(intensity: float) -> float:
    """A preset's intensity multiplier, checked."""
    if intensity < 0:
        raise ValueError(f"intensity must be >= 0, got {intensity}")
    return intensity


@dataclass(frozen=True)
class FaultPlan:
    """Inject a transient error with probability ``p_error`` per request."""

    p_error: float = 0.0
    seed: int = 0

    @classmethod
    def none(cls) -> "FaultPlan":
        return cls(0.0)

    @classmethod
    def flaky(cls, p_error: float = 0.02, seed: int = 0) -> "FaultPlan":
        if not 0.0 <= p_error < 1.0:
            raise ValueError(f"p_error must be in [0, 1), got {p_error}")
        return cls(p_error, seed)

    def inject(self, request_index: int) -> Optional["Response"]:
        from repro.net.http import Response  # local import: avoid cycle
        if self.p_error <= 0.0:
            return None
        fraction = (derive_seed(self.seed, str(request_index)) % 100_000) / 100_000
        if fraction < self.p_error:
            status = 503 if fraction < self.p_error / 2 else 500
            return Response.error(status, "simulated transient failure")
        return None


@dataclass(frozen=True)
class FaultSpec:
    """One fault mode within a :class:`FaultSchedule`.

    ``rate`` is the per-request probability for point faults, or the
    per-request probability that a *window starts* for window faults.
    ``duration`` is seconds: the hang length for timeouts, the
    ``Retry-After`` value for brownouts and storms. ``span`` is how many
    consecutive requests a window covers.
    """

    kind: str
    rate: float
    duration: float = 0.0
    span: int = 0

    def __post_init__(self):
        if self.kind not in _FAMILY_OF:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"rate must be in [0, 1), got {self.rate}")
        if self.kind in WINDOW_FAULTS + SHARD_FAULTS and self.span < 1:
            raise ValueError(f"{self.kind} needs span >= 1")
        if self.kind in (FAULT_HANG_TASK, FAULT_SLOW,
                         FAULT_SLOW_REPLICA) and self.duration <= 0:
            raise ValueError(f"{self.kind} needs duration > 0")


class FaultSchedule:
    """A composable, seed-deterministic schedule over fault modes.

    Specs are checked in order; the first mode that claims a request
    index wins, window faults before point faults (a brownout dominates
    everything else during its window). The schedule plugs into
    :class:`~repro.net.http.SimServer` through two hooks:

    * :meth:`inject` — called before dispatch; may replace the whole
      exchange with an error/timeout/reset response;
    * :meth:`corrupt` — called after a successful dispatch; may truncate
      the response payload mid-JSON.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0):
        # one list attribute per family (``specs``, ``engine_specs`` …,
        # see FAMILIES), each in declaration order
        for family, _ in FAMILIES:
            setattr(self, family, [])
        for spec in specs:
            getattr(self, _FAMILY_OF[spec.kind]).append(spec)
        self.seed = seed
        #: deterministic windows forced by a test/benchmark regardless of
        #: the probabilistic schedule: (start, end, spec) half-open ranges
        self.forced_windows: List[tuple] = []
        #: one-shot forced ingest kills: (unit_id, state) pairs armed by
        #: the chaos drill; consumed the first time the scheduler reaches
        #: that exact ledger state (a resumed run sails past it, the way
        #: a real SIGKILL doesn't repeat after a restart)
        self.forced_ingest_kills: List[tuple] = []
        #: per window spec, the index range already start-hashed — see
        #: :meth:`_window_active`
        self._window_memo: Dict[FaultSpec, tuple] = {}
        order = {k: i for i, k in enumerate(WINDOW_FAULTS + POINT_FAULTS)}
        self.specs.sort(key=lambda s: order[s.kind])

    # ------------------------------------------------------------ construction
    @classmethod
    def none(cls) -> "FaultSchedule":
        return cls((), 0)

    @classmethod
    def flaky(cls, p_error: float = 0.02, seed: int = 0) -> "FaultSchedule":
        """The legacy single-mode plan, as a schedule."""
        return cls([FaultSpec(FAULT_ERROR, p_error)], seed)

    @classmethod
    def chaos(cls, intensity: float = 1.0, seed: int = 0) -> "FaultSchedule":
        """All six modes at an aggregate rate of ~``0.06 * intensity``."""
        s = _intensity(intensity)
        return cls([
            FaultSpec(FAULT_BROWNOUT, 0.003 * s, duration=1.5, span=3),
            FaultSpec(FAULT_STORM, 0.003 * s, duration=2.0, span=3),
            FaultSpec(FAULT_TIMEOUT, 0.010 * s, duration=45.0),
            FaultSpec(FAULT_RESET, 0.010 * s),
            FaultSpec(FAULT_CORRUPT, 0.010 * s),
            FaultSpec(FAULT_ERROR, 0.012 * s),
        ], seed)

    @classmethod
    def engine_chaos(cls, intensity: float = 1.0,
                     seed: int = 0) -> "FaultSchedule":
        """Engine-only faults: kill-worker-mid-stage and hang-task.

        These never touch the network simulation; they are consumed by
        the engine's task supervisor (``SparkLiteContext(engine_faults=
        ...)``), which must recover lost partitions and route around
        wedged tasks without changing a single output byte.
        """
        s = _intensity(intensity)
        return cls([
            FaultSpec(FAULT_KILL_WORKER, min(0.999, 0.02 * s)),
            FaultSpec(FAULT_HANG_TASK, min(0.999, 0.03 * s), duration=0.1),
        ], seed)

    @classmethod
    def serve_chaos(cls, intensity: float = 1.0,
                    seed: int = 0) -> "FaultSchedule":
        """Request-path faults for the online query tier.

        Brownout windows make the backing store unavailable for a run of
        consecutive requests (the service must degrade to stale/summary
        answers), slow points add a latency spike that eats the request's
        deadline budget. Consumed via :meth:`serve_fault_at`, never by
        :class:`~repro.net.http.SimServer`.
        """
        s = _intensity(intensity)
        return cls([
            FaultSpec(FAULT_BROWNOUT, min(0.999, 0.002 * s),
                      duration=0.5, span=25),
            FaultSpec(FAULT_SLOW, min(0.999, 0.05 * s), duration=0.05),
        ], seed)

    @classmethod
    def serve_shard_chaos(cls, intensity: float = 1.0,
                          seed: int = 0) -> "FaultSchedule":
        """Shard-tier faults for the scatter-gather serve deployment.

        ``slow_replica`` pads one deterministic replica's calls for a
        window (the coordinator should hedge to a sibling),
        ``partition_shard`` makes one shard unreachable for a window
        (queries over its keyspace go partial), and ``kill_shard`` takes
        every replica of one shard down until the autoscaler boots a
        replacement. A light ``slow`` point fault keeps the base serve
        path honest too. Consumed via :meth:`shard_faults_at` and
        :meth:`serve_fault_at`, never by SimServer.
        """
        s = _intensity(intensity)
        return cls([
            FaultSpec(FAULT_SLOW_REPLICA, min(0.999, 0.004 * s),
                      duration=0.05, span=15),
            FaultSpec(FAULT_PARTITION_SHARD, min(0.999, 0.001 * s), span=20),
            FaultSpec(FAULT_KILL_SHARD, min(0.999, 0.0003 * s), span=1),
            FaultSpec(FAULT_SLOW, min(0.999, 0.02 * s), duration=0.05),
        ], seed)

    @classmethod
    def ingest_chaos(cls, intensity: float = 1.0,
                     seed: int = 0) -> "FaultSchedule":
        """Continuous-ingest faults: process kills and lease expiries.

        ``kill_ingest`` SIGKILL-equivalents the pipeline at a ledger
        protocol step (the driver loses all in-memory state and must
        resume from the write-ahead ledger); ``lease_expiry`` simulates
        a lost heartbeat run — the worker's lease lapses mid-unit, its
        commit is fenced off, and the supervisor redelivers the unit.
        Consumed via :meth:`ingest_fault_at`, never by SimServer.
        """
        s = _intensity(intensity)
        return cls([
            FaultSpec(FAULT_KILL_INGEST, min(0.999, 0.05 * s)),
            FaultSpec(FAULT_LEASE_EXPIRY, min(0.999, 0.05 * s)),
        ], seed)

    @classmethod
    def alert_chaos(cls, intensity: float = 1.0,
                    seed: int = 0) -> "FaultSchedule":
        """Delivery-path faults for the standing-query outbox.

        ``kill_subscriber`` fails a delivery attempt outright (the
        subscriber is down; the outbox must back off and retry),
        ``drop_ack`` applies the subscriber's effect but loses the ack
        (the outbox re-delivers; dedupe by notification id must absorb
        it), and ``dup_deliver`` duplicates one attempt on the channel
        itself. A light ``kill_ingest`` keeps the producing tier honest
        too — the benchmark additionally forces one mid-run ingest kill
        at an exact ledger state. Consumed via :meth:`alert_fault_at`
        and :meth:`ingest_fault_at`, never by SimServer.
        """
        s = _intensity(intensity)
        return cls([
            FaultSpec(FAULT_KILL_SUBSCRIBER, min(0.999, 0.10 * s)),
            FaultSpec(FAULT_DROP_ACK, min(0.999, 0.08 * s)),
            FaultSpec(FAULT_DUP_DELIVER, min(0.999, 0.08 * s)),
            FaultSpec(FAULT_KILL_INGEST, min(0.999, 0.02 * s)),
        ], seed)

    @classmethod
    def from_profile(cls, profile: str, seed: int = 0) -> "FaultSchedule":
        """Resolve a named CLI profile (``--fault-profile``): the specs
        of its :data:`PROFILES` presets, in layer order."""
        if profile not in PROFILES:
            raise ValueError(f"unknown fault profile {profile!r}; "
                             f"expected one of {', '.join(PROFILES)}")
        layers = PROFILES[profile]
        if not layers:
            return cls.none()
        return cls([spec for layer in layers
                    for spec in getattr(cls, layer)(seed=seed).all_specs()],
                   seed)

    # -------------------------------------------------------------- decisions
    def _fraction(self, kind: str, request_index: int) -> float:
        return (derive_seed(self.seed, f"{kind}:{request_index}")
                % 100_000) / 100_000

    def _window_starts_at(self, spec: FaultSpec, index: int) -> bool:
        return self._fraction(spec.kind + ":start", index) < spec.rate

    def _window_active(self, spec: FaultSpec, request_index: int) -> bool:
        """Did a window of ``spec`` start within the last ``span`` indices?

        Start-hashes are stateless, so what is remembered per spec only
        saves re-hashing: ``(low, high, fired)`` says every index in
        ``[low, high]`` has been hashed and ``fired`` is the latest of
        them that started a window (0: none). Requests that arrive in
        index order extend the range by the indices not hashed yet; any
        other (the servers of one hub share a schedule but count their
        own requests) starts the range over at its own window.
        """
        start = max(1, request_index - spec.span + 1)
        low, high, fired = self._window_memo.get(spec, (1, 0, 0))
        if request_index < high or not low <= start <= high + 1:
            low, high, fired = start, start - 1, 0
        for index in range(high + 1, request_index + 1):
            if self._window_starts_at(spec, index):
                fired = index
        self._window_memo[spec] = (low, request_index, fired)
        return fired >= start

    def force_window(self, kind: str, start: int, span: int,
                     duration: float = 0.0) -> None:
        """Deterministically claim ``[start, start + span)`` for ``kind``.

        Benchmarks use this to inject a brownout *mid-run* at an exact
        request index, independent of the probabilistic schedule, so the
        robustness contract can be asserted around a known event.
        """
        if span < 1:
            raise ValueError(f"span must be >= 1, got {span}")
        spec = FaultSpec(kind, 0.0, duration=duration,
                         span=span if kind in WINDOW_FAULTS + SHARD_FAULTS
                         else 0)
        self.forced_windows.append((start, start + span, spec))

    def _forced_at(self, request_index: int) -> Optional[FaultSpec]:
        for start, end, spec in self.forced_windows:
            if start <= request_index < end:
                return spec
        return None

    def fault_at(self, request_index: int) -> Optional[FaultSpec]:
        """Which fault mode (if any) claims this request index."""
        forced = self._forced_at(request_index)
        if forced is not None:
            return forced
        for spec in self.specs:
            if spec.kind in WINDOW_FAULTS:
                if self._window_active(spec, request_index):
                    return spec
            elif self._fraction(spec.kind, request_index) < spec.rate:
                return spec
        return None

    def serve_fault_at(self, request_index: int) -> Optional[FaultSpec]:
        """Which fault (if any) claims this *serve-path* request.

        Forced windows first, then probabilistic brownout/storm windows
        (shared with the network schedule: the store browns out for
        everyone), then the serve-only point faults (latency spikes).
        """
        forced = self._forced_at(request_index)
        if forced is not None:
            return forced
        for spec in self.specs:
            if (spec.kind in WINDOW_FAULTS
                    and self._window_active(spec, request_index)):
                return spec
        for spec in self.serve_specs:
            if self._fraction(spec.kind, request_index) < spec.rate:
                return spec
        return None

    def shard_faults_at(self, request_index: int) -> List[tuple]:
        """All shard faults whose window covers this serve request.

        Returns ``(spec, window_start)`` pairs — unlike the scalar fault
        hooks, several shard faults can overlap (a replica can be slow
        while a different shard is partitioned), and the coordinator
        needs the *window start* to derive the deterministic target
        shard/replica for each one. Forced windows come first so a
        benchmark can pin a kill at an exact request index.
        """
        hits: List[tuple] = []
        for start, end, spec in self.forced_windows:
            if spec.kind in SHARD_FAULTS and start <= request_index < end:
                hits.append((spec, start))
        for spec in self.shard_specs:
            lo = max(1, request_index - spec.span + 1)
            for index in range(lo, request_index + 1):
                if self._window_starts_at(spec, index):
                    hits.append((spec, index))
                    break
        return hits

    def force_ingest_kill(self, unit_id: str, state: str) -> None:
        """Arm a one-shot kill at an exact ledger state of one unit.

        ``state`` is one of the scheduler's crash points (``pre-intent``
        / ``post-intent`` / ``mid-land`` / ``pre-commit`` /
        ``post-commit``). The chaos drill uses this to hit every ledger
        state deterministically, then resumes and asserts the landed
        bytes match an uninterrupted run.
        """
        self.forced_ingest_kills.append((unit_id, state))

    def take_forced_ingest_kill(self, unit_id: str, state: str) -> bool:
        """Consume (once) a forced kill armed for this unit and state."""
        key = (unit_id, state)
        if key in self.forced_ingest_kills:
            self.forced_ingest_kills.remove(key)
            return True
        return False

    def _first_claim(self, specs: List[FaultSpec],
                     key: str) -> Optional[FaultSpec]:
        """The first of ``specs``, in declaration order, whose dice for
        ``key`` come up."""
        for spec in specs:
            if self._fraction(spec.kind, key) < spec.rate:
                return spec
        return None

    def ingest_fault_at(self, step_key: str) -> Optional[FaultSpec]:
        """Which ingest fault (if any) claims this ledger protocol step.

        ``step_key`` is a stable identifier of one protocol step of one
        delivery attempt (unit id + crash point + lease epoch), so a
        redelivered unit rolls new dice — a probabilistic kill cannot
        pin one unit forever.
        """
        return self._first_claim(self.ingest_specs, step_key)

    def alert_fault_at(self, step_key: str) -> Optional[FaultSpec]:
        """Which alert fault (if any) claims this delivery attempt.

        ``step_key`` is a stable identifier of one attempt of one
        notification at one subscriber (notification id + subscriber +
        attempt ordinal), so a retried delivery rolls new dice — a
        probabilistic subscriber kill cannot wedge one notification
        forever.
        """
        return self._first_claim(self.alert_specs, step_key)

    def engine_fault_at(self, task_key: str) -> Optional[FaultSpec]:
        """Which engine fault (if any) claims this partition task.

        ``task_key`` is a stable per-context identifier (job serial +
        stage ordinal + partition index), so the same program replayed
        with the same seed loses the same executors at the same points.
        """
        return self._first_claim(self.engine_specs, task_key)

    @property
    def aggregate_rate(self) -> float:
        """Expected fraction of requests hit by some fault."""
        total = 0.0
        for spec in self.specs:
            if spec.kind in WINDOW_FAULTS:
                total += spec.rate * spec.span
            else:
                total += spec.rate
        return min(1.0, total)

    def all_specs(self) -> Iterator[FaultSpec]:
        """Every spec, family by family (see :data:`FAMILIES`)."""
        for family, _ in FAMILIES:
            yield from getattr(self, family)

    @property
    def kinds(self) -> List[str]:
        return sorted({spec.kind for spec in self.all_specs()})

    # ------------------------------------------------------------- injection
    def inject(self, request_index: int) -> Optional["Response"]:
        """Pre-dispatch hook: replace the exchange with a failure."""
        from repro.net.http import (Response, STATUS_RESET, STATUS_TIMEOUT)
        spec = self.fault_at(request_index)
        if spec is None or spec.kind == FAULT_CORRUPT:
            return None
        if spec.kind == FAULT_ERROR:
            secondary = self._fraction("error:status", request_index)
            status = 503 if secondary < 0.5 else 500
            return Response.error(status, "simulated transient failure")
        if spec.kind == FAULT_TIMEOUT:
            response = Response.error(STATUS_TIMEOUT,
                                      "simulated client-side timeout")
            response.headers["X-Fault-Hang-S"] = f"{spec.duration:.3f}"
            return response
        if spec.kind == FAULT_RESET:
            return Response.error(STATUS_RESET, "connection reset by peer")
        if spec.kind == FAULT_BROWNOUT:
            return Response.error(503, "service brownout",
                                  retry_after=spec.duration)
        if spec.kind == FAULT_STORM:
            return Response.error(429, "rate limit storm",
                                  retry_after=spec.duration)
        raise AssertionError(spec.kind)  # pragma: no cover

    def corrupt(self, request_index: int, response: "Response") -> "Response":
        """Post-dispatch hook: truncate a successful JSON payload."""
        from repro.net.http import CorruptPayload, Response
        if not response.ok or isinstance(response.body, CorruptPayload):
            return response
        spec = self.fault_at(request_index)
        if spec is None or spec.kind != FAULT_CORRUPT:
            return response
        encoded = json.dumps(response.body)
        cut_fraction = self._fraction("corrupt:cut", request_index)
        cut = max(0, int(len(encoded) * (0.2 + 0.6 * cut_fraction)) - 1)
        mangled = Response(status=response.status,
                           body=CorruptPayload(encoded[:cut]),
                           headers=dict(response.headers))
        mangled.headers["X-Fault"] = FAULT_CORRUPT
        return mangled
