"""Write-ahead ingest ledger: intent/commit records + per-unit leases.

The continuous crawl is organized as *work units* (advance the world a
day, expand a frontier slice, capture a snapshot, refresh the derived
datasets). The ledger is the only durable truth about them:

* **intent record** — appended *before* a unit's side effects start;
  its payload pins every input the unit needs (frontier slice, delta
  range), so a redelivered unit re-executes the same work even though
  the in-memory scheduler that planned it died;
* **commit record** — appended after the unit's effects landed; its
  payload carries the results the next incarnation of the scheduler
  replays to rebuild in-memory state (tracked sets, frontier queues);
* a unit with an intent but no commit is *pending*: crashed mid-flight,
  and must be redelivered — its landing is idempotent by design.

The records are a :class:`~repro.durable.EventLog` (recovered on
:meth:`IngestLedger.open`, which first sweeps orphaned atomic-write
temps) and the leases a :class:`~repro.durable.LeaseTable`: a unit runs
only under a live lease, and a commit from an owner whose lease was
handed on under a higher *epoch* is fenced off (:class:`LeaseExpired`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dfs.filesystem import MiniDfs
from repro.durable import EventLog, LeaseTable
from repro.util.clock import Clock
from repro.util.errors import IngestError, LeaseExpired

REC_INTENT = "intent"
REC_COMMIT = "commit"

STATE_PENDING = "pending"      # never seen
STATE_INTENT = "intent"        # intent appended, no commit — redeliver
STATE_COMMITTED = "committed"  # effects durable; never re-execute


@dataclass
class LedgerRecord:
    """One appended intent or commit."""

    seq: int
    type: str
    unit: str
    at: float
    payload: Dict = field(default_factory=dict)


class IngestLedger:
    """The durable heart of the continuous-ingest tier."""

    def __init__(self, dfs: MiniDfs, clock: Clock,
                 root: str = "/crawl/ledger", lease_ttl_s: float = 300.0):
        self.dfs = dfs
        self.clock = clock
        self.root = root.rstrip("/")
        self.leases = LeaseTable(dfs, clock, f"{self.root}/leases",
                                 lease_ttl_s)
        self._log = EventLog(dfs, f"{self.root}/records",
                             reset=self._reset, fold=self._fold)
        self._reset(None)
        self._opened = False
        #: temp files reclaimed by the crash sweep on open
        self.swept_temps = 0
        #: lifetime fencing rejections (stale-epoch commits refused)
        self.fenced_commits = 0

    # ---------------------------------------------------------------- open
    def open(self) -> "IngestLedger":
        """Recover ledger state from storage (crash-safe entry point)."""
        self.swept_temps = len(self.dfs.sweep_temps(self.root))
        self._log.refresh()
        self._opened = True
        return self

    def _check_open(self) -> None:
        if not self._opened:
            raise IngestError("ledger must be open()ed before use")

    def _reset(self, _state: Optional[Dict]) -> None:
        self._records: List[LedgerRecord] = []
        self._intents: Dict[str, LedgerRecord] = {}
        self._commits: Dict[str, LedgerRecord] = {}
        #: units with an intent and no commit, in intent order
        self._pending: Dict[str, None] = {}

    def _fold(self, doc: Dict) -> None:
        record = LedgerRecord(**doc)
        self._records.append(record)
        if record.type == REC_INTENT:
            self._intents.setdefault(record.unit, record)
            if record.unit not in self._commits:
                self._pending[record.unit] = None
        else:
            self._commits.setdefault(record.unit, record)
            self._pending.pop(record.unit, None)

    # -------------------------------------------------------------- records
    def _append(self, rec_type: str, unit: str,
                payload: Optional[Dict]) -> LedgerRecord:
        self._log.append({"type": rec_type, "unit": unit,
                          "at": self.clock.now(),
                          "payload": dict(payload or {})})
        return self._records[-1]

    def begin(self, unit: str,
              payload: Optional[Dict] = None) -> LedgerRecord:
        """Append the intent for ``unit`` (idempotent: a redelivered
        unit gets its original intent back, payload and all — the
        inputs it pinned are the inputs the retry must use)."""
        self._check_open()
        self._log.refresh()
        if unit in self._commits:
            raise IngestError(f"unit {unit} already committed")
        existing = self._intents.get(unit)
        if existing is not None:
            return existing
        return self._append(REC_INTENT, unit, payload)

    def commit(self, unit: str, payload: Optional[Dict] = None,
               owner: Optional[str] = None,
               epoch: Optional[int] = None) -> LedgerRecord:
        """Append the commit for ``unit``; idempotent per unit.

        When ``owner``/``epoch`` are given the commit is *fenced*: it is
        refused (:class:`LeaseExpired`) unless that owner still holds a
        live lease at that epoch — a worker whose lease was reclaimed
        cannot retroactively commit work the supervisor already
        redelivered.
        """
        self._check_open()
        self._log.refresh()
        if unit not in self._intents:
            raise IngestError(f"unit {unit} has no intent to commit")
        existing = self._commits.get(unit)
        if existing is not None:
            return existing
        if owner is not None and not self.leases.holds(unit, owner, epoch):
            self.fenced_commits += 1
            raise LeaseExpired(
                f"commit of {unit} fenced: {owner} no longer holds a "
                f"live lease")
        return self._append(REC_COMMIT, unit, payload)

    # -------------------------------------------------------------- queries
    def state(self, unit: str) -> str:
        self._check_open()
        if unit in self._commits:
            return STATE_COMMITTED
        if unit in self._intents:
            return STATE_INTENT
        return STATE_PENDING

    def intent_of(self, unit: str) -> Optional[LedgerRecord]:
        return self._intents.get(unit)

    def pending_units(self) -> List[str]:
        """Units with an intent but no commit, in intent-seq order —
        the redelivery queue after a crash."""
        self._check_open()
        return list(self._pending)

    def records(self) -> List[LedgerRecord]:
        """All records in seq order (intents and commits interleaved) —
        full-fidelity replay for schedulers that track claimed inputs."""
        self._check_open()
        return list(self._records)

    @property
    def max_seq(self) -> int:
        return self._log.seq

    # ------------------------------------------------------------ supervision
    def reclaim_expired(self) -> List[str]:
        """Uncommitted units whose lease lapsed: redeliver them."""
        self._check_open()
        return self.leases.reclaim(self._commits)

    def gc_leases(self) -> int:
        """Drop the leases of committed units (a re-commit returns the
        existing record before any lease check); returns how many."""
        self._check_open()
        return self.leases.gc(self._commits)
