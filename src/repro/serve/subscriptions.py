"""Durable standing-query subscriptions: a MiniDfs-persisted registry.

The batch tier answers "who invested in my community?" when asked; the
standing-query tier answers it the moment the ingest pipeline lands the
edge. A *subscription* is a tenant-scoped predicate over the derived
edge streams:

``community_investor``   fire when a new investment lands whose
                         investor belongs to community ``key``;
``company_funding``      fire when a funding (investment) edge lands
                         for company ``key``;
``neighborhood_follow``  fire when a follow edge lands whose target is
                         user ``key`` or one of the users ``key``
                         already follows (the 1-hop neighborhood).

The registry is an append-only :class:`~repro.durable.EventLog` — one
record per lifecycle event (register / pause / resume / cancel), the
kernel the ingest ledger also keeps its records in. Nothing about a
subscription lives only in memory: a crashed process rebuilds the
registry byte-identically by replaying the log. Ids are deterministic
(``sub-000001`` in registration order), so a same-seed rerun mints the
same ids and the downstream notification ids — keyed by (subscription,
unit, entity) — reproduce bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dfs.filesystem import MiniDfs
from repro.durable import EventLog
from repro.util.errors import ConfigError

#: predicate kinds a subscription can watch
KIND_COMMUNITY_INVESTOR = "community_investor"
KIND_COMPANY_FUNDING = "company_funding"
KIND_NEIGHBORHOOD_FOLLOW = "neighborhood_follow"
SUBSCRIPTION_KINDS = (KIND_COMMUNITY_INVESTOR, KIND_COMPANY_FUNDING,
                      KIND_NEIGHBORHOOD_FOLLOW)

#: lifecycle states
STATE_ACTIVE = "active"
STATE_PAUSED = "paused"
STATE_CANCELLED = "cancelled"

_OP_REGISTER = "register"
_OP_PAUSE = "pause"
_OP_RESUME = "resume"
_OP_CANCEL = "cancel"


@dataclass
class Subscription:
    """One standing query and its lifecycle state."""

    sub_id: str
    tenant: str
    kind: str
    key: int
    subscriber_id: str
    state: str = STATE_ACTIVE

    @property
    def active(self) -> bool:
        return self.state == STATE_ACTIVE

    def as_dict(self) -> Dict:
        return {"sub_id": self.sub_id, "tenant": self.tenant,
                "kind": self.kind, "key": self.key,
                "subscriber_id": self.subscriber_id, "state": self.state}


class SubscriptionRegistry:
    """MiniDfs-persisted subscription store, rebuilt by log replay."""

    def __init__(self, dfs: MiniDfs, root: str = "/serve/subscriptions"):
        self.dfs = dfs
        self.root = root.rstrip("/")
        self._log = EventLog(dfs, f"{self.root}/events", reset=self._reset,
                             fold=self._apply)
        self._reset(None)
        self._opened = False
        #: bumped on every applied event; index builders use it to know
        #: when their compiled predicate index went stale
        self.version = 0

    # ---------------------------------------------------------------- open
    def open(self) -> "SubscriptionRegistry":
        """Recover the registry by replaying the event log in order."""
        self.dfs.sweep_temps(self.root)
        self._log.refresh()
        self._opened = True
        return self

    def _check_open(self) -> None:
        """Refuse an unopened registry; fold what other handles wrote."""
        if not self._opened:
            raise ConfigError("registry must be open()ed before use")
        self._log.refresh()

    # -------------------------------------------------------------- events
    def _reset(self, _state: Optional[Dict]) -> None:
        self._subs: Dict[str, Subscription] = {}
        self._next_sub = 1

    def _apply(self, event: Dict) -> None:
        op = event["op"]
        if op == _OP_REGISTER:
            sub = Subscription(
                sub_id=event["sub_id"], tenant=event["tenant"],
                kind=event["kind"], key=int(event["key"]),
                subscriber_id=event["subscriber_id"])
            self._subs[sub.sub_id] = sub
            ordinal = int(sub.sub_id.split("-")[1])
            self._next_sub = max(self._next_sub, ordinal + 1)
        elif op == _OP_PAUSE:
            self._subs[event["sub_id"]].state = STATE_PAUSED
        elif op == _OP_RESUME:
            self._subs[event["sub_id"]].state = STATE_ACTIVE
        elif op == _OP_CANCEL:
            self._subs[event["sub_id"]].state = STATE_CANCELLED
        else:  # pragma: no cover - log corruption guard
            raise ConfigError(f"unknown subscription event op {op!r}")
        self.version += 1

    # ------------------------------------------------------------ lifecycle
    def register(self, tenant: str, kind: str, key: int,
                 subscriber_id: Optional[str] = None) -> Subscription:
        """Create a standing query; durable before this returns."""
        self._check_open()
        if kind not in SUBSCRIPTION_KINDS:
            raise ConfigError(f"unknown subscription kind {kind!r}; "
                              f"expected one of {SUBSCRIPTION_KINDS}")
        if not tenant:
            raise ConfigError("tenant must be non-empty")
        sub_id = f"sub-{self._next_sub:06d}"
        self._log.append({"op": _OP_REGISTER, "sub_id": sub_id,
                          "tenant": tenant, "kind": kind, "key": int(key),
                          "subscriber_id": (subscriber_id
                                            or f"{tenant}:default")})
        return self._subs[sub_id]

    def _transition(self, sub_id: str, op: str, allowed: tuple) -> None:
        self._check_open()
        sub = self._subs.get(sub_id)
        if sub is None:
            raise ConfigError(f"unknown subscription {sub_id!r}")
        if sub.state == STATE_CANCELLED:
            raise ConfigError(f"{sub_id} is cancelled (terminal)")
        if sub.state not in allowed:
            raise ConfigError(
                f"cannot {op} {sub_id} in state {sub.state!r}")
        self._log.append({"op": op, "sub_id": sub_id})

    def pause(self, sub_id: str) -> None:
        self._transition(sub_id, _OP_PAUSE, (STATE_ACTIVE,))

    def resume(self, sub_id: str) -> None:
        self._transition(sub_id, _OP_RESUME, (STATE_PAUSED,))

    def cancel(self, sub_id: str) -> None:
        self._transition(sub_id, _OP_CANCEL, (STATE_ACTIVE, STATE_PAUSED))

    # ------------------------------------------------------------ inspection
    def get(self, sub_id: str) -> Optional[Subscription]:
        return self._subs.get(sub_id)

    def all(self) -> List[Subscription]:
        return [self._subs[s] for s in sorted(self._subs)]

    def active(self) -> List[Subscription]:
        return [s for s in self.all() if s.active]

    def __len__(self) -> int:
        return len(self._subs)
