"""Community dynamics over time (§7).

"We also plan to understand the dynamics in terms of formation or
disbanding of community clusters over time."

Investment edges carry day stamps, so the investment graph can be
replayed cumulatively: detect communities on each growing prefix and
match consecutive covers by Jaccard similarity. Each community then has
a lifecycle:

* **born** — no sufficiently similar community in the previous window;
* **continued** — matched one-to-one (possibly grown or shrunk);
* **merged** — two or more previous communities map onto it;
* **split** — it is the best match of a previous community that also
  maps onto another current one;
* **dissolved** — a previous community with no current match.

The tracker is detector-agnostic: any callable producing
``{community_id: set(investors)}`` from a :class:`BipartiteGraph` works
(CoDA by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.graph.bipartite import BipartiteGraph
from repro.world.entities import Investment

Cover = Dict[int, Set[int]]
Detector = Callable[[BipartiteGraph], Cover]


@dataclass
class WindowSnapshot:
    """Communities detected on one cumulative prefix of the edge stream."""

    window_index: int
    up_to_day: int
    num_edges: int
    communities: Cover


@dataclass
class LifecycleEvent:
    """One community's fate between consecutive windows."""

    window_index: int                 # the *later* window
    kind: str                         # born/continued/merged/split/dissolved
    community_id: Optional[int]       # id in the later window (None: dissolved)
    previous_ids: List[int] = field(default_factory=list)
    jaccard: float = 0.0


@dataclass
class DynamicsReport:
    """Full lifecycle history across all windows."""

    snapshots: List[WindowSnapshot]
    events: List[LifecycleEvent]

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for event in self.events:
            tally[event.kind] = tally.get(event.kind, 0) + 1
        return tally


def default_coda_detector(num_communities: int, min_investments: int = 4,
                          max_iters: int = 25, seed: int = 0) -> Detector:
    """A CoDA-based detector suitable for :func:`track_communities`."""
    from repro.community.coda import CoDA

    def detect(graph: BipartiteGraph) -> Cover:
        filtered = graph.filter_investors(min_investments)
        if filtered.num_investors < 4:
            return {}
        result = CoDA(num_communities=num_communities, max_iters=max_iters,
                      seed=seed).fit(filtered)
        return dict(result.investor_communities)
    return detect


def track_communities(investments: Sequence[Investment],
                      num_windows: int,
                      detector: Detector,
                      match_threshold: float = 0.3) -> DynamicsReport:
    """Replay investments in ``num_windows`` cumulative slices and track
    community lifecycles between consecutive windows."""
    if num_windows < 1:
        raise ValueError("num_windows must be >= 1")
    if not investments:
        raise ValueError("no investments to replay")
    ordered = sorted(investments, key=lambda inv: inv.day)
    last_day = ordered[-1].day
    first_day = ordered[0].day
    span = max(1, last_day - first_day + 1)

    snapshots: List[WindowSnapshot] = []
    events: List[LifecycleEvent] = []
    previous: Optional[WindowSnapshot] = None

    for window in range(num_windows):
        cutoff = first_day + (window + 1) * span // num_windows
        prefix = [inv for inv in ordered if inv.day <= cutoff]
        graph = BipartiteGraph(
            (inv.investor_id, inv.company_id) for inv in prefix)
        snapshot = WindowSnapshot(
            window_index=window, up_to_day=cutoff,
            num_edges=graph.num_edges, communities=detector(graph))
        if previous is not None:
            events.extend(_match_windows(previous, snapshot,
                                         match_threshold))
        snapshots.append(snapshot)
        previous = snapshot
    return DynamicsReport(snapshots=snapshots, events=events)


def _jaccard(a: Set[int], b: Set[int]) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def _overlap(a: Set[int], b: Set[int]) -> float:
    """Overlap coefficient |a∩b| / min(|a|,|b|).

    Cumulative windows only ever *add* members, so Jaccard similarity
    systematically punishes healthy growth; the overlap coefficient
    recognizes a community that kept its core while expanding.
    """
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


def _match_windows(earlier: WindowSnapshot, later: WindowSnapshot,
                   threshold: float) -> List[LifecycleEvent]:
    """Classify every community of ``later`` (and dissolved ones)."""
    events: List[LifecycleEvent] = []
    window = later.window_index

    # For each previous community, its best current match (if any).
    forward: Dict[int, Tuple[Optional[int], float]] = {}
    for prev_id, prev_members in earlier.communities.items():
        best_id, best_score = None, 0.0
        for cur_id, cur_members in later.communities.items():
            score = _overlap(prev_members, cur_members)
            if score > best_score:
                best_id, best_score = cur_id, score
        forward[prev_id] = (best_id if best_score >= threshold else None,
                            best_score)

    incoming: Dict[int, List[int]] = {}
    for prev_id, (cur_id, _score) in forward.items():
        if cur_id is not None:
            incoming.setdefault(cur_id, []).append(prev_id)

    # How many current communities each previous one feeds (for splits).
    feeds: Dict[int, int] = {}
    for prev_id, prev_members in earlier.communities.items():
        count = sum(
            1 for cur_members in later.communities.values()
            if _overlap(prev_members, cur_members) >= threshold)
        feeds[prev_id] = count

    for cur_id, cur_members in later.communities.items():
        sources = incoming.get(cur_id, [])
        if not sources:
            events.append(LifecycleEvent(window, "born", cur_id))
        elif len(sources) > 1:
            score = max(_overlap(earlier.communities[p], cur_members)
                        for p in sources)
            events.append(LifecycleEvent(window, "merged", cur_id,
                                         sorted(sources), score))
        else:
            prev_id = sources[0]
            kind = "split" if feeds.get(prev_id, 0) > 1 else "continued"
            events.append(LifecycleEvent(
                window, kind, cur_id, [prev_id],
                _overlap(earlier.communities[prev_id], cur_members)))

    for prev_id, (cur_id, _score) in forward.items():
        if cur_id is None:
            events.append(LifecycleEvent(window, "dissolved", None,
                                         [prev_id]))
    return events
