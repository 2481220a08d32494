"""Span tracer for the e2e benchmark.

The benchmark records spans from its own files: it wraps the public
function at each layer boundary (``ApiClient.request``,
``MiniDfs.read``, ``RDD.collect`` ...) for the length of one traced
pass and restores the original afterwards. Nothing inside ``src/repro``
knows it is being traced.

Two kinds of wrapper share one per-thread frame stack:

* **span** wrappers keep one record per call — ``(id, parent id, name,
  start, end)``, all under the tracer's run id — in memory, written out
  when the run ends;
* **sampled** wrappers, for functions called 10^5..10^6 times, count
  every call but time one in N, and keep totals only (calls, busy
  seconds, self seconds). Timing each of 4 million calls made the
  traced pipeline 28% slower than the untraced one; sampled it is a
  few percent.

Self time is a call's duration minus the part of it covered by wrapped
calls it caused. The driver thread is timed on the wall clock. Engine
worker threads are timed in *thread CPU seconds*: four GIL-bound
workers each see the others' turns as wall time, so their wall
durations sum to several times the truth, while CPU seconds add up. A
span on the driver thread also subtracts the CPU its worker threads
spent in wrapped calls while it was open — that is what makes "engine
self time" exclude the JSON decode running inside engine tasks.
"""

from __future__ import annotations

import itertools
import sys
import threading
from time import perf_counter, thread_time
from typing import Any, Callable, Dict, List, Optional, Tuple


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """``with tracer.span(name):`` around a call the benchmark makes."""

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        self._token = self._tracer._enter(self._name)

    def __exit__(self, *exc_info: Any) -> None:
        self._tracer._exit(self._token)


class Tracer:
    """Collects spans and per-name totals for one traced pass.

    A disabled tracer (``Tracer(enabled=False)``) hands out no-op spans
    and patches nothing, so workload code is written once.
    """

    def __init__(self, run_id: str = "", enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        #: (span id, parent id, name, start, end) on the wall clock
        self.spans: List[Tuple[int, int, str, float, float]] = []
        #: names whose patch target no longer exists in the program
        self.absent: List[str] = []
        #: thread ident -> [frame stack, root busy seconds, inside an
        #: untimed sampled call]; a frame is [child busy s, span id,
        #: worker-thread CPU s claimed inside, sampling weight (0 = span)]
        self._states: Dict[int, list] = {}
        #: name -> thread ident -> [calls, busy s, self s, units]
        self._cells: Dict[str, Dict[int, list]] = {}
        self._patched: List[Tuple[Any, str, Any]] = []
        self._main = threading.get_ident()
        self._ids = itertools.count(1)

    # ------------------------------------------------------------ recording
    def span(self, name: str) -> Any:
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def _foreign_busy(self) -> float:
        """CPU seconds worker threads have spent in root wrapped calls."""
        main = self._main
        return sum(state[1] for ident, state in list(self._states.items())
                   if ident != main)

    def _enter(self, name: str) -> tuple:
        ident = threading.get_ident()
        state = self._states.get(ident)
        if state is None:
            state = self._states[ident] = [[], 0.0, False]
        stack = state[0]
        on_main = ident == self._main
        span_id = next(self._ids)
        parent = stack[-1][1] if stack else 0
        frame = [0.0, span_id, 0.0, 0]
        stack.append(frame)
        foreign = self._foreign_busy() if on_main else 0.0
        wall = perf_counter()
        start = wall if on_main else thread_time()
        return name, ident, state, frame, parent, foreign, wall, start

    def _exit(self, token: tuple) -> float:
        name, ident, state, frame, parent, foreign, wall, start = token
        on_main = ident == self._main
        end_wall = perf_counter()
        dur = (end_wall if on_main else thread_time()) - start
        stack = state[0]
        stack.pop()
        child = frame[0]
        if on_main:
            # worker-thread CPU spent while this span was open, less
            # what spans inside it already claimed
            foreign = self._foreign_busy() - foreign
            child += foreign - frame[2]
        cell = self._cell(name, ident)
        cell[0] += 1
        cell[1] += dur
        cell[2] += max(0.0, dur - child)
        if stack:
            stack[-1][0] += dur
            if on_main:
                stack[-1][2] += foreign
        elif not on_main:
            state[1] += dur
        self.spans.append((frame[1], parent, name, wall, end_wall))
        return dur

    def _cell(self, name: str, ident: int) -> list:
        cells = self._cells.get(name)
        if cells is None:
            cells = self._cells.setdefault(name, {})
        cell = cells.get(ident)
        if cell is None:
            cell = cells[ident] = [0, 0.0, 0.0, 0]
        return cell

    def _span_wrapper(self, name: str, fn: Callable,
                      units: Optional[Callable[[Any], int]]) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(token)
            if units is not None:
                self._cell(name, token[1])[3] += units(result)
            return result
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _sampled_wrapper(self, name: str, fn: Callable, every: int,
                         units: Optional[Callable[[Any], int]]) -> Callable:
        """Totals only. Every call is counted; one call in ``every`` is
        timed and stands for the rest (its seconds are multiplied by
        ``every``), so an untimed call costs a few hundred nanoseconds.

        The sampling decision belongs to the outermost sampled call on
        the thread: wrapped calls inside a timed one are timed with the
        same weight and those inside an untimed one are not, which
        keeps "request minus handle" an unbiased difference.
        """
        states = self._states
        cells = self._cells.setdefault(name, {})
        main = self._main
        get_ident = threading.get_ident
        # nearly every call is on the driver thread: keep its records
        # at hand instead of looking them up per call
        main_state = states.setdefault(main, [[], 0.0, False])
        main_cell = cells.setdefault(main, [0, 0.0, 0.0, 0])

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            ident = get_ident()
            if ident == main:
                state, cell = main_state, main_cell
            else:
                state = states.get(ident)
                if state is None:
                    state = states[ident] = [[], 0.0, False]
                cell = cells.get(ident)
                if cell is None:
                    cell = cells[ident] = [0, 0.0, 0.0, 0]
            calls = cell[0] = cell[0] + 1
            stack = state[0]
            weight = stack[-1][3] if stack else 0
            if state[2]:
                # inside an untimed call: untimed as well
                result = fn(*args, **kwargs)
            elif not weight and calls % every:
                # not this call's turn
                state[2] = True
                try:
                    result = fn(*args, **kwargs)
                finally:
                    state[2] = False
            else:
                weight = weight or every
                clock = perf_counter if ident == main else thread_time
                frame = [0.0, stack[-1][1] if stack else 0, 0.0, weight]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = (clock() - start) * weight
                    stack.pop()
                    cell[1] += dur
                    cell[2] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur
                        stack[-1][2] += frame[2]
                    elif ident != main:
                        state[1] += dur
            if units is not None:
                cell[3] += units(result)
            return result
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -------------------------------------------------------------- patching
    def patch(self, owner: Any, attr: str, name: str,
              sample: Optional[int] = None,
              units: Optional[Callable[[Any], int]] = None) -> None:
        """Trace ``owner.attr`` (a class's method or a module's function)
        under ``name``: one span per call, or with ``sample=N`` totals
        only with one call in N timed (``sample=1`` times them all).
        ``units(result)`` adds to the name's unit count on every call.

        A target the program no longer has is noted in :attr:`absent`
        and skipped, so a refactor does not break the benchmark — its
        metrics just read zero.

        A module-level function is also rebound in every loaded
        ``repro`` module that imported it by name.
        """
        if not self.enabled:
            return
        namespace = getattr(owner, "__dict__", {})
        original = namespace.get(attr)
        if original is None or not callable(original):
            self.absent.append(name)
            return
        if sample is None:
            wrapper = self._span_wrapper(name, original, units)
        else:
            wrapper = self._sampled_wrapper(name, original, sample, units)
        holders = [owner]
        if isinstance(owner, type(sys)):
            holders += [mod for mod_name, mod in list(sys.modules.items())
                        if mod is not owner and mod_name.startswith("repro")
                        and getattr(mod, "__dict__", {}).get(attr)
                        is original]
        for holder in holders:
            setattr(holder, attr, wrapper)
            self._patched.append((holder, attr, original))

    def unpatch_all(self) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    # --------------------------------------------------------------- reading
    def total(self, name: str) -> Tuple[int, float, float, int]:
        """(calls, busy s, self s, units) of ``name`` over all threads.

        ``busy`` double-counts a name that calls itself; use
        :meth:`outermost_busy` for those.
        """
        calls, busy, self_s, units = 0, 0.0, 0.0, 0
        for cell in self._cells.get(name, {}).values():
            calls += cell[0]
            busy += cell[1]
            self_s += cell[2]
            units += cell[3]
        return calls, busy, self_s, units

    def calls(self, name: str) -> int:
        return self.total(name)[0]

    def busy(self, name: str) -> float:
        return self.total(name)[1]

    def self_s(self, name: str) -> float:
        return self.total(name)[2]

    def units(self, name: str) -> int:
        return self.total(name)[3]

    def outermost_busy(self, name: str) -> float:
        """Wall seconds covered by spans of ``name`` that are not inside
        another span of the same name (RDD actions call each other)."""
        by_id = {span[0]: span for span in self.spans}
        total = 0.0
        for span_id, parent, span_name, start, end in self.spans:
            if span_name != name:
                continue
            while parent:
                up = by_id.get(parent)
                if up is None:
                    parent = 0
                elif up[2] == name:
                    break
                else:
                    parent = up[1]
            if not parent:
                total += end - start
        return total

    def dump(self) -> Dict[str, Any]:
        """Everything recorded, JSON-able (written to ``out/`` at exit)."""
        return {
            "run_id": self.run_id,
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [list(span) for span in self.spans],
            "totals": {name: dict(zip(("calls", "busy_s", "self_s", "units"),
                                      self.total(name)))
                       for name in sorted(self._cells)},
            "absent": sorted(self.absent),
        }
