"""Request/response types and a tiny route-dispatching server base.

Routes are template paths such as ``/1/startups/:id``; path parameters are
extracted into ``request.path_params``. Handlers return a
:class:`Response`. :class:`SimServer` applies its latency model and fault
plan around every dispatch so crawler retry logic is exercised for real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.faults import FaultPlan
from repro.net.latency import LatencyModel
from repro.util.clock import Clock, SimClock

#: non-standard statuses modelling transport-level failures: the client
#: never saw an HTTP response, only its socket giving up.
STATUS_RESET = 598    # connection reset by peer
STATUS_TIMEOUT = 599  # client-side timeout fired while the server hung

#: request header carrying the client's per-request timeout budget, so a
#: hang fault knows how long the caller actually waited before giving up.
TIMEOUT_HEADER = "X-Timeout-S"


class CorruptPayload:
    """A response body whose JSON decode failed partway through.

    The simulation passes decoded bodies around, so a truncated payload
    is modelled as this wrapper holding the raw prefix that did arrive.
    Clients must treat it as a transient failure and re-request.
    """

    __slots__ = ("raw",)

    def __init__(self, raw: str):
        self.raw = raw

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CorruptPayload {len(self.raw)} bytes>"


_UNPARSED = object()


@dataclass
class Request:
    """A simulated HTTP request."""

    method: str
    path: str
    params: Dict[str, Any] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    path_params: Dict[str, str] = field(default_factory=dict)
    _token: Any = field(default=_UNPARSED, init=False, repr=False,
                        compare=False)

    @property
    def token(self) -> Optional[str]:
        """The bearer token, from header or ``access_token`` param.

        Parsed on first use and kept: auth and throttling both ask.
        """
        token = self._token
        if token is _UNPARSED:
            auth = self.headers.get("Authorization", "")
            if auth.startswith("Bearer "):
                token = auth[len("Bearer "):]
            else:
                value = self.params.get("access_token")
                token = str(value) if value is not None else None
            self._token = token
        return token


@dataclass
class Response:
    """A simulated HTTP response carrying a decoded JSON body."""

    status: int
    body: Any = None
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @classmethod
    def json(cls, body: Any, status: int = 200) -> "Response":
        return cls(status=status, body=body)

    @classmethod
    def error(cls, status: int, message: str,
              retry_after: Optional[float] = None) -> "Response":
        headers = {}
        if retry_after is not None:
            headers["Retry-After"] = f"{retry_after:.3f}"
        return cls(status=status, body={"error": message}, headers=headers)


Handler = Callable[[Request], Response]


@dataclass
class Route:
    """A method + template-path route, e.g. ``GET /1/startups/:id``."""

    method: str
    template: str
    handler: Handler

    def __post_init__(self) -> None:
        # the template is split once, at registration: segment count,
        # then the fixed and the ``:name`` segments as (position, text)
        segments = list(enumerate(_segments(self.template)))
        self.length = len(segments)
        self._fixed = tuple((i, seg) for i, seg in segments
                            if not seg.startswith(":"))
        self._named = tuple((i, seg[1:]) for i, seg in segments
                            if seg.startswith(":"))

    def match(self, method: str, path: str) -> Optional[Dict[str, str]]:
        """Return extracted path params if this route matches, else None."""
        if method != self.method:
            return None
        parts = _segments(path)
        if len(parts) != self.length:
            return None
        return self.match_segments(parts)

    def match_segments(self, parts: Sequence[str],
                       ) -> Optional[Dict[str, str]]:
        """:meth:`match` for a path already split into ``length``
        segments (the server splits a request's path once for all its
        candidates)."""
        for i, segment in self._fixed:
            if parts[i] != segment:
                return None
        return {name: parts[i] for i, name in self._named}


def _segments(path: str) -> List[str]:
    return path.strip("/").split("/")


class SimServer:
    """Base class for the simulated API servers.

    Subclasses register routes in ``__init__`` via :meth:`route` and may
    override :meth:`authorize` (token checks) and :meth:`throttle` (rate
    limits). The dispatch order matches a real stack: fault injection,
    then auth, then throttling, then the handler.
    """

    #: human-readable name used in error messages and crawl statistics.
    name = "sim"

    def __init__(self, clock: Optional[Clock] = None,
                 latency: Optional[LatencyModel] = None,
                 faults: Any = None):
        # ``faults`` is a FaultPlan or FaultSchedule (anything exposing
        # ``inject`` and optionally ``corrupt``).
        self.clock = clock or SimClock()
        self._latency = latency or LatencyModel.zero()
        self._faults = faults or FaultPlan.none()
        self._resolve_fast_path()
        #: (method, segment count) -> routes in registration order
        self._routes: Dict[Tuple[str, int], List[Route]] = {}
        self.request_count = 0

    @property
    def latency(self) -> LatencyModel:
        return self._latency

    @latency.setter
    def latency(self, model: LatencyModel) -> None:
        self._latency = model
        self._resolve_fast_path()

    @property
    def faults(self) -> Any:
        return self._faults

    @faults.setter
    def faults(self, plan: Any) -> None:
        self._faults = plan
        self._resolve_fast_path()

    def _resolve_fast_path(self) -> None:
        """Decide once what :meth:`handle` would otherwise re-derive per
        request. Only the two frozen built-in models are trusted to stay
        as they are: a :class:`FaultSchedule` can gain forced windows
        after the server holds it."""
        latency, faults = self._latency, self._faults
        #: the latency of every request, ``None`` when it is sampled
        self._fixed_latency: Optional[float] = (
            latency.base if type(latency) is LatencyModel
            and latency.jitter <= 0 else None)
        #: the fault plan can neither replace nor corrupt a response
        self._never_faults = (type(faults) is FaultPlan
                              and faults.p_error <= 0.0)
        self._corrupt = getattr(faults, "corrupt", None)

    def route(self, method: str, template: str, handler: Handler) -> None:
        route = Route(method, template, handler)
        self._routes.setdefault((method, route.length), []).append(route)

    # -- hooks -------------------------------------------------------------
    def authorize(self, request: Request) -> Optional[Response]:
        """Return an error response to reject the request, or None."""
        return None

    def throttle(self, request: Request) -> Optional[Response]:
        """Return a 429 response if the caller is over its rate limit."""
        return None

    # -- dispatch ----------------------------------------------------------
    def handle(self, request: Request) -> Response:
        """Dispatch a request through faults → auth → throttle → handler.

        Hang faults consume simulated time: the server sleeps the hang
        duration — capped by the client's ``X-Timeout-S`` budget, since a
        real client's socket timeout would have fired by then. Corruption
        faults mangle the payload *after* a successful dispatch, the way
        a truncated transfer looks to the caller.
        """
        self.request_count += 1
        delay = self._fixed_latency
        if delay is None:
            delay = self._latency.sample(self.request_count)
        if delay:
            self.clock.sleep(delay)
        if self._never_faults:
            return self._dispatch(request)
        fault = self._faults.inject(self.request_count)
        if fault is not None:
            hang = float(fault.headers.get("X-Fault-Hang-S", "0") or 0.0)
            if hang > 0:
                budget = float(request.headers.get(TIMEOUT_HEADER, hang)
                               or hang)
                self.clock.sleep(min(hang, max(0.0, budget)))
            return fault
        response = self._dispatch(request)
        if self._corrupt is not None:
            response = self._corrupt(self.request_count, response)
        return response

    def _dispatch(self, request: Request) -> Response:
        rejection = self.authorize(request)
        if rejection is not None:
            return rejection
        throttled = self.throttle(request)
        if throttled is not None:
            return throttled
        parts = _segments(request.path)
        for candidate in self._routes.get((request.method, len(parts)), ()):
            extracted = candidate.match_segments(parts)
            if extracted is not None:
                request.path_params = extracted
                return candidate.handler(request)
        return Response.error(404, f"{self.name}: no route for "
                                   f"{request.method} {request.path}")

    def get(self, path: str, params: Optional[Dict[str, Any]] = None,
            headers: Optional[Dict[str, str]] = None) -> Response:
        """Convenience: dispatch a GET request."""
        return self.handle(Request("GET", path, params or {}, headers or {}))

    def post(self, path: str, params: Optional[Dict[str, Any]] = None,
             headers: Optional[Dict[str, str]] = None) -> Response:
        """Convenience: dispatch a POST request."""
        return self.handle(Request("POST", path, params or {}, headers or {}))


def paginate(items: List[Any], page: int, per_page: int) -> Tuple[List[Any], int]:
    """Slice ``items`` for 1-indexed ``page``; returns (slice, last_page)."""
    if page < 1:
        raise ValueError(f"page must be >= 1, got {page}")
    last_page = max(1, -(-len(items) // per_page))
    start = (page - 1) * per_page
    return items[start:start + per_page], last_page
