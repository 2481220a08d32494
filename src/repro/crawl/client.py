"""Resilient API client: retries, backoff, token rotation, statistics.

The client is the one place that knows how to survive the simulated
network: transient 5xx (including connection resets and client-side
timeouts) → jittered exponential backoff; a 503 carrying ``Retry-After``
→ honor the server's own estimate instead of guessing; truncated JSON
payload → re-request; 429 → bench the token and rotate to another (or
sleep out the window); 401 → ask the token refresher for a new
credential. A shared per-source circuit breaker stops every worker from
hammering a source that is browning out, and an optional dead-letter
queue parks requests that exhaust their budget so the crawl loses
nothing. Every outcome is counted so crawl benchmarks can report
throughput and retry overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.crawl.breaker import CircuitBreaker
from repro.crawl.deadletter import DeadLetter, DeadLetterQueue
from repro.crawl.tokens import TokenPool
from repro.net.http import (CorruptPayload, Request, Response, SimServer,
                            STATUS_RESET, STATUS_TIMEOUT, TIMEOUT_HEADER)
from repro.util.clock import Clock
from repro.util.errors import (AuthError, CrawlError, DeadLetterError,
                               NotFoundError)
from repro.util.rng import jittered_backoff

#: attribute of the request the credential rides in, per source style.
AUTH_BEARER = "bearer"          # Authorization: Bearer <token> (AngelList)
AUTH_QUERY_ACCESS_TOKEN = "access_token"  # ?access_token= (Facebook, Twitter)
AUTH_QUERY_USER_KEY = "user_key"          # ?user_key= (CrunchBase)
AUTH_STYLES = (AUTH_BEARER, AUTH_QUERY_ACCESS_TOKEN, AUTH_QUERY_USER_KEY)


@dataclass
class ClientStats:
    """Counters for one client instance."""

    requests: int = 0
    successes: int = 0
    retries: int = 0
    throttled: int = 0
    auth_refreshes: int = 0
    not_found: int = 0
    failures: int = 0
    slept_seconds: float = 0.0
    timeouts: int = 0            # 599s: the server hung past our budget
    resets: int = 0              # 598s: connection reset mid-exchange
    corrupt_payloads: int = 0    # 200s whose JSON body arrived truncated
    retry_after_waits: int = 0   # 503s whose Retry-After we honored
    breaker_waits: int = 0       # sends delayed by an open circuit breaker
    dead_lettered: int = 0       # requests parked for replay

    def merge(self, other: "ClientStats") -> "ClientStats":
        return ClientStats(
            requests=self.requests + other.requests,
            successes=self.successes + other.successes,
            retries=self.retries + other.retries,
            throttled=self.throttled + other.throttled,
            auth_refreshes=self.auth_refreshes + other.auth_refreshes,
            not_found=self.not_found + other.not_found,
            failures=self.failures + other.failures,
            slept_seconds=self.slept_seconds + other.slept_seconds,
            timeouts=self.timeouts + other.timeouts,
            resets=self.resets + other.resets,
            corrupt_payloads=self.corrupt_payloads + other.corrupt_payloads,
            retry_after_waits=self.retry_after_waits + other.retry_after_waits,
            breaker_waits=self.breaker_waits + other.breaker_waits,
            dead_lettered=self.dead_lettered + other.dead_lettered,
        )


class ApiClient:
    """Wraps one simulated server with retry/rotate/refresh behaviour.

    Args:
        server: the simulated API.
        clock: shared simulated clock (used for backoff sleeps).
        auth_style: where the credential goes (see module constants).
        token_pool: pool to rotate through on 429s; mutually exclusive
            with ``token``.
        token: a single fixed credential.
        token_refresher: zero-arg callable returning a fresh credential,
            invoked on 401 (e.g. re-run the Facebook OAuth dance).
        max_retries: transient-failure budget per logical request.
        backoff_base: first backoff sleep in seconds; doubles per retry.
        backoff_jitter: fraction of deterministic jitter added to each
            backoff (0.25 → up to +25%), so concurrent workers sharing a
            source don't retry in lockstep. 0 disables jitter.
        jitter_seed: seed of the jitter stream — give each worker its
            own to decorrelate their schedules deterministically.
        request_timeout_s: per-request time budget, advertised to the
            server via the ``X-Timeout-S`` header; a hang fault costs at
            most this much simulated time before surfacing as a 599.
        breaker: optional :class:`CircuitBreaker`, typically shared by
            every client/worker of one source.
        dead_letters: optional :class:`DeadLetterQueue`; when set, a
            request that exhausts ``max_retries`` is parked there (and
            :class:`DeadLetterError` raised) instead of failing the
            crawl outright.
    """

    def __init__(self, server: SimServer, clock: Clock,
                 auth_style: str = AUTH_BEARER,
                 token_pool: Optional[TokenPool] = None,
                 token: Optional[str] = None,
                 token_refresher: Optional[Callable[[], str]] = None,
                 max_retries: int = 5,
                 backoff_base: float = 0.5,
                 backoff_jitter: float = 0.0,
                 jitter_seed: int = 0,
                 request_timeout_s: float = 30.0,
                 breaker: Optional[CircuitBreaker] = None,
                 dead_letters: Optional[DeadLetterQueue] = None):
        if token_pool is not None and token is not None:
            raise CrawlError("pass either token_pool or token, not both")
        if token_pool is None and token is None and token_refresher is None:
            raise CrawlError("client needs a credential source")
        if not 0.0 <= backoff_jitter <= 1.0:
            raise CrawlError(f"backoff_jitter must be in [0, 1], "
                             f"got {backoff_jitter}")
        if auth_style not in AUTH_STYLES:
            raise CrawlError(f"unknown auth style {auth_style!r}")
        self.server = server
        self.clock = clock
        self.auth_style = auth_style
        self.token_pool = token_pool
        self._token = token
        self.token_refresher = token_refresher
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_jitter = backoff_jitter
        self.jitter_seed = jitter_seed
        self.request_timeout_s = request_timeout_s
        self.breaker = breaker
        self.dead_letters = dead_letters
        self.stats = ClientStats()
        #: what every request's headers start from; a bearer client
        #: keeps one finished dict per credential beside it
        self._base_headers = {TIMEOUT_HEADER: f"{request_timeout_s:.3f}"}
        self._bearer_headers: Dict[str, Dict[str, str]] = {}
        if self._token is None and token_refresher is not None and token_pool is None:
            self._token = token_refresher()

    # -------------------------------------------------------------- internals
    def _credential(self) -> str:
        if self.token_pool is not None:
            return self.token_pool.acquire()
        if self._token is None:
            raise AuthError("client has no credential")
        return self._token

    def _send(self, method: str, path: str, params: Dict[str, Any],
              credential: str) -> Response:
        if method not in ("GET", "POST"):
            raise CrawlError(f"unsupported method {method!r}")
        if self.auth_style == AUTH_BEARER:
            headers = self._bearer_headers.get(credential)
            if headers is None:
                headers = self._bearer_headers[credential] = {
                    **self._base_headers,
                    "Authorization": f"Bearer {credential}"}
        else:
            # the query-credential styles are named after their parameter
            headers = self._base_headers
            params = {**params, self.auth_style: credential}
        return self.server.handle(Request(method, path, params, headers))

    def _sleep(self, seconds: float) -> None:
        self.stats.slept_seconds += seconds
        self.clock.sleep(seconds)

    def _backoff(self, path: str, retry_index: int) -> float:
        """Exponential backoff with deterministic jitter.

        ``retry_index`` is 0 for the first retry of a logical request.
        The jitter fraction is a pure function of (seed, path, retry
        index, lifetime request count), so a fixed seed reproduces the
        exact sleep schedule while distinct seeds decorrelate workers.
        """
        return jittered_backoff(
            self.backoff_base, retry_index, self.backoff_jitter,
            self.jitter_seed, f"{path}:{retry_index}:{self.stats.requests}")

    def _transient_failure(self) -> None:
        if self.breaker is not None:
            self.breaker.record_failure()

    def _dead_letter_or_raise(self, method: str, path: str,
                              params: Dict[str, Any], tag: Dict[str, Any],
                              attempts: int, error: CrawlError,
                              replaying: bool):
        self.stats.failures += 1
        if self.dead_letters is None or replaying:
            raise error
        letter_path = self.dead_letters.append(DeadLetter(
            method=method, path=path, params=dict(params), tag=dict(tag),
            error=str(error), attempts=attempts))
        self.stats.dead_lettered += 1
        raise DeadLetterError(
            f"{self.server.name}: {path} dead-lettered after {attempts} "
            f"attempts ({error})", letter_path=letter_path)

    # ------------------------------------------------------------------- api
    def request(self, method: str, path: str,
                params: Optional[Dict[str, Any]] = None,
                allow_not_found: bool = False,
                tag: Optional[Dict[str, Any]] = None,
                _replaying: bool = False) -> Optional[Any]:
        """Issue a request, surviving 5xx/429/401 within the retry budget.

        Returns the decoded JSON body; ``None`` for a 404 when
        ``allow_not_found`` (enrichment crawls tolerate dead links).
        ``tag`` is carried on the dead letter when the budget runs out,
        so replay knows what write the failure interrupted.
        """
        params = params or {}
        tag = tag or {}
        transient_left = self.max_retries
        auth_left = 2
        attempt = 0
        while True:
            attempt += 1
            if self.breaker is not None:
                wait = self.breaker.acquire()
                if wait > 0:
                    self.stats.breaker_waits += 1
                    self._sleep(wait)
            credential = self._credential()
            self.stats.requests += 1
            response = self._send(method, path, params, credential)
            if response.ok:
                if isinstance(response.body, CorruptPayload):
                    # truncated JSON: the transfer failed, not the server
                    self.stats.corrupt_payloads += 1
                    self._transient_failure()
                    if transient_left > 0:
                        retry_index = self.max_retries - transient_left
                        transient_left -= 1
                        self.stats.retries += 1
                        self._sleep(self._backoff(path, retry_index))
                        continue
                    self._dead_letter_or_raise(
                        method, path, params, tag, attempt,
                        CrawlError(f"{self.server.name}: {path} kept "
                                   f"returning corrupt payloads"),
                        _replaying)
                if self.breaker is not None:
                    self.breaker.record_success()
                self.stats.successes += 1
                return response.body
            if response.status == 404:
                self.stats.not_found += 1
                if allow_not_found:
                    return None
                raise NotFoundError(f"{self.server.name}: {path} not found")
            if response.status == 429:
                self.stats.throttled += 1
                retry_after = float(response.headers.get("Retry-After", "1"))
                if self.token_pool is not None:
                    self.token_pool.bench(credential, retry_after)
                    wait = self.token_pool.next_available_in()
                    if wait > 0:
                        self._sleep(wait)
                else:
                    self._sleep(retry_after)
                continue
            if response.status == 401:
                if self.token_refresher is not None and auth_left > 0:
                    auth_left -= 1
                    self.stats.auth_refreshes += 1
                    self._token = self.token_refresher()
                    continue
                self.stats.failures += 1
                raise AuthError(f"{self.server.name}: unauthorized at {path}")
            if 500 <= response.status < 600:
                if response.status == STATUS_TIMEOUT:
                    self.stats.timeouts += 1
                elif response.status == STATUS_RESET:
                    self.stats.resets += 1
                self._transient_failure()
                if transient_left > 0:
                    retry_index = self.max_retries - transient_left
                    transient_left -= 1
                    self.stats.retries += 1
                    retry_after = response.headers.get("Retry-After")
                    if response.status == 503 and retry_after is not None:
                        # the server told us when it will recover: honor
                        # that instead of guessing with backoff
                        self.stats.retry_after_waits += 1
                        self._sleep(float(retry_after))
                    else:
                        self._sleep(self._backoff(path, retry_index))
                    continue
                self._dead_letter_or_raise(
                    method, path, params, tag, attempt,
                    CrawlError(f"{self.server.name}: {path} failed after "
                               f"{self.max_retries} retries "
                               f"({response.status}: {response.body})"),
                    _replaying)
            self.stats.failures += 1
            raise CrawlError(f"{self.server.name}: unexpected status "
                             f"{response.status} for {path}: {response.body}")

    def get(self, path: str, params: Optional[Dict[str, Any]] = None,
            allow_not_found: bool = False,
            tag: Optional[Dict[str, Any]] = None) -> Optional[Any]:
        return self.request("GET", path, params, allow_not_found, tag=tag)

    def pages(self, path: str, params: Optional[Dict[str, Any]] = None,
              items_key: str = "items") -> Iterator[List[Any]]:
        """Iterate a paginated endpoint, yielding each page's items.

        A page is requested only once the caller asks for it, i.e.
        after it is done with the one before.
        """
        params = dict(params or {})
        page = 1
        while True:
            params["page"] = page
            body = self.get(path, params)
            yield body.get(items_key, [])
            last = int(body.get("last_page", page))
            if page >= last:
                return
            page += 1

    def paged(self, path: str, params: Optional[Dict[str, Any]] = None,
              items_key: str = "items") -> Iterator[Any]:
        """Iterate a paginated endpoint, yielding items across pages."""
        for items in self.pages(path, params, items_key):
            yield from items
