"""Tests for the resilient API client."""

import pytest

from repro.crawl.client import (ApiClient, AUTH_BEARER,
                                AUTH_QUERY_ACCESS_TOKEN)
from repro.crawl.tokens import TokenPool
from repro.net.http import Response, SimServer
from repro.net.faults import FaultPlan
from repro.util.clock import SimClock
from repro.util.errors import AuthError, CrawlError, NotFoundError


class _EchoServer(SimServer):
    """Accepts token 'good'; optional scripted failures."""

    name = "echo"

    def __init__(self, clock, fail_times=0, faults=None):
        super().__init__(clock=clock, faults=faults or FaultPlan.none())
        self.fail_times = fail_times
        self.valid_tokens = {"good"}
        self.route("GET", "/ok", lambda r: Response.json({"yes": True}))
        self.route("GET", "/flaky", self._flaky)
        self.route("GET", "/gone", lambda r: Response.error(404, "nope"))
        self.route("GET", "/teapot", lambda r: Response.error(418, "tea"))

    def authorize(self, request):
        if request.token not in self.valid_tokens:
            return Response.error(401, "bad token")
        return None

    def _flaky(self, request):
        if self.fail_times > 0:
            self.fail_times -= 1
            return Response.error(503, "try later")
        return Response.json({"recovered": True})


@pytest.fixture()
def clock():
    return SimClock()


class TestBasics:
    def test_success(self, clock):
        client = ApiClient(_EchoServer(clock), clock, token="good")
        assert client.get("/ok") == {"yes": True}
        assert client.stats.successes == 1

    def test_needs_credential_source(self, clock):
        with pytest.raises(CrawlError):
            ApiClient(_EchoServer(clock), clock)

    def test_pool_and_token_exclusive(self, clock):
        pool = TokenPool(["good"], clock)
        with pytest.raises(CrawlError):
            ApiClient(_EchoServer(clock), clock, token="good",
                      token_pool=pool)

    def test_not_found_raises_by_default(self, clock):
        client = ApiClient(_EchoServer(clock), clock, token="good")
        with pytest.raises(NotFoundError):
            client.get("/gone")

    def test_allow_not_found_returns_none(self, clock):
        client = ApiClient(_EchoServer(clock), clock, token="good")
        assert client.get("/gone", allow_not_found=True) is None
        assert client.stats.not_found == 1

    def test_unexpected_status_raises(self, clock):
        client = ApiClient(_EchoServer(clock), clock, token="good")
        with pytest.raises(CrawlError):
            client.get("/teapot")


class TestRetries:
    def test_transient_failures_retried(self, clock):
        server = _EchoServer(clock, fail_times=3)
        client = ApiClient(server, clock, token="good", max_retries=5)
        assert client.get("/flaky") == {"recovered": True}
        assert client.stats.retries == 3
        assert client.stats.slept_seconds > 0

    def test_budget_exhaustion_raises(self, clock):
        server = _EchoServer(clock, fail_times=10)
        client = ApiClient(server, clock, token="good", max_retries=2)
        with pytest.raises(CrawlError):
            client.get("/flaky")

    def test_backoff_grows(self, clock):
        server = _EchoServer(clock, fail_times=3)
        client = ApiClient(server, clock, token="good", max_retries=5,
                           backoff_base=1.0)
        client.get("/flaky")
        # 1 + 2 + 4 seconds of exponential backoff
        assert client.stats.slept_seconds == pytest.approx(7.0)


class TestAuthRefresh:
    def test_refresh_on_401(self, clock):
        server = _EchoServer(clock)
        calls = []

        def refresher():
            calls.append(1)
            if len(calls) == 1:
                return "stale"
            server.valid_tokens.add("fresh")
            return "fresh"

        client = ApiClient(server, clock, token_refresher=refresher)
        assert client.get("/ok") == {"yes": True}
        assert client.stats.auth_refreshes >= 1

    def test_hard_auth_failure(self, clock):
        client = ApiClient(_EchoServer(clock), clock, token="bad")
        with pytest.raises(AuthError):
            client.get("/ok")


class _RecordingServer(_EchoServer):
    def __init__(self, clock):
        super().__init__(clock)
        self.seen = []
        self.valid_tokens = {"good", "also-good"}

    def handle(self, request):
        self.seen.append(request)
        return super().handle(request)


class TestSend:
    def test_bearer_headers_are_built_once_per_credential(self, clock):
        server = _RecordingServer(clock)
        pool = TokenPool(["good", "also-good"], clock)
        client = ApiClient(server, clock, token_pool=pool,
                           request_timeout_s=12.5)
        for _ in range(4):
            client.get("/ok", {"q": 1})
        by_token = {}
        for request in server.seen:
            assert request.headers == {
                "X-Timeout-S": "12.500",
                "Authorization": f"Bearer {request.token}"}
            assert request.params == {"q": 1}
            by_token.setdefault(request.token, []).append(request.headers)
        assert sorted(by_token) == ["also-good", "good"]
        for dicts in by_token.values():
            assert all(d is dicts[0] for d in dicts)

    def test_query_credential_stays_out_of_the_callers_params(self, clock):
        server = _RecordingServer(clock)
        client = ApiClient(server, clock, token="good",
                           auth_style=AUTH_QUERY_ACCESS_TOKEN)
        params = {"q": 1}
        assert client.get("/ok", params) == {"yes": True}
        assert params == {"q": 1}
        (request,) = server.seen
        assert request.params == {"q": 1, "access_token": "good"}
        assert request.headers == {"X-Timeout-S": "30.000"}

    def test_unknown_auth_style_rejected_at_construction(self, clock):
        with pytest.raises(CrawlError, match="auth style"):
            ApiClient(_EchoServer(clock), clock, token="good",
                      auth_style="cookie")

    def test_unsupported_method(self, clock):
        client = ApiClient(_EchoServer(clock), clock, token="good")
        with pytest.raises(CrawlError, match="unsupported method"):
            client.request("DELETE", "/ok")


class TestPaged:
    def test_pages_are_requested_as_they_are_consumed(self, clock,
                                                      tiny_world):
        from repro.sources.angellist import AngelListServer
        server = AngelListServer(tiny_world, clock=clock)
        client = ApiClient(server, clock, token=server.issue_token("t"))
        uid = max(tiny_world.users, key=lambda u: len(
            tiny_world.users[u].follows_companies))
        follows = tiny_world.users[uid].follows_companies
        assert len(follows) > 50         # more than one page of 50
        path = f"/1/users/{uid}/following"
        pages = client.pages(path, {"type": "startup"})
        assert server.request_count == 0          # lazy until asked
        first = next(pages)
        assert server.request_count == 1
        assert [item["id"] for item in first] == follows[:50]
        rest = list(pages)
        assert server.request_count == 1 + len(rest) == -(-len(follows) // 50)
        flat = first + [item for page in rest for item in page]
        assert flat == list(client.paged(path, {"type": "startup"}))
        assert [item["id"] for item in flat] == follows

    def test_iterates_pages(self, clock, tiny_world):
        from repro.sources.angellist import AngelListServer
        server = AngelListServer(tiny_world, clock=clock)
        client = ApiClient(server, clock,
                           token=server.issue_token("t"))
        items = list(client.paged("/1/startups", {"filter": "raising"},
                                  items_key="startups"))
        raising = sum(1 for c in tiny_world.companies.values()
                      if c.currently_raising)
        assert len(items) == raising
