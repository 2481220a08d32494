"""Tests for the simulated HTTP substrate."""

import pytest

from repro.net.http import Request, Response, Route, SimServer, paginate
from repro.net.faults import FaultPlan
from repro.net.latency import LatencyModel
from repro.util.clock import SimClock


class TestRoute:
    def test_exact_match(self):
        route = Route("GET", "/a/b", lambda r: Response.json({}))
        assert route.match("GET", "/a/b") == {}

    def test_path_params_extracted(self):
        route = Route("GET", "/1/startups/:id", lambda r: Response.json({}))
        assert route.match("GET", "/1/startups/42") == {"id": "42"}

    def test_method_mismatch(self):
        route = Route("GET", "/a", lambda r: Response.json({}))
        assert route.match("POST", "/a") is None

    def test_length_mismatch(self):
        route = Route("GET", "/a/:x", lambda r: Response.json({}))
        assert route.match("GET", "/a/b/c") is None

    def test_fixed_segment_after_a_param(self):
        route = Route("GET", "/1/users/:id/following",
                      lambda r: Response.json({}))
        assert route.match("GET", "/1/users/42/following/") == {"id": "42"}
        assert route.match("GET", "/1/users/42/investments") is None
        assert route.match("GET", "/2/users/42/following") is None

    def test_several_params(self):
        route = Route("GET", ":kind/x/:id", lambda r: Response.json({}))
        assert route.match("GET", "/users/x/7") == {"kind": "users",
                                                    "id": "7"}


class TestRequest:
    def test_bearer_token(self):
        req = Request("GET", "/", headers={"Authorization": "Bearer tok1"})
        assert req.token == "tok1"

    def test_query_token(self):
        req = Request("GET", "/", params={"access_token": "tok2"})
        assert req.token == "tok2"

    def test_no_token(self):
        assert Request("GET", "/").token is None

    def test_token_is_parsed_once(self):
        class _CountingHeaders(dict):
            reads = 0

            def get(self, key, default=None):
                self.reads += 1
                return super().get(key, default)
        headers = _CountingHeaders(Authorization="Bearer tok1")
        req = Request("GET", "/", headers=headers)
        assert (req.token, req.token, req.token) == ("tok1",) * 3
        assert headers.reads == 1
        # the memo is not part of a request's identity
        assert req == Request("GET", "/", headers=dict(headers))
        assert "tok1" not in repr(req).replace("Bearer tok1", "")


class TestSimServer:
    def _make(self, **kwargs) -> SimServer:
        server = SimServer(**kwargs)
        server.route("GET", "/hello/:name",
                     lambda r: Response.json({"hi": r.path_params["name"]}))
        return server

    def test_dispatch(self):
        server = self._make()
        response = server.get("/hello/world")
        assert response.ok
        assert response.body == {"hi": "world"}

    def test_unknown_route_404(self):
        assert self._make().get("/nope").status == 404

    def test_request_count_increments(self):
        server = self._make()
        server.get("/hello/a")
        server.get("/hello/b")
        assert server.request_count == 2

    def test_latency_advances_clock(self):
        clock = SimClock()
        server = self._make(clock=clock,
                            latency=LatencyModel(base=0.25, jitter=0.0))
        server.get("/hello/x")
        assert clock.now() == pytest.approx(0.25)

    def test_fault_injection_produces_5xx(self):
        server = self._make(faults=FaultPlan.flaky(p_error=0.999))
        response = server.get("/hello/x")
        assert response.status in (500, 503)

    def test_fault_free_plan_never_fails(self):
        server = self._make(faults=FaultPlan.none())
        assert all(server.get("/hello/x").ok for _ in range(20))

    def test_first_registered_route_of_a_shape_wins(self):
        server = self._make()
        server.route("GET", "/hello/world", lambda r: Response.json("late"))
        server.route("POST", "/hello/:name", lambda r: Response.json("post"))
        server.route("GET", "/hello/:name/again",
                     lambda r: Response.json("longer"))
        assert server.get("/hello/world").body == {"hi": "world"}
        assert server.post("/hello/world").body == "post"
        assert server.get("/hello/world/again/").body == "longer"
        assert server.get("/hello").status == 404
        assert server.post("/hello/world/again").status == 404

    def test_reassigned_faults_and_latency_take_effect(self):
        """The no-fault / fixed-latency decision is made when the plan
        is set, so setting another one has to redo it."""
        clock = SimClock()
        server = self._make(clock=clock)
        assert server.get("/hello/x").ok and clock.now() == 0.0
        server.faults = FaultPlan.flaky(p_error=0.999)
        assert server.get("/hello/x").status in (500, 503)
        server.faults = FaultPlan.none()
        server.latency = LatencyModel(base=0.5, jitter=0.0)
        assert server.get("/hello/x").ok
        assert clock.now() == pytest.approx(0.5)
        server.latency = LatencyModel(base=0.0, jitter=1.0, seed=3)
        server.get("/hello/x")
        assert 0.5 < clock.now() < 1.5

    def test_quiet_schedule_can_still_be_forced(self):
        """A FaultSchedule is mutable (forced windows), so holding an
        empty one must not switch fault injection off for good."""
        from repro.net.faults import FAULT_BROWNOUT, FaultSchedule
        schedule = FaultSchedule.none()
        server = self._make(faults=schedule)
        assert server.get("/hello/x").ok
        schedule.force_window(FAULT_BROWNOUT, start=2, span=1, duration=1.5)
        assert server.get("/hello/x").status == 503
        assert server.get("/hello/x").ok


class TestPaginate:
    def test_slices(self):
        items, last = paginate(list(range(10)), page=2, per_page=4)
        assert items == [4, 5, 6, 7]
        assert last == 3

    def test_empty_list_one_page(self):
        items, last = paginate([], page=1, per_page=10)
        assert items == []
        assert last == 1

    def test_page_past_end_empty(self):
        items, last = paginate([1, 2], page=5, per_page=2)
        assert items == []

    def test_invalid_page(self):
        with pytest.raises(ValueError):
            paginate([1], page=0, per_page=1)


class TestLatencyModel:
    def test_deterministic_jitter(self):
        model = LatencyModel(base=0.1, jitter=0.2, seed=4)
        assert model.sample(10) == model.sample(10)

    def test_jitter_within_bounds(self):
        model = LatencyModel(base=0.1, jitter=0.2, seed=4)
        for index in range(100):
            assert 0.1 <= model.sample(index) <= 0.3


class TestFaultPlan:
    def test_rate_roughly_matches(self):
        plan = FaultPlan.flaky(p_error=0.2, seed=1)
        failures = sum(plan.inject(i) is not None for i in range(2000))
        assert 300 < failures < 500

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            FaultPlan.flaky(p_error=1.0)
