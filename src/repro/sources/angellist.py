"""Simulated AngelList API.

Endpoints (mirroring the subset the paper's BFS crawler used):

* ``GET /1/startups?filter=raising&page=N`` — only *currently fundraising*
  startups are listable (§3: "about 4000 of them"); everything else must
  be discovered by following the social graph.
* ``GET /1/startups/:id`` — full startup profile, including the
  ``facebook_url`` / ``twitter_url`` / ``crunchbase_url`` links the
  enrichment crawlers consume.
* ``GET /1/startups/:id/followers?page=N`` — users following a startup.
* ``GET /1/users/:id`` — user profile with roles.
* ``GET /1/users/:id/following?type=startup|user&page=N`` — outgoing
  follow edges, the BFS frontier expansion step.
* ``GET /1/users/:id/investments?page=N`` — companies the user invested
  in, as shown on AngelList profiles.

Auth: every call needs a token from :meth:`issue_token`. Rate limit:
1000 requests per hour per token (AngelList's documented limit).
"""

from __future__ import annotations

from typing import Optional

from repro.net.http import Request, Response, SimServer, paginate
from repro.net.faults import FaultPlan
from repro.net.latency import LatencyModel
from repro.sources.base import FixedWindowLimiter, TokenRegistry, require_token
from repro.util.clock import Clock
from repro.world.generator import World

PER_PAGE = 50
RATE_LIMIT = 1000
RATE_WINDOW = 3600.0


class AngelListServer(SimServer):
    """Serves AngelList views of a :class:`~repro.world.generator.World`."""

    name = "angellist"

    def __init__(self, world: World, clock: Optional[Clock] = None,
                 latency: Optional[LatencyModel] = None,
                 faults: Optional[FaultPlan] = None):
        super().__init__(clock=clock, latency=latency, faults=faults)
        self.world = world
        self.tokens = TokenRegistry("al", self.clock)
        self.limiter = FixedWindowLimiter(RATE_LIMIT, RATE_WINDOW, self.clock)
        self._follows = world.follows
        # company → follower users, shared with every server of this world
        self._followers = world.follows.companies.inverse()
        self._raising_ids = sorted(
            cid for cid, c in world.companies.items() if c.currently_raising)

        self.route("GET", "/1/startups", self._list_startups)
        self.route("GET", "/1/startups/:id", self._get_startup)
        self.route("GET", "/1/startups/:id/followers", self._get_followers)
        self.route("GET", "/1/users/:id", self._get_user)
        self.route("GET", "/1/users/:id/following", self._get_following)
        self.route("GET", "/1/users/:id/investments", self._get_investments)

    # -- auth / throttling ---------------------------------------------------
    def issue_token(self, label: str = "crawler") -> str:
        return self.tokens.issue(label).value

    def authorize(self, request: Request) -> Optional[Response]:
        return require_token(self.tokens, request)

    def throttle(self, request: Request) -> Optional[Response]:
        retry_after = self.limiter.check(request.token or "")
        if retry_after is not None:
            return Response.error(429, "rate limit exceeded",
                                  retry_after=retry_after)
        return None

    # -- url helpers -----------------------------------------------------------
    def facebook_url(self, company) -> Optional[str]:
        if company.facebook_page_id is None:
            return None
        return f"https://facebook.example/pg/{company.slug}"

    def twitter_url(self, company) -> Optional[str]:
        if company.twitter_profile_id is None:
            return None
        profile = self.world.twitter_profiles[company.twitter_profile_id]
        return f"https://twitter.example/{profile.screen_name}"

    def crunchbase_url(self, company) -> Optional[str]:
        if company.crunchbase_id is None or not company.links_crunchbase:
            return None
        return f"https://crunchbase.example/organization/{company.slug}"

    # -- handlers --------------------------------------------------------------
    def _page(self, request: Request) -> int:
        try:
            return max(1, int(request.params.get("page", 1)))
        except (TypeError, ValueError):
            return 1

    def _list_startups(self, request: Request) -> Response:
        if request.params.get("filter") != "raising":
            return Response.error(
                400, "only filter=raising is supported by the public API")
        page = self._page(request)
        ids, last = paginate(self._raising_ids, page, PER_PAGE)
        items = [{"id": cid, "name": self.world.companies[cid].name}
                 for cid in ids]
        return Response.json({"startups": items, "page": page,
                              "last_page": last,
                              "total": len(self._raising_ids)})

    def _get_startup(self, request: Request) -> Response:
        cid = _int_or_none(request.path_params.get("id"))
        company = self.world.companies.get(cid) if cid is not None else None
        if company is None:
            return Response.error(404, f"startup {request.path_params['id']} "
                                       "not found")
        return Response.json(company.angellist_json(
            fb_url=self.facebook_url(company),
            tw_url=self.twitter_url(company),
            cb_url=self.crunchbase_url(company)))

    def _get_followers(self, request: Request) -> Response:
        cid = _int_or_none(request.path_params.get("id"))
        if cid is None or cid not in self.world.companies:
            return Response.error(404, "startup not found")
        page = self._page(request)
        ids, last = self._followers.page(cid, page, PER_PAGE)
        items = [self.world.users[uid].angellist_json() for uid in ids]
        return Response.json({"users": items, "page": page, "last_page": last})

    def _get_user(self, request: Request) -> Response:
        uid = _int_or_none(request.path_params.get("id"))
        user = self.world.users.get(uid) if uid is not None else None
        if user is None:
            return Response.error(404, "user not found")
        return Response.json(user.angellist_json())

    def _get_following(self, request: Request) -> Response:
        uid = _int_or_none(request.path_params.get("id"))
        user = self.world.users.get(uid) if uid is not None else None
        if user is None:
            return Response.error(404, "user not found")
        kind = request.params.get("type", "startup")
        page = self._page(request)
        if kind == "startup":
            ids, last = self._follows.companies.page(uid, page, PER_PAGE)
            items = [{"id": cid, "type": "Startup"} for cid in ids]
        elif kind == "user":
            ids, last = self._follows.users.page(uid, page, PER_PAGE)
            items = [{"id": fid, "type": "User"} for fid in ids]
        else:
            return Response.error(400, f"unknown follow type {kind!r}")
        return Response.json({"items": items, "page": page, "last_page": last})

    def _get_investments(self, request: Request) -> Response:
        uid = _int_or_none(request.path_params.get("id"))
        user = self.world.users.get(uid) if uid is not None else None
        if user is None:
            return Response.error(404, "user not found")
        page = self._page(request)
        ids, last = paginate(user.investments, page, PER_PAGE)
        items = [{"startup_id": cid,
                  "startup_name": self.world.companies[cid].name}
                 for cid in ids]
        return Response.json({"investments": items, "page": page,
                              "last_page": last})


def _int_or_none(value) -> Optional[int]:
    try:
        return int(value)
    except (TypeError, ValueError):
        return None
