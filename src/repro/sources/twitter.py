"""Simulated Twitter REST API.

Reproduces the two constraints §3 calls out explicitly:

* **180 calls per 15-minute window per access token** on
  ``GET /1.1/users/show.json``;
* **at most five registered apps per Twitter account** — each app yields
  one token, so a crawler wanting N tokens must register ⌈N/5⌉ accounts
  (the paper spread these across machines; our token pool spreads them
  across workers).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.http import Request, Response, SimServer
from repro.net.faults import FaultPlan
from repro.net.latency import LatencyModel
from repro.sources.base import FixedWindowLimiter, TokenRegistry
from repro.util.clock import Clock
from repro.world.generator import World

RATE_LIMIT = 180
RATE_WINDOW = 900.0
MAX_APPS_PER_ACCOUNT = 5


class TwitterServer(SimServer):
    """Serves Twitter profiles for companies that have one."""

    name = "twitter"

    def __init__(self, world: World, clock: Optional[Clock] = None,
                 latency: Optional[LatencyModel] = None,
                 faults: Optional[FaultPlan] = None):
        super().__init__(clock=clock, latency=latency, faults=faults)
        self.world = world
        self.tokens = TokenRegistry("tw", self.clock)
        self.limiter = FixedWindowLimiter(RATE_LIMIT, RATE_WINDOW, self.clock)
        self._apps_per_account: Dict[str, int] = {}
        self._by_screen_name: Dict[str, int] = {
            profile.screen_name: pid
            for pid, profile in world.twitter_profiles.items()}

        self.route("GET", "/1.1/users/show.json", self._show_user)

    def register_app(self, account: str) -> str:
        """Register an app under ``account`` and return its access token.

        Raises ``PermissionError`` once the account holds five apps.
        """
        used = self._apps_per_account.get(account, 0)
        if used >= MAX_APPS_PER_ACCOUNT:
            raise PermissionError(
                f"account {account!r} already has {MAX_APPS_PER_ACCOUNT} apps")
        self._apps_per_account[account] = used + 1
        return self.tokens.issue(f"{account}/app{used + 1}").value

    def authorize(self, request: Request) -> Optional[Response]:
        if self.tokens.lookup(request.token) is None:
            return Response.error(401, "invalid or expired access token")
        return None

    def throttle(self, request: Request) -> Optional[Response]:
        retry_after = self.limiter.check(request.token or "")
        if retry_after is not None:
            return Response.error(429, "Rate limit exceeded",
                                  retry_after=retry_after)
        return None

    def remaining(self, token: str) -> int:
        """Calls left in the token's current window (for schedulers)."""
        return self.limiter.remaining(token)

    def _show_user(self, request: Request) -> Response:
        screen_name = request.params.get("screen_name")
        if not screen_name:
            return Response.error(400, "screen_name parameter is required")
        pid = self._by_screen_name.get(str(screen_name))
        if pid is None:
            return Response.error(404, f"user {screen_name!r} not found")
        return Response.json(self.world.twitter_profiles[pid].to_json())
