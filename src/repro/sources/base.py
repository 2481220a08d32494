"""Shared machinery for the simulated APIs: tokens and rate limiting."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.net.http import Request, Response
from repro.util.clock import Clock


@dataclass
class ApiToken:
    """An issued access token with optional expiry (simulated seconds)."""

    value: str
    label: str
    issued_at: float
    expires_at: Optional[float] = None  # None = never expires
    revoked: bool = False

    def valid_at(self, now: float) -> bool:
        if self.revoked:
            return False
        return self.expires_at is None or now < self.expires_at


class TokenRegistry:
    """Issues and validates tokens for one simulated service."""

    def __init__(self, prefix: str, clock: Clock):
        self._prefix = prefix
        self._clock = clock
        self._counter = itertools.count(1)
        self._tokens: Dict[str, ApiToken] = {}

    def issue(self, label: str, ttl: Optional[float] = None) -> ApiToken:
        value = f"{self._prefix}_{next(self._counter)}"
        now = self._clock.now()
        token = ApiToken(
            value=value, label=label, issued_at=now,
            expires_at=None if ttl is None else now + ttl)
        self._tokens[value] = token
        return token

    def revoke(self, value: str) -> None:
        if value in self._tokens:
            self._tokens[value].revoked = True

    def lookup(self, value: Optional[str]) -> Optional[ApiToken]:
        if value is None:
            return None
        token = self._tokens.get(value)
        if token is None or not token.valid_at(self._clock.now()):
            return None
        return token

    def __len__(self) -> int:
        return len(self._tokens)


@dataclass
class _Window:
    start: float = 0.0
    count: int = 0


class FixedWindowLimiter:
    """Per-token fixed-window rate limiter (e.g. Twitter's 180 / 15 min).

    ``check`` consumes one slot and returns ``None`` if allowed, or the
    seconds until the window resets if the caller is over the limit.
    """

    def __init__(self, max_requests: int, window_seconds: float, clock: Clock):
        if max_requests < 1:
            raise ValueError("max_requests must be >= 1")
        if window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")
        self.max_requests = max_requests
        self.window_seconds = window_seconds
        self._clock = clock
        self._windows: Dict[str, _Window] = {}

    def check(self, key: str) -> Optional[float]:
        now = self._clock.now()
        window = self._windows.get(key)
        if window is None:
            window = self._windows[key] = _Window(start=now)
        if now - window.start >= self.window_seconds:
            window.start = now
            window.count = 0
        if window.count >= self.max_requests:
            return (window.start + self.window_seconds) - now
        window.count += 1
        return None

    def remaining(self, key: str) -> int:
        now = self._clock.now()
        window = self._windows.get(key)
        if window is None or now - window.start >= self.window_seconds:
            return self.max_requests
        return max(0, self.max_requests - window.count)


def require_token(registry: TokenRegistry, request: Request) -> Optional[Response]:
    """Standard auth hook body: 401 unless the request bears a live token."""
    if registry.lookup(request.token) is None:
        return Response.error(401, "invalid or expired access token")
    return None
