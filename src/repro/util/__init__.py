"""Shared utilities: errors, seeded randomness, simulated clock, timers, stats."""

from repro.util.errors import (
    ReproError,
    ConfigError,
    CrawlError,
    RateLimitExceeded,
    AuthError,
    NotFoundError,
    StorageError,
    EngineError,
)
from repro.util.clock import Clock, SimClock, WallClock
from repro.util.rng import RngStream, derive_seed, jittered_backoff
from repro.util.timer import Timer
from repro.util.stats import (
    mean,
    median,
    quantile,
    describe,
    weighted_choice_index,
)

__all__ = [
    "ReproError",
    "ConfigError",
    "CrawlError",
    "RateLimitExceeded",
    "AuthError",
    "NotFoundError",
    "StorageError",
    "EngineError",
    "Clock",
    "SimClock",
    "WallClock",
    "RngStream",
    "derive_seed",
    "jittered_backoff",
    "Timer",
    "mean",
    "median",
    "quantile",
    "describe",
    "weighted_choice_index",
]
