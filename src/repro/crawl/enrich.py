"""Facebook and Twitter enrichment crawls (§3).

Both crawls consume the social-media URLs found on crawled AngelList
profiles:

* **Facebook** — one long-lived token (obtained via the OAuth exchange
  dance in :func:`facebook_login`) fetches each linked page.
* **Twitter** — the username is "the string after the last '/'" of the
  profile URL (the paper's exact heuristic); a :class:`TokenPool` spread
  over logical workers dodges the 180/15-min limit.

Each writes a JSON-lines dataset keyed by ``angellist_id``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.crawl.breaker import CircuitBreaker
from repro.crawl.client import (
    ApiClient, ClientStats, AUTH_QUERY_ACCESS_TOKEN)
from repro.crawl.deadletter import DeadLetterQueue
from repro.crawl.tokens import TokenPool, provision_twitter_tokens
from repro.crawl.workers import WorkerPool
from repro.dfs.filesystem import MiniDfs
from repro.dfs.jsonlines import JsonLinesWriter, iter_json_dataset
from repro.sources.facebook import FacebookServer
from repro.sources.twitter import TwitterServer
from repro.util.clock import Clock
from repro.util.errors import DeadLetterError


@dataclass
class EnrichResult:
    """Summary of one enrichment crawl."""

    source: str
    linked: int = 0         # startups that had a URL for this source
    fetched: int = 0        # profiles successfully downloaded
    dead_links: int = 0     # URLs that 404ed
    dead_lettered: int = 0  # requests parked in the DLQ mid-crawl
    replayed: int = 0       # parked requests later recovered by replay
    sim_duration: float = 0.0
    client_stats: Optional[ClientStats] = None


def _replay_into_dataset(client: ApiClient,
                         dead_letters: Optional[DeadLetterQueue],
                         dfs: MiniDfs, out_dir: str,
                         records_per_part: int) -> int:
    """Re-issue parked requests, appending recovered records to ``out_dir``.

    Each dead letter's ``tag`` carries the record context the failure
    interrupted (the ``angellist_id`` join key), so the recovered body
    is written exactly as the inline path would have written it. New
    records land in fresh part files after the existing ones. Returns
    how many records were recovered.

    Replay is **idempotent** on the dataset: letters whose
    ``angellist_id`` already landed in ``out_dir`` (an earlier replay
    recovered them but crashed before the queue deleted the letter, or
    the same batch is re-delivered) are acknowledged without writing a
    duplicate record.
    """
    if dead_letters is None or len(dead_letters) == 0:
        return 0
    start = len(dfs.glob_parts(out_dir))
    landed = {record.get("angellist_id")
              for record in iter_json_dataset(dfs, out_dir)}
    landed.discard(None)
    recovered = 0
    with JsonLinesWriter(dfs, out_dir, records_per_part,
                         start_part_index=start) as writer:
        def on_success(letter, body) -> None:
            nonlocal recovered
            if body is None:  # pragma: no cover - dead letters aren't 404s
                return
            key = letter.tag.get("angellist_id")
            if key is not None and key in landed:
                return  # already landed: ack the letter, write nothing
            record = dict(body)
            record.update(letter.tag)
            writer.write(record)
            if key is not None:
                landed.add(key)
            recovered += 1

        dead_letters.replay(client, on_success)
    return recovered


def facebook_login(server: FacebookServer, app_id: str = "repro-app",
                   app_secret: str = "s3cret") -> str:
    """Run the short-lived → long-lived OAuth dance; returns the token."""
    short = server.post("/oauth/access_token",
                        {"app_id": app_id, "app_secret": app_secret})
    long_lived = server.get("/oauth/exchange",
                            {"fb_exchange_token":
                             short.body["access_token"]})
    return long_lived.body["access_token"]


class FacebookCrawler:
    """Fetches the Facebook page of every startup that links one."""

    def __init__(self, server: FacebookServer, clock: Clock, dfs: MiniDfs,
                 angellist_root: str = "/crawl/angellist",
                 out_dir: str = "/crawl/facebook/pages",
                 records_per_part: int = 5000,
                 max_retries: int = 5,
                 backoff_jitter: float = 0.0,
                 jitter_seed: int = 0,
                 breaker: Optional[CircuitBreaker] = None,
                 dead_letters: Optional[DeadLetterQueue] = None):
        self.server = server
        self.dfs = dfs
        self.angellist_root = angellist_root.rstrip("/")
        self.out_dir = out_dir
        self.records_per_part = records_per_part
        self.dead_letters = dead_letters
        self.client = ApiClient(
            server, clock, auth_style=AUTH_QUERY_ACCESS_TOKEN,
            token_refresher=lambda: facebook_login(server),
            max_retries=max_retries, backoff_jitter=backoff_jitter,
            jitter_seed=jitter_seed, breaker=breaker,
            dead_letters=dead_letters)

    def run(self) -> EnrichResult:
        result = EnrichResult(source="facebook")
        started = self.client.clock.now()
        with JsonLinesWriter(self.dfs, self.out_dir,
                             self.records_per_part) as writer:
            for startup in iter_json_dataset(
                    self.dfs, f"{self.angellist_root}/startups"):
                url = startup.get("facebook_url")
                if not url:
                    continue
                result.linked += 1
                slug = url.rstrip("/").rsplit("/", 1)[-1]
                try:
                    page = self.client.get(
                        f"/pg/{slug}", allow_not_found=True,
                        tag={"angellist_id": startup["id"]})
                except DeadLetterError:
                    # parked for replay; the crawl keeps moving
                    result.dead_lettered += 1
                    continue
                if page is None:
                    result.dead_links += 1
                    continue
                record = dict(page)
                record["angellist_id"] = startup["id"]
                writer.write(record)
                result.fetched += 1
        result.sim_duration = self.client.clock.now() - started
        result.client_stats = self.client.stats
        return result

    def replay(self, result: Optional[EnrichResult] = None) -> int:
        """Drain the dead-letter queue into the output dataset."""
        recovered = _replay_into_dataset(
            self.client, self.dead_letters, self.dfs, self.out_dir,
            self.records_per_part)
        if result is not None:
            result.replayed += recovered
            result.fetched += recovered
        return recovered


class TwitterCrawler:
    """Fetches Twitter profiles with a token pool over logical workers."""

    def __init__(self, server: TwitterServer, clock: Clock, dfs: MiniDfs,
                 angellist_root: str = "/crawl/angellist",
                 out_dir: str = "/crawl/twitter/profiles",
                 num_tokens: int = 10,
                 num_workers: int = 5,
                 records_per_part: int = 5000,
                 tokens: Optional[List[str]] = None,
                 max_retries: int = 5,
                 backoff_jitter: float = 0.0,
                 jitter_seed: int = 0,
                 breaker: Optional[CircuitBreaker] = None,
                 dead_letters: Optional[DeadLetterQueue] = None):
        self.server = server
        self.dfs = dfs
        self.angellist_root = angellist_root.rstrip("/")
        self.out_dir = out_dir
        self.num_workers = num_workers
        self.records_per_part = records_per_part
        self.dead_letters = dead_letters
        tokens = tokens or provision_twitter_tokens(server, num_tokens)
        self.pool = TokenPool(tokens, clock)
        self.client = ApiClient(server, clock,
                                auth_style=AUTH_QUERY_ACCESS_TOKEN,
                                token_pool=self.pool,
                                max_retries=max_retries,
                                backoff_jitter=backoff_jitter,
                                jitter_seed=jitter_seed,
                                breaker=breaker,
                                dead_letters=dead_letters)

    @staticmethod
    def screen_name_from_url(url: str) -> str:
        """The paper's heuristic: the string after the last '/'."""
        return url.rstrip("/").rsplit("/", 1)[-1]

    def run(self) -> EnrichResult:
        result = EnrichResult(source="twitter")
        started = self.client.clock.now()
        targets = []
        for startup in iter_json_dataset(
                self.dfs, f"{self.angellist_root}/startups"):
            url = startup.get("twitter_url")
            if url:
                targets.append((startup["id"],
                                self.screen_name_from_url(url)))
        result.linked = len(targets)

        writer = JsonLinesWriter(self.dfs, self.out_dir,
                                 self.records_per_part)
        pool = WorkerPool(self.num_workers)

        def fetch(_worker_id: int, target) -> None:
            angellist_id, screen_name = target
            try:
                profile = self.client.get(
                    "/1.1/users/show.json",
                    {"screen_name": screen_name},
                    allow_not_found=True,
                    tag={"angellist_id": angellist_id})
            except DeadLetterError:
                result.dead_lettered += 1
                return
            if profile is None:
                result.dead_links += 1
                return
            record = dict(profile)
            record["angellist_id"] = angellist_id
            writer.write(record)
            result.fetched += 1

        pool.map(targets, fetch)
        writer.close()
        result.sim_duration = self.client.clock.now() - started
        result.client_stats = self.client.stats
        return result

    def replay(self, result: Optional[EnrichResult] = None) -> int:
        """Drain the dead-letter queue into the output dataset."""
        recovered = _replay_into_dataset(
            self.client, self.dead_letters, self.dfs, self.out_dir,
            self.records_per_part)
        if result is not None:
            result.replayed += recovered
            result.fetched += recovered
        return recovered
