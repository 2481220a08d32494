"""Figure 6: the impact of social engagement on fundraising success.

The categorization follows the paper exactly:

* presence rows use the URLs *linked on AngelList* (a lower bound, as
  the paper notes);
* success means the company has at least one funding round in the
  CrunchBase-augmented data;
* engagement rows split at the **median** of each metric across all
  valid accounts (652 likes / 343 tweets / 339 followers at paper scale
  — recomputed from the crawl here, never hard-coded).

All aggregation runs as engine jobs over the crawled DFS datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.engine.context import SparkLiteContext
from repro.viz.ascii import ascii_table


@dataclass
class EngagementRow:
    """One row of the Figure 6 summary table."""

    label: str
    companies: int
    company_pct: float
    success_pct: float
    successes: int = 0

    def wilson_ci(self, confidence: float = 0.95):
        """Confidence interval for this row's success proportion."""
        from repro.metrics.significance import wilson_interval
        if self.companies == 0:
            return (0.0, 0.0)
        return wilson_interval(self.successes, self.companies, confidence)


@dataclass
class EngagementTable:
    """The full Figure 6 table plus the medians used for the splits."""

    rows: List[EngagementRow]
    total_companies: int
    median_likes: float
    median_tweets: float
    median_tw_followers: float

    def row(self, label: str) -> EngagementRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(f"no row labelled {label!r}")

    def success_lift(self, label: str,
                     baseline: str = "No social media presence") -> float:
        """How many times likelier success is vs the baseline row."""
        base = self.row(baseline).success_pct
        if base <= 0:
            return float("inf")
        return self.row(label).success_pct / base

    def significance(self, label: str,
                     baseline: str = "No social media presence"):
        """Odds ratio + chi-square p-value of a row vs the baseline.

        The two rows are treated as independent groups (presence rows in
        the paper's table overlap slightly; the baseline row is disjoint
        from every social-presence row, which is the comparison that
        matters).
        """
        from repro.metrics.significance import chi_square_2x2, odds_ratio
        exposed = self.row(label)
        control = self.row(baseline)
        a, b = exposed.successes, exposed.companies - exposed.successes
        c, d = control.successes, control.companies - control.successes
        chi = chi_square_2x2(a, b, c, d)
        return odds_ratio(a, b, c, d), chi.p_value

    def render(self) -> str:
        return ascii_table(
            ["", "Number of companies (%)", "% Success"],
            [[row.label,
              f"{row.companies:,} ({row.company_pct:.2f}%)",
              f"{row.success_pct:.1f}"] for row in self.rows])


def compute_engagement_table(sc: SparkLiteContext, dfs,
                             angellist_root: str = "/crawl/angellist",
                             crunchbase_dir: str = "/crawl/crunchbase/organizations",
                             facebook_dir: str = "/crawl/facebook/pages",
                             twitter_dir: str = "/crawl/twitter/profiles",
                             ) -> EngagementTable:
    """Build the Figure 6 table from the crawled datasets."""
    # read once, so not cached: the persisted startups scan under it is
    # what later jobs share
    startups = (sc.json_dataset(dfs, f"{angellist_root}/startups")
                .map(lambda s: (int(s["id"]), {
                    "fb": bool(s.get("facebook_url")),
                    "tw": bool(s.get("twitter_url")),
                    "video": bool(s.get("video_url")),
                })))

    raised_ids = set(
        sc.json_dataset(dfs, crunchbase_dir)
        .filter(lambda org: org.get("num_funding_rounds", 0) > 0)
        .map(lambda org: int(org["angellist_id"]))
        .collect())

    likes_by_id: Dict[int, int] = dict(
        sc.json_dataset(dfs, facebook_dir)
        .map(lambda page: (int(page["angellist_id"]),
                           int(page["fan_count"])))
        .collect())
    twitter_rows = (
        sc.json_dataset(dfs, twitter_dir)
        .map(lambda prof: (int(prof["angellist_id"]),
                           (int(prof["statuses_count"]),
                            int(prof["followers_count"]))))
        .collect())
    tweets_by_id = {aid: t for aid, (t, _f) in twitter_rows}
    followers_by_id = {aid: f for aid, (_t, f) in twitter_rows}

    median_likes = _median(list(likes_by_id.values()))
    median_tweets = _median(list(tweets_by_id.values()))
    median_followers = _median(list(followers_by_id.values()))

    flags = startups.collect()
    total = len(flags)

    def row(label: str, predicate) -> EngagementRow:
        selected = [(cid, f) for cid, f in flags if predicate(cid, f)]
        count = len(selected)
        successes = sum(1 for cid, _f in selected if cid in raised_ids)
        return EngagementRow(
            label=label,
            companies=count,
            company_pct=100.0 * count / total if total else 0.0,
            success_pct=100.0 * successes / count if count else 0.0,
            successes=successes,
        )

    hi_likes = (lambda cid: likes_by_id.get(cid, -1) > median_likes)
    hi_tweets = (lambda cid: tweets_by_id.get(cid, -1) > median_tweets)
    hi_followers = (lambda cid: followers_by_id.get(cid, -1)
                    > median_followers)

    rows = [
        row("No social media presence",
            lambda cid, f: not f["fb"] and not f["tw"]),
        row("Facebook only", lambda cid, f: f["fb"]),
        row("Twitter only", lambda cid, f: f["tw"]),
        row("Facebook and Twitter", lambda cid, f: f["fb"] and f["tw"]),
        row("Presence of demo video", lambda cid, f: f["video"]),
        row("No demo video", lambda cid, f: not f["video"]),
        row(f"Facebook (>{median_likes:.0f} likes)",
            lambda cid, f: f["fb"] and hi_likes(cid)),
        row(f"Twitter (>{median_tweets:.0f} tweets)",
            lambda cid, f: f["tw"] and hi_tweets(cid)),
        row(f"Twitter (>{median_followers:.0f} followers)",
            lambda cid, f: f["tw"] and hi_followers(cid)),
        row(f"Facebook (>{median_likes:.0f} likes) and "
            f"Twitter (>{median_followers:.0f} followers)",
            lambda cid, f: f["fb"] and f["tw"] and hi_likes(cid)
            and hi_followers(cid)),
        row(f"Facebook (>{median_likes:.0f} likes) and "
            f"Twitter (>{median_tweets:.0f} tweets)",
            lambda cid, f: f["fb"] and f["tw"] and hi_likes(cid)
            and hi_tweets(cid)),
    ]
    return EngagementTable(
        rows=rows, total_companies=total,
        median_likes=median_likes, median_tweets=median_tweets,
        median_tw_followers=median_followers)


def _median(values: List[int]) -> float:
    if not values:
        return 0.0
    return float(np.median(np.asarray(values, dtype=np.float64)))
