"""§7 extension: predicting fundraising success from observable features.

"We further plan to use characteristics such as node degree,
connectivity, and measures of centrality ... to predict the success or
failure of a startup." Implemented as an L2-regularized logistic
regression (from-scratch numpy gradient ascent — no sklearn offline)
over per-company features assembled from the crawled datasets:

* AngelList: follower count, demo video, social links;
* the investment graph: number of backers (in-degree);
* Facebook/Twitter: log-scaled engagement metrics.

Reports train/test AUC and per-feature coefficients so the feature-
selection question the paper poses ("which graph statistics are the most
useful?") is answerable from the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.engine.context import SparkLiteContext
from repro.graph.bipartite import BipartiteGraph
from repro.util.rng import RngStream

FEATURE_NAMES = (
    "log_follower_count",
    "has_facebook",
    "has_twitter",
    "has_video",
    "log_fb_likes",
    "log_tw_statuses",
    "log_tw_followers",
    "num_backers",
)


@dataclass
class PredictionResult:
    """Fitted model and held-out quality."""

    feature_names: Tuple[str, ...]
    coefficients: np.ndarray
    intercept: float
    train_auc: float
    test_auc: float
    num_train: int
    num_test: int
    positive_rate: float

    def top_features(self, n: int = 5) -> List[Tuple[str, float]]:
        order = np.argsort(-np.abs(self.coefficients))
        return [(self.feature_names[i], float(self.coefficients[i]))
                for i in order[:n]]


def predict_success(sc: SparkLiteContext, dfs, graph: BipartiteGraph,
                    angellist_root: str = "/crawl/angellist",
                    crunchbase_dir: str = "/crawl/crunchbase/organizations",
                    facebook_dir: str = "/crawl/facebook/pages",
                    twitter_dir: str = "/crawl/twitter/profiles",
                    test_fraction: float = 0.3,
                    l2: float = 1e-3,
                    epochs: int = 300,
                    learning_rate: float = 0.3,
                    seed: int = 0) -> PredictionResult:
    """Assemble features, fit the logistic model, report AUC."""
    startups = sc.json_dataset(dfs, f"{angellist_root}/startups").collect()
    raised = set(
        sc.json_dataset(dfs, crunchbase_dir)
        .filter(lambda org: org.get("num_funding_rounds", 0) > 0)
        .map(lambda org: int(org["angellist_id"]))
        .collect())
    likes = dict(sc.json_dataset(dfs, facebook_dir)
                 .map(lambda p: (int(p["angellist_id"]),
                                 int(p["fan_count"]))).collect())
    twitter = dict(sc.json_dataset(dfs, twitter_dir)
                   .map(lambda p: (int(p["angellist_id"]),
                                   (int(p["statuses_count"]),
                                    int(p["followers_count"])))).collect())
    in_degrees = dict(zip(graph.companies, graph.in_degrees().tolist()))

    rows: List[List[float]] = []
    labels: List[float] = []
    for s in startups:
        cid = int(s["id"])
        statuses, followers = twitter.get(cid, (0, 0))
        rows.append([
            math.log1p(int(s.get("follower_count", 0))),
            1.0 if s.get("facebook_url") else 0.0,
            1.0 if s.get("twitter_url") else 0.0,
            1.0 if s.get("video_url") else 0.0,
            math.log1p(likes.get(cid, 0)),
            math.log1p(statuses),
            math.log1p(followers),
            float(in_degrees.get(cid, 0)),
        ])
        labels.append(1.0 if cid in raised else 0.0)

    X = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    mean = X.mean(axis=0)
    std = np.maximum(1e-9, X.std(axis=0))
    X = (X - mean) / std

    rng = RngStream(seed, "prediction")
    order = rng.np.permutation(len(y))
    cut = int(round(len(y) * (1.0 - test_fraction)))
    train_idx, test_idx = order[:cut], order[cut:]

    weights, intercept = _fit_logistic(X[train_idx], y[train_idx],
                                       l2=l2, epochs=epochs,
                                       learning_rate=learning_rate)
    train_scores = _sigmoid(X[train_idx] @ weights + intercept)
    test_scores = _sigmoid(X[test_idx] @ weights + intercept)

    return PredictionResult(
        feature_names=FEATURE_NAMES,
        coefficients=weights,
        intercept=float(intercept),
        train_auc=auc_score(y[train_idx], train_scores),
        test_auc=auc_score(y[test_idx], test_scores),
        num_train=len(train_idx),
        num_test=len(test_idx),
        positive_rate=float(y.mean()),
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))


def _fit_logistic(X: np.ndarray, y: np.ndarray, l2: float,
                  epochs: int, learning_rate: float
                  ) -> Tuple[np.ndarray, float]:
    """Full-batch gradient ascent on the regularized log-likelihood."""
    n, d = X.shape
    weights = np.zeros(d)
    intercept = 0.0
    for _ in range(epochs):
        scores = _sigmoid(X @ weights + intercept)
        error = y - scores
        weights += learning_rate * (X.T @ error / n - l2 * weights)
        intercept += learning_rate * float(error.mean())
    return weights, intercept


def auc_score(labels: np.ndarray, scores: np.ndarray) -> float:
    """ROC AUC via the rank statistic (ties handled by midranks)."""
    labels = np.asarray(labels, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    positives = labels > 0.5
    n_pos = int(positives.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    order = np.argsort(scores)
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    rank = 1
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        midrank = (rank + rank + (j - i)) / 2.0
        ranks[order[i:j + 1]] = midrank
        rank += (j - i) + 1
        i = j + 1
    pos_rank_sum = float(ranks[positives].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
