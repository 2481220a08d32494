"""X3 / §7 — predicting fundraising success from graph/social features.

The paper hypothesizes that degree/centrality features predict success.
With the calibrated world, engagement features are genuinely
informative: held-out AUC must comfortably beat chance, and social
metrics must rank among the top coefficients.
"""

from benchmarks.conftest import WORLD_SEED, paper_row


def test_x3_success_prediction(benchmark, bench_platform, bench_graph):
    from repro.analysis.prediction import predict_success

    result = benchmark.pedantic(
        lambda: predict_success(bench_platform.sc, bench_platform.dfs,
                                bench_graph, seed=WORLD_SEED),
        rounds=3, iterations=1)

    print("\n§7 — success prediction (logistic regression)")
    print(paper_row("train / test examples", "—",
                    f"{result.num_train:,} / {result.num_test:,}"))
    print(paper_row("positive rate", "≈1.5%",
                    f"{100 * result.positive_rate:.2f}%"))
    print(paper_row("held-out AUC", ">0.5 (hypothesized predictive)",
                    f"{result.test_auc:.3f}"))
    for name, coef in result.top_features(5):
        print(paper_row(f"coef {name}", "—", f"{coef:+.3f}"))

    assert result.test_auc > 0.75
    assert result.train_auc > 0.75
    top = {name for name, _c in result.top_features(4)}
    assert top & {"log_fb_likes", "log_tw_statuses", "log_tw_followers",
                  "has_facebook", "has_twitter", "has_video"}
