"""Tests for the Figure 3 investor-activity analysis."""

import pytest


@pytest.fixture(scope="module")
def activity(crawled_platform):
    return crawled_platform.run_plugin("investor_activity")


class TestDistribution:
    def test_long_tail(self, activity):
        assert activity.median_investments == 1.0
        assert activity.mean_investments > activity.median_investments
        assert activity.max_investments > 5 * activity.mean_investments

    def test_cdf_consistency(self, activity):
        cdf = activity.investments_cdf
        assert cdf(0) == 0.0                     # nobody has 0 (omitted)
        assert cdf(activity.max_investments) == 1.0
        assert cdf.mean == pytest.approx(activity.mean_investments)

    def test_matches_graph(self, activity, investor_graph):
        assert activity.investments_cdf.n == investor_graph.num_investors

    def test_follows_exceed_investments(self, activity):
        """Investors follow far more companies than they invest in (§3)."""
        assert activity.mean_follows_per_investor \
            > 2 * activity.mean_investments

    def test_render_smoke(self, activity):
        assert "investments per investor" in activity.render_cdf()

    def test_render_is_the_cdf_chart_of_the_degrees(self, activity,
                                                    investor_graph):
        from repro.viz.ascii import ascii_cdf
        assert activity.render_cdf() == ascii_cdf(
            investor_graph.out_degrees().tolist(),
            label="investments per investor")
