"""Tests for deterministic RNG streams."""

import numpy as np
import pytest

from repro.dfs.filesystem import MiniDfs
from repro.serve.outbox import DeliveryOutbox
from repro.util.clock import SimClock
from repro.util.rng import RngStream, derive_seed, jittered_backoff


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "x") == derive_seed(42, "x")

    def test_label_sensitivity(self):
        assert derive_seed(42, "x") != derive_seed(42, "y")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_64_bit_range(self):
        value = derive_seed(123456789, "label")
        assert 0 <= value < 2 ** 64


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(7)
        b = RngStream(7)
        assert [a.py.random() for _ in range(5)] == \
               [b.py.random() for _ in range(5)]
        assert np.allclose(a.np.random(5), b.np.random(5))

    def test_children_independent_of_sibling_creation(self):
        root = RngStream(7)
        child_a_first = root.child("a").py.random()
        root2 = RngStream(7)
        root2.child("b")  # creating an extra child must not disturb "a"
        assert root2.child("a").py.random() == child_a_first

    def test_children_iterator(self):
        root = RngStream(3)
        kids = list(root.children("w", 4))
        assert len(kids) == 4
        assert len({k.seed for k in kids}) == 4

    def test_bernoulli_bounds(self):
        rng = RngStream(1)
        with pytest.raises(ValueError):
            rng.bernoulli(1.5)
        assert rng.bernoulli(0.0) is False
        assert rng.bernoulli(1.0) is True

    def test_zipf_bounded_range(self):
        rng = RngStream(5)
        draws = rng.zipf_bounded(2.0, 50, size=2000)
        assert draws.min() >= 1
        assert draws.max() <= 50

    def test_zipf_bounded_scalar(self):
        value = RngStream(5).zipf_bounded(2.0, 10)
        assert isinstance(value, int)
        assert 1 <= value <= 10

    def test_zipf_bounded_heavy_head(self):
        draws = RngStream(5).zipf_bounded(2.0, 1000, size=5000)
        # P(1) = 1/zeta(2) ≈ 0.61 for alpha=2
        assert 0.5 < (draws == 1).mean() < 0.72

    def test_zipf_invalid_max(self):
        with pytest.raises(ValueError):
            RngStream(1).zipf_bounded(2.0, 0)

    # the draw once spelled Generator.choice(p=...) with the weight table
    # rebuilt per call; the cached table must draw the same values and
    # leave the generator where choice left it
    @pytest.mark.parametrize("alpha, max_value, size", [
        (2.0, 50, 2000), (1.1, 5000, None), (0.8, 1, None), (1.5, 1, 7),
        (1.2, 3000, (3, 4)), (2, 10, None), (1.07, 100_000, 0)])
    def test_zipf_bounded_draws_as_generator_choice(self, alpha, max_value,
                                                    size):
        cached, chosen = RngStream(9), RngStream(9)
        weights = np.arange(1, max_value + 1, dtype=np.float64) ** -alpha
        weights /= weights.sum()
        for _ in range(3):
            got = cached.zipf_bounded(alpha, max_value, size=size)
            want = chosen.np.choice(max_value, size=size, p=weights) + 1
            if size is None:
                assert type(got) is int and got == int(want)
            else:
                assert got.dtype == np.int64 and got.shape == want.shape
                assert np.array_equal(got, want)
        assert (cached.np.bit_generator.state
                == chosen.np.bit_generator.state)


class TestJitteredBackoff:
    """One helper behind the client's retry sleeps and the outbox's
    redelivery delays; both old formulas are pinned here float for
    float, so a same-seed crawl and delivery log replay unchanged."""

    @staticmethod
    def _client_formula(base, jitter, seed, path, retry_index, requests):
        backoff = base * (2 ** retry_index)
        if jitter > 0.0:
            label = f"{path}:{retry_index}:{requests}"
            fraction = (derive_seed(seed, label) % 100_000) / 100_000
            backoff *= 1.0 + jitter * fraction
        return backoff

    @staticmethod
    def _outbox_formula(base_s, max_s, seed, nid, attempt):
        base = base_s * (2 ** max(0, attempt - 1))
        jitter = (derive_seed(seed, f"backoff:{nid}:a{attempt}")
                  % 100_000) / 100_000
        return round(min(max_s, base * (1.0 + 0.5 * jitter)), 9)

    @pytest.mark.parametrize("jitter", [0.0, 0.1, 0.25, 1.0])
    def test_matches_the_client_formula(self, jitter):
        for seed in (0, 7, 31337):
            for retry in range(6):
                for requests in (0, 3, 1000):
                    path = f"/1/users/{requests}/following"
                    assert jittered_backoff(
                        0.5, retry, jitter, seed,
                        f"{path}:{retry}:{requests}") == \
                        self._client_formula(0.5, jitter, seed, path, retry,
                                             requests)

    def test_matches_the_outbox_formula(self):
        for seed in (0, 3, 7):
            outbox = DeliveryOutbox(MiniDfs(num_datanodes=3), SimClock(),
                                    {}, seed=seed, retry_base_s=5.0,
                                    retry_max_s=300.0)
            for attempt in range(0, 9):
                for nid in ("ntf-a", "ntf-sub-000001-day-0001:derived"):
                    assert outbox.backoff_s(nid, attempt) == \
                        self._outbox_formula(5.0, 300.0, seed, nid, attempt)
