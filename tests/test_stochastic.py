"""Random stream behavior: distributions, bounds, reproducibility."""

from __future__ import annotations

import math
import statistics

import pytest

from cpnsim.stochastic import (
    RngStream,
    bernoulli,
    exponential_int,
    normal_int,
    seed_label,
    uniform_int,
)


def stream(*path):
    return RngStream(*path)


# ---------------------------------------------------------------------------
# uniform_int
# ---------------------------------------------------------------------------

class TestUniformInt:
    def test_stays_inside_inclusive_bounds(self):
        rng = stream(1)
        draws = [uniform_int(rng, 10_000, 70_000) for _ in range(5_000)]
        assert all(10_000 <= d <= 70_000 for d in draws)

    def test_degenerate_interval_is_constant(self):
        rng = stream(2)
        assert all(uniform_int(rng, 5, 5) == 5 for _ in range(100))

    def test_both_endpoints_reachable(self):
        rng = stream(3)
        draws = {uniform_int(rng, 1, 6) for _ in range(2_000)}
        assert draws == {1, 2, 3, 4, 5, 6}

    def test_coin_frequency_near_half(self):
        rng = stream(4)
        n = 100_000
        ones = sum(uniform_int(rng, 0, 1) for _ in range(n))
        assert 0.48 <= ones / n <= 0.52

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            uniform_int(stream(5), 7, 6)


# ---------------------------------------------------------------------------
# normal_int
# ---------------------------------------------------------------------------

class TestNormalInt:
    def test_zero_variance_returns_mean(self):
        rng = stream(10)
        assert all(normal_int(rng, 20_000, 0) == 20_000 for _ in range(50))
        assert normal_int(rng, 0.0, 0.0) == 0

    def test_sample_mean_tracks_parameter(self):
        rng = stream(11)
        n = 100_000
        mean = statistics.fmean(normal_int(rng, 20_000, 10_000) for _ in range(n))
        assert abs(mean - 20_000) / 20_000 < 0.01

    def test_sample_sd_tracks_variance_parameter(self):
        # The second parameter is a variance: sd of draws must approach
        # sqrt(10_000) = 100, nowhere near 10_000.
        rng = stream(12)
        sd = statistics.pstdev(normal_int(rng, 20_000, 10_000) for _ in range(50_000))
        assert abs(sd - 100.0) < 5.0

    def test_never_negative(self):
        rng = stream(13)
        assert all(normal_int(rng, 0, 10_000) >= 0 for _ in range(5_000))

    def test_fractional_parameters_accepted(self):
        rng = stream(14)
        draws = [normal_int(rng, 800.0, 700.0) for _ in range(100_000)]
        assert all(d >= 0 for d in draws)
        assert abs(statistics.fmean(draws) - 800.0) / 800.0 < 0.02
        assert normal_int(rng, 100.0, 70.0) >= 0

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            normal_int(stream(15), 10, -1)


# ---------------------------------------------------------------------------
# exponential_int
# ---------------------------------------------------------------------------

class TestExponentialInt:
    def test_never_negative(self):
        rng = stream(20)
        assert all(exponential_int(rng, 500) >= 0 for _ in range(5_000))

    def test_mean_and_variance_match_distribution(self):
        rng = stream(21)
        draws = [exponential_int(rng, 500) for _ in range(100_000)]
        mean = statistics.fmean(draws)
        var = statistics.pvariance(draws)
        assert abs(mean - 500) / 500 < 0.02
        assert abs(var - 500**2) / 500**2 < 0.10

    def test_non_positive_mean_rejected(self):
        with pytest.raises(ValueError):
            exponential_int(stream(22), 0)
        with pytest.raises(ValueError):
            exponential_int(stream(22), -3)


# ---------------------------------------------------------------------------
# bernoulli
# ---------------------------------------------------------------------------

class TestBernoulli:
    def test_certain_outcomes(self):
        rng = stream(30)
        assert all(bernoulli(rng, 1.0) for _ in range(200))
        assert not any(bernoulli(rng, 0.0) for _ in range(200))

    def test_frequency_at_point_nine(self):
        rng = stream(31)
        n = 100_000
        hits = sum(bernoulli(rng, 0.9) for _ in range(n))
        assert 0.89 <= hits / n <= 0.91

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(stream(32), 1.5)
        with pytest.raises(ValueError):
            bernoulli(stream(32), -0.1)


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

class TestStreams:
    def test_same_path_same_sequence(self):
        # A stream is a pure function of its seed path.
        first, second = stream(1, 4, 2), stream(1, 4, 2)
        a = [first.pick(1000) for _ in range(20)]
        b = [second.pick(1000) for _ in range(20)]
        assert a == b

    def test_distinct_paths_decorrelate(self):
        def draws(*path):
            rng = stream(*path)
            return [rng.pick(1000) for _ in range(20)]

        a, b, c = draws(1, 0, 0), draws(1, 0, 1), draws(2, 0, 0)
        assert a != b and a != c and b != c

    def test_label_joins_path_with_colons(self):
        assert stream(1, 0, 29).label == "1:0:29"
        assert stream(42).label == "42"
        assert seed_label((1, 0, 29)) == "1:0:29"

    def test_pick_is_uniform_over_range(self):
        rng = stream(8)
        picks = [rng.pick(3) for _ in range(30_000)]
        assert set(picks) == {0, 1, 2}
        for v in (0, 1, 2):
            assert math.isclose(picks.count(v) / 30_000, 1 / 3, abs_tol=0.02)

    def test_invalid_seed_parts_rejected(self):
        with pytest.raises(ValueError):
            RngStream()
        with pytest.raises((TypeError, ValueError)):
            RngStream("one")
        with pytest.raises(ValueError):
            RngStream(-1)
        # A bool is an int to Python, but not a seed part.
        for path in ((True,), (3, False)):
            with pytest.raises(ValueError, match="ints >= 0"):
                RngStream(*path)
