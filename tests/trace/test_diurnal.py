"""Tests for the diurnal arrival profile."""

import random
from collections import Counter

import pytest

from repro.trace.diurnal import (
    DiurnalProfile,
    FLAT_PROFILE,
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    UK_TV_PROFILE,
)


class TestValidation:
    def test_needs_24_weights(self):
        with pytest.raises(ValueError):
            DiurnalProfile(hourly=(1.0,) * 23)

    def test_rejects_negative_weight(self):
        weights = [1.0] * 24
        weights[3] = -0.1
        with pytest.raises(ValueError):
            DiurnalProfile(hourly=tuple(weights))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            DiurnalProfile(hourly=(0.0,) * 24)

    def test_rejects_bad_weekend_multiplier(self):
        with pytest.raises(ValueError):
            DiurnalProfile(hourly=(1.0,) * 24, weekend_multiplier=0.0)


class TestIntensity:
    def test_uk_profile_peaks_in_evening(self):
        peak_hour = max(range(24), key=lambda h: UK_TV_PROFILE.intensity(h * SECONDS_PER_HOUR))
        assert 20 <= peak_hour <= 22

    def test_uk_profile_trough_in_small_hours(self):
        trough = min(range(24), key=lambda h: UK_TV_PROFILE.intensity(h * SECONDS_PER_HOUR))
        assert 2 <= trough <= 5

    def test_flat_profile_constant(self):
        values = {FLAT_PROFILE.intensity(h * SECONDS_PER_HOUR) for h in range(24)}
        assert values == {1.0}

    def test_weekend_multiplier_applied(self):
        profile = DiurnalProfile(hourly=(1.0,) * 24, weekend_multiplier=2.0)
        monday = profile.intensity(12 * SECONDS_PER_HOUR)
        saturday = profile.intensity(5 * SECONDS_PER_DAY + 12 * SECONDS_PER_HOUR)
        assert saturday == pytest.approx(2 * monday)

    def test_is_weekend(self):
        assert not UK_TV_PROFILE.is_weekend(0.0)  # Monday
        assert UK_TV_PROFILE.is_weekend(5 * SECONDS_PER_DAY)  # Saturday
        assert UK_TV_PROFILE.is_weekend(6 * SECONDS_PER_DAY + 100)  # Sunday
        assert not UK_TV_PROFILE.is_weekend(7 * SECONDS_PER_DAY)  # Monday again

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            UK_TV_PROFILE.intensity(-1.0)


class TestCumulative:
    def test_length(self):
        cumulative = FLAT_PROFILE.hourly_cumulative(SECONDS_PER_DAY)
        assert len(cumulative) == 25

    def test_monotone(self):
        cumulative = UK_TV_PROFILE.hourly_cumulative(2 * SECONDS_PER_DAY)
        assert cumulative == sorted(cumulative)

    def test_partial_hours_round_up(self):
        cumulative = FLAT_PROFILE.hourly_cumulative(90 * 60.0)  # 1.5 h
        assert len(cumulative) == 3

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            FLAT_PROFILE.hourly_cumulative(0.0)


class TestSampling:
    def test_count_and_range(self):
        rng = random.Random(1)
        times = UK_TV_PROFILE.sample_times(500, SECONDS_PER_DAY, rng)
        assert len(times) == 500
        assert all(0 <= t < SECONDS_PER_DAY for t in times)

    def test_zero_count(self):
        assert UK_TV_PROFILE.sample_times(0, SECONDS_PER_DAY, random.Random(1)) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            UK_TV_PROFILE.sample_times(-1, SECONDS_PER_DAY, random.Random(1))

    def test_evening_heavier_than_night(self):
        rng = random.Random(2)
        times = UK_TV_PROFILE.sample_times(20_000, SECONDS_PER_DAY, rng)
        hours = Counter(int(t // SECONDS_PER_HOUR) for t in times)
        assert hours[21] > 5 * max(hours[3], 1)

    def test_flat_profile_roughly_uniform(self):
        rng = random.Random(3)
        times = FLAT_PROFILE.sample_times(24_000, SECONDS_PER_DAY, rng)
        hours = Counter(int(t // SECONDS_PER_HOUR) for t in times)
        assert min(hours.values()) > 800  # expectation 1000 per hour
        assert max(hours.values()) < 1200

    def test_deterministic_with_seed(self):
        a = UK_TV_PROFILE.sample_times(10, SECONDS_PER_DAY, random.Random(7))
        b = UK_TV_PROFILE.sample_times(10, SECONDS_PER_DAY, random.Random(7))
        assert a == b

    def test_samples_match_intensity_distribution(self):
        """Empirical hour frequencies track the normalised intensities."""
        rng = random.Random(4)
        n = 50_000
        times = UK_TV_PROFILE.sample_times(n, SECONDS_PER_DAY, rng)
        hours = Counter(int(t // SECONDS_PER_HOUR) for t in times)
        total_weight = sum(UK_TV_PROFILE.hourly)
        for hour in (3, 12, 21):
            expected = UK_TV_PROFILE.hourly[hour] / total_weight
            assert hours[hour] / n == pytest.approx(expected, rel=0.15)


def _reference_sample_times(profile, count, horizon, rng):
    """The original per-call sampler: rebuilds the table, draws the same."""
    import bisect

    cumulative = profile.hourly_cumulative(horizon)
    total = cumulative[-1]
    times = []
    for _ in range(count):
        point = rng.random() * total
        hour = bisect.bisect_right(cumulative, point) - 1
        hour = min(hour, len(cumulative) - 2)
        mass = cumulative[hour + 1] - cumulative[hour]
        frac = (point - cumulative[hour]) / mass if mass > 0 else rng.random()
        t = (hour + frac) * SECONDS_PER_HOUR
        times.append(min(t, horizon - 1e-6))
    return times


class _Scripted:
    """A stand-in RNG replaying fixed ``random()`` values."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


#: Night hours carry no demand at all.
_DARK_NIGHTS = DiurnalProfile(
    hourly=(0.0,) * 6 + (1.0,) * 12 + (0.5,) * 5 + (0.0,),
    weekend_multiplier=1.5,
)


class TestSamplingTable:
    """``sample_times`` builds its table once and draws as it always did."""

    @pytest.mark.parametrize("profile", [UK_TV_PROFILE, FLAT_PROFILE, _DARK_NIGHTS])
    @pytest.mark.parametrize(
        "horizon", [SECONDS_PER_DAY, 9.5 * SECONDS_PER_DAY, 1_234.5]
    )
    def test_equals_reference_draw_for_draw(self, profile, horizon):
        for seed in range(3):
            fast, slow = random.Random(seed), random.Random(seed)
            for count in (0, 1, 17, 400):
                assert profile.sample_times(
                    count, horizon, fast
                ) == _reference_sample_times(profile, count, horizon, slow)
            assert fast.getstate() == slow.getstate()

    def test_zero_mass_hour_draws_an_extra_uniform(self):
        # A point at the very top of the mass clamps into the last hour,
        # whose mass is zero: its place in the hour is one more draw.
        values = [1.0, 0.25, 0.5]
        fast = _Scripted(values)
        slow = _Scripted(values)
        times = _DARK_NIGHTS.sample_times(2, SECONDS_PER_DAY, fast)
        assert times == _reference_sample_times(_DARK_NIGHTS, 2, SECONDS_PER_DAY, slow)
        assert times[0] == 23.25 * SECONDS_PER_HOUR
        assert fast.values == slow.values == []

    def test_table_built_once_per_profile_and_horizon(self, monkeypatch):
        # A profile no other test builds, so no table of it is cached yet.
        profile = DiurnalProfile(hourly=(1.0,) * 23 + (2.0,), weekend_multiplier=1.375)
        calls = []
        original = DiurnalProfile.hourly_cumulative

        def counting(self, horizon):
            calls.append((self, horizon))
            return original(self, horizon)

        monkeypatch.setattr(DiurnalProfile, "hourly_cumulative", counting)
        rng = random.Random(5)
        for _ in range(4):
            profile.sample_times(10, 2 * SECONDS_PER_DAY, rng)
        profile.sample_times(10, 3 * SECONDS_PER_DAY, rng)
        assert calls == [
            (profile, 2 * SECONDS_PER_DAY),
            (profile, 3 * SECONDS_PER_DAY),
        ]

    def test_invalid_horizon_rejected_even_for_zero_count(self):
        with pytest.raises(ValueError):
            UK_TV_PROFILE.sample_times(0, 0.0, random.Random(1))
