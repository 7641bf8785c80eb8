import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from voltmarket import (
    Horizon,
    TraceRangeError,
    WeatherSample,
    build_state_window,
    encode_temporal,
)

from .helpers import constant_traces, varied_traces


class TestEncodeTemporal:
    def test_midnight(self):
        tf = encode_temporal(0)
        assert tf.hour_sin == 0.0
        assert tf.hour_cos == 1.0
        assert tf.day_of_week == 0

    def test_six_am_is_quarter_turn(self):
        tf = encode_temporal(360)
        assert tf.hour_sin == pytest.approx(1.0)
        assert tf.hour_cos == pytest.approx(0.0, abs=1e-12)
        assert tf.day_of_week == 0

    def test_daily_periodicity(self):
        day0 = encode_temporal(0)
        day1 = encode_temporal(1440)
        assert day1.day_of_week == 1
        assert day1.hour_sin == day0.hour_sin
        assert day1.hour_cos == day0.hour_cos

    def test_week_wraps(self):
        assert encode_temporal(7 * 1440).day_of_week == 0

    def test_snaps_to_timestep(self):
        assert encode_temporal(359, timestep_minutes=60) == encode_temporal(300)

    @given(st.integers(min_value=0, max_value=10_000_000))
    def test_unit_circle(self, timestamp):
        tf = encode_temporal(timestamp, timestep_minutes=15)
        assert tf.hour_sin**2 + tf.hour_cos**2 == pytest.approx(1.0, abs=1e-9)
        assert 0 <= tf.day_of_week <= 6


class TestDomainTypes:
    def test_horizon_window_length(self):
        assert Horizon(3, 60).window_length == 4

    def test_horizon_rejects_negative_p(self):
        with pytest.raises(ValueError):
            Horizon(-1, 60)

    def test_horizon_rejects_zero_timestep(self):
        with pytest.raises(ValueError):
            Horizon(0, 0)

    def test_weather_rejects_out_of_range_irradiance(self):
        with pytest.raises(ValueError):
            WeatherSample(10.0, 1.5, 3.0)

    def test_weather_rejects_negative_wind(self):
        with pytest.raises(ValueError):
            WeatherSample(10.0, 0.5, -1.0)

    def test_weather_rejects_nan(self):
        with pytest.raises(ValueError):
            WeatherSample(math.nan, 0.5, 1.0)


class TestBuildStateWindow:
    def test_degenerate_horizon(self):
        traces = constant_traces(4)
        window = build_state_window(traces, 0, Horizon(0, 60), 5.0)
        for channel in (window.demand, window.renewable, window.purchase_price):
            assert len(channel) == 1
        assert len(window.exogenous) == 7
        assert window.demand[0] == 5.0

    def test_constant_traces_give_constant_channels(self):
        traces = constant_traces(8, irradiance=0.5, purchase_price=0.1, solar_capacity_kw=20.0)
        window = build_state_window(traces, 1, Horizon(3, 60), 2.0)
        assert np.all(window.renewable == 10.0)
        assert np.all(window.purchase_price == 0.1)
        assert np.all(window.demand == 2.0)

    def test_renewable_channel_reads_traces_directly(self):
        # Hand oracle: energy = capacity * irradiance for a 60-minute step.
        irr = (0.5, 0.7, 0.9, 0.2)
        traces = constant_traces(4)
        weather = tuple(WeatherSample(15.0, x, 0.0) for x in irr)
        traces = type(traces)(
            weather=weather,
            purchase_price=traces.purchase_price,
            solar_capacity_kw=10.0,
            wind_capacity_kw=0.0,
        )
        window = build_state_window(traces, 0, Horizon(2, 60), 1.0)
        assert window.renewable.tolist() == [5.0, 7.0, 9.0]

    def test_demand_channel_is_persistence(self):
        traces = varied_traces(6)
        window = build_state_window(traces, 0, Horizon(2, 60), 3.5)
        assert window.demand.tolist() == [3.5, 3.5, 3.5]

    def test_shifting_property(self):
        traces = varied_traces(10, seed=5)
        horizon = Horizon(3, 60)
        w0 = build_state_window(traces, 2, horizon, 1.0)
        w1 = build_state_window(traces, 3, horizon, 1.0)
        assert w1.renewable[:-1].tolist() == w0.renewable[1:].tolist()
        assert w1.purchase_price[:-1].tolist() == w0.purchase_price[1:].tolist()

    @pytest.mark.parametrize("t", [-1, 5, 100])
    def test_out_of_range(self, t):
        traces = constant_traces(6)
        with pytest.raises(TraceRangeError):
            build_state_window(traces, t, Horizon(2, 60), 1.0)

    def test_all_channels_share_length(self):
        traces = varied_traces(12)
        for t in range(9):
            window = build_state_window(traces, t, Horizon(3, 60), 1.0)
            lengths = {
                len(window.demand),
                len(window.renewable),
                len(window.purchase_price),
            }
            assert lengths == {4}
            assert len(window.exogenous) == 7 * 4
