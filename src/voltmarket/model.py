"""Core domain types: quantities, temporal encodings, exogenous traces and the
lookahead observation window handed to the pricing agent."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Energies are kWh per timestep, prices currency units per kWh. Both are plain
# floats; invariants (finite, non-negative) are enforced where values enter the
# system (trace ingestion, specs, environment steps).
EnergyKwh = float
PricePerKwh = float

MINUTES_PER_DAY = 1440


class TraceRangeError(IndexError):
    """Requested window falls outside the available trace data."""


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Horizon:
    """Lookahead length p and timestep size; observation windows hold p+1 entries."""

    p: int = 3
    timestep_minutes: int = 60

    def __post_init__(self) -> None:
        problems = []
        if self.p < 0:
            problems.append(f"p must be >= 0, got {self.p}")
        if self.timestep_minutes <= 0:
            problems.append(f"timestep_minutes must be > 0, got {self.timestep_minutes}")
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def window_length(self) -> int:
        return self.p + 1


@dataclass(frozen=True)
class WeatherSample:
    """One timestep of weather: temperature (degC), normalized irradiance, wind (m/s)."""

    temperature_c: float
    solar_irradiance: float
    wind_speed: float

    def __post_init__(self) -> None:
        _require_finite("temperature_c", self.temperature_c)
        _require_finite("solar_irradiance", self.solar_irradiance)
        _require_finite("wind_speed", self.wind_speed)
        if not 0.0 <= self.solar_irradiance <= 1.0:
            raise ValueError(f"solar_irradiance must lie in [0, 1], got {self.solar_irradiance}")
        if self.wind_speed < 0.0:
            raise ValueError(f"wind_speed must be >= 0, got {self.wind_speed}")


@dataclass(frozen=True)
class TemporalFeatures:
    """Cyclic hour-of-day encoding plus day of week (0 = Monday)."""

    hour_sin: float
    hour_cos: float
    day_of_week: int


def encode_temporal(timestamp_min: float, timestep_minutes: int = 60) -> TemporalFeatures:
    """Encode minutes-since-epoch as hour-angle sin/cos and day of week.

    The epoch is a Monday 00:00. Timestamps are snapped down to the start of
    the containing timestep before encoding, so every timestamp within one
    step maps to the same features. Total function: no errors.
    """
    step_start = math.floor(timestamp_min / timestep_minutes) * timestep_minutes
    minute_of_day = step_start % MINUTES_PER_DAY
    theta = 2.0 * math.pi * minute_of_day / MINUTES_PER_DAY
    day_of_week = int(step_start // MINUTES_PER_DAY) % 7
    return TemporalFeatures(math.sin(theta), math.cos(theta), day_of_week)


@dataclass(frozen=True)
class ScenarioTraces:
    """Exogenous per-timestep inputs: weather, wholesale purchase price, and the
    installed renewable capacities that turn weather into generation."""

    weather: tuple[WeatherSample, ...]
    purchase_price: tuple[float, ...]
    solar_capacity_kw: float
    wind_capacity_kw: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "weather", tuple(self.weather))
        object.__setattr__(self, "purchase_price", tuple(float(p) for p in self.purchase_price))
        if len(self.weather) != len(self.purchase_price):
            raise ValueError(
                f"weather ({len(self.weather)}) and purchase_price "
                f"({len(self.purchase_price)}) traces must have equal length"
            )
        for i, price in enumerate(self.purchase_price):
            _require_finite(f"purchase_price[{i}]", price)
            if price < 0.0:
                raise ValueError(f"purchase_price[{i}] must be >= 0, got {price}")
        if not self.solar_capacity_kw >= 0.0:
            raise ValueError(f"solar_capacity_kw must be >= 0, got {self.solar_capacity_kw}")
        if not self.wind_capacity_kw >= 0.0:
            raise ValueError(f"wind_capacity_kw must be >= 0, got {self.wind_capacity_kw}")

    def __len__(self) -> int:
        return len(self.weather)


def renewable_generation(
    weather: WeatherSample,
    solar_capacity_kw: float,
    wind_capacity_kw: float,
    timestep_minutes: int,
) -> EnergyKwh:
    """Energy produced in one timestep from solar and wind capacity.

    Solar output scales linearly with normalized irradiance; wind follows a
    cubic power curve capped at a rated speed of 12 m/s.
    """
    wind_factor = min(1.0, (weather.wind_speed / 12.0) ** 3)
    power_kw = solar_capacity_kw * weather.solar_irradiance + wind_capacity_kw * wind_factor
    return power_kw * timestep_minutes / 60.0


@dataclass(frozen=True, eq=False)
class StateWindow:
    """The agent observation at timestep t: eight channels of length p+1.

    Index 0 of each channel is the momentary value; indices 1..p look ahead.
    The demand channel carries the current demand persisted forward, since
    future demand is unobserved. The seven other channels are read directly
    from the traces (perfect foresight) and depend only on the traces, the
    horizon and t.

    Three fields are stored. demand is each window's own array. exogenous
    holds the seven non-demand channels as one read-only raw row of
    7 * (p+1) floats, in feature order: renewable, purchase price,
    temperature, irradiance, wind, hour sin, hour cos; windows that differ
    only in demand can share it (see with_demand). renewable and
    purchase_price are read-only views into it.
    """

    demand: np.ndarray
    exogenous: np.ndarray
    t: int

    @property
    def window_length(self) -> int:
        return len(self.demand)

    @property
    def renewable(self) -> np.ndarray:
        return self.exogenous[: len(self.demand)]

    @property
    def purchase_price(self) -> np.ndarray:
        n = len(self.demand)
        return self.exogenous[n : 2 * n]


def _persisted_demand(demand_now: EnergyKwh, n: int) -> np.ndarray:
    """A fresh demand channel of n entries, each the checked demand_now."""
    demand_now = _require_finite("demand_now", demand_now)
    if demand_now < 0.0:
        raise ValueError(f"demand_now must be >= 0, got {demand_now}")
    demand = np.empty(n)
    demand.fill(demand_now)
    return demand


def with_demand(window: StateWindow, demand_now: EnergyKwh) -> StateWindow:
    """The same window with demand_now persisted over a fresh demand channel.

    The exogenous row is shared with window, not copied.
    """
    demand = _persisted_demand(demand_now, window.window_length)
    return StateWindow(demand=demand, exogenous=window.exogenous, t=window.t)


def build_state_window(
    traces: ScenarioTraces,
    t: int,
    horizon: Horizon,
    demand_now: EnergyKwh,
) -> StateWindow:
    """Assemble the p+1 observation window anchored at timestep t."""
    p = horizon.p
    if t < 0 or t + p >= len(traces):
        raise TraceRangeError(
            f"window [{t}, {t + p}] out of range for traces of length {len(traces)}"
        )
    n = p + 1
    demand = _persisted_demand(demand_now, n)
    step = horizon.timestep_minutes
    weather = traces.weather[t : t + n]
    temporal = tuple(encode_temporal((t + k) * step, step) for k in range(n))
    row = [
        renewable_generation(w, traces.solar_capacity_kw, traces.wind_capacity_kw, step)
        for w in weather
    ]
    row += traces.purchase_price[t : t + n]
    row += [w.temperature_c for w in weather]
    row += [w.solar_irradiance for w in weather]
    row += [w.wind_speed for w in weather]
    row += [tf.hour_sin for tf in temporal]
    row += [tf.hour_cos for tf in temporal]
    exogenous = np.array(row, dtype=float)
    exogenous.setflags(write=False)
    return StateWindow(demand=demand, exogenous=exogenous, t=t)
