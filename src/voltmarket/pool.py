"""Scenario pool construction: stratified sweeps over customer-mix parameters
plus synthetic weather, price and load traces."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .customers import Battery, CustomerSpec
from .env import Scenario
from .model import Horizon, ScenarioTraces, WeatherSample


class PoolConfigError(ValueError):
    """Pool configuration cannot produce scenarios."""


@dataclass(frozen=True)
class PoolConfig:
    """Sweep ranges and fixed knobs for a pool of scenarios.

    Each (lo, hi) range is swept by stratified midpoints across the pool;
    everything else is shared by all scenarios.
    """

    horizon: Horizon
    n_scenarios: int = 8
    customer_count: int = 4
    storage_fraction: tuple[float, float] = (0.25, 0.75)
    cooperative_fraction: tuple[float, float] = (0.0, 1.0)
    elasticity: tuple[float, float] = (-1.2, -0.4)
    episode_length: int = 168
    solar_capacity_kw: float = 30.0
    wind_capacity_kw: float = 12.0
    reference_price: float = 0.15
    soc_levels: int = 5

    def violations(self) -> list[str]:
        problems: list[str] = []
        if self.n_scenarios <= 0:
            problems.append(f"n_scenarios must be > 0, got {self.n_scenarios}")
        if self.customer_count <= 0:
            problems.append(f"customer_count must be > 0, got {self.customer_count}")
        if self.episode_length <= 0:
            problems.append(f"episode_length must be > 0, got {self.episode_length}")
        for name, (lo, hi) in (
            ("storage_fraction", self.storage_fraction),
            ("cooperative_fraction", self.cooperative_fraction),
            ("elasticity", self.elasticity),
        ):
            if lo > hi:
                problems.append(f"{name} range is empty: [{lo}, {hi}]")
        for name, (lo, hi) in (
            ("storage_fraction", self.storage_fraction),
            ("cooperative_fraction", self.cooperative_fraction),
        ):
            if lo < 0.0 or hi > 1.0:
                problems.append(f"{name} range must lie within [0, 1], got [{lo}, {hi}]")
        if self.elasticity[1] > 0.0:
            problems.append(f"elasticity range must be <= 0, got {self.elasticity}")
        for name in ("solar_capacity_kw", "wind_capacity_kw"):
            if getattr(self, name) < 0.0:
                problems.append(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.reference_price <= 0.0:
            problems.append(f"reference_price must be > 0, got {self.reference_price}")
        if self.soc_levels < 2:
            problems.append(f"soc_levels must be >= 2, got {self.soc_levels}")
        return problems


def stratified_midpoints(lo: float, hi: float, n: int) -> np.ndarray:
    """Midpoint of each of n equal strata over [lo, hi]."""
    if n <= 0:
        raise PoolConfigError(f"stratification requires n > 0, got {n}")
    return lo + (np.arange(n) + 0.5) / n * (hi - lo)


def _hour_of_day(step: int, timestep_minutes: int) -> float:
    return (step * timestep_minutes / 60.0) % 24.0


def synth_traces(
    config: PoolConfig, rng: np.random.Generator, length: int
) -> ScenarioTraces:
    """Synthetic exogenous traces: diurnal-sinusoid irradiance with a per-day
    clear-sky factor, AR(1) wind, and a morning/evening-peaked purchase price."""
    tm = config.horizon.timestep_minutes
    steps_per_day = max(1, round(24 * 60 / tm))
    n_days = length // steps_per_day + 2
    clearsky = rng.uniform(0.65, 1.0, size=n_days)

    weather = []
    purchase = []
    wind = rng.uniform(3.0, 8.0)
    for k in range(length):
        h = _hour_of_day(k, tm)
        day = k // steps_per_day
        irr = max(0.0, math.sin(math.pi * (h - 6.0) / 12.0)) * clearsky[day]
        wind = 6.0 + 0.8 * (wind - 6.0) + rng.normal(0.0, 1.2)
        wind = max(0.0, wind)
        temp = 12.0 + 8.0 * math.sin(math.pi * (h - 9.0) / 12.0) + rng.normal(0.0, 0.4)
        weather.append(WeatherSample(temp, min(1.0, irr), wind))
        morning = math.exp(-0.5 * ((h - 8.0) / 1.5) ** 2)
        evening = math.exp(-0.5 * ((h - 19.0) / 2.0) ** 2)
        price = 0.08 + 0.03 * morning + 0.05 * evening + rng.normal(0.0, 0.003)
        purchase.append(max(0.01, price))
    return ScenarioTraces(
        weather=tuple(weather),
        purchase_price=tuple(purchase),
        solar_capacity_kw=config.solar_capacity_kw,
        wind_capacity_kw=config.wind_capacity_kw,
    )


def _baseline_load(
    config: PoolConfig, rng: np.random.Generator, length: int
) -> tuple[float, ...]:
    """Residential-shaped load: morning bump, stronger evening peak, mild noise."""
    tm = config.horizon.timestep_minutes
    scale = rng.uniform(6.0, 14.0)
    load = []
    for k in range(length):
        h = _hour_of_day(k, tm)
        morning = math.exp(-0.5 * ((h - 7.5) / 1.8) ** 2)
        evening = math.exp(-0.5 * ((h - 19.0) / 2.5) ** 2)
        shape = 0.4 + 0.5 * morning + 1.0 * evening
        load.append(scale * shape * (1.0 + 0.05 * rng.normal()))
    return tuple(max(0.0, x) for x in load)


def _make_battery(rng: np.random.Generator, mean_load: float) -> Battery:
    capacity = float(rng.uniform(2.0, 4.0)) * mean_load
    rate = capacity / 2.0
    return Battery(
        capacity=capacity,
        max_charge_rate=rate,
        max_discharge_rate=rate,
        charge_efficiency=0.9,
        discharge_efficiency=0.9,
        soc=capacity / 2.0,
    )


def build_scenario_pool(
    config: PoolConfig,
    base_seed: int,
    traces: ScenarioTraces | None = None,
) -> list[Scenario]:
    """Derive n_scenarios deterministic scenarios from the sweep ranges.

    Scenario i takes stratum-midpoint values for each swept dimension (strata
    assignments beyond the first dimension are permuted to decorrelate the
    sweep) and seed base_seed + i. When ingested traces are supplied they
    replace the synthetic weather/price series in every scenario.
    """
    problems = config.violations()
    if problems:
        raise PoolConfigError("; ".join(problems))

    n = config.n_scenarios
    sweep_rng = np.random.default_rng(base_seed)
    storage_fracs = stratified_midpoints(*config.storage_fraction, n)
    coop_fracs = stratified_midpoints(*config.cooperative_fraction, n)[
        sweep_rng.permutation(n)
    ]
    elasticities = stratified_midpoints(*config.elasticity, n)[sweep_rng.permutation(n)]

    trace_length = config.episode_length + config.horizon.p + 1
    if traces is not None and len(traces) < trace_length:
        raise PoolConfigError(
            f"ingested traces of length {len(traces)} are shorter than the "
            f"required {trace_length}"
        )

    scenarios = []
    for i in range(n):
        seed = base_seed + i
        rng = np.random.default_rng(seed)
        scenario_traces = traces if traces is not None else synth_traces(config, rng, trace_length)

        count = config.customer_count
        n_storage = min(count, round(storage_fracs[i] * count))
        n_coop = min(count, round(coop_fracs[i] * count))
        coop_members = set(rng.permutation(count)[:n_coop].tolist())

        customers = []
        for c in range(count):
            baseline = _baseline_load(config, rng, trace_length)
            mean_load = sum(baseline) / len(baseline)
            if c < n_storage:
                customers.append(
                    CustomerSpec(
                        kind="storage",
                        cooperative=c in coop_members,
                        baseline_load=baseline,
                        reference_price=config.reference_price,
                        peak_weight=float(rng.uniform(0.0, 0.2)),
                        battery=_make_battery(rng, mean_load),
                        soc_levels=config.soc_levels,
                    )
                )
            else:
                customers.append(
                    CustomerSpec(
                        kind="elastic",
                        cooperative=c in coop_members,
                        baseline_load=baseline,
                        reference_price=config.reference_price,
                        peak_weight=0.0,
                        elasticity=float(elasticities[i]),
                    )
                )
        scenarios.append(
            Scenario(
                customers=tuple(customers),
                traces=scenario_traces,
                horizon=config.horizon,
                episode_length=config.episode_length,
                seed=seed,
            )
        )
    return scenarios
