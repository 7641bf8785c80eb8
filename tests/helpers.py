"""Shared test fixtures and independent oracles (kept separate from the
implementation so the dual-route checks stay honest)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from voltmarket import (
    Battery,
    CustomerSpec,
    Horizon,
    Scenario,
    ScenarioTraces,
    TemporalFeatures,
    TraceRangeError,
    WeatherSample,
    cooperative_adjustment,
    customer_cost,
    elastic_demand,
    encode_temporal,
    renewable_generation,
    storage_demand,
)


def constant_traces(
    length: int,
    irradiance: float = 0.5,
    wind: float = 0.0,
    temperature: float = 15.0,
    purchase_price: float = 0.10,
    solar_capacity_kw: float = 20.0,
    wind_capacity_kw: float = 0.0,
) -> ScenarioTraces:
    return ScenarioTraces(
        weather=tuple(WeatherSample(temperature, irradiance, wind) for _ in range(length)),
        purchase_price=tuple(purchase_price for _ in range(length)),
        solar_capacity_kw=solar_capacity_kw,
        wind_capacity_kw=wind_capacity_kw,
    )


def varied_traces(length: int, seed: int = 0, **kwargs) -> ScenarioTraces:
    rng = np.random.default_rng(seed)
    weather = tuple(
        WeatherSample(
            temperature_c=float(rng.uniform(0, 30)),
            solar_irradiance=float(rng.uniform(0, 1)),
            wind_speed=float(rng.uniform(0, 15)),
        )
        for _ in range(length)
    )
    prices = tuple(float(rng.uniform(0.05, 0.25)) for _ in range(length))
    return ScenarioTraces(
        weather=weather,
        purchase_price=prices,
        solar_capacity_kw=kwargs.get("solar_capacity_kw", 20.0),
        wind_capacity_kw=kwargs.get("wind_capacity_kw", 5.0),
    )


def make_battery(
    capacity: float = 4.0,
    rate: float = 2.0,
    eta_c: float = 0.9,
    eta_d: float = 0.9,
    soc: float | None = None,
) -> Battery:
    return Battery(
        capacity=capacity,
        max_charge_rate=rate,
        max_discharge_rate=rate,
        charge_efficiency=eta_c,
        discharge_efficiency=eta_d,
        soc=capacity / 2.0 if soc is None else soc,
    )


def elastic_spec(
    baseline: tuple[float, ...],
    elasticity: float = -0.8,
    cooperative: bool = False,
    reference_price: float = 0.15,
) -> CustomerSpec:
    return CustomerSpec(
        kind="elastic",
        cooperative=cooperative,
        baseline_load=baseline,
        reference_price=reference_price,
        elasticity=elasticity,
    )


def storage_spec(
    baseline: tuple[float, ...],
    battery: Battery | None = None,
    cooperative: bool = False,
    peak_weight: float = 0.0,
    soc_levels: int = 5,
    reference_price: float = 0.15,
) -> CustomerSpec:
    return CustomerSpec(
        kind="storage",
        cooperative=cooperative,
        baseline_load=baseline,
        reference_price=reference_price,
        peak_weight=peak_weight,
        battery=battery or make_battery(),
        soc_levels=soc_levels,
    )


def small_scenario(
    episode_length: int = 8,
    p: int = 1,
    kinds: tuple[str, ...] = ("elastic", "storage"),
    seed: int = 7,
    trace_seed: int = 3,
    **trace_kwargs,
) -> Scenario:
    horizon = Horizon(p, 60)
    length = episode_length + p + 1
    traces = varied_traces(length, seed=trace_seed, **trace_kwargs)
    baseline = tuple(6.0 + 2.0 * math.sin(k / 3.0) for k in range(length))
    customers = []
    for kind in kinds:
        if kind == "elastic":
            customers.append(elastic_spec(baseline))
        else:
            customers.append(storage_spec(baseline, soc_levels=3))
    return Scenario(
        customers=tuple(customers),
        traces=traces,
        horizon=horizon,
        episode_length=episode_length,
        seed=seed,
    )


# --- independent brute-force oracle for battery scheduling ---------------

def _oracle_transitions(battery: Battery, grid: np.ndarray, index: int):
    """All distinct (next_index, battery_delta) moves from one SOC level."""
    soc = grid[index]
    moves = {index: (index, 0.0)}
    target = min(soc + battery.max_charge_rate, battery.capacity)
    j = int(np.argmin(np.abs(grid - target)))
    if j != index:
        moves[j] = (j, grid[j] - soc)
    target = max(soc - battery.max_discharge_rate, 0.0)
    j = int(np.argmin(np.abs(grid - target)))
    if j != index:
        moves[j] = (j, grid[j] - soc)
    return list(moves.values())


def oracle_draw(battery: Battery, baseline: float, delta: float) -> float:
    if delta > 0:
        draw = baseline + delta / battery.charge_efficiency
    elif delta < 0:
        draw = baseline + delta * battery.discharge_efficiency
    else:
        draw = baseline
    return max(0.0, draw)


def enumerate_plans(prices, baselines, battery: Battery, soc_levels: int):
    """Yield (deltas, draws) for every feasible plan over the window."""
    grid = np.linspace(0.0, battery.capacity, soc_levels)
    start = int(np.argmin(np.abs(grid - battery.soc)))
    steps = len(prices)

    def walk(t, state, deltas, draws):
        if t == steps:
            yield list(deltas), list(draws)
            return
        for j, delta in _oracle_transitions(battery, grid, state):
            deltas.append(delta)
            draws.append(oracle_draw(battery, baselines[t], delta))
            yield from walk(t + 1, j, deltas, draws)
            deltas.pop()
            draws.pop()

    yield from walk(0, start, [], [])


def oracle_best_cost(prices, baselines, battery: Battery, soc_levels: int, peak_weight: float) -> float:
    return min(
        customer_cost(draws, prices, peak_weight)
        for _, draws in enumerate_plans(prices, baselines, battery, soc_levels)
    )


def oracle_best_first_deltas(prices, baselines, battery, soc_levels, peak_weight):
    """First-step deltas of every cost-optimal plan (for receding-horizon checks)."""
    best = math.inf
    firsts: set[float] = set()
    for deltas, draws in enumerate_plans(prices, baselines, battery, soc_levels):
        cost = customer_cost(draws, prices, peak_weight)
        if cost < best:
            best = cost
            firsts = {deltas[0]}
        elif cost == best:
            firsts.add(deltas[0])
    return best, firsts


def dyadic(rng: np.random.Generator, lo_qtr: int, hi_qtr: int) -> float:
    """Random multiple of 1/4 in [lo_qtr/4, hi_qtr/4]; keeps float math exact."""
    return int(rng.integers(lo_qtr, hi_qtr + 1)) / 4.0


# --- scalar reference for the battery DP kernel -------------------------------
# The per-solve kernel as it stood before its structure was memoized and its
# candidate draws precomputed. Tests demand that the optimized kernel returns
# exactly (==) what this one does; do not optimize it.

def _reference_nearest_index(grid: np.ndarray, value: float) -> int:
    return int(np.argmin(np.abs(grid - value)))


def _reference_transitions(battery: Battery, grid: np.ndarray):
    out = []
    for i, soc in enumerate(grid):
        cands = [(i, 0.0, 0.0)]
        j = _reference_nearest_index(grid, min(soc + battery.max_charge_rate, battery.capacity))
        if j != i:
            delta = grid[j] - soc
            cands.append((j, delta, delta / battery.charge_efficiency))
        j = _reference_nearest_index(grid, max(soc - battery.max_discharge_rate, 0.0))
        if j != i:
            delta = grid[j] - soc
            cands.append((j, delta, delta * battery.discharge_efficiency))
        cands.sort(key=lambda c: (abs(c[1]), c[1]))
        out.append(cands)
    return out


def _reference_solve_capped(prices, baselines, transitions, start, cap):
    steps = len(prices)
    levels = len(transitions)
    value_next = [0.0] * levels
    best = []
    for t in range(steps - 1, -1, -1):
        value_t = [math.inf] * levels
        best_t = [None] * levels
        price = prices[t]
        baseline = baselines[t]
        for i in range(levels):
            for j, delta, grid_delta in transitions[i]:
                draw = baseline + grid_delta
                if draw < 0.0:
                    draw = 0.0
                if cap is not None and draw > cap:
                    continue
                cost = price * draw + value_next[j]
                if cost < value_t[i]:
                    value_t[i] = cost
                    best_t[i] = (j, delta)
        value_next = value_t
        best.append(best_t)
    best.reverse()

    if not math.isfinite(value_next[start]):
        return math.inf, []
    plan = []
    state = start
    for t in range(steps):
        decision = best[t][state]
        assert decision is not None
        plan.append(decision)
        state = decision[0]
    return value_next[start], plan


def reference_schedule(
    price_window, baseline_window, battery: Battery, soc_levels: int, peak_weight: float
):
    """(deltas, next SOC indices) of the cost-minimal plan, solved cap by cap."""
    grid = np.linspace(0.0, battery.capacity, soc_levels)
    start = _reference_nearest_index(grid, battery.soc)
    transitions = _reference_transitions(battery, grid)

    if peak_weight == 0.0:
        _, plan = _reference_solve_capped(price_window, baseline_window, transitions, start, None)
    else:
        caps = sorted(
            {
                max(0.0, baseline_window[t] + grid_delta)
                for t in range(len(baseline_window))
                for cands in transitions
                for _, _, grid_delta in cands
            }
        )
        best_total = math.inf
        plan = []
        for cap in caps:
            cost, cap_plan = _reference_solve_capped(
                price_window, baseline_window, transitions, start, cap
            )
            total = cost + peak_weight * cap
            if total < best_total:
                best_total = total
                plan = cap_plan

    deltas = np.array([delta for _, delta in plan], dtype=float)
    indices = np.array([j for j, _ in plan], dtype=int)
    return deltas, indices


def reference_first_move(battery: Battery, soc_levels: int, baseline: float, deltas, indices):
    """(grid draw, new SOC) after executing the first move of a reference_schedule
    plan, as storage_demand does."""
    grid = np.linspace(0.0, battery.capacity, soc_levels)
    draw = oracle_draw(battery, baseline, deltas[0])
    new_soc = float(min(max(grid[indices[0]], 0.0), battery.capacity))
    return draw, new_soc


# --- unmemoized customer response, as ResponseTable.respond computes it --


def reference_customer_response(scenario: Scenario, t: int, price, soc, capacity_signal: float):
    """(raw draws, draws after cooperative adjustment, next SOCs) at timestep t.

    The per-customer loop of ResponseTable.respond without its memo, with
    every storage solve run afresh; price=None is the reset preview, which
    prices each customer at its reference price.
    """
    window = scenario.horizon.window_length
    cooperative = np.array([spec.cooperative for spec in scenario.customers], dtype=bool)
    demands = np.empty(len(scenario.customers))
    baselines_now = np.empty(len(scenario.customers))
    next_soc = list(soc)
    for i, spec in enumerate(scenario.customers):
        baseline_window = spec.baseline_load[t : t + window]
        customer_price = spec.reference_price if price is None else price
        baselines_now[i] = baseline_window[0]
        if spec.kind == "storage":
            assert soc[i] is not None
            draw, new_soc = storage_demand(
                spec, (customer_price,) * window, baseline_window, soc[i]
            )
            next_soc[i] = new_soc
            demands[i] = draw
        else:
            demands[i] = elastic_demand(
                baseline_window[0],
                customer_price,
                spec.elasticity,
                spec.reference_price,
            )
    adjusted = cooperative_adjustment(demands, baselines_now, cooperative, capacity_signal)
    return demands, adjusted, tuple(next_soc)


# --- observation window built channel by channel, as before templates ----


@dataclass(frozen=True, eq=False)
class ReferenceWindow:
    """The observation window's fields before the exogenous row existed."""

    demand: np.ndarray
    renewable: np.ndarray
    purchase_price: np.ndarray
    weather: tuple[WeatherSample, ...]
    temporal: tuple[TemporalFeatures, ...]
    t: int


def reference_state_window(
    traces: ScenarioTraces,
    t: int,
    horizon: Horizon,
    demand_now: float,
) -> ReferenceWindow:
    """Assemble the p+1 observation window anchored at timestep t."""
    p = horizon.p
    if t < 0 or t + p >= len(traces):
        raise TraceRangeError(
            f"window [{t}, {t + p}] out of range for traces of length {len(traces)}"
        )
    demand_now = float(demand_now)
    if not math.isfinite(demand_now):
        raise ValueError(f"demand_now must be finite, got {demand_now!r}")
    if demand_now < 0.0:
        raise ValueError(f"demand_now must be >= 0, got {demand_now}")

    weather = traces.weather[t : t + p + 1]
    renewable = np.array(
        [
            renewable_generation(
                w, traces.solar_capacity_kw, traces.wind_capacity_kw, horizon.timestep_minutes
            )
            for w in weather
        ],
        dtype=float,
    )
    purchase = np.array(traces.purchase_price[t : t + p + 1], dtype=float)
    temporal = tuple(
        encode_temporal((t + k) * horizon.timestep_minutes, horizon.timestep_minutes)
        for k in range(p + 1)
    )
    demand = np.full(p + 1, demand_now, dtype=float)
    return ReferenceWindow(
        demand=demand,
        renewable=renewable,
        purchase_price=purchase,
        weather=weather,
        temporal=temporal,
        t=t,
    )


def reference_window_channels(window) -> np.ndarray:
    """Flatten the observation window channel by channel (no scaling, no bias)."""
    temps = np.array([w.temperature_c for w in window.weather])
    irr = np.array([w.solar_irradiance for w in window.weather])
    wind = np.array([w.wind_speed for w in window.weather])
    hsin = np.array([tf.hour_sin for tf in window.temporal])
    hcos = np.array([tf.hour_cos for tf in window.temporal])
    return np.concatenate(
        [window.demand, window.renewable, window.purchase_price, temps, irr, wind, hsin, hcos]
    )
