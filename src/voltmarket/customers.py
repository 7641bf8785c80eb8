"""Price-responsive customer agents: battery-equipped schedulers solved by exact
dynamic programming, elastic non-storage loads, and cooperative demand scaling."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

CUSTOMER_KINDS = ("storage", "elastic")


@dataclass
class Battery:
    """Battery state and limits. Energies in kWh, rates in kWh per timestep.

    Efficiencies are one-way: charging draws charge_energy/charge_efficiency
    from the grid, discharging returns discharge_energy*discharge_efficiency.
    """

    capacity: float
    max_charge_rate: float
    max_discharge_rate: float
    charge_efficiency: float
    discharge_efficiency: float
    soc: float

    def __post_init__(self) -> None:
        if self.capacity <= 0.0:
            raise ValueError(f"capacity must be > 0, got {self.capacity}")
        if self.max_charge_rate <= 0.0 or self.max_discharge_rate <= 0.0:
            raise ValueError("charge/discharge rates must be > 0")
        for name, eta in (
            ("charge_efficiency", self.charge_efficiency),
            ("discharge_efficiency", self.discharge_efficiency),
        ):
            if not 0.0 < eta <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {eta}")
        if not 0.0 <= self.soc <= self.capacity:
            raise ValueError(f"soc must lie in [0, {self.capacity}], got {self.soc}")


@dataclass(frozen=True)
class CustomerSpec:
    """Static description of one customer.

    Storage customers carry a battery and schedule it against the announced
    price window; elastic customers scale their momentary load against their
    reference price. The cooperative flag opts a customer into the shared
    congestion adjustment.
    """

    kind: str
    cooperative: bool
    baseline_load: tuple[float, ...]
    reference_price: float
    peak_weight: float = 0.0
    battery: Battery | None = None
    elasticity: float | None = None
    soc_levels: int = 5

    def __post_init__(self) -> None:
        if self.kind not in CUSTOMER_KINDS:
            raise ValueError(f"kind must be one of {CUSTOMER_KINDS}, got {self.kind!r}")
        object.__setattr__(self, "baseline_load", tuple(float(x) for x in self.baseline_load))
        if any(not math.isfinite(x) or x < 0.0 for x in self.baseline_load):
            raise ValueError("baseline_load entries must be finite and >= 0")
        if self.reference_price <= 0.0:
            raise ValueError(f"reference_price must be > 0, got {self.reference_price}")
        if self.peak_weight < 0.0:
            raise ValueError(f"peak_weight must be >= 0, got {self.peak_weight}")
        if self.kind == "storage":
            if self.battery is None:
                raise ValueError("storage customer requires a battery")
            if self.soc_levels < 2:
                raise ValueError(f"soc_levels must be >= 2, got {self.soc_levels}")
        else:
            if self.battery is not None:
                raise ValueError("elastic customer must not carry a battery")
            if self.elasticity is None:
                raise ValueError("elastic customer requires an elasticity")
            if self.elasticity > 0.0:
                raise ValueError(f"elasticity must be <= 0, got {self.elasticity}")


def elastic_demand(
    baseline: float, price: float, elasticity: float, reference_price: float
) -> float:
    """Constant-elasticity load response, clamped to [0.2, 2] times baseline.

    A zero price is floored at 1% of the reference price before
    exponentiation so the response stays finite.
    """
    if baseline < 0.0:
        raise ValueError(f"baseline must be >= 0, got {baseline}")
    if reference_price <= 0.0:
        raise ValueError(f"reference_price must be > 0, got {reference_price}")
    if price < 0.0:
        raise ValueError(f"price must be >= 0, got {price}")
    if elasticity > 0.0:
        raise ValueError(f"elasticity must be <= 0, got {elasticity}")
    price = max(price, 0.01 * reference_price)
    demand = baseline * (price / reference_price) ** elasticity
    return min(max(demand, 0.2 * baseline), 2.0 * baseline)


def customer_cost(
    grid_draw: Sequence[float], prices: Sequence[float], peak_weight: float
) -> float:
    """Cumulative energy cost plus a weighted penalty on the peak grid draw."""
    if len(grid_draw) != len(prices):
        raise ValueError(
            f"grid_draw ({len(grid_draw)}) and prices ({len(prices)}) must have equal length"
        )
    if len(grid_draw) == 0:
        raise ValueError("customer_cost requires at least one step")
    total = 0.0
    for price, draw in zip(prices, grid_draw):
        total += price * draw
    return total + peak_weight * max(grid_draw)


def _soc_grid(battery: Battery, soc_levels: int) -> np.ndarray:
    return np.linspace(0.0, battery.capacity, soc_levels)


def _nearest_index(grid: np.ndarray, value: float) -> int:
    # np.argmin picks the first minimum, so ties resolve toward the lower level.
    return int(np.argmin(np.abs(grid - value)))


def _transitions(battery: Battery, grid: np.ndarray) -> list[list[tuple[int, float, float]]]:
    """Per SOC index: (next_index, battery_delta_kwh, grid_delta_kwh) candidates.

    Actions are idle, full-rate charge, full-rate discharge, with targets
    clipped to [0, capacity] and rounded to the SOC grid. Candidates are
    ordered by |battery energy| so that the scheduler's tie-breaking prefers
    the smaller move; actions that round to idle are dropped as duplicates.
    """
    out: list[list[tuple[int, float, float]]] = []
    for i, soc in enumerate(grid):
        cands: list[tuple[int, float, float]] = [(i, 0.0, 0.0)]
        j = _nearest_index(grid, min(soc + battery.max_charge_rate, battery.capacity))
        if j != i:
            delta = grid[j] - soc
            cands.append((j, delta, delta / battery.charge_efficiency))
        j = _nearest_index(grid, max(soc - battery.max_discharge_rate, 0.0))
        if j != i:
            delta = grid[j] - soc
            cands.append((j, delta, delta * battery.discharge_efficiency))
        cands.sort(key=lambda c: (abs(c[1]), c[1]))
        out.append(cands)
    return out


def _solve_capped(
    prices: Sequence[float],
    baselines: Sequence[float],
    transitions: list[list[tuple[int, float, float]]],
    start: int,
    cap: float | None,
) -> tuple[float, list[tuple[int, float]]]:
    """Backward DP minimizing purchase cost with every grid draw <= cap.

    Returns (cost from the start state, per-step (next_index, battery_delta)
    decisions). Cost is +inf when no plan respects the cap.
    """
    steps = len(prices)
    levels = len(transitions)
    value_next = [0.0] * levels
    best: list[list[tuple[int, float] | None]] = []
    for t in range(steps - 1, -1, -1):
        value_t = [math.inf] * levels
        best_t: list[tuple[int, float] | None] = [None] * levels
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
    plan: list[tuple[int, float]] = []
    state = start
    for t in range(steps):
        decision = best[t][state]
        assert decision is not None
        plan.append(decision)
        state = decision[0]
    return value_next[start], plan


def _schedule(
    price_window: Sequence[float],
    baseline_window: Sequence[float],
    battery: Battery,
    soc_levels: int,
    peak_weight: float,
) -> tuple[np.ndarray, np.ndarray]:
    if len(price_window) == 0:
        raise ValueError("scheduling window must contain at least one step")
    if len(price_window) != len(baseline_window):
        raise ValueError("price and baseline windows must have equal length")
    if soc_levels < 2:
        raise ValueError(f"soc_levels must be >= 2, got {soc_levels}")

    grid = _soc_grid(battery, soc_levels)
    start = _nearest_index(grid, battery.soc)
    transitions = _transitions(battery, grid)

    if peak_weight == 0.0:
        _, plan = _solve_capped(price_window, baseline_window, transitions, start, None)
    else:
        # The peak term breaks per-step separability. The optimal plan's peak
        # draw is one of the finitely many achievable draws, so solve a capped
        # DP per candidate and keep the cheapest total (smallest cap on ties).
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
            cost, cap_plan = _solve_capped(
                price_window, baseline_window, transitions, start, cap
            )
            total = cost + peak_weight * cap
            if total < best_total:
                best_total = total
                plan = cap_plan

    deltas = np.array([delta for _, delta in plan], dtype=float)
    indices = np.array([j for j, _ in plan], dtype=int)
    return deltas, indices


def dp_schedule(
    price_window: Sequence[float],
    baseline_window: Sequence[float],
    battery: Battery,
    soc_levels: int,
    peak_weight: float,
) -> np.ndarray:
    """Cost-minimal battery plan over the window, as signed SOC deltas per step.

    Positive entries charge, negative discharge, zero idles. The plan
    minimizes sum(price * grid_draw) + peak_weight * max(grid_draw) over the
    discretized SOC grid, breaking ties toward the smaller battery move.
    """
    deltas, _ = _schedule(price_window, baseline_window, battery, soc_levels, peak_weight)
    return deltas


def execute_decision(battery: Battery, baseline: float, delta: float) -> float:
    """Grid draw implied by applying a signed SOC delta on top of a baseline load."""
    if delta > 0.0:
        draw = baseline + delta / battery.charge_efficiency
    elif delta < 0.0:
        draw = baseline + delta * battery.discharge_efficiency
    else:
        draw = baseline
    return max(0.0, draw)


def storage_demand(
    spec: CustomerSpec,
    price_window: Sequence[float],
    baseline_window: Sequence[float],
    soc: float,
) -> tuple[float, float]:
    """Receding-horizon step: schedule over the window, execute the first move.

    Returns the resulting grid draw and the new SOC (a point on the SOC grid;
    clamped against sub-ulp excursions past the capacity bounds).
    """
    if spec.kind != "storage":
        raise ValueError(f"storage_demand requires a storage customer, got {spec.kind!r}")
    assert spec.battery is not None
    battery = replace(spec.battery, soc=soc)
    deltas, indices = _schedule(
        price_window, baseline_window, battery, spec.soc_levels, spec.peak_weight
    )
    grid = _soc_grid(battery, spec.soc_levels)
    draw = execute_decision(battery, baseline_window[0], deltas[0])
    new_soc = float(min(max(grid[indices[0]], 0.0), battery.capacity))
    return draw, new_soc


def cooperative_adjustment(
    demands: Sequence[float],
    baselines: Sequence[float],
    cooperative: Sequence[bool],
    capacity_signal: float,
) -> np.ndarray:
    """Scale cooperative customers' flexible load toward the broadcast capacity.

    When total demand exceeds the momentary renewable capacity, each
    cooperative customer keeps its rigid share (up to half its baseline) and
    its excess is scaled by the common factor that brings the cooperative
    subtotal toward the capacity left over by independent customers. No
    demand ever increases, and no customer is pushed below half its baseline.
    """
    if capacity_signal < 0.0:
        raise ValueError(f"capacity_signal must be >= 0, got {capacity_signal}")
    d = np.asarray(demands, dtype=float)
    b = np.asarray(baselines, dtype=float)
    coop = np.asarray(cooperative, dtype=bool)
    if not (len(d) == len(b) == len(coop)):
        raise ValueError("demands, baselines and cooperative flags must align")

    if d.sum() <= capacity_signal or not coop.any():
        return d.copy()

    floor = 0.5 * b
    rigid = np.minimum(d, floor)
    flex = np.maximum(0.0, d - floor)
    flex_total = float(flex[coop].sum())
    if flex_total <= 0.0:
        return d.copy()

    remaining = max(0.0, capacity_signal - float(d[~coop].sum()))
    factor = (remaining - float(rigid[coop].sum())) / flex_total
    factor = min(1.0, max(0.0, factor))

    out = d.copy()
    out[coop] = rigid[coop] + factor * flex[coop]
    return out
