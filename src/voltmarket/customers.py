"""Price-responsive customer agents: battery-equipped schedulers solved by exact
dynamic programming, elastic non-storage loads, and cooperative demand scaling."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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


def _nearest_index(grid: Sequence[float], value: float) -> int:
    # The first minimum wins, so ties resolve toward the lower level.
    best = 0
    best_gap = abs(grid[0] - value)
    for k in range(1, len(grid)):
        gap = abs(grid[k] - value)
        if gap < best_gap:
            best, best_gap = k, gap
    return best


@functools.lru_cache(maxsize=1024)
def _dp_structure(
    capacity: float,
    max_charge_rate: float,
    max_discharge_rate: float,
    charge_efficiency: float,
    discharge_efficiency: float,
    soc_levels: int,
) -> tuple[
    tuple[float, ...], tuple[tuple[tuple[int, float, float], ...], ...], tuple[float, ...]
]:
    """SOC grid, per-level moves and ascending distinct grid deltas of one battery.

    Memoized on the battery's values, never on the mutable Battery object, so
    a battery changed in place is solved with its new limits. Per SOC index
    the transitions are (next_index, battery_delta_kwh, grid_delta_kwh)
    candidates: idle, full-rate charge, full-rate discharge, with targets
    clipped to [0, capacity] and rounded to the SOC grid. Candidates are
    ordered by |battery energy| so that the scheduler's tie-breaking prefers
    the smaller move; actions that round to idle are dropped as duplicates.
    """
    grid = np.linspace(0.0, capacity, soc_levels).tolist()
    transitions = []
    for i, soc in enumerate(grid):
        cands: list[tuple[int, float, float]] = [(i, 0.0, 0.0)]
        j = _nearest_index(grid, min(soc + max_charge_rate, capacity))
        if j != i:
            delta = grid[j] - soc
            cands.append((j, delta, delta / charge_efficiency))
        j = _nearest_index(grid, max(soc - max_discharge_rate, 0.0))
        if j != i:
            delta = grid[j] - soc
            cands.append((j, delta, delta * discharge_efficiency))
        cands.sort(key=lambda c: (abs(c[1]), c[1]))
        transitions.append(tuple(cands))
    grid_deltas = sorted({grid_delta for cands in transitions for _, _, grid_delta in cands})
    return tuple(grid), tuple(transitions), tuple(grid_deltas)


def _solve_capped(
    candidates: list[list[list[tuple[int, float, float, float]]]],
    start: int,
    cap: float,
) -> tuple[float, list[tuple[int, float, float]]]:
    """Backward DP minimizing purchase cost with every grid draw <= cap.

    candidates[t][i] holds the moves from SOC index i at step t as
    (next_index, battery_delta, grid_draw, price * grid_draw), with the draw
    already clamped at zero and the moves in transition order, so the first
    of equally cheap moves is the smaller one. cap=math.inf admits every
    move. Returns (cost from the start state, per-step (next_index,
    battery_delta, grid_draw) decisions). Cost is +inf when no plan respects
    the cap.
    """
    levels = len(candidates[0])
    value_next = [0.0] * levels
    best: list[list[tuple[int, float, float, float] | None]] = []
    for step in reversed(candidates):
        value_t = []
        best_t = []
        for moves in step:
            least = math.inf
            choice = None
            for move in moves:
                j, _, draw, price_draw = move
                if draw > cap:
                    continue
                cost = price_draw + value_next[j]
                if cost < least:
                    least = cost
                    choice = move
            value_t.append(least)
            best_t.append(choice)
        value_next = value_t
        best.append(best_t)
    best.reverse()

    if not math.isfinite(value_next[start]):
        return math.inf, []
    plan: list[tuple[int, float, float]] = []
    state = start
    for best_t in best:
        decision = best_t[state]
        assert decision is not None
        plan.append(decision[:3])
        state = decision[0]
    return value_next[start], plan


def _schedule(
    price_window: Sequence[float],
    baseline_window: Sequence[float],
    battery: Battery,
    soc: float,
    soc_levels: int,
    peak_weight: float,
) -> tuple[list[tuple[int, float, float]], tuple[float, ...]]:
    """Cost-minimal plan from soc as per-step (next_index, battery_delta,
    grid_draw) moves, and the SOC grid its indices refer to.

    The peak term breaks per-step separability. The optimal plan's peak draw
    is one of the finitely many candidate draws, so a capped DP is solved per
    candidate cap in ascending order and the cheapest total is kept; the
    strict < keeps the smallest cap on ties. Two shortcuts skip only caps
    that cannot replace the best total:

    - A cap below max_t (smallest candidate draw at step t) admits no move
      at that step, so its cost is +inf.
    - The capped DP minimizes over a subset of the uncapped DP's moves at
      every step, and rounded addition is monotone, so by induction over the
      steps no capped cost is below the uncapped cost base_cost. As
      peak_weight >= 0 and caps ascend, every later total is at least
      base_cost + peak_weight*cap, so the sweep stops at the first cap where
      that reaches best_total.
    """
    if len(price_window) == 0:
        raise ValueError("scheduling window must contain at least one step")
    if len(price_window) != len(baseline_window):
        raise ValueError("price and baseline windows must have equal length")
    if soc_levels < 2:
        raise ValueError(f"soc_levels must be >= 2, got {soc_levels}")
    if not peak_weight >= 0.0:
        raise ValueError(f"peak_weight must be >= 0, got {peak_weight}")

    grid, transitions, grid_deltas = _dp_structure(
        battery.capacity,
        battery.max_charge_rate,
        battery.max_discharge_rate,
        battery.charge_efficiency,
        battery.discharge_efficiency,
        soc_levels,
    )
    start = _nearest_index(grid, soc)
    baselines = [float(b) for b in baseline_window]
    candidates = []
    for price, baseline in zip(map(float, price_window), baselines):
        step = []
        for cands in transitions:
            moves = []
            for j, delta, grid_delta in cands:
                draw = baseline + grid_delta
                if draw < 0.0:
                    draw = 0.0
                moves.append((j, delta, draw, price * draw))
            step.append(moves)
        candidates.append(step)

    base_cost, plan = _solve_capped(candidates, start, math.inf)
    if peak_weight > 0.0:
        floor = max(max(0.0, baseline + grid_deltas[0]) for baseline in baselines)
        caps = sorted({max(0.0, baseline + d) for baseline in baselines for d in grid_deltas})
        best_total = math.inf
        plan = []
        for cap in caps:
            if cap < floor:
                continue
            if base_cost + peak_weight * cap >= best_total:
                break
            cost, cap_plan = _solve_capped(candidates, start, cap)
            total = cost + peak_weight * cap
            if total < best_total:
                best_total = total
                plan = cap_plan
    return plan, grid


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
    plan, _ = _schedule(
        price_window, baseline_window, battery, battery.soc, soc_levels, peak_weight
    )
    return np.array([delta for _, delta, _ in plan], dtype=float)


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
    battery = spec.battery
    assert battery is not None
    if not 0.0 <= soc <= battery.capacity:
        raise ValueError(f"soc must lie in [0, {battery.capacity}], got {soc}")
    plan, grid = _schedule(
        price_window, baseline_window, battery, soc, spec.soc_levels, spec.peak_weight
    )
    next_index, _, draw = plan[0]
    new_soc = float(min(max(grid[next_index], 0.0), battery.capacity))
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
