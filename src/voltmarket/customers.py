"""Price-responsive customer agents: battery-equipped schedulers solved by exact
dynamic programming, elastic non-storage loads, and cooperative demand scaling."""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Sequence

import numpy as np

CUSTOMER_KINDS = ("storage", "elastic")


def _is_number_type(cls: type, kind=numbers.Real) -> bool:
    """cls is a kind (numbers.Real or numbers.Integral), and not bool."""
    return issubclass(cls, kind) and not issubclass(cls, bool)


def _field_problems(owner, rules: dict, kind=numbers.Real) -> list[str]:
    """owner's problems under rules, {field: (test, requirement)}: a field
    that is not of kind is named as such; one that fails its test is named
    with its requirement."""
    noun = "an integer" if kind is numbers.Integral else "a number"
    problems = []
    for name, (test, requirement) in rules.items():
        value = getattr(owner, name)
        if not _is_number_type(type(value), kind):
            problems.append(f"{name} must be {noun}, got {value!r}")
        elif not test(value):
            problems.append(f"{name} {requirement}, got {value}")
    return problems


@dataclass(frozen=True)
class Battery:
    """Battery limits and the SOC it starts at. Energies in kWh, rates in kWh
    per timestep.

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
        rate = (lambda v: v > 0.0, "must be > 0")
        efficiency = (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")
        # A capacity that is not a number is its own problem, not soc's.
        capacity = self.capacity if _is_number_type(type(self.capacity)) else math.inf
        problems = _field_problems(
            self,
            {
                "capacity": (lambda v: 0.0 < v < math.inf, "must be finite and > 0"),
                "max_charge_rate": rate,
                "max_discharge_rate": rate,
                "charge_efficiency": efficiency,
                "discharge_efficiency": efficiency,
                "soc": (lambda v: 0.0 <= v <= capacity, f"must lie in [0, {self.capacity}]"),
            },
        )
        if problems:
            raise ValueError("; ".join(problems))


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
        problems = []
        if self.kind not in CUSTOMER_KINDS:
            problems.append(f"kind must be one of {CUSTOMER_KINDS}, got {self.kind!r}")
        load = self.baseline_load
        # A string is iterable too, but its characters are not loads.
        sequence = isinstance(load, Iterable) and not isinstance(load, (str, bytes))
        entries = tuple(load) if sequence else ()
        # Checked per distinct type: a pool builds specs with long baselines.
        bad = {cls for cls in set(map(type, entries)) if not _is_number_type(cls)}
        if not sequence:
            problems.append(f"baseline_load must be a sequence of numbers, got {load!r}")
        elif bad:
            first = next(x for x in entries if type(x) in bad)
            problems.append(f"baseline_load entries must be numbers, got {first!r}")
        else:
            object.__setattr__(self, "baseline_load", tuple(float(x) for x in entries))
            if any(not math.isfinite(x) or x < 0.0 for x in self.baseline_load):
                problems.append("baseline_load entries must be finite and >= 0")
        problems += _field_problems(
            self,
            {
                "reference_price": (lambda v: 0.0 < v < math.inf, "must be finite and > 0"),
                "peak_weight": (lambda v: math.isfinite(v) and v >= 0.0, "must be finite and >= 0"),
            },
        )
        if self.kind == "storage":
            if self.battery is None:
                problems.append("storage customer requires a battery")
            problems += _field_problems(
                self, {"soc_levels": (lambda v: v >= 2, "must be >= 2")}, numbers.Integral
            )
        elif self.kind == "elastic":
            if self.battery is not None:
                problems.append("elastic customer must not carry a battery")
            if self.elasticity is None:
                problems.append("elastic customer requires an elasticity")
            else:
                problems += _field_problems(self, {"elasticity": (lambda v: v <= 0.0, "must be <= 0")})
        if problems:
            raise ValueError("; ".join(problems))


def elastic_demand(
    baseline: float, price: float, elasticity: float, reference_price: float
) -> float:
    """Constant-elasticity load response, clamped to [0.2, 2] times baseline.

    A zero price is floored at 1% of the reference price before
    exponentiation so the response stays finite.
    """
    if not baseline >= 0.0:
        raise ValueError(f"baseline must be >= 0, got {baseline}")
    if not 0.0 < reference_price < math.inf:
        raise ValueError(f"reference_price must be finite and > 0, got {reference_price}")
    if not price >= 0.0:
        raise ValueError(f"price must be >= 0, got {price}")
    if not elasticity <= 0.0:
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

    Memoized on the battery's values. Per SOC index the transitions are
    (next_index, battery_delta_kwh, grid_delta_kwh) moves: idle, full-rate
    charge, full-rate discharge, with targets clipped to [0, capacity] and
    rounded to the SOC grid. Moves are ordered by |battery energy| so that
    the scheduler's tie-breaking prefers the smaller move; actions that
    round to idle are dropped as duplicates.
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
    transitions: tuple[tuple[tuple[int, float, float], ...], ...],
    prices: Sequence[float],
    baselines: Sequence[float],
    start: int,
    cap: float,
) -> tuple[float, list[tuple[int, float, float]], float]:
    """Backward DP minimizing purchase cost with every grid draw <= cap.

    A move (next_index, battery_delta, grid_delta) of transitions[i] draws
    max(0, baseline + grid_delta) at a step and costs price * draw; of
    equally cheap moves the first, the smaller, wins. cap=math.inf admits
    every move. Returns (cost from the start state, per-step (next_index,
    battery_delta, grid_draw) decisions, least reachable peak). Cost is +inf
    and the plan empty when no plan of finite cost respects the cap.

    The least reachable peak is the smallest largest draw over every plan
    from the start state that respects the cap, whatever its cost: per state
    reach_t[i] = min over allowed moves of max(draw, reach_t+1[j]).
    """
    levels = len(transitions)
    value_next = [0.0] * levels
    reach_next = [-math.inf] * levels
    best: list[list[tuple[int, float, float] | None]] = []
    for price, baseline in zip(reversed(prices), reversed(baselines)):
        value_t = []
        reach_t = []
        best_t = []
        for moves in transitions:
            least = math.inf
            lowest = math.inf
            choice = None
            for j, delta, grid_delta in moves:
                draw = baseline + grid_delta
                if draw < 0.0:
                    draw = 0.0
                if draw > cap:
                    continue
                cost = price * draw + value_next[j]
                if cost < least:
                    least = cost
                    choice = (j, delta, draw)
                reach = reach_next[j]
                if draw > reach:
                    reach = draw
                if reach < lowest:
                    lowest = reach
            value_t.append(least)
            reach_t.append(lowest)
            best_t.append(choice)
        value_next = value_t
        reach_next = reach_t
        best.append(best_t)

    if not math.isfinite(value_next[start]):
        return math.inf, [], reach_next[start]
    plan: list[tuple[int, float, float]] = []
    state = start
    for best_t in reversed(best):
        decision = best_t[state]
        assert decision is not None
        plan.append(decision)
        state = decision[0]
    return value_next[start], plan, reach_next[start]


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
    is one of the finitely many draws max(0, baseline + grid_delta), so the
    plan is the capped DP's plan at the draw cap of least total cost +
    peak_weight*cap, the smallest such cap on ties. The caps are swept
    downward from the uncapped plan's peak, which starts as the best, and
    the sweep skips only caps that cannot replace it:

    - The capped DP minimizes over a subset of the uncapped DP's moves at
      every step, and rounded addition is monotone, so by induction over the
      steps no capped cost is below the uncapped cost base_cost, and a
      smaller cap never costs less than a larger one.
    - Caps at or above the peak reproduce the uncapped result. The uncapped
      plan is feasible under them, so the capped cost is base_cost, and the
      capped plan is the uncapped one: that plan takes the first of equally
      cheap moves at every step, so it also takes the first of the feasible
      ones. A larger cap can therefore only tie or lose.
    - The bound is exact. The uncapped DP also returns least_peak, the least
      peak over every plan; max and min round nothing, so it is exact, and a
      cap is feasible iff cap >= least_peak. The sweep stops at the first
      cap below least_peak without solving it, and when least_peak is the
      uncapped plan's own peak no cap is swept at all.
    - Once a cap's cost + peak_weight*least_peak exceeds best_total, the
      sweep stops: a smaller feasible cap c' costs at least cost, and
      peak_weight*c' >= peak_weight*least_peak, so by monotone rounded
      addition its total is at least that sum.
    - Ties and overflow: replacing the best on <= keeps the smallest cap
      among equal totals. Where a huge peak_weight overflows best_total to
      +inf, the sweep visits every feasible cap below the peak, as the
      ascending sweep did.

    Raises ValueError when no plan of finite cost exists, which a NaN or
    infinite price or baseline brings about.
    """
    if len(price_window) == 0:
        raise ValueError("scheduling window must contain at least one step")
    if len(price_window) != len(baseline_window):
        raise ValueError("price and baseline windows must have equal length")
    if soc_levels < 2:
        raise ValueError(f"soc_levels must be >= 2, got {soc_levels}")
    if not (math.isfinite(peak_weight) and peak_weight >= 0.0):
        raise ValueError(f"peak_weight must be finite and >= 0, got {peak_weight}")

    grid, transitions, grid_deltas = _dp_structure(
        battery.capacity,
        battery.max_charge_rate,
        battery.max_discharge_rate,
        battery.charge_efficiency,
        battery.discharge_efficiency,
        soc_levels,
    )
    start = _nearest_index(grid, soc)
    prices = [float(p) for p in price_window]
    baselines = [float(b) for b in baseline_window]

    base_cost, plan, least_peak = _solve_capped(transitions, prices, baselines, start, math.inf)
    if not plan:
        raise ValueError(
            f"price_window {prices} and baseline_window {baselines} admit no plan "
            "of finite cost; both must be finite"
        )
    if peak_weight > 0.0:
        peak = max(draw for _, _, draw in plan)
        if least_peak < peak:
            best_total = base_cost + peak_weight * peak
            caps = {max(0.0, baseline + d) for baseline in baselines for d in grid_deltas}
            for cap in sorted(caps, reverse=True):
                if cap >= peak:
                    continue
                if cap < least_peak:
                    break
                cost, cap_plan, _ = _solve_capped(transitions, prices, baselines, start, cap)
                if cost + peak_weight * least_peak > best_total:
                    break
                total = cost + peak_weight * cap
                if total <= best_total:
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

    Returns the resulting grid draw and the new SOC, a point on the SOC grid.
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
    return draw, grid[next_index]


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
    if not capacity_signal >= 0.0:
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
