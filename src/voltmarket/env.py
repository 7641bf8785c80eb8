"""Episodic grid simulator: composes traces, renewable generation and customer
agents; consumes a retail price each step and returns the next observation
window plus the quantities the reward is computed from."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .customers import CustomerSpec, cooperative_adjustment, elastic_demand, storage_demand
from .model import (
    Horizon,
    ScenarioTraces,
    StateWindow,
    build_state_window,
    with_demand,
)


class ScenarioValidationError(ValueError):
    """Scenario failed validation; carries every violation found."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid scenario: " + "; ".join(self.violations))


class EpisodeLifecycleError(RuntimeError):
    """Stepped an environment that is finished or was never reset."""


@dataclass(frozen=True)
class Scenario:
    """A reproducible environment configuration."""

    customers: tuple[CustomerSpec, ...]
    traces: ScenarioTraces
    horizon: Horizon
    episode_length: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "customers", tuple(self.customers))

    def violations(self) -> list[str]:
        """All validation problems, empty when the scenario is usable."""
        problems: list[str] = []
        if not self.customers:
            problems.append("scenario requires at least one customer")
        if self.episode_length <= 0:
            problems.append(f"episode_length must be > 0, got {self.episode_length}")
        required = self.episode_length + self.horizon.p
        if len(self.traces) < required:
            problems.append(
                f"traces of length {len(self.traces)} are shorter than "
                f"episode_length + p = {required}"
            )
        for i, spec in enumerate(self.customers):
            if len(spec.baseline_load) < required:
                problems.append(
                    f"customer {i} baseline_load of length {len(spec.baseline_load)} "
                    f"is shorter than episode_length + p = {required}"
                )
        return problems


@dataclass(frozen=True, eq=False)
class StepOutcome:
    """Result of one environment step, in reward-ready units."""

    next_state: StateWindow
    e_demand: float
    e_renewable: float
    price_sold: float
    purchase_price: float
    done: bool


# One step's key: (t, price or None for the reset preview, every customer's SOC).
_StepKey = tuple[int, float | None, tuple[float | None, ...]]
# Its value: per-customer draws after cooperative adjustment, their sum as a
# float, and the next SOCs.
_Response = tuple[np.ndarray, float, tuple[float | None, ...]]


class ResponseTable:
    """Customer responses and observation windows of env steps, memoized for
    the envs given this table.

    Within one scenario the whole response is a function of (t, price, SOCs):
    t fixes every baseline window and the renewable generation that is the
    cooperative capacity, the price fixes every customer's price window and
    the SOCs fix every battery DP's start. So a hit returns the same bits a
    recompute would, on one condition: no Battery of the scenario is mutated
    while a table that has seen it is alive.

    The table also keeps, per t, a template window: build_state_window at t
    with zero demand. Every field of a window except demand depends only on
    (traces, horizon, t), and traces and horizon are fields of the scenario,
    so an env hands out with_demand(template, demand): the same floats a
    fresh build_state_window would hold, sharing the read-only exogenous row
    and getting its own demand array. The row's first entry, renewable[0],
    is also the step's renewable generation.

    Memos are kept per scenario object, and the table holds each scenario it
    has seen, so nothing can be served to another scenario. The table lives
    as long as its owner keeps it: meta_train and evaluate_adaptation make
    one per call; a GridEnv given none makes a private one.
    """

    def __init__(self) -> None:
        self._memos: dict[int, tuple[Scenario, dict, dict]] = {}

    def memo(
        self, scenario: Scenario
    ) -> tuple[dict[_StepKey, _Response], dict[int, StateWindow]]:
        """The scenario's customer responses, by (t, price, SOCs), and its
        template windows, by t."""
        entry = self._memos.get(id(scenario))
        if entry is None:
            entry = self._memos[id(scenario)] = (scenario, {}, {})
        return entry[1], entry[2]


class GridEnv:
    """Single-scenario episodic simulator.

    One instance is strictly sequential (battery state serializes steps).
    Instances given one ResponseTable share its memo and must run in one
    thread; instances with private tables share nothing.
    """

    def __init__(self, scenario: Scenario, *, responses: ResponseTable | None = None):
        problems = scenario.violations()
        if problems:
            raise ScenarioValidationError(problems)
        self.scenario = scenario
        self._t: int | None = None
        self._done = False
        self._soc: tuple[float | None, ...] = (None,) * len(scenario.customers)
        table = responses if responses is not None else ResponseTable()
        self._responses, self._windows = table.memo(scenario)
        self._cooperative = np.array([spec.cooperative for spec in scenario.customers], dtype=bool)
        self.last_customer_demands: np.ndarray | None = None

    @property
    def t(self) -> int | None:
        return self._t

    @property
    def done(self) -> bool:
        return self._done

    def reset(self) -> StateWindow:
        """Start a fresh episode: t = 0, batteries at 50% charge.

        The momentary demand in the first observation is a preview of the
        customers' response to their own reference prices; it does not move
        battery state.
        """
        scenario = self.scenario
        self._t = 0
        self._done = False
        self._soc = tuple(
            spec.battery.capacity / 2.0 if spec.kind == "storage" else None
            for spec in scenario.customers
        )
        template = self._template(0)
        e_demand, _ = self._aggregate_demand(template, None)
        return with_demand(template, e_demand)

    def step(self, price: float) -> StepOutcome:
        """Broadcast a retail price, collect adjusted demand, advance time.

        The price is assumed to be constraint-processed already; no clamping
        happens here.
        """
        if self._t is None:
            raise EpisodeLifecycleError("call reset() before step()")
        if self._done:
            raise EpisodeLifecycleError("episode finished; call reset() to start another")
        price_value = float(price)
        if not math.isfinite(price_value) or price_value < 0.0:
            raise ValueError(f"price must be finite and >= 0, got {price_value}")

        scenario = self.scenario
        t = self._t
        template = self._template(t)
        e_demand, self._soc = self._aggregate_demand(template, price_value)
        purchase = scenario.traces.purchase_price[t]

        self._t = t + 1
        self._done = self._t == scenario.episode_length
        # At the minimum trace length the terminal window cannot start at
        # episode_length; clamp to the last valid index. Terminal states are
        # never bootstrapped, so only their contents matter for logging.
        window_t = min(self._t, len(scenario.traces) - scenario.horizon.p - 1)
        next_state = with_demand(self._template(window_t), e_demand)
        return StepOutcome(
            next_state=next_state,
            e_demand=e_demand,
            e_renewable=float(template.exogenous[0]),
            price_sold=price_value,
            purchase_price=purchase,
            done=self._done,
        )

    def _template(self, t: int) -> StateWindow:
        """The window at t with zero demand, built on first use per table."""
        template = self._windows.get(t)
        if template is None:
            scenario = self.scenario
            template = build_state_window(scenario.traces, t, scenario.horizon, 0.0)
            self._windows[t] = template
        return template

    def _aggregate_demand(
        self, template: StateWindow, price: float | None
    ) -> tuple[float, tuple[float | None, ...]]:
        """Total grid draw at the template's t under a broadcast price, and
        the SOCs it leaves the batteries at.

        price=None evaluates each customer against its own reference price
        (reset preview). Storage customers see a persistence window of the
        announced price; only the first scheduled move is executed. The
        template's renewable generation is the cooperative customers'
        capacity signal. The response is memoized in the env's ResponseTable
        under (t, price, SOCs); a hit skips every customer and the
        cooperative adjustment. The per-customer draws are kept as
        last_customer_demands, a fresh array; the SOCs are not committed.
        """
        key = (template.t, price, self._soc)
        response = self._responses.get(key)
        if response is None:
            response = self._respond(template.t, price, float(template.exogenous[0]))
            self._responses[key] = response
        demands, total, next_soc = response
        self.last_customer_demands = demands.copy()
        return total, next_soc

    def _respond(self, t: int, price: float | None, capacity_signal: float) -> _Response:
        scenario = self.scenario
        window = scenario.horizon.window_length
        demands = np.empty(len(scenario.customers))
        baselines_now = np.empty(len(scenario.customers))
        next_soc = list(self._soc)
        for i, spec in enumerate(scenario.customers):
            baseline_window = spec.baseline_load[t : t + window]
            customer_price = spec.reference_price if price is None else price
            baselines_now[i] = baseline_window[0]
            if spec.kind == "storage":
                soc = self._soc[i]
                assert soc is not None
                demands[i], next_soc[i] = storage_demand(
                    spec, (customer_price,) * window, baseline_window, soc
                )
            else:
                demands[i] = elastic_demand(
                    baseline_window[0],
                    customer_price,
                    spec.elasticity,
                    spec.reference_price,
                )
        adjusted = cooperative_adjustment(
            demands, baselines_now, self._cooperative, capacity_signal
        )
        return adjusted, float(adjusted.sum()), tuple(next_soc)

    def battery_soc(self, customer_index: int) -> float | None:
        """Current SOC of a storage customer (None for elastic ones)."""
        return self._soc[customer_index]
