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
    """A reproducible environment configuration: an immutable value, checked
    once when it is built. Construction raises ScenarioValidationError with
    every violation found."""

    customers: tuple[CustomerSpec, ...]
    traces: ScenarioTraces
    horizon: Horizon
    episode_length: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "customers", tuple(self.customers))
        problems = self._violations()
        if problems:
            raise ScenarioValidationError(problems)

    def _violations(self) -> list[str]:
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
# Its value: per-customer draws after cooperative adjustment (read-only), their
# sum as a float, and the next SOCs.
_Response = tuple[np.ndarray, float, tuple[float | None, ...]]


class ResponseTable:
    """The memo of one scenario: its customers' response to a price, and its
    observation windows, for the envs and callers given this table.

    The whole response is a function of (t, price, SOCs): t fixes every
    baseline window and the renewable generation that is the cooperative
    capacity, the price fixes every customer's price window and the SOCs fix
    every battery DP's start. A scenario is immutable, so a hit returns the
    same bits a recompute would.

    The table also keeps, per t, a template window: build_state_window at t
    with zero demand. Every field of a window except demand depends only on
    (traces, horizon, t), and traces and horizon are fields of the scenario,
    so an env hands out with_demand(template, demand): the same floats a
    fresh build_state_window would hold, sharing the read-only exogenous row
    and getting its own demand array. The row's first entry, renewable[0],
    is also the step's renewable generation.

    start_socs are the SOCs an episode starts from: each battery's own soc,
    None for elastic customers. The table lives as long as its owner keeps
    it: meta_train and evaluate_adaptation make one per scenario per call; a
    GridEnv given none makes a private one.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.start_socs = tuple(
            spec.battery.soc if spec.kind == "storage" else None for spec in scenario.customers
        )
        self._cooperative = np.array([spec.cooperative for spec in scenario.customers], dtype=bool)
        self._responses: dict[_StepKey, _Response] = {}
        self._windows: dict[int, StateWindow] = {}

    def window(self, t: int) -> StateWindow:
        """The window at t with zero demand, built on first use."""
        template = self._windows.get(t)
        if template is None:
            scenario = self.scenario
            template = build_state_window(scenario.traces, t, scenario.horizon, 0.0)
            self._windows[t] = template
        return template

    def respond(self, t: int, price: float | None, socs: tuple[float | None, ...]) -> _Response:
        """(per-customer draws, their total, next SOCs) of the customers at t
        under a broadcast price, from the batteries' SOCs (None for elastic
        customers).

        price=None evaluates each customer against its own reference price
        (reset preview). Storage customers see a persistence window of the
        announced price; only the first scheduled move is executed. The
        renewable generation at t is the cooperative customers' capacity
        signal. The draws are read-only, as the memo holds them.
        """
        key = (t, price, socs)
        response = self._responses.get(key)
        if response is not None:
            return response
        customers = self.scenario.customers
        if len(socs) != len(customers):
            raise ValueError(f"{len(socs)} SOCs given for {len(customers)} customers")
        window = self.scenario.horizon.window_length
        demands = np.empty(len(customers))
        baselines_now = np.empty(len(customers))
        next_socs = list(socs)
        for i, spec in enumerate(customers):
            baseline_window = spec.baseline_load[t : t + window]
            customer_price = spec.reference_price if price is None else price
            baselines_now[i] = baseline_window[0]
            if spec.kind == "storage":
                if socs[i] is None:
                    raise ValueError(f"storage customer {i} needs a SOC, got None")
                demands[i], next_socs[i] = storage_demand(
                    spec, (customer_price,) * window, baseline_window, socs[i]
                )
            else:
                demands[i] = elastic_demand(
                    baseline_window[0],
                    customer_price,
                    spec.elasticity,
                    spec.reference_price,
                )
        capacity_signal = float(self.window(t).exogenous[0])
        adjusted = cooperative_adjustment(demands, baselines_now, self._cooperative, capacity_signal)
        adjusted.flags.writeable = False
        response = self._responses[key] = (adjusted, float(adjusted.sum()), tuple(next_socs))
        return response


class GridEnv:
    """Single-scenario episodic simulator: the episode cursor (t, done and
    the batteries' SOCs) over its ResponseTable's responses and windows.

    One instance is strictly sequential (battery state serializes steps).
    Instances given one ResponseTable share its memo and must run in one
    thread; instances with private tables share nothing. The table must be
    the scenario's own.
    """

    def __init__(self, scenario: Scenario, *, responses: ResponseTable | None = None):
        self.scenario = scenario
        self._table = responses if responses is not None else ResponseTable(scenario)
        if self._table.scenario is not scenario:
            raise ValueError("responses is the ResponseTable of another scenario")
        self._t: int | None = None
        self._done = False
        self._soc: tuple[float | None, ...] = (None,) * len(scenario.customers)

    @property
    def t(self) -> int | None:
        return self._t

    @property
    def done(self) -> bool:
        return self._done

    def reset(self) -> StateWindow:
        """Start a fresh episode: t = 0, each battery at its own soc.

        The momentary demand in the first observation is a preview of the
        customers' response to their own reference prices; it does not move
        battery state.
        """
        table = self._table
        self._t = 0
        self._done = False
        self._soc = table.start_socs
        _, e_demand, _ = table.respond(0, None, self._soc)
        return with_demand(table.window(0), e_demand)

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

        scenario, table = self.scenario, self._table
        t = self._t
        _, e_demand, self._soc = table.respond(t, price_value, self._soc)
        self._t = t + 1
        self._done = self._t == scenario.episode_length
        # At the minimum trace length the terminal window cannot start at
        # episode_length; clamp to the last valid index. Terminal states are
        # never bootstrapped, so only their contents matter for logging.
        window_t = min(self._t, len(scenario.traces) - scenario.horizon.p - 1)
        return StepOutcome(
            next_state=with_demand(table.window(window_t), e_demand),
            e_demand=e_demand,
            e_renewable=float(table.window(t).exogenous[0]),
            price_sold=price_value,
            purchase_price=scenario.traces.purchase_price[t],
            done=self._done,
        )

    def battery_soc(self, customer_index: int) -> float | None:
        """Current SOC of a storage customer (None for elastic ones)."""
        return self._soc[customer_index]
