"""Episode loops tying environment, agent and reward together: warm-up feature
scaling, Q-learning training, greedy and fixed-price evaluation, raw-price
evaluation with violation logging, and constraint-level policy families."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .agent import (
    FeatureScaling,
    PolicyParams,
    PriceGrid,
    clamp_price,
    featurize,
    select_action,
    td_update,
    window_channels,
    zeros_params,
)
from .env import GridEnv, ResponseTable, Scenario
from .reward import RewardWeights, breakdown, r1_mode_violations
from .telemetry import EpisodeRecord, EpisodeStep, ViolationLog, objective_returns


@dataclass(frozen=True)
class EpsilonSchedule:
    """Linear anneal from start to end over decay_steps, then flat."""

    start: float
    end: float
    decay_steps: int

    def __post_init__(self) -> None:
        problems = unit_interval_violations("epsilon start", self.start)
        problems += unit_interval_violations("epsilon end", self.end)
        if self.decay_steps < 1:
            problems.append(f"decay_steps must be >= 1, got {self.decay_steps}")
        if problems:
            raise ValueError("; ".join(problems))

    def value(self, step: int) -> float:
        frac = min(1.0, max(0.0, step / self.decay_steps))
        return self.start + (self.end - self.start) * frac

    @classmethod
    def constant(cls, epsilon: float) -> "EpsilonSchedule":
        return cls(start=epsilon, end=epsilon, decay_steps=1)


def lr_violations(name: str, lr: float) -> list[str]:
    """The learning-rate rule: finite and > 0."""
    return [] if math.isfinite(lr) and lr > 0.0 else [f"{name} must be finite and > 0, got {lr}"]


def unit_interval_violations(name: str, value: float) -> list[str]:
    """The rule for a discount, an exploration rate or a step fraction: in [0, 1]."""
    return [] if 0.0 <= value <= 1.0 else [f"{name} must lie in [0, 1], got {value}"]


@dataclass(frozen=True)
class LearningConfig:
    """The learning knobs that TrainConfig shares with the config's agent
    section. It never raises: violations() lists its range problems."""

    episodes: int = 40
    lr: float = 0.01
    gamma: float = 0.5
    epsilon_start: float = 0.3
    epsilon_end: float = 0.02
    warmup_steps: int = 100

    def violations(self) -> list[str]:
        problems = lr_violations("lr", self.lr)
        for name in ("gamma", "epsilon_start", "epsilon_end"):
            problems += unit_interval_violations(name, getattr(self, name))
        if self.episodes < 1:
            problems.append(f"episodes must be >= 1, got {self.episodes}")
        if self.warmup_steps < 1:
            problems.append(f"warmup_steps must be >= 1, got {self.warmup_steps}")
        return problems


@dataclass(frozen=True)
class TrainConfig(LearningConfig):
    weights: RewardWeights = RewardWeights()
    r1_mode: str = "price_diff"

    def __post_init__(self) -> None:
        problems = self.violations()
        if problems:
            raise ValueError("; ".join(problems))

    def violations(self) -> list[str]:
        return super().violations() + r1_mode_violations(self.r1_mode)


@dataclass
class TrainResult:
    params: PolicyParams
    episode_returns: list[float] = field(default_factory=list)


def collect_rollout_features(
    scenario: Scenario, grid: PriceGrid, steps: int, seed: int
) -> np.ndarray:
    """Raw (unscaled) feature rows from a uniform-random-price rollout."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    env = GridEnv(scenario)
    rng = np.random.default_rng(seed)
    state = env.reset()
    rows = [window_channels(state)]
    for _ in range(steps - 1):
        price = grid.levels[int(rng.integers(grid.k))]
        outcome = env.step(price)
        rows.append(window_channels(outcome.next_state))
        if outcome.done:
            state = env.reset()
            rows[-1] = window_channels(state)
    return np.asarray(rows)


def scaling_from_features(rows: np.ndarray) -> FeatureScaling:
    """Standardize to the empirical moments; constant features keep unit scale."""
    mean = rows.mean(axis=0)
    scale = rows.std(axis=0)
    scale[scale < 1e-9] = 1.0
    return FeatureScaling(mean=mean, scale=scale)


def warmup_scaling(scenario: Scenario, grid: PriceGrid, steps: int, seed: int) -> FeatureScaling:
    return scaling_from_features(collect_rollout_features(scenario, grid, steps, seed))


def _step_and_reward(env: GridEnv, price: float, weights: RewardWeights, r1_mode: str):
    """Advance env at price; return the StepOutcome and its RewardBreakdown."""
    outcome = env.step(price)
    reward = breakdown(
        outcome.price_sold, outcome.purchase_price, outcome.e_renewable, outcome.e_demand,
        weights, r1_mode,
    )
    return outcome, reward


def learn_on_env(
    env: GridEnv,
    params: PolicyParams,
    grid: PriceGrid,
    steps: int,
    lr: float,
    gamma: float,
    epsilon: EpsilonSchedule,
    rng: np.random.Generator,
    weights: RewardWeights = RewardWeights(),
    r1_mode: str = "price_diff",
    on_step: Callable[[int, PolicyParams], None] | None = None,
) -> tuple[PolicyParams, list[float]]:
    """Run a fixed number of epsilon-greedy Q-learning steps on one env.

    Episodes reset automatically; returns the updated params and the return
    of each completed episode. The run updates its own copy of params'
    weights in place; params is left untouched. If given, on_step(steps_done,
    params) is called after every update with a copy of the params reached
    so far; nothing is kept unless the callback keeps it.
    """
    # PolicyParams wraps the float64 array without copying it, so select_action
    # reads the weights that td_update writes.
    params = PolicyParams(weights=params.weights.copy(), scaling=params.scaling)
    w = params.weights
    episode_returns: list[float] = []
    features = featurize(env.reset(), params.scaling)
    ep_return = 0.0
    for step in range(steps):
        a = select_action(params, features, epsilon.value(step), grid, rng)
        outcome, reward = _step_and_reward(env, grid.levels[a], weights, r1_mode)
        next_features = featurize(outcome.next_state, params.scaling)
        td_update(w, features, a, reward.total, next_features, outcome.done, lr, gamma)
        if on_step is not None:
            on_step(step + 1, PolicyParams(weights=w.copy(), scaling=params.scaling))
        ep_return += reward.total
        if outcome.done:
            episode_returns.append(ep_return)
            ep_return = 0.0
            next_features = featurize(env.reset(), params.scaling)
        features = next_features
    return params, episode_returns


def train_policy(
    scenario: Scenario, grid: PriceGrid, config: TrainConfig, seed: int
) -> TrainResult:
    """Train a policy on one scenario for config.episodes episodes.

    Exploration anneals linearly over the first 70% of all steps. The feature
    scaling comes from a warm-up rollout.
    """
    scaling = warmup_scaling(scenario, grid, config.warmup_steps, seed)
    params = zeros_params(grid.k, scaling)

    total_steps = config.episodes * scenario.episode_length
    epsilon = EpsilonSchedule(
        start=config.epsilon_start,
        end=config.epsilon_end,
        decay_steps=max(1, int(0.7 * total_steps)),
    )
    rng = np.random.default_rng(seed)
    env = GridEnv(scenario)
    params, returns = learn_on_env(
        env,
        params,
        grid,
        total_steps,
        config.lr,
        config.gamma,
        epsilon,
        rng,
        config.weights,
        config.r1_mode,
    )
    return TrainResult(params=params, episode_returns=returns)


def _rollout(
    scenario: Scenario,
    price_for_state,
    weights: RewardWeights,
    r1_mode: str,
    responses: ResponseTable | None = None,
) -> EpisodeRecord:
    """One full episode driven by a state -> price function; logs every step."""
    env = GridEnv(scenario, responses=responses)
    state = env.reset()
    record = EpisodeRecord()
    for t in range(scenario.episode_length):
        outcome, reward = _step_and_reward(env, price_for_state(state), weights, r1_mode)
        record.steps.append(
            EpisodeStep(
                t=t,
                price=outcome.price_sold,
                e_demand=outcome.e_demand,
                e_renewable=outcome.e_renewable,
                purchase_price=outcome.purchase_price,
                r1=reward.r1,
                r2=reward.r2,
                total=reward.total,
            )
        )
        state = outcome.next_state
    return record


def run_greedy_episode(
    scenario: Scenario,
    params: PolicyParams,
    grid: PriceGrid,
    weights: RewardWeights = RewardWeights(),
    r1_mode: str = "price_diff",
    *,
    responses: ResponseTable | None = None,
) -> EpisodeRecord:
    """Deterministic evaluation episode under the greedy policy.

    responses, if given, is the scenario's ResponseTable, shared with the
    caller's other envs; by default the episode's env keeps a private one.
    """

    def choose(state):
        return grid.levels[select_action(params, featurize(state, params.scaling), 0.0, grid)]

    return _rollout(scenario, choose, weights, r1_mode, responses)


def run_fixed_price_episode(
    scenario: Scenario,
    price: float,
    weights: RewardWeights = RewardWeights(),
    r1_mode: str = "price_diff",
) -> EpisodeRecord:
    """Evaluation episode under a constant price (the no-agent baseline)."""
    return _rollout(scenario, lambda _state: price, weights, r1_mode)


def episode_return(record: EpisodeRecord) -> float:
    return objective_returns(record)[2]


def evaluate_price_sequence(
    scenario: Scenario,
    prices: Sequence[float],
    grid: PriceGrid,
    weights: RewardWeights = RewardWeights(),
    r1_mode: str = "price_diff",
) -> tuple[EpisodeRecord, ViolationLog]:
    """Evaluate an externally supplied raw price sequence.

    Prices outside the band are clamped and logged; the episode runs on the
    clamped values.
    """
    if len(prices) < scenario.episode_length:
        raise ValueError(
            f"need {scenario.episode_length} prices, got {len(prices)}"
        )
    log = ViolationLog()

    def choose(state):
        t = state.t
        clamped, violated = clamp_price(prices[t], grid)
        if violated:
            log.record(t, prices[t], clamped)
        return clamped

    record = _rollout(scenario, choose, weights, r1_mode)
    return record, log


@dataclass(frozen=True, eq=False)
class TradeoffPoint:
    p_min: float
    p_max: float
    params: PolicyParams
    mean_return: float
    mean_sum_r1: float
    mean_sum_r2: float


def train_constraint_family(
    scenario: Scenario,
    bands: Sequence[tuple[float, float]],
    config: TrainConfig,
    seed: int,
    k_levels: int = 11,
) -> list[TradeoffPoint]:
    """Train one policy per price band, identical seed and config otherwise.

    Emits the band-vs-performance table operators use to judge how much
    return a tighter constraint costs; results keep band order.
    """
    if len(bands) < 1:
        raise ValueError("train_constraint_family requires at least one band")

    points = []
    for p_min, p_max in bands:
        grid = PriceGrid.uniform(p_min, p_max, k_levels)
        result = train_policy(scenario, grid, config, seed)
        record = run_greedy_episode(scenario, result.params, grid, config.weights, config.r1_mode)
        sum_r1, sum_r2, total = objective_returns(record)
        points.append(
            TradeoffPoint(
                p_min=p_min,
                p_max=p_max,
                params=result.params,
                mean_return=total,
                mean_sum_r1=sum_r1,
                mean_sum_r2=sum_r2,
            )
        )
    return points
