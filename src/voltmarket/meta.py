"""First-order meta-training across a scenario pool: per-task Q-learning
adaptation, an averaged-difference outer update, and a held-out
sample-efficiency comparison against a non-meta initialization."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .agent import PolicyParams, PriceGrid
from .env import GridEnv, ResponseTable, Scenario
from .reward import RewardWeights
from .training import (
    EpsilonSchedule,
    episode_return,
    learn_on_env,
    lr_violations,
    run_greedy_episode,
    unit_interval_violations,
)

STOP_META_ITERATIONS = "meta_iterations"
STOP_PERFORMANCE_THRESHOLD = "performance_threshold"


@dataclass(frozen=True)
class MetaConfig:
    """Outer/inner loop sizes and the stop threshold (no sensible default
    exists for the threshold, so it is required)."""

    performance_threshold: float
    inner_steps: int = 200
    inner_lr: float = 0.01
    meta_lr: float = 0.5
    meta_iterations: int = 15
    tasks_per_iteration: int = 4
    gamma: float = 0.5
    epsilon: float = 0.1

    def __post_init__(self) -> None:
        problems = self.violations()
        if problems:
            raise ValueError("; ".join(problems))

    def violations(self) -> list[str]:
        problems: list[str] = []
        if self.inner_steps <= 0:
            problems.append(f"inner_steps must be > 0, got {self.inner_steps}")
        problems += lr_violations("inner_lr", self.inner_lr)
        for name in ("meta_lr", "gamma", "epsilon"):
            problems += unit_interval_violations(name, getattr(self, name))
        if self.meta_iterations <= 0:
            problems.append(f"meta_iterations must be > 0, got {self.meta_iterations}")
        if self.tasks_per_iteration <= 0:
            problems.append(f"tasks_per_iteration must be > 0, got {self.tasks_per_iteration}")
        return problems


def _adaptation_seed(base_seed: int, *streams: int) -> int:
    # Stable derived seed for one adaptation run; the tuple keeps streams
    # from different iterations/tasks/inits independent but reproducible.
    return int(np.random.SeedSequence((base_seed, *streams)).generate_state(1)[0])


def adapt(
    init: PolicyParams,
    scenario: Scenario,
    k_steps: int,
    inner_lr: float,
    gamma: float,
    epsilon: float,
    grid: PriceGrid,
    agent_seed: int = 0,
    weights: RewardWeights = RewardWeights(),
    r1_mode: str = "price_diff",
    on_step: Callable[[int, PolicyParams], None] | None = None,
    *,
    responses: ResponseTable | None = None,
) -> PolicyParams:
    """Run k_steps of Q-learning at a constant epsilon from init on one scenario.

    The input parameters are never mutated: the run works on its own copy.
    on_step is forwarded to learn_on_env. responses, if given, is the
    scenario's ResponseTable, shared with the caller's other envs; by default
    the env keeps a private one.
    """
    if k_steps < 1:
        raise ValueError(f"k_steps must be >= 1, got {k_steps}")
    env = GridEnv(scenario, responses=responses)
    rng = np.random.default_rng(agent_seed)
    adapted, _ = learn_on_env(
        env,
        init,
        grid,
        k_steps,
        inner_lr,
        gamma,
        EpsilonSchedule.constant(epsilon),
        rng,
        weights,
        r1_mode,
        on_step,
    )
    return adapted


@dataclass
class MetaIteration:
    task_indices: list[int]
    adapted_weights: list[np.ndarray]
    eval_return: float


@dataclass
class MetaResult:
    params: PolicyParams
    stop_reason: str
    initial_weights: np.ndarray
    iterations: list[MetaIteration] = field(default_factory=list)


def meta_train(
    pool: list[Scenario],
    config: MetaConfig,
    seed: int,
    *,
    grid: PriceGrid,
    init: PolicyParams,
    weights: RewardWeights = RewardWeights(),
    r1_mode: str = "price_diff",
) -> MetaResult:
    """Averaged-difference meta-training over the pool.

    Each iteration samples tasks, adapts the shared initialization on each,
    then moves the initialization toward the mean adapted parameters by
    meta_lr. Stops at meta_iterations or when the rolling mean (window 3) of
    the per-iteration greedy evaluation return crosses the performance
    threshold, whichever fires first; the result records which one did.
    Each pool scenario's envs share one ResponseTable, which dies with the call.
    """
    if not pool:
        raise ValueError("meta_train requires a non-empty scenario pool")
    if config.tasks_per_iteration > len(pool):
        raise ValueError(
            f"tasks_per_iteration ({config.tasks_per_iteration}) exceeds pool size ({len(pool)})"
        )

    task_rng = np.random.default_rng(seed)
    tables = [ResponseTable(s) for s in pool]
    params = init
    result = MetaResult(
        params=params,
        stop_reason=STOP_META_ITERATIONS,
        initial_weights=init.weights.copy(),
    )
    eval_history: list[float] = []
    for iteration in range(config.meta_iterations):
        task_indices = sorted(
            task_rng.choice(len(pool), size=config.tasks_per_iteration, replace=False).tolist()
        )
        adapted_weights = []
        for slot, task_index in enumerate(task_indices):
            adapted = adapt(
                params,
                pool[task_index],
                config.inner_steps,
                config.inner_lr,
                config.gamma,
                config.epsilon,
                grid,
                agent_seed=_adaptation_seed(seed, iteration, slot),
                weights=weights,
                r1_mode=r1_mode,
                responses=tables[task_index],
            )
            adapted_weights.append(adapted.weights)

        mean_adapted = np.mean(adapted_weights, axis=0)
        new_weights = params.weights + config.meta_lr * (mean_adapted - params.weights)
        params = PolicyParams(weights=new_weights, scaling=params.scaling)

        eval_return = float(
            np.mean(
                [
                    episode_return(
                        run_greedy_episode(
                            pool[i], params, grid, weights, r1_mode, responses=tables[i]
                        )
                    )
                    for i in task_indices
                ]
            )
        )
        eval_history.append(eval_return)
        result.iterations.append(
            MetaIteration(
                task_indices=task_indices,
                adapted_weights=adapted_weights,
                eval_return=eval_return,
            )
        )
        rolling = float(np.mean(eval_history[-3:]))
        if rolling >= config.performance_threshold:
            result.params = params
            result.stop_reason = STOP_PERFORMANCE_THRESHOLD
            return result

    result.params = params
    return result


@dataclass
class AdaptationCurve:
    scenario_seed: int
    steps: list[int]
    meta_returns: list[float]
    baseline_returns: list[float]


@dataclass(frozen=True)
class SampleEfficiencyEntry:
    scenario_index: int
    scenario_seed: int
    seed: int
    meta_return: float
    baseline_return: float


@dataclass
class SampleEfficiencyReport:
    entries: list[SampleEfficiencyEntry]
    per_scenario_meta_mean: list[float]
    per_scenario_baseline_mean: list[float]
    pooled_meta_mean: float
    pooled_baseline_mean: float
    meta_wins: int
    n_scenarios: int
    n_seeds: int
    k_steps: int
    curves: list[AdaptationCurve] = field(default_factory=list)


def evaluate_adaptation(
    meta_init: PolicyParams,
    baseline_init: PolicyParams,
    heldout: list[Scenario],
    k_steps: int,
    n_seeds: int,
    *,
    train_pool: list[Scenario],
    grid: PriceGrid,
    inner_lr: float,
    gamma: float,
    epsilon: float,
    weights: RewardWeights = RewardWeights(),
    r1_mode: str = "price_diff",
    curve_points: int = 0,
) -> SampleEfficiencyReport:
    """Paired comparison of two initializations on held-out scenarios.

    For every (scenario, seed) pair both initializations adapt for k_steps
    under identical seeds, then the greedy return over the scenario's
    episode is compared. Held-out scenarios must be disjoint (by seed) from
    the training pool, which keeps this a genuine out-of-distribution check.
    curve_points > 0 additionally evaluates both inits at evenly spaced
    adaptation checkpoints. The curves are read off the same k_steps run:
    epsilon is constant and the RNG stream is the run's own, so the params
    after c of its steps are those of a separate c-step run. Step 0 is the
    init itself, evaluated once per scenario, and step k_steps is the
    entry's return. Each held-out scenario's envs share one ResponseTable,
    which dies when the next scenario starts.
    """
    if not heldout:
        raise ValueError("evaluate_adaptation requires held-out scenarios")
    train_seeds = {s.seed for s in train_pool}
    overlap = sorted(train_seeds & {s.seed for s in heldout})
    if overlap:
        raise ValueError(f"held-out scenarios overlap the training pool (seeds {overlap})")

    checkpoints: list[int] = []
    if curve_points > 0:
        checkpoints = sorted({round(k_steps * j / curve_points) for j in range(curve_points + 1)})
    inner_checkpoints = set(checkpoints) - {0, k_steps}

    entries: list[SampleEfficiencyEntry] = []
    curves: list[AdaptationCurve] = []
    per_scenario_meta: list[float] = []
    per_scenario_baseline: list[float] = []

    # Both use `responses`, the table the loop below makes per held-out scenario.
    def greedy_return(scenario: Scenario, params: PolicyParams) -> float:
        return episode_return(
            run_greedy_episode(scenario, params, grid, weights, r1_mode, responses=responses)
        )

    def adapted_returns(init: PolicyParams, scenario: Scenario) -> tuple[list[float], list[float]]:
        """The greedy return after k_steps of adaptation from init, per seed,
        and the seed-mean greedy return at each checkpoint."""
        curve = np.zeros(len(checkpoints))
        init_return = greedy_return(scenario, init) if checkpoints else None
        finals = []
        for s in range(n_seeds):
            snapshots: dict[int, PolicyParams] = {}

            def keep(steps_done: int, params: PolicyParams) -> None:
                if steps_done in inner_checkpoints:
                    snapshots[steps_done] = params

            adapted = adapt(
                init,
                scenario,
                k_steps,
                inner_lr,
                gamma,
                epsilon,
                grid,
                agent_seed=_adaptation_seed(scenario.seed, s),
                weights=weights,
                r1_mode=r1_mode,
                on_step=keep,
                responses=responses,
            )
            finals.append(greedy_return(scenario, adapted))
            returns = {0: init_return, k_steps: finals[-1]}
            returns.update((c, greedy_return(scenario, p)) for c, p in snapshots.items())
            curve += [returns[c] / n_seeds for c in checkpoints]
        return finals, curve.tolist()

    for idx, scenario in enumerate(heldout):
        responses = ResponseTable(scenario)
        meta_returns, meta_curve = adapted_returns(meta_init, scenario)
        baseline_returns, baseline_curve = adapted_returns(baseline_init, scenario)
        for s, (meta_return, baseline_return) in enumerate(zip(meta_returns, baseline_returns)):
            entries.append(
                SampleEfficiencyEntry(
                    scenario_index=idx,
                    scenario_seed=scenario.seed,
                    seed=s,
                    meta_return=meta_return,
                    baseline_return=baseline_return,
                )
            )
        per_scenario_meta.append(float(np.mean(meta_returns)))
        per_scenario_baseline.append(float(np.mean(baseline_returns)))
        if checkpoints:
            curves.append(
                AdaptationCurve(
                    scenario_seed=scenario.seed,
                    steps=list(checkpoints),
                    meta_returns=meta_curve,
                    baseline_returns=baseline_curve,
                )
            )

    meta_wins = sum(
        1 for m, b in zip(per_scenario_meta, per_scenario_baseline) if m > b
    )
    return SampleEfficiencyReport(
        entries=entries,
        per_scenario_meta_mean=per_scenario_meta,
        per_scenario_baseline_mean=per_scenario_baseline,
        pooled_meta_mean=float(np.mean(per_scenario_meta)),
        pooled_baseline_mean=float(np.mean(per_scenario_baseline)),
        meta_wins=meta_wins,
        n_scenarios=len(heldout),
        n_seeds=n_seeds,
        k_steps=k_steps,
        curves=curves,
    )
