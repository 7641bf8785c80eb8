"""Batch harness: validate / build-pool / train / meta-train / evaluate /
tradeoff / report subcommands (plus run, which chains them all), every output
declared in a hashed manifest."""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property

import numpy as np

from .agent import PriceGrid, random_params, zeros_params
from .config import ConfigValidationError, ExperimentConfig, load_config
from .env import Scenario, ScenarioValidationError
from .io import (
    ArtifactWriter,
    PolicyFileError,
    TraceFormatError,
    ingest_traces,
    load_policy,
    policy_document,
    read_episode_csv,
)
from .meta import evaluate_adaptation, meta_train
from .model import ScenarioTraces
from .pool import PoolConfigError, build_scenario_pool
from .telemetry import (
    EpisodeRecord,
    ViolationLog,
    alignment_metrics,
    objective_returns,
    summarize_violations,
)
from .training import (
    LearningConfig,
    TrainConfig,
    run_greedy_episode,
    scaling_from_features,
    collect_rollout_features,
    train_constraint_family,
    train_policy,
)

# The pipeline's stages in dependency order; stage s runs cmd_s, with dashes
# as underscores. Handlers are looked up by name when called, so that a
# wrapper bound over a module-level cmd_* name is the one that runs.
_STAGES = ("validate", "build-pool", "train", "meta-train", "evaluate", "tradeoff", "report")
SUBCOMMANDS = _STAGES + ("run",)


def _handler(name: str):
    return globals()["cmd_" + name.replace("-", "_")]


def _train_config(config: ExperimentConfig) -> TrainConfig:
    knobs = {f.name: getattr(config.agent, f.name) for f in fields(LearningConfig)}
    return TrainConfig(**knobs, weights=config.reward_weights, r1_mode=config.r1_mode)


def _episode_summary(record: EpisodeRecord, total_key: str) -> dict:
    """Per-objective returns and alignment metrics of one episode, the total
    under total_key; rmse and pearson_r are None under two steps."""
    sum_r1, sum_r2, total = objective_returns(record)
    metrics = alignment_metrics(record) if len(record) >= 2 else None
    return {
        "sum_r1": sum_r1,
        "sum_r2": sum_r2,
        total_key: total,
        "rmse": metrics.rmse if metrics else None,
        "pearson_r": metrics.pearson_r if metrics else None,
    }


def _load_traces(config: ExperimentConfig) -> ScenarioTraces | None:
    if config.traces_path is None:
        return None
    return ingest_traces(
        config.traces_path,
        config.horizon.timestep_minutes,
        config.pool.solar_capacity_kw,
        config.pool.wind_capacity_kw,
    )


def _build_pools(config: ExperimentConfig) -> tuple[list[Scenario], list[Scenario]]:
    """Training pool plus disjoint held-out scenarios, one deterministic sweep."""
    traces = _load_traces(config)
    total = config.pool.n_scenarios + config.meta.heldout_scenarios
    pool_config = replace(config.pool, n_scenarios=total)
    scenarios = build_scenario_pool(pool_config, config.pool_base_seed, traces)
    return scenarios[: config.pool.n_scenarios], scenarios[config.pool.n_scenarios :]


@dataclass
class _Context:
    """What the stages of one command share: one writer, and the pools, built
    on first use so that commands which need none build none."""

    config: ExperimentConfig
    seed: int
    writer: ArtifactWriter

    @cached_property
    def pools(self) -> tuple[list[Scenario], list[Scenario]]:
        return _build_pools(self.config)


def cmd_validate(ctx: _Context) -> int:
    ctx.pools  # exercises trace ingestion and scenario construction
    print("config OK")
    return 0


def cmd_build_pool(ctx: _Context) -> int:
    train_pool, heldout = ctx.pools
    ctx.writer.write_json(
        "pool.json",
        {
            "base_seed": ctx.config.pool_base_seed,
            "train": [asdict(s) for s in train_pool],
            "heldout": [asdict(s) for s in heldout],
        },
    )
    print(f"pool: {len(train_pool)} training + {len(heldout)} held-out scenarios")
    return 0


def cmd_train(ctx: _Context) -> int:
    config, writer = ctx.config, ctx.writer
    scenario = ctx.pools[0][config.agent.scenario_index]
    grid = PriceGrid.uniform(config.agent.p_min, config.agent.p_max, config.agent.levels)
    tc = _train_config(config)

    per_seed = []
    first_params = None
    for i in range(config.n_seeds):
        seed_i = ctx.seed + i
        result = train_policy(scenario, grid, tc, seed_i)
        record = run_greedy_episode(scenario, result.params, grid, tc.weights, tc.r1_mode)
        sum_r1, sum_r2, total = objective_returns(record)
        writer.write_episode_csv(
            f"episodes/train_scenario{config.agent.scenario_index}_seed{seed_i}.csv", record
        )
        per_seed.append(
            {
                "seed": seed_i,
                "episode_returns": result.episode_returns,
                "eval_return": total,
                "eval_sum_r1": sum_r1,
                "eval_sum_r2": sum_r2,
            }
        )
        if first_params is None:
            first_params = result.params
    assert first_params is not None
    writer.write_json("policy.json", policy_document(first_params, grid, config.horizon))
    writer.write_json("training_summary.json", {"scenario_index": config.agent.scenario_index, "per_seed": per_seed})
    print(f"trained {config.n_seeds} seed(s); eval return {per_seed[0]['eval_return']:.3f}")
    return 0


def cmd_evaluate(ctx: _Context) -> int:
    config, writer = ctx.config, ctx.writer
    policy_path = writer.path("policy.json")
    params, grid, horizon = load_policy(policy_path)
    if horizon != config.horizon:
        raise PolicyFileError(
            f"{policy_path}: policy was trained for {horizon}, config has {config.horizon}"
        )
    train_pool = ctx.pools[0]
    summary = []
    for i, scenario in enumerate(train_pool):
        record = run_greedy_episode(scenario, params, grid, config.reward_weights, config.r1_mode)
        writer.write_episode_csv(f"episodes/eval_scenario{i}.csv", record)
        summary.append(
            {"scenario_index": i, "scenario_seed": scenario.seed, **_episode_summary(record, "return")}
        )
    log = ViolationLog()
    writer.write_json(
        "violations.json",
        {"entries": [asdict(e) for e in log.entries], "summary": asdict(summarize_violations(log))},
    )
    writer.write_json("eval_summary.json", {"scenarios": summary})
    print(f"evaluated policy on {len(train_pool)} scenario(s)")
    return 0


def cmd_meta_train(ctx: _Context) -> int:
    config, writer, seed = ctx.config, ctx.writer, ctx.seed
    train_pool, heldout = ctx.pools
    grid = PriceGrid.uniform(config.agent.p_min, config.agent.p_max, config.agent.levels)
    meta_cfg = config.meta.config

    rows = [
        collect_rollout_features(s, grid, config.agent.warmup_steps, seed)
        for s in train_pool[: min(3, len(train_pool))]
    ]
    scaling = scaling_from_features(np.concatenate(rows))
    init = zeros_params(grid.k, scaling)
    result = meta_train(
        train_pool,
        meta_cfg,
        seed,
        grid=grid,
        init=init,
        weights=config.reward_weights,
        r1_mode=config.r1_mode,
    )
    writer.write_json("policy_meta.json", policy_document(result.params, grid, config.horizon))
    writer.write_json(
        "meta_history.json",
        {
            "stop_reason": result.stop_reason,
            "iterations_run": len(result.iterations),
            "eval_returns": [it.eval_return for it in result.iterations],
        },
    )

    baseline = random_params(
        grid.k, scaling, np.random.default_rng(seed), std=config.meta.baseline_std
    )
    report = evaluate_adaptation(
        result.params,
        baseline,
        heldout,
        config.meta.adapt_steps,
        config.n_seeds,
        train_pool=train_pool,
        grid=grid,
        inner_lr=meta_cfg.inner_lr,
        gamma=meta_cfg.gamma,
        epsilon=meta_cfg.epsilon,
        weights=config.reward_weights,
        r1_mode=config.r1_mode,
        curve_points=config.meta.curve_points,
    )
    writer.write_json("sample_efficiency.json", asdict(report))
    writer.write_csv(
        "sample_efficiency.csv",
        ("scenario_index", "scenario_seed", "seed", "meta_return", "baseline_return"),
        [
            (e.scenario_index, e.scenario_seed, e.seed, e.meta_return, e.baseline_return)
            for e in report.entries
        ],
    )
    print(
        f"meta-training stopped by {result.stop_reason}; "
        f"held-out wins {report.meta_wins}/{report.n_scenarios}"
    )
    return 0


def cmd_tradeoff(ctx: _Context) -> int:
    config = ctx.config
    scenario = ctx.pools[0][config.agent.scenario_index]
    points = train_constraint_family(
        scenario,
        list(config.tradeoff_bands),
        _train_config(config),
        ctx.seed,
        k_levels=config.agent.levels,
    )
    ctx.writer.write_csv(
        "tradeoff.csv",
        ("p_min", "p_max", "mean_return", "mean_sum_r1", "mean_sum_r2"),
        [(pt.p_min, pt.p_max, pt.mean_return, pt.mean_sum_r1, pt.mean_sum_r2) for pt in points],
    )
    print(f"trade-off table over {len(points)} band(s) written")
    return 0


def cmd_report(ctx: _Context) -> int:
    writer = ctx.writer
    episode_rows = []
    episodes_dir = writer.path("episodes")
    if episodes_dir.is_dir():
        for csv_path in sorted(episodes_dir.glob("*.csv")):
            record = read_episode_csv(csv_path)
            if not record.steps:
                continue
            episode_rows.append(
                {"source": f"episodes/{csv_path.name}", **_episode_summary(record, "sum_total")}
            )

    summary = {"episodes": episode_rows}
    for name in ("violations.json", "tradeoff.csv", "sample_efficiency.json"):
        summary[name.split(".")[0]] = writer.path(name).exists()

    writer.write_json("summary.json", summary)
    writer.write_csv(
        "summary.csv",
        ("source", "sum_r1", "sum_r2", "sum_total", "rmse", "pearson_r"),
        [
            (
                row["source"],
                row["sum_r1"],
                row["sum_r2"],
                row["sum_total"],
                "" if row["rmse"] is None else row["rmse"],
                "" if row["pearson_r"] is None else row["pearson_r"],
            )
            for row in episode_rows
        ],
    )
    print(f"report over {len(episode_rows)} episode file(s) written")
    return 0


def cmd_run(ctx: _Context) -> int:
    """The full pipeline in dependency order, on one context."""
    for stage in _STAGES:
        status = _handler(stage)(ctx)
        if status != 0:
            return status
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="voltmarket",
        description="Desk-scale electricity market simulator and pricing-agent harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="path to the experiment JSON config")
        cmd.add_argument("--out", default=None, help="output directory (default: config paths.output_dir)")
        cmd.add_argument("--seed", type=int, default=None, help="training seed (default: config seeds.train_seed)")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        print(f"--seed: must be >= 0, got {args.seed}", file=sys.stderr)
        return 2

    try:
        config = load_config(args.config)
    except ConfigValidationError as exc:
        print(exc, file=sys.stderr)
        return 2
    out_dir = args.out if args.out is not None else config.output_dir
    seed = args.seed if args.seed is not None else config.train_seed
    ctx = _Context(config, seed, ArtifactWriter(out_dir))

    try:
        return _handler(args.command)(ctx)
    except (TraceFormatError, PoolConfigError, ScenarioValidationError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except (PolicyFileError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if ctx.writer.written:
            ctx.writer.write_manifest()


if __name__ == "__main__":
    sys.exit(main())
