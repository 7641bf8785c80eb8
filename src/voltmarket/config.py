"""Experiment configuration: a single JSON document covering horizon, reward,
agent, pool, meta-training, trade-off bands, paths and seeds. Validation is
total: every violation is reported, not just the first."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .meta import MetaConfig
from .model import Horizon
from .pool import PoolConfig
from .reward import R1_MODES, RewardWeights


class ConfigValidationError(ValueError):
    """Invalid experiment config; carries the full list of violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid config:\n" + "\n".join(f"  - {v}" for v in violations))


@dataclass(frozen=True)
class AgentSection:
    levels: int = 11
    p_min: float = 0.05
    p_max: float = 0.45
    lr: float = 0.01
    gamma: float = 0.5
    epsilon_start: float = 0.3
    epsilon_end: float = 0.02
    episodes: int = 20
    warmup_steps: int = 100
    scenario_index: int = 0


@dataclass(frozen=True)
class MetaSection:
    config: MetaConfig
    heldout_scenarios: int = 3
    adapt_steps: int = 50
    curve_points: int = 0
    baseline_std: float = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    horizon: Horizon
    reward_weights: RewardWeights
    r1_mode: str
    agent: AgentSection
    pool: PoolConfig
    pool_base_seed: int
    meta: MetaSection
    tradeoff_bands: tuple[tuple[float, float], ...]
    traces_path: str | None
    output_dir: str
    n_seeds: int
    train_seed: int


_KNOWN_SECTIONS = {"horizon", "reward", "agent", "pool", "meta", "tradeoff", "paths", "seeds"}

_DEFAULT_BANDS = ((0.15, 0.15), (0.10, 0.25), (0.05, 0.35), (0.02, 0.45))


class _Reader:
    """Pulls typed values out of a nested dict, accumulating violations."""

    def __init__(self, data: dict, violations: list[str]):
        self.data = data
        self.violations = violations

    def section(self, name: str) -> dict:
        value = self.data.get(name, {})
        if not isinstance(value, dict):
            self.violations.append(f"{name}: must be an object, got {type(value).__name__}")
            return {}
        return value

    def value(self, section: dict, section_name: str, key: str, kind, default, *, required=False):
        if key not in section:
            if required:
                self.violations.append(f"{section_name}.{key}: required, no default exists")
            return default
        raw = section[key]
        try:
            if kind is int:
                if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
                    raise TypeError
                value = int(raw)
            elif kind is float:
                if isinstance(raw, bool):
                    raise TypeError
                value = float(raw)
                if not math.isfinite(value):
                    raise TypeError
            elif kind is str:
                if not isinstance(raw, str):
                    raise TypeError
                value = raw
            else:
                value = raw
        except (TypeError, ValueError):
            self.violations.append(
                f"{section_name}.{key}: expected {kind.__name__}, got {raw!r}"
            )
            return default
        return value

    def pair(self, section: dict, section_name: str, key: str, default):
        raw = section.get(key, default)
        if (
            not isinstance(raw, (list, tuple))
            or len(raw) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw)
        ):
            self.violations.append(f"{section_name}.{key}: expected [lo, hi], got {raw!r}")
            return tuple(default)
        return (float(raw[0]), float(raw[1]))


def load_config(path: str | os.PathLike) -> ExperimentConfig:
    """Parse and validate a config file; raises with every violation found."""
    path = Path(path)
    if not path.exists():
        raise ConfigValidationError([f"config file not found: {path}"])
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigValidationError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigValidationError(["config root must be a JSON object"])
    return parse_config(data, base_dir=path.parent)


def parse_config(data: dict, base_dir: Path | None = None) -> ExperimentConfig:
    violations: list[str] = []
    for key in data:
        if key not in _KNOWN_SECTIONS:
            violations.append(f"unknown section {key!r}")
    r = _Reader(data, violations)

    hz = r.section("horizon")
    p = r.value(hz, "horizon", "p", int, 3)
    timestep = r.value(hz, "horizon", "timestep_minutes", int, 60)
    if p < 0:
        violations.append(f"horizon.p: must be >= 0, got {p}")
    if timestep <= 0:
        violations.append(f"horizon.timestep_minutes: must be > 0, got {timestep}")

    rw = r.section("reward")
    alpha1 = r.value(rw, "reward", "alpha1", float, 1.0)
    alpha2 = r.value(rw, "reward", "alpha2", float, 1.0)
    r1_mode = r.value(rw, "reward", "r1_mode", str, "price_diff")
    if alpha1 < 0.0:
        violations.append(f"reward.alpha1: must be >= 0, got {alpha1}")
    if alpha2 < 0.0:
        violations.append(f"reward.alpha2: must be >= 0, got {alpha2}")
    if r1_mode not in R1_MODES:
        violations.append(f"reward.r1_mode: must be one of {list(R1_MODES)}, got {r1_mode!r}")

    ag = r.section("agent")
    agent = AgentSection(
        levels=r.value(ag, "agent", "levels", int, 11),
        p_min=r.value(ag, "agent", "p_min", float, 0.05),
        p_max=r.value(ag, "agent", "p_max", float, 0.45),
        lr=r.value(ag, "agent", "lr", float, 0.01),
        gamma=r.value(ag, "agent", "gamma", float, 0.5),
        epsilon_start=r.value(ag, "agent", "epsilon_start", float, 0.3),
        epsilon_end=r.value(ag, "agent", "epsilon_end", float, 0.02),
        episodes=r.value(ag, "agent", "episodes", int, 20),
        warmup_steps=r.value(ag, "agent", "warmup_steps", int, 100),
        scenario_index=r.value(ag, "agent", "scenario_index", int, 0),
    )
    if agent.levels < 1:
        violations.append(f"agent.levels: must be >= 1, got {agent.levels}")
    if agent.p_min < 0.0:
        violations.append(f"agent.p_min: must be >= 0, got {agent.p_min}")
    if agent.p_max < agent.p_min:
        violations.append(f"agent.p_max: must be >= p_min, got [{agent.p_min}, {agent.p_max}]")
    if agent.lr <= 0.0:
        violations.append(f"agent.lr: must be > 0, got {agent.lr}")
    if not 0.0 <= agent.gamma <= 1.0:
        violations.append(f"agent.gamma: must lie in [0, 1], got {agent.gamma}")
    for name, eps in (("epsilon_start", agent.epsilon_start), ("epsilon_end", agent.epsilon_end)):
        if not 0.0 <= eps <= 1.0:
            violations.append(f"agent.{name}: must lie in [0, 1], got {eps}")
    if agent.episodes <= 0:
        violations.append(f"agent.episodes: must be > 0, got {agent.episodes}")
    if agent.warmup_steps < 1:
        violations.append(f"agent.warmup_steps: must be >= 1, got {agent.warmup_steps}")

    pl = r.section("pool")
    n_scenarios = r.value(pl, "pool", "n_scenarios", int, 8)
    pool_base_seed = r.value(pl, "pool", "base_seed", int, 101)
    if pool_base_seed < 0:
        violations.append(f"pool.base_seed: must be >= 0, got {pool_base_seed}")
    horizon = Horizon(max(0, p), max(1, timestep))
    pool = PoolConfig(
        n_scenarios=n_scenarios,
        customer_count=r.value(pl, "pool", "customer_count", int, 4),
        storage_fraction=r.pair(pl, "pool", "storage_fraction", (0.25, 0.75)),
        cooperative_fraction=r.pair(pl, "pool", "cooperative_fraction", (0.0, 1.0)),
        elasticity=r.pair(pl, "pool", "elasticity", (-1.2, -0.4)),
        horizon=horizon,
        episode_length=r.value(pl, "pool", "episode_length", int, 168),
        solar_capacity_kw=r.value(pl, "pool", "solar_capacity_kw", float, 30.0),
        wind_capacity_kw=r.value(pl, "pool", "wind_capacity_kw", float, 12.0),
        reference_price=r.value(pl, "pool", "reference_price", float, 0.15),
        soc_levels=r.value(pl, "pool", "soc_levels", int, 5),
    )
    for problem in pool.violations():
        violations.append(f"pool: {problem}")
    if agent.scenario_index < 0 or agent.scenario_index >= max(1, n_scenarios):
        violations.append(
            f"agent.scenario_index: must index the pool [0, {n_scenarios}), "
            f"got {agent.scenario_index}"
        )

    mt = r.section("meta")
    threshold = r.value(mt, "meta", "performance_threshold", float, None, required=True)
    meta_kwargs = dict(
        inner_steps=r.value(mt, "meta", "inner_steps", int, 200),
        inner_lr=r.value(mt, "meta", "inner_lr", float, 0.01),
        meta_lr=r.value(mt, "meta", "meta_lr", float, 0.5),
        meta_iterations=r.value(mt, "meta", "meta_iterations", int, 15),
        tasks_per_iteration=r.value(mt, "meta", "tasks_per_iteration", int, 4),
        gamma=r.value(mt, "meta", "gamma", float, 0.5),
        epsilon=r.value(mt, "meta", "epsilon", float, 0.1),
    )
    meta_section = None
    if threshold is not None:
        try:
            meta_config = MetaConfig(performance_threshold=threshold, **meta_kwargs)
        except ValueError as exc:
            violations.append(f"meta: {exc}")
        else:
            if meta_config.tasks_per_iteration > n_scenarios:
                violations.append(
                    f"meta.tasks_per_iteration ({meta_config.tasks_per_iteration}) "
                    f"exceeds pool.n_scenarios ({n_scenarios})"
                )
            meta_section = MetaSection(
                config=meta_config,
                heldout_scenarios=r.value(mt, "meta", "heldout_scenarios", int, 3),
                adapt_steps=r.value(mt, "meta", "adapt_steps", int, 50),
                curve_points=r.value(mt, "meta", "curve_points", int, 0),
                baseline_std=r.value(mt, "meta", "baseline_std", float, 0.1),
            )
            if meta_section.heldout_scenarios < 1:
                violations.append(
                    f"meta.heldout_scenarios: must be >= 1, got {meta_section.heldout_scenarios}"
                )
            if meta_section.adapt_steps < 1:
                violations.append(
                    f"meta.adapt_steps: must be >= 1, got {meta_section.adapt_steps}"
                )

    to = r.section("tradeoff")
    raw_bands = to.get("bands", [list(b) for b in _DEFAULT_BANDS])
    bands: list[tuple[float, float]] = []
    if not isinstance(raw_bands, list) or not raw_bands:
        violations.append("tradeoff.bands: expected a non-empty list of [p_min, p_max] pairs")
    else:
        for i, band in enumerate(raw_bands):
            if (
                not isinstance(band, (list, tuple))
                or len(band) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in band)
            ):
                violations.append(f"tradeoff.bands[{i}]: expected [p_min, p_max], got {band!r}")
                continue
            lo, hi = float(band[0]), float(band[1])
            if lo < 0.0 or hi < lo:
                violations.append(
                    f"tradeoff.bands[{i}]: requires 0 <= p_min <= p_max, got [{lo}, {hi}]"
                )
                continue
            bands.append((lo, hi))

    pa = r.section("paths")
    traces_path = pa.get("traces")
    if traces_path is not None and not isinstance(traces_path, str):
        violations.append(f"paths.traces: expected a path or null, got {traces_path!r}")
        traces_path = None
    if isinstance(traces_path, str):
        resolved = Path(traces_path)
        if base_dir is not None and not resolved.is_absolute():
            resolved = base_dir / resolved
        if not resolved.exists():
            violations.append(f"paths.traces: file not found: {resolved}")
        traces_path = str(resolved)
    output_dir = r.value(pa, "paths", "output_dir", str, "out")

    sd = r.section("seeds")
    n_seeds = r.value(sd, "seeds", "n_seeds", int, 3)
    train_seed = r.value(sd, "seeds", "train_seed", int, 1)
    if n_seeds < 1:
        violations.append(f"seeds.n_seeds: must be >= 1, got {n_seeds}")
    if train_seed < 0:
        violations.append(f"seeds.train_seed: must be >= 0, got {train_seed}")

    if violations:
        raise ConfigValidationError(violations)
    assert meta_section is not None
    return ExperimentConfig(
        horizon=horizon,
        reward_weights=RewardWeights(alpha1=alpha1, alpha2=alpha2),
        r1_mode=r1_mode,
        agent=agent,
        pool=pool,
        pool_base_seed=pool_base_seed,
        meta=meta_section,
        tradeoff_bands=tuple(bands),
        traces_path=traces_path,
        output_dir=output_dir,
        n_seeds=n_seeds,
        train_seed=train_seed,
    )
