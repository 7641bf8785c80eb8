"""Experiment configuration: a single JSON document covering horizon, reward,
agent, pool, meta-training, trade-off bands, paths and seeds.

Each section is read from the dataclass it fills: a key takes the type and
default that its field declares, a field without a default is required, and
a key that names no field is a violation. Each range rule lives on the type
that a run constructs (``AgentSection``, whose learning fields follow
``TrainConfig``'s rules, ``PoolConfig``, ``MetaConfig``, ``MetaSection``,
``RewardWeights``, ``PriceGrid.uniform`` for every price band), so a config
that validates is one that runs. Validation is total:
every violation is reported, not just the first."""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import get_type_hints

from .agent import PriceGrid
from .meta import MetaConfig
from .model import Horizon
from .pool import PoolConfig
from .reward import R1_MODES, RewardWeights
from .training import learning_violations


class ConfigValidationError(ValueError):
    """Invalid experiment config; carries the full list of violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid config:\n" + "\n".join(f"  - {v}" for v in violations))


def _band_problem(p_min: float, p_max: float, levels: int) -> str | None:
    """Why PriceGrid.uniform, the grid every stage builds, rejects this band."""
    try:
        PriceGrid.uniform(p_min, p_max, levels)
    except ValueError as exc:
        return str(exc)
    return None


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

    def violations(self) -> list[str]:
        problems: list[str] = []
        if self.levels < 1:
            problems.append(f"levels must be >= 1, got {self.levels}")
        band = _band_problem(self.p_min, self.p_max, self.levels)
        if band is not None:
            problems.append(f"p_min, p_max and levels form no price grid: {band}")
        return problems + learning_violations(self)


@dataclass(frozen=True)
class MetaSection:
    config: MetaConfig
    heldout_scenarios: int = 3
    adapt_steps: int = 50
    curve_points: int = 0
    baseline_std: float = 0.1

    def violations(self) -> list[str]:
        problems: list[str] = []
        if self.heldout_scenarios < 1:
            problems.append(f"heldout_scenarios must be >= 1, got {self.heldout_scenarios}")
        if self.adapt_steps < 1:
            problems.append(f"adapt_steps must be >= 1, got {self.adapt_steps}")
        if self.curve_points < 0:
            problems.append(f"curve_points must be >= 0, got {self.curve_points}")
        if not self.baseline_std >= 0.0:
            problems.append(f"baseline_std must be >= 0, got {self.baseline_std}")
        return problems


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


_DEFAULT_BANDS = ((0.15, 0.15), (0.10, 0.25), (0.05, 0.35), (0.02, 0.45))

_PAIR = tuple[float, float]


def _pair(raw) -> tuple[float, float] | None:
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw)
        or not all(math.isfinite(x) for x in raw)
    ):
        return None
    return (float(raw[0]), float(raw[1]))


def _parse(kind, raw):
    """raw as a value of kind (int, float, str or a [lo, hi] pair), or None."""
    if kind == _PAIR:
        return _pair(raw)
    if kind is str:
        return raw if isinstance(raw, str) else None
    if isinstance(raw, bool) or (kind is int and isinstance(raw, float) and not raw.is_integer()):
        return None
    try:
        value = kind(raw)
    except (TypeError, ValueError, OverflowError):
        return None
    return value if kind is int or math.isfinite(value) else None


class _Reader:
    """Pulls typed values out of the config's sections, accumulating
    violations. It remembers every section and key it was asked for, so that
    any other one can be reported."""

    def __init__(self, data: dict, violations: list[str]):
        self.data = data
        self.violations = violations
        self.sections: dict[str, dict] = {}
        self.read: set[tuple[str, str]] = set()

    def section(self, name: str) -> dict:
        if name not in self.sections:
            value = self.data.get(name, {})
            if not isinstance(value, dict):
                self.violations.append(f"{name}: must be an object, got {type(value).__name__}")
                value = {}
            self.sections[name] = value
        return self.sections[name]

    def raw(self, name: str, key: str, default):
        self.read.add((name, key))
        return self.section(name).get(key, default)

    def value(self, name: str, key: str, kind, default=MISSING):
        """The key's value as kind; default when it is absent or malformed.
        With no default, an absent key is a violation."""
        section = self.section(name)
        self.read.add((name, key))
        if key not in section:
            if default is MISSING:
                self.violations.append(f"{name}.{key}: required, no default exists")
            return default
        raw = section[key]
        value = _parse(kind, raw)
        if value is None:
            expected = "[lo, hi]" if kind == _PAIR else kind.__name__
            self.violations.append(f"{name}.{key}: expected {expected}, got {raw!r}")
            return default
        return value

    def build(self, name: str, cls, **given):
        """An instance of dataclass cls whose fields, other than those given,
        are read from section name with the type and default cls declares.
        Reports what cls rejects; None when cls cannot be constructed."""
        hints = get_type_hints(cls)
        kwargs = dict(given)
        for f in fields(cls):
            if f.name not in given:
                kwargs[f.name] = self.value(name, f.name, hints[f.name], f.default)
        if any(v is MISSING for v in kwargs.values()):
            return None
        try:
            built = cls(**kwargs)
        except ValueError as exc:
            self.violations.append(f"{name}: {exc}")
            return None
        if hasattr(built, "violations"):
            self.violations.extend(f"{name}.{problem}" for problem in built.violations())
        return built

    def unread(self) -> None:
        """Report every section and key that no read asked for."""
        for name in self.data:
            if name not in self.sections:
                self.violations.append(f"unknown section {name!r}")
        for name, section in self.sections.items():
            for key in section:
                if (name, key) not in self.read:
                    self.violations.append(f"{name}.{key}: unknown key")


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
    r = _Reader(data, violations)

    p = r.value("horizon", "p", int, 3)
    timestep = r.value("horizon", "timestep_minutes", int, 60)
    if p < 0:
        violations.append(f"horizon.p: must be >= 0, got {p}")
    if timestep <= 0:
        violations.append(f"horizon.timestep_minutes: must be > 0, got {timestep}")
    horizon = Horizon(max(0, p), max(1, timestep))

    reward_weights = r.build("reward", RewardWeights)
    r1_mode = r.value("reward", "r1_mode", str, "price_diff")
    if r1_mode not in R1_MODES:
        violations.append(f"reward.r1_mode: must be one of {list(R1_MODES)}, got {r1_mode!r}")

    agent = r.build("agent", AgentSection)
    pool = r.build("pool", PoolConfig, horizon=horizon)
    pool_base_seed = r.value("pool", "base_seed", int, 101)
    if pool_base_seed < 0:
        violations.append(f"pool.base_seed: must be >= 0, got {pool_base_seed}")
    if not 0 <= agent.scenario_index < max(1, pool.n_scenarios):
        violations.append(
            f"agent.scenario_index: must index the pool [0, {pool.n_scenarios}), "
            f"got {agent.scenario_index}"
        )

    meta_config = r.build("meta", MetaConfig)
    meta = r.build("meta", MetaSection, config=meta_config)
    if meta_config is not None and meta_config.tasks_per_iteration > pool.n_scenarios:
        violations.append(
            f"meta.tasks_per_iteration ({meta_config.tasks_per_iteration}) "
            f"exceeds pool.n_scenarios ({pool.n_scenarios})"
        )

    raw_bands = r.raw("tradeoff", "bands", _DEFAULT_BANDS)
    bands: list[tuple[float, float]] = []
    if not isinstance(raw_bands, (list, tuple)) or not raw_bands:
        violations.append("tradeoff.bands: expected a non-empty list of [p_min, p_max] pairs")
    else:
        for i, raw_band in enumerate(raw_bands):
            band = _pair(raw_band)
            if band is None:
                violations.append(f"tradeoff.bands[{i}]: expected [p_min, p_max], got {raw_band!r}")
                continue
            problem = _band_problem(*band, agent.levels)
            if problem is not None:
                violations.append(
                    f"tradeoff.bands[{i}] with agent.levels forms no price grid: {problem}"
                )
            bands.append(band)

    traces_path = r.raw("paths", "traces", None)
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
    output_dir = r.value("paths", "output_dir", str, "out")

    n_seeds = r.value("seeds", "n_seeds", int, 3)
    train_seed = r.value("seeds", "train_seed", int, 1)
    if n_seeds < 1:
        violations.append(f"seeds.n_seeds: must be >= 1, got {n_seeds}")
    if train_seed < 0:
        violations.append(f"seeds.train_seed: must be >= 0, got {train_seed}")

    r.unread()
    if violations:
        raise ConfigValidationError(violations)
    return ExperimentConfig(
        horizon=horizon,
        reward_weights=reward_weights,
        r1_mode=r1_mode,
        agent=agent,
        pool=pool,
        pool_base_seed=pool_base_seed,
        meta=meta,
        tradeoff_bands=tuple(bands),
        traces_path=traces_path,
        output_dir=output_dir,
        n_seeds=n_seeds,
        train_seed=train_seed,
    )
