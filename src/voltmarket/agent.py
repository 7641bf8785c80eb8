"""The utility's pricing agent: feature extraction from observation windows,
a constrained discrete price grid, epsilon-greedy selection and one-step
temporal-difference updates on linear action values."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import StateWindow

# Per-step feature channels, in order: demand, renewable, purchase price,
# temperature, irradiance, wind, hour_sin, hour_cos. A constant bias is
# appended after scaling, so F = 8 * (p + 1) + 1.
CHANNELS_PER_STEP = 8
_BIAS = np.ones(1)


class TrainingDivergedError(RuntimeError):
    """A temporal-difference update produced a non-finite error or weight row."""


@dataclass(frozen=True)
class PriceGrid:
    """Sorted discrete price levels inside the allowed band [p_min, p_max].

    A degenerate band (p_min == p_max) collapses to a single level.
    """

    levels: tuple[float, ...]
    p_min: float
    p_max: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(float(x) for x in self.levels))
        if len(self.levels) < 1:
            raise ValueError("price grid requires at least one level")
        if any(not math.isfinite(x) or x < 0.0 for x in self.levels):
            raise ValueError("price levels must be finite and >= 0")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("price levels must be strictly increasing")
        if not self.p_min <= self.levels[0]:
            raise ValueError(f"p_min {self.p_min} exceeds lowest level {self.levels[0]}")
        if not self.levels[-1] <= self.p_max:
            raise ValueError(f"highest level {self.levels[-1]} exceeds p_max {self.p_max}")

    @property
    def k(self) -> int:
        return len(self.levels)

    @classmethod
    def uniform(cls, p_min: float, p_max: float, k: int = 11) -> "PriceGrid":
        if p_min > p_max:
            raise ValueError(f"p_min {p_min} exceeds p_max {p_max}")
        if p_min == p_max:
            return cls(levels=(p_min,), p_min=p_min, p_max=p_max)
        if k < 2:
            raise ValueError(f"a non-degenerate band needs k >= 2 levels, got {k}")
        return cls(levels=tuple(np.linspace(p_min, p_max, k)), p_min=p_min, p_max=p_max)


@dataclass(frozen=True, eq=False)
class FeatureScaling:
    """Per-feature affine scaling (value - mean) / scale for the raw channels."""

    mean: np.ndarray
    scale: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "scale", np.asarray(self.scale, dtype=float))
        if self.mean.shape != self.scale.shape or self.mean.ndim != 1:
            raise ValueError("mean and scale must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.scale))):
            raise ValueError("mean and scale entries must be finite")
        if np.any(self.scale <= 0.0):
            raise ValueError("scale entries must be > 0")

    @property
    def n_raw(self) -> int:
        return len(self.mean)

    @classmethod
    def identity(cls, n_raw: int) -> "FeatureScaling":
        return cls(mean=np.zeros(n_raw), scale=np.ones(n_raw))


@dataclass(frozen=True, eq=False)
class PolicyParams:
    """Linear action-value parameters: one weight row per price level."""

    weights: np.ndarray
    scaling: FeatureScaling

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.weights.ndim != 2:
            raise ValueError("weights must be a (levels x features) matrix")
        if self.weights.shape[1] != self.scaling.n_raw + 1:
            raise ValueError(
                f"weights have {self.weights.shape[1]} columns but scaling implies "
                f"{self.scaling.n_raw + 1} features (raw + bias)"
            )
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]


def window_channels(window: StateWindow) -> np.ndarray:
    """Flatten the observation window channel by channel (no scaling, no bias)."""
    return np.concatenate((window.demand, window.exogenous))


def featurize(window: StateWindow, scaling: FeatureScaling) -> np.ndarray:
    """Scaled flat features plus a trailing constant-1 bias."""
    raw = window_channels(window)
    if len(raw) != scaling.n_raw:
        raise ValueError(
            f"scaling covers {scaling.n_raw} features but window flattens to {len(raw)}"
        )
    scaled = (raw - scaling.mean) / scaling.scale
    return np.concatenate((scaled, _BIAS))


def n_features(horizon_p: int) -> int:
    return CHANNELS_PER_STEP * (horizon_p + 1) + 1


def q_values(params: PolicyParams, features: np.ndarray) -> np.ndarray:
    if len(features) != params.n_features:
        raise ValueError(
            f"features of length {len(features)} do not match {params.n_features} weights"
        )
    return params.weights @ features


def select_action(
    params: PolicyParams,
    features: np.ndarray,
    epsilon: float,
    grid: PriceGrid,
    rng: np.random.Generator | None = None,
) -> int:
    """Epsilon-greedy pick of a level index; greedy ties go to the lowest index.

    The price is grid.levels[index], inside [p_min, p_max] by construction.
    epsilon = 0 consumes no randomness.
    """
    if grid.k != params.k:
        raise ValueError(f"grid has {grid.k} levels but params expect {params.k}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("exploration (epsilon > 0) requires an rng")
        if rng.random() < epsilon:
            return int(rng.integers(grid.k))
    return int(q_values(params, features).argmax())


def clamp_price(price: float, grid: PriceGrid) -> tuple[float, bool]:
    """Clamp a raw price into the allowed band; flag whether it moved."""
    clamped = min(max(price, grid.p_min), grid.p_max)
    return clamped, clamped != price


def td_update(
    weights: np.ndarray,
    features: np.ndarray,
    action_index: int,
    reward: float,
    next_features: np.ndarray,
    done: bool,
    lr: float,
    gamma: float,
) -> None:
    """One-step Q-learning update of the acted row of weights, in place.

    Raises TrainingDivergedError with diagnostics when the TD error or the
    updated row turns non-finite, rather than silently corrupting the weights.
    """
    if not (math.isfinite(lr) and lr >= 0.0):
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    q_s = weights @ features
    bootstrap = 0.0
    if not done:
        bootstrap = gamma * float((weights @ next_features).max())
    delta = reward + bootstrap - float(q_s[action_index])
    if not math.isfinite(delta):
        raise TrainingDivergedError(
            f"non-finite TD error {delta!r} (reward={reward!r}, "
            f"bootstrap={bootstrap!r}, max|w|={np.max(np.abs(weights)):.3e})"
        )
    row = weights[action_index]
    row += lr * delta * features
    if not np.isfinite(row).all():
        raise TrainingDivergedError(
            f"non-finite weights in row {action_index} after a TD error of {delta!r}"
        )


def zeros_params(k: int, scaling: FeatureScaling) -> PolicyParams:
    return PolicyParams(weights=np.zeros((k, scaling.n_raw + 1)), scaling=scaling)


def random_params(
    k: int, scaling: FeatureScaling, rng: np.random.Generator, std: float = 0.1
) -> PolicyParams:
    weights = rng.normal(0.0, std, size=(k, scaling.n_raw + 1))
    return PolicyParams(weights=weights, scaling=scaling)
