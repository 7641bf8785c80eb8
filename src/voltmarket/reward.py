"""Two-objective step reward: utility profit and squared supply-demand mismatch,
combined as a weighted sum."""

from __future__ import annotations

import math
from dataclasses import dataclass

R1_MODES = ("price_diff", "energy_weighted")


def r1_mode_violations(mode: str) -> list[str]:
    """The r1-mode rule: one of R1_MODES."""
    return [] if mode in R1_MODES else [f"r1_mode must be one of {list(R1_MODES)}, got {mode!r}"]


@dataclass(frozen=True)
class RewardWeights:
    """Non-negative weights for the two sub-rewards; both default to 1."""

    alpha1: float = 1.0
    alpha2: float = 1.0

    def __post_init__(self) -> None:
        problems = [
            f"{name} must be finite and >= 0, got {value}"
            for name, value in (("alpha1", self.alpha1), ("alpha2", self.alpha2))
            if not math.isfinite(value) or value < 0.0
        ]
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class RewardBreakdown:
    r1: float
    r2: float
    total: float


def reward_r1(price_sold: float, price_purchased: float) -> float:
    """Profit term: retail price minus wholesale purchase price (per kWh)."""
    return price_sold - price_purchased


def reward_r2(e_renewable: float, e_demand: float) -> float:
    """Mismatch term: negated squared gap between renewable supply and demand.

    Always <= 0; zero exactly when supply equals demand. The square penalizes
    surplus and shortfall symmetrically.
    """
    gap = e_renewable - e_demand
    return -(gap * gap)


def reward_total(r1: float, r2: float, weights: RewardWeights) -> float:
    return weights.alpha1 * r1 + weights.alpha2 * r2


def breakdown(
    price_sold: float,
    price_purchased: float,
    e_renewable: float,
    e_demand: float,
    weights: RewardWeights = RewardWeights(),
    r1_mode: str = "price_diff",
) -> RewardBreakdown:
    """Compute both sub-rewards and their weighted total for one step.

    r1_mode "price_diff" is the plain per-kWh margin; "energy_weighted"
    multiplies the margin by the energy actually sold.
    """
    problems = r1_mode_violations(r1_mode)
    if problems:
        raise ValueError("; ".join(problems))
    r1 = reward_r1(price_sold, price_purchased)
    if r1_mode == "energy_weighted":
        r1 *= e_demand
    r2 = reward_r2(e_renewable, e_demand)
    return RewardBreakdown(r1=r1, r2=r2, total=reward_total(r1, r2, weights))
