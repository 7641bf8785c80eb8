"""Operator-facing instrumentation: price-constraint violation accounting,
per-objective episode returns and supply-demand alignment diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ViolationEvent:
    t: int
    attempted_price: float
    bound_hit: str  # "lower" | "upper"
    clamped_price: float


@dataclass
class ViolationLog:
    """Every price that had to be clamped during an evaluation run."""

    entries: list[ViolationEvent] = field(default_factory=list)

    def record(self, t: int, attempted_price: float, clamped_price: float) -> None:
        if attempted_price == clamped_price:
            raise ValueError("only clamped prices belong in the violation log")
        bound = "upper" if attempted_price > clamped_price else "lower"
        self.entries.append(ViolationEvent(t, attempted_price, bound, clamped_price))

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ViolationSummary:
    count: int
    max_gap: float
    total_gap: float
    lower_count: int
    upper_count: int


def summarize_violations(log: ViolationLog) -> ViolationSummary:
    """Aggregate the log: counts per bound plus worst and cumulative overshoot."""
    max_gap = 0.0
    total_gap = 0.0
    lower = 0
    upper = 0
    for entry in log.entries:
        gap = abs(entry.attempted_price - entry.clamped_price)
        max_gap = max(max_gap, gap)
        total_gap += gap
        if entry.bound_hit == "upper":
            upper += 1
        else:
            lower += 1
    return ViolationSummary(
        count=len(log.entries),
        max_gap=max_gap,
        total_gap=total_gap,
        lower_count=lower,
        upper_count=upper,
    )


@dataclass(frozen=True)
class EpisodeStep:
    t: int
    price: float
    e_demand: float
    e_renewable: float
    purchase_price: float
    r1: float
    r2: float
    total: float


@dataclass
class EpisodeRecord:
    """Per-step log of one episode."""

    steps: list[EpisodeStep] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)


def objective_returns(record: EpisodeRecord) -> tuple[float, float, float]:
    """Episode sums of the two sub-rewards and the weighted total."""
    if not record.steps:
        raise ValueError("objective_returns requires a non-empty episode record")
    sum_r1 = 0.0
    sum_r2 = 0.0
    sum_total = 0.0
    for step in record.steps:
        sum_r1 += step.r1
        sum_r2 += step.r2
        sum_total += step.total
    return sum_r1, sum_r2, sum_total


@dataclass(frozen=True)
class AlignmentMetrics:
    rmse: float
    pearson_r: float | None  # absent when either series has zero variance


def alignment_metrics(record: EpisodeRecord) -> AlignmentMetrics:
    """How closely demand tracked renewable supply over the episode.

    RMSE is the root mean squared gap (the square root of the mean mismatch
    penalty, sign flipped). Pearson correlation is reported as None rather
    than a sentinel when a series is constant.
    """
    n = len(record.steps)
    if n < 2:
        raise ValueError(f"alignment metrics require at least 2 steps, got {n}")
    renewable = [s.e_renewable for s in record.steps]
    demand = [s.e_demand for s in record.steps]
    rmse = math.sqrt(sum((r - d) ** 2 for r, d in zip(renewable, demand)) / n)

    mean_r = sum(renewable) / n
    mean_d = sum(demand) / n
    var_r = sum((r - mean_r) ** 2 for r in renewable)
    var_d = sum((d - mean_d) ** 2 for d in demand)
    if var_r == 0.0 or var_d == 0.0:
        return AlignmentMetrics(rmse=rmse, pearson_r=None)
    cov = sum((r - mean_r) * (d - mean_d) for r, d in zip(renewable, demand))
    return AlignmentMetrics(rmse=rmse, pearson_r=cov / math.sqrt(var_r * var_d))
