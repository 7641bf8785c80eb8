import math

import numpy as np
import pytest

from voltmarket import (
    EpisodeRecord,
    EpisodeStep,
    RewardWeights,
    ViolationLog,
    alignment_metrics,
    breakdown,
    objective_returns,
    summarize_violations,
)


def make_record(renewable, demand, alpha1=1.0, alpha2=1.0, price=0.2, purchase=0.1):
    weights = RewardWeights(alpha1, alpha2)
    record = EpisodeRecord()
    for t, (r, d) in enumerate(zip(renewable, demand)):
        b = breakdown(price, purchase, r, d, weights)
        record.steps.append(
            EpisodeStep(
                t=t,
                price=price,
                e_demand=d,
                e_renewable=r,
                purchase_price=purchase,
                r1=b.r1,
                r2=b.r2,
                total=b.total,
            )
        )
    return record


class TestViolations:
    def test_empty_summary(self):
        summary = summarize_violations(ViolationLog())
        assert summary.count == 0
        assert summary.max_gap == 0.0
        assert summary.total_gap == 0.0
        assert summary.lower_count == summary.upper_count == 0

    def test_single_upper_violation(self):
        log = ViolationLog()
        log.record(t=4, attempted_price=0.52, clamped_price=0.50)
        summary = summarize_violations(log)
        assert summary.count == 1
        assert summary.upper_count == 1
        assert summary.lower_count == 0
        assert summary.max_gap == pytest.approx(0.02)
        assert summary.total_gap == pytest.approx(0.02)

    def test_random_log_matches_bruteforce_recount(self):
        rng = np.random.default_rng(7)
        log = ViolationLog()
        gaps = []
        lowers = 0
        for t in range(1000):
            if rng.random() < 0.5:
                attempted = float(rng.uniform(0.51, 2.0))
                clamped = 0.5
            else:
                attempted = float(rng.uniform(-1.0, 0.099))
                clamped = 0.1
                lowers += 1
            log.record(t, attempted, clamped)
            gaps.append(abs(attempted - clamped))
        summary = summarize_violations(log)
        assert summary.count == 1000
        assert summary.lower_count == lowers
        assert summary.upper_count == 1000 - lowers
        assert summary.max_gap == max(gaps)
        assert summary.total_gap == pytest.approx(sum(gaps), rel=1e-12)

    def test_rejects_non_violation(self):
        with pytest.raises(ValueError):
            ViolationLog().record(0, 0.3, 0.3)


class TestObjectiveReturns:
    def test_all_zero(self):
        record = make_record([5.0, 5.0], [5.0, 5.0], price=0.1, purchase=0.1)
        assert objective_returns(record) == (0.0, 0.0, 0.0)

    def test_single_step(self):
        record = make_record([6.0], [4.0])
        sum_r1, sum_r2, total = objective_returns(record)
        assert sum_r1 == pytest.approx(0.1)
        assert sum_r2 == -4.0
        assert total == pytest.approx(-3.9)

    def test_weighted_identity_on_random_record(self):
        rng = np.random.default_rng(3)
        renewable = rng.uniform(0, 50, size=168)
        demand = rng.uniform(0, 50, size=168)
        record = make_record(renewable, demand, alpha1=0.7, alpha2=1.3)
        sum_r1, sum_r2, sum_total = objective_returns(record)
        # independent accumulation
        assert sum_r1 == pytest.approx(math.fsum(s.r1 for s in record.steps), abs=1e-12)
        assert sum_r2 == pytest.approx(math.fsum(s.r2 for s in record.steps), abs=1e-9)
        assert sum_total == pytest.approx(0.7 * sum_r1 + 1.3 * sum_r2, abs=1e-9)

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError):
            objective_returns(EpisodeRecord())


class TestAlignmentMetrics:
    def test_identical_constant_series_pearson_absent(self):
        record = make_record([5.0, 5.0, 5.0], [5.0, 5.0, 5.0])
        metrics = alignment_metrics(record)
        assert metrics.rmse == 0.0
        assert metrics.pearson_r is None

    def test_identical_varying_series(self):
        record = make_record([1.0, 5.0, 3.0], [1.0, 5.0, 3.0])
        metrics = alignment_metrics(record)
        assert metrics.rmse == 0.0
        assert metrics.pearson_r == pytest.approx(1.0)

    def test_constant_offset(self):
        demand = [3.0, 8.0, 5.0, 6.0]
        renewable = [d + 10.0 for d in demand]
        metrics = alignment_metrics(make_record(renewable, demand))
        assert metrics.rmse == pytest.approx(10.0)
        assert metrics.pearson_r == pytest.approx(1.0)

    def test_matches_independent_statistics(self):
        rng = np.random.default_rng(5)
        renewable = rng.uniform(0, 40, size=96)
        demand = rng.uniform(0, 40, size=96)
        metrics = alignment_metrics(make_record(renewable, demand))
        expected_rmse = float(np.sqrt(np.mean((renewable - demand) ** 2)))
        expected_r = float(np.corrcoef(renewable, demand)[0, 1])
        assert metrics.rmse == pytest.approx(expected_rmse, abs=1e-9)
        assert metrics.pearson_r == pytest.approx(expected_r, abs=1e-9)

    def test_rmse_squared_equals_mean_mismatch_penalty(self):
        rng = np.random.default_rng(9)
        renewable = rng.uniform(0, 40, size=50)
        demand = rng.uniform(0, 40, size=50)
        record = make_record(renewable, demand)
        metrics = alignment_metrics(record)
        mean_r2 = np.mean([s.r2 for s in record.steps])
        assert metrics.rmse**2 == pytest.approx(-mean_r2, rel=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            alignment_metrics(make_record([1.0], [1.0]))
