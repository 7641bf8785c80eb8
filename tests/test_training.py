import numpy as np
import pytest

from voltmarket import (
    EpsilonSchedule,
    PriceGrid,
    TrainConfig,
    episode_return,
    evaluate_price_sequence,
    run_fixed_price_episode,
    run_greedy_episode,
    summarize_violations,
    train_constraint_family,
    train_policy,
    warmup_scaling,
    zeros_params,
)
from voltmarket.training import collect_rollout_features, scaling_from_features

from .helpers import small_scenario


class TestEpsilonSchedule:
    def test_endpoints(self):
        eps = EpsilonSchedule(0.3, 0.02, 100)
        assert eps.value(0) == 0.3
        assert eps.value(100) == pytest.approx(0.02)
        assert eps.value(10_000) == pytest.approx(0.02)

    def test_linear_midpoint(self):
        eps = EpsilonSchedule(0.4, 0.0, 100)
        assert eps.value(50) == pytest.approx(0.2)

    def test_constant(self):
        eps = EpsilonSchedule.constant(0.1)
        assert eps.value(0) == eps.value(999) == 0.1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EpsilonSchedule(1.5, 0.0, 10)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("episodes", 0),
            ("warmup_steps", 0),
            ("lr", 0.0),
            ("lr", float("nan")),
            ("lr", float("inf")),
            ("gamma", 1.5),
            ("epsilon_start", -0.1),
            ("epsilon_end", float("nan")),
        ],
    )
    def test_rejects_a_bad_field_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_names_every_broken_field_at_once(self):
        with pytest.raises(ValueError) as info:
            TrainConfig(episodes=0, lr=-1.0, gamma=2.0, epsilon_end=3.0, warmup_steps=0)
        for name in ("episodes", "lr", "gamma", "epsilon_end", "warmup_steps"):
            assert name in str(info.value)

    def test_rejects_an_unknown_r1_mode_by_name(self):
        with pytest.raises(ValueError, match="r1_mode.*'nonsense'"):
            TrainConfig(r1_mode="nonsense")


class TestWarmupScaling:
    def test_rejects_an_empty_rollout(self):
        grid = PriceGrid.uniform(0.05, 0.45, 5)
        with pytest.raises(ValueError, match="steps"):
            collect_rollout_features(small_scenario(episode_length=5), grid, 0, seed=0)

    def test_scaled_rollout_is_near_zero_mean(self):
        scenario = small_scenario(episode_length=20, p=1)
        grid = PriceGrid.uniform(0.05, 0.45, 5)
        rows = collect_rollout_features(scenario, grid, 100, seed=3)
        scaling = scaling_from_features(rows)
        # Recompute the moments independently from the same logged rollout.
        expected_mean = np.array([sum(col) / len(col) for col in rows.T])
        assert scaling.mean.tolist() == pytest.approx(expected_mean.tolist(), rel=1e-12)
        applied = (rows - scaling.mean) / scaling.scale
        assert np.all(np.abs(applied.mean(axis=0)) < 0.2)

    def test_deterministic(self):
        scenario = small_scenario(episode_length=10)
        grid = PriceGrid.uniform(0.05, 0.45, 5)
        a = warmup_scaling(scenario, grid, 50, seed=1)
        b = warmup_scaling(scenario, grid, 50, seed=1)
        assert a.mean.tolist() == b.mean.tolist()
        assert a.scale.tolist() == b.scale.tolist()


class TestTrainPolicy:
    def test_weights_move_when_learning(self):
        scenario = small_scenario(episode_length=8)
        grid = PriceGrid.uniform(0.05, 0.45, 5)
        config = TrainConfig(episodes=2, lr=0.01, warmup_steps=20)
        result = train_policy(scenario, grid, config, seed=0)
        assert np.any(result.params.weights != 0.0)
        assert len(result.episode_returns) == 2

    def test_deterministic_given_seed(self):
        scenario = small_scenario(episode_length=8)
        grid = PriceGrid.uniform(0.05, 0.45, 5)
        config = TrainConfig(episodes=2, lr=0.01, warmup_steps=20)
        a = train_policy(scenario, grid, config, seed=5)
        b = train_policy(scenario, grid, config, seed=5)
        assert a.params.weights.tolist() == b.params.weights.tolist()
        assert a.episode_returns == b.episode_returns


class TestEvaluation:
    def test_greedy_episode_has_full_length(self):
        scenario = small_scenario(episode_length=6)
        grid = PriceGrid.uniform(0.05, 0.45, 5)
        params = zeros_params(grid.k, warmup_scaling(scenario, grid, 20, seed=0))
        record = run_greedy_episode(scenario, params, grid)
        assert len(record) == 6

    def test_degenerate_band_equals_fixed_price_bit_exact(self):
        scenario = small_scenario(episode_length=8, kinds=("storage", "elastic"))
        grid = PriceGrid.uniform(0.2, 0.2)
        params = zeros_params(1, warmup_scaling(scenario, grid, 20, seed=0))
        greedy = run_greedy_episode(scenario, params, grid)
        fixed = run_fixed_price_episode(scenario, 0.2)
        assert episode_return(greedy) == episode_return(fixed)
        assert [s.e_demand for s in greedy.steps] == [s.e_demand for s in fixed.steps]

    def test_price_sequence_clamps_and_logs(self):
        scenario = small_scenario(episode_length=5)
        grid = PriceGrid.uniform(0.1, 0.4, 4)
        prices = [0.2, 0.9, 0.05, 0.3, 1.5]
        record, log = evaluate_price_sequence(scenario, prices, grid)
        assert len(record) == 5
        assert len(log) == 3
        summary = summarize_violations(log)
        assert summary.upper_count == 2
        assert summary.lower_count == 1
        assert [s.price for s in record.steps] == [0.2, 0.4, 0.1, 0.3, 0.4]
        assert [entry.t for entry in log.entries] == [1, 2, 4]

    def test_price_sequence_requires_enough_prices(self):
        scenario = small_scenario(episode_length=5)
        grid = PriceGrid.uniform(0.1, 0.4, 4)
        with pytest.raises(ValueError):
            evaluate_price_sequence(scenario, [0.2, 0.2], grid)


class TestConstraintFamily:
    def test_identical_bands_identical_returns(self):
        scenario = small_scenario(episode_length=6)
        config = TrainConfig(episodes=2, warmup_steps=20)
        points = train_constraint_family(
            scenario, [(0.1, 0.4), (0.1, 0.4)], config, seed=3, k_levels=5
        )
        assert points[0].mean_return == points[1].mean_return
        assert points[0].params.weights.tolist() == points[1].params.weights.tolist()

    def test_degenerate_band_reproduces_fixed_price_baseline(self):
        scenario = small_scenario(episode_length=6, kinds=("storage", "elastic"))
        config = TrainConfig(episodes=2, warmup_steps=20)
        points = train_constraint_family(scenario, [(0.15, 0.15)], config, seed=3)
        baseline = episode_return(run_fixed_price_episode(scenario, 0.15))
        assert points[0].mean_return == baseline

    def test_reports_all_bands_in_order(self):
        scenario = small_scenario(episode_length=4)
        config = TrainConfig(episodes=1, warmup_steps=10)
        bands = [(0.15, 0.15), (0.1, 0.2), (0.05, 0.3)]
        points = train_constraint_family(scenario, bands, config, seed=1, k_levels=3)
        assert [(p.p_min, p.p_max) for p in points] == bands

    def test_requires_bands(self):
        with pytest.raises(ValueError):
            train_constraint_family(small_scenario(), [], TrainConfig(), seed=0)

    def test_wider_band_not_worse_up_to_seed_noise(self):
        # Paired-seed comparison. The wider band contains the narrower one,
        # so its best return should not trail by more than the seed spread;
        # the trade-off shape is reported to operators, not a theorem.
        scenario = small_scenario(episode_length=24, kinds=("elastic", "storage"))
        config = TrainConfig(episodes=4, lr=0.02, gamma=0.3, warmup_steps=30)
        narrow_returns = []
        wide_returns = []
        for seed in range(10):
            points = train_constraint_family(
                scenario, [(0.12, 0.18), (0.05, 0.30)], config, seed, k_levels=5
            )
            narrow_returns.append(points[0].mean_return)
            wide_returns.append(points[1].mean_return)
        seed_noise = max(narrow_returns) - min(narrow_returns)
        assert max(wide_returns) >= max(narrow_returns) - seed_noise
