import numpy as np
import pytest

import voltmarket.env
import voltmarket.meta
from voltmarket import (
    EpsilonSchedule,
    GridEnv,
    MetaConfig,
    PriceGrid,
    ResponseTable,
    adapt,
    evaluate_adaptation,
    meta_train,
    random_params,
    warmup_scaling,
    zeros_params,
)
from voltmarket.meta import STOP_META_ITERATIONS, STOP_PERFORMANCE_THRESHOLD, _adaptation_seed
from voltmarket.training import episode_return, run_greedy_episode

from .helpers import reference_learn_on_env, small_scenario


def micro_pool(n=2, episode_length=6):
    return [
        small_scenario(episode_length=episode_length, seed=100 + i, trace_seed=i)
        for i in range(n)
    ]


GRID = PriceGrid.uniform(0.05, 0.45, 5)


def make_init(pool):
    return zeros_params(GRID.k, warmup_scaling(pool[0], GRID, 30, seed=0))


class TestAdapt:
    def test_zero_lr_returns_equal_params(self):
        pool = micro_pool()
        init = make_init(pool)
        adapted, _ = adapt(init, pool[0], 10, 0.0, 0.5, 0.1, GRID, agent_seed=1)
        assert adapted.weights.tolist() == init.weights.tolist()

    def test_does_not_mutate_init(self):
        pool = micro_pool()
        init = make_init(pool)
        before = init.weights.copy()
        adapt(init, pool[0], 10, 0.05, 0.5, 0.1, GRID, agent_seed=1)
        assert init.weights.tolist() == before.tolist()

    def reference_run(self):
        pool = micro_pool(episode_length=8)
        scaling = make_init(pool).scaling
        init = random_params(GRID.k, scaling, np.random.default_rng(6))
        expected, _, expected_snapshots = reference_learn_on_env(
            GridEnv(pool[1]), init, GRID, 30, 0.05, 0.5, EpsilonSchedule.constant(0.2),
            np.random.default_rng(9),
        )
        return pool[1], init, expected, expected_snapshots

    def test_snapshots_are_bit_equal_to_the_copy_based_reference(self):
        # Every snapshot is a copy of the weights reached at that step, equal
        # to a loop that builds fresh params after every update.
        scenario, init, expected, expected_snapshots = self.reference_run()
        adapted, snapshots = adapt(
            init, scenario, 30, 0.05, 0.5, 0.2, GRID, agent_seed=9, checkpoints=range(1, 31)
        )
        assert adapted.weights.tolist() == expected.weights.tolist()
        assert sorted(snapshots) == list(range(1, 31))
        assert [snapshots[k].weights.tolist() for k in sorted(snapshots)] == [
            expected_snapshots[k].weights.tolist() for k in sorted(snapshots)
        ]

    def test_returns_exactly_the_requested_checkpoints(self):
        scenario, init, expected, expected_snapshots = self.reference_run()
        adapted, snapshots = adapt(
            init, scenario, 30, 0.05, 0.5, 0.2, GRID, agent_seed=9, checkpoints={3, 7}
        )
        assert adapted.weights.tolist() == expected.weights.tolist()
        assert sorted(snapshots) == [3, 7]
        for k in (3, 7):
            assert snapshots[k].weights.tolist() == expected_snapshots[k].weights.tolist()

    @pytest.mark.parametrize("checkpoints", [{0}, {31}, {5, -1}])
    def test_rejects_a_checkpoint_outside_the_run(self, checkpoints):
        pool = micro_pool()
        with pytest.raises(ValueError, match=r"checkpoints must lie in \[1, 30\]"):
            adapt(make_init(pool), pool[0], 30, 0.05, 0.5, 0.1, GRID, checkpoints=checkpoints)

    def test_deterministic(self):
        pool = micro_pool()
        init = make_init(pool)
        a, _ = adapt(init, pool[0], 12, 0.05, 0.5, 0.1, GRID, agent_seed=4)
        b, _ = adapt(init, pool[0], 12, 0.05, 0.5, 0.1, GRID, agent_seed=4)
        assert a.weights.tolist() == b.weights.tolist()

    def test_learning_moves_params_on_micro_pool(self):
        pool = micro_pool()
        init = make_init(pool)
        for scenario in pool:
            adapted, _ = adapt(init, scenario, 12, 0.05, 0.5, 0.1, GRID, agent_seed=2)
            assert np.any(adapted.weights != init.weights)

    def test_rejects_zero_steps(self):
        pool = micro_pool()
        init = make_init(pool)
        with pytest.raises(ValueError):
            adapt(init, pool[0], 0, 0.05, 0.5, 0.1, GRID)


class TestMetaTrain:
    def config(self, **overrides):
        defaults = dict(
            performance_threshold=1e18,  # unreachable: returns are negative
            inner_steps=6,
            inner_lr=0.05,
            meta_lr=0.5,
            meta_iterations=3,
            tasks_per_iteration=2,
            gamma=0.5,
            epsilon=0.1,
        )
        defaults.update(overrides)
        return MetaConfig(**defaults)

    @pytest.mark.parametrize("inner_lr", [float("nan"), 0.0, -0.05])
    def test_rejects_non_positive_inner_lr(self, inner_lr):
        with pytest.raises(ValueError, match="inner_lr"):
            self.config(inner_lr=inner_lr)

    def test_rejects_an_infinite_inner_lr(self):
        with pytest.raises(ValueError, match="inner_lr must be finite"):
            self.config(inner_lr=float("inf"))

    def test_zero_meta_lr_keeps_init(self):
        pool = micro_pool()
        init = make_init(pool)
        result = meta_train(pool, self.config(meta_lr=0.0), seed=1, grid=GRID, init=init)
        assert result.params.weights.tolist() == init.weights.tolist()
        assert result.stop_reason == STOP_META_ITERATIONS

    def test_update_is_averaged_difference_of_logged_params(self):
        pool = micro_pool()
        init = make_init(pool)
        config = self.config(meta_iterations=2, meta_lr=0.5)
        result = meta_train(pool, config, seed=3, grid=GRID, init=init)
        # Arithmetic oracle over the logged per-task adapted weights.
        weights = init.weights
        for iteration in result.iterations:
            mean_adapted = np.mean(iteration.adapted_weights, axis=0)
            weights = weights + config.meta_lr * (mean_adapted - weights)
        assert np.max(np.abs(weights - result.params.weights)) < 1e-12

    def test_single_task_update_formula(self):
        pool = micro_pool(n=1)
        init = make_init(pool)
        config = self.config(meta_iterations=1, tasks_per_iteration=1, meta_lr=0.25)
        result = meta_train(pool, config, seed=9, grid=GRID, init=init)
        adapted = result.iterations[0].adapted_weights[0]
        expected = init.weights + 0.25 * (adapted - init.weights)
        assert np.max(np.abs(result.params.weights - expected)) < 1e-12

    def test_deterministic(self):
        pool = micro_pool()
        init = make_init(pool)
        a = meta_train(pool, self.config(), seed=7, grid=GRID, init=init)
        b = meta_train(pool, self.config(), seed=7, grid=GRID, init=init)
        assert a.params.weights.tolist() == b.params.weights.tolist()
        assert [it.task_indices for it in a.iterations] == [it.task_indices for it in b.iterations]

    def test_threshold_stop_recorded(self):
        pool = micro_pool()
        init = make_init(pool)
        result = meta_train(
            pool, self.config(performance_threshold=-1e18), seed=1, grid=GRID, init=init
        )
        assert result.stop_reason == STOP_PERFORMANCE_THRESHOLD
        assert len(result.iterations) == 1

    def test_iteration_stop_recorded(self):
        pool = micro_pool()
        init = make_init(pool)
        result = meta_train(pool, self.config(), seed=1, grid=GRID, init=init)
        assert result.stop_reason == STOP_META_ITERATIONS
        assert len(result.iterations) == 3

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            meta_train([], self.config(), seed=1, grid=GRID, init=make_init(micro_pool()))

    def test_tasks_exceeding_pool_rejected(self):
        pool = micro_pool(n=1)
        with pytest.raises(ValueError):
            meta_train(
                pool, self.config(tasks_per_iteration=2), seed=1, grid=GRID, init=make_init(pool)
            )


class TestEvaluateAdaptation:
    def kwargs(self):
        return dict(grid=GRID, inner_lr=0.05, gamma=0.5, epsilon=0.1)

    def test_identical_inits_identical_statistics(self):
        pool = micro_pool(n=3)
        train, heldout = pool[:1], pool[1:]
        init = make_init(pool)
        report = evaluate_adaptation(
            init, init, heldout, k_steps=6, n_seeds=2, train_pool=train, **self.kwargs()
        )
        for entry in report.entries:
            assert entry.meta_return == entry.baseline_return
        assert report.meta_wins == 0

    def test_single_seed_cardinality(self):
        pool = micro_pool(n=4)
        train, heldout = pool[:1], pool[1:]
        init = make_init(pool)
        report = evaluate_adaptation(
            init, init, heldout, k_steps=6, n_seeds=1, train_pool=train, **self.kwargs()
        )
        assert len(report.entries) == len(heldout)

    def test_win_count_matches_recount(self):
        pool = micro_pool(n=4)
        train, heldout = pool[:1], pool[1:]
        init = make_init(pool)
        rng = np.random.default_rng(0)
        from voltmarket import random_params

        baseline = random_params(GRID.k, init.scaling, rng, std=0.3)
        report = evaluate_adaptation(
            init, baseline, heldout, k_steps=8, n_seeds=2, train_pool=train, **self.kwargs()
        )
        per_scenario = {}
        for e in report.entries:
            per_scenario.setdefault(e.scenario_index, []).append(
                (e.meta_return, e.baseline_return)
            )
        wins = 0
        for idx, pairs in per_scenario.items():
            meta_mean = sum(m for m, _ in pairs) / len(pairs)
            base_mean = sum(b for _, b in pairs) / len(pairs)
            assert meta_mean == pytest.approx(report.per_scenario_meta_mean[idx], rel=1e-12)
            if meta_mean > base_mean:
                wins += 1
        assert wins == report.meta_wins

    def test_overlap_rejected(self):
        pool = micro_pool(n=2)
        init = make_init(pool)
        with pytest.raises(ValueError, match="overlap"):
            evaluate_adaptation(
                init, init, pool, k_steps=4, n_seeds=1, train_pool=pool, **self.kwargs()
            )

    def test_rejects_every_bad_size_at_once(self):
        pool = micro_pool(n=2)
        init = make_init(pool)
        with pytest.raises(ValueError) as excinfo:
            evaluate_adaptation(
                init, init, pool[1:], k_steps=4, n_seeds=0, train_pool=pool[:1],
                curve_points=-1, **self.kwargs(),
            )
        assert str(excinfo.value) == (
            "n_seeds must be >= 1, got 0; curve_points must be >= 0, got -1"
        )

    def test_curves_share_checkpoints(self):
        pool = micro_pool(n=2)
        train, heldout = pool[:1], pool[1:]
        init = make_init(pool)
        report = evaluate_adaptation(
            init,
            init,
            heldout,
            k_steps=6,
            n_seeds=1,
            train_pool=train,
            curve_points=3,
            **self.kwargs(),
        )
        assert len(report.curves) == 1
        curve = report.curves[0]
        assert curve.steps[0] == 0 and curve.steps[-1] == 6
        assert curve.meta_returns == pytest.approx(curve.baseline_returns)

    def test_copies_and_evaluates_each_checkpoint_once(self, monkeypatch):
        # Per (held-out scenario, init): one greedy episode for the init, then
        # per seed one adaptation that copies only the inner checkpoints and
        # one greedy episode for each of those and for the k-step result.
        pool = micro_pool(n=3)
        train, heldout = pool[:1], pool[1:]
        init = make_init(pool)
        asked, episodes = [], []
        real_adapt, real_episode = voltmarket.meta.adapt, voltmarket.meta.run_greedy_episode

        def counting_adapt(*args, **kwargs):
            asked.append(list(kwargs["checkpoints"]))
            return real_adapt(*args, **kwargs)

        def counting_episode(*args, **kwargs):
            episodes.append(args[0].seed)
            return real_episode(*args, **kwargs)

        monkeypatch.setattr(voltmarket.meta, "adapt", counting_adapt)
        monkeypatch.setattr(voltmarket.meta, "run_greedy_episode", counting_episode)
        evaluate_adaptation(
            init, init, heldout, k_steps=6, n_seeds=2, train_pool=train, curve_points=3,
            **self.kwargs(),
        )
        assert asked == [[2, 4]] * (len(heldout) * 2 * 2)
        assert episodes == [s.seed for s in heldout for _ in range(2 * (1 + 2 * 3))]

    def test_curves_and_entries_match_separate_adaptation_runs(self):
        # Scalar oracle: every checkpoint is its own c-step adaptation from
        # the init, accumulated per seed in checkpoint order; step 0 is the
        # init itself and every entry is its own k-step run.
        from voltmarket import random_params

        pool = micro_pool(n=3)
        train, heldout = pool[:1], pool[1:]
        meta_init = make_init(pool)
        baseline = random_params(GRID.k, meta_init.scaling, np.random.default_rng(0), std=0.3)
        n_seeds, k_steps = 2, 6
        kwargs = self.kwargs()
        report = evaluate_adaptation(
            meta_init,
            baseline,
            heldout,
            k_steps=k_steps,
            n_seeds=n_seeds,
            train_pool=train,
            curve_points=3,
            **kwargs,
        )

        def separate_return(init, scenario, steps, seed):
            params = init
            if steps > 0:
                params, _ = adapt(
                    init,
                    scenario,
                    steps,
                    kwargs["inner_lr"],
                    kwargs["gamma"],
                    kwargs["epsilon"],
                    GRID,
                    agent_seed=_adaptation_seed(scenario.seed, seed),
                )
            return episode_return(run_greedy_episode(scenario, params, GRID))

        assert len(report.curves) == len(heldout)
        for idx, (scenario, curve) in enumerate(zip(heldout, report.curves)):
            assert curve.steps == [0, 2, 4, 6]
            assert curve.meta_returns != curve.baseline_returns
            for init, got in ((meta_init, curve.meta_returns), (baseline, curve.baseline_returns)):
                expected = np.zeros(len(curve.steps))
                for seed in range(n_seeds):
                    for ci, steps in enumerate(curve.steps):
                        expected[ci] += separate_return(init, scenario, steps, seed) / n_seeds
                assert got == expected.tolist()
            entries = [e for e in report.entries if e.scenario_index == idx]
            assert [e.seed for e in entries] == list(range(n_seeds))
            for e in entries:
                assert e.meta_return == separate_return(meta_init, scenario, k_steps, e.seed)
                assert e.baseline_return == separate_return(baseline, scenario, k_steps, e.seed)


class TestResponseTableLifetime:
    """No response outlives the call that owns its table: every call that is
    given no table solves its storage customers again."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        original = voltmarket.env.storage_demand

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(voltmarket.env, "storage_demand", counting)
        return calls

    def test_each_meta_train_call_solves_afresh(self, solves):
        pool = micro_pool()
        init = make_init(pool)
        config = TestMetaTrain().config()
        counts = []
        for _ in range(2):
            before = len(solves)
            meta_train(pool, config, seed=7, grid=GRID, init=init)
            counts.append(len(solves) - before)
        assert counts[0] > 0
        assert counts[1] == counts[0]

    def test_each_adapt_without_a_table_solves_afresh(self, solves):
        pool = micro_pool()
        init = make_init(pool)
        counts = []
        for _ in range(2):
            before = len(solves)
            adapt(init, pool[0], 12, 0.05, 0.5, 0.1, GRID, agent_seed=4)
            counts.append(len(solves) - before)
        assert counts[0] > 0
        assert counts[1] == counts[0]

    def test_adapt_given_a_table_reuses_its_responses(self, solves):
        pool = micro_pool()
        init = make_init(pool)
        table = ResponseTable(pool[0])
        a, _ = adapt(init, pool[0], 12, 0.05, 0.5, 0.1, GRID, agent_seed=4, responses=table)
        before = len(solves)
        b, _ = adapt(init, pool[0], 12, 0.05, 0.5, 0.1, GRID, agent_seed=4, responses=table)
        assert len(solves) == before
        assert a.weights.tolist() == b.weights.tolist()
