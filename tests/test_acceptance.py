"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line. Criteria are property- and oracle-based; every tolerance is stated
inline. Run with `pytest tests/test_acceptance.py -v -s` to see the lines."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from voltmarket import (
    Battery,
    FeatureScaling,
    GridEnv,
    Horizon,
    MetaConfig,
    PoolConfig,
    PriceGrid,
    RewardWeights,
    TrainConfig,
    ViolationLog,
    alignment_metrics,
    build_scenario_pool,
    clamp_price,
    customer_cost,
    dp_schedule,
    episode_return,
    evaluate_adaptation,
    evaluate_price_sequence,
    featurize,
    meta_train,
    objective_returns,
    q_values,
    random_params,
    reward_r1,
    reward_r2,
    reward_total,
    run_fixed_price_episode,
    run_greedy_episode,
    select_action,
    td_update,
    train_policy,
    warmup_scaling,
    zeros_params,
)
from voltmarket.cli import main as cli_main
from voltmarket.training import EpsilonSchedule, collect_rollout_features, scaling_from_features

from .helpers import dyadic, oracle_best_cost, oracle_draw
from .test_agent import value_iteration
from .test_config import minimal_config, write_config


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


def acceptance_pool_config(n_scenarios: int) -> PoolConfig:
    return PoolConfig(
        n_scenarios=n_scenarios,
        customer_count=4,
        storage_fraction=(0.25, 0.75),
        cooperative_fraction=(0.0, 0.5),
        elasticity=(-1.2, -0.6),
        horizon=Horizon(2, 60),
        episode_length=168,
        solar_capacity_kw=30.0,
        wind_capacity_kw=10.0,
        soc_levels=3,
    )


ACCEPTANCE_TRAIN = TrainConfig(episodes=40, lr=0.02, gamma=0.3, warmup_steps=100)
ACCEPTANCE_GRID = PriceGrid.uniform(0.05, 0.45, 11)


def test_criterion_1_reward_fidelity():
    with criterion(1, "reward fidelity vs independent re-evaluation (1e5 tuples, 1e-12)"):
        rng = np.random.default_rng(123)
        n = 100_000
        price_sold = rng.uniform(0.0, 1.0, n).tolist()
        price_purchased = rng.uniform(0.0, 1.0, n).tolist()
        e_renewable = rng.uniform(0.0, 10.0, n).tolist()
        e_demand = rng.uniform(0.0, 10.0, n).tolist()
        alpha1 = rng.uniform(0.0, 2.0, n).tolist()
        alpha2 = rng.uniform(0.0, 2.0, n).tolist()

        start = time.perf_counter()
        for i in range(n):
            r1 = reward_r1(price_sold[i], price_purchased[i])
            r2 = reward_r2(e_renewable[i], e_demand[i])
            total = reward_total(r1, r2, RewardWeights(alpha1[i], alpha2[i]))
            # independently coded re-evaluation of the three formulas
            expect_r1 = price_sold[i] - price_purchased[i]
            expect_r2 = -((e_renewable[i] - e_demand[i]) ** 2)
            expect_total = alpha1[i] * expect_r1 + alpha2[i] * expect_r2
            assert abs(r1 - expect_r1) <= 1e-12
            assert abs(r2 - expect_r2) <= 1e-12
            assert abs(total - expect_total) <= 1e-12
            assert r2 <= 0.0
            assert (r2 == 0.0) == (e_renewable[i] == e_demand[i])
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_dp_optimality():
    with criterion(2, "battery DP cost equals exhaustive enumeration exactly (200 instances)"):
        rng = np.random.default_rng(7)
        start = time.perf_counter()
        for _ in range(200):
            steps = int(rng.integers(1, 7))  # horizon <= 6
            levels = int(rng.integers(2, 6))  # soc_levels <= 5
            spacing = dyadic(rng, 1, 8)
            battery = Battery(
                capacity=(levels - 1) * spacing,
                max_charge_rate=int(rng.integers(1, levels)) * spacing,
                max_discharge_rate=int(rng.integers(1, levels)) * spacing,
                charge_efficiency=float(rng.choice([0.5, 0.75, 1.0])),
                discharge_efficiency=float(rng.choice([0.5, 0.75, 1.0])),
                soc=int(rng.integers(0, levels)) * spacing,
            )
            prices = [dyadic(rng, 1, 16) for _ in range(steps)]
            baselines = [dyadic(rng, 0, 12) for _ in range(steps)]
            peak_weight = float(rng.choice([0.0, 0.5, 1.0, 2.0]))

            plan = dp_schedule(prices, baselines, battery, levels, peak_weight)
            draws = [oracle_draw(battery, b, d) for b, d in zip(baselines, plan)]
            cost = customer_cost(draws, prices, peak_weight)
            assert cost == oracle_best_cost(prices, baselines, battery, levels, peak_weight)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_3_td_correctness():
    with criterion(3, "tabular Q-learning recovers the value-iteration policy (gamma 0.9)"):
        start = time.perf_counter()
        rewards = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 10.0]])
        transitions = np.array([[0, 1], [1, 2], [2, 0]])
        gamma = 0.9
        oracle_q = value_iteration(rewards, transitions, gamma)

        params = zeros_params(2, FeatureScaling.identity(2))
        updates = 0
        for _ in range(1500):
            for s in range(3):
                for a in range(2):
                    features = np.zeros(3)
                    features[s] = 1.0
                    nxt = np.zeros(3)
                    nxt[transitions[s, a]] = 1.0
                    td_update(
                        params.weights,
                        features,
                        a,
                        float(rewards[s, a]),
                        nxt,
                        False,
                        lr=1.0,
                        gamma=gamma,
                    )
                    updates += 1
        assert updates <= 10_000
        learned = np.array([q_values(params, np.eye(3)[s]).tolist() for s in range(3)])
        assert np.argmax(learned, axis=1).tolist() == np.argmax(oracle_q, axis=1).tolist()
        assert float(np.max(np.abs(learned - oracle_q))) < 1e-3
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_4_demand_shifting():
    with criterion(4, "trained agent cuts mean squared mismatch >= 10% and raises alignment"):
        start = time.perf_counter()
        pool = build_scenario_pool(acceptance_pool_config(4), base_seed=2024)
        scenario = pool[1]  # mixed: 2 storage + 2 elastic customers
        kinds = {c.kind for c in scenario.customers}
        assert kinds == {"storage", "elastic"}
        assert scenario.episode_length == 168

        reference_price = scenario.customers[0].reference_price
        baseline = run_fixed_price_episode(scenario, reference_price)
        _, baseline_r2, _ = objective_returns(baseline)
        baseline_mismatch = -baseline_r2
        baseline_pearson = alignment_metrics(baseline).pearson_r

        mismatches = []
        pearsons = []
        for seed in range(10):
            result = train_policy(scenario, ACCEPTANCE_GRID, ACCEPTANCE_TRAIN, seed=seed)
            record = run_greedy_episode(scenario, result.params, ACCEPTANCE_GRID)
            _, r2, _ = objective_returns(record)
            mismatches.append(-r2)
            pearsons.append(alignment_metrics(record).pearson_r)

        mean_mismatch = float(np.mean(mismatches))
        reduction = 1.0 - mean_mismatch / baseline_mismatch
        assert reduction >= 0.10, f"mismatch reduction {reduction:.1%} < 10%"
        assert float(np.mean(pearsons)) > baseline_pearson
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_5_meta_sample_efficiency():
    with criterion(5, "meta-init beats random init on >= 4 of 5 held-out scenarios"):
        start = time.perf_counter()
        scenarios = build_scenario_pool(acceptance_pool_config(13), base_seed=77)
        train_pool, heldout = scenarios[:8], scenarios[8:]
        assert len(heldout) == 5
        grid = ACCEPTANCE_GRID

        rows = np.concatenate(
            [collect_rollout_features(s, grid, 100, seed=0) for s in train_pool[:3]]
        )
        scaling = scaling_from_features(rows)
        init = zeros_params(grid.k, scaling)
        meta_cfg = MetaConfig(
            performance_threshold=1e18,
            inner_steps=336,
            inner_lr=0.02,
            meta_lr=0.5,
            meta_iterations=12,
            tasks_per_iteration=4,
            gamma=0.3,
            epsilon=0.15,
        )
        result = meta_train(train_pool, meta_cfg, seed=5, grid=grid, init=init)

        baseline_init = random_params(grid.k, scaling, np.random.default_rng(5), std=0.1)
        report = evaluate_adaptation(
            result.params,
            baseline_init,
            heldout,
            k_steps=50,
            n_seeds=10,
            train_pool=train_pool,
            grid=grid,
            inner_lr=0.02,
            gamma=0.3,
            epsilon=0.15,
        )
        assert report.meta_wins >= 4, (
            f"meta won only {report.meta_wins}/5: "
            f"{list(zip(report.per_scenario_meta_mean, report.per_scenario_baseline_mean))}"
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_6_safety_accounting():
    with criterion(6, "violation accounting: empty in grid mode, exact recount, idempotent clamp"):
        # Grid-mode training: every emitted price stays inside the band.
        pool = build_scenario_pool(acceptance_pool_config(2), base_seed=31)
        scenario = pool[0]
        grid = ACCEPTANCE_GRID
        scaling = warmup_scaling(scenario, grid, 100, seed=0)
        params = zeros_params(grid.k, scaling)
        log = ViolationLog()
        rng = np.random.default_rng(0)
        env = GridEnv(scenario)
        epsilon = EpsilonSchedule(0.3, 0.02, 4 * scenario.episode_length)
        features = featurize(env.reset(), scaling)
        from voltmarket import breakdown

        for step in range(5 * scenario.episode_length):
            a = select_action(params, features, epsilon.value(step), grid, rng)
            price = grid.levels[a]
            clamped, violated = clamp_price(price, grid)
            if violated:
                log.record(env.t, price, clamped)
            outcome = env.step(price)
            reward = breakdown(
                outcome.price_sold, outcome.purchase_price, outcome.e_renewable, outcome.e_demand
            )
            next_features = featurize(outcome.next_state, scaling)
            td_update(
                params.weights, features, a, reward.total, next_features, outcome.done, 0.02, 0.3
            )
            features = featurize(env.reset(), scaling) if outcome.done else next_features
        assert len(log) == 0

        # Raw-price evaluation with injected out-of-band prices: summary
        # must equal a brute-force recount.
        rng = np.random.default_rng(4)
        raw_prices = rng.uniform(-0.2, 0.9, scenario.episode_length).tolist()
        _, raw_log = evaluate_price_sequence(scenario, raw_prices, grid)
        from voltmarket import summarize_violations

        summary = summarize_violations(raw_log)
        expected_entries = [
            (t, p) for t, p in enumerate(raw_prices) if p < grid.p_min or p > grid.p_max
        ]
        gaps = [
            abs(p - (grid.p_min if p < grid.p_min else grid.p_max)) for _, p in expected_entries
        ]
        assert summary.count == len(expected_entries)
        assert summary.lower_count == sum(1 for _, p in expected_entries if p < grid.p_min)
        assert summary.upper_count == sum(1 for _, p in expected_entries if p > grid.p_max)
        assert summary.max_gap == max(gaps)
        assert summary.total_gap == sum(gaps)

        # Clamp idempotence over 1e4 random prices.
        prices = np.random.default_rng(9).uniform(-5.0, 5.0, 10_000)
        for price in prices.tolist():
            once, _ = clamp_price(price, grid)
            twice, violated = clamp_price(once, grid)
            assert twice == once and violated is False


def test_criterion_7_tradeoff_table(tmp_path):
    with criterion(7, "tradeoff subcommand: complete table, degenerate band == fixed price"):
        bands = [[0.15, 0.15], [0.10, 0.25], [0.05, 0.35], [0.02, 0.45]]
        config_dict = minimal_config(
            pool={"soc_levels": 3, "episode_length": 24, "customer_count": 3},
            agent={"levels": 5, "episodes": 2},
            tradeoff={"bands": bands},
        )
        config_path = write_config(tmp_path, config_dict)
        out = tmp_path / "out"
        assert cli_main(["tradeoff", "--config", str(config_path), "--out", str(out), "--seed", "3"]) == 0

        import csv as csv_mod

        with (out / "tradeoff.csv").open() as fh:
            rows = list(csv_mod.DictReader(fh))
        assert [(float(r["p_min"]), float(r["p_max"])) for r in rows] == [tuple(b) for b in bands]
        assert all(r["mean_return"] != "" for r in rows)

        # Rebuild the same scenario the harness trained on and compare the
        # degenerate band against the fixed-price baseline bit-exactly.
        from voltmarket.cli import _build_pools
        from voltmarket.config import load_config

        config = load_config(config_path)
        train_pool, _ = _build_pools(config)
        scenario = train_pool[config.agent.scenario_index]
        baseline = episode_return(
            run_fixed_price_episode(scenario, 0.15, config.reward_weights, config.r1_mode)
        )
        assert float(rows[0]["mean_return"]) == baseline


def test_criterion_8_environment_invariants():
    with criterion(8, "1e5 random steps: SOC bounds, window shapes, exact episode lengths"):
        config = PoolConfig(
            n_scenarios=2,
            customer_count=3,
            storage_fraction=(0.5, 0.9),
            cooperative_fraction=(0.0, 1.0),
            elasticity=(-1.0, -0.5),
            horizon=Horizon(1, 60),
            episode_length=50,
            soc_levels=3,
        )
        pool = build_scenario_pool(config, base_seed=9)
        rng = np.random.default_rng(1)
        price_choices = np.array([0.02, 0.08, 0.15, 0.25, 0.4])
        steps_total = 0
        for scenario in pool:
            env = GridEnv(scenario)
            storage_indices = [
                i for i, c in enumerate(scenario.customers) if c.kind == "storage"
            ]
            env.reset()
            steps_in_episode = 0
            for _ in range(50_000):
                outcome = env.step(float(price_choices[rng.integers(len(price_choices))]))
                steps_total += 1
                steps_in_episode += 1
                assert outcome.next_state.window_length == scenario.horizon.p + 1
                assert outcome.e_demand >= 0.0
                for i in storage_indices:
                    soc = env.battery_soc(i)
                    capacity = scenario.customers[i].battery.capacity
                    assert 0.0 <= soc <= capacity
                if outcome.done:
                    assert steps_in_episode == scenario.episode_length
                    steps_in_episode = 0
                    env.reset()
        assert steps_total == 100_000


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "subcommands re-run with identical config and seed are byte-identical"):
        config_path = write_config(
            tmp_path, minimal_config(pool={"soc_levels": 3})
        )
        for sub in ("build-pool", "train", "tradeoff"):
            out_a = tmp_path / f"{sub}-a"
            out_b = tmp_path / f"{sub}-b"
            assert cli_main([sub, "--config", str(config_path), "--out", str(out_a), "--seed", "11"]) == 0
            assert cli_main([sub, "--config", str(config_path), "--out", str(out_b), "--seed", "11"]) == 0
            manifest_a = (out_a / "manifest.json").read_bytes()
            manifest_b = (out_b / "manifest.json").read_bytes()
            assert manifest_a == manifest_b, f"{sub} manifests differ"
            files = json.loads(manifest_a)["files"]
            assert files, f"{sub} produced no artifacts"
