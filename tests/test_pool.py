import pytest

from voltmarket import GridEnv, Horizon, PoolConfig, PoolConfigError, build_scenario_pool
from voltmarket.pool import stratified_midpoints


def pool_config(n=4, **overrides):
    defaults = dict(
        n_scenarios=n,
        customer_count=4,
        storage_fraction=(0.0, 1.0),
        cooperative_fraction=(0.0, 1.0),
        elasticity=(-1.2, -0.4),
        horizon=Horizon(2, 60),
        episode_length=24,
        soc_levels=3,
    )
    defaults.update(overrides)
    return PoolConfig(**defaults)


def test_stratified_midpoints_known_values():
    values = stratified_midpoints(0.0, 1.0, 8)
    # Independent recomputation of the stratification arithmetic.
    expected = [(i + 0.5) / 8 for i in range(8)]
    assert values.tolist() == pytest.approx(expected)
    assert values[0] == 0.0625 and values[-1] == 0.9375


def test_single_scenario_uses_midpoints():
    pool = build_scenario_pool(pool_config(n=1), base_seed=9)
    assert len(pool) == 1
    scenario = pool[0]
    # storage fraction midpoint 0.5 of 4 customers -> 2 storage
    kinds = [c.kind for c in scenario.customers]
    assert kinds.count("storage") == 2
    elastic = [c for c in scenario.customers if c.kind == "elastic"]
    assert all(c.elasticity == pytest.approx(-0.8) for c in elastic)


def test_pool_is_deterministic():
    a = build_scenario_pool(pool_config(), base_seed=11)
    b = build_scenario_pool(pool_config(), base_seed=11)
    for sa, sb in zip(a, b):
        assert sa.traces.purchase_price == sb.traces.purchase_price
        assert [c.baseline_load for c in sa.customers] == [c.baseline_load for c in sb.customers]
        assert [c.kind for c in sa.customers] == [c.kind for c in sb.customers]


def test_storage_fractions_are_stratified():
    n = 8
    pool = build_scenario_pool(pool_config(n=n), base_seed=3)
    fractions = sorted(
        sum(c.kind == "storage" for c in s.customers) / len(s.customers) for s in pool
    )
    # round(midpoint * 4) / 4 per scenario, midpoints {0.0625, ..., 0.9375}
    expected = sorted(round(((i + 0.5) / n) * 4) / 4 for i in range(n))
    assert fractions == pytest.approx(expected)


def test_seeds_are_base_plus_index():
    pool = build_scenario_pool(pool_config(), base_seed=50)
    assert [s.seed for s in pool] == [50, 51, 52, 53]


def test_scenarios_are_valid_and_runnable():
    pool = build_scenario_pool(pool_config(n=2, episode_length=6), base_seed=1)
    for scenario in pool:
        env = GridEnv(scenario)
        env.reset()
        outcome = None
        for _ in range(scenario.episode_length):
            outcome = env.step(0.15)
        assert outcome is not None and outcome.done


def test_empty_range_rejected():
    with pytest.raises(PoolConfigError, match="storage_fraction"):
        build_scenario_pool(pool_config(storage_fraction=(0.8, 0.2)), base_seed=1)


def test_bad_counts_rejected():
    with pytest.raises(PoolConfigError):
        build_scenario_pool(pool_config(n=0), base_seed=1)


def test_short_ingested_traces_rejected():
    config = pool_config(n=1)
    from .helpers import constant_traces

    with pytest.raises(PoolConfigError, match="shorter"):
        build_scenario_pool(config, base_seed=1, traces=constant_traces(5))


def test_ingested_traces_replace_synthetic():
    from .helpers import constant_traces

    config = pool_config(n=2)
    traces = constant_traces(config.episode_length + config.horizon.p + 1)
    pool = build_scenario_pool(config, base_seed=1, traces=traces)
    assert all(s.traces is traces for s in pool)
