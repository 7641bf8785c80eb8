import json

import pytest

from voltmarket.config import ConfigValidationError, load_config


def minimal_config(**overrides):
    config = {
        "horizon": {"p": 1, "timestep_minutes": 60},
        "reward": {"alpha1": 1.0, "alpha2": 1.0, "r1_mode": "price_diff"},
        "agent": {"levels": 3, "p_min": 0.05, "p_max": 0.45, "episodes": 1, "warmup_steps": 10},
        "pool": {"n_scenarios": 2, "customer_count": 2, "episode_length": 6, "base_seed": 5},
        "meta": {
            "performance_threshold": 1e18,
            "inner_steps": 4,
            "meta_iterations": 1,
            "tasks_per_iteration": 1,
            "heldout_scenarios": 1,
            "adapt_steps": 4,
        },
        "seeds": {"n_seeds": 1, "train_seed": 1},
        "paths": {"output_dir": "out"},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    return config


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_minimal_config_loads(tmp_path):
    config = load_config(write_config(tmp_path, minimal_config()))
    assert config.horizon.p == 1
    assert config.pool.n_scenarios == 2
    assert config.meta.config.performance_threshold == 1e18
    assert len(config.tradeoff_bands) == 4  # defaults


def test_missing_file(tmp_path):
    with pytest.raises(ConfigValidationError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_invalid_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(ConfigValidationError, match="not valid JSON"):
        load_config(path)


def test_all_violations_reported(tmp_path):
    config = minimal_config(
        agent={"lr": -1.0, "gamma": 3.0},
        pool={"n_scenarios": 0},
        seeds={"n_seeds": 0},
    )
    with pytest.raises(ConfigValidationError) as err:
        load_config(write_config(tmp_path, config))
    text = str(err.value)
    for fragment in ("agent.lr", "agent.gamma", "n_scenarios", "seeds.n_seeds"):
        assert fragment in text
    assert len(err.value.violations) >= 4


def test_negative_seeds_are_violations(tmp_path):
    config = minimal_config(pool={"base_seed": -2}, seeds={"train_seed": -3})
    with pytest.raises(ConfigValidationError) as err:
        load_config(write_config(tmp_path, config))
    text = str(err.value)
    assert "pool.base_seed" in text
    assert "seeds.train_seed" in text


def test_performance_threshold_required(tmp_path):
    config = minimal_config()
    del config["meta"]["performance_threshold"]
    with pytest.raises(ConfigValidationError, match="performance_threshold"):
        load_config(write_config(tmp_path, config))


def test_unknown_section_flagged(tmp_path):
    config = minimal_config()
    config["extras"] = {}
    with pytest.raises(ConfigValidationError, match="unknown section"):
        load_config(write_config(tmp_path, config))


def test_missing_trace_file_named(tmp_path):
    config = minimal_config(paths={"traces": "missing_traces.csv"})
    with pytest.raises(ConfigValidationError, match="missing_traces.csv"):
        load_config(write_config(tmp_path, config))


def test_bad_r1_mode(tmp_path):
    config = minimal_config(reward={"r1_mode": "nonsense"})
    with pytest.raises(ConfigValidationError, match="r1_mode"):
        load_config(write_config(tmp_path, config))


def test_bad_band_shape(tmp_path):
    config = minimal_config(tradeoff={"bands": [[0.1, 0.2], [0.5]]})
    with pytest.raises(ConfigValidationError, match="bands"):
        load_config(write_config(tmp_path, config))


def test_tasks_per_iteration_bounded_by_pool(tmp_path):
    config = minimal_config(meta={"tasks_per_iteration": 10})
    with pytest.raises(ConfigValidationError, match="tasks_per_iteration"):
        load_config(write_config(tmp_path, config))

