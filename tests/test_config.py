import json
from dataclasses import fields
from pathlib import Path

import pytest

from voltmarket.config import (
    AgentSection,
    ConfigValidationError,
    MetaSection,
    load_config,
    parse_config,
)
from voltmarket.meta import MetaConfig
from voltmarket.model import Horizon
from voltmarket.reward import r1_mode_violations
from voltmarket.pool import PoolConfig
from voltmarket.training import LearningConfig, TrainConfig

REPO = Path(__file__).resolve().parents[1]


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


def test_bad_r1_mode_reads_as_the_reward_rule():
    with pytest.raises(ConfigValidationError) as err:
        parse_config(minimal_config(reward={"r1_mode": "volume"}))
    assert err.value.violations == [f"reward.{r1_mode_violations('volume')[0]}"]


def test_bad_band_shape(tmp_path):
    config = minimal_config(tradeoff={"bands": [[0.1, 0.2], [0.5]]})
    with pytest.raises(ConfigValidationError, match="bands"):
        load_config(write_config(tmp_path, config))


def test_tasks_per_iteration_bounded_by_pool(tmp_path):
    config = minimal_config(meta={"tasks_per_iteration": 10})
    with pytest.raises(ConfigValidationError, match="tasks_per_iteration"):
        load_config(write_config(tmp_path, config))



@pytest.mark.parametrize(
    "overrides, fragments",
    [
        ({"agent": {"episodez": 500}}, ["agent.episodez: unknown key"]),
        ({"horizon": {"timestep": 30}}, ["horizon.timestep: unknown key"]),
        ({"agent": {"levels": 1}}, ["agent.p_min, p_max and levels", "k >= 2 levels, got 1"]),
        (
            {"agent": {"levels": 1, "p_min": 0.2, "p_max": 0.2}, "tradeoff": {"bands": [[0.1, 0.3]]}},
            ["tradeoff.bands[0] with agent.levels", "k >= 2 levels, got 1"],
        ),
        ({"meta": {"gamma": 3.0}}, ["meta: gamma must lie in [0, 1]"]),
        ({"meta": {"baseline_std": -1.0}}, ["meta.baseline_std"]),
        ({"meta": {"curve_points": -2}}, ["meta.curve_points"]),
        ({"meta": {"inner_steps": 0, "meta_lr": 5}}, ["inner_steps", "meta_lr"]),
        ({"pool": {"storage_fraction": [float("nan"), 0.5]}}, ["pool.storage_fraction"]),
        ({"agent": {"lr": 10**400}}, ["agent.lr: expected float"]),
    ],
    ids=[
        "unknown-key",
        "unknown-key-explicit-section",
        "levels-on-agent-band",
        "levels-on-tradeoff-band",
        "meta-gamma",
        "baseline-std",
        "curve-points",
        "all-meta-rules",
        "non-finite-pair",
        "float-overflow",
    ],
)
def test_what_a_run_rejects_is_a_violation(overrides, fragments):
    with pytest.raises(ConfigValidationError) as err:
        parse_config(minimal_config(**overrides))
    text = str(err.value)
    for fragment in fragments:
        assert fragment in text


def test_quoted_numbers_are_violations():
    data = minimal_config(
        agent={"lr": "0.02"}, pool={"n_scenarios": "4"}, meta={"inner_steps": " 336 "}
    )
    with pytest.raises(ConfigValidationError) as err:
        parse_config(data)
    text = str(err.value)
    assert "agent.lr: expected float, got '0.02'" in text
    assert "pool.n_scenarios: expected int, got '4'" in text
    assert "meta.inner_steps: expected int, got ' 336 '" in text


def test_empty_sections_take_the_dataclass_defaults():
    data = minimal_config(pool={"n_scenarios": 4})
    data["agent"] = {}
    data["meta"] = {"performance_threshold": 1e18}
    config = parse_config(data)
    assert config.agent == AgentSection()
    assert config.meta == MetaSection(config=MetaConfig(performance_threshold=1e18))


def test_agent_section_and_train_config_share_the_learning_defaults():
    for f in fields(LearningConfig):
        assert getattr(AgentSection(), f.name) == getattr(TrainConfig(), f.name), f.name


def test_empty_horizon_section_is_the_horizon_default():
    data = minimal_config()
    data["horizon"] = {}
    assert parse_config(data).horizon == Horizon(3, 60)


def test_empty_pool_section_is_the_pool_config_default():
    data = minimal_config()
    data["pool"] = {}
    config = parse_config(data)
    assert config.pool == PoolConfig(horizon=Horizon(1, 60))


def _readme_config_sketch() -> dict:
    section = (REPO / "README.md").read_text().split("## Configuration", 1)[1]
    return json.loads(section.split("```json", 1)[1].split("```", 1)[0])


def test_shipped_configs_load():
    load_config(REPO / "config.example.json")
    load_config(REPO / "perfbench" / "pipeline_config.json")
    parse_config(_readme_config_sketch())
