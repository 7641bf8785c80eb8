import csv
import json

import pytest

from voltmarket.cli import main

from .test_config import minimal_config, write_config


def run_cli(*args) -> int:
    return main([str(a) for a in args])


@pytest.fixture()
def config_path(tmp_path):
    return write_config(tmp_path, minimal_config(pool={"soc_levels": 3}))


def test_validate_ok(config_path, capsys):
    assert run_cli("validate", "--config", config_path) == 0
    assert "config OK" in capsys.readouterr().out


def test_validate_writes_nothing(config_path, tmp_path):
    out = tmp_path / "out"
    assert run_cli("validate", "--config", config_path, "--out", out) == 0
    assert not out.exists()


def test_validate_bad_config_exit_2(tmp_path, capsys):
    config = minimal_config(agent={"lr": -5})
    path = write_config(tmp_path, config)
    assert run_cli("validate", "--config", path) == 2
    assert "agent.lr" in capsys.readouterr().err


def test_validate_unknown_key_exit_2_writes_nothing(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config(agent={"episodez": 500}))
    out = tmp_path / "out"
    assert run_cli("validate", "--config", path, "--out", out) == 2
    assert "agent.episodez: unknown key" in capsys.readouterr().err
    assert not out.exists()


def test_validate_names_every_horizon_problem_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, minimal_config(horizon={"p": -1, "timestep_minutes": 0}))
    assert run_cli("validate", "--config", path) == 2
    err = capsys.readouterr().err
    assert "horizon: p must be >= 0, got -1" in err
    assert "timestep_minutes must be > 0, got 0" in err


@pytest.mark.parametrize("horizon", [{"timestep_minutes": 30}, {"p": 2}])
def test_evaluate_rejects_policy_of_another_horizon(tmp_path, capsys, horizon):
    out = tmp_path / "out"
    trained = write_config(tmp_path, minimal_config(pool={"soc_levels": 3}))
    assert run_cli("train", "--config", trained, "--out", out) == 0
    other = tmp_path / "other"
    other.mkdir()
    evaluated = write_config(other, minimal_config(pool={"soc_levels": 3}, horizon=horizon))
    capsys.readouterr()
    assert run_cli("evaluate", "--config", evaluated, "--out", out) == 1
    err = capsys.readouterr().err
    assert "Horizon(p=1, timestep_minutes=60)" in err
    assert "policy was trained for" in err
    assert not (out / "eval_summary.json").exists()


def test_evaluate_rejects_policy_missing_a_weight_row(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("train", "--config", config_path, "--out", out) == 0
    policy = out / "policy.json"
    doc = json.loads(policy.read_text())
    doc["weights"].pop()
    policy.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("evaluate", "--config", config_path, "--out", out) == 1
    err = capsys.readouterr().err
    assert str(policy) in err
    assert "policy has 2 weight rows" in err and "its grid has 3 levels" in err
    assert not (out / "eval_summary.json").exists()


@pytest.mark.parametrize("section, key", [("seeds", "train_seed"), ("pool", "base_seed")])
def test_validate_negative_config_seed_exit_2(tmp_path, capsys, section, key):
    path = write_config(tmp_path, minimal_config(**{section: {key: -3}}))
    assert run_cli("validate", "--config", path) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


def test_negative_seed_flag_exit_2_writes_nothing(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("train", "--config", config_path, "--out", out, "--seed", -1) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_missing_traces_exit_2(tmp_path, capsys):
    config = minimal_config(paths={"traces": "gone.csv"})
    path = write_config(tmp_path, config)
    assert run_cli("validate", "--config", path) == 2
    assert "gone.csv" in capsys.readouterr().err


def test_build_pool_writes_pool_and_manifest(config_path, tmp_path):
    out = tmp_path / "out"
    assert run_cli("build-pool", "--config", config_path, "--out", out) == 0
    pool = json.loads((out / "pool.json").read_text())
    assert len(pool["train"]) == 2
    assert len(pool["heldout"]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert "pool.json" in manifest["files"]


def test_evaluate_without_policy_exit_1(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("evaluate", "--config", config_path, "--out", out) == 1
    assert "policy" in capsys.readouterr().err


def test_full_run_produces_required_artifacts(config_path, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--config", config_path, "--out", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    files = set(manifest["files"])
    assert "pool.json" in files
    assert "policy.json" in files
    assert "summary.json" in files
    assert any(name.startswith("episodes/") and name.endswith(".csv") for name in files)
    assert len(files) >= 4
    # every artifact on disk is declared, nothing else
    on_disk = {
        p.relative_to(out).as_posix()
        for p in out.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    assert on_disk == files


def test_episode_csv_schema(config_path, tmp_path):
    out = tmp_path / "out"
    assert run_cli("train", "--config", config_path, "--out", out) == 0
    episode_files = sorted((out / "episodes").glob("*.csv"))
    assert episode_files
    with episode_files[0].open() as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "price", "e_demand", "e_renewable", "purchase_price", "r1", "r2", "total"]


def test_tradeoff_emits_complete_table(config_path, tmp_path):
    out = tmp_path / "out"
    assert run_cli("tradeoff", "--config", config_path, "--out", out) == 0
    with (out / "tradeoff.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # default bands
    assert set(rows[0]) == {"p_min", "p_max", "mean_return", "mean_sum_r1", "mean_sum_r2"}
    for row in rows:
        assert row["mean_return"] != ""


def test_report_merges_outputs(config_path, tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--config", config_path, "--out", out) == 0
    with (out / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert set(rows[0]) == {"source", "sum_r1", "sum_r2", "sum_total", "rmse", "pearson_r"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["tradeoff"] is True
    assert summary["sample_efficiency"] is True
    assert summary["violations"] is True
    assert [row["source"] for row in summary["episodes"]] == sorted(
        row["source"] for row in summary["episodes"]
    )


def test_run_twice_is_byte_identical(config_path, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli("run", "--config", config_path, "--out", out_a, "--seed", 3) == 0
    assert run_cli("run", "--config", config_path, "--out", out_b, "--seed", 3) == 0
    manifest_a = (out_a / "manifest.json").read_bytes()
    manifest_b = (out_b / "manifest.json").read_bytes()
    assert manifest_a == manifest_b


def test_run_equals_subcommands_one_by_one(config_path, tmp_path):
    out_run = tmp_path / "run"
    out_steps = tmp_path / "steps"
    assert run_cli("run", "--config", config_path, "--out", out_run, "--seed", 3) == 0
    for stage in ("validate", "build-pool", "train", "meta-train", "evaluate", "tradeoff", "report"):
        assert run_cli(stage, "--config", config_path, "--out", out_steps, "--seed", 3) == 0

    def tree(root):
        return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    run_files, step_files = tree(out_run), tree(out_steps)
    assert "manifest.json" in run_files
    assert run_files.keys() == step_files.keys()
    for name, content in run_files.items():
        assert content == step_files[name], name


def test_subcommand_rerun_is_byte_identical(config_path, tmp_path):
    out = tmp_path / "out"
    assert run_cli("train", "--config", config_path, "--out", out, "--seed", 2) == 0
    first = (out / "manifest.json").read_bytes()
    assert run_cli("train", "--config", config_path, "--out", out, "--seed", 2) == 0
    assert (out / "manifest.json").read_bytes() == first


def test_meta_train_writes_sample_efficiency(config_path, tmp_path):
    out = tmp_path / "out"
    assert run_cli("meta-train", "--config", config_path, "--out", out) == 0
    report = json.loads((out / "sample_efficiency.json").read_text())
    assert report["n_scenarios"] == 1
    assert len(report["entries"]) == report["n_scenarios"] * report["n_seeds"]
    assert (out / "sample_efficiency.csv").exists()
    assert (out / "policy_meta.json").exists()


def test_ingested_traces_flow_through(tmp_path):
    from voltmarket.io import write_traces_csv
    from voltmarket.pool import PoolConfig, synth_traces
    from voltmarket.model import Horizon
    import numpy as np

    pool_config = PoolConfig(
        n_scenarios=1,
        customer_count=2,
        storage_fraction=(0.5, 0.5),
        cooperative_fraction=(0.0, 0.0),
        elasticity=(-0.8, -0.8),
        horizon=Horizon(1, 60),
        episode_length=6,
    )
    traces = synth_traces(pool_config, np.random.default_rng(1), 20)
    trace_path = tmp_path / "traces.csv"
    write_traces_csv(traces, trace_path, 60)
    config = minimal_config(paths={"traces": str(trace_path), "output_dir": "out"})
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert run_cli("build-pool", "--config", path, "--out", out) == 0
    pool = json.loads((out / "pool.json").read_text())
    stored = pool["train"][0]["traces"]["purchase_price"]
    assert stored == pytest.approx(list(traces.purchase_price))
