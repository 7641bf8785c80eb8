import json
from dataclasses import asdict

import numpy as np
import pytest

from voltmarket import FeatureScaling, Horizon, PolicyParams, PriceGrid, n_features
from voltmarket.io import (
    ArtifactWriter,
    PolicyFileError,
    SchemaVersionError,
    TraceFormatError,
    file_sha256,
    ingest_traces,
    load_policy,
    persist_policy,
    read_episode_csv,
    scenario_from_dict,
    write_episode_csv,
    write_traces_csv,
)
from voltmarket.pool import PoolConfig, build_scenario_pool, synth_traces

from .helpers import small_scenario
from .test_telemetry import make_record

GOOD_CSV = """timestamp_min,temperature_c,solar_irradiance,wind_speed_ms,purchase_price
0,12.5,0.0,4.2,0.08
60,13.0,0.25,5.0,0.09
120,14.5,0.5,3.8,0.11
"""


class TestIngestTraces:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text(GOOD_CSV)
        traces = ingest_traces(path, 60, solar_capacity_kw=10.0, wind_capacity_kw=2.0)
        assert len(traces) == 3
        assert traces.weather[1].solar_irradiance == 0.25
        assert traces.purchase_price == (0.08, 0.09, 0.11)

    def test_out_of_range_irradiance_names_column_and_line(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text(GOOD_CSV.replace("0,12.5,0.0", "0,12.5,1.5", 1))
        with pytest.raises(TraceFormatError, match=r"line 2.*solar_irradiance"):
            ingest_traces(path, 60, 10.0, 2.0)

    def test_malformed_cell_names_line(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text(GOOD_CSV.replace("13.0", "warm"))
        with pytest.raises(TraceFormatError, match="line 3"):
            ingest_traces(path, 60, 10.0, 2.0)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(TraceFormatError, match="header"):
            ingest_traces(path, 60, 10.0, 2.0)

    def test_non_monotone_timestamps(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text(GOOD_CSV.replace("\n120,", "\n90,"))
        with pytest.raises(TraceFormatError, match=r"line 4.*timestamp_min"):
            ingest_traces(path, 60, 10.0, 2.0)

    def test_round_trip_synthesized_pool_traces(self, tmp_path):
        config = PoolConfig(
            n_scenarios=1,
            customer_count=2,
            storage_fraction=(0.5, 0.5),
            cooperative_fraction=(0.0, 0.0),
            elasticity=(-0.8, -0.8),
            horizon=Horizon(1, 60),
            episode_length=24,
        )
        traces = synth_traces(config, np.random.default_rng(3), 26)
        path = tmp_path / "round.csv"
        write_traces_csv(traces, path, 60)
        back = ingest_traces(path, 60, traces.solar_capacity_kw, traces.wind_capacity_kw)
        assert len(back) == len(traces)
        for a, b in zip(traces.weather, back.weather):
            assert b.temperature_c == pytest.approx(a.temperature_c, abs=1e-9)
            assert b.solar_irradiance == pytest.approx(a.solar_irradiance, abs=1e-9)
            assert b.wind_speed == pytest.approx(a.wind_speed, abs=1e-9)
        assert back.purchase_price == pytest.approx(traces.purchase_price, abs=1e-9)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFormatError, match="not found"):
            ingest_traces(tmp_path / "absent.csv", 60, 1.0, 1.0)


class TestPolicyPersistence:
    def params(self, horizon_p=1):
        # Two weight rows over the features of horizon_p, with values whose
        # every bit must survive the round trip.
        n_raw = n_features(horizon_p) - 1
        rng = np.random.default_rng(0)
        scaling = FeatureScaling(mean=rng.normal(size=n_raw), scale=rng.uniform(0.25, 7.5, n_raw))
        weights = rng.normal(size=(2, n_raw + 1))
        weights[0, -1] = 1e-9
        return PolicyParams(weights=weights, scaling=scaling)

    def test_round_trip_exact(self, tmp_path):
        params = self.params(2)
        grid = PriceGrid.uniform(0.05, 0.45, 2)
        horizon = Horizon(2, 30)
        path = tmp_path / "policy.json"
        persist_policy(params, grid, horizon, path)
        loaded_params, loaded_grid, loaded_horizon = load_policy(path)
        assert loaded_params.weights.tolist() == params.weights.tolist()
        assert loaded_params.scaling.mean.tolist() == params.scaling.mean.tolist()
        assert loaded_grid == grid
        assert loaded_horizon == horizon

    def test_truncated_file_is_corrupt(self, tmp_path):
        path = tmp_path / "policy.json"
        persist_policy(self.params(), PriceGrid.uniform(0.1, 0.4, 2), Horizon(1, 60), path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(PolicyFileError, match="corrupt"):
            load_policy(path)

    def test_version_mismatch_names_versions(self, tmp_path):
        path = tmp_path / "policy.json"
        persist_policy(self.params(), PriceGrid.uniform(0.1, 0.4, 2), Horizon(1, 60), path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaVersionError, match=r"expected schema_version 1, found 99"):
            load_policy(path)

    def test_missing_section_is_corrupt(self, tmp_path):
        path = tmp_path / "policy.json"
        persist_policy(self.params(), PriceGrid.uniform(0.1, 0.4, 2), Horizon(1, 60), path)
        doc = json.loads(path.read_text())
        del doc["scaling"]
        path.write_text(json.dumps(doc))
        with pytest.raises(PolicyFileError):
            load_policy(path)

    def test_weight_rows_must_match_grid(self, tmp_path):
        path = tmp_path / "policy.json"
        persist_policy(self.params(), PriceGrid.uniform(0.1, 0.4, 3), Horizon(1, 60), path)
        with pytest.raises(PolicyFileError) as err:
            load_policy(path)
        assert str(err.value) == (
            f"{path}: policy has 2 weight rows of 17 features "
            "but its grid has 3 levels and horizon p=1 needs 17"
        )

    def test_features_must_match_horizon(self, tmp_path):
        path = tmp_path / "policy.json"
        persist_policy(self.params(2), PriceGrid.uniform(0.1, 0.4, 2), Horizon(3, 60), path)
        with pytest.raises(PolicyFileError) as err:
            load_policy(path)
        assert str(err.value) == (
            f"{path}: policy has 2 weight rows of 25 features "
            "but its grid has 2 levels and horizon p=3 needs 33"
        )

    @pytest.mark.parametrize(
        "field, value", [("mean", float("nan")), ("scale", float("inf")), ("mean", float("-inf"))]
    )
    def test_non_finite_scaling_is_corrupt(self, tmp_path, field, value):
        # json writes and reads the NaN / Infinity literals without complaint.
        path = tmp_path / "policy.json"
        persist_policy(self.params(), PriceGrid.uniform(0.1, 0.4, 2), Horizon(1, 60), path)
        doc = json.loads(path.read_text())
        doc["scaling"][field][1] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(PolicyFileError, match="finite"):
            load_policy(path)


class TestEpisodeCsv:
    def test_round_trip(self, tmp_path):
        record = make_record([1.0, 4.0, 2.0], [2.0, 3.0, 2.5])
        path = tmp_path / "ep.csv"
        write_episode_csv(record, path)
        back = read_episode_csv(path)
        assert len(back) == 3
        for a, b in zip(record.steps, back.steps):
            assert (a.t, a.price, a.e_demand, a.e_renewable) == (
                b.t,
                b.price,
                b.e_demand,
                b.e_renewable,
            )
            assert a.total == b.total


class TestScenarioSerialization:
    def test_round_trip(self):
        pool = build_scenario_pool(
            PoolConfig(
                n_scenarios=3,
                customer_count=4,
                storage_fraction=(0.25, 0.75),
                cooperative_fraction=(0.0, 1.0),
                elasticity=(-1.2, -0.4),
                horizon=Horizon(2, 60),
                episode_length=12,
                soc_levels=3,
            ),
            base_seed=11,
        )
        for scenario in pool:
            assert {c.kind for c in scenario.customers} == {"storage", "elastic"}
            assert scenario_from_dict(json.loads(json.dumps(asdict(scenario)))) == scenario


    def test_misspelled_battery_key_names_the_customer_and_every_key(self):
        doc = json.loads(json.dumps(asdict(small_scenario(kinds=("elastic", "storage")))))
        battery = doc["customers"][1]["battery"]
        battery["socc"] = battery.pop("soc")
        del battery["capacity"]
        battery["size"] = 4.0
        with pytest.raises(ValueError) as err:
            scenario_from_dict(doc)
        assert str(err.value) == (
            "customer 1 battery: unknown key 'socc'; unknown key 'size'; "
            "missing key 'capacity'; missing key 'soc'"
        )


class TestArtifactWriter:
    def test_manifest_covers_all_files(self, tmp_path):
        writer = ArtifactWriter(tmp_path / "out")
        writer.write_json("a.json", {"x": 1})
        writer.write_csv("sub/b.csv", ("u", "v"), [(1, 2)])
        writer.write_manifest()
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert set(manifest["files"]) == {"a.json", "sub/b.csv"}
        for rel, digest in manifest["files"].items():
            assert digest == file_sha256(tmp_path / "out" / rel)

    def test_manifest_excludes_itself_and_is_stable(self, tmp_path):
        writer = ArtifactWriter(tmp_path / "out")
        writer.write_json("a.json", {"x": 1})
        writer.write_manifest()
        first = (tmp_path / "out" / "manifest.json").read_bytes()
        writer.write_manifest()
        assert (tmp_path / "out" / "manifest.json").read_bytes() == first

    def test_no_orphan_writes(self, tmp_path):
        writer = ArtifactWriter(tmp_path / "out")
        writer.write_json("a.json", {})
        writer.write_csv("b.csv", ("u",), [(1,)])
        assert sorted(writer.written) == sorted(writer.inventory())
