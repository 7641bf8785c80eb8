"""File formats: trace CSV ingestion, versioned policy persistence, per-step
episode CSVs, scenario serialization and the hashed output manifest."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import fields
from pathlib import Path

import numpy as np

from .agent import FeatureScaling, PolicyParams, PriceGrid, n_features
from .customers import Battery, CustomerSpec
from .env import Scenario
from .model import Horizon, ScenarioTraces, WeatherSample
from .telemetry import EpisodeRecord, EpisodeStep

TRACE_COLUMNS = ("timestamp_min", "temperature_c", "solar_irradiance", "wind_speed_ms", "purchase_price")
POLICY_SCHEMA_VERSION = 1
EPISODE_COLUMNS = ("t", "price", "e_demand", "e_renewable", "purchase_price", "r1", "r2", "total")


class TraceFormatError(ValueError):
    """Trace CSV is malformed or out of range; message names line and column."""


class PolicyFileError(ValueError):
    """Policy file is unreadable or structurally invalid."""


class SchemaVersionError(PolicyFileError):
    """Policy file was written under a different schema version."""


def ingest_traces(
    csv_path: str | os.PathLike,
    timestep_minutes: int,
    solar_capacity_kw: float,
    wind_capacity_kw: float,
) -> ScenarioTraces:
    """Parse a trace CSV into ScenarioTraces.

    The header must match TRACE_COLUMNS exactly; timestamps must advance by
    exactly timestep_minutes per row. Errors carry the 1-based physical line
    number (line 1 is the header).
    """
    path = Path(csv_path)
    if not path.exists():
        raise TraceFormatError(f"trace file not found: {path}")
    weather: list[WeatherSample] = []
    prices: list[float] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError(f"{path}: empty file") from None
        if tuple(h.strip() for h in header) != TRACE_COLUMNS:
            raise TraceFormatError(
                f"{path}: line 1: header must be {','.join(TRACE_COLUMNS)}, "
                f"got {','.join(header)}"
            )
        expected_ts = None
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(TRACE_COLUMNS):
                raise TraceFormatError(
                    f"{path}: line {line_no}: expected {len(TRACE_COLUMNS)} fields, got {len(row)}"
                )
            values = {}
            for column, cell in zip(TRACE_COLUMNS, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise TraceFormatError(
                        f"{path}: line {line_no}: column {column}: not a number: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise TraceFormatError(
                        f"{path}: line {line_no}: column {column}: must be finite"
                    )
                values[column] = value
            ts = values["timestamp_min"]
            if expected_ts is not None and ts != expected_ts:
                raise TraceFormatError(
                    f"{path}: line {line_no}: column timestamp_min: expected {expected_ts} "
                    f"(monotone at {timestep_minutes}-minute steps), got {ts}"
                )
            expected_ts = ts + timestep_minutes
            if not 0.0 <= values["solar_irradiance"] <= 1.0:
                raise TraceFormatError(
                    f"{path}: line {line_no}: column solar_irradiance: "
                    f"must lie in [0, 1], got {values['solar_irradiance']}"
                )
            if values["wind_speed_ms"] < 0.0:
                raise TraceFormatError(
                    f"{path}: line {line_no}: column wind_speed_ms: "
                    f"must be >= 0, got {values['wind_speed_ms']}"
                )
            if values["purchase_price"] < 0.0:
                raise TraceFormatError(
                    f"{path}: line {line_no}: column purchase_price: "
                    f"must be >= 0, got {values['purchase_price']}"
                )
            weather.append(
                WeatherSample(
                    temperature_c=values["temperature_c"],
                    solar_irradiance=values["solar_irradiance"],
                    wind_speed=values["wind_speed_ms"],
                )
            )
            prices.append(values["purchase_price"])
    if not weather:
        raise TraceFormatError(f"{path}: no data rows")
    return ScenarioTraces(
        weather=tuple(weather),
        purchase_price=tuple(prices),
        solar_capacity_kw=solar_capacity_kw,
        wind_capacity_kw=wind_capacity_kw,
    )


def write_traces_csv(
    traces: ScenarioTraces, path: str | os.PathLike, timestep_minutes: int
) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for i, (w, price) in enumerate(zip(traces.weather, traces.purchase_price)):
            writer.writerow(
                [i * timestep_minutes, w.temperature_c, w.solar_irradiance, w.wind_speed, price]
            )


def dump_json(obj, path: str | os.PathLike) -> None:
    """Canonical JSON: sorted keys, fixed indentation, trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def policy_document(params: PolicyParams, grid: PriceGrid, horizon: Horizon) -> dict:
    return {
        "schema_version": POLICY_SCHEMA_VERSION,
        "horizon": {"p": horizon.p, "timestep_minutes": horizon.timestep_minutes},
        "grid": {"levels": list(grid.levels), "p_min": grid.p_min, "p_max": grid.p_max},
        "scaling": {
            "mean": params.scaling.mean.tolist(),
            "scale": params.scaling.scale.tolist(),
        },
        "weights": params.weights.tolist(),
    }


def persist_policy(
    params: PolicyParams, grid: PriceGrid, horizon: Horizon, path: str | os.PathLike
) -> None:
    """Write the versioned policy document (horizon, grid, scaling, weights)."""
    dump_json(policy_document(params, grid, horizon), path)


def load_policy(path: str | os.PathLike) -> tuple[PolicyParams, PriceGrid, Horizon]:
    path = Path(path)
    if not path.exists():
        raise PolicyFileError(f"policy file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise PolicyFileError(f"{path}: corrupt policy file: {exc}") from exc
    if not isinstance(doc, dict):
        raise PolicyFileError(f"{path}: corrupt policy file: root must be an object")
    version = doc.get("schema_version")
    if version != POLICY_SCHEMA_VERSION:
        raise SchemaVersionError(
            f"{path}: expected schema_version {POLICY_SCHEMA_VERSION}, found {version!r}"
        )
    try:
        horizon = Horizon(doc["horizon"]["p"], doc["horizon"]["timestep_minutes"])
        grid = PriceGrid(
            levels=tuple(doc["grid"]["levels"]),
            p_min=doc["grid"]["p_min"],
            p_max=doc["grid"]["p_max"],
        )
        scaling = FeatureScaling(
            mean=np.array(doc["scaling"]["mean"], dtype=float),
            scale=np.array(doc["scaling"]["scale"], dtype=float),
        )
        params = PolicyParams(weights=np.array(doc["weights"], dtype=float), scaling=scaling)
    except (KeyError, TypeError, ValueError) as exc:
        raise PolicyFileError(f"{path}: corrupt policy file: {exc}") from exc
    needed = n_features(horizon.p)
    if params.k != grid.k or params.n_features != needed:
        raise PolicyFileError(
            f"{path}: policy has {params.k} weight rows of {params.n_features} features "
            f"but its grid has {grid.k} levels and horizon p={horizon.p} needs {needed}"
        )
    return params, grid, horizon


def write_episode_csv(record: EpisodeRecord, path: str | os.PathLike) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EPISODE_COLUMNS)
        for s in record.steps:
            writer.writerow(
                [s.t, s.price, s.e_demand, s.e_renewable, s.purchase_price, s.r1, s.r2, s.total]
            )


def read_episode_csv(path: str | os.PathLike) -> EpisodeRecord:
    record = EpisodeRecord()
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            record.steps.append(
                EpisodeStep(
                    t=int(row["t"]),
                    price=float(row["price"]),
                    e_demand=float(row["e_demand"]),
                    e_renewable=float(row["e_renewable"]),
                    purchase_price=float(row["purchase_price"]),
                    r1=float(row["r1"]),
                    r2=float(row["r2"]),
                    total=float(row["total"]),
                )
            )
    return record


def _battery_from_dict(index: int, doc: dict) -> Battery:
    """Battery(**doc), after checking doc's keys against Battery's fields."""
    names = [f.name for f in fields(Battery)]
    problems = [f"unknown key {k!r}" for k in doc if k not in names]
    problems += [f"missing key {k!r}" for k in names if k not in doc]
    if problems:
        raise ValueError(f"customer {index} battery: " + "; ".join(problems))
    return Battery(**doc)


def scenario_from_dict(doc: dict) -> Scenario:
    traces = ScenarioTraces(
        weather=tuple(
            WeatherSample(w["temperature_c"], w["solar_irradiance"], w["wind_speed"])
            for w in doc["traces"]["weather"]
        ),
        purchase_price=tuple(doc["traces"]["purchase_price"]),
        solar_capacity_kw=doc["traces"]["solar_capacity_kw"],
        wind_capacity_kw=doc["traces"]["wind_capacity_kw"],
    )
    customers = []
    for i, c in enumerate(doc["customers"]):
        battery = _battery_from_dict(i, c["battery"]) if c.get("battery") else None
        customers.append(
            CustomerSpec(
                kind=c["kind"],
                cooperative=c["cooperative"],
                baseline_load=tuple(c["baseline_load"]),
                reference_price=c["reference_price"],
                peak_weight=c["peak_weight"],
                battery=battery,
                elasticity=c["elasticity"],
                soc_levels=c["soc_levels"],
            )
        )
    return Scenario(
        customers=tuple(customers),
        traces=traces,
        horizon=Horizon(doc["horizon"]["p"], doc["horizon"]["timestep_minutes"]),
        episode_length=doc["episode_length"],
        seed=doc["seed"],
    )


def file_sha256(path: str | os.PathLike) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class ArtifactWriter:
    """Funnels every output file through one place and builds the manifest.

    The manifest inventories all artifact files under the output root (the
    manifest itself excluded) with content hashes; it is written last. The
    root is created by the first write.
    """

    MANIFEST_NAME = "manifest.json"

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.written: list[str] = []

    def path(self, rel: str) -> Path:
        return self.root / rel

    def _track(self, rel: str) -> Path:
        if rel not in self.written:
            self.written.append(rel)
        full = self.root / rel
        full.parent.mkdir(parents=True, exist_ok=True)
        return full

    def write_json(self, rel: str, obj) -> Path:
        full = self._track(rel)
        dump_json(obj, full)
        return full

    def write_episode_csv(self, rel: str, record: EpisodeRecord) -> Path:
        full = self._track(rel)
        write_episode_csv(record, full)
        return full

    def write_csv(self, rel: str, header, rows) -> Path:
        full = self._track(rel)
        with full.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        return full

    def inventory(self) -> dict[str, str]:
        files = {}
        for path in sorted(self.root.rglob("*")):
            if path.is_dir() or path.name == self.MANIFEST_NAME:
                continue
            files[path.relative_to(self.root).as_posix()] = file_sha256(path)
        return files

    def write_manifest(self) -> Path:
        manifest = {"files": self.inventory()}
        full = self.root / self.MANIFEST_NAME
        dump_json(manifest, full)
        return full
