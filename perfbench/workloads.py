"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed, runs a fixed pass of
closed-loop operations (one client, no threads), checks every operation's
outputs, and says which layers a traced pass must reach and which counts it
must reproduce exactly.

- ``pipeline``: ``voltmarket run`` on the example config with three seeds;
  an operation is a CLI stage.
- ``train-seeds``: ``train_policy`` plus a greedy episode on training-pool
  scenario 0 for one block of seeds; an operation is a seed.
- ``price-replay``: what-if requests of ``evaluate_price_sequence`` on
  continuous random prices over a storage-heavy pool, 32 per pass; an
  operation is a request.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from voltmarket import cli, config, pool, telemetry, training
from voltmarket.agent import PriceGrid

from tracer import Target, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# config.example.json as it was when the benchmark was defined, frozen so that
# edits to the shipped example cannot silently change the workloads, except
# seeds.n_seeds = 3 instead of 10: that shortens the train stage and held-out
# evaluation, keeps every stage and mechanism, and leaves the benchmark's
# other workloads time for runs long enough to be steady on a noisy shared
# machine.
CONFIG = HERE / "pipeline_config.json"
REFERENCE = HERE / "reference.json"
SCRATCH = ROOT / ".perfbench"
DEFAULT_SEED = 0
REL_TOL = 1e-9
LEVEL_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"
STAGES = ("validate", "build-pool", "train", "meta-train", "evaluate", "tradeoff", "report")
TRAIN_SEEDS_PER_PASS = 10
REPLAY_REQUESTS_PER_PASS = 32
REPLAY_SCENARIOS = 8
# Eight customers, so that the pool's 6 to 8 storage customers per scenario
# split the requests 1:2:1 into three cost levels. With the example's four,
# half the scenarios have 3 and half 4, and the median request fell in the gap
# between the two levels, where the slowest cheap request decided it.
REPLAY_CUSTOMERS = 8
REPLAY_PRICE_RANGE = (0.0, 0.5)
MAX_PROBLEMS_PER_OP = 5

clock = time.perf_counter


@dataclass
class Op:
    name: str
    seconds: float
    problems: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    wall: float
    ops: list[Op]
    observed: dict
    # Request latencies; by default every operation is a request.
    latencies: list[float] | None = None

    def __post_init__(self):
        if self.latencies is None:
            self.latencies = [op.seconds for op in self.ops]


# -- shared inputs -----------------------------------------------------------


def load_example_config():
    return config.load_config(CONFIG)


def example_pools(cfg):
    """Training and held-out pools, swept together exactly as the CLI does."""
    total = cfg.pool.n_scenarios + cfg.meta.heldout_scenarios
    scenarios = pool.build_scenario_pool(replace(cfg.pool, n_scenarios=total), cfg.pool_base_seed)
    return scenarios[: cfg.pool.n_scenarios], scenarios[cfg.pool.n_scenarios :]


def agent_grid(cfg) -> PriceGrid:
    return PriceGrid.uniform(cfg.agent.p_min, cfg.agent.p_max, cfg.agent.levels)


def train_config(cfg) -> training.TrainConfig:
    agent = cfg.agent
    return training.TrainConfig(
        episodes=agent.episodes,
        lr=agent.lr,
        gamma=agent.gamma,
        epsilon_start=agent.epsilon_start,
        epsilon_end=agent.epsilon_end,
        warmup_steps=agent.warmup_steps,
        weights=cfg.reward_weights,
        r1_mode=cfg.r1_mode,
    )


def first_train_seed(seeds_per_block: int, seed: int) -> int:
    """Benchmark seed s owns training seeds n*s+1 .. n*s+n, so seed 0 trains
    1..n like the example config's train_seed = 1."""
    return seeds_per_block * seed + 1


def training_steps(cfg) -> int:
    """Env steps of one train_policy call plus its greedy evaluation episode."""
    length = cfg.pool.episode_length
    return (cfg.agent.warmup_steps - 1) + cfg.agent.episodes * length + length


# -- checks ------------------------------------------------------------------


def close(a, b) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b:
            return True
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    return a == b


def compare(observed, reference, label: str) -> list[str]:
    """Differences between two JSON-shaped values: numbers within REL_TOL
    relative, everything else (strings, level sequences) exact."""
    if isinstance(reference, dict) and isinstance(observed, dict):
        if observed.keys() != reference.keys():
            return [f"{label}: keys differ from the reference"]
        problems = []
        for key in reference:
            problems += compare(observed[key], reference[key], f"{label}.{key}")
        return problems
    if isinstance(reference, list) and isinstance(observed, list):
        if len(observed) != len(reference):
            return [f"{label}: length {len(observed)} != reference {len(reference)}"]
        problems = []
        for i, (o, r) in enumerate(zip(observed, reference)):
            problems += compare(o, r, f"{label}[{i}]")
        return problems
    if not close(observed, reference):
        return [f"{label}: {observed!r} != reference {reference!r}"]
    return []


def finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def level_string(prices, grid: PriceGrid) -> str:
    """Greedy price sequence as grid-level characters; '?' marks an off-grid price."""
    index = {level: i for i, level in enumerate(grid.levels)}
    return "".join(LEVEL_CHARS[index[p]] if p in index else "?" for p in prices)


def record_problems(record, length: int, alpha1: float, alpha2: float) -> list[str]:
    """Invariants of one evaluated episode."""
    problems = []
    if len(record.steps) != length:
        problems.append(f"episode has {len(record.steps)} steps, expected {length}")
    sum_r1 = sum(s.r1 for s in record.steps)
    sum_r2 = sum(s.r2 for s in record.steps)
    total = sum(s.total for s in record.steps)
    if not finite(sum_r1, sum_r2, total):
        problems.append("non-finite episode return")
    elif sum_r2 > 0.0:
        problems.append(f"sum r2 = {sum_r2} > 0")
    elif not close(total, alpha1 * sum_r1 + alpha2 * sum_r2):
        problems.append("episode total is not alpha1*r1 + alpha2*r2")
    return problems


def run_op(name: str, fn):
    """Time one operation; an exception fails the operation, not the pass."""
    op = Op(name, 0.0)
    start = clock()
    try:
        value = fn()
    except Exception:
        value = None
        op.problems.append(traceback.format_exc(limit=4))
    op.seconds = clock() - start
    return op, value


# -- train-seeds -------------------------------------------------------------


class TrainSeeds:
    """One block of training seeds on training-pool scenario 0.

    The agent and the env step dominate; there is no meta-learning and the
    per-env DP cache already hits, so batched stepping and precomputed
    features should move it while a shared DP table should not.
    """

    name = "train-seeds"
    present = {
        "training.train_policy", "training.collect_rollout_features",
        "training.learn_on_env", "training.run_greedy_episode",
        "env.instances", "env.reset", "env.step",
        "customers.storage_demand", "customers.elastic_demand",
        "customers.cooperative_adjustment", "model.build_state_window",
        "model.encode_temporal", "model.renewable_generation",
        "agent.featurize", "agent.select_action", "agent.td_update",
        "reward.breakdown", "telemetry.objective_returns",
    }

    def __init__(self, seed: int):
        self.cfg = load_example_config()
        train_pool, _ = example_pools(self.cfg)
        self.scenario = train_pool[self.cfg.agent.scenario_index]
        self.grid = agent_grid(self.cfg)
        self.tc = train_config(self.cfg)
        first = first_train_seed(TRAIN_SEEDS_PER_PASS, seed)
        self.seeds = list(range(first, first + TRAIN_SEEDS_PER_PASS))
        self.steps_per_pass = len(self.seeds) * training_steps(self.cfg)

    def _one(self, seed: int):
        result = training.train_policy(self.scenario, self.grid, self.tc, seed)
        record = training.run_greedy_episode(
            self.scenario, result.params, self.grid, self.tc.weights, self.tc.r1_mode
        )
        return result, record, telemetry.objective_returns(record)

    def run_pass(self, reference: dict | None) -> PassResult:
        start = clock()
        runs = [(s, *run_op(f"seed {s}", lambda s=s: self._one(s))) for s in self.seeds]
        wall = clock() - start

        observed = {}
        for seed, op, value in runs:
            if value is None:
                continue
            result, record, (sum_r1, sum_r2, total) = value
            obs = {
                "episode_returns": list(result.episode_returns),
                "sum_r1": sum_r1,
                "sum_r2": sum_r2,
                "total": total,
                "levels": level_string([s.price for s in record.steps], self.grid),
            }
            if len(obs["episode_returns"]) != self.tc.episodes or not finite(*obs["episode_returns"]):
                op.problems.append("training returns are not one finite value per episode")
            if "?" in obs["levels"]:
                op.problems.append("greedy price off the agent grid")
            op.problems += record_problems(
                record, self.scenario.episode_length, self.tc.weights.alpha1, self.tc.weights.alpha2
            )
            if reference is not None:
                op.problems += compare(obs, reference.get(str(seed)), f"seed {seed}")
            observed[str(seed)] = obs
        return PassResult(wall, [op for _, op, _ in runs], observed)

    def calibrate(self, reference) -> PassResult:
        """The untraced pass a traced pass is compared with."""
        return self.run_pass(reference)

    def cross_check(self, tr: Tracer) -> list[str]:
        length = self.scenario.episode_length
        expected = {
            "agent.td_update": len(self.seeds) * self.tc.episodes * length,
            "env.step": self.steps_per_pass,
        }
        return [
            f"traced {span}.calls = {tr.calls(span)}, analytic value {value}"
            for span, value in expected.items()
            if tr.calls(span) != value
        ]


# -- price-replay ------------------------------------------------------------


class PriceReplay:
    """What-if requests: one continuous random price schedule each.

    Prices are drawn on [0, 0.5] against the example band [0.05, 0.45], so
    in-band prices are off the price grid and no grid-indexed table or cache
    can serve their DP solves; storage-heavy scenarios run a peak-weighted
    capped DP on every storage step. It guards the fallback path. Only the
    ~20% of prices clamped to a band edge (a grid level) can repeat a solve.
    Every pass draws fresh requests, so nothing carries over between passes.
    """

    name = "price-replay"
    present = {
        "training.evaluate_price_sequence",
        "env.instances", "env.reset", "env.step",
        "customers.storage_demand", "customers.elastic_demand",
        "customers.cooperative_adjustment", "model.build_state_window",
        "model.encode_temporal", "model.renewable_generation",
        "reward.breakdown", "telemetry.objective_returns",
        "telemetry.alignment_metrics", "telemetry.summarize_violations",
    }

    def __init__(self, seed: int):
        self.cfg = load_example_config()
        replay_pool = replace(
            self.cfg.pool,
            n_scenarios=REPLAY_SCENARIOS,
            customer_count=REPLAY_CUSTOMERS,
            storage_fraction=(0.75, 1.0),
            cooperative_fraction=(0.25, 0.75),
            soc_levels=3,
        )
        self.pool = pool.build_scenario_pool(replay_pool, self.cfg.pool_base_seed)
        self.grid = agent_grid(self.cfg)
        self.seed = seed
        self.steps_per_pass = REPLAY_REQUESTS_PER_PASS * self.cfg.pool.episode_length
        self.passes_run = 0
        self.out_of_band = 0  # out-of-band prices in the last pass

    def requests_for(self, index: int) -> list[tuple[int, list[float]]]:
        """Pass `index`'s requests: scenarios in rotation (each equally often),
        fresh prices."""
        rng = np.random.default_rng([self.seed, index])
        length = self.cfg.pool.episode_length
        return [
            (i % len(self.pool), rng.uniform(*REPLAY_PRICE_RANGE, size=length).tolist())
            for i in range(REPLAY_REQUESTS_PER_PASS)
        ]

    def _one(self, scenario_index: int, prices: list[float]):
        record, log = training.evaluate_price_sequence(
            self.pool[scenario_index], prices, self.grid, self.cfg.reward_weights, self.cfg.r1_mode
        )
        return (
            record,
            telemetry.summarize_violations(log),
            telemetry.alignment_metrics(record),
            telemetry.objective_returns(record),
        )

    def run_pass(self, reference: dict | None) -> PassResult:
        index = self.passes_run
        self.passes_run += 1
        requests = self.requests_for(index)
        self.out_of_band = sum(
            1 for _, prices in requests for p in prices if p < self.grid.p_min or p > self.grid.p_max
        )
        if index > 0:
            reference = None  # recorded for the first pass only
        start = clock()
        runs = [run_op(f"request {i}", lambda r=r: self._one(*r)) for i, r in enumerate(requests)]
        wall = clock() - start

        observed = []
        p_min, p_max = self.grid.p_min, self.grid.p_max
        weights = self.cfg.reward_weights
        for i, ((op, value), (_, prices)) in enumerate(zip(runs, requests)):
            if value is None:
                observed.append(None)
                continue
            record, summary, align, (sum_r1, sum_r2, total) = value
            clamped = [min(max(p, p_min), p_max) for p in prices]
            lower = sum(1 for p in prices if p < p_min)
            upper = sum(1 for p in prices if p > p_max)
            if [s.price for s in record.steps] != clamped[: len(record.steps)]:
                op.problems.append("episode did not run on the clamped prices")
            if (summary.count, summary.lower_count, summary.upper_count) != (lower + upper, lower, upper):
                op.problems.append(
                    f"violations {summary.count} (lower {summary.lower_count}, upper "
                    f"{summary.upper_count}) != out-of-band prices {lower + upper} ({lower}, {upper})"
                )
            op.problems += record_problems(record, len(prices), weights.alpha1, weights.alpha2)
            if not finite(align.rmse) or not close(align.rmse, math.sqrt(-sum_r2 / len(prices))):
                op.problems.append("rmse does not match the mismatch return")
            if align.pearson_r is not None and not -1.0 - 1e-12 <= align.pearson_r <= 1.0 + 1e-12:
                op.problems.append(f"pearson r {align.pearson_r} outside [-1, 1]")
            obs = [sum_r1, sum_r2, total, align.rmse, align.pearson_r, summary.count]
            if reference is not None:
                op.problems += compare(obs, reference["requests"][i], f"request {i}")
            observed.append(obs)
        return PassResult(wall, [op for op, _ in runs], {"requests": observed})

    def calibrate(self, reference) -> PassResult:
        p = self.run_pass(reference)
        self.passes_run = 0  # the traced pass replays the same requests
        return p

    def cross_check(self, tr: Tracer) -> list[str]:
        got = tr.counters["telemetry.violations"]
        if got != self.out_of_band:
            return [f"traced telemetry.violations = {got}, out-of-band prices {self.out_of_band}"]
        return []


# -- pipeline ----------------------------------------------------------------


def _handler(stage: str) -> str:
    return "cmd_" + stage.replace("-", "_")


def stage_span(stage: str) -> str:
    return "cli." + stage.replace("-", "_")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}.{key}" if prefix else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _flatten(value, f"{prefix}.{i}")
    else:
        yield prefix, obj


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


class Pipeline:
    """``voltmarket run --config pipeline_config.json`` (the example with three
    seeds) into a fresh output directory.

    Meta-training is most of it; it is the only workload that exercises the
    CLI, io and config layers and the per-stage pool rebuilds.
    """

    name = "pipeline"
    # JSON/CSV artifacts whose numbers are compared with the reference.
    NUMBERED = (
        "training_summary.json", "meta_history.json", "sample_efficiency.json",
        "eval_summary.json", "violations.json", "summary.json", "tradeoff.csv",
    )

    def __init__(self, seed: int):
        self.cfg = load_example_config()
        example_pools(self.cfg)  # discarded: the run builds its own, but set-up measures this
        self.train_seed = first_train_seed(self.cfg.n_seeds, seed)
        self.grid = agent_grid(self.cfg)
        self.files = self._expected_files()
        self.steps_per_pass = self._analytic_env_steps()

    @property
    def present(self) -> set[str]:
        return {t.span for t in layer_targets()} - {"training.evaluate_price_sequence"}

    def _expected_files(self) -> dict[str, str]:
        """Every file the run writes, mapped to the last stage that writes it."""
        cfg = self.cfg
        files = {"pool.json": "build-pool"}
        for name in ("policy.json", "training_summary.json"):
            files[name] = "train"
        for i in range(cfg.n_seeds):
            files[f"episodes/train_scenario{cfg.agent.scenario_index}_seed{self.train_seed + i}.csv"] = "train"
        for name in ("policy_meta.json", "meta_history.json", "sample_efficiency.json", "sample_efficiency.csv"):
            files[name] = "meta-train"
        for name in ("violations.json", "eval_summary.json"):
            files[name] = "evaluate"
        for i in range(cfg.pool.n_scenarios):
            files[f"episodes/eval_scenario{i}.csv"] = "evaluate"
        files["tradeoff.csv"] = "tradeoff"
        for name in ("summary.json", "summary.csv"):
            files[name] = "report"
        return files

    def _checkpoints(self) -> list[int]:
        meta = self.cfg.meta
        if meta.curve_points <= 0:
            return []
        k = meta.adapt_steps
        return sorted({round(k * j / meta.curve_points) for j in range(meta.curve_points + 1)})

    def _analytic_env_steps(self) -> int:
        """Env steps the example run performs, derived from the config.

        This is the numerator of env_steps_per_s: it is fixed by the inputs,
        so a change that skips redundant steps does not lower the rate. It
        assumes meta-training runs all iterations (the example's threshold of
        1e18 is never reached; the checks confirm it).
        """
        cfg = self.cfg
        meta = cfg.meta.config
        length = cfg.pool.episode_length
        warm = cfg.agent.warmup_steps - 1
        train = cfg.n_seeds * training_steps(cfg)
        meta_warm = min(3, cfg.pool.n_scenarios) * warm
        meta_train = meta.meta_iterations * meta.tasks_per_iteration * (meta.inner_steps + length)
        points = self._checkpoints()
        per_adaptation = (
            cfg.meta.adapt_steps + length + sum(c for c in points if c > 0) + len(points) * length
        )
        heldout = cfg.meta.heldout_scenarios * cfg.n_seeds * 2 * per_adaptation
        evaluate = cfg.pool.n_scenarios * length
        tradeoff = len(cfg.tradeoff_bands) * training_steps(cfg)
        return train + meta_warm + meta_train + heldout + evaluate + tradeoff

    def _run(self, argv: list[str]) -> tuple[int | None, str | None]:
        try:
            with contextlib.redirect_stdout(sys.stderr):
                return cli.main(argv), None
        except Exception:
            return None, traceback.format_exc(limit=6)

    def _fresh_dir(self) -> Path:
        SCRATCH.mkdir(exist_ok=True)
        return Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))

    def run_pass(self, reference: dict | None) -> PassResult:
        out = self._fresh_dir()
        try:
            return self._run_pass(out, reference)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _run_pass(self, out: Path, reference: dict | None) -> PassResult:
        codes: dict[str, object] = {}

        def remember(stage):
            return lambda _tr, _args, _kwargs, result: codes.__setitem__(stage, result)

        stages = Tracer()
        stages.install(
            [Target(stage_span(s), f"voltmarket.cli:{_handler(s)}", observe=remember(s)) for s in STAGES]
        )
        try:
            start = clock()
            status, crash = self._run(
                ["run", "--config", str(CONFIG), "--out", str(out), "--seed", str(self.train_seed)]
            )
            wall = clock() - start
        finally:
            stages.uninstall()

        ops = {s: Op(s, stages.total_s(stage_span(s))) for s in STAGES}
        for s in STAGES:
            if s not in codes:
                ops[s].problems.append("stage did not complete")
            elif codes[s] != 0:
                ops[s].problems.append(f"stage returned {codes[s]}")
        if crash:
            ops[STAGES[-1]].problems.append(crash)
        elif status != 0:
            ops[STAGES[-1]].problems.append(f"run returned {status}")

        observed: dict = {}
        if not any(op.problems for op in ops.values()):
            try:
                observed = self._check_outputs(out, ops, reference)
            except Exception:
                ops[STAGES[-1]].problems.append(traceback.format_exc(limit=4))
        # The client's request is the whole `run`; its stages are the operations.
        return PassResult(wall, list(ops.values()), observed, latencies=[wall])

    def _check_outputs(self, out: Path, ops: dict[str, Op], reference: dict | None) -> dict:
        cfg = self.cfg
        length = cfg.pool.episode_length

        def fail(stage, message):
            ops[stage].problems.append(message)

        written = {
            p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()
        } - {"manifest.json"}
        for name in sorted(set(self.files) - written):
            fail(self.files[name], f"missing {name}")
        for name in sorted(written - set(self.files)):
            fail("report", f"unexpected file {name}")
        manifest = json.loads((out / "manifest.json").read_text())["files"]
        if set(manifest) != written:
            fail("report", "manifest does not list exactly the files the run wrote")
        hashes = {name: _sha256(out / name) for name in sorted(written)}
        if any(manifest.get(name) != digest for name, digest in hashes.items()):
            fail("report", "manifest hash does not match file contents")

        # Greedy episodes: full length, on the agent grid, none out of band.
        levels = {}
        out_of_band = 0
        for name in sorted(n for n in written if n.startswith("episodes/")):
            rows = _csv_rows(out / name)
            prices = [float(r["price"]) for r in rows]
            out_of_band += sum(1 for p in prices if p < self.grid.p_min or p > self.grid.p_max)
            levels[name] = level_string(prices, self.grid)
            if len(rows) != length or "?" in levels[name]:
                fail(self.files.get(name, "report"), f"{name}: not {length} on-grid greedy prices")
            if any(float(r["r2"]) > 0.0 or not finite(float(r["total"])) for r in rows):
                fail(self.files.get(name, "report"), f"{name}: r2 > 0 or non-finite total")
        violations = json.loads((out / "violations.json").read_text())["summary"]["count"]
        if violations != out_of_band:
            fail("evaluate", f"violations {violations} != out-of-band prices {out_of_band}")

        summary = json.loads((out / "training_summary.json").read_text())
        seeds = [row["seed"] for row in summary["per_seed"]]
        if seeds != [self.train_seed + i for i in range(cfg.n_seeds)]:
            fail("train", f"trained seeds {seeds}")
        for row in summary["per_seed"]:
            if len(row["episode_returns"]) != cfg.agent.episodes or not finite(
                *row["episode_returns"], row["eval_return"], row["eval_sum_r1"], row["eval_sum_r2"]
            ) or row["eval_sum_r2"] > 0.0:
                fail("train", f"seed {row['seed']}: bad training returns")

        history = json.loads((out / "meta_history.json").read_text())
        if history["iterations_run"] != cfg.meta.config.meta_iterations or not finite(
            *history["eval_returns"]
        ):
            fail("meta-train", f"meta history {history['stop_reason']} after {history['iterations_run']}")
        efficiency = json.loads((out / "sample_efficiency.json").read_text())
        heldout = cfg.meta.heldout_scenarios
        if len(efficiency["entries"]) != heldout * cfg.n_seeds or not finite(
            *(e[k] for e in efficiency["entries"] for k in ("meta_return", "baseline_return"))
        ):
            fail("meta-train", "held-out entries missing or non-finite")
        points = self._checkpoints()
        if len(efficiency["curves"]) != (heldout if points else 0) or any(
            c["steps"] != points or not finite(*c["meta_returns"], *c["baseline_returns"])
            for c in efficiency["curves"]
        ):
            fail("meta-train", "adaptation curves missing or non-finite")

        evaluation = json.loads((out / "eval_summary.json").read_text())["scenarios"]
        if len(evaluation) != cfg.pool.n_scenarios or any(
            not finite(e["return"], e["sum_r1"], e["sum_r2"]) or e["sum_r2"] > 0.0 for e in evaluation
        ):
            fail("evaluate", "evaluation returns missing, non-finite or r2 > 0")

        tradeoff = _csv_rows(out / "tradeoff.csv")
        bands = [(float(r["p_min"]), float(r["p_max"])) for r in tradeoff]
        if bands != [tuple(b) for b in cfg.tradeoff_bands] or any(
            not finite(float(r["mean_return"])) or float(r["mean_sum_r2"]) > 0.0 for r in tradeoff
        ):
            fail("tradeoff", "trade-off table does not match the bands or has bad returns")

        report = json.loads((out / "summary.json").read_text())["episodes"]
        episode_files = sorted(n for n in self.files if n.startswith("episodes/"))
        if sorted(row["source"] for row in report) != episode_files:
            fail("report", "report does not summarise exactly this run's episodes")

        numbers = {}
        for name in self.NUMBERED:
            if name.endswith(".csv"):
                doc = _csv_rows(out / name)
                doc = [{k: float(v) for k, v in row.items()} for row in doc]
            else:
                doc = json.loads((out / name).read_text())
            numbers[name] = dict(_flatten(doc))
        observed = {"numbers": numbers, "levels": levels, "manifest": hashes}
        if reference is not None:
            for name, ref in reference["numbers"].items():
                for problem in compare(numbers.get(name), ref, name)[:MAX_PROBLEMS_PER_OP]:
                    fail(self.files[name], problem)
            for name, ref in reference["levels"].items():
                if levels.get(name) != ref:
                    fail(self.files[name], f"{name}: greedy price sequence differs from the reference")
        return observed

    def calibrate(self, reference) -> PassResult:
        return self.run_pass(reference)

    def cross_check(self, tr: Tracer) -> list[str]:
        return []


WORKLOADS = {cls.name: cls for cls in (Pipeline, TrainSeeds, PriceReplay)}


def load_reference(name: str) -> dict:
    return json.loads(REFERENCE.read_text())[name]


# -- per-layer targets and metrics ---------------------------------------------


def _dp_input(spec, price_window, baseline_window, soc):
    battery = spec.battery
    return (
        battery.capacity, battery.max_charge_rate, battery.max_discharge_rate,
        battery.charge_efficiency, battery.discharge_efficiency,
        spec.peak_weight, spec.soc_levels, float(soc),
        np.asarray(price_window, dtype=float).tobytes(),
        np.asarray(baseline_window, dtype=float).tobytes(),
    )


def _count_adapt_steps(tr: Tracer, args, kwargs, _result) -> None:
    tr.counters["meta.adapt.steps"] += kwargs["k_steps"] if "k_steps" in kwargs else args[2]


def _count_violations(tr: Tracer, _args, _kwargs, result) -> None:
    tr.counters["telemetry.violations"] += result.count


def layer_targets() -> list[Target]:
    solved = set()

    def count_dp_repeat(tr: Tracer, args, kwargs, _result) -> None:
        # A repeat is a solve whose full input (customer, baseline window,
        # which fixes t, soc and price window) was already solved in this pass.
        key = _dp_input(*args, **kwargs)
        if key in solved:
            tr.counters["customers.dp_repeats"] += 1
        else:
            solved.add(key)

    targets = [Target(stage_span(s), f"voltmarket.cli:{_handler(s)}") for s in STAGES]
    spec = [
        ("pool.build_scenario_pool", "voltmarket.pool:build_scenario_pool", True, None),
        ("io.write_manifest", "voltmarket.io:ArtifactWriter.write_manifest", True, None),
        ("io.file_sha256", "voltmarket.io:file_sha256", False, None),
        ("meta.meta_train", "voltmarket.meta:meta_train", True, None),
        ("meta.evaluate_adaptation", "voltmarket.meta:evaluate_adaptation", True, None),
        ("meta.adapt", "voltmarket.meta:adapt", True, _count_adapt_steps),
        ("training.train_policy", "voltmarket.training:train_policy", True, None),
        ("training.train_constraint_family", "voltmarket.training:train_constraint_family", True, None),
        ("training.collect_rollout_features", "voltmarket.training:collect_rollout_features", True, None),
        ("training.learn_on_env", "voltmarket.training:learn_on_env", True, None),
        ("training.run_greedy_episode", "voltmarket.training:run_greedy_episode", True, None),
        ("training.evaluate_price_sequence", "voltmarket.training:evaluate_price_sequence", True, None),
        ("env.instances", "voltmarket.env:GridEnv.__init__", False, None),
        ("env.reset", "voltmarket.env:GridEnv.reset", True, None),
        ("env.step", "voltmarket.env:GridEnv.step", True, None),
        ("customers.storage_demand", "voltmarket.customers:storage_demand", True, count_dp_repeat),
        ("customers.elastic_demand", "voltmarket.customers:elastic_demand", True, None),
        ("customers.cooperative_adjustment", "voltmarket.customers:cooperative_adjustment", True, None),
        ("model.build_state_window", "voltmarket.model:build_state_window", True, None),
        ("model.encode_temporal", "voltmarket.model:encode_temporal", False, None),
        ("model.renewable_generation", "voltmarket.model:renewable_generation", False, None),
        ("agent.featurize", "voltmarket.agent:featurize", True, None),
        ("agent.select_action", "voltmarket.agent:select_action", True, None),
        ("agent.td_update", "voltmarket.agent:td_update", True, None),
        ("reward.breakdown", "voltmarket.reward:breakdown", True, None),
        ("telemetry.objective_returns", "voltmarket.telemetry:objective_returns", True, None),
        ("telemetry.alignment_metrics", "voltmarket.telemetry:alignment_metrics", True, None),
        ("telemetry.summarize_violations", "voltmarket.telemetry:summarize_violations", True, _count_violations),
    ]
    return targets + [Target(span, where, timed, observe) for span, where, timed, observe in spec]


def layer_metrics(tr: Tracer, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    dp_calls = tr.calls("customers.storage_demand")
    metrics = {stage_span(s) + "_s": (tr.total_s(stage_span(s)), "s") for s in STAGES}
    metrics.update({
        "customers.storage_demand.calls": (dp_calls, "count"),
        "customers.storage_demand.s": (tr.total_s("customers.storage_demand"), "s"),
        "customers.dp_repeat_frac": (
            tr.counters["customers.dp_repeats"] / dp_calls if dp_calls else 0.0, "frac"
        ),
        "customers.elastic_demand.calls": (tr.calls("customers.elastic_demand"), "count"),
        "customers.elastic_demand.s": (tr.total_s("customers.elastic_demand"), "s"),
        "customers.cooperative_adjustment.s": (tr.total_s("customers.cooperative_adjustment"), "s"),
        "meta.meta_train.s": (tr.total_s("meta.meta_train"), "s"),
        "meta.evaluate_adaptation.s": (tr.total_s("meta.evaluate_adaptation"), "s"),
        "meta.adapt.calls": (tr.calls("meta.adapt"), "count"),
        "meta.adapt.steps": (tr.counters["meta.adapt.steps"], "count"),
        "meta.adapt.s": (tr.total_s("meta.adapt"), "s"),
        "env.instances": (tr.calls("env.instances"), "count"),
        "env.step.calls": (tr.calls("env.step"), "count"),
        "env.step.self_s": (tr.self_s("env.step"), "s"),
        "env.reset.calls": (tr.calls("env.reset"), "count"),
        "model.build_state_window.calls": (tr.calls("model.build_state_window"), "count"),
        "model.build_state_window.s": (tr.total_s("model.build_state_window"), "s"),
        "model.encode_temporal.calls": (tr.calls("model.encode_temporal"), "count"),
        "model.renewable_generation.calls": (tr.calls("model.renewable_generation"), "count"),
        "agent.featurize.calls": (tr.calls("agent.featurize"), "count"),
        "agent.featurize.s": (tr.total_s("agent.featurize"), "s"),
        "agent.select_action.s": (tr.total_s("agent.select_action"), "s"),
        "agent.td_update.calls": (tr.calls("agent.td_update"), "count"),
        "agent.td_update.s": (tr.total_s("agent.td_update"), "s"),
        "reward.breakdown.s": (tr.total_s("reward.breakdown"), "s"),
        "telemetry.objective_returns.s": (tr.total_s("telemetry.objective_returns"), "s"),
        "telemetry.alignment_metrics.s": (tr.total_s("telemetry.alignment_metrics"), "s"),
        "telemetry.violations": (tr.counters["telemetry.violations"], "count"),
        "training.learn_on_env.s": (tr.total_s("training.learn_on_env"), "s"),
        "training.run_greedy_episode.calls": (tr.calls("training.run_greedy_episode"), "count"),
        "training.run_greedy_episode.s": (tr.total_s("training.run_greedy_episode"), "s"),
        "training.collect_rollout_features.s": (tr.total_s("training.collect_rollout_features"), "s"),
        "training.train_constraint_family.s": (tr.total_s("training.train_constraint_family"), "s"),
        "pool.build_scenario_pool.calls": (tr.calls("pool.build_scenario_pool"), "count"),
        "pool.build_scenario_pool.s": (tr.total_s("pool.build_scenario_pool"), "s"),
        "io.write_manifest.calls": (tr.calls("io.write_manifest"), "count"),
        "io.write_manifest.s": (tr.total_s("io.write_manifest"), "s"),
        "io.files_hashed": (tr.calls("io.file_sha256"), "count"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    })
    return metrics


def silent_layers(tr: Tracer, present: set[str]) -> list[str]:
    """Layers the workload must reach that no traced call reached."""
    known = {t.span for t in layer_targets()}
    problems = [f"{span}: not an instrumented layer" for span in sorted(present - known)]
    problems += [f"{span}: wrapped but read zero calls" for span in sorted(present & known) if not tr.calls(span)]
    return problems
