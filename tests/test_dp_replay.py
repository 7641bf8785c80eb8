import importlib.util
import random
from pathlib import Path

from voltmarket import customers

from .helpers import make_battery, storage_spec

TOOL = Path(__file__).resolve().parent.parent / "tools" / "dp_replay.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("dp_replay", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _synthetic_solves():
    rnd = random.Random(5)
    solves = []
    for peak_weight in (0.0, 0.5, 1.0):
        spec = storage_spec((1.0,) * 3, make_battery(capacity=2.0, rate=1.0), peak_weight=peak_weight)
        for _ in range(4):
            prices = tuple(rnd.uniform(0.0, 0.5) for _ in range(3))
            baselines = tuple(rnd.uniform(0.0, 3.0) for _ in range(3))
            solves.append((spec, prices, baselines, rnd.choice([0.0, 1.0, 2.0])))
    return solves


def test_replays_synthetic_solves_against_the_reference():
    result = _load_tool().replay(_synthetic_solves(), check=True)
    assert result["solves"] == 12
    assert result["sweeps_per_solve"] >= 1.0
    assert result["us_per_solve"] > 0.0
    assert result["mismatches"] == 0


def test_check_compares_each_moves_draw(monkeypatch):
    # Moves that keep their SOC index and delta but carry a wrong draw are
    # mismatches too.
    dp_replay = _load_tool()
    solve = customers._solve_capped

    def wrong_draws(*args):
        cost, plan, least_peak = solve(*args)
        return cost, [(j, delta, draw + 1.0) for j, delta, draw in plan], least_peak

    monkeypatch.setattr(customers, "_solve_capped", wrong_draws)
    assert dp_replay.replay(_synthetic_solves(), check=True)["mismatches"] == 12
