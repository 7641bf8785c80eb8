import importlib.util
import random
from pathlib import Path

from .helpers import make_battery, storage_spec

TOOL = Path(__file__).resolve().parent.parent / "tools" / "dp_replay.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("dp_replay", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replays_synthetic_solves_against_the_reference():
    dp_replay = _load_tool()
    rnd = random.Random(5)
    solves = []
    for peak_weight in (0.0, 0.5, 1.0):
        spec = storage_spec((1.0,) * 3, make_battery(capacity=2.0, rate=1.0), peak_weight=peak_weight)
        for _ in range(4):
            prices = tuple(rnd.uniform(0.0, 0.5) for _ in range(3))
            baselines = tuple(rnd.uniform(0.0, 3.0) for _ in range(3))
            solves.append((spec, prices, baselines, rnd.choice([0.0, 1.0, 2.0])))

    result = dp_replay.replay(solves, check=True)
    assert result["solves"] == 12
    assert result["sweeps_per_solve"] >= 1.0
    assert result["us_per_solve"] > 0.0
    assert result["mismatches"] == 0
