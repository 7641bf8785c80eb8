"""Replay the battery-DP solves of one benchmark pass, untraced.

    python3 tools/dp_replay.py --workload <pipeline|train-seeds|price-replay> \
        [--seed <n>] [--check]

Run from the root of a source checkout. It runs one pass of the named
perfbench workload with ``customers.storage_demand`` wrapped, records every
call's inputs, then replays them and prints:

- ``solves``: the number of recorded ``storage_demand`` calls;
- ``sweeps_per_solve``: ``customers._solve_capped`` calls per solve;
- ``us_per_solve``: best of three timed replays of every solve, in µs;
- with ``--check``, ``mismatches``: solves whose whole plan differs from
  ``tests/helpers.reference_schedule``, the exhaustive ascending cap sweep,
  in a move's next SOC index, its battery delta or its grid draw, the
  latter checked against ``tests/helpers.oracle_draw``.

It imports the workloads and the tracer from ``perfbench/`` and changes
nothing there.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from voltmarket import customers  # noqa: E402

REPEATS = 3


def record(workload: str, seed: int) -> list[tuple]:
    """(spec, price_window, baseline_window, soc) of every storage_demand
    call in one pass of the workload."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from tracer import Target, Tracer

    solves: list[tuple] = []

    def inputs(spec, price_window, baseline_window, soc) -> tuple:
        return spec, tuple(price_window), tuple(baseline_window), soc

    def remember(_tr, args, kwargs, _result) -> None:
        solves.append(inputs(*args, **kwargs))

    wl = workloads.WORKLOADS[workload](seed)
    tracer = Tracer()
    tracer.install([Target("dp", "voltmarket.customers:storage_demand", False, remember)])
    try:
        wl.run_pass(None)
    finally:
        tracer.uninstall()
    return solves


def replay(solves: list[tuple], check: bool = False) -> dict:
    """Sweep count, best-of-three µs per solve and, with check, the number
    of plans whose moves differ from the reference sweep's."""
    solve = customers._solve_capped
    sweeps = 0

    def counting(*args):
        nonlocal sweeps
        sweeps += 1
        return solve(*args)

    customers._solve_capped = counting
    try:
        for args in solves:
            customers.storage_demand(*args)
    finally:
        customers._solve_capped = solve

    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for args in solves:
            customers.storage_demand(*args)
        best = min(best, time.perf_counter() - start)

    n = len(solves)
    result = {
        "solves": n,
        "sweeps_per_solve": sweeps / n if n else 0.0,
        "us_per_solve": 1e6 * best / n if n else 0.0,
    }
    if check:
        from tests.helpers import oracle_draw, reference_schedule

        mismatches = 0
        for spec, prices, baselines, soc in solves:
            battery = replace(spec.battery, soc=soc)
            deltas, indices = reference_schedule(
                prices, baselines, battery, spec.soc_levels, spec.peak_weight
            )
            expected = [
                (j, delta, oracle_draw(battery, baseline, delta))
                for j, delta, baseline in zip(indices.tolist(), deltas.tolist(), baselines)
            ]
            plan, _ = customers._schedule(
                prices, baselines, spec.battery, soc, spec.soc_levels, spec.peak_weight
            )
            if plan != expected:
                mismatches += 1
        result["mismatches"] = mismatches
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    result = replay(record(args.workload, args.seed), check=args.check)
    for key, value in result.items():
        print(f"{key}: {value:.5g}" if isinstance(value, float) else f"{key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
