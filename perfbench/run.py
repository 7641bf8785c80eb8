"""voltmarket benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from ``src/``.
Workloads are listed in ``BENCHMARK.json`` and defined in ``workloads.py``.

``--trace 0`` runs whole passes of the workload until ``--seconds`` have
passed (at least one) and reports the end-to-end metrics. ``--trace 1`` runs
one untraced pass, then the same work traced, and reports the per-layer
metrics. Either way every operation's outputs are checked. The last
line of standard output is the result object; the line before it holds
details (environment, sample counts, problems, and the span profile).
"""

import os

# Single-threaded BLAS, set before numpy is imported, and no worker threads.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("VOLTMARKET_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Cold set-ups per run, half before the passes and half after, so that the
# median spans more than one stretch of the machine's load.
SETUP_SAMPLES = 10
SETUP_TIMEOUT_S = 60
MAX_REPORTED_PROBLEMS = 20


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def setup_seconds(workload: str, seed: int, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return samples


def untraced(wl, reference, seconds: float, info: dict):
    setup = setup_seconds(wl.name, info["seed"], SETUP_SAMPLES // 2)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(wl.run_pass(reference))
    setup += setup_seconds(wl.name, info["seed"], SETUP_SAMPLES - SETUP_SAMPLES // 2)
    walls = [p.wall for p in passes]
    # Mean over the whole run: this machine's slow spells last seconds to
    # minutes, and every second measured averages more of them out than a
    # median of a few passes does.
    wall = statistics.fmean(walls)
    latencies = [t for p in passes for t in p.latencies]
    info.update(
        passes=len(passes),
        pass_wall_s=walls,
        request_samples=len(latencies),
        setup_samples_s=setup,
        steps_per_pass=wl.steps_per_pass,
    )
    if wl.name == "pipeline" and reference is not None:
        hashes = passes[-1].observed.get("manifest", {})
        same = sum(1 for name, digest in reference["manifest"].items() if hashes.get(name) == digest)
        info["manifest_identical_files"] = [same, len(reference["manifest"])]
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "env_steps_per_s": (wl.steps_per_pass / wall, "1/s"),
        "request_p50_ms": (1000.0 * percentile(latencies, 50), "ms"),
        "request_p90_ms": (1000.0 * percentile(latencies, 90), "ms"),
    }
    return [op for p in passes for op in p.ops], [], metrics


def traced(wl, reference, info: dict):
    import workloads
    from tracer import Tracer

    untraced_pass = wl.calibrate(reference)
    tracer = Tracer()
    tracer.install(workloads.layer_targets())
    try:
        result = wl.run_pass(reference)
    finally:
        tracer.uninstall()
    problems = wl.cross_check(tracer) + workloads.silent_layers(tracer, wl.present)
    info.update(
        untraced_s=untraced_pass.wall,
        traced_s=result.wall,
        analytic_env_steps=wl.steps_per_pass,
        bindings=tracer.bindings,
        profile=tracer.profile(),
    )
    metrics = workloads.layer_metrics(tracer, result.wall / untraced_pass.wall)
    return untraced_pass.ops + result.ops, problems, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "voltmarket" / "__init__.py").is_file():
        print(f"perfbench: no voltmarket sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    import voltmarket
    import workloads

    if not Path(voltmarket.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: voltmarket imported from {voltmarket.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    wl = workloads.WORKLOADS[args.workload](args.seed)
    reference = workloads.load_reference(args.workload) if args.seed == workloads.DEFAULT_SEED else None
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "reference_checked": reference is not None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "VOLTMARKET_THREADS")},
    }
    if args.trace:
        ops, problems, metrics = traced(wl, reference, info)
    else:
        ops, problems, metrics = untraced(wl, reference, args.seconds, info)

    failed = [op for op in ops if op.problems]
    problems += [f"{op.name}: {p}" for op in failed for p in op.problems]
    info["ops_failed_frac"] = len(failed) / len(ops)
    info["problems"] = problems[:MAX_REPORTED_PROBLEMS]
    for problem in problems[:MAX_REPORTED_PROBLEMS]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
