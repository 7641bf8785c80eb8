"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is importing voltmarket (and numpy with it), loading the config and
building the workload's scenario pool and inputs. Prints the seconds taken.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import voltmarket  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(time.perf_counter() - start)
