"""Record ``reference.json``: every workload's outputs at the default seed.

Run it only on a commit whose outputs are the accepted baseline; the
benchmark then checks default-seed runs against these values (numbers within
1e-9 relative, greedy price sequences exactly).

    python3 perfbench/record_reference.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        result = cls(workloads.DEFAULT_SEED).run_pass(None)
        problems = [f"{op.name}: {p}" for op in result.ops for p in op.problems]
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        reference[name] = result.observed
    workloads.REFERENCE.write_text(json.dumps(reference, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
