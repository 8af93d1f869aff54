"""Print every end-to-end metric of every workload, by name and unit.

    python3 perfbench/report.py

Runs ``run.py --trace 0`` once per workload at full size, seed 1 and the
``run_seconds`` of BENCHMARK.json, each in its own process, and prints one
line per metric plus the workload's ``fail_ratio``.  Exits 1 if any output
check failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_correct = True
    print(f"{'workload':<16} {'metric':<12} {'value':>12}  unit")
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(SEED), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(f"{workload}: benchmark exited {proc.returncode}\n{proc.stderr[-2000:]}")
            all_correct = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            print(f"{workload:<16} {name:<12} {m['value']:>12.6g}  {m['unit']}")
        ratio = result["failed"] / result["attempted"]
        print(f"{workload:<16} {'fail_ratio':<12} {ratio:>12.6g}  ratio "
              f"({result['failed']} of {result['attempted']} ops)")
        all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
