"""Self-test of the benchmark, every workload at its smallest size.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes under a minute.  It checks that

* every metric BENCHMARK.json names is emitted, with its unit, in both
  the untraced (end-to-end) and the traced (per-layer) run, and that no
  operation fails;
* the counts of the traced run (every per-layer metric that is not a time)
  repeat exactly across two runs with the same seed;
* another seed changes the input digests but not the operations per pass;
* in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.

Exits 1 and lists the failed checks if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "_work" / "results"
SEED, OTHER_SEED = 7, 8
# rewrites each trace-suite case draws (nuctrace.harness.REWRITE_STEPS)
REWRITE_STEPS = 10


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    def run(workload: str, seed: int, trace: int):
        proc = bench(workload, seed, trace)
        if proc.returncode != 0:
            check(False, f"{workload} seed {seed} trace {trace} exits 0")
            print(proc.stderr[-3000:])
            return None, None
        final = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads(
            (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
        wanted = spec["per_layer" if trace else "end_to_end"]
        label = f"{workload} seed {seed} trace {trace}"
        check(set(final) == {"correct", "attempted", "failed", "metrics"},
              f"{label}: result line has exactly the four keys")
        check(final["correct"] and final["failed"] == 0 and final["attempted"] > 0,
              f"{label}: no operation fails")
        check("fail_ratio = 0 ratio" in proc.stdout, f"{label}: prints fail_ratio")
        check({n: m["unit"] for n, m in final["metrics"].items()}
              == {m["name"]: m["unit"] for m in wanted},
              f"{label}: every metric emitted with its unit")
        if not trace:
            check(all(m["value"] > 0 for m in final["metrics"].values()),
                  f"{label}: end-to-end metrics are nonzero")
        return final, record

    for workload in (w["name"] for w in spec["workloads"]):
        plain, plain_record = run(workload, SEED, 0)
        first, first_record = run(workload, SEED, 1)
        second, second_record = run(workload, SEED, 1)
        other, other_record = run(workload, OTHER_SEED, 0)
        if None in (plain, first, second, other):
            continue
        counts = [m["name"] for m in spec["per_layer"]
                  if m["unit"] != "s" and m["name"] != "trace.overhead_ratio"]
        changed = [n for n in counts
                   if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        check(not changed, f"{workload}: counts repeat with the same seed {changed}")
        check(not first_record["count_drift"] and not second_record["count_drift"],
              f"{workload}: counts repeat across the passes of one run")
        drawn = REWRITE_STEPS * first_record["rows_per_pass"].get("trace", 0)
        check(first_record["rewrites_drawn"] == drawn,
              f"{workload}: drawn rewrites = REWRITE_STEPS x trace cases ({drawn})")
        check(first_record["input_digests"] == plain_record["input_digests"],
              f"{workload}: same seed, same input digests")
        check(other_record["input_digests"] != plain_record["input_digests"],
              f"{workload}: another seed changes the input digests")
        check(other_record["ops_per_pass"] == plain_record["ops_per_pass"],
              f"{workload}: another seed keeps the operations per pass")

    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench(spec["workloads"][0]["name"], SEED, 0, cwd=bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    check(proc.returncode != 0 and '"correct"' not in last,
          "without the sources the benchmark fails and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
