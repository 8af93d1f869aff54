"""Layered benchmark for nuctrace: one workload per process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One caller runs one operation at a time
and starts the next only when the previous one has returned; no threads
are added and the BLAS / ``GLT_THREADS`` thread settings are left as the
environment has them (and recorded).  The library is imported from
``src/`` and reached only through its public entry points.

Set-up (``setup_s``) is a fresh interpreter importing the package, plus
generating the seeded inputs, each done three times and the median sum
taken, plus one warm-up pass.  Then passes of the workload's operations
repeat until ``--seconds`` is used up (at least two), each bracketed by a
machine-speed calibration (see ``CALIBRATION_S``).  With ``--trace 0``
the end-to-end metrics are printed; with ``--trace 1`` untraced and traced
passes alternate, and the per-layer metrics come from the spans of the
traced passes (see ``tracer.py``).

Every output is checked independently; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Full results, the run environment, input and output digests and the spans
go to ``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer, layer_stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_REPEATS = 3
MIN_PASSES = 2
# The shared machines this runs on drift in speed by up to half between
# half-hours, far beyond any usable bound, so end-to-end times are scaled by
# CALIBRATION_S / calibrate(), measured just before and after them: seconds
# on a machine where the calibration takes CALIBRATION_S.  Raw times are
# kept in the results file.
CALIBRATION_S = 0.1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GLT_THREADS")

SUITE_RUNNERS = {
    "trace": "run_trace_suite",
    "factorize": "run_factorization_suite",
    "ladder": "run_ladder_suite",
}

# Config fields of each suite workload at full size; the seed is the
# workload seed.  "smoke" is the smallest size, used by the self-test.
SUITE_WORKLOADS = {
    # the shipped ladder_rotations_pinf family at 1 case per level
    "rewrite_churn": {
        "suites": ("trace", "factorize", "ladder"),
        "full": {"p": "inf", "family": "shared_functional_rotations", "term_count": 512,
                 "ladder": [64, 128, 256, 512], "cases_per_level": 1},
        "smoke": {"p": "inf", "family": "shared_functional_rotations", "term_count": 32,
                  "ladder": [16, 32, 64], "cases_per_level": 1},
    },
    "spectral_ladder": {
        "suites": ("ladder",),
        "full": {"p": "2", "family": "random_unit", "term_count": 512,
                 "ladder": [256, 512, 1024, 2048], "cases_per_level": 1},
        "smoke": {"p": "2", "family": "random_unit", "term_count": 32,
                  "ladder": [32, 64, 128], "cases_per_level": 1},
    },
    "factorize_dense": {
        "suites": ("factorize",),
        "full": {"p": "3/2", "family": "random_unit", "term_count": 2048,
                 "ladder": [512, 1024, 2048], "cases_per_level": 1},
        "smoke": {"p": "3/2", "family": "random_unit", "term_count": 64,
                  "ladder": [16, 32, 64], "cases_per_level": 1},
    },
}
# k = n of the stored representation the CLI reads
CLI_SIZES = {"full": 768, "smoke": 64}
WORKLOADS = (*SUITE_WORKLOADS, "cli_roundtrip")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# --- run environment ------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def run_environment() -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
         if line.startswith("model name")),
        platform.processor() or None,
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and size and kind and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_cache": caches.get("L2"),
        "l3_cache": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def calibrate(matrix: np.ndarray, product: np.ndarray) -> float:
    """Seconds for a fixed mix of interpreter and BLAS work that runs no
    nuctrace code.  It allocates no arrays, so it leaves the heap (and the
    peak RSS of the workload around it) as it found it."""
    t0 = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    for _ in range(36):
        np.matmul(matrix, matrix, out=product)
    return time.perf_counter() - t0


# --- inputs ---------------------------------------------------------------------


@dataclasses.dataclass
class Inputs:
    """Generated inputs of one workload, as the library will see them."""

    digests: dict
    config: object = None       # ExperimentConfig of a suite workload
    expected_rows: dict = dataclasses.field(default_factory=dict)
    rep_path: Path | None = None
    dim: int = 0
    mu_sum: float = 0.0


def _config_json(fields: dict, seed: int) -> dict:
    return {
        "p": fields["p"],
        "family": fields["family"],
        "decay": {"exponent_multiplier": 1.1,
                  "term_count": fields["term_count"]},
        "ladder": fields["ladder"],
        "seed": seed,
        "out_dir": "out",
        "cases_per_level": fields["cases_per_level"],
    }


def generate_inputs(nt, workload: str, size: str, seed: int, in_dir: Path) -> Inputs:
    """Write the seeded configs (and rep file) the workload feeds the library."""
    in_dir.mkdir(parents=True, exist_ok=True)
    if workload in SUITE_WORKLOADS:
        spec = SUITE_WORKLOADS[workload]
        fields = spec[size]
        text = json.dumps(_config_json(fields, seed), indent=2, sort_keys=True)
        path = in_dir / "config.json"
        path.write_text(text)
        config = nt.config_from_json(json.loads(path.read_text()))
        levels, cases = len(fields["ladder"]), fields["cases_per_level"]
        expected = {"trace": levels * cases, "factorize": levels * cases, "ladder": levels + 1}
        return Inputs(
            digests={"config.json": sha256(text.encode())},
            config=config,
            expected_rows={s: expected[s] for s in spec["suites"]},
        )

    n = CLI_SIZES[size]
    fields = {"p": "inf", "family": "random_unit", "term_count": n, "ladder": [n],
              "cases_per_level": 1}
    config_text = json.dumps(_config_json(fields, seed), indent=2, sort_keys=True)
    (in_dir / "config.json").write_text(config_text)
    config = nt.config_from_json(json.loads(config_text))
    rep_data = nt.rep_to_json(nt.generate_family(config, n))
    rep_data["seed"] = seed
    rep_text = json.dumps(rep_data)
    rep_path = in_dir / "rep.json"
    rep_path.write_text(rep_text)
    return Inputs(
        digests={"config.json": sha256(config_text.encode()),
                 "rep.json": sha256(rep_text.encode())},
        rep_path=rep_path,
        dim=n,
        mu_sum=math.fsum(t["mu"] for t in rep_data["terms"]),
    )


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import nuctrace"], env=env, cwd=ROOT,
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


# --- one pass -------------------------------------------------------------------


@dataclasses.dataclass
class PassResult:
    wall_s: float
    attempted: int
    failed: int
    output_bytes: int
    digests: dict


def _json_value_in_file(path: Path, key: str):
    """Decode the value of the first ``"key": ...`` in a large JSON file,
    reading it in chunks instead of parsing the whole document."""
    needle = re.compile(rb'"' + re.escape(key.encode()) + rb'"\s*:\s*')
    keep = len(key) + 64  # enough tail to hold a key split across chunks
    with open(path, "rb") as fh:
        buf = b""
        while True:
            chunk = fh.read(1 << 20)
            if not chunk:
                raise ValueError(f"{key!r} not found in {path.name}")
            buf = buf[-keep:] + chunk
            found = needle.search(buf)
            if found:
                text = (buf[found.end():] + fh.read(1 << 20)).decode().lstrip()
                return json.JSONDecoder().raw_decode(text)[0]


def _chain_exact(nt, certificates) -> bool:
    return nt.check_holder_chain([nt.Exponent(c["exponent"]) for c in certificates])


def check_suite(nt, out_dir: Path, suite: str, expected: int) -> int:
    """Failed rows of one suite report: non-pass rows, missing rows, and
    factorize rows whose certificate exponents break the exact chain."""
    data = json.loads((out_dir / f"{suite}_report.json").read_text())
    cases = data["cases"]
    failed = sum(
        1 for c in cases
        if c.get("status") != "pass"
        or (suite == "factorize" and not _chain_exact(nt, c["certificates"]))
    )
    failed += max(0, expected - len(cases))
    if data["failed"] != 0 or data["total"] != expected or len(cases) != expected:
        failed = max(failed, 1)
    return min(expected, failed)


def suite_ops(nt, inputs: Inputs, out_dir: Path, tracer):
    """Run each suite once; returns the summed wall time and the suites that raised."""
    config = dataclasses.replace(inputs.config, out_dir=str(out_dir))
    raised = set()
    wall = 0.0
    for suite in inputs.expected_rows:
        if tracer is not None:
            tracer.begin_op()
        run = getattr(nt.harness, SUITE_RUNNERS[suite])
        t0 = time.perf_counter()
        try:
            run(config)
        except Exception:
            traceback.print_exc()
            raised.add(suite)
        wall += time.perf_counter() - t0
    return wall, raised


def suite_check(nt, inputs: Inputs, out_dir: Path, wall: float, raised) -> PassResult:
    attempted = failed = 0
    for suite, expected in inputs.expected_rows.items():
        attempted += expected
        try:
            failed += expected if suite in raised else check_suite(nt, out_dir, suite, expected)
        except (OSError, ValueError, KeyError, TypeError):
            traceback.print_exc()
            failed += expected
    data_files = [f"{s}_report.json" for s in inputs.expected_rows]
    if "ladder" in inputs.expected_rows:
        data_files.append("ladder.csv")
    digests = {f: file_sha256(out_dir / f) for f in data_files if (out_dir / f).exists()}
    output = sum(p.stat().st_size for p in out_dir.iterdir())
    return PassResult(wall, attempted, failed, output, digests)


def _cli(nt, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nt.cli.cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_ops(nt, inputs: Inputs, out_dir: Path, tracer):
    """Read then write through the CLI; returns the summed wall time and
    ``(exit code, stdout, stderr)`` of each invocation that returned."""
    calls = {
        "spectrum": ["spectrum", "--rep", str(inputs.rep_path)],
        "factorize": ["factorize", "--rep", str(inputs.rep_path),
                      "--out", str(out_dir / "pipeline.json")],
    }
    results, wall = {}, 0.0
    for name, argv in calls.items():
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            results[name] = _cli(nt, argv)
        except Exception:
            traceback.print_exc()
        wall += time.perf_counter() - t0
    return wall, results


def cli_check(nt, inputs: Inputs, out_dir: Path, wall: float, results) -> PassResult:
    pipe_path = out_dir / "pipeline.json"
    failed, digests, output = 0, {}, 0
    for name, (code, out, err) in results.items():
        if code != 0:
            print(f"nuctrace {name} exited {code}: {err.strip()}", file=sys.stderr)
    try:
        code, out, _ = results["spectrum"]
        report = json.loads(out)
        ok = (code == 0 and len(report["eigenvalues"]) == report["dim"] == inputs.dim
              and report["lidskii_residual"] <= 1e-9 * (1.0 + inputs.mu_sum))
        digests["spectrum.stdout"] = sha256(out.encode())
        output += len(out.encode())
    except (KeyError, ValueError, TypeError):
        traceback.print_exc()
        ok = False
    failed += not ok
    try:
        ok = (results["factorize"][0] == 0
              and _chain_exact(nt, _json_value_in_file(pipe_path, "certificates")))
        digests["pipeline.json"] = file_sha256(pipe_path)
        output += pipe_path.stat().st_size
    except (KeyError, OSError, ValueError, TypeError):
        traceback.print_exc()
        ok = False
    failed += not ok
    return PassResult(wall, 2, failed, output, digests)


def run_pass(nt, workload, inputs, out_dir: Path, tracer=None) -> PassResult:
    """One timed pass of the workload's operations, then the output checks."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    ops, check = (suite_ops, suite_check) if workload in SUITE_WORKLOADS else (cli_ops, cli_check)
    if tracer is not None:
        tracer.install()
    try:
        wall, raw = ops(nt, inputs, out_dir, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return check(nt, inputs, out_dir, wall, raw)


# --- metrics --------------------------------------------------------------------


def end_to_end_metrics(setup_s: float, passes: list[PassResult], scales: list[float]) -> dict:
    walls = [p.wall_s * scale for p, scale in zip(passes, scales)]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median((p.attempted - p.failed) / w for p, w in zip(passes, walls)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_mb": statistics.median(p.output_bytes for p in passes) / 1e6,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_pass_metrics(stats: dict, counters: dict) -> dict:
    """Per-layer values of one traced pass, by the names BENCHMARK.json uses."""
    values = dict(stats)
    for name in ("seqspace.compose.gflop", "seqspace.DenseOperator.mb",
                 "spectra.eigen_spectrum.gflop"):
        values[name] = counters.get(name, 0.0)
    for name in ("nuclear.NuclearRep.terms_in", "cli.bytes_read", "cli.bytes_written"):
        values[name] = int(counters.get(name, 0))
    # a drawn rewrite that raised SchemeNotApplicableError is retried as a split
    calls = stats["nuclear.rewrite.chain_calls"]
    fallbacks = stats["nuclear.rewrite.chain_errors"]
    values["nuclear.rewrite.drawn"] = calls - fallbacks
    values["nuclear.rewrite.applicable_ratio"] = _ratio(calls - 2 * fallbacks, calls - fallbacks)
    values["factorization.compose_per_pipeline"] = _ratio(
        stats["seqspace.compose.calls"], stats["factorization.build_pipeline.calls"])
    values["spectra.assemble_per_solve"] = _ratio(
        stats["spectra.assembles_in_spectra"], stats["spectra.eigen_spectrum.calls"])
    return values


def purpose_shares(v: dict, traced_wall: float) -> dict:
    """The share of time each workload exists to exercise (from one traced pass)."""
    module_self = {m: v[f"{m}.self_s"] for m in ("exponents", "seqspace", "nuclear",
                                                 "factorization", "spectra", "harness", "cli")}
    compose_assemble = v["seqspace.compose.busy_s"] + v["nuclear.assemble.busy_s"]
    # compose and assemble have only DenseOperator (seqspace) children, so the
    # rest of each module is its self time minus what falls inside them
    rest = dict(module_self)
    rest["seqspace"] -= compose_assemble - v["nuclear.assemble.own_s"]
    rest["nuclear"] -= v["nuclear.assemble.own_s"]
    json_io = sum(v[f"{n}.own_s"] for n in ("cli.json_decode", "cli.json_encode",
                                            "nuclear.rep_from_json",
                                            "factorization.pipeline_to_json",
                                            "seqspace.operator_to_json"))
    total_self = sum(module_self.values())
    return {
        "rep_core_self_share": _ratio(module_self["nuclear"] + module_self["seqspace"]
                                      + module_self["exponents"], total_self),
        "eigen_busy_share": _ratio(v["spectra.eigen_spectrum.busy_s"], traced_wall),
        "compose_assemble_share": _ratio(compose_assemble, traced_wall),
        "largest_other_layer_share": _ratio(max(rest.values()), traced_wall),
        "json_io_share_of_cli": _ratio(json_io, v["cli.cli_main.busy_s"]),
    }


# --- entry point ----------------------------------------------------------------


def _load_nuctrace():
    if not (SRC / "nuctrace" / "__init__.py").is_file():
        raise SystemExit(f"error: no nuctrace sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import nuctrace

    return nuctrace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "smoke"),
                        help="smoke: smallest inputs, for the self-test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.trace and os.environ.get("GLT_THREADS", "1") != "1":
        parser.error("tracing needs serial cases; unset GLT_THREADS")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nt = _load_nuctrace()

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    out_dir = work / "out"

    cal_matrix = np.random.default_rng(0).standard_normal((384, 384))
    cal_product = np.empty_like(cal_matrix)
    cals = [calibrate(cal_matrix, cal_product)]
    setups = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        inputs = generate_inputs(nt, args.workload, args.size, args.seed, work / "inputs")
        setups.append(t_import + time.perf_counter() - t0)
    t0 = time.perf_counter()
    warmup = run_pass(nt, args.workload, inputs, out_dir)
    setup_raw = statistics.median(setups) + time.perf_counter() - t0
    cals.append(calibrate(cal_matrix, cal_product))
    setup_s = setup_raw * 2 * CALIBRATION_S / (cals[0] + cals[1])
    cals = cals[1:]

    tracer = Tracer(nt) if args.trace else None
    plain, traced, traced_values = [], [], []
    started = time.perf_counter()
    while True:
        plain.append(run_pass(nt, args.workload, inputs, out_dir))
        cals.append(calibrate(cal_matrix, cal_product))
        if tracer is not None:
            first = tracer.begin_pass(len(traced))
            traced.append(run_pass(nt, args.workload, inputs, out_dir, tracer))
            stats = layer_stats(tracer, first, tracer.span_count)
            traced_values.append(traced_pass_metrics(stats, tracer.counters))
        rounds = len(plain)
        predicted = (time.perf_counter() - started) * (rounds + 1) / rounds
        if rounds >= (1 if tracer else MIN_PASSES) and predicted > args.seconds:
            break

    runs = [warmup, *plain, *traced]
    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": run_environment(),
        "input_digests": inputs.digests,
        "ops_per_pass": plain[0].attempted, "rows_per_pass": inputs.expected_rows,
        "setup_samples_s": setups, "warmup_s": warmup.wall_s, "setup_raw_s": setup_raw,
        "pass_wall_s": [p.wall_s for p in plain], "calibration_s": cals,
        "output_digests": plain[0].digests,
        "output_digests_stable": all(p.digests == plain[0].digests for p in runs),
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
    }
    if tracer is None:
        scales = [2 * CALIBRATION_S / (a + b) for a, b in zip(cals, cals[1:])]
        values = end_to_end_metrics(setup_s, plain, scales)
        wanted = spec["end_to_end"]
    else:
        values, drift = {}, []
        for name in traced_values[0]:
            series = [v[name] for v in traced_values]
            if name.endswith("_s"):
                values[name] = statistics.median(series)
            else:
                values[name] = series[0]
                if any(x != series[0] for x in series):
                    drift.append(name)
        traced_wall = statistics.median(p.wall_s for p in traced)
        values["trace.overhead_ratio"] = traced_wall / statistics.median(
            p.wall_s for p in plain)
        wanted = spec["per_layer"]
        record["count_drift"] = drift
        record["rewrites_drawn"] = traced_values[0]["nuclear.rewrite.drawn"]
        record["purpose"] = purpose_shares(values, traced_wall)
        record["traced_wall_s"] = [p.wall_s for p in traced]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record["metrics"] = metrics

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.save(results / f"{args.workload}.spans.npz")

    env = record["environment"]
    print(f"env: {json.dumps(env, sort_keys=True)}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_ratio = {record['fail_ratio']:.6g} ratio "
          f"({failed} of {attempted} ops)")
    if tracer is not None:
        for name, share in record["purpose"].items():
            print(f"{args.workload} purpose {name} = {share:.3f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
