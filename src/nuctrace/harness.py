"""Seeded experiment suites over generated representation families.

Reproducibility rules
---------------------
The random source is numpy's PCG64 generator seeded through
``SeedSequence`` tuples, so streams are documented, portable and
deterministic across platforms.  Every suite case owns the stream
``SeedSequence((seed, case_index))`` and every family draw at truncation
``N`` owns ``SeedSequence((seed, N))``, so a case does not depend on the
cases run before it.  Cases run serially, in case order.

Suite data files are byte-stable for a fixed (config, seed) on the same
numpy/BLAS build with the same BLAS thread count (dense eigensolves are not
bitwise stable across thread counts): wall-clock metadata goes to a separate
``*_meta.json`` file that comparisons exclude.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exponents import Exponent, s_from_p
from .factorization import RECONSTRUCTION_BUDGET, build_pipeline, summing_certificates
from .nuclear import (
    _REWRITE_SCHEMES,
    MU_FLOOR,
    NuclearRep,
    SchemeNotApplicableError,
    _generator,
    nuclear_trace,
    rewrite_equivalent,
)
from .seqspace import MAX_DIM, conjugate_tag, json_object, lp, row_norms
from .spectra import (
    RESIDUAL_BUDGET,
    ladder_csv,
    spectral_report,
    summability_ladder,
)

__all__ = [
    "FAMILIES",
    "DecayProfile",
    "Tolerances",
    "ExperimentConfig",
    "SuiteReport",
    "config_to_json",
    "config_from_json",
    "generate_family",
    "run_trace_suite",
    "run_factorization_suite",
    "run_ladder_suite",
    "write_suite_report",
]

FAMILIES = ("diagonal", "random_unit", "shared_functional_rotations")

REWRITE_STEPS = 10

# Bytes of the buffer through which ``random_unit`` draws its rows.
_DRAW_BYTES = 2**16


def _is_int(value) -> bool:
    """The integer rule of the config fields: a float, a string or a boolean
    is rejected, not truncated."""
    return isinstance(value, int) and not isinstance(value, bool)


def _store_float(obj, name: str) -> float:
    """The number rule of the float config fields: an int or a float is
    stored as a float; a string or a boolean is rejected, not converted."""
    value = getattr(obj, name)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    value = float(value)
    object.__setattr__(obj, name, value)
    return value


@dataclass(frozen=True)
class DecayProfile:
    """Weight decay ``mu_k = k^(-(1/s) * exponent_multiplier)`` over ``term_count`` terms."""

    exponent_multiplier: float
    term_count: int

    def __post_init__(self):
        if not 1.0 <= _store_float(self, "exponent_multiplier") < math.inf:
            raise ValueError("exponent_multiplier must be finite and >= 1 for summable weights")
        if not _is_int(self.term_count) or self.term_count < 1:
            raise ValueError(f"term_count must be a positive integer, got {self.term_count!r}")


@dataclass(frozen=True)
class Tolerances:
    reconstruction: float = RECONSTRUCTION_BUDGET
    trace: float = 1e-10

    def __post_init__(self):
        for name in ("reconstruction", "trace"):
            if not 0 < _store_float(self, name) < math.inf:
                raise ValueError("tolerances must be positive and finite")
        if self.reconstruction > RECONSTRUCTION_BUDGET:  # build_pipeline raises above it
            raise ValueError(f"reconstruction tolerance must lie in (0, {RECONSTRUCTION_BUDGET:g}]")


@dataclass(frozen=True)
class ExperimentConfig:
    p: Exponent
    family: str
    decay: DecayProfile
    ladder: tuple[int, ...]
    seed: int
    tolerances: Tolerances = field(default_factory=Tolerances)
    out_dir: str = "."
    cases_per_level: int = 25

    def __post_init__(self):
        # read as every lp tag reads it, so no suite starts on a p they reject
        object.__setattr__(self, "p", lp(self.p, 1).p)
        object.__setattr__(self, "ladder", tuple(self.ladder))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; pick one of {FAMILIES}")
        if not self.ladder:
            raise ValueError("ladder must not be empty")
        for n in self.ladder:
            if not _is_int(n):
                raise ValueError(f"ladder entries must be integers, got {n!r}")
        if any(n < 1 or n > MAX_DIM for n in self.ladder):
            raise ValueError(f"ladder entries must lie in [1, {MAX_DIM}]")
        if any(b <= a for a, b in zip(self.ladder, self.ladder[1:])):
            raise ValueError("ladder must be strictly increasing")
        if self.decay.term_count > max(self.ladder):
            raise ValueError("term_count must not exceed the largest ladder entry")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not _is_int(self.cases_per_level) or self.cases_per_level < 1:
            raise ValueError(
                f"cases_per_level must be a positive integer, got {self.cases_per_level!r}"
            )
        if self.family == "diagonal":
            gaps = _diagonal_gaps(self.p, self.decay, self.ladder)
            if not all(later < earlier for earlier, later in zip(gaps, gaps[1:])):
                raise ValueError("config ladder: the gaps between the diagonal family's level "
                                 f"sums must strictly shrink, got "
                                 f"[{', '.join(f'{g:.3g}' for g in gaps)}]")


def config_to_json(config: ExperimentConfig) -> dict:
    return {**dataclasses.asdict(config), "p": str(config.p), "ladder": list(config.ladder)}


def config_from_json(data) -> ExperimentConfig:
    """The config stored by :func:`config_to_json`; malformed data raises a
    one-line ``ValueError``."""
    json_object(data, "config", "p", "family", "decay", "ladder", "seed")
    decay = json_object(data["decay"], "config decay", "exponent_multiplier", "term_count")
    tol = json_object(data.get("tolerances", {}), "config tolerances")
    if not isinstance(data["ladder"], list):
        raise ValueError("config ladder must be a JSON array")
    if "out_dir" in data and not isinstance(data["out_dir"], str):
        raise ValueError("config out_dir must be a JSON string")

    def given(obj: dict, *keys: str) -> dict:  # absent keys take the dataclass defaults
        return {key: obj[key] for key in keys if key in obj}

    try:
        return ExperimentConfig(
            p=Exponent(data["p"]),
            family=data["family"],
            decay=DecayProfile(decay["exponent_multiplier"], decay["term_count"]),
            ladder=data["ladder"],
            seed=data["seed"],
            tolerances=Tolerances(**given(tol, "reconstruction", "trace")),
            **given(data, "out_dir", "cases_per_level"),
        )
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed config: {exc}") from exc


# --- deterministic stream derivation ----------------------------------------


def _case_seed(seed: int, case_index: int) -> int:
    return int(np.random.SeedSequence((seed, case_index)).generate_state(1, np.uint64)[0])


# --- generators ---------------------------------------------------------------


def _decay_weights(p: Exponent, decay: DecayProfile, k_terms: int) -> np.ndarray:
    power = float(s_from_p(p).reciprocal) * decay.exponent_multiplier
    return np.arange(1, k_terms + 1, dtype=np.float64) ** (-power)


@functools.cache
def _diagonal_gaps(p: Exponent, decay: DecayProfile, ladder: tuple[int, ...]) -> tuple[float, ...]:
    """The gaps between the level sums ``S_N`` that ``run_ladder_suite``
    reads on the ``diagonal`` family.  Its spectrum at level ``N`` is
    exactly the kept decay weights (those of at least ``MU_FLOOR``), padded
    with zeros to ``N``, and is summed here in that order, as
    ``spectral_report`` sums ``abs_sum``, so each gap is the suite's own.
    The seed plays no part, so the suites' per-case configs reuse one result."""
    sums = []
    for n in ladder:
        mu = _decay_weights(p, decay, min(decay.term_count, n))
        spectrum = np.zeros(n)
        kept = mu[mu >= MU_FLOOR]
        spectrum[: kept.size] = kept
        sums.append(float(spectrum.sum()))
    return tuple(b - a for a, b in zip(sums, sums[1:]))


def generate_family(config: ExperimentConfig, n: int) -> NuclearRep:
    """Draw the configured family at truncation ``n``, deterministically.

    ``diagonal`` puts the decay weights on coordinate tensors; ``random_unit``
    draws standard-normal coordinates and normalizes vector and functional in
    the ambient norm and its conjugate; ``shared_functional_rotations`` builds
    pairs of terms sharing a functional and stirs them with seeded rotations.
    The row arrays are this function's own: each is normalized in place and
    handed to the rep uncopied (``NuclearRep``'s ``_owned``).
    """
    k_terms = min(config.decay.term_count, n)
    mu = _decay_weights(config.p, config.decay, k_terms)
    ambient = lp(config.p, n)
    conj = conjugate_tag(ambient)
    rng = _generator(config.seed, n)

    if config.family == "diagonal":
        return NuclearRep(ambient, mu, np.eye(k_terms, n), np.eye(k_terms, n), _owned=True)

    def unit_rows(rows, tag):
        rows /= row_norms(rows, tag)[:, None]
        return rows

    if config.family == "random_unit":
        # drawn in term order f_0, v_0, f_1, v_1, ..., a block of terms at a
        # time through one reused buffer, straight into the two row arrays
        fun, vec = np.empty((k_terms, n)), np.empty((k_terms, n))
        step = max(1, _DRAW_BYTES // (16 * n))
        block = np.empty((min(step, k_terms), 2, n))
        for i in range(0, k_terms, step):
            draws = rng.standard_normal(out=block[: min(step, k_terms - i)])
            fun[i : i + step], vec[i : i + step] = draws[:, 0], draws[:, 1]
        return NuclearRep(ambient, mu, unit_rows(fun, conj), unit_rows(vec, ambient),
                          _owned=True)

    # shared_functional_rotations: term pairs (2m, 2m + 1) share a functional,
    # drawn in the order f, v_2m, v_2m+1 per pair (f, v for a last odd term)
    terms = np.arange(k_terms)
    draws = rng.standard_normal((k_terms + (k_terms + 1) // 2, n))
    fun = unit_rows(draws[3 * (terms // 2)], conj)
    vec = unit_rows(draws[3 * (terms // 2) + 1 + terms % 2], ambient)
    del draws  # free the draws before the rotations
    rep = NuclearRep(ambient, mu, fun, vec, _owned=True)
    del fun, vec  # else they hold the first rep's rows through the rotations
    if len(rep) >= 2:
        for _ in range(min(8, len(rep))):
            rep = rewrite_equivalent(rep, "rotate", int(rng.integers(2**63)))
    return rep


# --- suite plumbing -----------------------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    config: ExperimentConfig
    cases: list
    passed: int
    failed: int
    duration_seconds: float

    def data_dict(self) -> dict:
        """The deterministic payload; excludes wall-clock metadata.

        The config echo drops ``out_dir``: where a run was delivered is not
        part of the experiment, and identical runs written to two places
        must still compare byte-identical.
        """
        echo = config_to_json(self.config)
        echo.pop("out_dir")
        return {
            "suite": self.suite,
            "config": echo,
            "cases": self.cases,
            "passed": self.passed,
            "failed": self.failed,
            "total": len(self.cases),
        }


def _gated(row: dict, *gates: tuple[float, float]) -> dict:
    """Set ``row``'s status from its ``(observed, budget)`` gates: ``pass``
    when every observed value lies within its budget.  A NaN compares
    false, so it fails."""
    row["status"] = "pass" if all(observed <= budget for observed, budget in gates) else "fail"
    return row


def _finish(suite: str, config: ExperimentConfig, cases: list, started: float) -> SuiteReport:
    """Tally the cases, write the report files and return the report."""
    failed = sum(1 for c in cases if c.get("status") == "fail")
    report = SuiteReport(
        suite=suite,
        config=config,
        cases=cases,
        passed=len(cases) - failed,
        failed=failed,
        duration_seconds=time.monotonic() - started,
    )
    write_suite_report(report, config.out_dir)
    return report


def _dump_json(data: dict, path: Path) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def write_suite_report(report: SuiteReport, out_dir: str | os.PathLike) -> list[Path]:
    """Write ``<suite>_report.json`` plus the timing side file; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data_path = out / f"{report.suite}_report.json"
    meta_path = out / f"{report.suite}_meta.json"
    _dump_json(report.data_dict(), data_path)
    _dump_json(
        {"suite": report.suite, "duration_seconds": report.duration_seconds},
        meta_path,
    )
    return [data_path, meta_path]


def _run_cases(suite: str, config: ExperimentConfig, one_case) -> SuiteReport:
    """Call ``one_case(i, level, case config, rep)`` for every case, in case
    order, and finish the suite with the returned rows.  A case's rep and
    everything built from it are released before the next case is drawn."""
    started = time.monotonic()
    cases = []
    for i in range(len(config.ladder) * config.cases_per_level):
        level = config.ladder[i // config.cases_per_level]
        case_cfg = dataclasses.replace(config, seed=_case_seed(config.seed, i))
        cases.append(one_case(i, level, case_cfg, generate_family(case_cfg, level)))
    return _finish(suite, config, cases, started)


def _rewrite_chain(rep: NuclearRep, steps: int, rng: np.random.Generator):
    """Apply random rewrites, falling back to a split when a scheme has no target."""
    for _ in range(steps):
        scheme = _REWRITE_SCHEMES[int(rng.integers(len(_REWRITE_SCHEMES)))]
        seed = int(rng.integers(2**63))
        try:
            rep = rewrite_equivalent(rep, scheme, seed)
        except SchemeNotApplicableError:
            rep = rewrite_equivalent(rep, "split", seed)
        yield rep


def run_trace_suite(config: ExperimentConfig) -> SuiteReport:
    """Trace invariance under rewrite chains, plus the spectral residual gate."""

    def one_case(i: int, level: int, case_cfg: ExperimentConfig, rep: NuclearRep) -> dict:
        t0 = nuclear_trace(rep)
        # distinct from every family stream (seed, N), N <= MAX_DIM
        chain_rng = _generator(case_cfg.seed, MAX_DIM + 1)
        drift = 0.0
        for step_rep in _rewrite_chain(rep, REWRITE_STEPS, chain_rng):
            drift = max(drift, abs(nuclear_trace(step_rep) - t0))
        residual = spectral_report(rep).lidskii_residual
        scale = 1.0 + float(rep.mu.sum())
        row = {"case": i, "level": level, "terms": len(rep), "trace": t0,
               "max_drift": drift, "residual": residual}
        return _gated(row, (drift, config.tolerances.trace * scale),
                      (residual, RESIDUAL_BUDGET * scale))

    return _run_cases("trace", config, one_case)


def run_factorization_suite(config: ExperimentConfig) -> SuiteReport:
    """Pipeline reconstruction within the configured tolerance, case by case.

    ``summing_certificates`` checks the exponent chain and raises on a
    broken one, so every row records ``chain_exact`` as true.
    ``build_pipeline`` raises above ``RECONSTRUCTION_BUDGET``, so at that
    default tolerance (``1e-10``) a defect ends the suite with exit 1 and
    no ``fail`` row is written; only a tighter tolerance writes one.
    """

    def one_case(i: int, level: int, case_cfg: ExperimentConfig, rep: NuclearRep) -> dict:
        pipe = build_pipeline(rep)
        budget = config.tolerances.reconstruction * (1.0 + pipe.target_norm)
        row = {"case": i, "level": level, "p": str(rep.ambient.p),
               "built_on_p": str(pipe.triple.p), "terms": len(rep),
               "reconstruction_error": pipe.reconstruction_error,
               "reconstruction_budget": budget, "chain_exact": True,
               "certificates": [c.as_dict() for c in summing_certificates(pipe)]}
        return _gated(row, (pipe.reconstruction_error, budget))

    return _run_cases("factorize", config, one_case)


def run_ladder_suite(config: ExperimentConfig) -> SuiteReport:
    """Summability ladder: CSV table, residual gates and gap shrinkage."""
    started = time.monotonic()
    if len(config.ladder) < 3:
        raise ValueError("ladder suite needs at least three levels")

    rows = summability_ladder(lambda n: generate_family(config, n), config.ladder)
    cases = [_gated(dataclasses.asdict(row), (row.residual, RESIDUAL_BUDGET * (1.0 + row.abs_sum)))
             for row in rows]
    gaps = [b.abs_sum - a.abs_sum for a, b in zip(rows, rows[1:])]
    if config.family == "diagonal":
        # S_N is a monotone partial sum only for the diagonal family, where
        # strict gap decrease is a theorem.  The stochastic families' S_N
        # fluctuate and no suite gates them, so their gap_report row always
        # reads pass; tail thresholds exist only in the acceptance tests, for
        # the shipped rotation config (suite tail gates: ROADMAP item 15)
        shrinking = all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
        cases.append(
            {
                "check": "gap_shrinkage",
                "gaps": gaps,
                "status": "pass" if shrinking else "fail",
            }
        )
    else:
        cases.append({"check": "gap_report", "gaps": gaps, "status": "pass"})
    report = _finish("ladder", config, cases, started)
    (Path(config.out_dir) / "ladder.csv").write_text(ladder_csv(rows))
    return report
