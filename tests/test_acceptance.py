"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every oracle here is independent of the code path it checks: exponent
tables are recomputed with stdlib Fractions, trace identities fall back on
the finite-dimensional matrix trace, ladders compare against closed-form
partial sums computed with math.fsum, and determinism compares raw bytes.
Each test prints its own pass line (visible with ``pytest -s``).
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nuctrace as nt

from conftest import make_rng, random_rep

MODULE_START = time.monotonic()

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Frozen from the pilot run at the shipped seed 20260808 (rotation family,
# p = inf, ladder 64/128/256/512): 1.5x the observed per-level maxima.
ROTATION_TAIL_THRESHOLDS = {
    64: 0.0739444504,
    128: 0.0770183427,
    256: 0.0703437849,
    512: 0.0495920085,
}


def _passline(n: int, text: str) -> None:
    print(f"criterion {n}: PASS ({text})")


def _seeded_reps(count: int, entropy_base: int, max_dim=64, max_terms=20):
    """The shared pool of seeded random reps for criteria 2 and 3."""
    reps = []
    for i in range(count):
        rng = make_rng(entropy_base, i)
        p = (2, 3, np.inf)[i % 3]
        dim = int(rng.integers(4, max_dim + 1))
        terms = int(rng.integers(1, max_terms + 1))
        reps.append(random_rep(rng, p, dim, terms))
    return reps


def test_criterion_1_exponent_table_exact():
    start = time.monotonic()
    table = {
        "1": (Fraction(2, 3), "2"),
        "4/3": (Fraction(4, 5), "4"),
        "2": (Fraction(1), "inf"),
        "3": (Fraction(6, 7), "6"),
        "4": (Fraction(4, 5), "4"),
        "inf": (Fraction(2, 3), "2"),
    }
    for p_text, (s_expected, r_expected) in table.items():
        p = nt.Exponent(p_text)
        triple = nt.ParameterTriple(p)
        assert triple.s.value == s_expected, f"s mismatch at p={p_text}"
        assert str(triple.r) == r_expected, f"r mismatch at p={p_text}"
        assert nt.check_holder_chain(
            [triple.r, nt.Exponent(2), nt.reduce_to_p_ge_2(p)]
        ) is True
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _passline(1, f"6 exact triples and chains in {elapsed:.3f}s")


def test_criterion_2_finite_rank_trace_identity():
    start = time.monotonic()
    worst = 0.0
    for rep in _seeded_reps(200, entropy_base=9000):
        report = nt.spectral_report(rep)
        budget = 1e-9 * (1 + float(rep.mu.sum()))
        assert report.lidskii_residual <= budget
        worst = max(worst, report.lidskii_residual / budget)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _passline(2, f"200 reps, worst residual at {worst:.2e} of budget, {elapsed:.1f}s")


def test_criterion_3_trace_well_definedness():
    start = time.monotonic()
    worst = 0.0
    for i, rep in enumerate(_seeded_reps(200, entropy_base=9000)):
        rng = make_rng(9500, i)
        budget = 1e-10 * (1 + float(rep.mu.sum()))
        t0 = nt.nuclear_trace(rep)
        cur = rep
        for _ in range(10):
            scheme = ("split", "rotate", "merge")[int(rng.integers(3))]
            seed = int(rng.integers(2**32))
            try:
                cur = nt.rewrite_equivalent(cur, scheme, seed)
            except nt.SchemeNotApplicableError:
                cur = nt.rewrite_equivalent(cur, "split", seed)
            drift = abs(nt.nuclear_trace(cur) - t0)
            assert drift <= budget
            worst = max(worst, drift / budget)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _passline(3, f"200 ten-step chains, worst drift at {worst:.2e} of budget, {elapsed:.1f}s")


def test_criterion_4_pipeline_reconstruction():
    start = time.monotonic()
    case = 0
    for p in (2, 3, 4, np.inf):
        for j in range(25):
            rng = make_rng(9600, case)
            dim = int(rng.integers(4, 24))
            terms = int(rng.integers(1, 12))
            rep = random_rep(rng, p, dim, terms)
            pipe = nt.build_pipeline(rep)
            target = nt.assemble(rep).matrix
            err = float(np.linalg.norm(nt.compose(pipe.stages()).matrix - target))
            assert err <= 1e-10 * (1 + float(np.linalg.norm(target)))
            certs = nt.summing_certificates(pipe)
            assert nt.check_holder_chain([c.exponent for c in certs]) is True
            case += 1
    elapsed = time.monotonic() - start
    assert case == 100 and elapsed < 30.0
    _passline(4, f"100 reconstructions across p grid, {elapsed:.1f}s")


def test_criterion_5_weyl_shadow():
    start = time.monotonic()
    for i in range(100):
        rng = make_rng(9700, i)
        dim = int(rng.integers(4, 32))
        terms = int(rng.integers(1, 16))
        rep = random_rep(rng, 2, dim, terms)
        assert rep.order == nt.OrderExponent(1)
        abs_sum = nt.spectral_report(rep).abs_sum
        singular_sum = np.linalg.svd(nt.assemble(rep).matrix, compute_uv=False).sum()
        norm_f, norm_v = (np.linalg.norm(rows, axis=1) for rows in (rep.functionals, rep.vectors))
        bound = (rep.mu * norm_f * norm_v).sum()
        tol = 1e-9 * (1 + bound)
        assert abs_sum <= singular_sum + tol
        assert singular_sum <= bound + tol
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _passline(5, f"100 triple inequalities at p=2, {elapsed:.1f}s")


def test_criterion_6_summability_ladder(tmp_path):
    start = time.monotonic()

    def load(name):
        cfg = nt.config_from_json(json.loads((CONFIG_DIR / name).read_text()))
        import dataclasses

        return dataclasses.replace(cfg, out_dir=str(tmp_path / name.removesuffix(".json")))

    # diagonal families at p = 2 and p = inf: closed form and gap decrease
    for name, check_closed_form in (
        ("ladder_diagonal_p2.json", True),
        ("ladder_diagonal_pinf.json", False),
    ):
        cfg = load(name)
        rows = nt.summability_ladder(
            lambda n: nt.generate_family(cfg, n), cfg.ladder, nt.s_from_p(cfg.p)
        )
        assert [r.level for r in rows] == [64, 128, 256, 512]
        if check_closed_form:
            for row in rows:
                oracle = math.fsum(k ** -1.1 for k in range(1, row.level + 1))
                assert abs(row.abs_sum - oracle) <= 1e-10 * oracle
        gaps = [b.abs_sum - a.abs_sum for a, b in zip(rows, rows[1:])]
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:])), name

    # rotation family at p = inf: frozen tail thresholds
    cfg = load("ladder_rotations_pinf.json")
    rows = nt.summability_ladder(
        lambda n: nt.generate_family(cfg, n), cfg.ladder, nt.s_from_p(cfg.p)
    )
    for row in rows:
        assert row.tail_fraction < ROTATION_TAIL_THRESHOLDS[row.level], row.level

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _passline(6, f"three ladders (closed form, gaps, frozen tails), {elapsed:.1f}s")


def test_criterion_7_suite_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv("GLT_THREADS", raising=False)
    start = time.monotonic()
    config = str(CONFIG_DIR / "acceptance_suite.json")
    data_files = {
        "trace": ["trace_report.json"],
        "factorize": ["factorize_report.json"],
        "ladder": ["ladder_report.json", "ladder.csv"],
    }
    for only, names in data_files.items():
        d1, d2 = tmp_path / f"{only}_run1", tmp_path / f"{only}_run2"
        for out in (d1, d2):
            code = nt.cli_main(
                ["suite", "--config", config, "--only", only, "--out", str(out), "--seed", "77"]
            )
            assert code == 0
        for name in names:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    total = time.monotonic() - MODULE_START
    assert total < 120.0, f"acceptance set took {total:.1f}s"
    _passline(7, f"byte-identical reruns for all three suites, {elapsed:.1f}s")
