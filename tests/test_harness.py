import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import nuctrace.harness as harness
import nuctrace.nuclear as nuclear
from nuctrace import (
    FAMILIES,
    DecayProfile,
    Exponent,
    ExperimentConfig,
    NuclearRep,
    Tolerances,
    cli_main,
    config_from_json,
    config_to_json,
    conjugate_tag,
    generate_family,
    lp,
    lp_norm,
    run_factorization_suite,
    run_ladder_suite,
    run_trace_suite,
    row_norms,
    summability_ladder,
)

from conftest import make_rng

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_config(tmp_path, **overrides):
    base = dict(
        p=Exponent(2),
        family="random_unit",
        decay=DecayProfile(exponent_multiplier=1.1, term_count=6),
        ladder=(4, 6, 8),
        seed=20260808,
        tolerances=Tolerances(),
        out_dir=str(tmp_path),
        cases_per_level=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = small_config(tmp_path)
        assert config_from_json(config_to_json(cfg)) == cfg
        assert config_from_json(json.loads(json.dumps(config_to_json(cfg)))) == cfg

    def test_defaults_fill_in(self):
        cfg = config_from_json(
            {
                "p": "inf",
                "family": "diagonal",
                "decay": {"exponent_multiplier": 1.0, "term_count": 4},
                "ladder": [4, 8],
                "seed": 1,
            }
        )
        assert cfg.tolerances == Tolerances(1e-10, 1e-10)
        assert cfg.cases_per_level == 25
        assert cfg.out_dir == "."

    def test_validation_errors(self, tmp_path):
        with pytest.raises(ValueError, match="ladder"):
            small_config(tmp_path, ladder=())
        with pytest.raises(ValueError, match="increasing"):
            small_config(tmp_path, ladder=(8, 8))
        with pytest.raises(ValueError, match="term_count"):
            small_config(tmp_path, decay=DecayProfile(1.1, 100))
        with pytest.raises(ValueError, match="family"):
            small_config(tmp_path, family="fancy")
        with pytest.raises(ValueError, match="seed"):
            small_config(tmp_path, seed=-1)
        with pytest.raises(ValueError, match="4096"):
            small_config(tmp_path, ladder=(4, 8, 5000))
        with pytest.raises(ValueError):
            DecayProfile(0.5, 4)
        with pytest.raises(ValueError):
            Tolerances(reconstruction=0.0)
        with pytest.raises(ValueError, match="missing"):
            config_from_json({"p": "2"})

    def test_integer_fields_reject_fractions_strings_and_booleans(self, tmp_path):
        # none of these is truncated or coerced: (16.9, 32.5) is not (16, 32)
        for ladder in ((16.9, 32.5), (4, 8.0), (True, 4), (4, "8")):
            with pytest.raises(ValueError, match="ladder entries must be integers"):
                small_config(tmp_path, ladder=ladder)
        for bad in (True, 3.0, "3"):
            with pytest.raises(ValueError, match="seed"):
                small_config(tmp_path, seed=bad)
            with pytest.raises(ValueError, match="cases_per_level"):
                small_config(tmp_path, cases_per_level=bad)
            with pytest.raises(ValueError, match="term_count"):
                DecayProfile(1.1, bad)

    def test_float_fields_reject_strings_and_booleans(self):
        # none of these is converted: True is not a tolerance of 1.0
        for build in (
            lambda: Tolerances(trace=True),
            lambda: Tolerances(reconstruction="1e-3"),
            lambda: DecayProfile("1.5", 4),
            lambda: DecayProfile(True, 4),
        ):
            with pytest.raises(ValueError, match="must be a number"):
                build()

    def test_float_fields_store_floats(self):
        assert type(DecayProfile(2, 4).exponent_multiplier) is float
        # no positive integer is a valid reconstruction tolerance
        tol = Tolerances(reconstruction=np.float64(1e-11), trace=1)
        assert (type(tol.reconstruction), type(tol.trace)) == (float, float)

    # the CLI's strict JSON parser stops a 1e400 config value before these
    # checks, so they are pinned here for library callers
    @pytest.mark.parametrize(
        "build",
        [
            lambda: Tolerances(trace=math.inf),
            lambda: Tolerances(reconstruction=math.nan),
            lambda: DecayProfile(math.inf, 4),
        ],
        ids=["trace_inf", "reconstruction_nan", "multiplier_inf"],
    )
    def test_nonfinite_values_are_rejected(self, build):
        with pytest.raises(ValueError, match="finite"):
            build()


class TestGenerateFamily:
    def test_diagonal_harmonic_weights(self, tmp_path):
        cfg = small_config(
            tmp_path, family="diagonal", decay=DecayProfile(1.0, 4), ladder=(4,)
        )
        rep = generate_family(cfg, 4)
        assert np.allclose(rep.mu, [1.0, 0.5, 1 / 3, 0.25], rtol=1e-15)
        assert np.array_equal(rep.vectors, np.eye(4))
        assert np.array_equal(rep.functionals, np.eye(4))

    def test_determinism(self, tmp_path):
        cfg = small_config(tmp_path, family="shared_functional_rotations")
        a = generate_family(cfg, 8)
        b = generate_family(cfg, 8)
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.functionals, b.functionals)

    def test_seed_changes_draws(self, tmp_path):
        a = generate_family(small_config(tmp_path, seed=1), 8)
        b = generate_family(small_config(tmp_path, seed=2), 8)
        assert not np.array_equal(a.vectors, b.vectors)

    def test_random_unit_norms(self, tmp_path):
        cfg = small_config(
            tmp_path, p=Exponent(4), decay=DecayProfile(1.1, 16), ladder=(4, 8, 16)
        )
        rep = generate_family(cfg, 16)
        conj = conjugate_tag(rep.ambient)
        assert str(conj.p) == "4/3"
        for k in range(len(rep)):
            assert abs(lp_norm(rep.vectors[k], rep.ambient) - 1) <= 1e-12
            assert abs(lp_norm(rep.functionals[k], conj) - 1) <= 1e-12

    def test_random_unit_rows_are_the_normalized_draws(self, tmp_path):
        # dividing the draws in place is bit for bit dividing a copy
        cfg = small_config(
            tmp_path, p=Exponent("3/2"), decay=DecayProfile(1.1, 16), ladder=(4, 8, 16)
        )
        rep = generate_family(cfg, 16)
        ambient = lp("3/2", 16)
        conj = conjugate_tag(ambient)
        draws = nuclear._generator(cfg.seed, 16).standard_normal((16, 2, 16))
        fun, vec = draws[:, 0], draws[:, 1]
        want = NuclearRep(ambient, harness._decay_weights(cfg.p, cfg.decay, 16),
                          fun / row_norms(fun, conj)[:, None],
                          vec / row_norms(vec, ambient)[:, None])
        assert np.array_equal(rep.mu, want.mu)
        assert np.array_equal(rep.functionals, want.functionals)
        assert np.array_equal(rep.vectors, want.vectors)

    def test_shared_functional_rotations_family(self, tmp_path):
        # rotations redistribute weights but keep the rep well formed
        cfg = small_config(tmp_path, family="shared_functional_rotations")
        rep = generate_family(cfg, 8)
        assert 2 <= len(rep) <= cfg.decay.term_count
        assert np.all(rep.mu > 0)
        assert list(rep.mu) == sorted(rep.mu, reverse=True)

    def test_level_bounds(self, tmp_path):
        with pytest.raises(ValueError):
            generate_family(small_config(tmp_path), 0)
        with pytest.raises(ValueError):
            generate_family(small_config(tmp_path), 5000)

    def test_term_count_caps_terms(self, tmp_path):
        cfg = small_config(tmp_path, decay=DecayProfile(1.1, 3))
        assert len(generate_family(cfg, 8)) == 3
        assert len(generate_family(cfg, 2)) == 2


class TestTraceSuite:
    def test_all_cases_pass(self, tmp_path):
        report = run_trace_suite(small_config(tmp_path))
        assert report.suite == "trace"
        assert report.failed == 0
        assert report.passed == len(report.cases) == 6
        assert (tmp_path / "trace_report.json").exists()
        assert (tmp_path / "trace_meta.json").exists()

    def test_seed_change_same_counts_different_data(self, tmp_path):
        r1 = run_trace_suite(small_config(tmp_path / "a", seed=11))
        r2 = run_trace_suite(small_config(tmp_path / "b", seed=12))
        assert r1.passed == r2.passed
        assert [c["trace"] for c in r1.cases] != [c["trace"] for c in r2.cases]

    def test_report_data_excludes_timing(self, tmp_path):
        run_trace_suite(small_config(tmp_path))
        data = json.loads((tmp_path / "trace_report.json").read_text())
        assert "duration" not in json.dumps(data)
        meta = json.loads((tmp_path / "trace_meta.json").read_text())
        assert meta["duration_seconds"] >= 0


class TestFactorizationSuite:
    def test_p1_reduces_to_sup(self, tmp_path):
        report = run_factorization_suite(small_config(tmp_path, p=Exponent(1)))
        assert report.failed == 0
        for case in report.cases:
            assert case["p"] == "1"
            assert case["built_on_p"] == "inf"
            assert [c["exponent"] for c in case["certificates"]] == ["2", "2", "inf"]

    def test_grid_of_p_values(self, tmp_path):
        for p in (Exponent(2), Exponent(3), Exponent(4)):
            report = run_factorization_suite(small_config(tmp_path / str(p), p=p))
            assert report.failed == 0
            assert all(c["chain_exact"] for c in report.cases)


class TestLadderSuite:
    def test_needs_three_levels(self, tmp_path):
        with pytest.raises(ValueError, match="three"):
            run_ladder_suite(small_config(tmp_path, ladder=(32,), decay=DecayProfile(1.1, 6)))

    def test_diagonal_closed_form(self, tmp_path):
        cfg = small_config(
            tmp_path,
            family="diagonal",
            decay=DecayProfile(1.1, 64),
            ladder=(16, 32, 64),
        )
        report = run_ladder_suite(cfg)
        assert report.failed == 0
        rows = [c for c in report.cases if "level" in c]
        for row in rows:
            oracle = math.fsum(k ** -1.1 for k in range(1, row["level"] + 1))
            assert row["abs_sum"] == pytest.approx(oracle, rel=1e-10)
        gap_row = next(c for c in report.cases if c.get("check") == "gap_shrinkage")
        assert gap_row["status"] == "pass"
        assert (tmp_path / "ladder.csv").read_text().startswith(
            "level,abs_sum,tail_fraction,residual\n"
        )

    def test_diagonal_config_check_predicts_the_gap_gate(self, tmp_path):
        # seeded diagonal configs, many with levels past term_count, uneven
        # levels or weights under MU_FLOOR: the config accepts exactly those
        # whose ladder suite would pass its gap gate, which is left as it was
        rng = make_rng(26)
        verdicts = set()
        for i in range(60):
            ladder = sorted(rng.choice(np.arange(1, 40), size=int(rng.integers(3, 6)),
                                       replace=False).tolist())
            multiplier = float(np.exp(rng.uniform(0.0, np.log(500.0))) if i % 2 else
                               rng.uniform(1.0, 3.0))
            data = {"p": str(rng.choice(["1", "4/3", "2", "3", "inf"])), "family": "diagonal",
                    "decay": {"exponent_multiplier": multiplier,
                              "term_count": int(rng.integers(1, ladder[-1] + 1))},
                    "ladder": ladder, "seed": 1, "cases_per_level": 1,
                    "out_dir": str(tmp_path)}
            try:
                config_from_json(data)
                accepted = True
            except ValueError as exc:
                assert "must strictly shrink" in str(exc)
                accepted = False
            # the suite's gaps, drawn through a one-level config, which the
            # rule always accepts
            one_level = small_config(tmp_path, p=data["p"], family="diagonal",
                                     decay=DecayProfile(**data["decay"]),
                                     ladder=(ladder[-1],), cases_per_level=1)
            rows = summability_ladder(lambda n: generate_family(one_level, n), ladder)
            gaps = [b.abs_sum - a.abs_sum for a, b in zip(rows, rows[1:])]
            gate = all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
            assert gate == accepted, data
            verdicts.add(accepted)
        assert verdicts == {True, False}

    def test_python_built_diagonal_config_applies_the_ladder_rule(self, tmp_path):
        # the rule lives in the dataclass, so construction and replace apply it
        with pytest.raises(ValueError, match=r"must strictly shrink, got \[0\.\d+, 0, 0\]"):
            ExperimentConfig(p=Exponent(2), family="diagonal", decay=DecayProfile(1.1, 128),
                             ladder=(64, 128, 256, 512), seed=1)
        ok = small_config(tmp_path, family="diagonal", decay=DecayProfile(1.1, 7),
                          ladder=(4, 6, 7, 8))
        with pytest.raises(ValueError, match=r"must strictly shrink, got \[.*, 0, 0\]"):
            dataclasses.replace(ok, ladder=(4, 6, 7, 8, 9))


@pytest.mark.parametrize("family", FAMILIES)
def test_every_suite_row_is_gated(tmp_path, family):
    # no row escapes the gate: each is a pass or a fail, and the tally counts
    # them all; the report directory is made by the suite itself
    cfg = small_config(tmp_path / "new" / family, family=family,
                       decay=DecayProfile(1.1, 8), ladder=(4, 6, 8))
    for run in (run_trace_suite, run_factorization_suite, run_ladder_suite):
        data = run(cfg).data_dict()
        assert {c["status"] for c in data["cases"]} <= {"pass", "fail"}
        assert data["passed"] + data["failed"] == data["total"] == len(data["cases"])
    assert (tmp_path / "new" / family / "ladder.csv").is_file()


@pytest.mark.parametrize("suite, tolerances, residual_budget", [
    ("trace", {"trace": 1e-300}, None),  # drift
    ("trace", {}, -1.0),  # spectral residual
    ("factorize", {"reconstruction": 1e-300}, None),  # reconstruction
    ("ladder", {}, -1.0),  # spectral residual per level
])
def test_every_suite_gate_can_fail(tmp_path, monkeypatch, suite, tolerances, residual_budget):
    # each gate alone turns every row it reads to fail, the tally counts
    # them, and the CLI exits 1; the ladder's gap_report row is not gated
    if residual_budget is not None:
        monkeypatch.setattr(harness, "RESIDUAL_BUDGET", residual_budget)
    cfg = small_config(tmp_path / "lib", tolerances=Tolerances(**tolerances))
    run = {"trace": run_trace_suite, "factorize": run_factorization_suite,
           "ladder": run_ladder_suite}[suite]
    report = run(cfg)
    gated = [c for c in report.cases if "check" not in c]
    assert len(gated) == (3 if suite == "ladder" else 6)
    assert all(c["status"] == "fail" for c in gated)
    assert report.failed == len(gated)
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({**config_to_json(cfg), "out_dir": str(tmp_path / "cli")}))
    assert cli_main(["suite", "--config", str(config_file), "--only", suite]) == 1


def test_diagonal_gaps_are_computed_once_per_suite(tmp_path):
    # the per-case configs differ only in their seed, which the ladder rule
    # never reads, so the suite reuses the gaps its config computed
    harness._diagonal_gaps.cache_clear()
    cfg = small_config(tmp_path, family="diagonal", decay=DecayProfile(1.1, 8),
                       ladder=(4, 6, 8), cases_per_level=3)
    report = run_trace_suite(cfg)
    assert len(report.cases) == 9 and report.failed == 0
    info = harness._diagonal_gaps.cache_info()
    assert (info.misses, info.hits) == (1, 9)


def test_acceptance_trace_suite_keeps_its_bits(tmp_path, monkeypatch):
    # each case's trace and max_drift, as recorded before merge took only
    # exact copies; a merge that picks another pair moves max_drift's last
    # bits (residual rests on LAPACK and is left out)
    searches = []
    real = nuclear._duplicate_pairs
    monkeypatch.setattr(nuclear, "_duplicate_pairs", lambda rep: searches.append(1) or real(rep))
    config = config_from_json(json.loads((CONFIGS / "acceptance_suite.json").read_text()))
    report = run_trace_suite(dataclasses.replace(config, out_dir=str(tmp_path)))
    recorded = json.loads((Path(__file__).parent / "acceptance_trace_bits.json").read_text())
    assert [[c["trace"].hex(), c["max_drift"].hex()] for c in report.cases] == recorded
    assert len(searches) == 256


class TestDeterminismAndParallelism:
    def test_byte_identical_reports(self, tmp_path):
        cfg_a = small_config(tmp_path / "a")
        cfg_b = small_config(tmp_path / "b")
        for runner in (run_trace_suite, run_factorization_suite):
            runner(cfg_a)
            runner(cfg_b)
        run_ladder_suite(small_config(tmp_path / "a", decay=DecayProfile(1.1, 6)))
        run_ladder_suite(small_config(tmp_path / "b", decay=DecayProfile(1.1, 6)))
        for name in ("trace_report.json", "factorize_report.json", "ladder_report.json", "ladder.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_suite_order_does_not_matter(self, tmp_path):
        cfg1 = small_config(tmp_path / "fwd")
        run_trace_suite(cfg1)
        run_factorization_suite(cfg1)
        cfg2 = small_config(tmp_path / "rev")
        run_factorization_suite(cfg2)
        run_trace_suite(cfg2)
        for name in ("trace_report.json", "factorize_report.json"):
            assert (tmp_path / "fwd" / name).read_bytes() == (
                tmp_path / "rev" / name
            ).read_bytes()
