import math

import numpy as np
import pytest

from nuctrace import (
    FAMILIES,
    DecayProfile,
    DenseOperator,
    ExperimentConfig,
    NuclearRep,
    assemble,
    eigen_spectrum,
    generate_family,
    ladder_csv,
    lp,
    nuclear,
    quasi_norm_value,
    s_from_p,
    spectra,
    spectral_report,
    summability_ladder,
)
from nuctrace.spectra import RESIDUAL_BUDGET

from conftest import make_rng, random_rep


def e(i, n):
    out = np.zeros(n)
    out[i] = 1.0
    return out


def diagonal_rep(mu, p=2):
    eye = np.eye(len(mu))
    return NuclearRep(lp(p, len(mu)), mu, eye, eye)


def op(matrix):
    n = len(matrix)
    return DenseOperator(np.asarray(matrix, dtype=float), lp(2, n), lp(2, n))


class TestEigenSpectrum:
    def test_diagonal_sorted_by_modulus(self):
        ev = eigen_spectrum(op(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(ev, [3.0, 2.0, 1.0])

    def test_nilpotent_is_all_zeros(self):
        nil = assemble(NuclearRep(lp(2, 4), [1.0], [e(0, 4)], [e(1, 4)]))
        assert np.allclose(eigen_spectrum(nil), 0.0)

    def test_off_diagonal_quarter(self):
        # characteristic polynomial lambda^2 = 1/4, by hand
        ev = eigen_spectrum(op([[0.0, 1.0], [0.25, 0.0]]))
        assert np.allclose(ev, [0.5, -0.5], atol=1e-14)

    def test_tie_break_by_ascending_argument(self):
        m = np.zeros((4, 4))
        m[0, 1], m[1, 0] = -1.0, 1.0  # eigenvalues +-i
        m[2, 2], m[3, 3] = 1.0, -1.0
        ev = eigen_spectrum(op(m))
        assert np.allclose(ev, [-1j, 1.0, 1j, -1.0], atol=1e-12)

    def test_zero_modulus_sorts_last(self):
        ev = eigen_spectrum(op(np.diag([0.0, -2.0, 0.0, 1.0])))
        assert np.allclose(ev, [-2.0, 1.0, 0.0, 0.0])

    def test_rejects_non_endomorphism(self):
        bad = DenseOperator(np.ones((2, 3)), lp(2, 3), lp(2, 2))
        with pytest.raises(ValueError):
            eigen_spectrum(bad)


class TestSpectralReport:
    def test_diagonal_example(self):
        report = spectral_report(diagonal_rep([1.0, 0.5]))
        assert np.allclose(report.eigenvalues, [1.0, 0.5])
        assert report.lidskii_residual <= 1e-12
        assert report.matrix_trace == pytest.approx(1.5, rel=1e-14)

    def test_nilpotent_example(self):
        rep = NuclearRep(lp(2, 3), [1.0], [e(0, 3)], [e(1, 3)])
        report = spectral_report(rep)
        assert report.eigen_sum == 0
        assert report.lidskii_residual <= 1e-12

    def test_random_rep_residual_within_budget(self):
        rng = make_rng(31)
        rep = random_rep(rng, 2, 32, 10)
        report = spectral_report(rep)
        assert report.lidskii_residual <= 1e-9 * (1 + float(rep.mu.sum()))
        # finite-dimensional trace identity, the independent oracle
        assert abs(report.matrix_trace - report.eigen_sum) <= 1e-9 * (1 + report.abs_sum)
        assert report.abs_sum >= abs(report.eigen_sum)
        assert abs(report.eigen_sum.imag) <= 1e-9 * (1 + report.abs_sum)

    def test_similarity_invariance(self):
        rng = make_rng(32)
        rep = random_rep(rng, 2, 16, 8)
        m = assemble(rep).matrix
        base = np.sort_complex(eigen_spectrum(assemble(rep)))
        norm = np.linalg.norm(m, 2)
        for trial in range(5):
            t = np.eye(16) + 0.15 * rng.standard_normal((16, 16))
            if np.linalg.cond(t) > 10:
                continue
            conjugated = DenseOperator(t @ m @ np.linalg.inv(t), rep.ambient, rep.ambient)
            ev = np.sort_complex(eigen_spectrum(conjugated))
            assert np.abs(ev - base).max() <= 1e-6 * norm
            assert abs(ev.sum() - base.sum()) <= 1e-8 * (1 + np.abs(base).sum())

    def test_coefficient_matrix_is_shared_not_copied(self, monkeypatch):
        built = []

        def spy(matrix, domain, codomain):
            op = DenseOperator(matrix, domain, codomain)
            built.append((matrix, op))
            return op

        monkeypatch.setattr(spectra, "DenseOperator", spy)
        rep = random_rep(make_rng(33), 2, 8, 3)  # 3 distinct functionals, n = 8
        f = rep.functionals
        shared = NuclearRep(rep.ambient, rep.mu, [f[0], f[0], f[1]], rep.vectors)
        for r in (rep, shared):
            spectral_report(r)
        assert [m.shape for m, _ in built] == [(3, 3), (2, 2)]
        for matrix, op in built:
            assert not matrix.flags.writeable and op.matrix is matrix

    @pytest.mark.parametrize(
        "fun, heads, labels",
        [
            (make_rng(35).standard_normal((5, 4)), [0, 1, 2, 3, 4], [0, 1, 2, 3, 4]),
            (np.tile([0.5, -1.0, 0.25], (4, 1)), [0], [0, 0, 0, 0]),
            (np.zeros((0, 4)), [], []),
        ],
        ids=["no_shared_row", "all_rows_shared", "no_rows"],
    )
    def test_distinct_functionals(self, fun, heads, labels):
        got_heads, got_labels = nuclear._equal_rows(fun)
        for got, expected in ((got_heads, heads), (got_labels, labels)):
            assert got.dtype == np.intp
            assert got.tolist() == expected


class TestLadder:
    def test_closed_form_partial_sums(self):
        levels = [32, 64, 128, 256]
        mu_full = np.arange(1, levels[-1] + 1, dtype=float) ** -1.1

        rows = summability_ladder(lambda n: diagonal_rep(mu_full[:n]), levels)
        assert [r.level for r in rows] == levels
        for row in rows:
            oracle = math.fsum(k ** -1.1 for k in range(1, row.level + 1))
            assert row.abs_sum == pytest.approx(oracle, rel=1e-10)
            assert row.residual <= 1e-9 * (1 + row.abs_sum)
        gaps = [b.abs_sum - a.abs_sum for a, b in zip(rows, rows[1:])]
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))

    def test_tail_fraction_cutoff_quarter(self):
        # three equal weights at level 8: cutoff index 8 // 4 = 2, so the
        # tail keeps the third-ranked eigenvalue: fraction 1/3
        rep = diagonal_rep([0.5, 0.5, 0.5], p=2)
        rows = summability_ladder(lambda n: rep, [8])
        assert rows[0].tail_fraction == pytest.approx(1 / 3, rel=1e-12)

    def test_rows_in_ladder_order_and_residuals(self):
        rng = make_rng(34)
        reps = {n: random_rep(make_rng(34, n), 2, n, 8) for n in (32, 64)}
        rows = summability_ladder(lambda n: reps[n], [32, 64])
        assert [r.level for r in rows] == [32, 64]
        for row in rows:
            assert row.residual <= 1e-9 * (1 + row.abs_sum)

    def test_rejects_non_increasing_ladder(self):
        with pytest.raises(ValueError):
            summability_ladder(lambda n: diagonal_rep([1.0]), [32, 32])

    def test_csv_format(self):
        rows = summability_ladder(lambda n: diagonal_rep([1.0, 0.5][:n]), [1, 2])
        text = ladder_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "level,abs_sum,tail_fraction,residual"
        fields = lines[1].split(",")
        assert fields[0] == "1"
        # fixed scientific notation, 12 significant digits
        assert fields[1] == "1.00000000000e+00"
        mantissa, _, exp = fields[2].partition("e")
        assert len(mantissa.split(".")[1]) == 11 and len(exp) == 3


@pytest.mark.parametrize("p", (1, "4/3", "3/2", 2, 3, "inf"))
@pytest.mark.parametrize("family", FAMILIES)
def test_eigenvalue_moduli_summed_within_the_quasi_norm(family, p):
    # the paper's bound sum |lambda| <= nu_s(T) with s = s_from_p(p), read
    # on the family's own representation value, an upper bound for nu_s(T)
    for n in (8, 16, 32, 64):
        for seed in range(4):
            config = ExperimentConfig(p=p, family=family, decay=DecayProfile(1.1, n),
                                      ladder=(n,), seed=seed)
            rep = generate_family(config, n)
            nu_s = quasi_norm_value(rep, s_from_p(config.p))
            abs_sum = spectral_report(rep).abs_sum
            assert abs_sum <= nu_s + RESIDUAL_BUDGET * (1.0 + nu_s)
            if family == "diagonal" and config.p == 2:
                # s = 1 and the eigenvalues are the weights: the bound is attained
                assert abs_sum / nu_s == 1.0
