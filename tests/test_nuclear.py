import numpy as np
import pytest

from nuctrace import (
    NuclearRep,
    OrderExponent,
    SchemeNotApplicableError,
    adjoint_rep,
    assemble,
    lp,
    nuclear_trace,
    quasi_norm_value,
    rep_from_json,
    rep_to_json,
    rewrite_equivalent,
)

from conftest import make_rng, random_rep


def e(i, n):
    out = np.zeros(n)
    out[i] = 1.0
    return out


def diagonal_rep(mu, p=2, dim=None):
    eye = np.eye(dim or len(mu))[: len(mu)]
    return NuclearRep(lp(p, eye.shape[1]), mu, eye, eye)


class TestConstruction:
    def test_scales_are_absorbed_into_mu(self):
        rep = NuclearRep(lp(2, 2), [2.0], [[3.0, 0.0]], [[0.0, 5.0]])
        assert rep.mu[0] == pytest.approx(30.0, rel=1e-14)
        assert np.allclose(rep.functionals[0], [1.0, 0.0])
        assert np.allclose(rep.vectors[0], [0.0, 1.0])

    def test_terms_sorted_nonincreasing(self):
        rep = diagonal_rep([0.1, 3.0, 1.0])
        assert list(rep.mu) == sorted(rep.mu, reverse=True)

    def test_underflow_terms_dropped(self):
        rep = NuclearRep(lp(2, 2), [1e-301, 1.0], np.eye(2), np.eye(2))
        assert len(rep) == 1

    def test_term_whose_squares_underflow_is_kept(self):
        # 1e-200 squares to 0.0, which made the l2 norm 0 and dropped the term
        for p in (2, 3):
            rep = NuclearRep(lp(p, 2), [1e250], [[1e-200, 0.0]], [[1.0, 0.0]])
            assert len(rep) == 1
            assert nuclear_trace(rep) == pytest.approx(1e50, rel=1e-15)

    def test_negative_or_nonfinite_mu_rejected(self):
        with pytest.raises(ValueError):
            NuclearRep(lp(2, 2), [-1.0], [[1, 0]], [[1, 0]])
        with pytest.raises(ValueError):
            NuclearRep(lp(2, 2), [float("nan")], [[1, 0]], [[1, 0]])

    def test_nonfinite_coordinates_rejected(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="coordinates must be finite"):
                NuclearRep(lp(2, 2), [1.0, 1.0], [[1, 0], [bad, 0.0]], [[1, 0], [1, 0]])
            with pytest.raises(ValueError, match="coordinates must be finite"):
                NuclearRep(lp(np.inf, 2), [1.0], [[1, 0]], [[0.5, bad]])

    def test_overflowing_norms_and_weights_rejected(self):
        huge = [1e308, 1e308]
        # the l2 norm of finite coordinates overflows
        with pytest.raises(ValueError, match="norm overflows"):
            NuclearRep(lp(2, 2), [1.0], [huge], [[1, 0]])
        # finite norms whose product with the weight overflows
        with pytest.raises(ValueError, match="overflows"):
            NuclearRep(lp(np.inf, 2), [1.0], [[1e308, 0.0]], [[1e308, 0.0]])
        # every term finite, the weight sum is not
        with pytest.raises(ValueError, match="overflows"):
            NuclearRep(lp(2, 1), [1e308, 1e308], [[1.0]] * 2, [[1.0]] * 2)

    def test_arrays_and_nested_lists_build_the_same_rep(self):
        rng = make_rng(76)
        mu = rng.uniform(0.1, 2.0, 4)
        fun, vec = rng.standard_normal((4, 5)), rng.standard_normal((4, 5))
        copies = [a.copy() for a in (mu, fun, vec)]
        rep = NuclearRep(lp(3, 5), mu, fun, vec)
        # the inputs are left alone and the stored arrays are read-only
        for given, copy in zip((mu, fun, vec), copies):
            assert np.array_equal(given, copy)
        for stored in (rep.mu, rep.functionals, rep.vectors):
            assert not stored.flags.writeable
        again = NuclearRep(lp(3, 5), mu.tolist(), fun.tolist(), vec.tolist())
        for a, b in ((rep.mu, again.mu), (rep.functionals, again.functionals),
                     (rep.vectors, again.vectors)):
            assert np.array_equal(a, b)

    def test_weights_and_rows_must_match_in_shape(self):
        with pytest.raises(ValueError, match="1-d"):
            NuclearRep(lp(2, 2), [[1.0]], [[1, 0]], [[1, 0]])
        with pytest.raises(ValueError, match="do not match"):
            NuclearRep(lp(2, 2), [1.0, 2.0], [[1, 0]], [[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="do not match"):
            NuclearRep(lp(2, 2), [1.0], [[1, 0, 0]], [[1, 0]])
        with pytest.raises(ValueError, match="do not match"):
            NuclearRep(lp(2, 2), [], [[1, 0]], [])

    def test_ambient_must_be_lp(self):
        from nuctrace import c0

        with pytest.raises(ValueError):
            NuclearRep(c0(2), [1.0], [[1, 0]], [[1, 0]])

    def test_order_defaults_to_curve(self):
        assert diagonal_rep([1.0], p=2).order == OrderExponent(1)
        assert diagonal_rep([1.0], p=np.inf).order == OrderExponent("2/3")


class TestQuasiNorm:
    def test_single_unit_term(self):
        rep = diagonal_rep([1.0])
        for s in ("1", "2/3", "1/2"):
            assert quasi_norm_value(rep, OrderExponent(s)) == pytest.approx(1.0, rel=1e-14)

    def test_two_terms_plain_sum_at_s_1(self):
        rep = diagonal_rep([1.0, 1.0])
        assert quasi_norm_value(rep, OrderExponent(1)) == pytest.approx(2.0, rel=1e-14)

    def test_two_terms_s_two_thirds(self):
        rep = diagonal_rep([1.0, 1.0])
        # direct formula: (1^s + 1^s)^(1/s) = 2^(3/2)
        assert quasi_norm_value(rep, OrderExponent("2/3")) == pytest.approx(
            2.8284271247461903, rel=1e-13
        )

    def test_nonincreasing_in_s(self):
        rng = make_rng(77)
        rep = random_rep(rng, 3, 10, 6)
        values = [
            quasi_norm_value(rep, OrderExponent(s))
            for s in ("1/4", "1/3", "1/2", "2/3", "4/5", "1")
        ]
        for a, b in zip(values, values[1:]):
            assert b <= a * (1 + 1e-12)


class TestTraceAndAssemble:
    def test_trace_examples(self):
        rep = NuclearRep(lp(2, 3), [3.0], [e(0, 3)], [e(0, 3)])
        assert nuclear_trace(rep) == pytest.approx(3.0, rel=1e-14)
        nil = NuclearRep(lp(2, 3), [1.0], [e(0, 3)], [e(1, 3)])
        assert nuclear_trace(nil) == 0.0
        mu = [0.9, 0.5, 0.2]
        assert nuclear_trace(diagonal_rep(mu)) == pytest.approx(sum(mu), rel=1e-14)

    def test_assemble_nilpotent_position(self):
        nil = NuclearRep(lp(2, 3), [1.0], [e(0, 3)], [e(1, 3)])
        m = assemble(nil).matrix
        expected = np.zeros((3, 3))
        expected[1, 0] = 1.0
        assert np.array_equal(m, expected)
        assert np.trace(m) == 0.0

    def test_assemble_diagonal(self):
        m = assemble(diagonal_rep([1.0, 0.25])).matrix
        assert np.array_equal(m, np.diag([1.0, 0.25]))

    def test_assemble_trace_matches_direct_summation_oracle(self):
        rng = make_rng(78)
        rep = random_rep(rng, 2, 8, 5)
        # oracle: plain python loops over the stored terms
        oracle = 0.0
        for k in range(len(rep)):
            dot = 0.0
            for i in range(8):
                dot += rep.functionals[k][i] * rep.vectors[k][i]
            oracle += rep.mu[k] * dot
        mu_sum = float(rep.mu.sum())
        assert abs(np.trace(assemble(rep).matrix) - oracle) <= 1e-12 * (1 + mu_sum)
        assert abs(nuclear_trace(rep) - oracle) <= 1e-12 * (1 + mu_sum)

    def test_assemble_is_linear_in_the_term_list(self):
        rng = make_rng(79)
        rep1 = random_rep(rng, 2, 6, 3)
        rep2 = random_rep(rng, 2, 6, 4)
        both = NuclearRep(
            rep1.ambient,
            np.concatenate([rep1.mu, rep2.mu]),
            np.concatenate([rep1.functionals, rep2.functionals]),
            np.concatenate([rep1.vectors, rep2.vectors]),
        )
        lhs = assemble(both).matrix
        rhs = assemble(rep1).matrix + assemble(rep2).matrix
        assert np.linalg.norm(lhs - rhs) <= 1e-13 * max(np.linalg.norm(lhs), 1.0)

    def test_empty_rep_assembles_to_zero(self):
        rep = NuclearRep(lp(2, 4), [], [], [])
        zero = assemble(rep).matrix
        assert np.array_equal(zero, np.zeros((4, 4)))
        assert not zero.flags.writeable
        assert nuclear_trace(rep) == 0.0
        assert quasi_norm_value(rep, OrderExponent(1)) == 0.0


class TestAdjoint:
    def test_transpose_and_trace(self):
        rng = make_rng(80)
        rep = random_rep(rng, "4/3", 7, 5)
        adj = adjoint_rep(rep)
        assert str(adj.ambient.p) == "4"
        assert np.allclose(assemble(adj).matrix, assemble(rep).matrix.T, atol=1e-15)
        assert nuclear_trace(adj) == pytest.approx(nuclear_trace(rep), rel=1e-12)
        assert adj.order == rep.order


class TestRewrites:
    def test_split_doubles_terms_same_matrix(self):
        rep = NuclearRep(lp(2, 3), [2.0], [e(0, 3)], [e(1, 3)])
        out = rewrite_equivalent(rep, "split", seed=1)
        assert len(out) == 2
        assert np.allclose(assemble(out).matrix, assemble(rep).matrix)
        assert np.allclose(out.mu, [1.0, 1.0])

    def test_merge_inverts_split(self):
        rep = diagonal_rep([1.5, 0.5])
        split = rewrite_equivalent(rep, "split", seed=3)
        merged = rewrite_equivalent(split, "merge", seed=4)
        assert len(merged) == 2
        assert np.allclose(sorted(merged.mu), sorted(rep.mu))
        assert np.allclose(assemble(merged).matrix, assemble(rep).matrix)

    def test_merge_rejects_rep_without_parallel_pair(self):
        rep = diagonal_rep([1.0, 0.5])
        with pytest.raises(SchemeNotApplicableError):
            rewrite_equivalent(rep, "merge", seed=5)

    def test_rotate_pair_with_shared_functional_at_quarter_pi(self):
        from nuctrace.nuclear import rotate_pair

        f = np.array([1.0, 0.0, 0.0])
        rep = NuclearRep(lp(2, 3), [1.0, 0.5], [f, f], [e(1, 3), e(2, 3)])
        before = assemble(rep).matrix
        rotated = rotate_pair(rep, 0, 1, np.pi / 4)
        after = assemble(rotated).matrix
        assert np.linalg.norm(after - before) <= 1e-12 * (1 + np.linalg.norm(before))
        # theta = pi/4 on a shared-functional pair merges the two terms
        assert len(rotated) == 1

    def test_rotate_random_pair_preserves_matrix(self):
        rng = make_rng(81)
        rep = random_rep(rng, 2, 6, 4)
        before = assemble(rep).matrix
        out = rewrite_equivalent(rep, "rotate", seed=11)
        assert np.linalg.norm(assemble(out).matrix - before) <= 1e-12 * (
            1 + np.linalg.norm(before)
        )
        assert not np.array_equal(out.mu, rep.mu)

    def test_rotate_needs_two_terms(self):
        with pytest.raises(SchemeNotApplicableError):
            rewrite_equivalent(diagonal_rep([1.0]), "rotate", seed=1)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            rewrite_equivalent(diagonal_rep([1.0]), "shear", seed=1)

    def test_rewrites_deterministic_in_seed(self):
        rng = make_rng(82)
        rep = random_rep(rng, 2, 5, 4)
        a = rewrite_equivalent(rep, "rotate", seed=99)
        b = rewrite_equivalent(rep, "rotate", seed=99)
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.vectors, b.vectors)

    def test_trace_stable_under_rewrite_chains(self):
        rng = make_rng(83)
        for trial in range(10):
            rep = random_rep(rng, 2, 8, 5)
            mu_sum = float(rep.mu.sum())
            t0 = nuclear_trace(rep)
            cur = rep
            for step in range(10):
                scheme = ("split", "rotate", "merge")[int(rng.integers(3))]
                try:
                    cur = rewrite_equivalent(cur, scheme, seed=int(rng.integers(2**32)))
                except SchemeNotApplicableError:
                    cur = rewrite_equivalent(cur, "split", seed=int(rng.integers(2**32)))
                assert abs(nuclear_trace(cur) - t0) <= 1e-10 * (1 + mu_sum)


class TestJson:
    def test_roundtrip_preserves_operator(self):
        rng = make_rng(85)
        rep = random_rep(rng, "7/3", 6, 5)
        again = rep_from_json(rep_to_json(rep))
        assert again.ambient == rep.ambient
        assert again.order == rep.order
        assert len(again) == len(rep)
        assert np.allclose(assemble(again).matrix, assemble(rep).matrix, atol=1e-14)

    def test_json_shape(self):
        rep = diagonal_rep([1.0, 0.5], p=2)
        data = rep_to_json(rep)
        assert data["ambient"] == {"p": "2", "dim": 2}
        assert data["order_s"] == "1"
        assert {"mu", "functional", "vector"} == set(data["terms"][0])
