from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nuctrace.harness as harness
import nuctrace.nuclear as nuclear
from nuctrace import (
    FAMILIES,
    DecayProfile,
    ExperimentConfig,
    NuclearRep,
    OrderExponent,
    SchemeNotApplicableError,
    adjoint_rep,
    assemble,
    conjugate_tag,
    generate_family,
    lp,
    nuclear_trace,
    quasi_norm_value,
    rep_from_json,
    rep_to_json,
    rewrite_equivalent,
    row_norms,
    s_from_p,
)
from nuctrace.harness import _decay_weights, _rewrite_chain
from nuctrace.nuclear import _generator, rotate_pair

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

    @pytest.mark.parametrize("p", ["1", "3/2", "2", "3", "inf"])
    def test_nonfinite_coordinates_rejected(self, p):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="coordinates must be finite"):
                NuclearRep(lp(p, 2), [1.0, 1.0], [[1, 0], [bad, 0.0]], [[1, 0], [1, 0]])
            with pytest.raises(ValueError, match="coordinates must be finite"):
                NuclearRep(lp(p, 2), [1.0], [[1, 0]], [[0.5, bad]])

    def test_overflowing_norms_and_weights_rejected(self):
        huge = [1.7e308, 1.7e308]
        # the l2 norm of finite coordinates overflows: about 2.4e308
        with pytest.raises(ValueError, match="norm overflows"):
            NuclearRep(lp(2, 2), [1.0], [huge], [[1, 0]])
        # finite norms whose product with the weight overflows
        with pytest.raises(ValueError, match="overflows"):
            NuclearRep(lp(np.inf, 2), [1.0], [[1e308, 0.0]], [[1e308, 0.0]])
        # every term finite, the weight sum is not
        with pytest.raises(ValueError, match="overflows"):
            NuclearRep(lp(2, 1), [1e308, 1e308], [[1.0]] * 2, [[1.0]] * 2)

    def test_l2_norm_of_overflowing_squares_is_finite(self):
        # the squares of 1e200 overflow, the l2 norm 1.41e200 does not
        for p in (2, 3, np.inf):
            rep = NuclearRep(lp(p, 2), [1e-250], [[1e200, 1e200]], [[1.0, 0.0]])
            assert nuclear_trace(rep) == pytest.approx(1e-50, rel=1e-15)

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

    def test_order_is_the_curve_value(self):
        assert diagonal_rep([1.0], p=2).order == OrderExponent(1)
        assert diagonal_rep([1.0], p=np.inf).order == OrderExponent("2/3")

    def test_order_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            NuclearRep(lp(2, 2), [1.0], [e(0, 2)], [e(0, 2)], order=OrderExponent("1/2"))


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


def unmarked_store():
    """A patch under which ``NuclearRep._store`` sees no parent's marks and
    so norms every row again, as the constructor does on raw input."""
    store = NuclearRep._store

    def store_without_marks(self, mu, fun, vec, take, unit=None, fresh=None, owned=False):
        store(self, mu, fun, vec, take, None, fresh, owned)

    return mock.patch.object(NuclearRep, "_store", store_without_marks)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestUnitMarks:
    """A rep marks its stored rows of norm exactly 1.0 and a rewrite norms
    only its parent's other rows; every bit must be what norming every row
    gives."""

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        p=st.sampled_from(["1", "3/2", "2", "3", "inf"]),
        n=st.integers(1, 12),
        terms=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(0, 20),
    )
    def test_rewrite_chains_keep_every_bit(self, family, p, n, terms, seed, steps):
        config = ExperimentConfig(p=p, family=family, decay=DecayProfile(1.1, min(terms, n)),
                                  ladder=(n,), seed=seed)
        with unmarked_store():
            ref = generate_family(config, n)
            ref_chain = list(_rewrite_chain(ref, steps, _generator(seed, 1)))
        rep = generate_family(config, n)
        chain = list(_rewrite_chain(rep, steps, _generator(seed, 1)))
        for a, b in zip([rep, *chain], [ref, *ref_chain]):
            for x, y in ((a.mu, b.mu), (a.functionals, b.functionals), (a.vectors, b.vectors)):
                assert same_bits(x, y)
            # a marked row's norm, taken again from its stored bits, is 1.0
            for rows, unit, tag in ((a.functionals, a._unit_fun, a.conjugate),
                                    (a.vectors, a._unit_vec, a.ambient)):
                assert np.all(row_norms(rows[unit], tag) == 1.0)
            assert a.peak_norms() == (float(row_norms(a.functionals, a.conjugate).max()),
                                      float(row_norms(a.vectors, a.ambient).max()))

    @pytest.mark.parametrize("p", ["3/2", "inf"])
    def test_peak_norms_norm_only_unmarked_rows(self, monkeypatch, p):
        n = 256
        config = ExperimentConfig(p=p, family="shared_functional_rotations",
                                  decay=DecayProfile(1.0, n), ladder=(n,), seed=7)
        rep = generate_family(config, n)
        normed = {rep.ambient: 0, rep.conjugate: 0}

        def counted(rows, tag, at=None):
            normed[tag] += len(rows) if at is None else len(at)
            return row_norms(rows, tag, at)

        monkeypatch.setattr(nuclear, "row_norms", counted)
        rep.peak_norms()
        assert normed[rep.conjugate] == np.count_nonzero(~rep._unit_fun)
        assert normed[rep.ambient] == np.count_nonzero(~rep._unit_vec)
        assert normed[rep.ambient] + normed[rep.conjugate] < n

    def test_rotate_norms_few_rows(self, monkeypatch):
        # norming every row again would take all k rows and the two rotated
        # ones on each side: 516 and 516
        n = 512
        config = ExperimentConfig(p="inf", family="shared_functional_rotations",
                                  decay=DecayProfile(1.0, n), ladder=(n,), seed=7)
        rep = generate_family(config, n)
        normed = {rep.ambient: 0, rep.conjugate: 0}

        def counted(rows, tag, at=None):
            normed[tag] += len(rows) if at is None else len(at)
            return row_norms(rows, tag, at)

        monkeypatch.setattr(nuclear, "row_norms", counted)
        rotate_pair(rep, 3, n // 2, 0.5)
        assert normed[rep.ambient] <= 4
        assert normed[rep.conjugate] < n // 4

    def test_marks_are_read_only(self):
        rep = rewrite_equivalent(diagonal_rep([1.0, 0.5]), "split", 1)
        for marks in (rep._unit_fun, rep._unit_vec):
            assert marks.tolist() == [True] * 3
            assert not marks.flags.writeable


def copied_family(config, n):
    """``generate_family`` with no rows handed over: every row drawn in one
    call, normalized in place, and gathered again by the rep."""
    k = min(config.decay.term_count, n)
    mu = _decay_weights(config.p, config.decay, k)
    ambient = lp(config.p, n)
    conj = conjugate_tag(ambient)
    rng = _generator(config.seed, n)
    if config.family == "diagonal":
        eye = np.eye(n)[:k]
        return NuclearRep(ambient, mu, eye, eye)

    def unit_rows(rows, tag):
        rows /= row_norms(rows, tag)[:, None]
        return rows

    if config.family == "random_unit":
        draws = rng.standard_normal((k, 2, n))
        return NuclearRep(ambient, mu, unit_rows(draws[:, 0], conj),
                          unit_rows(draws[:, 1], ambient))
    terms = np.arange(k)
    draws = rng.standard_normal((k + (k + 1) // 2, n))
    rep = NuclearRep(ambient, mu, unit_rows(draws[3 * (terms // 2)], conj),
                     unit_rows(draws[3 * (terms // 2) + 1 + terms % 2], ambient))
    for _ in range(min(8, len(rep)) if len(rep) >= 2 else 0):
        rep = rewrite_equivalent(rep, "rotate", int(rng.integers(2**63)))
    return rep


def owned_rows(k=6, n=5, seed=3):
    """Two distinct C-contiguous float64 row arrays, no row of norm 1.0."""
    rng = make_rng(seed)
    return rng.standard_normal((k, n)), rng.standard_normal((k, n))


# weights 1e4 apart, which no ratio of the row norms of ``owned_rows`` undoes
ORDERED_MU = 10.0 ** (-4 * np.arange(6))


class TestHandover:
    """``NuclearRep(..., _owned=True)`` stores the caller's row arrays,
    divided in place, when the terms keep their order; every bit is what
    gathering a copy gives, and any other call leaves its inputs alone."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("p", [1, "3/2", 2, 3, "inf"])
    # random_unit draws 64 KiB of rows per call: 7 terms at n = 513, 31 at
    # n = 130, 64 at n = 64, one partial block at n = 7
    @pytest.mark.parametrize("n,k", [(1, 1), (7, 5), (64, 64), (130, 64), (513, 300)])
    def test_families_keep_every_bit(self, family, p, n, k):
        config = ExperimentConfig(p=p, family=family, decay=DecayProfile(1.1, k),
                                  ladder=(n,), seed=17)
        rep, ref = generate_family(config, n), copied_family(config, n)
        for x, y in ((rep.mu, ref.mu), (rep.functionals, ref.functionals),
                     (rep.vectors, ref.vectors), (rep._unit_fun, ref._unit_fun),
                     (rep._unit_vec, ref._unit_vec)):
            assert same_bits(x, y)
            assert not x.flags.writeable

    @pytest.mark.parametrize("p", ["3/2", "inf"])
    def test_draw_blocks_of_one_and_two_terms(self, monkeypatch, p):
        n, k = 16, 15
        config = ExperimentConfig(p=p, family="random_unit", decay=DecayProfile(1.1, k),
                                  ladder=(n,), seed=5)
        ref = copied_family(config, n)
        for terms in (1, 2):
            monkeypatch.setattr(harness, "_DRAW_BYTES", 16 * n * terms)
            rep = generate_family(config, n)
            assert same_bits(rep.functionals, ref.functionals)
            assert same_bits(rep.vectors, ref.vectors)

    @pytest.mark.parametrize("p", ["3/2", 2, "inf"])
    def test_rows_in_order_are_stored_in_place(self, p):
        fun, vec = owned_rows()
        ref = NuclearRep(lp(p, 5), ORDERED_MU, fun.copy(), vec.copy())
        rep = NuclearRep(lp(p, 5), ORDERED_MU, fun, vec, _owned=True)
        assert rep.functionals is fun and rep.vectors is vec
        for x, y in ((rep.mu, ref.mu), (rep.functionals, ref.functionals),
                     (rep.vectors, ref.vectors), (rep._unit_fun, ref._unit_fun),
                     (rep._unit_vec, ref._unit_vec)):
            assert same_bits(x, y)
        assert not fun.flags.writeable and not vec.flags.writeable

    @pytest.mark.parametrize("case", ["reordered", "dropped", "shared", "fortran", "read-only"])
    def test_other_rows_are_copied(self, case):
        fun, vec = owned_rows()
        mu = {"reordered": ORDERED_MU[::-1],
              "dropped": np.where(np.arange(6) == 2, 0.0, ORDERED_MU)}.get(case, ORDERED_MU)
        if case == "shared":
            vec = fun
        elif case == "fortran":
            fun = np.asfortranarray(fun)
        elif case == "read-only":
            vec.flags.writeable = False
        before = fun.copy(), vec.copy()
        writeable = fun.flags.writeable, vec.flags.writeable
        ref = NuclearRep(lp("3/2", 5), mu, *(a.copy() for a in before))
        rep = NuclearRep(lp("3/2", 5), mu, fun, vec, _owned=True)
        assert len(rep) == (5 if case == "dropped" else 6)
        for x, y in ((rep.mu, ref.mu), (rep.functionals, ref.functionals),
                     (rep.vectors, ref.vectors)):
            assert same_bits(x, y)
        assert (fun.flags.writeable, vec.flags.writeable) == writeable
        for given, kept in zip((fun, vec), before):
            assert same_bits(given, kept)
            assert not np.shares_memory(given, rep.functionals)
            assert not np.shares_memory(given, rep.vectors)

    def test_rejected_rows_are_left_alone(self):
        fun, vec = owned_rows()
        vec[4, 1] = np.nan
        before = fun.copy(), vec.copy()
        with pytest.raises(ValueError, match="finite"):
            NuclearRep(lp(2, 5), ORDERED_MU, fun, vec, _owned=True)
        for given, kept in zip((fun, vec), before):
            assert given.flags.writeable
            assert given.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("p", [1, "3/2", 2, "inf"])
    def test_public_call_never_writes_its_inputs(self, p):
        fun, vec = owned_rows()
        mu = ORDERED_MU.copy()
        before = mu.copy(), fun.copy(), vec.copy()
        rep = NuclearRep(lp(p, 5), mu, fun, vec)
        for given, kept in zip((mu, fun, vec), before):
            assert given.flags.writeable
            assert same_bits(given, kept)
            for stored in (rep.mu, rep.functionals, rep.vectors):
                assert not np.shares_memory(given, stored)


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

    @pytest.mark.parametrize("p", ["1", "3/2", "2", "3", "inf"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_roundtrip_keeps_the_curve_order(self, family, p):
        config = ExperimentConfig(p=p, family=family, decay=DecayProfile(1.1, 6),
                                  ladder=(8,), seed=3)
        data = rep_to_json(rep_from_json(rep_to_json(generate_family(config, 8))))
        assert data["order_s"] == str(s_from_p(p))

    def test_order_off_the_curve_is_rejected(self):
        data = rep_to_json(diagonal_rep([1.0, 0.5], p=2))
        data["order_s"] = "1/2"
        with pytest.raises(ValueError) as info:
            rep_from_json(data)
        assert "\n" not in str(info.value)
        assert "1/2" in str(info.value) and "order 1" in str(info.value)
        del data["order_s"]
        assert rep_from_json(data).order == OrderExponent(1)

    @pytest.mark.parametrize(
        ("key", "value", "kind"),
        [
            ("mu", "1.5", "str"),
            ("mu", True, "bool"),
            ("functional", [True, 0.0], "bool"),
            ("functional", ["1", 0], "str"),
            ("vector", [0.5, "0"], "str"),
            ("vector", [0.5, None], "NoneType"),
            ("vector", [[0.5], 0.0], "list"),
        ],
    )
    def test_numbers_must_be_json_numbers(self, key, value, kind):
        data = rep_to_json(diagonal_rep([1.0, 0.5], p=2))
        data["terms"][1][key] = value
        with pytest.raises(ValueError, match=f"must be JSON numbers, got a {kind}$"):
            rep_from_json(data)

    def test_integers_are_numbers(self):
        data = rep_to_json(diagonal_rep([1.0, 0.5], p=2))
        data["terms"][1] = {"mu": 2, "functional": [0, 1], "vector": [0, 1]}
        assert rep_from_json(data).mu.tolist() == [2.0, 1.0]
