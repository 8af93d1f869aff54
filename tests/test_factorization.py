import numpy as np
import orjson
import pytest

import nuctrace.factorization as factorization
from nuctrace import (
    INF,
    DecayProfile,
    DenseOperator,
    ExperimentConfig,
    Exponent,
    NuclearRep,
    ParameterTriple,
    adjoint_rep,
    assemble,
    build_pipeline,
    check_holder_chain,
    compose,
    generate_family,
    lp,
    pipeline_to_json,
    rep_from_json,
    rep_to_json,
    rewrite_equivalent,
    run_factorization_suite,
    run_ladder_suite,
    summing_certificates,
)
from nuctrace.nuclear import rotate_pair

from conftest import chain_rows, make_rng, random_rep, traced_peak


def diagonal_rep(mu, p):
    eye = np.eye(len(mu))
    return NuclearRep(lp(p, len(mu)), mu, eye, eye)


class TestEvenSplit:
    @pytest.mark.parametrize("p", ["4/3", 2, 3, np.inf])
    def test_halves_are_one_frozen_copy_of_mu_to_the_s_half(self, p):
        rep = diagonal_rep(make_rng(21).uniform(1e-6, 5.0, size=32), p)
        pipe = build_pipeline(rep)
        half = pipe.stages["D1"].diag
        assert half is pipe.stages["D2"].diag and not half.flags.writeable
        assert not np.shares_memory(half, rep.mu)
        assert np.array_equal(half, np.power(rep.mu, float(pipe.triple.s) / 2))

    def test_eighth_at_p_inf(self):
        # s = 2/3: (1/8)^(s/2) = (1/8)^(1/3) = 1/2
        pipe = build_pipeline(diagonal_rep([0.125], np.inf))
        assert pipe.stages["D1"].diag[0] == pytest.approx(0.5, rel=1e-14)


class TestBuildPipeline:
    def test_hilbert_diagonal_example(self):
        rep = diagonal_rep([1.0, 0.25], p=2)
        pipe = build_pipeline(rep)
        # s = 1: the decay stage is the identity and composes away
        assert np.array_equal(pipe.stages["D_one_minus_s"].matrix, np.eye(2))
        assert np.allclose(np.diag(pipe.stages["D1"].matrix), [1.0, 0.5], rtol=1e-14)
        assert np.allclose(np.diag(pipe.stages["D2"].matrix), [1.0, 0.5], rtol=1e-14)
        composed = compose(tuple(pipe.stages.values())).matrix
        assert np.allclose(composed, np.diag([1.0, 0.25]), rtol=1e-14)
        assert str(pipe.triple.r) == "inf"

    def test_sup_space_uses_cube_root_decay(self):
        mu = [1.0, 1.0 / 8, 1.0 / 27]
        rep = diagonal_rep(mu, p=np.inf)
        pipe = build_pipeline(rep)
        d1ms = np.diag(pipe.stages["D_one_minus_s"].matrix)
        assert np.allclose(d1ms, np.power(mu, 1 / 3), rtol=1e-14)
        assert str(pipe.triple.r) == "2"

    def test_reconstruction_random_p4(self):
        rng = make_rng(22)
        rep = random_rep(rng, 4, 16, 6)
        pipe = build_pipeline(rep)
        target = assemble(rep).matrix
        err = np.linalg.norm(compose(tuple(pipe.stages.values())).matrix - target)
        assert err <= 1e-10 * (1 + np.linalg.norm(target))

    def test_stages_a_and_b_share_the_reps_rows(self):
        rep = random_rep(make_rng(23), 3, 12, 5)
        pipe = build_pipeline(rep)
        assert np.shares_memory(pipe.stages["A"].matrix, rep.functionals)
        assert np.shares_memory(pipe.stages["B"].matrix, rep.vectors)
        assert np.shares_memory(pipe.mu, rep.mu) and not pipe.mu.flags.writeable
        assert not assemble(rep).matrix.flags.writeable

    def test_stage_tags_chain(self):
        rep = diagonal_rep([1.0, 0.5], p=3)
        stages = list(build_pipeline(rep).stages.values())
        for a, b in zip(stages, stages[1:]):
            assert a.codomain == b.domain
        assert stages[0].domain == rep.ambient
        assert stages[-1].codomain == rep.ambient
        kinds = [s.codomain.kind for s in stages[:-1]]
        assert kinds == ["linf", "lp", "c0", "lp", "lp"]

    @pytest.mark.parametrize("p", [1, "4/3", "3/2"])
    def test_small_p_factors_the_transpose_on_the_reps_rows(self, p):
        rep = random_rep(make_rng(29), p, 12, 8)
        pipe, adj = build_pipeline(rep), build_pipeline(adjoint_rep(rep))
        assert np.shares_memory(pipe.stages["A"].matrix, rep.vectors)
        assert np.shares_memory(pipe.stages["B"].matrix, rep.functionals)
        assert pipe.triple == adj.triple
        tags = [(st.domain, st.codomain) for st in pipe.stages.values()]
        assert tags == [(st.domain, st.codomain) for st in adj.stages.values()]
        got = compose(tuple(pipe.stages.values())).matrix
        want = compose(tuple(adj.stages.values())).matrix
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    @pytest.mark.parametrize("p", [1, "4/3", "3/2", 2, 3, np.inf])
    @pytest.mark.parametrize("n, k", [(1, 3), (127, 60), (129, 200), (300, 131)])
    def test_reconstruction_error_has_the_bits_of_the_fresh_difference(self, p, n, k):
        rep = random_rep(make_rng(30, n), p, n, k)
        pipe = build_pipeline(rep)
        _, _, target = chain_rows(rep)
        fresh = compose(tuple(pipe.stages.values())).matrix - target
        assert pipe.reconstruction_error == float(np.linalg.norm(fresh))
        assert pipe.target_norm == float(np.linalg.norm(target))

    @staticmethod
    def heavy_rep(p=3):
        # |target|_F is about 5e202, so its sum of squares overflows a double
        rng = make_rng(31)
        n = 64
        return NuclearRep(lp(p, n), np.full(n, 1e200), rng.standard_normal((n, n)),
                          rng.standard_normal((n, n)))

    def test_norms_past_the_double_range_stay_finite(self):
        pipe = build_pipeline(self.heavy_rep())
        assert 1e202 < pipe.target_norm < 1e203
        assert 0.0 < pipe.reconstruction_error < 1e-13 * pipe.target_norm

    @pytest.mark.parametrize("p", [3, "3/2"])
    def test_reconstruction_gate_checks_norms_past_the_double_range(self, monkeypatch, p):
        # a product off by 1e-6 relative must fail the gate in either
        # orientation, even where the plain Frobenius norms of target and
        # difference are both inf
        real = factorization.compose

        def off(ops):
            op = real(ops)
            return DenseOperator(op.matrix * (1 + 1e-6), op.domain, op.codomain)

        monkeypatch.setattr(factorization, "compose", off)
        with pytest.raises(RuntimeError, match="does not reconstruct"):
            build_pipeline(self.heavy_rep(p))

    @pytest.mark.parametrize("p", ["3/2", 2, np.inf])
    def test_difference_in_several_blocks(self, monkeypatch, p):
        # n = 300 runs as one block; at 128 rows a block it runs as three,
        # 128 + 128 + 44 rows, of the target and of the product alike.
        # Each entry of a computed product of B (n x k) and the scaled rows
        # S (k x n) lies within gamma_k (|B||S|)_ij of the exact one,
        # gamma_k = k eps / (1 - k eps), so the two products differ by at
        # most 2 gamma_k |B|_F |S|_F in Frobenius norm; the target's GEMM
        # of its weighted rows W (k x n) with A's rows R (k x n) likewise by
        # 2 gamma_k |W|_F |R|_F.  The subtraction rounds each difference d
        # once more (eps |d|), and the norm of n^2 entries, whole or from
        # the block norms, is good to gamma_(n^2) relative.
        n, k = 300, 131
        rep = random_rep(make_rng(32, n), p, n, k)
        whole = build_pipeline(rep)
        monkeypatch.setattr(factorization, "_BLOCK_BYTES", 128 * n * 8)
        blocked = build_pipeline(rep)
        eps = np.finfo(np.float64).eps / 2

        def gamma(m):
            return m * eps / (1 - m * eps)

        rows_a, rows_b, _ = chain_rows(rep)
        norms = blocked.target_norm + whole.target_norm
        bound = (2 * gamma(k) * np.linalg.norm(rep.mu[:, None] * rows_b) * np.linalg.norm(rows_a)
                 + gamma(n * n) * norms)
        assert abs(blocked.target_norm - whole.target_norm) <= bound
        stages = tuple(whole.stages.values())
        scaled = compose(stages[:-1]).matrix
        errs = blocked.reconstruction_error + whole.reconstruction_error
        bound = (2 * gamma(k) * np.linalg.norm(stages[-1].matrix) * np.linalg.norm(scaled)
                 + (eps + gamma(n * n)) * errs)
        assert abs(blocked.reconstruction_error - whole.reconstruction_error) <= bound
        # a product off by 1e-6 relative still fails the gate block by block
        real = factorization.compose

        def off(ops):
            op = real(ops)
            return DenseOperator(op.matrix * (1 + 1e-6), op.domain, op.codomain)

        monkeypatch.setattr(factorization, "compose", off)
        with pytest.raises(RuntimeError, match="does not reconstruct"):
            build_pipeline(rep)

    def test_norms_of_tiny_weights_do_not_underflow(self):
        # at weights near 2^-560 every square of the target's and the
        # difference's entries underflows, so a plain norm reads 0.0.  At
        # p = 2 every stage scales exactly by a power of two: the weights
        # are squares of dyadic numbers, so their square roots are exact.
        # The plain and the rescued norm of the same entries (up to that
        # power) each lie within gamma_(n^2 + 3) of the exact norm.
        n = 40
        fun, vec = make_rng(34).standard_normal((2, n, n))
        mu = (1.0 - np.arange(n) / 64.0) ** 2
        plain = build_pipeline(NuclearRep(lp(2, n), mu, fun, vec))
        tiny = build_pipeline(NuclearRep(lp(2, n), mu * 2.0**-560, fun, vec))
        eps = np.finfo(np.float64).eps / 2
        gamma = (n * n + 3) * eps / (1 - (n * n + 3) * eps)
        for name in ("target_norm", "reconstruction_error"):
            want = getattr(plain, name) * 2.0**-560
            assert want > 0.0
            assert abs(getattr(tiny, name) - want) <= 2 * gamma * want

    @pytest.mark.parametrize("scale", [2.0**-600, 2.0**600])
    def test_frobenius_rescues_squares_that_underflow_or_overflow(self, scale):
        # the peak's power of two is scaled out exactly; a norm in the
        # normal range keeps its bits, and a zero array stays 0.0
        a = make_rng(35).standard_normal((7, 5))
        top = float(np.abs(a).max())
        rescued = scale * top * float(np.linalg.norm(a / top))
        assert factorization._frobenius(a * scale) == rescued
        assert factorization._frobenius(a) == float(np.linalg.norm(a))
        assert factorization._frobenius(np.zeros((7, 5))) == 0.0

    def test_rejects_empty_rep(self):
        with pytest.raises(ValueError, match="empty"):
            build_pipeline(NuclearRep(lp(2, 3), [], [], []))

    def test_diagonal_consistency_invariant(self):
        rng = make_rng(23)
        for p in (2, 3, "7/2", np.inf):
            rep = random_rep(rng, p, 10, 7)
            pipe = build_pipeline(rep)
            prod = (
                np.diag(pipe.stages["D1"].matrix)
                * np.diag(pipe.stages["D2"].matrix)
                * np.diag(pipe.stages["D_one_minus_s"].matrix)
            )
            assert np.allclose(prod, pipe.mu, rtol=1e-13, atol=0.0)


class TestMemory:
    """Peaks of the factorize path at k = n, counted in n^2 doubles.

    numpy reports its buffers to tracemalloc, so the counts do not depend
    on the allocator.  A family's two row arrays are normalized in place
    and handed to the rep uncopied, next to ``row_norms``' 256 KiB scratch
    (0.5 n^2 doubles at n = 256) and, for ``random_unit``, the 64 KiB buffer
    it draws through; a loaded rep keeps the loader's arrays.  A rewrite
    gathers its rep's two arrays straight from its parent's rows and holds
    little else (merge first sorts the parent's rows in
    ``_parallel_pairs``).  A
    pipeline holds ``compose``'s k x n scaled rows above the rep it shares
    A and B with, and forms its target block by block from the rows it
    factors, each block at most ``_BLOCK_BYTES``: a block of the target,
    then B's product block, which is subtracted from it in place.  Up to
    n = 1024 that is one n x n block, so the peak at k = n is 3: the scaled
    rows, the target and the product; at n = 2048 a block is a quarter of
    n^2, so the peak is 1.5, and with few terms the scaled rows are small
    too.  Row norms go through one scratch block, so the certificates add
    almost nothing.  The pipeline file is written straight from the stage
    arrays.
    """

    N = 256

    def test_factorize_path_peaks(self):
        n = self.N
        cfg = ExperimentConfig(p="3/2", family="random_unit", decay=DecayProfile(1.0, n),
                               ladder=(n,), seed=7, cases_per_level=1)
        generate_family(cfg, n)  # first-call allocations are not the path's
        rep, peak = traced_peak(lambda: generate_family(cfg, n))
        assert len(rep) == n
        assert peak <= 3.03 * n * n * 8  # 2.78; 4.17 when the rep copied the draws
        # p = 3/2: A and B are the rep's own rows, read transposed
        _, peak = traced_peak(lambda: build_pipeline(rep))
        assert peak <= 3.25 * n * n * 8

    @pytest.mark.parametrize("family,p,bound", [
        # 2.65 n^2 doubles; 4.17 and 4.05 when the rep copied the draws
        ("random_unit", 2, 2.90), ("random_unit", INF, 2.90),
        # 2.53; 3.05 with an n x n identity behind both sides and two copies
        ("diagonal", 2, 2.78),
    ])
    def test_draw_peak(self, family, p, bound):
        n = self.N
        cfg = ExperimentConfig(p=p, family=family, decay=DecayProfile(1.0, n),
                               ladder=(n,), seed=7, cases_per_level=1)
        generate_family(cfg, n)  # first-call allocations are not the path's
        rep, peak = traced_peak(lambda: generate_family(cfg, n))
        assert len(rep) == n
        assert peak <= bound * n * n * 8

    def test_rep_from_json_peak(self):
        # 2.66 n^2 doubles: the rep keeps the loader's two row arrays; 4.18
        # when it copied them
        n = self.N
        cfg = ExperimentConfig(p="3/2", family="random_unit", decay=DecayProfile(1.0, n),
                               ladder=(n,), seed=7, cases_per_level=1)
        doc = rep_to_json(generate_family(cfg, n))
        rep_from_json(doc)  # first-call allocations are not the path's
        rep, peak = traced_peak(lambda: rep_from_json(doc))
        assert len(rep) == n
        assert peak <= 2.91 * n * n * 8

    @pytest.mark.parametrize("p,bound", [("3/2", 2.03), (2, 1.91), (INF, 1.91)])
    def test_ladder_suite_peak_with_few_terms(self, p, bound, tmp_path):
        # 1.78 n^2 doubles at p = 3/2 and 1.66 at p = 2 and inf, with 128
        # terms at the top level n = 256; 2.17, 2.17 and 2.04 when each draw
        # was copied by its rep
        n = self.N
        cfg = ExperimentConfig(p=p, family="random_unit", decay=DecayProfile(1.0, n // 2),
                               ladder=(n // 4, n // 2, n), seed=7, out_dir=str(tmp_path),
                               cases_per_level=1)
        run_ladder_suite(cfg)  # first-call allocations are not the path's
        report, peak = traced_peak(lambda: run_ladder_suite(cfg))
        assert report.failed == 0
        assert peak <= bound * n * n * 8

    @pytest.mark.parametrize("p", ["3/2", 2, INF])
    def test_pipeline_peak_with_few_terms(self, p):
        # 0.53 n^2 doubles at k = 64, n = 2048: the 64 scaled rows and two
        # 512-row blocks, of the target and of the product (1.28 with the
        # whole target, 2.03 with the whole product next to it)
        n, k = 2048, 64
        cfg = ExperimentConfig(p=p, family="random_unit", decay=DecayProfile(1.0, k),
                               ladder=(n,), seed=7, cases_per_level=1)
        rep = generate_family(cfg, n)
        build_pipeline(rep)  # first-call allocations are not the path's
        _, peak = traced_peak(lambda: build_pipeline(rep))
        assert len(rep) == k
        assert peak <= 0.78 * n * n * 8

    @pytest.mark.parametrize("p", ["3/2", 2, INF])
    def test_pipeline_peak_in_several_blocks(self, monkeypatch, p):
        # 1.53 n^2 doubles at k = n = 256 in 64-row blocks: the scaled rows
        # and two quarter blocks; 2.27 with the whole target, which alone
        # is 1.0
        n = self.N
        monkeypatch.setattr(factorization, "_BLOCK_BYTES", 64 * n * 8)
        cfg = ExperimentConfig(p=p, family="random_unit", decay=DecayProfile(1.0, n),
                               ladder=(n,), seed=7, cases_per_level=1)
        rep = generate_family(cfg, n)
        build_pipeline(rep)  # first-call allocations are not the path's
        _, peak = traced_peak(lambda: build_pipeline(rep))
        assert peak <= 1.78 * n * n * 8

    def test_rotation_family_peak(self):
        # 4.12 n^2 doubles: the draws are freed before the 8 rotations, and
        # each rotation holds the new rep's two arrays next to the old rep's
        n = self.N
        self.rotation_family()
        rep, peak = traced_peak(self.rotation_family)
        assert len(rep) == n
        assert peak <= 4.37 * n * n * 8

    @staticmethod
    def rewrite_peak(rewrite, parent):
        rewrite(parent)  # first-call allocations are not the path's
        return traced_peak(lambda: rewrite(parent))

    def rotation_family(self, p=INF):
        n = self.N
        cfg = ExperimentConfig(p=p, family="shared_functional_rotations",
                               decay=DecayProfile(1.0, n), ladder=(n,), seed=7,
                               cases_per_level=1)
        return generate_family(cfg, n)

    def test_rotate_pair_peak(self):
        # 2.10 n^2 doubles: the new rep's two arrays, gathered once from the
        # parent's rows, with the two rotated rows written in
        n = self.N
        out, peak = self.rewrite_peak(lambda rep: rotate_pair(rep, 3, n // 2, 0.5),
                                      self.rotation_family())
        assert len(out) == n
        assert peak <= 2.35 * n * n * 8

    def test_split_peak(self):
        # 2.06 n^2 doubles: the new rep's two arrays, gathered once from the
        # parent's rows
        n = self.N
        out, peak = self.rewrite_peak(lambda rep: rewrite_equivalent(rep, "split", 5),
                                      self.rotation_family())
        assert len(out) == n + 1
        assert peak <= 2.31 * n * n * 8

    def test_merge_peak(self):
        # 4.06 n^2 doubles: _parallel_pairs' k x 2n sign-canonical rows and
        # their sort keys; the new rep's two arrays come after they are freed
        n = self.N
        parent = rewrite_equivalent(self.rotation_family(), "split", 5)
        out, peak = self.rewrite_peak(lambda rep: rewrite_equivalent(rep, "merge", 5), parent)
        assert len(out) == n
        assert peak <= 4.31 * n * n * 8

    def test_rotate_pair_peak_p3_2(self):
        # 2.22 n^2 doubles, as when every row was normed again: the parent's
        # unmarked rows are normed through row_norms' scratch blocks, with no
        # k x n gather
        n = self.N
        out, peak = self.rewrite_peak(lambda rep: rotate_pair(rep, 3, n // 2, 0.5),
                                      self.rotation_family("3/2"))
        assert len(out) == n
        assert peak <= 2.47 * n * n * 8

    def test_split_peak_p3_2(self):
        # 2.18 n^2 doubles, as when every row was normed again
        n = self.N
        out, peak = self.rewrite_peak(lambda rep: rewrite_equivalent(rep, "split", 5),
                                      self.rotation_family("3/2"))
        assert len(out) == n + 1
        assert peak <= 2.43 * n * n * 8

    def test_rotate_pair_peak_on_raw_input(self):
        # 2.22 n^2 doubles: nearly every row of the parent was divided at
        # construction, so none is marked and all are normed again
        n = self.N
        draws = make_rng(7).standard_normal((2, n, n))
        parent = NuclearRep(lp("3/2", n), np.linspace(1.0, 0.5, n), draws[0], draws[1])
        del draws
        out, peak = self.rewrite_peak(lambda rep: rotate_pair(rep, 3, n // 2, 0.5), parent)
        assert len(out) == n
        assert peak <= 2.47 * n * n * 8

    def test_raw_input_rep_peak(self):
        # 2.16 n^2 doubles: every row needs dividing and is divided in place
        # in the rep's two gathered arrays
        n = self.N
        draws = make_rng(7).standard_normal((2, n, n))
        mu = np.linspace(1.0, 0.5, n)
        NuclearRep(lp("3/2", n), mu, draws[0], draws[1])
        rep, peak = traced_peak(lambda: NuclearRep(lp("3/2", n), mu, draws[0], draws[1]))
        assert len(rep) == n
        assert peak <= 2.41 * n * n * 8

    @pytest.mark.parametrize("p", ["3/2", 2, INF])
    def test_certificates_peak(self, p):
        # 0.03-0.04 n^2 doubles at n = 1024, where the scratch block of the
        # row norms is small against n^2
        n = 1024
        cfg = ExperimentConfig(p=p, family="random_unit", decay=DecayProfile(1.0, n),
                               ladder=(n,), seed=7, cases_per_level=1)
        pipe = build_pipeline(generate_family(cfg, n))
        summing_certificates(pipe)
        _, peak = traced_peak(lambda: summing_certificates(pipe))
        assert peak <= 0.29 * n * n * 8

    @pytest.mark.parametrize("p", ["3/2", INF])
    def test_pipeline_write_peak(self, p):
        # 9.0 n^2 doubles for the document and the file the CLI writes: the
        # file itself is 5.3, B's C-ordered copy 1, and the rest is slack in
        # orjson's growing output buffer; A, mu and the diagonals are not copied
        n = self.N
        cfg = ExperimentConfig(p=p, family="random_unit", decay=DecayProfile(1.0, n),
                               ladder=(n,), seed=7, cases_per_level=1)
        pipe = build_pipeline(generate_family(cfg, n))
        options = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE

        def write():
            return orjson.dumps(pipeline_to_json(pipe), option=options)

        write()  # first-call allocations are not the path's
        out, peak = traced_peak(write)
        assert out.endswith(b"}\n")
        assert peak <= 9.25 * n * n * 8

    @pytest.mark.parametrize("p", ["3/2", 2, INF])
    def test_factorize_suite_peak(self, p, tmp_path):
        # 5.04 n^2 doubles at p = 2 and inf, 5.05 at p = 3/2, where the
        # pipeline reads the rep's own rows transposed
        n = self.N
        cfg = ExperimentConfig(p=p, family="random_unit", decay=DecayProfile(1.0, n),
                               ladder=(n,), seed=7, out_dir=str(tmp_path), cases_per_level=1)
        run_factorization_suite(cfg)  # first-call allocations are not the path's
        report, peak = traced_peak(lambda: run_factorization_suite(cfg))
        assert report.passed == 1
        assert peak <= 5.25 * n * n * 8


class TestCertificates:
    def test_exponents_for_hilbert_case(self):
        pipe = build_pipeline(diagonal_rep([1.0, 0.5], p=2))
        certs = summing_certificates(pipe)
        assert [c.stage_label for c in certs] == ["U3", "U2", "U1"]
        assert [str(c.exponent) for c in certs] == ["inf", "2", "2"]
        assert check_holder_chain([c.exponent for c in certs])

    def test_exponents_for_sup_case(self):
        pipe = build_pipeline(diagonal_rep([1.0, 0.5], p=np.inf))
        certs = summing_certificates(pipe)
        assert [str(c.exponent) for c in certs] == ["2", "2", "inf"]

    def test_u2_bound_for_two_unit_weights(self):
        pipe = build_pipeline(diagonal_rep([1.0, 1.0], p=np.inf))
        u2 = summing_certificates(pipe)[1]
        # (sum mu^s)^(1/2) = 2^(1/2)
        assert u2.bound == pytest.approx(np.sqrt(2), rel=1e-13)

    def test_u3_bound_uses_sup_when_r_inf(self):
        pipe = build_pipeline(diagonal_rep([0.9, 0.4], p=2))
        u3 = summing_certificates(pipe)[0]
        # r = inf: decay diagonal is all ones, A has unit rows
        assert u3.bound == pytest.approx(1.0, rel=1e-12)

    def test_u1_bound_flags_uncertified_sharpness(self):
        pipe = build_pipeline(diagonal_rep([1.0, 0.5], p=2))
        u1 = summing_certificates(pipe)[2]
        assert "sharpness not certified" in u1.formula
        assert u1.bound == pytest.approx(np.sqrt(1.5), rel=1e-12)

    def test_exponent_conservation_across_p(self):
        rng = make_rng(24)
        for p in (2, "5/2", 3, 4, 17, np.inf):
            rep = random_rep(rng, p, 6, 4)
            certs = summing_certificates(build_pipeline(rep))
            assert check_holder_chain([c.exponent for c in certs])


class TestPipelineTriple:
    def test_endpoint_triples(self):
        assert ParameterTriple(Exponent(2)).as_dict() == {"p": "2", "s": "1", "r": "inf"}
        assert ParameterTriple(INF).as_dict() == {"p": "inf", "s": "2/3", "r": "2"}

    def test_interior_triple(self):
        assert ParameterTriple(Exponent(3)).as_dict() == {"p": "3", "s": "6/7", "r": "6"}

    def test_reduces_first(self):
        assert ParameterTriple(Exponent(1)).as_dict() == {"p": "inf", "s": "2/3", "r": "2"}
        assert ParameterTriple(Exponent("4/3")).as_dict() == {"p": "4", "s": "4/5", "r": "4"}


class TestTailSummability:
    @pytest.mark.parametrize("p", [2, 3, np.inf])
    def test_uniform_bounds_along_truncations(self, p):
        # weights k^(-(1/s)(1+delta)) keep every pipeline norm bounded:
        # the decay diagonal in l_r and both split halves in l_2 have
        # squared/r-th powers summing to sum k^-(1+delta) <= 1 + 1/delta
        delta = 0.1
        budget = ParameterTriple(Exponent(p) if p is not np.inf else INF)
        s = float(budget.s)
        levels = [16, 32, 64, 128, 256]
        r = budget.r
        mu_full = np.arange(1, levels[-1] + 1, dtype=float) ** (-(1 / s) * (1 + delta))

        r_norms, l2_norms = [], []
        for n in levels:
            mu = mu_full[:n]
            l2_norms.append(float(np.linalg.norm(np.power(mu, s / 2))))
            decay = mu ** (1 - s)
            if r.is_inf:
                r_norms.append(float(decay.max()))
            else:
                rf = float(r)
                r_norms.append(float((decay**rf).sum() ** (1 / rf)))

        bound = 1 + 1 / delta  # integral-test bound on sum k^-(1+delta)
        for seq in (r_norms, l2_norms):
            assert all(b >= a - 1e-15 for a, b in zip(seq, seq[1:]))  # nondecreasing
            assert max(seq) <= bound  # uniform bound
            gaps = [b - a for a, b in zip(seq, seq[1:])]
            assert all(later <= earlier + 1e-15 for earlier, later in zip(gaps, gaps[1:]))


class TestPipelineJson:
    @pytest.mark.parametrize("p", ["4/3", 2, np.inf])
    def test_stages_are_named_as_in_the_file_in_application_order(self, p):
        pipe = build_pipeline(random_rep(make_rng(27), p, 6, 4))
        names = ["A", "D_one_minus_s", "J", "D1", "D2", "B"]
        assert list(pipe.stages) == names
        assert list(pipeline_to_json(pipe)["stages"]) == names
        with pytest.raises(TypeError):
            pipe.stages["J"] = pipe.stages["D1"]

    def test_emission_shape(self):
        pipe = build_pipeline(diagonal_rep([1.0, 0.5], p=2))
        data = pipeline_to_json(pipe)
        assert data["triple"] == {"p": "2", "s": "1", "r": "inf"}
        assert data["mu"].tolist() == [1.0, 0.5]
        assert set(data["stages"]) == {"A", "D_one_minus_s", "J", "D1", "D2", "B"}
        assert len(data["certificates"]) == 3
        d1, d2 = data["stages"]["D1"]["diagonal"], data["stages"]["D2"]["diagonal"]
        assert d1.tolist() == d2.tolist() == np.sqrt([1.0, 0.5]).tolist()
        assert data["stages"]["J"]["diagonal"].tolist() == [1.0, 1.0]
        assert data["stages"]["A"]["matrix"].tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert data["format"] == 2

    @pytest.mark.parametrize("p", ["3/2", 3])
    def test_leaves_are_read_only_c_ordered_arrays(self, p):
        rep = random_rep(make_rng(24), p, 9, 6)
        pipe = build_pipeline(rep)
        data = pipeline_to_json(pipe)
        stages = data["stages"]
        leaves = [data["mu"]] + [s.get("matrix", s.get("diagonal")) for s in stages.values()]
        for leaf in leaves:
            assert type(leaf) is np.ndarray and leaf.dtype == np.float64
            assert leaf.flags.c_contiguous and not leaf.flags.writeable
        # mu and A are the rep's own arrays; B, a transposed view, is copied once
        assert data["mu"] is rep.mu
        assert stages["A"]["matrix"] is pipe.stages["A"].matrix
        assert np.array_equal(stages["B"]["matrix"], pipe.stages["B"].matrix)
        assert not np.shares_memory(stages["B"]["matrix"], pipe.stages["B"].matrix)
