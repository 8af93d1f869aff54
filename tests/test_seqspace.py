import warnings
from fractions import Fraction

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nuctrace import (
    DenseOperator,
    DiagonalOperator,
    Exponent,
    SpaceMismatchError,
    SpaceTag,
    c0,
    compose,
    conjugate_tag,
    linf,
    lp,
    lp_norm,
    row_norms,
)
from nuctrace.seqspace import operator_to_json

from conftest import make_rng, one_row_norm, traced_peak


def all_tags(dim):
    return (lp(1, dim), lp("4/3", dim), lp("3/2", dim), lp(2, dim), lp(3, dim),
            lp(np.inf, dim), c0(dim), linf(dim))


def per_row_dot_norms(rows):
    """l2 row norms with one ``np.dot`` per C-ordered float64 row."""
    x = np.abs(np.asarray(rows, dtype=np.float64), order="C")
    return np.sqrt(np.fromiter((np.dot(r, r) for r in x), np.float64, x.shape[0]))


def laid_out(rows, layout):
    """``rows`` as a C-ordered, Fortran-ordered, column-block or integer array."""
    if layout == "F":
        return np.asfortranarray(rows)
    if layout == "block":
        wide = np.zeros((rows.shape[0], rows.shape[1] + 5))
        wide[:, 3 : 3 + rows.shape[1]] = rows
        return wide[:, 3 : 3 + rows.shape[1]]
    if layout == "int":
        return np.rint(rows * 1000).astype(np.int64)
    return rows


class TestTags:
    def test_sup_tags_are_distinct_but_same_norm(self):
        x = np.array([1.0, -2.0, 0.5])
        assert lp(np.inf, 3) != linf(3)
        assert lp(np.inf, 3) != c0(3)
        assert lp_norm(x, lp(np.inf, 3)) == lp_norm(x, linf(3)) == 2.0
        assert lp_norm(x, c0(3)) == 2.0

    def test_dim_bounds(self):
        with pytest.raises(ValueError):
            lp(2, 0)
        with pytest.raises(ValueError):
            lp(2, 4097)

    def test_dim_must_be_an_integer(self):
        for bad in (True, 2.0, 2.9, "3", None):
            with pytest.raises(ValueError, match="dim must be an integer"):
                lp(2, bad)
            with pytest.raises(ValueError, match="dim must be an integer"):
                c0(bad)

    def test_conjugate_tags(self):
        assert conjugate_tag(lp(2, 4)) == lp(2, 4)
        assert conjugate_tag(lp("4/3", 4)) == lp(4, 4)
        assert conjugate_tag(c0(4)) == lp(1, 4)
        assert conjugate_tag(linf(4)) == lp(1, 4)

    @pytest.mark.parametrize("raw", [2, "7/3", "inf", Fraction(3, 2)])
    def test_lp_tag_coerces_a_raw_exponent(self, raw):
        tag = SpaceTag("lp", raw, 5)
        assert tag == lp(raw, 5)
        assert type(tag.p) is Exponent and tag.p == Exponent(raw)

    def test_lp_tag_rejects_a_boolean_exponent(self):
        with pytest.raises(TypeError):
            SpaceTag("lp", True, 5)

    def test_finite_p_past_the_largest_double_is_rejected(self):
        # exact as an Exponent, but its norms would need float(p)
        assert lp(int(np.finfo(np.float64).max), 2).p == int(np.finfo(np.float64).max)
        for p in ("1e400", "1e1000", int(np.finfo(np.float64).max) + 1):
            with pytest.raises(ValueError, match="largest double") as err:
                lp(p, 2)
            assert len(str(err.value)) < 100



class TestNorms:
    def test_unit_coordinate_vector_in_any_space(self):
        e1 = np.array([1.0, 0.0])
        for tag in (lp(1, 2), lp(2, 2), lp("7/3", 2), lp(np.inf, 2), c0(2), linf(2)):
            assert lp_norm(e1, tag) == 1.0

    def test_direct_evaluations(self):
        ones = np.array([1.0, 1.0])
        assert lp_norm(ones, lp(2, 2)) == pytest.approx(np.sqrt(2), rel=1e-15)
        assert lp_norm(ones, lp(np.inf, 2)) == 1.0
        assert lp_norm(ones, lp(1, 2)) == 2.0

    def test_zero_iff_zero_vector(self):
        assert lp_norm(np.zeros(3), lp("3/2", 3)) == 0.0
        assert lp_norm(np.array([0.0, 1e-320, 0.0]), linf(3)) > 0.0

    @pytest.mark.parametrize("dim", (1, 7, 300, 2048, 4096))
    def test_row_norms_across_block_boundaries(self, dim):
        # rows per block of row_norms; k runs to either side of one block and
        # past three.  The rows cycle through a pool of 37 (prime to every
        # block length here), so each row's reference is taken once.  No
        # call warns: every norm here is finite.
        b = max(1, 2**18 // (8 * dim))
        rng = make_rng(58, dim)
        pool = rng.standard_normal((37, dim)) * 10.0 ** rng.uniform(-8, 8, size=(37, 1))
        pool[1] = 0.0
        pool[3] *= 1e-170 / np.abs(pool[3]).max()  # its squares underflow at p = 2
        ints = np.rint(pool * 1000).astype(np.int64)
        ints[2, ::2], ints[2, 1::2] = 2**62, -(2**62)
        pool[4] *= 1e200 / np.abs(pool[4]).max()  # its squares overflow at p = 2
        for tag in all_tags(dim):
            for data in (pool, ints):
                ref = np.array([one_row_norm(r, tag) for r in data])
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert np.array_equal([lp_norm(r, tag) for r in data], ref)
                    for k in (b - 1, b, b + 1, 3 * b + 5):
                        idx = np.arange(k) % len(data)
                        rows = data[idx]
                        for laid in (rows, np.asfortranarray(rows),
                                     np.repeat(rows, 2, axis=1)[:, ::2]):
                            assert np.array_equal(row_norms(laid, tag), ref[idx])

    def test_row_norms_memory_does_not_grow_with_rows(self):
        # one scratch block, 0.03-0.04 n^2 doubles; a full abs copy was 1.00
        n = 1024
        rows = make_rng(59).standard_normal((n, n))
        for tag in all_tags(n):
            row_norms(rows, tag)  # first-call allocations are not the path's
            _, peak = traced_peak(lambda: row_norms(rows, tag))
            assert peak <= 0.29 * n * n * 8

    def test_integer_rows_norm_as_float64(self):
        ints = np.array([[1, 2, -3], [0, 0, 0], [4, -5, 6]])
        for tag in (lp(1, 3), lp("4/3", 3), lp("3/2", 3), lp(2, 3), lp(3, 3),
                    lp("7/3", 3), lp(np.inf, 3), c0(3), linf(3)):
            got = row_norms(ints, tag)
            assert got.dtype == np.float64
            assert np.array_equal(got, row_norms(ints.astype(np.float64), tag))
            assert lp_norm(ints[2], tag) == lp_norm(ints[2].astype(np.float64), tag)
        assert lp_norm(np.array([1, 2]), lp(3, 2)) == lp_norm(np.array([1.0, 2.0]), lp(3, 2))

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 600),
        st.integers(1, 600),
        st.integers(-8, 8),
        st.sampled_from(("C", "F", "block", "int")),
        st.integers(0, 2**32 - 1),
    )
    def test_l2_row_norms_equal_per_row_dot(self, k, dim, scale, layout, seed):
        rows = make_rng(seed).standard_normal((k, dim)) * 10.0**scale
        rows = laid_out(rows, layout)
        assert np.array_equal(row_norms(rows, lp(2, dim)), per_row_dot_norms(rows))

    @pytest.mark.parametrize("dim", (2047, 2048, 4096))
    @pytest.mark.parametrize("layout", ("C", "F", "block", "int"))
    def test_l2_row_norms_equal_per_row_dot_at_large_dims(self, dim, layout):
        rows = laid_out(make_rng(57, dim).standard_normal((7, dim)), layout)
        assert np.array_equal(row_norms(rows, lp(2, dim)), per_row_dot_norms(rows))

    def test_l2_rows_whose_squares_underflow(self):
        # entries below about 1.5e-154 square to zero or a subnormal; those
        # rows are taken again with the peak scaled out, the others keep
        # their per-row dot bits
        rows = make_rng(60).standard_normal((6, 5))
        rows[1] = [1e-200, 0.0, 0.0, 0.0, 0.0]
        rows[3] = [3e-160, -4e-160, 0.0, 0.0, 0.0]
        rows[4] = 0.0
        got = row_norms(rows, lp(2, 5))
        assert got[1] == 1e-200 and got[4] == 0.0
        assert got[3] == pytest.approx(5e-160, rel=1e-15)
        normal = [0, 2, 5]
        assert np.array_equal(got[normal], per_row_dot_norms(rows[normal]))
        assert lp_norm(rows[1], lp(2, 5)) == 1e-200

    @pytest.mark.parametrize("p", ["1", "3/2", "2", "3", "inf"])
    def test_infinite_row_norms_to_inf(self, p):
        # an infinite peak divides by 1, as a zero peak does, not inf / inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = row_norms(np.array([[np.inf, 1.0], [1.0, 2.0]]), lp(p, 2))
        assert got.tolist() == [one_row_norm(row, lp(p, 2)) for row in ([np.inf, 1.0], [1.0, 2.0])]
        assert got[0] == np.inf

    def test_row_norms_of_no_rows(self):
        for tag in (lp(1, 3), lp(2, 3), lp("7/3", 3), lp(np.inf, 3)):
            assert row_norms(np.zeros((0, 3)), tag).shape == (0,)

    def test_norm_axioms_on_samples(self):
        rng = make_rng(55)
        for p in (1, 2, "7/3", 4, np.inf):
            tag = lp(p, 8)
            for _ in range(25):
                x = rng.standard_normal(8)
                y = rng.standard_normal(8)
                t = rng.uniform(-3, 3)
                nx = lp_norm(x, tag)
                assert lp_norm(t * x, tag) == pytest.approx(abs(t) * nx, abs=1e-12, rel=1e-12)
                assert lp_norm(x + y, tag) <= nx + lp_norm(y, tag) + 1e-12

    def test_holder_on_samples(self):
        rng = make_rng(56)
        for p in (1, 2, 3, "8/5", np.inf):
            tag = lp(p, 6)
            ctag = conjugate_tag(tag)
            for _ in range(25):
                v = rng.standard_normal(6)
                f = rng.standard_normal(6)
                assert abs(f @ v) <= lp_norm(f, ctag) * lp_norm(v, tag) + 1e-12


class TestOperators:
    def test_compose_identity_and_diagonals(self):
        tag = lp(2, 3)
        i = DenseOperator(np.eye(3), tag, tag)
        assert np.allclose(compose([i, i]).matrix, np.eye(3))
        a = DiagonalOperator([1.0, 2.0, 3.0], tag, tag)
        b = DiagonalOperator([4.0, 5.0, 6.0], tag, tag)
        assert np.allclose(compose([a, b]).matrix, np.diag([4.0, 10.0, 18.0]))
        m = make_rng(56).standard_normal((3, 3))
        dense_first = compose([DenseOperator(m, tag, tag), a, b])
        assert isinstance(dense_first, DenseOperator)
        assert np.array_equal(dense_first.matrix, b.matrix @ (a.matrix @ m))

    def test_compose_names_offending_junction(self):
        t1, t2 = lp(2, 2), lp(3, 2)
        a = DenseOperator(np.eye(2), t1, t1)
        b = DenseOperator(np.eye(2), t2, t2)
        with pytest.raises(SpaceMismatchError, match="junction 0"):
            compose([a, b])
        with pytest.raises(SpaceMismatchError, match="junction 1"):
            compose([a, a, b])

    def test_compose_associative_on_samples(self):
        rng = make_rng(57)
        tag = lp(2, 5)
        for _ in range(20):
            ops = [DenseOperator(rng.standard_normal((5, 5)), tag, tag) for _ in range(3)]
            left = compose([compose(ops[:2]), ops[2]]).matrix
            right = compose([ops[0], compose(ops[1:])]).matrix
            denom = np.linalg.norm(left)
            assert np.linalg.norm(left - right) <= 1e-13 * max(denom, 1.0)

    def test_dense_operator_shares_a_read_only_float64_array(self):
        m = make_rng(58).standard_normal((3, 2))
        m.flags.writeable = False
        op = DenseOperator(m, lp(2, 2), lp(2, 3))
        assert op.matrix is m and np.shares_memory(op.matrix, m)
        # a read-only transposed view is shared as well
        assert np.shares_memory(DenseOperator(m.T, lp(2, 3), lp(2, 2)).matrix, m)

    def test_dense_operator_copies_anything_else(self):
        tag = lp(2, 2)
        sources = (np.array([[1.0, 2.0], [3.0, 4.0]]), [[1.0, 2.0], [3.0, 4.0]],
                   np.array([[1, 2], [3, 4]]))
        for source in sources:
            op = DenseOperator(source, tag, tag)
            assert op.matrix.dtype == np.float64 and not op.matrix.flags.writeable
            if isinstance(source, np.ndarray):
                assert not np.shares_memory(op.matrix, source)
            source[0][0] = 9
            assert np.array_equal(op.matrix, [[1.0, 2.0], [3.0, 4.0]])

    def test_diagonal_operator_shares_a_read_only_float64_array(self):
        d = np.array([1.0, 2.0])
        d.flags.writeable = False
        assert DiagonalOperator(d, c0(2), lp(2, 2)).diag is d
        # a read-only strided view is shared as well
        assert np.shares_memory(DiagonalOperator(d[::-1], c0(2), c0(2)).diag, d)

    def test_diagonal_operator_copies_anything_else(self):
        tag = lp(2, 2)
        for source in (np.array([1.0, 2.0]), [1.0, 2.0], np.array([1, 2])):
            op = DiagonalOperator(source, tag, tag)
            assert op.diag.dtype == np.float64 and not op.diag.flags.writeable
            if isinstance(source, np.ndarray):
                assert not np.shares_memory(op.diag, source)
            source[0] = 9
            assert np.array_equal(op.diag, [1.0, 2.0])

    def test_compose_leaves_its_stages_unchanged(self):
        rng = make_rng(59)
        tag = lp(2, 4)

        def dense():
            return DenseOperator(rng.standard_normal((4, 4)), tag, tag)

        def diag():
            return DiagonalOperator(rng.uniform(0.5, 2.0, 4), tag, tag)

        chains = (
            [dense(), diag(), diag(), dense(), diag(), diag()],
            [diag(), diag(), diag(), dense(), diag()],
            [diag(), dense()],
            [dense()],
            [diag()],
        )
        for ops in chains:
            before = [np.array(op.diag if isinstance(op, DiagonalOperator) else op.matrix)
                      for op in ops]
            expected = ops[0].matrix
            for op in ops[1:]:
                expected = op.matrix @ expected
            out = compose(ops)
            assert np.array_equal(out.matrix, expected)
            assert not out.matrix.flags.writeable
            for op, old in zip(ops, before):
                now = op.diag if isinstance(op, DiagonalOperator) else op.matrix
                assert np.array_equal(now, old)

    def test_injection_requires_equal_dims(self):
        with pytest.raises(SpaceMismatchError):
            DiagonalOperator(np.ones(3), lp(2, 3), c0(4))

    def test_diagonal_operator_stores_its_diagonal(self):
        op = DiagonalOperator([2.0, 3.0], c0(2), lp(2, 2))
        assert isinstance(op, DiagonalOperator)
        assert np.array_equal(op.diag, [2.0, 3.0]) and not op.diag.flags.writeable
        assert np.array_equal(op.matrix, np.diag([2.0, 3.0]))
        assert np.array_equal(DiagonalOperator(np.ones(2), lp(2, 2), c0(2)).matrix, np.eye(2))
        with pytest.raises(SpaceMismatchError):
            DiagonalOperator(np.ones(3), c0(2), c0(2))
        with pytest.raises(SpaceMismatchError):
            DiagonalOperator(np.ones((2, 2)), c0(2), c0(2))


class TestJson:
    def test_operator_to_json_row_major(self):
        op = DenseOperator(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), lp(1, 2), c0(3))
        data = operator_to_json(op)
        assert data["matrix"] is op.matrix
        assert data["matrix"].tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        assert data["domain"] == {"kind": "lp", "p": "1", "dim": 2}
        assert data["codomain"] == {"kind": "c0", "dim": 3}

    def test_transposed_matrix_is_written_row_major(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        m.flags.writeable = False
        op = DenseOperator(m.T, lp(1, 3), c0(2))
        leaf = operator_to_json(op)["matrix"]
        assert leaf.tolist() == [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]
        assert leaf.flags.c_contiguous and not leaf.flags.writeable
        assert orjson.dumps(leaf, option=orjson.OPT_SERIALIZE_NUMPY) == b"[[1.0,3.0,5.0],[2.0,4.0,6.0]]"

    def test_diagonal_operator_to_json(self):
        op = DiagonalOperator([0.5, -2.0], linf(2), lp("3/2", 2))
        data = operator_to_json(op)
        assert "matrix" not in data and data["diagonal"] is op.diag
        assert data["diagonal"].tolist() == [0.5, -2.0]
