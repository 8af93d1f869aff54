import numpy as np
import pytest

from nuctrace import (
    DenseOperator,
    DiagonalOperator,
    SpaceMismatchError,
    Vector,
    apply,
    c0,
    compose,
    conjugate_tag,
    dual_pairing,
    linf,
    lp,
    lp_norm,
    normalize,
    row_norms,
)
from nuctrace.seqspace import (
    diagonal_operator,
    identity_injection,
    operator_to_json,
)

from conftest import make_rng


class TestTags:
    def test_sup_tags_are_distinct_but_same_norm(self):
        x = np.array([1.0, -2.0, 0.5])
        assert lp(np.inf, 3) != linf(3)
        assert lp(np.inf, 3) != c0(3)
        assert lp_norm(Vector(x, lp(np.inf, 3))) == lp_norm(Vector(x, linf(3))) == 2.0
        assert lp_norm(Vector(x, c0(3))) == 2.0

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

    def test_vectors_are_immutable(self):
        v = Vector([1.0, 2.0], lp(2, 2))
        with pytest.raises(ValueError):
            v.coords[0] = 9.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_vectors_reject_nonfinite_coordinates(self, bad):
        with pytest.raises(ValueError, match="must be finite") as info:
            Vector([bad, 1.0], lp(2, 2))
        assert "\n" not in str(info.value)


class TestNorms:
    def test_unit_coordinate_vector_in_any_space(self):
        e1 = np.array([1.0, 0.0])
        for tag in (lp(1, 2), lp(2, 2), lp("7/3", 2), lp(np.inf, 2), c0(2), linf(2)):
            assert lp_norm(Vector(e1, tag)) == 1.0

    def test_direct_evaluations(self):
        ones = np.array([1.0, 1.0])
        assert lp_norm(Vector(ones, lp(2, 2))) == pytest.approx(np.sqrt(2), rel=1e-15)
        assert lp_norm(Vector(ones, lp(np.inf, 2))) == 1.0
        assert lp_norm(Vector(ones, lp(1, 2))) == 2.0

    def test_zero_iff_zero_vector(self):
        assert lp_norm(Vector(np.zeros(3), lp("3/2", 3))) == 0.0
        assert lp_norm(Vector([0.0, 1e-320, 0.0], linf(3))) > 0.0

    def test_row_norms_equal_lp_norm_row_by_row(self):
        rng = make_rng(56)
        for dim in (1, 2, 7, 64, 300, 2048):
            rows = rng.standard_normal((5, dim)) * 10.0 ** rng.uniform(-8, 8, size=(5, 1))
            rows[3] = 0.0
            for tag in (lp(1, dim), lp("4/3", dim), lp("3/2", dim), lp(2, dim),
                        lp(3, dim), lp(np.inf, dim), c0(dim), linf(dim)):
                expected = [lp_norm(Vector(r, tag)) for r in rows]
                assert np.array_equal(row_norms(rows, tag), expected)
                # any memory layout sums each row in the one-vector order
                assert np.array_equal(row_norms(np.asfortranarray(rows), tag), expected)
                strided = np.repeat(rows, 2, axis=1)[:, ::2]
                assert np.array_equal(row_norms(strided, tag), expected)

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
                nx = lp_norm(Vector(x, tag))
                assert lp_norm(Vector(t * x, tag)) == pytest.approx(abs(t) * nx, abs=1e-12, rel=1e-12)
                assert lp_norm(Vector(x + y, tag)) <= nx + lp_norm(Vector(y, tag)) + 1e-12

    def test_holder_on_samples(self):
        rng = make_rng(56)
        for p in (1, 2, 3, "8/5", np.inf):
            tag = lp(p, 6)
            ctag = conjugate_tag(tag)
            for _ in range(25):
                v = Vector(rng.standard_normal(6), tag)
                f = Vector(rng.standard_normal(6), ctag)
                assert abs(dual_pairing(f, v)) <= lp_norm(f) * lp_norm(v) + 1e-12


class TestPairingAndNormalize:
    def test_pairing_examples(self):
        tag = lp(2, 2)
        ctag = conjugate_tag(tag)
        e1 = Vector([1.0, 0.0], tag)
        e1f = Vector([1.0, 0.0], ctag)
        e2f = Vector([0.0, 1.0], ctag)
        assert dual_pairing(e1f, e1) == 1.0
        assert dual_pairing(e2f, e1) == 0.0
        assert dual_pairing(Vector([1.0, 2.0], ctag), Vector([3.0, -1.0], tag)) == 1.0

    def test_pairing_rejects_wrong_tag(self):
        with pytest.raises(SpaceMismatchError):
            dual_pairing(Vector([1.0], lp(2, 1)), Vector([1.0], lp(3, 1)))

    def test_normalize_examples(self):
        v = normalize(Vector([3.0, 0.0], lp(2, 2)))
        assert np.allclose(v.coords, [1.0, 0.0])
        v = normalize(Vector([1.0, 1.0], lp(1, 2)))
        assert np.allclose(v.coords, [0.5, 0.5])
        v = normalize(Vector([2.0, 2.0], linf(2)))
        assert np.allclose(v.coords, [1.0, 1.0])
        assert abs(lp_norm(normalize(Vector([0.3, -2.7, 1.1], lp("7/3", 3)))) - 1.0) < 1e-14

    def test_normalize_zero_vector_is_degenerate(self):
        with pytest.raises(ValueError):
            normalize(Vector(np.zeros(2), lp(2, 2)))


class TestOperators:
    def test_apply_examples(self):
        tag = lp(2, 2)
        ident = DenseOperator(np.eye(2), tag, tag)
        v = Vector([1.0, 2.0], tag)
        assert np.allclose(apply(ident, v).coords, v.coords)
        zero = DenseOperator(np.zeros((2, 2)), tag, tag)
        assert np.allclose(apply(zero, v).coords, 0.0)
        diag = DenseOperator(np.diag([2.0, 3.0]), tag, tag)
        assert np.allclose(apply(diag, Vector([1.0, 1.0], tag)).coords, [2.0, 3.0])

    def test_apply_rejects_tag_mismatch(self):
        op = DenseOperator(np.eye(2), lp(2, 2), lp(2, 2))
        with pytest.raises(SpaceMismatchError):
            apply(op, Vector([1.0, 0.0], linf(2)))

    def test_compose_identity_and_diagonals(self):
        tag = lp(2, 3)
        i = DenseOperator(np.eye(3), tag, tag)
        assert np.allclose(compose([i, i]).matrix, np.eye(3))
        a = diagonal_operator([1.0, 2.0, 3.0], tag, tag)
        b = diagonal_operator([4.0, 5.0, 6.0], tag, tag)
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

    def test_injection_requires_equal_dims(self):
        with pytest.raises(SpaceMismatchError):
            identity_injection(lp(2, 3), c0(4))

    def test_diagonal_operator_stores_its_diagonal(self):
        op = diagonal_operator([2.0, 3.0], c0(2), lp(2, 2))
        assert isinstance(op, DiagonalOperator)
        assert np.array_equal(op.diag, [2.0, 3.0]) and not op.diag.flags.writeable
        assert np.array_equal(op.matrix, np.diag([2.0, 3.0]))
        assert np.array_equal(identity_injection(lp(2, 2), c0(2)).matrix, np.eye(2))
        with pytest.raises(SpaceMismatchError):
            DiagonalOperator(np.ones(3), c0(2), c0(2))
        with pytest.raises(SpaceMismatchError):
            DiagonalOperator(np.ones((2, 2)), c0(2), c0(2))


class TestJson:
    def test_operator_to_json_row_major(self):
        op = DenseOperator(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), lp(1, 2), c0(3))
        data = operator_to_json(op)
        assert data["matrix"][1] == [3.0, 4.0]
        assert data["domain"] == {"kind": "lp", "p": "1", "dim": 2}
        assert data["codomain"] == {"kind": "c0", "dim": 3}

    def test_diagonal_operator_to_json(self):
        op = diagonal_operator([0.5, -2.0], linf(2), lp("3/2", 2))
        data = operator_to_json(op)
        assert data["diagonal"] == [0.5, -2.0] and "matrix" not in data
