"""The array-native rep core against the per-term loop it replaced, the
diagonal-stage pipeline against the dense chain it replaced, and the
spectral report against the assembled-matrix eigensolve it replaced.

The reference functions below are the original implementations (a Python
loop over terms, one ``one_row_norm`` per vector; k x k ``np.diag`` stages
multiplied by matmul; ``eigen_spectrum(assemble(rep))`` for every rep); the
library must agree with them bit for bit, so every comparison is ``np.array_equal``
or ``==``.  The one exception is the spectrum of a rep with fewer distinct
functionals than dimensions, which is now solved on a smaller matrix and is
compared within an eigensolver budget.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from nuctrace import (
    NuclearRep,
    ParameterTriple,
    SpectralReport,
    adjoint_rep,
    assemble,
    build_pipeline,
    compose,
    conjugate_tag,
    eigen_spectrum,
    generate_family,
    lp,
    nuclear_trace,
    rewrite_equivalent,
    row_norms,
    spectral_report,
)
from nuctrace.exponents import s_from_p
from nuctrace.harness import DecayProfile, ExperimentConfig, _decay_weights
from nuctrace.nuclear import MU_FLOOR, _generator, _merge, _parallel_pairs, _split, rotate_pair
from nuctrace.seqspace import c0, linf
from nuctrace.spectra import RESIDUAL_BUDGET, _sort_spectrum

from conftest import chain_rows, make_rng, one_row_norm, random_rep

EXPONENTS = (1, "4/3", "3/2", 2, 3, "inf")

# rows whose squares underflow or overflow at p = 2, or lose bits there
EDGE_ROWS = np.array([[1e-200, 0.0, 0.0], [3e-170, 4e-170, 0.0],
                      [1e200, 1e200, 0.0], [1e-160, 1e-161, 2e-160]])


# --- reference implementations ------------------------------------------------


def ref_arrays(ambient, terms):
    """The per-term constructor loop: returns (mu, functionals, vectors)."""
    conj = conjugate_tag(ambient)
    mus, funs, vecs = [], [], []
    for mu, f, v in terms:
        f = np.array(f, dtype=np.float64)
        v = np.array(v, dtype=np.float64)
        scale = float(mu) * one_row_norm(f, conj) * one_row_norm(v, ambient)
        if scale < MU_FLOOR:
            continue
        mus.append(scale)
        funs.append(f / one_row_norm(f, conj))
        vecs.append(v / one_row_norm(v, ambient))
    n = ambient.dim
    if not mus:
        return np.zeros(0), np.zeros((0, n)), np.zeros((0, n))
    order = np.argsort(-np.asarray(mus), kind="stable")
    return (
        np.asarray(mus)[order],
        np.asarray(funs, dtype=np.float64)[order],
        np.asarray(vecs, dtype=np.float64)[order],
    )


class RefRep:
    """A rep built by the per-term loop from an iterable of ``(mu, f, v)``
    terms; the reference rewrites act on it."""

    def __init__(self, ambient, terms):
        self.ambient = ambient
        self.conjugate = conjugate_tag(ambient)
        self.mu, self.functionals, self.vectors = ref_arrays(ambient, terms)

    def __len__(self):
        return len(self.mu)

    def raw_terms(self):
        return [
            (float(m), f.copy(), v.copy())
            for m, f, v in zip(self.mu, self.functionals, self.vectors)
        ]


def ref_split(rep, rng):
    terms = rep.raw_terms()
    k = int(rng.integers(len(terms)))
    mu, f, v = terms[k]
    terms[k : k + 1] = [(mu / 2.0, f, v), (mu / 2.0, f.copy(), v.copy())]
    return terms


def ref_parallel_pairs(rep):
    k = len(rep)
    if k < 2:
        return []
    lead = np.argmax(np.abs(rep.functionals), axis=1)
    signs = np.sign(rep.functionals[np.arange(k), lead])
    signs[signs == 0] = 1.0
    canon = np.concatenate([rep.functionals, rep.vectors], axis=1) * signs[:, None]
    order = np.lexsort(canon.T[::-1])
    pairs = []
    for a, b in zip(order, order[1:]):
        if np.allclose(canon[a], canon[b], rtol=1e-9, atol=1e-12):
            pairs.append((int(min(a, b)), int(max(a, b))))
    return pairs


def ref_merge(rep, rng):
    pairs = ref_parallel_pairs(rep)
    i, j = pairs[int(rng.integers(len(pairs)))]
    terms = rep.raw_terms()
    mu_i, f_i, v_i = terms[i]
    merged = (mu_i + terms[j][0], f_i, v_i)
    return [merged] + [t for k, t in enumerate(terms) if k not in (i, j)]


def ref_rotate_pair(rep, i, j, theta):
    c, s = np.cos(theta), np.sin(theta)
    terms = rep.raw_terms()
    mu_i, f_i, v_i = terms[i]
    mu_j, f_j, v_j = terms[j]
    x_i, x_j = mu_i * v_i, mu_j * v_j
    new_i = (1.0, c * f_i + s * f_j, c * x_i + s * x_j)
    new_j = (1.0, -s * f_i + c * f_j, -s * x_i + c * x_j)
    out = [t for k, t in enumerate(terms) if k not in (i, j)]
    for mu, f, v in (new_i, new_j):
        if one_row_norm(f, rep.conjugate) * one_row_norm(v, rep.ambient) <= 1e-14 * (mu_i + mu_j):
            continue
        out.append((mu, f, v))
    return out


def ref_rotate(rep, rng):
    idx = rng.choice(len(rep), size=2, replace=False)
    theta = float(rng.uniform(np.pi / 8, 3 * np.pi / 8))
    return ref_rotate_pair(rep, int(idx[0]), int(idx[1]), theta)


REF_SCHEMES = {"split": ref_split, "merge": ref_merge, "rotate": ref_rotate}


def assert_same(rep, ref):
    assert np.array_equal(rep.mu, ref.mu)
    assert np.array_equal(rep.functionals, ref.functionals)
    assert np.array_equal(rep.vectors, ref.vectors)


def scattered_arrays(rng, dim, k):
    """Un-normalized ``(mu, F, V)`` with rows of scattered scales, plus one
    term below MU_FLOOR in the middle."""
    rows = rng.standard_normal((k, 2, dim)) * 10.0 ** rng.uniform(-3, 3, size=(k, 2, 1))
    light = rng.standard_normal((2, dim))
    return (
        np.insert((np.arange(k) + 1.0) ** -1.3, k // 2, 1e-305),
        np.insert(rows[:, 0], k // 2, light[0], axis=0),
        np.insert(rows[:, 1], k // 2, light[1], axis=0),
    )


def shared_arrays(rng, dim, pairs):
    """``(mu, F, V)`` of term pairs sharing a functional, so merges and pi/4
    rotations apply; drawn in the order f, v, v per pair."""
    draws = rng.standard_normal((pairs, 3, dim))
    weights = 1.0 / (np.arange(pairs) + 1)
    return (
        np.stack([weights, 0.5 * weights], axis=1).reshape(-1),
        np.repeat(draws[:, 0], 2, axis=0),
        draws[:, 1:].reshape(2 * pairs, dim),
    )


# --- tests --------------------------------------------------------------------


@pytest.mark.parametrize("p", EXPONENTS)
def test_row_norms_match_reference_norm(p):
    rng = make_rng(201)
    for dim in (1, 3, 8, 17, 130, 513):
        rows = rng.standard_normal((6, dim)) * 10.0 ** rng.uniform(-5, 5, size=(6, 1))
        rows[1] = 0.0
        for tag in (lp(p, dim), conjugate_tag(lp(p, dim))):
            ref = [one_row_norm(r, tag) for r in rows]
            assert np.array_equal(row_norms(rows, tag), ref)
    rows = rng.standard_normal((4, 9))
    for tag in (c0(9), linf(9)):
        assert np.array_equal(row_norms(rows, tag), [one_row_norm(r, tag) for r in rows])
    for tag in (lp(p, 3), conjugate_tag(lp(p, 3))):
        ref = [one_row_norm(r, tag) for r in EDGE_ROWS]
        assert np.array_equal(row_norms(EDGE_ROWS, tag), ref)
        if tag.p == 2:
            assert ref == pytest.approx([math.hypot(*r) for r in EDGE_ROWS], rel=1e-15)


@pytest.mark.parametrize("p", EXPONENTS)
def test_constructor_matches_per_term_loop(p):
    rng = make_rng(202)
    for dim, k in ((1, 3), (5, 4), (33, 12), (96, 40)):
        mu, fun, vec = scattered_arrays(rng, dim, k)
        ambient = lp(p, dim)
        rep = NuclearRep(ambient, mu, fun, vec)
        assert len(rep) == k  # the 1e-305 term fell below MU_FLOOR
        ref = RefRep(ambient, zip(mu, fun, vec))
        assert_same(rep, ref)
        swapped = [(mu, v, f) for mu, f, v in ref.raw_terms()]
        assert_same(adjoint_rep(rep), RefRep(rep.conjugate, swapped))
    # the edge rows as functionals and as vectors, paired with plain draws
    plain = rng.standard_normal((4, 3))
    fun, vec = np.vstack([EDGE_ROWS, plain]), np.vstack([plain, EDGE_ROWS])
    rep = NuclearRep(lp(p, 3), np.ones(8), fun, vec)
    assert len(rep) == 8
    assert_same(rep, RefRep(rep.ambient, zip(np.ones(8), fun, vec)))


def test_constructor_drops_everything_below_floor():
    rep = NuclearRep(lp(3, 4), [1e-200], np.ones((1, 4)) * 1e-60, np.ones((1, 4)) * 1e-60)
    assert len(rep) == 0
    assert rep.functionals.shape == rep.vectors.shape == (0, 4)


NON_UNIT_PATTERNS = ("none", "all", "first", "last", "alternating", "random")


def mixed_rows(rng, tag, k, pattern, ints, own_rows):
    """``k`` rows on ``tag``, of norm 1.0 or not as ``pattern`` says.

    The non-unit rows are scaled draws with signed zeros and subnormal
    entries.  The unit rows are coordinate rows (zeros signed, one entry
    subnormal), in the sup norm every third one raised to a peak of +-1
    over smaller entries, and every third one a row of ``own_rows``, the
    rows of an existing rep.  ``ints`` gives integer rows instead: draws in
    [-9, 9] peaking at +-9, and coordinate rows, in the sup norm every
    other one with entries in {-1, 0, 1}."""
    n = tag.dim
    sup = tag.p.is_inf
    unit = np.zeros((k, n))
    coord = rng.integers(n, size=k)
    unit[np.arange(k), coord] = rng.choice([-1.0, 1.0], size=k)
    if ints:
        other = rng.integers(-9, 10, size=(k, n))
        other[np.arange(k), coord] = rng.choice([-9, 9], size=k)
        if sup:  # a +-1 peak over entries in {-1, 0, 1}
            unit[1::2] += rng.integers(-1, 2, size=(len(unit[1::2]), n)) * (unit[1::2] == 0)
        unit = unit.astype(np.int64)
    else:
        other = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3, 3, size=(k, 1))
        other[:, ::3] = -0.0
        other[:, 1::5] = 5e-324
        unit[unit == 0] = -0.0
        if n > 1:
            unit[np.arange(k), (coord + 1) % n] = 5e-324
        if sup:  # a +-1 peak over smaller entries
            unit[1::3] += rng.uniform(-1, 1, size=(len(unit[1::3]), n)) * (unit[1::3] == 0)
        take = min(k, len(own_rows))
        unit[2:take:3] = own_rows[2:take:3]
    non_unit = {
        "none": np.zeros(k, dtype=bool),
        "all": np.ones(k, dtype=bool),
        "first": np.arange(k) == 0,
        "last": np.arange(k) == k - 1,
        "alternating": np.arange(k) % 2 == 1,
        "random": rng.random(k) < rng.uniform(0.0, 0.6),
    }[pattern]
    return np.where(non_unit[:, None], other, unit)


def laid_out(rows, layout):
    """``rows`` C-ordered, Fortran-ordered or as a strided column block."""
    if layout == "F":
        return np.asfortranarray(rows)
    if layout == "strided":
        draws = np.zeros((rows.shape[0], 2, rows.shape[1]), dtype=rows.dtype)
        draws[:, 0] = rows
        draws[:, 1] = 7
        return draws[:, 0]
    return np.ascontiguousarray(rows)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(EXPONENTS),
    st.integers(0, 200),
    st.integers(1, 200),
    st.sampled_from(NON_UNIT_PATTERNS),
    st.sampled_from(NON_UNIT_PATTERNS),
    st.sampled_from(("C", "F", "strided")),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_constructor_on_unit_and_non_unit_rows(p, k, n, f_pattern, v_pattern, layout,
                                               ints, seed):
    # a row of norm exactly 1.0 is not divided, which must give the bits of
    # the per-term loop's division whatever the mix and layout of the rows
    rng = make_rng(seed)
    ambient = lp(p, n)
    own = random_rep(rng, p, n, min(k, 50))
    fun = laid_out(mixed_rows(rng, own.conjugate, k, f_pattern, ints, own.functionals), layout)
    vec = laid_out(mixed_rows(rng, ambient, k, v_pattern, ints, own.vectors), layout)
    mu = rng.uniform(0.0, 2.0, size=k)
    mu[rng.random(k) < 0.1] = 0.0  # dropped below MU_FLOOR
    mu[1::4] = mu[0::4][: len(mu[1::4])]  # ties keep their order
    inputs = [mu, fun, vec] + [a.base for a in (fun, vec) if a.base is not None]
    before = [a.copy() for a in inputs]
    rep = NuclearRep(ambient, mu, fun, vec)
    ref = ref_arrays(ambient, zip(mu, fun, vec))
    for got, want in zip((rep.mu, rep.functionals, rep.vectors), ref):
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # -0.0 stays -0.0
    for a, b in zip(inputs, before):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim", (7, 300, 4096))
def test_constructor_divides_non_unit_rows_across_blocks(dim):
    # the constructor divides up to a third of the rows in blocks of
    # max(1, 2**15 // (8 dim)) rows; the counts run to either side of one
    # block and past three, spread over the rows so they leave their order
    b = max(1, 2**15 // (8 * dim))
    rng = make_rng(209, dim)
    for p in (1, "3/2", "inf"):
        ambient = lp(p, dim)
        for m in (1, b - 1, b, b + 1, 3 * b + 5):
            k = 3 * m + 2
            fun = np.eye(dim)[np.arange(k) % dim]
            vec = -np.eye(dim)[(np.arange(k) * 5) % dim]
            scaled = rng.permutation(k)[:m]
            fun[scaled] *= rng.uniform(0.5, 4.0, size=(m, 1))
            vec[scaled[: m // 2]] = rng.standard_normal((m // 2, dim))
            mu = rng.uniform(0.5, 2.0, size=k)
            rep = NuclearRep(ambient, mu, fun, vec)
            assert_same(rep, RefRep(ambient, zip(mu, fun, vec)))


@pytest.mark.parametrize("p", EXPONENTS)
def test_rewrites_match_list_based_reference(p):
    rng = make_rng(203)
    mu, fun, vec = shared_arrays(rng, 24, 6)
    rep, ref = NuclearRep(lp(p, 24), mu, fun, vec), RefRep(lp(p, 24), zip(mu, fun, vec))
    merges = 0
    for step in range(30):
        scheme = ("split", "merge", "rotate")[step % 3]
        seed = int(rng.integers(2**63))
        if scheme == "merge" and not ref_parallel_pairs(ref):
            continue
        rep = rewrite_equivalent(rep, scheme, seed)
        ref = RefRep(ref.ambient, REF_SCHEMES[scheme](ref, _generator(seed)))
        assert_same(rep, ref)
        merges += scheme == "merge"
    assert merges > 0


@pytest.mark.parametrize("p", EXPONENTS)
def test_quarter_pi_rotation_of_shared_pair(p):
    mu, fun, vec = shared_arrays(make_rng(204), 16, 3)
    rep, ref = NuclearRep(lp(p, 16), mu, fun, vec), RefRep(lp(p, 16), zip(mu, fun, vec))
    assert np.array_equal(rep.functionals[0], rep.functionals[1])
    out = rotate_pair(rep, 0, 1, np.pi / 4)
    assert_same(out, RefRep(ref.ambient, ref_rotate_pair(ref, 0, 1, np.pi / 4)))
    assert len(out) == len(rep) - 1


def test_parallel_pairs_match_reference():
    rng = make_rng(205)
    for p in EXPONENTS:
        rep = NuclearRep(lp(p, 12), *shared_arrays(rng, 12, 4))
        for seed in range(6):
            rep = rewrite_equivalent(rep, "split", seed)
        # a sign-flipped copy of term 0 is parallel to it as well
        rep = NuclearRep(
            rep.ambient,
            np.append(rep.mu, rep.mu[0] / 3),
            np.vstack([rep.functionals, -rep.functionals[0]]),
            np.vstack([rep.vectors, -rep.vectors[0]]),
        )
        # e_0 + e_2 / 2 with its zeros signed either way (lexsort ties -0.0
        # with 0.0), a sign-flipped copy and exact duplicates
        f = np.zeros(12)
        f[[0, 2]] = 1.0, 0.5
        v = np.zeros(12)
        v[[1, 5]] = -0.25, 1.0
        signed = lambda x: np.where(x == 0, -0.0, x)
        rep = NuclearRep(
            rep.ambient,
            np.concatenate([rep.mu, [0.3, 0.3, 0.2, 0.3, 0.3]]),
            np.vstack([rep.functionals, f, signed(f), -f, signed(f), f]),
            np.vstack([rep.vectors, v, v, -v, signed(v), v]),
        )
        pairs = _parallel_pairs(rep)
        assert len(pairs) >= 11
        assert pairs == ref_parallel_pairs(rep)
        # with one row or none there is no adjacent pair to screen
        for k in (0, 1):
            short = NuclearRep(rep.ambient, rep.mu[:k], rep.functionals[:k], rep.vectors[:k])
            assert _parallel_pairs(short) == ref_parallel_pairs(short) == []


@pytest.mark.parametrize("p", EXPONENTS)
def test_rotate_pair_at_edge_indices(p):
    rng = make_rng(206)
    for k in (2, 3, 7):
        mu, fun, vec = scattered_arrays(rng, 9, k)
        rep, ref = NuclearRep(lp(p, 9), mu, fun, vec), RefRep(lp(p, 9), zip(mu, fun, vec))
        assert len(rep) == k
        # first and last, adjacent at either end, and (1, k - 1) but for the
        # (1, 1) of k = 2, each in both orders
        ends = {(0, k - 1), (0, 1), (k - 2, k - 1), (1, k - 1)} - {(1, 1)}
        for i, j in sorted(ends | {(j, i) for i, j in ends}):
            theta = float(rng.uniform(np.pi / 8, 3 * np.pi / 8))
            out = rotate_pair(rep, i, j, theta)
            assert_same(out, RefRep(ref.ambient, ref_rotate_pair(ref, i, j, theta)))
            assert len(out) == k
            # negative indices name the same terms
            assert_same(rotate_pair(rep, i - k, j - k, theta), out)
        # one term named twice, directly or through a negative index
        for i, j in ((1, 1), (0, -k)):
            with pytest.raises(ValueError, match="two distinct terms"):
                rotate_pair(rep, i, j, np.pi / 4)


@pytest.mark.parametrize("p", EXPONENTS)
def test_quarter_pi_rotation_drops_one_term_at_any_position(p):
    mu, fun, vec = shared_arrays(make_rng(207), 9, 3)
    rep, ref = NuclearRep(lp(p, 9), mu, fun, vec), RefRep(lp(p, 9), zip(mu, fun, vec))
    k = len(rep)
    shared = [(i, j) for i in range(k) for j in range(i + 1, k)
              if np.array_equal(rep.functionals[i], rep.functionals[j])]
    assert len(shared) == 3
    for i, j in shared + [(j, i) for i, j in shared]:
        out = rotate_pair(rep, i, j, np.pi / 4)
        assert_same(out, RefRep(ref.ambient, ref_rotate_pair(ref, i, j, np.pi / 4)))
        assert len(out) == k - 1
    # a two-term rep of one shared pair comes back as one term
    pair = NuclearRep(lp(p, 9), mu[:2], fun[:2], vec[:2])
    ref_pair = RefRep(pair.ambient, zip(mu[:2], fun[:2], vec[:2]))
    out = rotate_pair(pair, 1, 0, np.pi / 4)
    assert_same(out, RefRep(pair.ambient, ref_rotate_pair(ref_pair, 1, 0, np.pi / 4)))
    assert len(out) == 1


class Pick:
    """A stand-in generator whose ``integers`` returns a chosen index, so a
    test can split or merge at a position of its choice."""

    def __init__(self, index):
        self.index = index

    def integers(self, high):
        assert 0 <= self.index < high
        return self.index


def from_terms(ambient, terms):
    """The rep of an explicit list of ``(mu, f, v)`` terms."""
    n = ambient.dim
    return NuclearRep(
        ambient,
        [t[0] for t in terms],
        np.array([t[1] for t in terms], dtype=np.float64).reshape(-1, n),
        np.array([t[2] for t in terms], dtype=np.float64).reshape(-1, n),
    )


def rotated_parent(rng, p, n, k, rotations):
    """``k`` random terms, a pair sharing a functional and a light term of
    weight in ``[MU_FLOOR, 2 MU_FLOOR)`` (last), with pairs of distinct
    random terms then rotated; the rotated rows are renormalized, so at
    p in {1, 3/2} their recomputed norms are not all exactly 1.0."""
    base = random_rep(rng, p, n, k)
    extra = rng.standard_normal((3, n))
    light = np.eye(n)[0]  # of norm 1.0 in every tag, so the weight stays as given
    rep = NuclearRep(
        base.ambient,
        np.append(base.mu, [0.7, 0.3, 1.5 * MU_FLOOR]),
        np.vstack([base.functionals, extra[0], extra[0], light]),
        np.vstack([base.vectors, extra[1], extra[2], light]),
    )
    for _ in range(rotations):
        free = [t for t in range(len(rep) - 1)
                if sum(np.array_equal(rep.functionals[t], f) for f in rep.functionals) == 1]
        if len(free) < 2:
            break
        i, j = rng.choice(free, size=2, replace=False)
        rep = rotate_pair(rep, int(i), int(j), float(rng.uniform(0.1, 1.4)))
    return rep


def shared_pairs(rep):
    return [(i, j) for i in range(len(rep)) for j in range(i + 1, len(rep))
            if np.array_equal(rep.functionals[i], rep.functionals[j])]


def assert_rewrite_of(parent, out, terms):
    """``out`` is bitwise the rep of the explicit ``terms``, read-only and
    apart from ``parent``."""
    ref = from_terms(parent.ambient, terms)
    assert out.order == parent.order
    for got, want, old in zip((out.mu, out.functionals, out.vectors),
                              (ref.mu, ref.functionals, ref.vectors),
                              (parent.mu, parent.functionals, parent.vectors)):
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        assert not np.shares_memory(got, old)


def rotated_terms(parent, i, j, theta):
    """The terms of ``rotate_pair(parent, i, j, theta)``, listed out: the
    others in order, then the rotated pair without a degenerate side."""
    c, s = np.cos(theta), np.sin(theta)
    terms = list(zip(parent.mu, parent.functionals, parent.vectors))
    (mu_i, f_i, v_i), (mu_j, f_j, v_j) = terms[i], terms[j]
    x_i, x_j = mu_i * v_i, mu_j * v_j
    out = [t for m, t in enumerate(terms) if m not in (i, j)]
    for f, x in ((c * f_i + s * f_j, c * x_i + s * x_j), (-s * f_i + c * f_j, -s * x_i + c * x_j)):
        if one_row_norm(f, parent.conjugate) * one_row_norm(x, parent.ambient) > 1e-14 * (mu_i + mu_j):
            out.append((1.0, f, x))
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(EXPONENTS), st.integers(2, 60), st.integers(2, 24), st.integers(0, 4),
       st.integers(0, 2**32 - 1))
def test_rewrites_gather_the_listed_terms(p, n, k, rotations, seed):
    # each rewrite gathers its rows straight from the parent's; it must give
    # the bits of the constructor on the listed term list
    parent = rotated_parent(make_rng(seed), p, n, k, rotations)
    assert MU_FLOOR <= parent.mu[-1] < 2 * MU_FLOOR
    before = [a.tobytes() for a in (parent.mu, parent.functionals, parent.vectors)]
    terms = list(zip(parent.mu, parent.functionals, parent.vectors))
    for pos in range(len(parent)):
        out = _split(parent, Pick(pos))
        mu, f, v = terms[pos]
        assert_rewrite_of(parent, out, terms[:pos] + [(mu / 2.0, f, v)] * 2 + terms[pos + 1 :])
        # the light term's halves both fall below MU_FLOOR
        light = pos == len(parent) - 1
        assert len(out) == len(parent) + (-1 if light else 1)
    split = _split(parent, Pick(0))
    split_terms = list(zip(split.mu, split.functionals, split.vectors))
    pairs = _parallel_pairs(split)
    assert pairs
    for q, (i, j) in enumerate(pairs):
        merged = (split.mu[i] + split.mu[j], split.functionals[i], split.vectors[i])
        rest = [t for t, term in enumerate(split_terms) if t not in (i, j)]
        assert_rewrite_of(split, _merge(split, Pick(q)), [merged] + [split_terms[t] for t in rest])
    # pi/4 on the shared pair drops one rotated row, in both orders and by
    # negative indices; alone, the pair comes back as one term
    (i, j), = shared_pairs(parent)
    size = len(parent)
    for a, b in ((i, j), (j, i), (i - size, j - size), (j - size, i)):
        out = rotate_pair(parent, a, b, np.pi / 4)
        assert_rewrite_of(parent, out, rotated_terms(parent, a % size, b % size, np.pi / 4))
        assert len(out) == size - 1
    # a generic angle keeps both rotated rows, here with the light term
    for a, b in ((0, -1), (size - 1, 1)):
        out = rotate_pair(parent, a, b, 0.6)
        assert_rewrite_of(parent, out, rotated_terms(parent, a % size, b % size, 0.6))
    pair = NuclearRep(parent.ambient, parent.mu[[i, j]], parent.functionals[[i, j]],
                      parent.vectors[[i, j]])
    for a, b in ((0, 1), (-1, -2)):
        out = rotate_pair(pair, a, b, np.pi / 4)
        assert_rewrite_of(pair, out, rotated_terms(pair, a % 2, b % 2, np.pi / 4))
        assert len(out) == 1
    after = [a.tobytes() for a in (parent.mu, parent.functionals, parent.vectors)]
    assert after == before


@pytest.mark.parametrize("p", (1, "3/2"))
def test_rotated_parents_have_rows_of_norm_not_one(p):
    # the parents of the test above reach the rewrites' divide at these p
    parent = rotated_parent(make_rng(210), p, 40, 12, 4)
    norms = np.concatenate([row_norms(parent.functionals, parent.conjugate),
                            row_norms(parent.vectors, parent.ambient)])
    assert (norms != 1.0).any()


@pytest.mark.parametrize("p", (2, "inf"))
def test_rotate_pair_rejects_non_finite_angle_and_boolean_index(p):
    # a non-finite angle made both rotated rows non-finite, and the liveness
    # test dropped both terms, so the rep assembled to another operator
    mu, fun, vec = scattered_arrays(make_rng(211), 5, 3)
    rep = NuclearRep(lp(p, 5), mu, fun, vec)
    for theta in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite angle"):
            rotate_pair(rep, 0, 2, theta)
    for i, j in ((0, True), (False, 1), (np.True_, 2)):
        with pytest.raises(TypeError, match="integer term indices"):
            rotate_pair(rep, i, j, 0.3)


def boundary_gap():
    """``(a, b, beyond)`` with ``beyond < a < b``: ``|a - b|`` is exactly
    ``1e-12 + 1e-9 |b|`` in float arithmetic (and above ``1e-12 + 1e-9 |a|``),
    and ``|beyond - b|`` is the next gap above it."""
    b = 2.0**-40
    tol = np.abs(b) * 1e-9 + 1e-12
    a = b - tol
    assert np.abs(a - b) == tol > np.abs(a) * 1e-9 + 1e-12
    beyond = a
    while np.abs(beyond - b) <= tol:
        beyond = np.nextafter(beyond, -1.0)
    return a, b, beyond


def test_parallel_pairs_on_adversarial_rows():
    # at p = 1 the functionals are normed in linf: rows led by 1.0 keep every
    # coordinate bit for bit; the vectors are dyadic with l1 norm exactly 1
    n = 8
    base = np.array([1.0, 0.3, -0.2, 0.1, 0.0, 0.5, -0.7, 0.25])
    v = np.array([0.5, -0.25, 0.0, 0.125, 0.0, 0.0, 0.125, 0.0])
    groups = {}

    def group(name, f_a, v_a, f_b, v_b, offset):
        shift = np.zeros(n)
        shift[1] = offset  # keeps the groups apart in the sort
        groups[name] = [(f_a + shift, v_a), (f_b + shift, v_b)]

    # equal on both screening columns, outside the tolerance later on
    far_f, far_v = base.copy(), v.copy()
    far_f[5] += 1e-6
    far_v[[3, 5]] = 0.0625
    group("screen_only_f", base, v, far_f, v, 0.0)
    group("screen_only_v", base, v, base, far_v, -0.05)
    # inside the tolerance, not bitwise equal: relative 5e-10 on the screening
    # vector coordinate, spread over the whole vector by its l1 norm
    near_v = v.copy()
    near_v[0] *= 1 + 5e-10
    group("near", base, v, base, near_v, 0.1)
    near_f = base.copy()
    near_f[6] *= 1 + 5e-10
    group("near_f", base, v, near_f, v, 0.15)
    # exactly on the boundary, and just beyond it
    a, b, beyond = boundary_gap()
    on_a, on_b, off_a = base.copy(), base.copy(), base.copy()
    on_a[4], on_b[4], off_a[4] = a, b, beyond
    group("on_boundary", on_a, v, on_b, v, 0.2)
    group("off_boundary", off_a, v, on_b, v, 0.25)
    # +-0.0 on both screening columns, one copy sign-flipped as a whole
    zf, zv = base.copy(), v.copy()
    zf[[0, 2]] = 0.0, 1.0
    zv[[0, 2]] = 0.0, 0.5
    signed = lambda x: np.where(x == 0, -0.0, x)
    group("signed_zeros", zf, zv, signed(zf), signed(zv), -0.1)
    zf[1] -= 0.15
    group("flipped_zeros", zf, signed(zv), -zf, -zv, 0.0)

    rows = [row for pair in groups.values() for row in pair]
    funs, vecs = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
    rep = NuclearRep(lp(1, n), np.linspace(1.0, 0.5, len(rows)), funs, vecs)
    assert np.array_equal(rep.functionals, funs)
    near = 2 * list(groups).index("near") + 1  # renormalized by 1 + 2.5e-10
    kept = np.arange(len(rows)) != near
    assert np.array_equal(rep.vectors[kept], vecs[kept])
    assert not np.array_equal(rep.vectors[near], rep.vectors[near - 1])
    pairs = _parallel_pairs(rep)
    assert pairs == ref_parallel_pairs(rep)
    found = {name for pos, name in enumerate(groups) if (2 * pos, 2 * pos + 1) in pairs}
    assert found == {"near", "near_f", "on_boundary", "signed_zeros", "flipped_zeros"}
    assert len(pairs) == len(found)
    adj = adjoint_rep(rep)
    assert _parallel_pairs(adj) == ref_parallel_pairs(adj)


@pytest.mark.parametrize("p", EXPONENTS)
def test_parallel_pairs_after_many_splits(p):
    rng = make_rng(208)
    rep = NuclearRep(lp(p, 128), *shared_arrays(rng, 128, 20))
    for seed in range(24):
        rep = rewrite_equivalent(rep, "split", seed)
    pairs = _parallel_pairs(rep)
    assert len(pairs) == 24  # each split adds one duplicate, shared pairs differ in v
    assert pairs == ref_parallel_pairs(rep)


def ref_family(config, n):
    """The per-term generator loop for the two random families."""
    k_terms = min(config.decay.term_count, n)
    mu = _decay_weights(config.p, config.decay, k_terms)
    ambient = lp(config.p, n)
    conj = conjugate_tag(ambient)
    rng = _generator(config.seed, n)

    def unit(tag):
        x = rng.standard_normal(n)
        return x / one_row_norm(x, tag)

    if config.family == "random_unit":
        return ambient, [(mu[k], unit(conj), unit(ambient)) for k in range(k_terms)], rng
    terms = []
    for k in range(0, k_terms, 2):
        f = unit(conj)
        terms.append((mu[k], f, unit(ambient)))
        if k + 1 < k_terms:
            terms.append((mu[k + 1], f, unit(ambient)))
    return ambient, terms, rng


@pytest.mark.parametrize("p", ("4/3", 2, "inf"))
@pytest.mark.parametrize("term_count", (1, 6, 7))
def test_generate_family_matches_sequential_draws(p, term_count):
    for family in ("random_unit", "shared_functional_rotations"):
        config = ExperimentConfig(
            p=p, family=family, decay=DecayProfile(1.1, term_count), ladder=(16,), seed=77
        )
        ambient, terms, rng = ref_family(config, 16)
        ref = RefRep(ambient, terms)
        if family == "shared_functional_rotations" and len(ref) >= 2:
            for _ in range(min(8, len(ref))):
                seed = int(rng.integers(2**63))
                ref = RefRep(ambient, ref_rotate(ref, _generator(seed)))
        rep = generate_family(config, 16)
        assert_same(rep, ref)
        assert rep.order == s_from_p(ambient.p)


def ref_pipeline_chain(rep):
    """The dense chain: A the functionals and B the transposed vectors (the
    two trading places below p = 2), each diagonal stage a k x k ``np.diag``
    (the identity ``np.eye``), the product of all six stages formed by matmul."""
    triple = ParameterTriple(rep.ambient.p)
    rows_a, rows_b, _ = chain_rows(rep)
    half = np.power(rep.mu, float(triple.s) / 2.0)
    stages = [
        np.diag(np.power(rep.mu, 1.0 - float(triple.s))),
        np.eye(len(rep)),
        np.diag(half),
        np.diag(half),
        rows_b.T,
    ]
    product = rows_a
    for m in stages:
        product = m @ product
    return product


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("family", ("diagonal", "random_unit", "shared_functional_rotations"))
def test_pipeline_matches_dense_chain(p, family):
    for n in (16, 64, 200, 512):
        config = ExperimentConfig(
            p=p, family=family, decay=DecayProfile(1.1, n), ladder=(n,), seed=n
        )
        rep = generate_family(config, n)
        pipe = build_pipeline(rep)
        ref = ref_pipeline_chain(rep)
        assert np.array_equal(compose(tuple(pipe.stages.values())).matrix, ref)
        _, _, target = chain_rows(rep)
        assert pipe.reconstruction_error == float(np.linalg.norm(ref - target))
        assert pipe.target_norm == float(np.linalg.norm(target))


def ref_spectral_report(rep):
    """The assembled-matrix report: one dense ``n x n`` eigensolve per rep."""
    op = assemble(rep)
    ev = eigen_spectrum(op)
    eigen_sum = complex(ev.sum())
    return SpectralReport(
        eigenvalues=ev,
        matrix_trace=float(np.trace(op.matrix)),
        eigen_sum=eigen_sum,
        abs_sum=float(np.abs(ev).sum()),
        lidskii_residual=abs(nuclear_trace(rep) - eigen_sum),
        dim=rep.ambient.dim,
    )


def rep_with_terms(p, family, n, k):
    """A rep with exactly ``k`` terms on ``lp(p, n)``; ``k > n`` splits one
    term of an ``n``-term family rep."""
    if k == 0:
        return NuclearRep(lp(p, n), [], [], [])
    config = ExperimentConfig(
        p=p, family=family, decay=DecayProfile(1.1, min(k, n)), ladder=(n,), seed=1000 * n + k
    )
    rep = generate_family(config, n)
    if k > n:
        rep = rewrite_equivalent(rep, "split", k)
    assert len(rep) == k
    return rep


def distinct_functionals(rep):
    """The number of bitwise-distinct functional rows."""
    return len({row.tobytes() for row in rep.functionals})


def assert_spectra_match(report, ref, rep, r):
    """A spectrum solved on ``r < n`` distinct functionals against the
    assembled one: ``n - r`` exact zeros last, and the same multiset within
    an eigensolver budget."""
    n = rep.ambient.dim
    ev = report.eigenvalues
    assert ev.shape == (n,) and report.dim == n
    assert np.array_equal(ev, _sort_spectrum(ev))
    assert not ev[r:].any()
    tol = 1e-12 * (1.0 + rep.mu.sum())
    # the two spectra agree as multisets: match them, then compare
    dist = np.abs(ev[:, None] - ref.eigenvalues[None, :])
    assert dist[linear_sum_assignment(dist)].max() <= tol
    for field in ("matrix_trace", "eigen_sum", "abs_sum"):
        assert abs(getattr(report, field) - getattr(ref, field)) <= tol
    assert report.lidskii_residual <= RESIDUAL_BUDGET * (1.0 + rep.mu.sum())


@pytest.mark.parametrize("p", (1, "4/3", 2, 3, "inf"))
@pytest.mark.parametrize("family", ("diagonal", "random_unit", "shared_functional_rotations"))
def test_spectral_report_matches_assembled_eigensolve(p, family):
    for n in (1, 12, 40):
        for k in sorted({0, 1, n - 1, n, n + 1}):
            rep = rep_with_terms(p, family, n, k)
            report, ref = spectral_report(rep), ref_spectral_report(rep)
            r = distinct_functionals(rep)
            if r >= n:
                assert np.array_equal(report.eigenvalues, ref.eigenvalues)
                for field in ("matrix_trace", "eigen_sum", "abs_sum", "lidskii_residual", "dim"):
                    assert getattr(report, field) == getattr(ref, field)
                continue
            assert_spectra_match(report, ref, rep, r)


@pytest.mark.parametrize("p", (1, "4/3", 2, 3, "inf"))
def test_repeated_functionals_are_solved_on_distinct_rows(p, monkeypatch):
    import nuctrace.spectra as spectra

    dims = []
    real = spectra.eigen_spectrum
    monkeypatch.setattr(spectra, "eigen_spectrum", lambda op: dims.append(op.matrix.shape) or real(op))
    reps = [rep_with_terms(p, "shared_functional_rotations", n, n) for n in (16, 40, 64)]
    # k = n + 1 terms over n - 1 distinct functionals
    split = rep_with_terms(p, "random_unit", 40, 39)
    for seed in (1, 2):
        split = rewrite_equivalent(split, "split", seed)
    for rep in reps + [split]:
        n, r = rep.ambient.dim, distinct_functionals(rep)
        assert r < n <= len(rep)
        dims.clear()
        report = spectral_report(rep)
        assert dims == [(r, r)]
        assert_spectra_match(report, ref_spectral_report(rep), rep, r)


@pytest.mark.parametrize("p", (1, 2, "inf"))
def test_spectral_report_solves_once(p, monkeypatch):
    import nuctrace.spectra as spectra

    solves, assembled = [], []
    real_solve, real_assemble = spectra.eigen_spectrum, spectra.assemble
    monkeypatch.setattr(spectra, "eigen_spectrum", lambda op: solves.append(op) or real_solve(op))
    monkeypatch.setattr(spectra, "assemble", lambda rep: assembled.append(rep) or real_assemble(rep))
    # n = 6 with k = 0, 3 < n, k = n, k = n + 1 after a split, and k = 9
    reps = [rep_with_terms(p, "random_unit", 6, k) for k in (0, 3, 6, 7)]
    for rep in reps + [random_rep(make_rng(206), p, 6, 9)]:
        solves.clear()
        assembled.clear()
        spectral_report(rep)
        assert len(solves) == (1 if len(rep) else 0)
        assert len(assembled) == (1 if distinct_functionals(rep) >= 6 else 0)


def test_rank_one_nilpotent_spectrum_is_exactly_zero():
    # unit rows (1/2, 1/2) in l1 and (1, -1) in l-inf pair to exactly 0
    f = np.array([1.0, 1.0, 0.0, 0.0])
    v = np.array([1.0, -1.0, 0.0, 0.0])
    report = spectral_report(NuclearRep(lp("inf", 4), [0.75], [f], [v]))
    assert report.eigenvalues.shape == (4,) and not report.eigenvalues.any()
    assert report.matrix_trace == report.abs_sum == report.lidskii_residual == 0.0
    assert report.eigen_sum == 0
