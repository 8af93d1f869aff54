import tracemalloc

import numpy as np
import pytest

from nuctrace import NuclearRep, assemble, conjugate_tag, lp, reduce_to_p_ge_2, row_norms


def make_rng(*entropy: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def one_row_norm(row, tag):
    """Norm of one row taken on that row alone: the arithmetic ``row_norms``
    gives every row (peak scaled out for finite p, ``np.dot`` at p = 2, and
    the peak scaled out there too where the squares may have underflowed or
    overflowed)."""
    x = np.abs(np.asarray(row, dtype=np.float64))
    if tag.kind != "lp" or tag.p.is_inf:
        return x.max(initial=0.0)
    pf = float(tag.p)
    if pf == 1.0:
        return x.sum()
    if pf == 2.0:
        with np.errstate(over="ignore"):
            norm = np.sqrt(np.dot(x, x))
        if np.sqrt(np.finfo(np.float64).tiny) <= norm < np.inf:
            return norm
        top = x.max(initial=0.0)
        x /= top if 0.0 < top < np.inf else 1.0
        return top * np.sqrt(np.dot(x, x))
    top = x.max(initial=0.0)
    x /= top if 0.0 < top < np.inf else 1.0
    np.power(x, pf, out=x)
    return top * np.power(x.sum(), 1.0 / pf)


def random_rep(rng, p, dim, n_terms, decay=1.2) -> NuclearRep:
    """Seeded rep with unit rank-one terms and power-decaying weights."""
    ambient = lp(p, dim)
    conj = conjugate_tag(ambient)
    # rows drawn in term order f_0, v_0, f_1, v_1, ...
    draws = rng.standard_normal((n_terms, 2, dim))
    fun = draws[:, 0] / row_norms(draws[:, 0], conj)[:, None]
    vec = draws[:, 1] / row_norms(draws[:, 1], ambient)[:, None]
    return NuclearRep(ambient, [(k + 1.0) ** -decay for k in range(n_terms)], fun, vec)


def chain_rows(rep):
    """A's rows, B's rows and the target of ``rep``'s pipeline chain: the
    functionals, the vectors and ``assemble(rep)`` at p >= 2; below, the
    two sides trade places and the target is the chain's own product of
    them, which lies within ``1e-15 |T|_F`` of the assembled transpose."""
    target = assemble(rep).matrix
    if rep.ambient.p == reduce_to_p_ge_2(rep.ambient.p):
        return rep.functionals, rep.vectors, target
    rows_a, rows_b = rep.vectors, rep.functionals
    chain = (rep.mu[:, None] * rows_b).T @ rows_a
    assert np.linalg.norm(chain - target.T) <= 1e-15 * np.linalg.norm(target)
    return rows_a, rows_b, chain


def traced_peak(fn):
    """``fn()`` and the peak of traced memory above what was live before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    return out, peak


@pytest.fixture
def rng():
    return make_rng(1234)
