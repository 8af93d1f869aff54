"""Finite nuclear representations and their rewrite calculus.

A representation is a finite weighted sum of rank-one terms

    sum_k  mu_k * (f_k tensor v_k),

with vectors ``v_k`` unit-normed in the ambient ``lp`` truncation and
functionals ``f_k`` unit-normed in the conjugate tag.  A rep is built from
three arrays, the weights ``mu`` and the ``(k, dim)`` coordinate rows of the
functionals and the vectors; the constructor enforces the unit-norm
convention by absorbing all scales into ``mu``, so ``mu`` is always the full
weight of its term.

Rewrites (``split``, ``merge``, ``rotate``) change the term list while
leaving the assembled matrix fixed to rounding error; they are the probes
used to observe that the trace functional does not depend on which term
list represents an operator.  A rewrite names its new terms by their rows
in the parent rep (plus, for ``rotate``, the two rotated rows) and goes
through the constructor's own checks, which gather each stored row once,
straight from the parent's rows into its sorted position.  A rep marks the
rows it stored undivided, whose norm is exactly 1.0, so a rewrite norms only
its parent's other rows and the rows it makes.
"""

from __future__ import annotations

import numpy as np

from .exponents import OrderExponent, s_from_p
from .seqspace import (
    DenseOperator,
    SpaceTag,
    conjugate_tag,
    json_object,
    lp,
    row_norms,
)

__all__ = [
    "MU_FLOOR",
    "SchemeNotApplicableError",
    "NuclearRep",
    "quasi_norm_value",
    "nuclear_trace",
    "assemble",
    "adjoint_rep",
    "rewrite_equivalent",
    "rep_to_json",
    "rep_from_json",
]

# Terms lighter than this are dropped at construction: they are smaller than
# any representable relative contribution and only risk denormal underflow.
MU_FLOOR = 1e-300

_REWRITE_SCHEMES = ("split", "merge", "rotate")

# Bytes per block in which the constructor divides rows not of norm 1.0.
_DIVIDE_BYTES = 2**15


class SchemeNotApplicableError(ValueError):
    """Raised when a rewrite scheme has no admissible target in the rep."""


class NuclearRep:
    """An s-nuclear representation over an ``lp`` truncation.

    Parameters
    ----------
    ambient : SpaceTag
        Must be of kind ``lp``; domain and codomain of the represented
        operator coincide.
    mu : array_like, shape (k,)
        Term weights; they may carry un-normalized data.
    functionals, vectors : array_like, shape (k, dim)
        Row ``k`` holds the coordinates of the k-th functional and vector
        (arrays or nested lists).  Row norms are absorbed into ``mu``; the
        inputs are not modified.

    The library's own callers, which build the two row arrays only to make
    a rep of them, pass ``_owned=True`` to hand them over: when they are
    two distinct, writeable, C-contiguous float64 arrays and the terms keep
    their order (none reordered or dropped), the rep divides and stores
    them where they lie, read-only, instead of gathering a copy.  Every
    norm and check is the same either way.

    The order ``s`` is the curve value ``s_from_p(ambient.p)``, stored as
    ``order``; ``quasi_norm_value`` takes any other order explicitly.

    Terms lighter than ``MU_FLOOR`` are dropped and the rest sorted by
    nonincreasing weight (stable).  Weights must be finite and nonnegative,
    coordinates and their norms finite, and the total weight
    ``sum_k mu_k |f_k| |v_k|`` finite; anything else raises ``ValueError``
    before it can reach an eigensolver.
    """

    __slots__ = ("ambient", "conjugate", "order", "_mu", "_fun", "_vec", "_unit_fun",
                 "_unit_vec")

    def __init__(self, ambient: SpaceTag, mu, functionals, vectors, *, _owned=False):
        if ambient.kind != "lp":
            raise ValueError(f"ambient space must be an lp tag, got {ambient}")
        self.ambient = ambient
        self.conjugate = conjugate_tag(ambient)
        self.order = s_from_p(ambient.p)

        mu = np.asarray(mu, dtype=np.float64)
        if mu.ndim != 1:
            raise ValueError(f"weights must be a 1-d array, got shape {mu.shape}")
        k = mu.shape[0]
        fun = _rows(functionals, k, self.conjugate)
        vec = _rows(vectors, k, ambient)
        owned = _owned and not np.may_share_memory(fun, vec) and all(
            a.flags.c_contiguous and a.flags.writeable for a in (fun, vec))
        self._store(mu, fun, vec, np.arange(k), owned=owned)

    def _store(self, mu, fun, vec, take, unit=None, fresh=None, owned=False):
        """Check and store the terms of weights ``mu`` whose rows are
        ``fun[take]`` followed by the fresh functionals (and the same for
        ``vec``); ``fun`` and ``vec`` are only read, unless ``owned`` hands
        them over and the stored terms are their rows in order, which are
        then divided and stored in place.

        ``unit`` is None for raw input, whose rows are all normed, or a
        parent's pair of marks: its rows in ``fun`` and ``vec`` whose norm
        is exactly 1.0, which are not normed again.  ``fresh`` holds the
        fresh functionals, vectors and their two norms.  A stored row is
        marked when it was stored undivided, so each row's norm is computed
        once, from its own bits.
        """
        unit_f, unit_v = unit or (None, None)
        fresh_fun, fresh_vec, fresh_norm_f, fresh_norm_v = fresh or (
            fun[:0], vec[:0], np.zeros(0), np.zeros(0))
        bad = ~(np.isfinite(mu) & (mu >= 0))
        if bad.any():
            raise ValueError(f"term weights must be finite and >= 0, got {mu[bad][0]}")
        with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
            norm_f = np.concatenate([_take_norms(fun, self.conjugate, take, unit_f),
                                     fresh_norm_f])
            norm_v = np.concatenate([_take_norms(vec, self.ambient, take, unit_v),
                                     fresh_norm_v])
            scale = mu * norm_f * norm_v
            total = scale.sum()
        if not (np.isfinite(norm_f).all() and np.isfinite(norm_v).all()):
            if not all(np.isfinite(a).all() for a in (fun, vec, fresh_fun, fresh_vec)):
                raise ValueError("term coordinates must be finite")
            raise ValueError("a term coordinate norm overflows")
        if not np.isfinite(total):
            raise ValueError("total term weight sum(mu |f| |v|) overflows")

        kept = np.flatnonzero(scale >= MU_FLOOR)
        order_idx = kept[np.argsort(-scale[kept], kind="stable")]
        # stored term i is row src[i] of fun and vec, or, at the positions
        # ``at`` of terms past ``take``, a fresh row written over row 0
        t = take.shape[0]
        src = np.concatenate([take, np.zeros(fresh_fun.shape[0], dtype=take.dtype)])[order_idx]
        at = np.flatnonzero(order_idx >= t)
        nth = order_idx[at] - t
        self._mu = scale[order_idx]
        norm_f, norm_v = norm_f[order_idx], norm_v[order_idx]
        in_place = owned and at.size == 0 and np.array_equal(src, np.arange(fun.shape[0]))
        self._fun = _unit_rows(fun, src, at, fresh_fun[nth], norm_f, in_place)
        self._vec = _unit_rows(vec, src, at, fresh_vec[nth], norm_v, in_place)
        self._unit_fun, self._unit_vec = norm_f == 1.0, norm_v == 1.0
        for a in (self._mu, self._fun, self._vec, self._unit_fun, self._unit_vec):
            a.flags.writeable = False

    def __len__(self) -> int:
        return self._mu.shape[0]

    @property
    def mu(self) -> np.ndarray:
        """Term weights, nonincreasing."""
        return self._mu

    @property
    def functionals(self) -> np.ndarray:
        """Row k holds the coordinates of the k-th unit functional."""
        return self._fun

    @property
    def vectors(self) -> np.ndarray:
        """Row k holds the coordinates of the k-th unit vector."""
        return self._vec

    def peak_norms(self) -> tuple[float, float]:
        """The largest norm of a functional, in ``conjugate``, and of a
        vector, in ``ambient``.  A marked row's norm is exactly 1.0 from its
        own bits, so only the unmarked rows are normed again."""
        take = np.arange(len(self))
        peak_f = _take_norms(self._fun, self.conjugate, take, self._unit_fun).max(initial=0.0)
        peak_v = _take_norms(self._vec, self.ambient, take, self._unit_vec).max(initial=0.0)
        return float(peak_f), float(peak_v)

    def __repr__(self) -> str:
        return f"NuclearRep({self.ambient}, {len(self)} terms, s={self.order})"


def _rows(coords, k: int, tag: SpaceTag) -> np.ndarray:
    """Coordinates as a ``(k, dim)`` float array; nested lists are stacked."""
    rows = np.asarray(coords, dtype=np.float64)
    if k == 0 and rows.shape == (0,):  # an empty list
        rows = np.zeros((0, tag.dim))
    if rows.shape != (k, tag.dim):
        raise ValueError(f"term coordinates of shape {rows.shape} do not match {k} rows in {tag}")
    return rows


def _take_norms(rows: np.ndarray, tag: SpaceTag, take: np.ndarray,
                unit: np.ndarray | None) -> np.ndarray:
    """The norms of ``rows[take]``: 1.0 where ``unit`` marks the row, taken
    through ``row_norms``' scratch blocks elsewhere; without marks every row
    of ``rows`` is normed where it lies."""
    if unit is None:
        return row_norms(rows, tag)[take]
    norms = np.ones(take.shape[0])
    todo = np.flatnonzero(~unit[take])
    norms[todo] = row_norms(rows, tag, take[todo])
    return norms


def _unit_rows(rows: np.ndarray, src: np.ndarray, at: np.ndarray, fresh: np.ndarray,
               norms: np.ndarray, in_place: bool) -> np.ndarray:
    """``rows[src]`` with the rows ``fresh`` written at positions ``at``,
    each row divided by its entry of ``norms``; ``in_place`` says that this
    is ``rows`` itself, in order, and divides ``rows`` instead of a copy.

    ``x / 1.0 == x`` for finite ``x``, so rows of norm exactly 1.0 (most
    rows of an existing rep) are only gathered.  Raw input, where more than
    a third of the rows need dividing, is divided whole and in place, which
    is faster there; otherwise only those rows are divided, gathered in
    blocks of at most ``_DIVIDE_BYTES``.
    """
    if in_place:
        out = rows
    else:
        out = rows[src]
        out[at] = fresh
    todo = np.flatnonzero(norms != 1.0)
    if 3 * todo.size > out.shape[0]:
        out /= norms[:, None]
        return out
    step = max(1, _DIVIDE_BYTES // (8 * out.shape[1]))
    for i in range(0, todo.size, step):
        idx = todo[i : i + step]
        out[idx] /= norms[idx, None]
    return out


def quasi_norm_value(rep: NuclearRep, s) -> float:
    """Representation value ``(sum_k (mu_k |f_k| |v_k|)^s)^(1/s)``.

    This is the value of the *given* term list, an upper bound for the
    infimum over all representations (which is not computed here: it is a
    nonconvex search with no computable certificate).  For a fixed rep the
    value is nonincreasing in ``s``.
    """
    s = OrderExponent(s)
    norms_f = row_norms(rep.functionals, rep.conjugate)
    norms_v = row_norms(rep.vectors, rep.ambient)
    sf = float(s)
    return float(np.power(np.power(rep.mu * norms_f * norms_v, sf).sum(), 1.0 / sf))


def nuclear_trace(rep: NuclearRep) -> float:
    """``sum_k mu_k <f_k, v_k>``, linear in the term list."""
    pairings = np.einsum("kn,kn->k", rep.functionals, rep.vectors)
    return float(np.dot(rep.mu, pairings))


def assemble(rep: NuclearRep) -> DenseOperator:
    """Materialize ``sum_k mu_k v_k f_k^T`` as a dense matrix on the ambient tag."""
    m = (rep.mu[:, None] * rep.vectors).T @ rep.functionals
    m.flags.writeable = False  # the operator keeps the fresh product, uncopied
    return DenseOperator(m, rep.ambient, rep.ambient)


def adjoint_rep(rep: NuclearRep) -> NuclearRep:
    """Swap functional and vector roles; the transpose acting on the conjugate tag.

    Unit norms are preserved by the swap (each side was normalized in the
    norm it now needs), the weights are untouched, the trace is identical,
    and the assembled matrix is the transpose of the original.
    """
    return NuclearRep(rep.conjugate, rep.mu, rep.vectors, rep.functionals)


def _generator(*entropy: int) -> np.random.Generator:
    """PCG64 seeded by ``SeedSequence(entropy)``; one seed ``s`` gives the
    stream of ``SeedSequence(s)``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def _rewritten(rep: NuclearRep, mu: np.ndarray, take: np.ndarray, fresh=None) -> NuclearRep:
    """The rep of weights ``mu`` on the rows ``take`` of ``rep`` followed
    by the ``fresh`` rows (see ``NuclearRep._store``), through the
    constructor's checks; of ``rep``'s rows only those it does not mark are
    normed again."""
    out = object.__new__(NuclearRep)
    out.ambient, out.conjugate, out.order = rep.ambient, rep.conjugate, rep.order
    out._store(mu, rep.functionals, rep.vectors, take, (rep._unit_fun, rep._unit_vec), fresh)
    return out


def _split(rep: NuclearRep, rng: np.random.Generator) -> NuclearRep:
    if len(rep) < 1:
        raise SchemeNotApplicableError("split needs at least one term")
    k = int(rng.integers(len(rep)))
    take = np.insert(np.arange(len(rep)), k, k)
    mu = rep.mu[take]
    mu[k : k + 2] = rep.mu[k] / 2.0
    return _rewritten(rep, mu, take)


def _parallel_pairs(rep: NuclearRep) -> list[tuple[int, int]]:
    """Pairs whose rank-one terms are positively parallel (mergeable).

    A pair is mergeable when (f_i, v_i) = (sign f_j, sign v_j) with a joint
    sign, so both outer products point the same way.  Each term is
    sign-canonicalized (the functional's largest entry made positive, the
    vector flipped along) and the joint rows are sorted lexicographically
    (stable), so candidates are adjacent.  Adjacent rows ``a, b`` are
    compared with the ``np.allclose`` test ``|a - b| <= 1e-12 + 1e-9 |b|``,
    which is elementwise: it runs first on two screening columns (the
    functional's and the vector's first coordinates) and then on the full
    rows of the pairs that pass.  Pairs come in sorted order, as
    ``(smaller index, larger index)``.
    """
    k, n = len(rep), rep.ambient.dim
    lead = np.argmax(np.abs(rep.functionals), axis=1)
    signs = np.sign(rep.functionals[np.arange(k), lead])
    signs[signs == 0] = 1.0
    canon = np.concatenate([rep.functionals, rep.vectors], axis=1)
    canon *= signs[:, None]
    canon += 0.0  # -0.0 becomes 0.0, which the float order ties it with
    # Each float as a 64-bit key whose unsigned value has the same order
    # (negatives: all bits flipped; the rest: the sign bit set), stored
    # big-endian: one stable byte-string sort of the rows is the
    # column-by-column lexicographic sort.
    bits = canon.view(np.int64)
    keys = bits >> 63  # -1 on negatives, else 0
    keys |= np.int64(-1 << 63)
    keys ^= bits
    keys.byteswap(inplace=True)
    order = np.argsort(keys.view(f"S{keys.shape[1] * 8}")[:, 0], kind="stable")
    a, b = _close_rows(canon[:, [0, n]], order[:-1], order[1:])
    a, b = _close_rows(canon, a, b)
    return list(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))


def _close_rows(rows: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The index pairs ``(a, b)`` whose rows pass ``|a - b| <= 1e-12 + 1e-9 |b|``."""
    rb = rows[b]
    gap = rows[a]
    gap -= rb
    np.abs(gap, out=gap)
    np.abs(rb, out=rb)
    rb *= 1e-9
    rb += 1e-12
    close = (gap <= rb).all(axis=1)
    return a[close], b[close]


def _merge(rep: NuclearRep, rng: np.random.Generator) -> NuclearRep:
    pairs = _parallel_pairs(rep)
    if not pairs:
        raise SchemeNotApplicableError("merge needs two parallel-compatible terms")
    i, j = pairs[int(rng.integers(len(pairs)))]
    take = np.concatenate(([i], np.delete(np.arange(len(rep)), [i, j])))
    mu = rep.mu[take]
    mu[0] = rep.mu[i] + rep.mu[j]
    return _rewritten(rep, mu, take)


def _rotate(rep: NuclearRep, rng: np.random.Generator) -> NuclearRep:
    if len(rep) < 2:
        raise SchemeNotApplicableError("rotate needs at least two terms")
    idx = rng.choice(len(rep), size=2, replace=False)
    i, j = int(idx[0]), int(idx[1])
    theta = float(rng.uniform(np.pi / 8, 3 * np.pi / 8))
    return rotate_pair(rep, i, j, theta)


def rotate_pair(rep: NuclearRep, i: int, j: int, theta: float) -> NuclearRep:
    """Joint plane rotation of terms i and j; the assembled sum is invariant.

    Writing the pair as ``x_i y_i^T + x_j y_j^T`` with ``x = mu v`` scaled
    and ``y = f``, both sides are rotated by the same angle:

        x_i' =  c x_i + s x_j      y_i' =  c y_i + s y_j
        x_j' = -s x_i + c x_j      y_j' = -s y_i + c y_j

    so the sum of outer products is exactly preserved (the rotation cancels
    against its transpose).  The other terms keep their order and the two
    rotated terms follow them.  When the pair shares a functional the
    rotation redistributes weight between the two terms; at theta = pi/4
    one term degenerates to zero and is dropped, which merges the pair.
    Negative ``i``, ``j`` count from the end; naming one term twice or a
    non-finite ``theta`` raises ``ValueError``, a boolean index ``TypeError``.
    """
    if isinstance(i, (bool, np.bool_)) or isinstance(j, (bool, np.bool_)):
        raise TypeError(f"rotate_pair takes integer term indices, got {i!r} and {j!r}")
    if not np.isfinite(theta):
        raise ValueError(f"rotate_pair needs a finite angle, got {theta}")
    c, s = np.cos(theta), np.sin(theta)
    mu_i, mu_j = rep.mu[i], rep.mu[j]  # rejects an index out of range
    lo, hi = sorted((i % len(rep), j % len(rep)))
    if lo == hi:
        raise ValueError(f"rotate_pair needs two distinct terms, got {i} and {j}")
    f_i, f_j = rep.functionals[i], rep.functionals[j]
    x_i, x_j = mu_i * rep.vectors[i], mu_j * rep.vectors[j]
    fun = np.array([c * f_i + s * f_j, -s * f_i + c * f_j])
    vec = np.array([c * x_i + s * x_j, -s * x_i + c * x_j])
    # a degenerate side (for a shared pair at theta = pi/4, up to rounding)
    # leaves a term far below the pair weight; dropping it perturbs the
    # assembled matrix by at most 1e-14 relative, inside the contract
    norm_f, norm_v = row_norms(fun, rep.conjugate), row_norms(vec, rep.ambient)
    live = norm_f * norm_v > 1e-14 * (mu_i + mu_j)
    take = np.delete(np.arange(len(rep)), [lo, hi])
    mu = np.concatenate([rep.mu[take], np.ones(int(live.sum()))])
    return _rewritten(rep, mu, take, (fun[live], vec[live], norm_f[live], norm_v[live]))


def rewrite_equivalent(rep: NuclearRep, scheme: str, seed: int) -> NuclearRep:
    """Return a different term list assembling to the same matrix.

    ``split`` halves one term into two copies, ``merge`` inverts a split on
    a parallel-compatible pair, ``rotate`` applies the joint plane rotation
    of :func:`rotate_pair` to a random pair.  Deterministic in (rep, scheme,
    seed).
    """
    if scheme not in _REWRITE_SCHEMES:
        raise ValueError(f"unknown rewrite scheme {scheme!r}")
    rng = _generator(seed)
    if scheme == "split":
        return _split(rep, rng)
    if scheme == "merge":
        return _merge(rep, rng)
    return _rotate(rep, rng)


def rep_to_json(rep: NuclearRep) -> dict:
    return {
        "ambient": {"p": str(rep.ambient.p), "dim": rep.ambient.dim},
        "order_s": str(rep.order),
        "terms": [
            {"mu": mu, "functional": f, "vector": v}
            for mu, f, v in zip(rep.mu.tolist(), rep.functionals.tolist(), rep.vectors.tolist())
        ],
    }


def rep_from_json(data) -> NuclearRep:
    """The rep stored by :func:`rep_to_json`; malformed data raises a
    one-line ``ValueError``.

    An ``order_s``, if present, must be the curve value of ``p``.  Each
    functional and vector must be a JSON array of ``dim`` coordinates.
    Weights and coordinates must be JSON numbers: a string or a boolean is
    not read as one.
    """
    json_object(data, "representation", "ambient", "terms")
    space = json_object(data["ambient"], "representation ambient", "p", "dim")
    if not isinstance(data["terms"], list):
        raise ValueError("representation terms must be a JSON array")
    terms = [json_object(t, "representation term", "mu", "functional", "vector")
             for t in data["terms"]]
    try:
        ambient = lp(space["p"], space["dim"])
        s = s_from_p(ambient.p)
        if "order_s" in data and (order := OrderExponent(data["order_s"])) != s:
            raise ValueError(f"representation order_s {order} is off the curve: p = {ambient.p} "
                             f"has order {s}")
        for i, term in enumerate(terms):
            for key in ("functional", "vector"):
                if not isinstance(row := term[key], list):
                    raise ValueError(f"representation term {i} {key} must be a JSON array, "
                                     f"got {type(row).__name__}")
                if len(row) != ambient.dim:
                    raise ValueError(f"representation term {i} {key} has {len(row)} coordinates, "
                                     f"dim is {ambient.dim}")
        mu, fun, vec = ([t[key] for t in terms] for key in ("mu", "functional", "vector"))
        # type, not isinstance, since a bool is an int
        found = set(map(type, mu)).union(*(map(type, row) for row in fun + vec))
        if not found <= {int, float}:
            kind = min(t.__name__ for t in found - {int, float})
            raise ValueError("representation weights and coordinates must be JSON numbers, "
                             f"got a {kind}")
        mu, fun, vec = (np.array(x, dtype=np.float64) for x in (mu, fun, vec))
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed representation: {exc}") from exc
    return NuclearRep(ambient, mu, fun, vec, _owned=True)
