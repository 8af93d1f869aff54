"""Five-stage diagonal factorization of a nuclear representation.

A representation ``sum_k mu_k f_k tensor v_k`` on an ``lp(p)`` truncation
with ``p >= 2`` factors through the chain

    lp(p) --A--> linf --D(mu^(1-s))--> lp(r) --j--> c0
          --D(mu^(s/2))--> lp(2) --D(mu^(s/2))--> lp(1) --B--> lp(p)

where row k of A evaluates the k-th functional, B sends the k-th basis
vector to v_k, j is the formal identity, and the middle diagonals carry the
weights.  Below ``p = 2`` the chain runs on the conjugate ``lp(p')`` and
factors the transpose, f_k and v_k trading places; ``1/s = 1 + |1/2 - 1/p|``
is the same for p and p'.  The exponent r is chosen by ``(1 - s) r = s``,
which is exactly what makes the first diagonal r-summable whenever the
weights are s-summable; splitting the last diagonal evenly into two
``mu^(s/2)`` factors puts both halves in the Hilbert space whenever the
same sum is finite.

Each stage is certified with a summing exponent and a recorded upper
bound.  The three certificate exponents (r, 2, p) always satisfy
``1/r + 1/2 + 1/p = 1`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import (
    Exponent,
    OrderExponent,
    ParameterTriple,
    check_holder_chain,
)
from .nuclear import NuclearRep, assemble
from .seqspace import (
    DenseOperator,
    DiagonalOperator,
    c0,
    compose,
    conjugate_tag,
    linf,
    lp,
    lp_norm,
    operator_to_json,
    row_norms,
)

__all__ = [
    "Pipeline",
    "SummingCertificate",
    "build_pipeline",
    "split_diagonal",
    "summing_certificates",
    "pipeline_to_json",
]

# Reconstruction error budget ``tol * (1 + |T|_F)``; also the loosest suite tolerance.
RECONSTRUCTION_BUDGET = 1e-10

# side of the square tiles in which build_pipeline subtracts the target
_TILE = 128


@dataclass(frozen=True)
class SummingCertificate:
    """A recorded summing-norm upper bound for one composite stage."""

    stage_label: str  # "U1", "U2" or "U3"
    exponent: Exponent
    bound: float
    formula: str

    def as_dict(self) -> dict:
        return {
            "stage": self.stage_label,
            "exponent": str(self.exponent),
            "bound": self.bound,
            "formula": self.formula,
        }


@dataclass(frozen=True)
class Pipeline:
    """The assembled five-stage factorization record."""

    stage_a: DenseOperator        # lp(p) -> linf, row k = functional k (vector k below 2)
    stage_d1ms: DiagonalOperator  # linf -> lp(r), diag mu^(1-s)
    stage_j: DiagonalOperator     # lp(r) -> c0, formal identity
    stage_d1: DiagonalOperator    # c0 -> lp(2), diag mu^(s/2)
    stage_d2: DiagonalOperator    # lp(2) -> lp(1), diag mu^(s/2)
    stage_b: DenseOperator        # lp(1) -> lp(p), column k = vector k (functional k below 2)
    triple: ParameterTriple
    mu: np.ndarray                # the rep's read-only weights, shared
    reconstruction_error: float   # |composed - target|_F, computed once
    target_norm: float            # |target|_F; target = assemble(rep), transposed below 2

    def stages(self) -> list[DenseOperator | DiagonalOperator]:
        """All six stages in application order."""
        return [
            self.stage_a,
            self.stage_d1ms,
            self.stage_j,
            self.stage_d1,
            self.stage_d2,
            self.stage_b,
        ]


def split_diagonal(mu, s) -> tuple[np.ndarray, np.ndarray]:
    """Even split of the diagonal ``mu^s`` into two ``mu^(s/2)`` factors.

    Both halves have squared l2 norm ``sum mu^s``, so they live in the
    Hilbert space exactly when the s-powers are summable.  Among uneven
    splits ``(mu^(a s), mu^((1-a) s))`` the even one minimizes the larger
    of the two l2 bounds.
    """
    mu = np.asarray(mu, dtype=np.float64).reshape(-1)
    if mu.size == 0 or np.any(mu <= 0) or not np.all(np.isfinite(mu)):
        raise ValueError("diagonal entries must be strictly positive and finite")
    s = OrderExponent(s)
    half = np.power(mu, float(s) / 2.0)
    half.flags.writeable = False
    return half, half


def build_pipeline(rep: NuclearRep) -> Pipeline:
    """Factor ``rep`` through the diagonal chain at its reduced triple.

    Below ``p = 2`` the chain factors the transpose on the conjugate tag,
    read from the rep's own rows: A evaluates the vectors, B sends the k-th
    basis vector to the k-th functional, and the target is the transposed
    assembled matrix.
    """
    if len(rep) == 0:
        raise ValueError("cannot factor an empty representation")
    triple = ParameterTriple(rep.ambient.p)
    if rep.order != triple.s:
        raise ValueError(
            f"representation order {rep.order} is off the curve value {triple.s}; "
            "the pipeline factors at the curve order only"
        )
    mu = rep.mu
    k = len(rep)
    s = float(triple.s)
    target = assemble(rep).matrix
    tag_y, rows_a, rows_b = rep.ambient, rep.functionals, rep.vectors
    if rep.ambient.p < 2:
        tag_y, rows_a, rows_b, target = rep.conjugate, rows_b, rows_a, target.T
    tag_inf = linf(k)
    tag_r = lp(triple.r, k)
    tag_c0 = c0(k)
    tag_2 = lp(2, k)
    tag_1 = lp(1, k)

    d1, d2 = split_diagonal(mu, triple.s)
    d1ms = np.power(mu, 1.0 - s)

    # A and B are the rep's own read-only rows, shared rather than copied
    stages = (
        DenseOperator(rows_a, tag_y, tag_inf),
        DiagonalOperator(d1ms, tag_inf, tag_r),
        DiagonalOperator(np.ones(k), tag_r, tag_c0),
        DiagonalOperator(d1, tag_c0, tag_2),
        DiagonalOperator(d2, tag_2, tag_1),
        DenseOperator(rows_b.T, tag_1, tag_y),
    )
    pipe = Pipeline(
        *stages,
        triple=triple,
        mu=mu,
        reconstruction_error=_distance(compose(stages).matrix, target),
        target_norm=_frobenius(target),
    )
    _check_pipeline(pipe)
    return pipe


def _distance(product: np.ndarray, target: np.ndarray) -> float:
    """``|product - target|_F``, bitwise, with the difference taken in place
    in ``product``: the fresh, frozen output of ``compose`` that nothing else
    holds.  Square tiles keep a transposed target's reads in cache."""
    product.flags.writeable = True
    rows, cols = product.shape
    for i in range(0, rows, _TILE):
        for j in range(0, cols, _TILE):
            product[i : i + _TILE, j : j + _TILE] -= target[i : i + _TILE, j : j + _TILE]
    return _frobenius(product)


def _frobenius(a: np.ndarray) -> float:
    """``|a|_F``; a plain norm that overflows is taken again with the peak
    scaled out, so the reconstruction gate never compares two infinities."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if np.isinf(norm):
        top = float(np.abs(a).max())
        norm = top * float(np.linalg.norm(a / top))
    return norm


def _check_pipeline(pipe: Pipeline) -> None:
    """Internal consistency gates; violations indicate a wiring bug."""
    err = pipe.reconstruction_error
    if err > RECONSTRUCTION_BUDGET * (1.0 + pipe.target_norm):
        raise RuntimeError(f"pipeline does not reconstruct its representation: {err:g}")
    d1ms, d1, d2 = pipe.stage_d1ms.diag, pipe.stage_d1.diag, pipe.stage_d2.diag
    if not np.allclose(d1 * d2 * d1ms, pipe.mu, rtol=1e-13, atol=0.0):
        raise RuntimeError("diagonal stages do not multiply back to the weights")


def summing_certificates(pipe: Pipeline) -> list[SummingCertificate]:
    """Certificates for the three-factor regrouping U3, U2, U1 (applied in
    that order), with exponents (r, 2, p) summing reciprocally to 1.

    U3 = j . D(mu^(1-s)) . A   absolutely r-summing, diagonal bound;
    U2 = D(mu^(s/2))           absolutely 2-summing, Hilbert diagonal bound;
    U1 = B . D(mu^(s/2))       absolutely p-summing via order boundedness.

    The U3 and U2 bounds are the exact diagonal formulas scaled by exact
    finite-stage operator norms.  The U1 bound reuses the same diagonal l2
    value; order boundedness gives no constant, so its sharpness is not
    certified.
    """
    triple, a, b = pipe.triple, pipe.stage_a, pipe.stage_b
    # exact operator norms: lp(p) -> sup is the largest dual norm of a row
    # of A, lp(1) -> lp(p) the largest norm of a column of B
    norm_a = float(row_norms(a.matrix, conjugate_tag(a.domain)).max())
    norm_b = float(row_norms(b.matrix.T, b.codomain).max())
    # each diagonal in its stage's codomain, lp(r) and lp(2)
    d1ms_r = lp_norm(pipe.stage_d1ms.diag, pipe.stage_d1ms.codomain)
    d_l2 = lp_norm(pipe.stage_d1.diag, pipe.stage_d1.codomain)

    certs = [
        SummingCertificate(
            "U3",
            triple.r,
            d1ms_r * norm_a,
            "lr_norm(mu^(1-s)) * opnorm(A); sup of the diagonal when r = inf",
        ),
        SummingCertificate(
            "U2",
            Exponent(2),
            d_l2,
            "l2_norm(mu^(s/2)) = (sum mu^s)^(1/2)",
        ),
        SummingCertificate(
            "U1",
            triple.p,
            norm_b * d_l2,
            "opnorm(B) * l2_norm(mu^(s/2)); order-bounded upper bound, "
            "sharpness not certified",
        ),
    ]
    if not check_holder_chain([c.exponent for c in certs]):
        raise RuntimeError("certificate exponents fail the exact chain identity")
    return certs


def pipeline_to_json(pipe: Pipeline) -> dict:
    """Pipeline JSON, format 2: A and B as dense matrices, every diagonal
    stage once, as its ``diagonal``.

    ``mu`` and every stage's ``matrix`` or ``diagonal`` are read-only
    C-contiguous float64 ndarrays (see :func:`operator_to_json`), not lists:
    write the document with orjson and ``OPT_SERIALIZE_NUMPY``, which the
    stdlib ``json`` cannot do.  ``mu`` is the pipeline's own weights, the
    rep's read-only array.
    """
    return {
        "format": 2,
        "triple": pipe.triple.as_dict(),
        "mu": pipe.mu,
        "stages": {
            "A": operator_to_json(pipe.stage_a),
            "D_one_minus_s": operator_to_json(pipe.stage_d1ms),
            "J": operator_to_json(pipe.stage_j),
            "D1": operator_to_json(pipe.stage_d1),
            "D2": operator_to_json(pipe.stage_d2),
            "B": operator_to_json(pipe.stage_b),
        },
        "certificates": [c.as_dict() for c in summing_certificates(pipe)],
    }
