"""Five-stage diagonal factorization of a nuclear representation.

A representation ``sum_k mu_k f_k tensor v_k`` on an ``lp(p)`` truncation
with ``p >= 2`` factors through the chain

    lp(p) --A--> linf --D(mu^(1-s))--> lp(r) --J--> c0
          --D(mu^(s/2))--> lp(2) --D(mu^(s/2))--> lp(1) --B--> lp(p)

where row k of A evaluates the k-th functional, B sends the k-th basis
vector to v_k, J is the formal identity, and the middle diagonals carry the
weights.  :class:`Pipeline` keeps the six stages under these names, the
diagonals as ``D_one_minus_s``, ``D1`` and ``D2``, which are also their
names in the pipeline file.  Below ``p = 2`` the chain runs on the
conjugate ``lp(p')`` and factors the transpose, f_k and v_k trading places;
``1/s = 1 + |1/2 - 1/p|`` is the same for p and p'.  The exponent r is
chosen by ``(1 - s) r = s``, which is exactly what makes the first diagonal
r-summable whenever the weights are s-summable; splitting the last diagonal
evenly into two ``mu^(s/2)`` factors puts both halves in the Hilbert space
whenever the same sum is finite.

The composed chain is checked against the target built from the same
rows, the assembled matrix at ``p >= 2`` and its transpose below: the first
five stages compose to A's rows scaled by the weights, and the target is
formed in blocks of rows, each with B's product block subtracted from it
in place, so past n = 1024 the check holds no ``n x n`` array; its peak
is the ``k x n`` scaled rows and two blocks.  Each
stage is certified with a summing exponent and a recorded upper bound.
The three certificate exponents (r, 2, p) always satisfy
``1/r + 1/2 + 1/p = 1`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .exponents import Exponent, ParameterTriple, check_holder_chain
from .nuclear import NuclearRep
from .seqspace import (
    _SQRT_TINY,
    DenseOperator,
    DiagonalOperator,
    SpaceMismatchError,
    c0,
    compose,
    linf,
    lp,
    lp_norm,
    operator_to_json,
)

__all__ = [
    "Pipeline",
    "SummingCertificate",
    "build_pipeline",
    "summing_certificates",
    "pipeline_to_json",
]

# Reconstruction error budget ``tol * (1 + |T|_F)``; also the loosest suite tolerance.
RECONSTRUCTION_BUDGET = 1e-10

# The target and B's product are formed in blocks of at most this many bytes
# of rows, a multiple of 64 rows: one block up to n = 1024, 512 rows at
# n = 2048.  Each block packs the scaled rows again, so smaller blocks cost
# time.
_BLOCK_BYTES = 2**23


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
    """The assembled five-stage factorization record.  ``stages`` maps each
    stage's name in the pipeline file to its operator, in application order:
    ``A``, ``D_one_minus_s``, ``J``, ``D1``, ``D2``, ``B``; it is a read-only
    view, so the stages stay the ones the checks ran on."""

    stages: MappingProxyType[str, DenseOperator | DiagonalOperator]
    triple: ParameterTriple
    mu: np.ndarray                # the rep's read-only weights, shared
    reconstruction_error: float   # |composed - target|_F, from the norms of its row blocks
    target_norm: float            # |target|_F, likewise; the rep's matrix, transposed below 2
    norm_a: float                 # exact opnorm(A), lp(p) -> sup: largest dual norm of a row
    norm_b: float                 # exact opnorm(B), lp(1) -> lp(p): largest norm of a column


def build_pipeline(rep: NuclearRep) -> Pipeline:
    """Factor ``rep`` through the diagonal chain at its reduced triple.

    Below ``p = 2`` the chain factors the transpose on the conjugate tag,
    read from the rep's own rows: A evaluates the vectors, B sends the k-th
    basis vector to the k-th functional.  The target is built from the rows
    the chain factors, the assembled matrix at ``p >= 2`` and its transpose
    below, one block of rows at a time: each block's norm is taken, then
    B's product with the first five stages is subtracted from it in place
    and the difference's norm is taken.  The two norms come from the block
    norms with the peak scaled out.  Up to n = 1024 that is one block with
    the whole product's arithmetic and bits; past it both norms can move in
    their last bits.  The operator norms of A and B are the rep's
    :meth:`~NuclearRep.peak_norms`, read from the norms it stores with its
    rows, so no row is normed again.
    """
    if len(rep) == 0:
        raise ValueError("cannot factor an empty representation")
    triple = ParameterTriple(rep.ambient.p)
    mu = rep.mu
    k = len(rep)
    s = float(triple.s)
    rows_a, rows_b = rep.functionals, rep.vectors
    norm_a, norm_b = rep.peak_norms()
    tag_y = lp(triple.p, rep.ambient.dim)
    if tag_y != rep.ambient:
        rows_a, rows_b = rows_b, rows_a
        norm_a, norm_b = norm_b, norm_a
    tag_inf = linf(k)
    tag_r = lp(triple.r, k)
    tag_c0 = c0(k)
    tag_2 = lp(2, k)
    tag_1 = lp(1, k)

    # the even split of mu^s: one frozen mu^(s/2) serves both D1 and D2
    half = np.power(mu, s / 2.0)
    half.flags.writeable = False
    d1ms = np.power(mu, 1.0 - s)

    # A and B are the rep's own read-only rows, shared rather than copied
    stages = MappingProxyType({
        "A": DenseOperator(rows_a, tag_y, tag_inf),
        "D_one_minus_s": DiagonalOperator(d1ms, tag_inf, tag_r),
        "J": DiagonalOperator(np.ones(k), tag_r, tag_c0),
        "D1": DiagonalOperator(half, tag_c0, tag_2),
        "D2": DiagonalOperator(half, tag_2, tag_1),
        "B": DenseOperator(rows_b.T, tag_1, tag_y),
    })
    d2, b = stages["D2"], stages["B"]
    if d2.codomain != b.domain:  # compose checks the junctions up to D2
        raise SpaceMismatchError(f"junction 4: stage 4 ends in {d2.codomain} "
                                 f"but stage 5 starts from {b.domain}")
    scaled = compose(tuple(stages.values())[:-1]).matrix  # A's rows scaled, k x n
    n = rows_a.shape[1]
    step = max(64, _BLOCK_BYTES // (8 * n) // 64 * 64)
    target_norms, error_norms = [], []
    for i in range(0, n, step):
        # the target's rows i : i + step; its scaled-B temporary is gone
        # before B's product block is formed
        rows = (mu[:, None] * rows_b[:, i : i + step]).T @ rows_a
        target_norms.append(_frobenius(rows))
        np.subtract(b.matrix[i : i + step] @ scaled, rows, out=rows)
        error_norms.append(_frobenius(rows))
        del rows
    pipe = Pipeline(
        stages,
        triple=triple,
        mu=mu,
        # |.|_F of the block norms: one block gives back its own bits
        reconstruction_error=_frobenius(np.array(error_norms)),
        target_norm=_frobenius(np.array(target_norms)),
        norm_a=norm_a,
        norm_b=norm_b,
    )
    _check_pipeline(pipe)
    return pipe


def _frobenius(a: np.ndarray) -> float:
    """``|a|_F``.  A plain norm below ``sqrt(tiny)`` or infinite, where the
    squares underflow or overflow, is taken again with the peak scaled out,
    as ``row_norms`` does at p = 2, so the reconstruction gate never compares
    two infinities and tiny weights do not read 0; a zero array stays 0.0 and
    every other norm keeps its bits."""
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(a))
    if norm < _SQRT_TINY or np.isinf(norm):
        top = float(np.abs(a).max())
        if 0.0 < top < np.inf:
            norm = top * float(np.linalg.norm(a / top))
    return norm


def _check_pipeline(pipe: Pipeline) -> None:
    """Internal consistency gates; violations indicate a wiring bug."""
    err = pipe.reconstruction_error
    if err > RECONSTRUCTION_BUDGET * (1.0 + pipe.target_norm):
        raise RuntimeError(f"pipeline does not reconstruct its representation: {err:g}")
    d1ms, d1, d2 = (pipe.stages[name].diag for name in ("D_one_minus_s", "D1", "D2"))
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
    triple = pipe.triple
    d1ms, d1 = pipe.stages["D_one_minus_s"], pipe.stages["D1"]
    # each diagonal in its stage's codomain, lp(r) and lp(2)
    d1ms_r = lp_norm(d1ms.diag, d1ms.codomain)
    d_l2 = lp_norm(d1.diag, d1.codomain)

    certs = [
        SummingCertificate(
            "U3",
            triple.r,
            d1ms_r * pipe.norm_a,
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
            pipe.norm_b * d_l2,
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
        "stages": {name: operator_to_json(op) for name, op in pipe.stages.items()},
        "certificates": [c.as_dict() for c in summing_certificates(pipe)],
    }
