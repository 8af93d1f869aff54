"""Dense spectra of finite representations and summability diagnostics.

The eigensolver contract is a full backward-stable dense spectrum with
algebraic multiplicities; the LAPACK solver behind ``numpy.linalg`` meets
it.  A rep with ``k`` terms on an ``n``-dimensional truncation is solved on
the smaller of two matrices.  Terms sharing a bitwise-identical functional
collapse, ``sum_{k in h} mu_k f_h (x) v_k = f_h (x) w_h``, into ``r <= k``
groups (in order of first appearance).  When ``r >= n`` the assembled
``n x n`` matrix is solved.  When ``r < n`` it is the ``r x r`` coefficient
matrix ``M_gh = <f_g, w_h> = sum_{k in h} mu_k <f_g, v_k>``, whose nonzero
eigenvalues are those of ``T = sum_h w_h f_h^T`` with algebraic multiplicity
(``M = F W^T`` and ``T = W^T F`` with ``F`` the ``r`` distinct functionals),
padded by ``n - r`` exact zeros.  Reports order eigenvalues by nonincreasing
modulus with ties broken by ascending principal argument in (-pi, pi] (zero
modulus sorts last, with argument 0), so repeated runs produce identical
files.

All tolerance budgets use the affine form ``tol * (1 + magnitude)`` so they
behave sensibly at both tiny and large scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .nuclear import NuclearRep, assemble, nuclear_trace
from .seqspace import DenseOperator, lp

__all__ = [
    "EigensolverError",
    "SpectralReport",
    "LadderRow",
    "eigen_spectrum",
    "spectral_report",
    "summability_ladder",
    "ladder_csv",
    "LADDER_CSV_HEADER",
]

LADDER_CSV_HEADER = "level,abs_sum,tail_fraction,residual"

# Eigensolver accuracy budget used by residual checks downstream.
RESIDUAL_BUDGET = 1e-9


class EigensolverError(RuntimeError):
    """Dense eigensolve did not converge; nothing is silently truncated."""


def eigen_spectrum(op: DenseOperator) -> np.ndarray:
    """All eigenvalues with algebraic multiplicity, in report order."""
    if op.domain != op.codomain:
        raise ValueError(f"spectrum needs an endomorphism, got {op.domain} -> {op.codomain}")
    try:
        ev = np.linalg.eigvals(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed to converge: {exc}") from exc
    return _sort_spectrum(ev)


def _sort_spectrum(ev: np.ndarray) -> np.ndarray:
    mods = np.abs(ev)
    args = np.angle(ev)
    args = np.where(args == -np.pi, np.pi, args)  # principal branch is (-pi, pi]
    args = np.where(mods == 0.0, 0.0, args)
    order = np.lexsort((args, -mods))
    out = ev[order]
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: np.ndarray
    matrix_trace: float
    eigen_sum: complex
    abs_sum: float
    lidskii_residual: float
    dim: int

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "eigenvalues": [[float(z.real), float(z.imag)] for z in self.eigenvalues],
            "matrix_trace": self.matrix_trace,
            "eigen_sum": [float(self.eigen_sum.real), float(self.eigen_sum.imag)],
            "abs_sum": self.abs_sum,
            "lidskii_residual": self.lidskii_residual,
        }


def _distinct_functionals(fun: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each group of bitwise-identical rows of ``fun``: the index of its first
    row, in order of appearance, and the group number of every row.

    Only rows whose fingerprints ``fun @ w`` (an einsum, the same arithmetic
    for every row, with a fixed random ``w``) collide are compared byte for
    byte.  A group the fingerprints split would cost solve size, not
    correctness.
    """
    k = fun.shape[0]
    key = np.einsum("kn,n->k", fun, np.random.default_rng(0).standard_normal(fun.shape[1]))
    order = np.argsort(key, kind="stable")
    cand = np.flatnonzero(key[order[1:]] == key[order[:-1]])
    bits = fun.view(np.uint64)
    joins = np.zeros(k, dtype=bool)  # sorted row i is in the group of sorted row i - 1
    joins[cand + 1] = (bits[order[cand]] == bits[order[cand + 1]]).all(axis=1)
    group = np.cumsum(~joins) - 1
    # a stable sort puts each group's first row first
    heads = order[~joins]
    rank = np.argsort(heads)
    labels = np.empty(k, dtype=np.intp)
    labels[order] = np.argsort(rank)[group]
    return heads[rank], labels


def _spectrum(rep: NuclearRep) -> tuple[np.ndarray, np.ndarray]:
    """The rep's ``n`` eigenvalues in report order, and the matrix that was
    solved (see the module docstring for which one)."""
    n, k = rep.ambient.dim, len(rep)
    heads, labels = _distinct_functionals(rep.functionals)
    r = heads.shape[0]
    if r >= n:
        op = assemble(rep)
        return eigen_spectrum(op), op.matrix
    ev, solved = np.zeros(0), np.zeros((0, 0))
    if r > 0:
        fun = rep.functionals if r == k else rep.functionals[heads]
        m = fun @ rep.vectors.T
        m *= rep.mu[None, :]
        if r < k:  # column h sums the columns of the terms in group h
            by_group = np.argsort(labels, kind="stable")
            starts = np.searchsorted(labels[by_group], np.arange(r))
            m = np.add.reduceat(m[:, by_group], starts, axis=1)
        tag = lp(rep.ambient.p, r)
        m.flags.writeable = False  # the operator keeps the fresh matrix, uncopied
        op = DenseOperator(m, tag, tag)
        ev, solved = eigen_spectrum(op), op.matrix
    # zero modulus sorts last, so the padded spectrum stays in report order
    ev = np.concatenate([ev, np.zeros(n - r, dtype=ev.dtype)])
    ev.flags.writeable = False
    return ev, solved


def spectral_report(rep: NuclearRep) -> SpectralReport:
    """Solve the rep's spectrum and compare its trace data.

    ``lidskii_residual`` is the distance between the representation trace
    ``sum mu_k <f_k, v_k>`` and the eigenvalue sum; in finite dimensions it
    can only be eigensolver noise, which is exactly why it is the quantity
    worth watching as truncations grow.  ``matrix_trace`` is the trace of
    the matrix solved, a matmul-based value independent of the einsum in
    :func:`nuclear_trace`.
    """
    ev, solved = _spectrum(rep)
    eigen_sum = complex(ev.sum())
    return SpectralReport(
        eigenvalues=ev,
        matrix_trace=float(np.trace(solved)),
        eigen_sum=eigen_sum,
        abs_sum=float(np.abs(ev).sum()),
        lidskii_residual=abs(nuclear_trace(rep) - eigen_sum),
        dim=rep.ambient.dim,
    )


@dataclass(frozen=True)
class LadderRow:
    level: int
    abs_sum: float
    tail_fraction: float
    residual: float


def summability_ladder(
    family: Callable[[int], NuclearRep],
    levels: Sequence[int],
) -> list[LadderRow]:
    """Spectral summability diagnostics along a truncation ladder.

    ``family`` maps a truncation level to a representation (it must be
    deterministic for reproducible tables).  Each row reports the modulus
    sum ``S_N``, the fraction of it carried by eigenvalues ranked beyond
    ``N/4`` (a fixed-quantile tail statistic: summability is observable as
    a shrinking tail without asserting any rate), and the trace residual.
    Rows come back in ladder order.
    """
    levels = list(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("ladder levels must be strictly increasing")
    rows = []
    for level in levels:
        report = spectral_report(family(level))
        cutoff = level // 4
        mods = np.abs(report.eigenvalues)  # already sorted nonincreasing
        tail = float(mods[cutoff:].sum())
        tail_fraction = tail / report.abs_sum if report.abs_sum > 0 else 0.0
        rows.append(
            LadderRow(
                level=level,
                abs_sum=report.abs_sum,
                tail_fraction=tail_fraction,
                residual=report.lidskii_residual,
            )
        )
    return rows


def ladder_csv(rows: Sequence[LadderRow]) -> str:
    """CSV table with 12 significant digits in fixed scientific notation."""
    lines = [LADDER_CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.level},{row.abs_sum:.11e},{row.tail_fraction:.11e},{row.residual:.11e}"
        )
    return "\n".join(lines) + "\n"
