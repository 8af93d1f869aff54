"""Finite truncations of the classical sequence spaces.

A :class:`SpaceTag` names a truncated space: ``lp(p, n)`` for any exponent
``p`` in ``[1, inf]``, plus the distinct tags ``c0(n)`` and ``linf(n)``.
At a fixed truncation ``c0``, ``linf`` and ``lp(inf)`` all carry the sup
norm, but they remain different tags on purpose: operator composition
requires exact tag equality at every junction, which turns wiring mistakes
in multi-stage factorizations into immediate errors instead of silently
wrong numbers.

Operators are read-only float64 arrays tagged with their domain and
codomain; truncation levels are capped at 4096.  A diagonal operator is
stored as its diagonal, which :func:`compose` applies by scaling rows.
Vectors and functionals are plain arrays, one per row, normed against a tag.

Sharing rule: a :class:`DenseOperator` and a :class:`DiagonalOperator`
keep a read-only float64 array as it is, without a copy, and copy and
freeze anything else.  Read-only is numpy's flag, not a guarantee: the
owner of the memory can make it writeable again and change the operator
under its feet, so only hand over arrays whose owner keeps them frozen (the
rows of a ``NuclearRep``, say).

:func:`row_norms` takes the norm of every row of a ``(k, dim)`` array,
walking the rows in cache-sized blocks through one reused scratch array, so
its memory does not grow with ``k``; :func:`lp_norm` is its one-row case,
so the library has a single norm path.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exponents import Exponent, conjugate

__all__ = [
    "MAX_DIM",
    "SpaceMismatchError",
    "SpaceTag",
    "DenseOperator",
    "DiagonalOperator",
    "lp",
    "c0",
    "linf",
    "conjugate_tag",
    "lp_norm",
    "row_norms",
    "compose",
    "json_object",
    "tag_to_json",
    "operator_to_json",
]

MAX_DIM = 4096

# row_norms works through its rows in blocks of this many bytes of float64
_BLOCK_BYTES = 2**18

# below this l2 norm a row's squares may have underflowed
_SQRT_TINY = float(np.sqrt(np.finfo(np.float64).tiny))

# the largest finite exponent an lp tag takes: its norms need float(p)
_MAX_P = int(np.finfo(np.float64).max)

_KINDS = ("lp", "c0", "linf")


class SpaceMismatchError(ValueError):
    """Raised when tags disagree where two objects must share a space."""


@dataclass(frozen=True)
class SpaceTag:
    kind: str
    p: Exponent | None
    dim: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.kind == "lp":
            object.__setattr__(self, "p", Exponent(self.p))
            if not self.p.is_inf and self.p.value > _MAX_P:
                raise ValueError("a finite lp exponent must not exceed the largest double, "
                                 "about 1.8e308; use inf")
        elif self.p is not None:
            raise ValueError(f"{self.kind} tags carry no exponent")
        dim = self.dim
        if isinstance(dim, bool) or not isinstance(dim, int) or not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dim must be an integer in [1, {MAX_DIM}], got {dim!r}")

    def __str__(self) -> str:
        if self.kind == "lp":
            return f"lp({self.p})^{self.dim}"
        return f"{self.kind}^{self.dim}"


def lp(p, dim: int) -> SpaceTag:
    return SpaceTag("lp", p, dim)


def c0(dim: int) -> SpaceTag:
    return SpaceTag("c0", None, dim)


def linf(dim: int) -> SpaceTag:
    return SpaceTag("linf", None, dim)


def conjugate_tag(tag: SpaceTag) -> SpaceTag:
    """The tag carrying the dual norm at the same truncation.

    ``lp(p)`` pairs with ``lp(p')``; the sup-normed tags ``c0`` and
    ``linf`` pair with ``lp(1)``.
    """
    if tag.kind == "lp":
        return lp(conjugate(tag.p), tag.dim)
    return lp(1, tag.dim)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _shared(a) -> np.ndarray:
    """``a`` itself if it is a read-only float64 ndarray (the sharing rule),
    otherwise a frozen float64 copy of it."""
    if type(a) is np.ndarray and a.dtype == np.float64 and not a.flags.writeable:
        return a
    return _freeze(np.array(a, dtype=np.float64, copy=True))


@dataclass(frozen=True)
class DenseOperator:
    """A dense operator, ``matrix`` of shape ``(codomain.dim, domain.dim)``.
    A read-only float64 ndarray is shared as it is (see the module's sharing
    rule: its owner can make it writeable again); anything else is copied
    and the copy frozen."""

    matrix: np.ndarray
    domain: SpaceTag
    codomain: SpaceTag

    def __post_init__(self):
        m = _shared(self.matrix)
        if m.ndim != 2 or m.shape != (self.codomain.dim, self.domain.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match "
                f"{self.codomain.dim} x {self.domain.dim} for {self.domain} -> {self.codomain}"
            )
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class DiagonalOperator:
    """A diagonal operator between two tags of equal truncation, stored as
    its diagonal; ``matrix`` builds the dense form on each read.  The
    diagonal is shared or copied as in :class:`DenseOperator`."""

    diag: np.ndarray
    domain: SpaceTag
    codomain: SpaceTag

    def __post_init__(self):
        d = _shared(self.diag)
        if d.ndim != 1 or not self.domain.dim == self.codomain.dim == d.shape[0]:
            raise SpaceMismatchError("diagonal length must match both truncations")
        object.__setattr__(self, "diag", d)

    @property
    def matrix(self) -> np.ndarray:
        return _freeze(np.diag(self.diag))


Operator = DenseOperator | DiagonalOperator


def row_norms(rows: np.ndarray, tag: SpaceTag, at: np.ndarray | None = None) -> np.ndarray:
    """Norm of each row of a ``(k, dim)`` array in ``tag``, or of the rows
    ``rows[at]`` for an integer index ``at``.

    Each row gets exactly the arithmetic of a single-vector norm: power mean
    for finite p (with the peak scaled out so large p does not underflow),
    sup otherwise.  At p = 2 the rows go through ``np.vecdot``, which sums
    each row in the order of ``np.dot`` on that row alone, not in the
    pairwise order of ``np.sum``.  The rows are walked in blocks of about
    ``_BLOCK_BYTES``: the absolute values of each block go into one reused
    C-ordered float64 scratch whatever the dtype and layout of ``rows``
    (integers, a column block) and are worked on in place there, so each
    row is summed in the one-vector order and no ``(k, dim)`` temporary is
    made.  At p = 2 the squares of entries below about 1.5e-154 underflow
    and those above about 1.3e154 overflow, so each row whose norm comes
    out below ``sqrt(tiny)`` or infinite is taken again, with its peak
    scaled out as at every other finite p; every other row keeps its bits.
    The first pass's overflow warning is held back, so a warning means the
    norm itself overflows.  With ``at``, each block's rows are gathered
    straight from ``rows`` and get the same arithmetic, so
    ``row_norms(rows, tag, at)`` equals ``row_norms(rows, tag)[at]`` bit for
    bit without a copy of the picked rows.
    """
    rows = np.asarray(rows)
    dim = rows.shape[1]
    k = rows.shape[0] if at is None else at.shape[0]
    step = max(1, _BLOCK_BYTES // max(8 * dim, 1))
    scratch = np.empty((min(step, k), dim))
    pf = None if tag.kind != "lp" or tag.p.is_inf else float(tag.p)
    out = np.empty(k)
    with np.errstate(over="ignore") if pf == 2.0 else nullcontext():
        for i in range(0, k, step):
            x = scratch[: min(step, k - i)]
            # converted to float64 before abs, so integer rows cannot overflow
            block = rows[i : i + step] if at is None else rows[at[i : i + step]]
            np.abs(block, out=x, dtype=np.float64, casting="unsafe")
            out[i : i + x.shape[0]] = _block_norms(x, pf)
    if pf == 2.0:
        retake = np.flatnonzero((out < _SQRT_TINY) | (out == np.inf))
        for i in range(0, retake.size, step):
            idx = retake[i : i + step]
            x = scratch[: idx.size]
            np.abs(rows[idx if at is None else at[idx]], out=x, dtype=np.float64,
                   casting="unsafe")
            top = _scale_out_peak(x)
            out[idx] = top * np.sqrt(np.vecdot(x, x))
    return out


def _block_norms(x: np.ndarray, pf: float | None) -> np.ndarray:
    """Row norms of the block ``x`` of absolute values, which it overwrites;
    ``pf`` is the finite exponent, or None for the sup norm."""
    if pf is None:
        return x.max(axis=1, initial=0.0)
    if pf == 1.0:
        return x.sum(axis=1)
    if pf == 2.0:
        return np.sqrt(np.vecdot(x, x))
    top = _scale_out_peak(x)
    np.power(x, pf, out=x)
    return top * np.power(x.sum(axis=1), 1.0 / pf)


def _scale_out_peak(x: np.ndarray) -> np.ndarray:
    """Divide each row of ``x`` by its largest entry, in place; return those
    peaks.  Rows of peak 0 or ``inf`` divide by 1 instead, so their norms
    still come out as 0 and ``inf``."""
    top = x.max(axis=1, initial=0.0)
    x /= np.where((top == 0.0) | (top == np.inf), 1.0, top)[:, None]
    return top


def lp_norm(x: np.ndarray, tag: SpaceTag) -> float:
    """Norm of the 1-d array ``x`` in ``tag``: the one-row case of :func:`row_norms`."""
    return float(row_norms(x[None, :], tag)[0])


def compose(ops: Sequence[Operator]) -> DenseOperator:
    """Compose stages listed in application order (first applied first).

    A diagonal stage scales the rows of the running product, which gives
    bit for bit the product with its dense matrix.  The second stage makes
    the one fresh running product and each later diagonal stage scales it
    in place, so no input stage is changed; the result is frozen, not
    copied, and a single stage comes back sharing its own matrix.
    """
    if not ops:
        raise ValueError("compose needs at least one operator")
    for i in range(len(ops) - 1):
        if ops[i].codomain != ops[i + 1].domain:
            raise SpaceMismatchError(
                f"junction {i}: stage {i} ends in {ops[i].codomain} "
                f"but stage {i + 1} starts from {ops[i + 1].domain}"
            )
    product = ops[0].matrix
    owned = False  # whether product is a fresh array compose may scale in place
    for op in ops[1:]:
        if not isinstance(op, DiagonalOperator):
            product = op.matrix @ product
        elif owned:
            product *= op.diag[:, None]
        else:
            product = op.diag[:, None] * product
        owned = True
    return DenseOperator(_freeze(product), ops[0].domain, ops[-1].codomain)


# --- JSON interchange -------------------------------------------------------
#
# Operators are written as JSON arrays next to their tags (row-major for a
# matrix, a diagonal operator as its diagonal); this is the format the
# pipeline export uses.  The array leaves stay ndarrays, read-only and
# C-contiguous, so they are written straight from their buffers by orjson
# with ``OPT_SERIALIZE_NUMPY``; the stdlib ``json`` cannot write them.  Reps
# and configs are read by their own loaders.


def json_object(data, where: str, *required: str) -> dict:
    """``data`` if it is a JSON object holding every ``required`` key;
    otherwise a one-line ``ValueError`` that names ``where``."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(data).__name__}")
    for key in required:
        if key not in data:
            raise ValueError(f"{where} is missing required field {key!r}")
    return data


def tag_to_json(tag: SpaceTag) -> dict:
    out: dict = {"kind": tag.kind, "dim": tag.dim}
    if tag.kind == "lp":
        out["p"] = str(tag.p)
    return out


def operator_to_json(op: Operator) -> dict:
    """The tags and the ``matrix`` (or ``diagonal``) of ``op`` as a
    read-only C-contiguous float64 ndarray, for orjson's
    ``OPT_SERIALIZE_NUMPY``: the operator's own array, or one frozen
    C-ordered copy of a matrix that is a transposed view."""
    if isinstance(op, DiagonalOperator):
        key, leaf = "diagonal", op.diag
    else:
        key, leaf = "matrix", op.matrix
    if not leaf.flags.c_contiguous:
        leaf = _freeze(np.ascontiguousarray(leaf))
    return {"domain": tag_to_json(op.domain), "codomain": tag_to_json(op.codomain), key: leaf}
