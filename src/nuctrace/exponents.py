"""Exact exponent arithmetic for the summability-order relations.

Everything here is integer-rational: an exponent ``p`` in ``[1, inf]`` is
stored through its reciprocal ``1/p``, a :class:`fractions.Fraction` in
``[0, 1]``, so that ``p = inf`` is the exact value ``0`` and no floating
point ever enters the identities

    1/s = 1 + |1/2 - 1/p|,    1/r = 1/s - 1,    (1 - s) * r = s,

or the three-exponent chain ``1/r + 1/2 + 1/p = 1``.

The string grammar ``"7/3"``, ``"2"``, ``"inf"`` (case-insensitive) is the
one the command line uses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Exponent",
    "OrderExponent",
    "ParameterTriple",
    "INF",
    "s_from_p",
    "r_from_s",
    "conjugate",
    "reduce_to_p_ge_2",
    "check_holder_chain",
]

_HALF = Fraction(1, 2)
_ONE = Fraction(1)


# Fraction expands a decimal exponent to an exact integer before any range
# check could run ("1e9999999" takes most of a minute), so bound it first.
_DECIMAL_EXP = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    exp = _DECIMAL_EXP.search(text)
    if len(text) > 64 or (exp and abs(int(exp.group(1))) > 1000):
        raise ValueError(
            "exponent literal over 64 characters or with a decimal exponent "
            f"beyond +-1000: {text[:64]!r}"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational exponent literal: {text!r}") from exc


class Exponent:
    """An exponent in ``[1, inf]`` with exact reciprocal arithmetic.

    Accepts an ``int``, a :class:`~fractions.Fraction`, another
    :class:`Exponent`, or one of the string literals ``"7/3"``, ``"2"``,
    ``"inf"``.  Plain floats are rejected: they would smuggle rounding
    error into identities that must hold exactly.
    """

    __slots__ = ("_recip",)

    def __init__(self, value):
        if isinstance(value, Exponent):
            self._recip = value._recip
            return
        if isinstance(value, str):
            if value.strip().lower() == "inf":
                self._recip = Fraction(0)
                return
            value = _parse_rational(value)
        if isinstance(value, float):
            if value == float("inf"):
                self._recip = Fraction(0)
                return
            raise TypeError(
                "float exponents are not exact; pass an int, Fraction or string"
            )
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"cannot build an Exponent from {type(value).__name__}")
        value = Fraction(value)
        if value < 1:
            raise ValueError(f"exponent must satisfy p >= 1, got {value}")
        self._recip = 1 / value

    @classmethod
    def from_reciprocal(cls, recip: Fraction) -> "Exponent":
        """Build from an exact reciprocal in ``[0, 1]`` (``0`` means ``inf``)."""
        recip = Fraction(recip)
        if not 0 <= recip <= 1:
            raise ValueError(f"reciprocal must lie in [0, 1], got {recip}")
        return cls("inf") if recip == 0 else cls(1 / recip)

    @property
    def reciprocal(self) -> Fraction:
        return self._recip

    @property
    def is_inf(self) -> bool:
        return self._recip == 0

    @property
    def value(self) -> Fraction | None:
        """The exponent as an exact rational, or ``None`` for ``inf``."""
        if self._recip == 0:
            return None
        return 1 / self._recip

    def __float__(self) -> float:
        if self._recip == 0:
            return float("inf")
        return float(1 / self._recip)

    def __eq__(self, other) -> bool:
        if isinstance(other, Exponent):
            return self._recip == other._recip
        if isinstance(other, (int, Fraction)):
            return not self.is_inf and self.value == other
        return NotImplemented

    def __hash__(self):
        # equal to hash(int/Fraction) where __eq__ says equal
        return hash(float("inf")) if self.is_inf else hash(self.value)

    # Larger exponent <=> smaller reciprocal; inf is the maximum.
    def __lt__(self, other) -> bool:
        return self._recip > _coerce(other)._recip

    def __le__(self, other) -> bool:
        return self._recip >= _coerce(other)._recip

    def __gt__(self, other) -> bool:
        return self._recip < _coerce(other)._recip

    def __ge__(self, other) -> bool:
        return self._recip <= _coerce(other)._recip

    def __str__(self) -> str:
        if self.is_inf:
            return "inf"
        return str(self.value)

    def __repr__(self) -> str:
        return f"Exponent({str(self)!r})"


def _coerce(value) -> Exponent:
    return value if isinstance(value, Exponent) else Exponent(value)


INF = Exponent("inf")


class OrderExponent:
    """A summability order ``s`` in ``(0, 1]``, stored as an exact rational."""

    __slots__ = ("_value",)

    def __init__(self, value):
        if isinstance(value, OrderExponent):
            self._value = value._value
            return
        if isinstance(value, str):
            value = _parse_rational(value)
        if isinstance(value, float):
            raise TypeError(
                "float orders are not exact; pass an int, Fraction or string"
            )
        value = Fraction(value)
        if not 0 < value <= 1:
            raise ValueError(f"order must lie in (0, 1], got {value}")
        self._value = value

    @property
    def value(self) -> Fraction:
        return self._value

    @property
    def reciprocal(self) -> Fraction:
        """``1/s`` as an exact rational, always ``>= 1``."""
        return 1 / self._value

    def __float__(self) -> float:
        return float(self._value)

    def __eq__(self, other) -> bool:
        if isinstance(other, OrderExponent):
            return self._value == other._value
        if isinstance(other, (int, Fraction)):
            return self._value == other
        return NotImplemented

    def __hash__(self):
        return hash(self._value)

    def __str__(self) -> str:
        return str(self._value)

    def __repr__(self) -> str:
        return f"OrderExponent({str(self)!r})"


def s_from_p(p) -> OrderExponent:
    """Order exponent on the curve ``1/s = 1 + |1/2 - 1/p|``.

    Invariant under conjugation: ``s_from_p(p) == s_from_p(conjugate(p))``.
    """
    p = _coerce(p)
    recip_s = _ONE + abs(_HALF - p.reciprocal)
    return OrderExponent(1 / recip_s)


def r_from_s(s) -> Exponent:
    """Residual exponent with ``1/r = 1/s - 1``; ``s = 1`` maps to ``inf``."""
    s = OrderExponent(s)
    return Exponent.from_reciprocal(s.reciprocal - _ONE)


def conjugate(p) -> Exponent:
    """Dual exponent: ``1/p + 1/conjugate(p) = 1`` exactly."""
    p = _coerce(p)
    return Exponent.from_reciprocal(_ONE - p.reciprocal)


def reduce_to_p_ge_2(p) -> Exponent:
    """The larger of ``p`` and its conjugate; always ``>= 2`` and idempotent."""
    p = _coerce(p)
    return Exponent.from_reciprocal(min(p.reciprocal, _ONE - p.reciprocal))


def check_holder_chain(exps) -> bool:
    """True iff the reciprocals of the given exponents sum exactly to 1."""
    total = sum((_coerce(e).reciprocal for e in exps), Fraction(0))
    return total == _ONE


@dataclass(frozen=True)
class ParameterTriple:
    """An exact ``(p, s, r)`` triple tied together by the curve identities.

    Construction fails unless ``s == s_from_p(p)`` and ``r == r_from_s(s)``
    hold exactly.  In exact arithmetic ``1/r = 1/s - 1`` already gives
    ``(1 - s) r = s`` for finite ``r`` and ``s = 1`` exactly when ``r = inf``.
    """

    p: Exponent
    s: OrderExponent
    r: Exponent

    def __post_init__(self):
        p, s, r = _coerce(self.p), OrderExponent(self.s), _coerce(self.r)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "r", r)
        if s != s_from_p(p):
            raise ValueError(f"1/s = 1 + |1/2 - 1/p| fails for p={p}, s={s}")
        if r != r_from_s(s):
            raise ValueError(f"1/r = 1/s - 1 fails for s={s}, r={r}")

    @classmethod
    def from_p(cls, p) -> "ParameterTriple":
        """The reduced triple for ``p``: conjugate below 2, then solve for s, r.

        The identity ``(1 - s) r = s`` encoded in the triple is what
        guarantees the ``mu^(1-s)`` diagonal is r-summable whenever ``mu^s``
        is summable.  ``nuctrace.factorization.exponent_budget`` is this
        same function.
        """
        p2 = reduce_to_p_ge_2(p)
        s = s_from_p(p2)
        return cls(p2, s, r_from_s(s))

    def as_dict(self) -> dict:
        return {"p": str(self.p), "s": str(self.s), "r": str(self.r)}

    def __str__(self) -> str:
        return f"(p={self.p}, s={self.s}, r={self.r})"
